// The load generator for the wire workloads: ONE thread drives every
// connection through one epoll set. Writers are closed loop — each keeps
// a fixed window of unacked PushBatch frames — and replays its block pass
// after pass into a few long sessions, each of whose final Query must be
// bit-equal to the in-process reference. One optional reader issues reads
// on a fixed schedule against writer 0's current session and is timed
// from when each read was due, so a stalled server or a late generator
// shows up in the latency instead of being hidden.
//
// Every latency is an exact steady_clock difference stored in a
// preallocated array; percentiles are computed by sorting afterwards.

#ifndef PERFBENCH_WIRE_GEN_H_
#define PERFBENCH_WIRE_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "history/query.h"
#include "service/protocol.h"

namespace perfbench {

/// One writer: `sessions` sessions one after another, each replaying the
/// block `passes` times. Session i is named "<hello.session>-s<i>".
struct WriterPlan {
  const Block* block = nullptr;
  varstream::HelloFrame hello;
  uint32_t sessions = 1;
  uint32_t passes = 1;
};

struct ReaderPlan {
  bool enabled = false;
  std::vector<ReadKind> rotation;
  int64_t period_ns = 0;       // reads due every period_ns, or
  uint32_t every_batches = 0;  // due at every Nth ack of writer 0
  varstream::QuerySpec range_spec;
};

/// Timestamps of one acked batch (traced runs keep every one).
struct BatchStamp {
  int64_t enc0 = 0;   // before AppendPushBatchFrame
  int64_t enc1 = 0;   // frame encoded
  int64_t sent = 0;   // last byte handed to the kernel
  int64_t acked = 0;  // PushAck decoded
  uint32_t writer = 0;
  uint32_t seq = 0;
};

struct GenStats {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// When the first writer finished its passes. Until then every writer
  /// is loading the server; the figures are taken over [start, this).
  int64_t first_done_ns = 0;
  uint64_t updates_acked = 0;
  uint64_t batches_acked = 0;
  uint64_t overloaded = 0;
  uint64_t messages = 0;       // sum over checked sessions
  double variability = 0.0;    // sum over checked sessions
  Samples ack_us;
  Samples query_us;
  Samples range_us;
  Samples dump_us;
  Samples late_us;  // reader: send time minus due time
  uint64_t reads_skipped = 0;  // dues that passed while a read was out
  std::vector<BatchStamp> stamps;
};

/// Runs every writer to completion of its passes. Checks and failures
/// are recorded into *result (attempted/failed/notes); returns false on
/// a fatal transport or protocol error.
bool RunWireGenerator(const WorkloadSpec& spec, uint16_t port,
                      const std::vector<WriterPlan>& writers,
                      const ReaderPlan& reader, bool keep_stamps,
                      Tracer* tracer, GenStats* stats, RunResult* result);

/// Blocking connect to 127.0.0.1:port with TCP_NODELAY; -1 on failure.
int ConnectLoopback(uint16_t port);

/// Blocking Hello on a fresh connection; false with *error on failure.
bool BlockingHello(int fd, const varstream::HelloFrame& hello,
                   std::string* error);

/// Blocking PushBatch of `batch` as `seq`; waits for its PushAck.
bool BlockingPush(int fd, uint64_t seq, std::span<const CountUpdate> batch,
                  std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_GEN_H_
