// The four closed-loop workloads and the traced layer ledger.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "hierarchy/launcher.h"
#include "service/server.h"

namespace perfbench {

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;   // leaf checkpoints, removed after the run
  std::string spans_dir;  // where a traced run writes its spans
};

/// Runs one workload: set-up (repeated, median), warm-up, the timed
/// window, and — when config.trace — the traced replay and the layer
/// ledger. Prints human-readable detail on stdout as it goes.
RunResult RunWorkload(const RunConfig& config);

/// Starts tree leaves as in-process VarstreamServers with a pinned worker
/// count and history off (the stock InProcessLauncher uses automatic
/// worker counts). Leaf checkpoints land in `work_dir`.
class PinnedLeafLauncher : public varstream::LeafLauncher {
 public:
  PinnedLeafLauncher(std::string work_dir, uint32_t workers)
      : work_dir_(std::move(work_dir)), workers_(workers) {}
  ~PinnedLeafLauncher() override;

  bool Launch(uint32_t leaf, bool restore, varstream::LeafHandle* handle,
              std::string* error) override;
  void Kill(uint32_t leaf) override;
  std::string CheckpointLocation() const override { return work_dir_; }

  /// The port leaf `leaf` listens on (0 when it is not running).
  uint16_t port(uint32_t leaf) const;
  /// Rejection and queue counters summed over the live leaves.
  varstream::ServerStats Stats() const;
  /// Removes the leaves' checkpoint files.
  void RemoveFiles() const;

 private:
  std::string CheckpointPath(uint32_t leaf) const;
  std::string work_dir_;
  uint32_t workers_;
  uint32_t launched_ = 0;  // one past the highest leaf index launched
  std::map<uint32_t, std::unique_ptr<varstream::VarstreamServer>> servers_;
};

/// Per-frame layer costs measured by the ledger, used to reconcile a
/// traced run's end-to-end time. All in microseconds per frame (batch).
struct LayerMeans {
  double encode_us = 0;
  double frame_view_us = 0;
  double push_view_us = 0;
  double apply_us = 0;          // serial PushBatch
  double sharded_publish_us = 0;
  double ack_codec_us = 0;
  double partition_us = 0;
  double leaf_rtt_sum_us = 0;   // sum over leaves of one batch's pushes
};

/// Times every layer's public calls on `block` (the workload's own
/// input) and fills the per-layer metrics of *result.
void RunLedger(const WorkloadSpec& spec, const Block& block,
               const std::string& work_dir, Tracer* tracer,
               LayerMeans* means, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
