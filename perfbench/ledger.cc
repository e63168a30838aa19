// The layer ledger of a traced run: each layer's public call timed on
// the workload's own batches, one span per call, with the clock's own
// cost subtracted. Round-trip layers are measured against probe servers
// started here (window 1, nothing else running), so they isolate the
// layer rather than the contention of the end-to-end run.

#include <algorithm>
#include <cstdio>

#include "core/mergeable.h"
#include "core/registry.h"
#include "core/sharded.h"
#include "hierarchy/merge.h"
#include "hierarchy/partition.h"
#include "hierarchy/root.h"
#include "history/history.h"
#include "history/query.h"
#include "service/checkpoint.h"
#include "service/client.h"
#include "service/protocol.h"
#include "workloads.h"

namespace perfbench {

using varstream::CountUpdate;
using varstream::ShardedTracker;
using varstream::TrackerOptions;
using varstream::TrackerSnapshot;

namespace {

// Reads taken of each round-trip or whole-state layer.
constexpr int kRepeats = 50;

// Results of timed calls are folded in here so the compiler cannot drop
// the calls.
uint64_t g_sink = 0;

// Cost of one steady_clock read, subtracted from every timed call.
double ClockOverheadNs() {
  std::vector<double> d;
  for (int i = 0; i < 1001; ++i) {
    const int64_t a = NowNs();
    const int64_t b = NowNs();
    d.push_back(static_cast<double>(b - a));
  }
  return Median(d);
}

// Accumulates one layer's timed calls as spans plus a running total.
class Timer {
 public:
  Timer(const char* name, Tracer* tracer, double clock_ns)
      : name_(name), tracer_(tracer), clock_ns_(clock_ns) {}
  void Record(int64_t t0, int64_t t1, uint64_t id) {
    tracer_->Add(name_, t0, t1, -1, id);
    total_ns_ += std::max(0.0, static_cast<double>(t1 - t0) - clock_ns_);
    ++calls_;
  }
  double total_ns() const { return total_ns_; }
  double mean_us() const { return calls_ ? total_ns_ / calls_ / 1e3 : 0; }

 private:
  const char* name_;
  Tracer* tracer_;
  double clock_ns_;
  double total_ns_ = 0;
  uint64_t calls_ = 0;
};

TrackerOptions FullOptions(const WorkloadSpec& spec, const Block& block) {
  TrackerOptions options;
  options.num_sites = spec.sites;
  options.epsilon = spec.epsilon;
  options.initial_value = block.initial_value;
  return options;
}

void Put(RunResult* r, const std::string& name, double value,
         const std::string& unit) {
  r->per_layer[name] = Metric{value, unit};
}

}  // namespace

void RunLedger(const WorkloadSpec& spec, const Block& block,
               const std::string& work_dir, Tracer* tracer,
               LayerMeans* means, RunResult* result) {
  const size_t n = std::min<size_t>(
      block.num_batches(),
      std::min<size_t>(4096, std::max<size_t>(64, (1u << 20) / spec.batch)));
  const double updates = static_cast<double>(n) * spec.batch;
  const uint32_t query_every =
      spec.query_every_batches > 0 ? spec.query_every_batches : 32;
  const double clock_ns = ClockOverheadNs();
  const TrackerOptions options = FullOptions(spec, block);
  const uint64_t cadence =
      spec.history_cadence > 0 ? spec.history_cadence : 8192;
  std::string error;
  std::printf("ledger: %zu batches of the workload's input, clock read "
              "%.1f ns subtracted per call\n", n, clock_ns);

  // core: serial and sharded engines on the same batches, with the
  // history sampler and the leaf-range split riding along.
  auto serial =
      varstream::TrackerRegistry::Instance().Create("deterministic", options);
  const uint32_t shards = spec.shards > 0 ? spec.shards : 2;
  const uint32_t leaves = spec.leaves > 0 ? spec.leaves : 3;
  const auto ranges = varstream::PartitionSites(spec.sites, leaves);
  const auto owner = varstream::SiteOwners(ranges, spec.sites);
  std::unique_ptr<ShardedTracker> sharded;
  std::vector<std::unique_ptr<ShardedTracker>> leaf_engines;
  sharded = ShardedTracker::Create("deterministic", options, shards, &error);
  for (const auto& range : ranges) {
    TrackerOptions leaf_options = options;
    leaf_options.num_sites = range.size();
    leaf_options.site_base = range.lo;
    leaf_options.initial_value = 0;
    leaf_engines.push_back(
        ShardedTracker::Create("deterministic", leaf_options, 1, &error));
  }
  varstream::HistorySampler sampler({1024, cadence});
  std::vector<std::vector<std::vector<CountUpdate>>> subs(n);

  Timer apply("core.apply", tracer, clock_ns);
  Timer snapshot("core.snapshot", tracer, clock_ns);
  Timer publish("core.sharded_publish", tracer, clock_ns);
  Timer drain("core.drain", tracer, clock_ns);
  Timer partition("hierarchy.partition", tracer, clock_ns);
  Timer splice("hierarchy.splice", tracer, clock_ns);
  for (size_t b = 0; b < n; ++b) {
    auto batch = block.Batch(0, b);
    int64_t t0 = NowNs();
    serial->PushBatch(batch);
    int64_t t1 = NowNs();
    apply.Record(t0, t1, b);
    t0 = NowNs();
    sharded->PushBatch(batch);
    t1 = NowNs();
    publish.Record(t0, t1, b);
    t0 = NowNs();
    varstream::PartitionBatch(batch, owner, ranges, &subs[b]);
    t1 = NowNs();
    partition.Record(t0, t1, b);
    for (uint32_t leaf = 0; leaf < leaves; ++leaf) {
      leaf_engines[leaf]->PushBatch(subs[b][leaf]);
    }
    if (sampler.Due(batch.size())) {
      TrackerSnapshot s = serial->Snapshot();
      sampler.Record({s.time, s.estimate, s.messages, s.bits, 0});
    }
    if ((b + 1) % query_every != 0 && b + 1 != n) continue;
    t0 = NowNs();
    TrackerSnapshot serial_snap = serial->Snapshot();
    t1 = NowNs();
    snapshot.Record(t0, t1, b);
    t0 = NowNs();
    TrackerSnapshot sharded_snap = sharded->Snapshot();
    t1 = NowNs();
    drain.Record(t0, t1, b);
    std::vector<std::string> states;
    for (const auto& engine : leaf_engines) {
      states.push_back(engine->SerializeState());
    }
    std::unique_ptr<ShardedTracker> mirror;
    t0 = NowNs();
    bool spliced = varstream::SpliceLeafStates("deterministic", options,
                                               ranges, states, &mirror,
                                               &error);
    t1 = NowNs();
    splice.Record(t0, t1, b);
    ++result->attempted;
    if (!spliced || !SameSnapshot(mirror->Snapshot(), sharded_snap)) {
      result->Fail("ledger: spliced leaf states differ from one engine");
    }
    g_sink += serial_snap.messages;
  }
  Put(result, "core.apply_ns_per_update", apply.total_ns() / updates, "ns");
  Put(result, "core.snapshot_us", snapshot.mean_us(), "us");
  Put(result, "core.sharded_publish_ns_per_update",
      publish.total_ns() / updates, "ns");
  Put(result, "core.drain_us", drain.mean_us(), "us");
  Put(result, "hierarchy.partition_ns_per_update",
      partition.total_ns() / updates, "ns");
  Put(result, "hierarchy.splice_us", splice.mean_us(), "us");
  means->apply_us = apply.total_ns() / n / 1e3;
  means->sharded_publish_us = publish.total_ns() / n / 1e3;
  means->partition_us = partition.total_ns() / n / 1e3;
  {
    const varstream::DistributedTracker& engine =
        spec.shards == 0
            ? *serial
            : static_cast<const varstream::DistributedTracker&>(*sharded);
    TrackerSnapshot s = engine.Snapshot();
    Put(result, "net.msgs_per_update",
        static_cast<double>(s.messages) / static_cast<double>(s.time),
        "count");
    Put(result, "net.bits_per_update",
        static_cast<double>(s.bits) / static_cast<double>(s.time), "count");
  }

  // history: evaluating the dashboard query over the sampled rows.
  {
    const std::vector<varstream::HistoryRow> rows = sampler.ring().Rows();
    varstream::QuerySpec query;
    query.agg = varstream::Aggregation::kMean;
    query.buckets = 64;
    Timer evaluate("history.evaluate", tracer, clock_ns);
    for (int i = 0; i < kRepeats; ++i) {
      const int64_t t0 = NowNs();
      auto out = varstream::EvaluateQuery(rows, query);
      const int64_t t1 = NowNs();
      evaluate.Record(t0, t1, i);
      g_sink += out.size();
    }
    Put(result, "history.evaluate_us", evaluate.mean_us(), "us");
  }

  // service codec: the calls a frame passes through, client and server.
  {
    Timer encode("protocol.encode", tracer, clock_ns);
    Timer crc("protocol.crc", tracer, clock_ns);
    Timer frame_view("protocol.frame_view", tracer, clock_ns);
    Timer push_view("protocol.push_view", tracer, clock_ns);
    Timer ack_codec("protocol.ack_codec", tracer, clock_ns);
    std::vector<uint8_t> frame;
    std::vector<CountUpdate> materialized;
    materialized.reserve(spec.batch);
    double crc_bytes = 0;
    double wire_bytes = 0;
    for (size_t b = 0; b < n; ++b) {
      frame.clear();
      int64_t t0 = NowNs();
      varstream::AppendPushBatchFrame(&frame, b, block.Batch(0, b));
      int64_t t1 = NowNs();
      encode.Record(t0, t1, b);
      wire_bytes += static_cast<double>(frame.size());
      std::span<const uint8_t> body(frame.data() + 4, frame.size() - 8);
      t0 = NowNs();
      g_sink += varstream::Crc32(body);
      t1 = NowNs();
      crc.Record(t0, t1, b);
      crc_bytes += static_cast<double>(body.size());
      varstream::FrameView view;
      size_t consumed = 0;
      t0 = NowNs();
      auto status =
          varstream::DecodeFrameView(frame, &view, &consumed, &error);
      t1 = NowNs();
      frame_view.Record(t0, t1, b);
      varstream::PushBatchView batch_view;
      materialized.clear();
      t0 = NowNs();
      bool decoded = varstream::DecodePushBatchView(view.payload, &batch_view);
      varstream::MaterializeUpdates(batch_view, &materialized);
      t1 = NowNs();
      push_view.Record(t0, t1, b);
      ++result->attempted;
      if (status != varstream::DecodeStatus::kOk || !decoded ||
          materialized.size() != spec.batch ||
          materialized.back().delta != block.Batch(0, b).back().delta) {
        result->Fail("ledger: frame did not round-trip");
      }
      varstream::PushAckFrame ack{b, block.ClockAt(0, b), false};
      varstream::PushAckFrame back;
      t0 = NowNs();
      auto payload = varstream::EncodePushAck(ack);
      varstream::DecodePushAck(payload, &back);
      t1 = NowNs();
      ack_codec.Record(t0, t1, b);
      g_sink += back.session_time;
    }
    Put(result, "protocol.encode_ns_per_update", encode.total_ns() / updates,
        "ns");
    Put(result, "protocol.crc_ns_per_byte", crc.total_ns() / crc_bytes, "ns");
    Put(result, "protocol.push_view_ns_per_update",
        push_view.total_ns() / updates, "ns");
    Put(result, "protocol.frame_view_ns_per_frame",
        frame_view.total_ns() / static_cast<double>(n), "ns");
    Put(result, "protocol.ack_codec_ns_per_frame",
        ack_codec.total_ns() / static_cast<double>(n), "ns");
    Put(result, "protocol.wire_bytes_per_update", wire_bytes / updates,
        "count");
    means->encode_us = encode.mean_us();
    means->frame_view_us = frame_view.mean_us();
    means->push_view_us = push_view.mean_us();
    means->ack_codec_us = ack_codec.mean_us();
  }

  // checkpoint: the session the workload runs, with its history.
  {
    varstream::SessionCheckpoint entry;
    entry.name = "ledger";
    entry.tracker = "deterministic";
    entry.options = options;
    if (spec.shards == 0) {
      entry.state =
          dynamic_cast<varstream::Mergeable&>(*serial).SerializeState();
    } else {
      entry.shards = shards;
      entry.state = sharded->SerializeState();
    }
    entry.has_history = true;
    entry.history.capacity = 1024;
    entry.history.cadence = cadence;
    entry.history.rows = sampler.ring().Rows();
    const std::vector<varstream::SessionCheckpoint> entries = {entry};
    const std::string path = work_dir + "/ledger.ckpt";
    Timer write("checkpoint.write", tracer, clock_ns);
    for (int i = 0; i < kRepeats; ++i) {
      const int64_t t0 = NowNs();
      bool ok = varstream::WriteCheckpointFile(path, entries, &error);
      const int64_t t1 = NowNs();
      write.Record(t0, t1, i);
      ++result->attempted;
      if (!ok) result->Fail("ledger: checkpoint write: " + error);
    }
    std::remove(path.c_str());
    Put(result, "checkpoint.write_us", write.mean_us(), "us");
  }

  // service: one frame at a time against an idle one-worker server; the
  // round trip less the frame's codec and apply is loopback syscalls,
  // reassembly and wake-ups.
  {
    varstream::ServerOptions server_options;
    server_options.port = 0;
    server_options.workers = 1;
    server_options.history.cadence = cadence;
    varstream::VarstreamServer server(server_options);
    varstream::VarstreamClient client;
    varstream::HelloFrame hello;
    hello.session = "probe";
    hello.tracker = "deterministic";
    hello.options = options;
    varstream::HelloAckFrame hello_ack;
    if (!server.Start(&error) ||
        !client.Connect("127.0.0.1", server.port(), &error) ||
        !client.Hello(hello, &hello_ack, &error)) {
      result->Fail("ledger: probe server: " + error);
      return;
    }
    Timer rtt("service.push_rtt", tracer, clock_ns);
    for (size_t b = 0; b < n; ++b) {
      varstream::PushAckFrame ack;
      const int64_t t0 = NowNs();
      bool ok = client.Push(block.Batch(0, b), &ack, &error);
      const int64_t t1 = NowNs();
      rtt.Record(t0, t1, b);
      ++result->attempted;
      if (!ok) result->Fail("ledger: probe push: " + error);
    }
    const double codec_apply = means->encode_us + means->frame_view_us +
                               means->push_view_us + means->apply_us +
                               means->ack_codec_us;
    Put(result, "service.remainder_us_per_frame", rtt.mean_us() - codec_apply,
        "us");
    Timer range("history.query_range", tracer, clock_ns);
    Timer dump("obs.metrics_dump", tracer, clock_ns);
    Timer collect("obs.collect", tracer, clock_ns);
    varstream::QueryRangeFrame query;
    query.session = "probe";
    query.spec.agg = varstream::Aggregation::kMean;
    query.spec.buckets = 64;
    for (int i = 0; i < kRepeats; ++i) {
      varstream::QueryRangeResultFrame rows;
      varstream::MetricsDumpResultFrame metrics;
      int64_t t0 = NowNs();
      bool ok = client.QueryRange(query, &rows, &error);
      int64_t t1 = NowNs();
      range.Record(t0, t1, i);
      t0 = NowNs();
      ok = client.MetricsDump(&metrics, &error) && ok;
      t1 = NowNs();
      dump.Record(t0, t1, i);
      t0 = NowNs();
      g_sink += server.CollectMetrics().points.size();
      t1 = NowNs();
      collect.Record(t0, t1, i);
      result->attempted += 2;
      if (!ok) result->Fail("ledger: probe read: " + error);
    }
    Put(result, "history.query_range_us", range.mean_us(), "us");
    Put(result, "obs.metrics_dump_us", dump.mean_us(), "us");
    Put(result, "obs.collect_us", collect.mean_us(), "us");
    client.Close();
    server.Stop();
  }

  // hierarchy: the same batches through a root over pinned leaves, and
  // each batch's sub-batches pushed straight to those leaves.
  {
    PinnedLeafLauncher launcher(work_dir, 1);
    varstream::RootOptions root_options;
    root_options.port = 0;
    root_options.num_leaves = leaves;
    root_options.checkpoint_every =
        spec.checkpoint_every > 0 ? spec.checkpoint_every : uint64_t{1} << 20;
    varstream::RootAggregator root(root_options, &launcher);
    bool ok = root.Start(&error);
    std::vector<std::unique_ptr<varstream::VarstreamClient>> direct;
    for (uint32_t leaf = 0; ok && leaf < leaves; ++leaf) {
      direct.push_back(std::make_unique<varstream::VarstreamClient>());
      varstream::HelloFrame hello;
      hello.session = "probe-direct";
      hello.tracker = "deterministic";
      hello.shards = 1;
      hello.options = options;
      hello.options.num_sites = ranges[leaf].size();
      hello.options.site_base = ranges[leaf].lo;
      hello.options.initial_value = 0;
      varstream::HelloAckFrame ack;
      ok = direct.back()->Connect("127.0.0.1", launcher.port(leaf), &error) &&
           direct.back()->Hello(hello, &ack, &error);
    }
    varstream::VarstreamClient upward;
    if (ok) {
      varstream::HelloFrame hello;
      hello.session = "probe-root";
      hello.tracker = "deterministic";
      hello.shards = 1;
      hello.options = options;
      varstream::HelloAckFrame ack;
      ok = upward.Connect("127.0.0.1", root.port(), &error) &&
           upward.Hello(hello, &ack, &error);
    }
    if (!ok) {
      result->Fail("ledger: probe tree: " + error);
      root.Stop();
      launcher.RemoveFiles();
      return;
    }
    Timer leaf_rtt("hierarchy.leaf_rtt", tracer, clock_ns);
    Timer root_rtt("hierarchy.root_rtt", tracer, clock_ns);
    double leaf_sum_us = 0;
    double remainder_us = 0;
    for (size_t b = 0; b < n; ++b) {
      varstream::PushAckFrame ack;
      double this_batch_ns = 0;
      for (uint32_t leaf = 0; leaf < leaves; ++leaf) {
        if (subs[b][leaf].empty()) continue;
        const int64_t t0 = NowNs();
        bool pushed = direct[leaf]->Push(subs[b][leaf], &ack, &error);
        const int64_t t1 = NowNs();
        leaf_rtt.Record(t0, t1, b);
        this_batch_ns += static_cast<double>(t1 - t0) - clock_ns;
        ++result->attempted;
        if (!pushed) result->Fail("ledger: leaf push: " + error);
      }
      const int64_t t0 = NowNs();
      bool pushed = upward.Push(block.Batch(0, b), &ack, &error);
      const int64_t t1 = NowNs();
      root_rtt.Record(t0, t1, b);
      ++result->attempted;
      if (!pushed) result->Fail("ledger: root push: " + error);
      leaf_sum_us += this_batch_ns / 1e3;
      remainder_us += (static_cast<double>(t1 - t0) - clock_ns -
                       this_batch_ns) / 1e3;
    }
    remainder_us -= means->partition_us * static_cast<double>(n);
    Put(result, "hierarchy.leaf_rtt_us", leaf_rtt.mean_us(), "us");
    Put(result, "hierarchy.remainder_us_per_batch",
        remainder_us / static_cast<double>(n), "us");
    means->leaf_rtt_sum_us = leaf_sum_us / static_cast<double>(n);
    upward.Close();
    for (auto& c : direct) c->Close();
    root.Stop();
    launcher.RemoveFiles();
  }
  if (g_sink == 42) std::printf(" ");
}

}  // namespace perfbench
