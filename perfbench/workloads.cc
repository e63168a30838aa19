#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "core/sharded.h"
#include "hierarchy/root.h"
#include "wire_gen.h"

namespace perfbench {

using varstream::HelloFrame;
using varstream::ServerStats;
using varstream::ShardedTracker;
using varstream::TrackerSnapshot;

namespace {

// Set-up is timed this many times per run, one start every
// kSetupSpacingNs, and the median is reported. Set-up takes about a
// millisecond. Back to back, every rep caught the same moment of a shared
// host, and the median over 10 runs moved by up to 27% between two sets;
// spaced out, by 9%. Each spaced rep starts on idle CPUs, as a server
// started on a quiet host does.
constexpr int kSetupReps = 25;
constexpr int64_t kSetupSpacingNs = 40'000'000;

}  // namespace

// --- PinnedLeafLauncher -------------------------------------------------

PinnedLeafLauncher::~PinnedLeafLauncher() { servers_.clear(); }

std::string PinnedLeafLauncher::CheckpointPath(uint32_t leaf) const {
  return work_dir_ + "/leaf_" + std::to_string(leaf) + ".ckpt";
}

bool PinnedLeafLauncher::Launch(uint32_t leaf, bool restore,
                                varstream::LeafHandle* handle,
                                std::string* error) {
  servers_.erase(leaf);
  varstream::ServerOptions options;
  options.port = 0;
  options.workers = workers_;
  options.checkpoint_path = CheckpointPath(leaf);
  if (restore) options.restore_path = options.checkpoint_path;
  options.history.capacity = 0;  // the root samples the merged history
  auto server = std::make_unique<varstream::VarstreamServer>(options);
  if (!server->Start(error)) return false;
  handle->host = "127.0.0.1";
  handle->port = server->port();
  handle->pid = 0;
  servers_[leaf] = std::move(server);
  launched_ = std::max(launched_, leaf + 1);
  return true;
}

void PinnedLeafLauncher::Kill(uint32_t leaf) { servers_.erase(leaf); }

uint16_t PinnedLeafLauncher::port(uint32_t leaf) const {
  auto it = servers_.find(leaf);
  return it == servers_.end() ? 0 : it->second->port();
}

ServerStats PinnedLeafLauncher::Stats() const {
  ServerStats sum;
  for (const auto& [leaf, server] : servers_) {
    ServerStats s = server->Stats();
    sum.overload_rejections += s.overload_rejections;
    sum.seq_gap_rejections += s.seq_gap_rejections;
    sum.peak_pending_batches =
        std::max(sum.peak_pending_batches, s.peak_pending_batches);
  }
  return sum;
}

void PinnedLeafLauncher::RemoveFiles() const {
  for (uint32_t leaf = 0; leaf < launched_; ++leaf) {
    std::remove(CheckpointPath(leaf).c_str());
    std::remove((CheckpointPath(leaf) + ".tmp").c_str());
  }
}

namespace {

// --- The system under test ----------------------------------------------

struct Sut {
  std::unique_ptr<varstream::VarstreamServer> server;
  std::unique_ptr<PinnedLeafLauncher> launcher;
  std::unique_ptr<varstream::RootAggregator> root;
  uint16_t port = 0;

  ServerStats Stats() const {
    if (server != nullptr) return server->Stats();
    if (launcher != nullptr) return launcher->Stats();
    return {};
  }
  void Stop() {
    if (root != nullptr) root->Stop();
    root.reset();
    if (launcher != nullptr) launcher->RemoveFiles();
    launcher.reset();
    if (server != nullptr) server->Stop();
    server.reset();
  }
};

HelloFrame MakeHello(const WorkloadSpec& spec, const Block& block,
                     const std::string& session) {
  HelloFrame hello;
  hello.session = session;
  hello.tracker = "deterministic";
  hello.shards = spec.shards;
  hello.options.num_sites = spec.sites;
  hello.options.epsilon = spec.epsilon;
  hello.options.initial_value = block.initial_value;
  return hello;
}

std::unique_ptr<ShardedTracker> MakeEngine(const WorkloadSpec& spec,
                                           const Block& block) {
  varstream::TrackerOptions options;
  options.num_sites = spec.sites;
  options.epsilon = spec.epsilon;
  options.initial_value = block.initial_value;
  std::string error;
  auto engine =
      ShardedTracker::Create("deterministic", options, spec.shards, &error);
  if (engine == nullptr) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    std::exit(2);
  }
  return engine;
}

// Constructs and starts the server (or the leaves and the root).
bool StartSut(const RunConfig& config, Sut* sut, RunResult* result) {
  const WorkloadSpec& spec = *config.spec;
  std::string error;
  if (spec.topology == Topology::kServer) {
    varstream::ServerOptions options;
    options.port = 0;
    options.workers = spec.server_workers;
    options.history.cadence = spec.history_cadence;
    sut->server = std::make_unique<varstream::VarstreamServer>(options);
    if (!sut->server->Start(&error)) {
      result->Fail("server start: " + error);
      return false;
    }
    sut->port = sut->server->port();
  } else {
    sut->launcher = std::make_unique<PinnedLeafLauncher>(
        config.work_dir, spec.leaf_workers);
    varstream::RootOptions options;
    options.port = 0;
    options.num_leaves = spec.leaves;
    options.checkpoint_every = spec.checkpoint_every;
    sut->root = std::make_unique<varstream::RootAggregator>(
        options, sut->launcher.get());
    if (!sut->root->Start(&error)) {
      result->Fail("root start: " + error);
      return false;
    }
    sut->port = sut->root->port();
  }
  return true;
}

// Starts the system, connects and says Hello for every session, and
// pushes one batch; returns the seconds that took.
bool SetUpSut(const RunConfig& config, const std::vector<Block>& blocks,
              int rep, Sut* sut, double* seconds, RunResult* result) {
  const WorkloadSpec& spec = *config.spec;
  std::string error;
  const int64_t t0 = NowNs();
  if (!StartSut(config, sut, result)) return false;
  std::vector<int> fds;
  bool ok = true;
  const std::string prefix = "setup" + std::to_string(rep) + "-w";
  for (uint32_t w = 0; ok && w <= spec.writers; ++w) {
    // The last connection is the reader, attached to writer 0's session.
    const uint32_t session = w < spec.writers ? w : 0;
    int fd = ConnectLoopback(sut->port);
    ok = fd >= 0 &&
         BlockingHello(fd,
                       MakeHello(spec, blocks[session],
                                 prefix + std::to_string(session)),
                       &error);
    if (fd >= 0) fds.push_back(fd);
  }
  // Batch 1, not the priming batch 0, so set-up does not time the prime.
  ok = ok && BlockingPush(fds[0], 0, blocks[0].Batch(0, 1), &error);
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  for (int fd : fds) ::close(fd);
  if (!ok) result->Fail("set-up: " + error);
  return ok;
}

// --- The in-process workload ---------------------------------------------

struct LocalStats {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t updates = 0;
  uint64_t batches = 0;
  uint64_t messages = 0;
  double variability = 0;
  Samples ack_us;
  Samples query_us;
};

// Each session is a fresh engine that replays the block `passes` times.
void RunLocal(const WorkloadSpec& spec, const Block& block, uint32_t sessions,
              uint32_t passes, Tracer* tracer, LocalStats* st,
              RunResult* result) {
  const size_t batches = block.num_batches();
  const size_t per_session = passes * batches;
  st->ack_us.Reserve(sessions * per_session);
  st->query_us.Reserve(sessions * per_session / spec.query_every_batches + 1);
  st->start_ns = NowNs();
  for (uint32_t session = 0; session < sessions; ++session) {
    auto engine = MakeEngine(spec, block);
    for (size_t seq = 0; seq < per_session; ++seq) {
      const int64_t t0 = NowNs();
      engine->PushBatch(block.Batch(seq / batches, seq % batches));
      const int64_t t1 = NowNs();
      st->ack_us.Add(static_cast<double>(t1 - t0) / 1e3, t1);
      tracer->Add("core.sharded_push", t0, t1, -1, seq);
      ++result->attempted;
      if ((seq + 1) % spec.query_every_batches == 0) {
        const int64_t t2 = NowNs();
        TrackerSnapshot snap = engine->Snapshot();
        const int64_t t3 = NowNs();
        st->query_us.Add(static_cast<double>(t3 - t2) / 1e3, t3);
        tracer->Add("core.snapshot", t2, t3, -1, seq);
        ++result->attempted;
        if (!WithinGuarantee(spec, block, snap.time, snap.estimate)) {
          result->Fail("sampled estimate outside the engine's guarantee");
        }
      }
    }
    // The session ends drained: Snapshot waits for every shard.
    TrackerSnapshot last = engine->Snapshot();
    st->updates += per_session * spec.batch;
    st->batches += per_session;
    ++result->attempted;
    if (SameSnapshot(last, block.reference[passes - 1])) {
      st->messages += last.messages;
      st->variability += block.variability[passes - 1];
    } else {
      result->Fail("final snapshot differs from the reference");
    }
  }
  st->end_ns = NowNs();
}

// --- Wire workloads --------------------------------------------------------

bool RunGen(const WorkloadSpec& spec, const std::vector<Block>& blocks,
            uint16_t port, const std::string& prefix, uint32_t sessions,
            uint32_t passes, bool keep_stamps, Tracer* tracer, GenStats* st,
            RunResult* result) {
  std::vector<WriterPlan> plans(spec.writers);
  for (uint32_t w = 0; w < spec.writers; ++w) {
    plans[w].block = &blocks[w];
    plans[w].hello = MakeHello(spec, blocks[w], prefix + std::to_string(w));
    plans[w].sessions = sessions;
    plans[w].passes = passes;
  }
  ReaderPlan reader;
  reader.enabled = !spec.reads.empty();
  reader.rotation = spec.reads;
  reader.period_ns = static_cast<int64_t>(spec.query_period_us) * 1000;
  reader.every_batches = spec.query_every_batches;
  reader.range_spec.agg = varstream::Aggregation::kMean;
  reader.range_spec.buckets = 64;
  return RunWireGenerator(spec, port, plans, reader, keep_stamps, tracer, st,
                          result);
}

struct Usage {
  double user_ns = 0;
  double sys_ns = 0;
  double vol_switches = 0;
};

Usage ReadUsage() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_ns = ru.ru_utime.tv_sec * 1e9 + ru.ru_utime.tv_usec * 1e3;
  u.sys_ns = ru.ru_stime.tv_sec * 1e9 + ru.ru_stime.tv_usec * 1e3;
  u.vol_switches = static_cast<double>(ru.ru_nvcsw);
  return u;
}

void Put(std::map<std::string, Metric>* m, const std::string& name,
         double value, const std::string& unit) {
  (*m)[name] = Metric{value, unit};
}

// Everything the timed window measured, however it was driven.
struct Window {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double seconds = 0;
  uint64_t updates = 0;
  uint64_t frames = 0;
  uint64_t messages = 0;
  double variability = 0;
  Samples* ack_us = nullptr;
  Samples* query_us = nullptr;
};

void PrintWindow(const char* label, const Window& w) {
  std::printf("%s: %.3f s, %llu updates, %llu frames, %.0f updates/s "
              "overall\n",
              label, w.seconds, static_cast<unsigned long long>(w.updates),
              static_cast<unsigned long long>(w.frames),
              static_cast<double>(w.updates) / w.seconds);
  std::printf("  ack   %s\n", w.ack_us->Describe("us").c_str());
  std::printf("  reads %s\n", w.query_us->Describe("us").c_str());
}

// Prints where a traced frame's round trip went: the generator's own
// spans (encode, send), the measured wait behind earlier frames of the
// same session, the ledger's per-frame cost of the server-side layers,
// and the remainder nobody accounts for.
void Reconcile(const WorkloadSpec& spec, const GenStats& traced,
               const LayerMeans& m, RunResult* result) {
  double rtt = 0, enc = 0, send = 0, queue = 0;
  const BatchStamp* prev = nullptr;
  std::vector<const BatchStamp*> last(spec.writers, nullptr);
  for (const BatchStamp& s : traced.stamps) {
    prev = s.seq == 0 ? nullptr : last[s.writer];
    rtt += static_cast<double>(s.acked - s.enc0);
    enc += static_cast<double>(s.enc1 - s.enc0);
    send += static_cast<double>(s.sent - s.enc1);
    if (prev != nullptr && prev->acked > s.sent) {
      queue += static_cast<double>(prev->acked - s.sent);
    }
    last[s.writer] = &s;
  }
  const double n = static_cast<double>(traced.stamps.size());
  if (n == 0) return;
  rtt /= n * 1e3;
  enc /= n * 1e3;
  send /= n * 1e3;
  queue /= n * 1e3;
  struct Row {
    const char* name;
    double us;
  };
  std::vector<Row> rows = {{"protocol.encode (client)", enc},
                           {"client.send (syscalls)", send},
                           {"wait behind earlier frames", queue}};
  if (spec.topology == Topology::kServer) {
    rows.push_back({"protocol.frame_view (server)", m.frame_view_us});
    rows.push_back({"protocol.push_view (server)", m.push_view_us});
    rows.push_back({"core.apply (server)", m.apply_us});
    rows.push_back({"protocol.ack_codec", m.ack_codec_us});
  } else {
    rows.push_back({"hierarchy.partition (root)", m.partition_us});
    rows.push_back({"hierarchy.leaf_rtt (sum over leaves)", m.leaf_rtt_sum_us});
  }
  double accounted = 0;
  for (const Row& r : rows) accounted += r.us;
  const double remainder = rtt - accounted;
  const double per_update = 1e3 / spec.batch;
  std::printf("reconciliation: mean ack round trip per frame, %zu frames "
              "of %u updates\n", traced.stamps.size(), spec.batch);
  std::printf("  %-38s %12s %14s %7s\n", "layer", "us/frame", "ns/update",
              "share");
  for (const Row& r : rows) {
    std::printf("  %-38s %12.3f %14.3f %6.1f%%\n", r.name, r.us,
                r.us * per_update, 100 * r.us / rtt);
  }
  std::printf("  %-38s %12.3f %14.3f %6.1f%%\n", "remainder (unexplained)",
              remainder, remainder * per_update, 100 * remainder / rtt);
  std::printf("  %-38s %12.3f %14.3f %6.1f%%\n", "end to end (sum)", rtt,
              rtt * per_update, 100.0);
  const double in_flight = static_cast<double>(spec.writers) * spec.window;
  const double seconds =
      static_cast<double>(traced.end_ns - traced.start_ns) / 1e9;
  std::printf("  Little's law: %.0f frames in flight / %.3f us = %.0f "
              "updates/s predicted, %.0f measured\n",
              in_flight, rtt, in_flight * spec.batch / rtt * 1e6,
              static_cast<double>(traced.updates_acked) / seconds);
  if (spec.topology == Topology::kServer) {
    Put(&result->per_layer, "service.remainder_us_per_frame", remainder,
        "us");
  } else {
    Put(&result->per_layer, "hierarchy.remainder_us_per_batch", remainder,
        "us");
  }
}

uint32_t SessionsFor(const WorkloadSpec& spec, int seconds) {
  const double per_session = static_cast<double>(spec.block_batches) *
                             spec.batch * spec.writers * spec.session_passes;
  return static_cast<uint32_t>(std::max(
      1.0, std::round(seconds * spec.nominal_updates_per_s / per_session)));
}

}  // namespace

RunResult RunWorkload(const RunConfig& config) {
  const WorkloadSpec& spec = *config.spec;
  RunResult result;
  // In-process a session is one engine; each writer's sessions replay
  // the block session_passes times apiece.
  const uint32_t sessions = SessionsFor(spec, config.seconds);
  const uint32_t passes = spec.session_passes;
  const uint32_t connections =
      spec.topology == Topology::kInProcess ? 0 : spec.writers + 1;
  std::printf("workload %s: %s\n", spec.name.c_str(), spec.why.c_str());
  std::printf("budget: generator threads=1 connections=%u server_workers=%u "
              "shard_threads=%u leaves=%u leaf_workers=%u\n",
              connections, spec.server_workers, spec.shards, spec.leaves,
              spec.leaf_workers);
  std::printf("traffic: stream=%s k=%u eps=%g batch=%u window=%u writers=%u "
              "sessions=%u x %u passes x %u batches, warm-up %u batches\n",
              spec.stream.c_str(), spec.sites, spec.epsilon, spec.batch,
              spec.window, spec.writers, sessions, passes,
              spec.block_batches, spec.warmup_batches);

  const int64_t inputs_start = NowNs();
  std::vector<Block> blocks;
  double input_mb = 0;
  for (uint32_t w = 0; w < spec.writers; ++w) {
    blocks.push_back(BuildBlock(spec, config.seed, w, passes));
    input_mb += static_cast<double>(blocks.back().Bytes()) / (1 << 20);
  }
  std::printf("inputs and references: %.3f s (not measured)\n",
              static_cast<double>(NowNs() - inputs_start) / 1e9);

  // Set-up, timed kSetupReps times on systems that are stopped again: the
  // sessions they create would otherwise stay in the run's system (a tree
  // leaf keeps a shard thread polling for each one).
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int64_t due = NowNs() + kSetupSpacingNs;
    double seconds = 0;
    if (spec.topology == Topology::kInProcess) {
      const int64_t t0 = NowNs();
      auto engine = MakeEngine(spec, blocks[0]);
      engine->PushBatch(blocks[0].Batch(0, 1));
      seconds = static_cast<double>(NowNs() - t0) / 1e9;
    } else {
      Sut attempt;
      if (!SetUpSut(config, blocks, rep, &attempt, &seconds, &result)) {
        return result;
      }
      attempt.Stop();
    }
    setups.push_back(seconds);
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
  }
  const double setup_s = Median(setups);
  std::printf("set-up: median %.6f s over %d (min %.6f, max %.6f)\n",
              setup_s, kSetupReps,
              *std::min_element(setups.begin(), setups.end()),
              *std::max_element(setups.begin(), setups.end()));
  Sut sut;
  if (spec.topology != Topology::kInProcess &&
      !StartSut(config, &sut, &result)) {
    return result;
  }

  Tracer off(false);
  Window window;
  LocalStats local;
  GenStats gen;
  Samples wire_reads;  // every read the reader sent, of every kind
  Usage before, after;
  before = ReadUsage();
  if (spec.topology == Topology::kInProcess) {
    RunLocal(spec, blocks[0], sessions, passes, &off, &local, &result);
    window.start_ns = local.start_ns;
    window.end_ns = local.end_ns;
    window.seconds = static_cast<double>(local.end_ns - local.start_ns) / 1e9;
    window.updates = local.updates;
    window.frames = local.batches;
    window.messages = local.messages;
    window.variability = local.variability;
    window.ack_us = &local.ack_us;
    window.query_us = &local.query_us;
  } else {
    if (!RunGen(spec, blocks, sut.port, "run-w", sessions, passes, false,
                &off, &gen, &result)) {
      sut.Stop();
      return result;
    }
    window.start_ns = gen.start_ns;
    window.end_ns = gen.first_done_ns;
    window.seconds = static_cast<double>(gen.end_ns - gen.start_ns) / 1e9;
    window.updates = gen.updates_acked;
    window.frames = gen.batches_acked;
    window.messages = gen.messages;
    window.variability = gen.variability;
    window.ack_us = &gen.ack_us;
    for (const Samples* kind : {&gen.query_us, &gen.range_us, &gen.dump_us}) {
      for (size_t i = 0; i < kind->size(); ++i) {
        wire_reads.Add(kind->values[i], kind->at[i]);
      }
    }
    window.query_us = &wire_reads;
  }
  after = ReadUsage();
  {
    // Warm-up: the first warmup_batches acks of every writer come before
    // the timed window opens and count toward no timing figure. Their
    // sessions are the run's own, so they are still checked.
    const size_t warm =
        static_cast<size_t>(spec.warmup_batches) * spec.writers;
    const Samples& all = *window.ack_us;
    if (warm > 0 && warm < all.size()) {
      std::printf("warm-up: %zu batches in %.3f s (not measured)\n", warm,
                  static_cast<double>(all.at[warm - 1] - window.start_ns) /
                      1e9);
      window.start_ns = all.at[warm - 1] + 1;
    }
  }
  const double peak_rss_mb = PeakRssMb() - input_mb;
  PrintWindow("timed window", window);
  if (spec.topology != Topology::kInProcess) {
    std::printf("  reader late by: %s; %llu due reads skipped\n",
                gen.late_us.Describe("us").c_str(),
                static_cast<unsigned long long>(gen.reads_skipped));
    if (gen.range_us.size() + gen.dump_us.size() > 0) {
      std::printf("  of which Query %s\n", gen.query_us.Describe("us").c_str());
    }
    if (gen.range_us.size() > 0) {
      std::printf("  query-range %s\n", gen.range_us.Describe("us").c_str());
    }
    if (gen.dump_us.size() > 0) {
      std::printf("  metrics-dump %s\n", gen.dump_us.Describe("us").c_str());
    }
  }
  const uint64_t expected_updates = static_cast<uint64_t>(sessions) *
                                    passes * spec.block_batches *
                                    spec.batch * spec.writers;
  if (window.updates != expected_updates) {
    result.Fail("acked updates differ from the updates sent");
  }
  // The figures are taken over [start, end) of the window. On the wire
  // the window closes when the first writer finishes: writers that share
  // a server worker finish later, and the tail they leave has fewer
  // connections than the workload defines.
  const int64_t t0 = window.start_ns;
  const int64_t t1 = window.end_ns;
  const Samples acks = window.ack_us->Between(t0, t1);
  const Samples reads = window.query_us->Between(t0, t1);
  const double updates_per_s = acks.SliceRate(0.75, spec.batch, t0, t1);
  const double ack_p50_us = acks.SlicePercentile(0.25, 0.5, t0, t1);
  const double query_p50_us = reads.SlicePercentile(0.25, 0.5, t0, t1);
  const double msgs_per_v =
      window.variability > 0
          ? static_cast<double>(window.messages) / window.variability
          : 0.0;
  std::printf("within the window, over slices of %.3f s (acks) and %.3f s "
              "(reads): %.0f updates/s (upper quartile; median %.0f), ack "
              "p50 %.2f us and read p50 %.2f us (lower quartiles; medians "
              "%.2f and %.2f us)\n",
              acks.SliceNs(t0, t1) / 1e9, reads.SliceNs(t0, t1) / 1e9,
              updates_per_s, acks.SliceRate(0.5, spec.batch, t0, t1),
              ack_p50_us, query_p50_us, acks.SlicePercentile(0.5, 0.5, t0, t1),
              reads.SlicePercentile(0.5, 0.5, t0, t1));
  std::printf("  ack   %s\n", acks.Describe("us").c_str());
  std::printf("  reads %s\n", reads.Describe("us").c_str());
  std::printf("msgs per unit v: %.6f (%llu messages over v=%.3f)\n",
              msgs_per_v, static_cast<unsigned long long>(window.messages),
              window.variability);
  std::printf("peak rss: %.2f MiB for the system under test (%.2f MiB of "
              "pre-built inputs excluded)\n", peak_rss_mb, input_mb);

  auto& e2e = result.end_to_end;
  Put(&e2e, "updates_per_s", updates_per_s, "1/s");
  Put(&e2e, "ack_p50_us", ack_p50_us, "us");
  Put(&e2e, "query_p50_us", query_p50_us, "us");
  Put(&e2e, "msgs_per_v", msgs_per_v, "count");
  Put(&e2e, "setup_s", setup_s, "s");
  Put(&e2e, "peak_rss_mb", peak_rss_mb, "MiB");

  if (config.trace) {
    auto& layers = result.per_layer;
    const double updates = static_cast<double>(window.updates);
    Put(&layers, "proc.user_ns_per_update",
        (after.user_ns - before.user_ns) / updates, "ns");
    Put(&layers, "proc.sys_ns_per_update",
        (after.sys_ns - before.sys_ns) / updates, "ns");
    Put(&layers, "proc.vol_ctx_switches_per_frame",
        (after.vol_switches - before.vol_switches) /
            static_cast<double>(window.frames),
        "count");
    ServerStats stats = sut.Stats();
    Put(&layers, "service.overload_rejections",
        static_cast<double>(stats.overload_rejections), "count");
    Put(&layers, "service.seq_gap_rejections",
        static_cast<double>(stats.seq_gap_rejections), "count");
    Put(&layers, "service.peak_pending_batches",
        static_cast<double>(stats.peak_pending_batches), "count");

    // The traced replay: same inputs, spans on, half the sessions.
    Tracer tracer(true);
    const uint32_t traced_sessions = std::max<uint32_t>(1, sessions / 2);
    GenStats traced;
    LocalStats traced_local;
    Window tw;
    if (spec.topology == Topology::kInProcess) {
      RunLocal(spec, blocks[0], traced_sessions, passes, &tracer,
               &traced_local, &result);
      tw.seconds = static_cast<double>(traced_local.end_ns -
                                       traced_local.start_ns) / 1e9;
      tw.updates = traced_local.updates;
      tw.frames = traced_local.batches;
      tw.ack_us = &traced_local.ack_us;
      tw.query_us = &traced_local.query_us;
    } else {
      if (!RunGen(spec, blocks, sut.port, "trace-w", traced_sessions, passes,
                  true, &tracer, &traced, &result)) {
        sut.Stop();
        return result;
      }
      tw.seconds = static_cast<double>(traced.end_ns - traced.start_ns) / 1e9;
      tw.updates = traced.updates_acked;
      tw.frames = traced.batches_acked;
      tw.ack_us = &traced.ack_us;
      tw.query_us = &traced.query_us;
    }
    sut.Stop();
    PrintWindow("traced replay", tw);
    const double traced_rate = static_cast<double>(tw.updates) / tw.seconds;
    const double untraced_rate =
        static_cast<double>(window.updates) / window.seconds;
    std::printf("tracing overhead: %.0f updates/s traced vs %.0f untraced "
                "(%+.2f%%)\n", traced_rate, untraced_rate,
                100 * (traced_rate / untraced_rate - 1));
    std::printf("span self times (traced replay):\n");
    for (const auto& [name, entry] : tracer.SelfTimes()) {
      std::printf("  %-24s %10llu spans %12.3f us/span %10.3f ns/update\n",
                  name.c_str(), static_cast<unsigned long long>(entry.second),
                  entry.first / 1e3 / static_cast<double>(entry.second),
                  entry.first / static_cast<double>(tw.updates));
    }
    std::printf("end-to-end per-update time (traced): %.3f ns\n",
                1e9 / traced_rate);

    LayerMeans means;
    RunLedger(spec, blocks[0], config.work_dir, &tracer, &means, &result);
    if (spec.topology == Topology::kInProcess) {
      const double push_us = traced_local.ack_us.Mean();
      std::printf("reconciliation: PushBatch %.3f us/batch = sharded publish "
                  "%.3f (ledger) + remainder %.3f\n",
                  push_us, means.sharded_publish_us,
                  push_us - means.sharded_publish_us);
    } else {
      Reconcile(spec, traced, means, &result);
    }
    const std::string spans_path =
        config.spans_dir + "/spans-" + spec.name + ".tsv";
    if (tracer.WriteTsv(spans_path)) {
      std::printf("spans written: %s (%zu spans)\n", spans_path.c_str(),
                  tracer.spans().size());
    }
  }
  sut.Stop();
  return result;
}

}  // namespace perfbench
