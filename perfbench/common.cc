#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/hash.h"
#include "core/registry.h"
#include "core/sharded.h"
#include "stream/source.h"
#include "stream/variability.h"

namespace perfbench {

namespace {

// Every block opens with one update of +kPrimePerSite on each site, then
// continues with the workload's stream. A walk that starts at 0 spends a
// random, heavy-tailed share of its time near zero, where v grows fastest,
// so v and the trackers' work per update moved up to 10x between seeds.
// Primed, f and every site's f_i stay far from zero for a whole pass (the
// per-site engines track each f_i from 0, so an initial f(0) alone would
// not do). 1.5 * 2^12 also keeps f/k and each f_i midway between the
// powers of two where the deterministic tracker changes its reporting
// threshold; a walk hovering at such a boundary made the message count
// depend on which side of it the walk happened to spend its time.
constexpr int64_t kPrimePerSite = 6144;

// Why each workload exists is part of the benchmark's contract: every
// later performance change is judged on these traffic mixes.
std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> w;
  {
    WorkloadSpec s;
    s.name = "ingest-local";
    s.why = "in-process sharded engine: demux, SPSC rings and drain do "
            "the work; service and hierarchy do none";
    s.topology = Topology::kInProcess;
    s.stream = "random-walk";
    s.sites = 64;
    s.shards = 2;
    s.batch = 4096;
    s.writers = 1;
    s.block_batches = 1024;
    s.warmup_batches = 256;
    s.query_every_batches = 64;
    s.reads = {ReadKind::kQuery};
    s.session_passes = 1;
    s.nominal_updates_per_s = 33e6;
    w.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "wire-bulk";
    s.why = "per-update wire costs: client encode, CRC, view decode and "
            "the serial apply; sharding and hierarchy are bypassed";
    s.topology = Topology::kServer;
    s.stream = "random-walk";
    s.sites = 64;
    s.batch = 4096;
    s.window = 4;
    s.writers = 2;
    s.server_workers = 2;
    s.history_cadence = 8192;
    s.block_batches = 512;
    s.warmup_batches = 128;
    // Ten Query round trips under load, so reading does not become the
    // load; denser reads cut wire-bulk's rate by a third.
    s.query_period_us = 10000;
    s.reads = {ReadKind::kQuery};
    s.session_passes = 16;
    s.nominal_updates_per_s = 45e6;
    w.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "wire-small";
    s.why = "per-frame service costs: syscalls, headers, acks, dispatch, "
            "metrics and history sampling, with reads beside writes";
    s.topology = Topology::kServer;
    s.stream = "nearly-monotone";
    s.sites = 16;
    s.batch = 64;
    s.window = 8;
    s.writers = 3;
    s.server_workers = 2;
    s.history_cadence = 1024;
    s.block_batches = 32768;
    s.warmup_batches = 2048;
    s.query_period_us = 5000;
    // Query every other read, so its percentiles rest on as many samples
    // as the other kinds together.
    s.reads = {ReadKind::kQuery, ReadKind::kQueryRange, ReadKind::kQuery,
               ReadKind::kMetricsDump};
    s.session_passes = 1;
    s.nominal_updates_per_s = 7e6;
    w.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "wire-reads";
    s.why = "bulk writes beside a reader rotating Query, QueryRange and "
            "MetricsDump: history sampling, range evaluation and metrics "
            "scrapes";
    s.topology = Topology::kServer;
    s.stream = "nearly-monotone";
    s.sites = 16;
    // wire-small's reads on frames 16 times larger: at 64 updates a frame
    // is a round of wake-ups, and its figures moved with every stall of a
    // shared host. The history still takes one sample per frame.
    s.batch = 1024;
    s.window = 8;
    s.writers = 2;
    s.server_workers = 2;
    s.history_cadence = 1024;
    s.block_batches = 2048;
    s.warmup_batches = 256;
    // A read that falls due while one is out is skipped, so about half are
    // sent: some 450 a second.
    s.query_period_us = 2000;
    s.reads = {ReadKind::kQuery, ReadKind::kQueryRange, ReadKind::kQuery,
               ReadKind::kMetricsDump};
    // Long sessions: the server keeps every session it created, and a
    // MetricsDump serializes a metrics slot for each, so with 8-pass
    // sessions the reads, and the writes queued behind them, slowed down
    // as a run went on (ack p50 271 us over a run's first 10 s, 421 us
    // over 40 s).
    s.session_passes = 64;
    s.nominal_updates_per_s = 60e6;
    w.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "tree";
    s.why = "root over 3 leaves: partition, journal, synchronous leaf "
            "round trips and splice; the only hierarchy workload";
    s.topology = Topology::kTree;
    s.stream = "regime-switch";
    s.sites = 48;
    s.shards = 1;
    s.batch = 2048;
    s.window = 4;
    s.writers = 1;
    s.leaves = 3;
    s.leaf_workers = 1;
    s.history_cadence = 0;  // leaves; the root keeps its default history
    s.checkpoint_every = uint64_t{1} << 20;
    s.block_batches = 2048;
    s.warmup_batches = 128;
    s.query_every_batches = 32;
    s.reads = {ReadKind::kQuery};
    s.session_passes = 6;
    s.nominal_updates_per_s = 4.3e6;
    w.push_back(s);
  }
  return w;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = MakeWorkloads();
  return workloads;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Workloads()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

size_t Block::Bytes() const {
  return (updates.capacity() + replay_head.capacity()) * sizeof(CountUpdate) +
         (walk_clock.capacity() + walk_f.capacity() + site_walk.capacity()) *
             sizeof(int64_t);
}

uint64_t Block::ClockAt(uint64_t pass, size_t b) const {
  const uint64_t prime_clock = static_cast<uint64_t>(prime) * sites;
  return prime_clock + pass * walk_clock.back() + walk_clock[b];
}

Block BuildBlock(const WorkloadSpec& spec, uint64_t seed, uint32_t writer,
                 uint32_t passes) {
  Block block;
  block.batch = spec.batch;
  block.sites = spec.sites;
  block.prime = kPrimePerSite;
  varstream::StreamSpec stream_spec;
  stream_spec.num_sites = spec.sites;
  stream_spec.seed = varstream::Mix64(seed * 0x9E3779B97F4A7C15ull + writer);
  auto source =
      varstream::StreamRegistry::Instance().Create(spec.stream, stream_spec);
  if (source == nullptr) {
    std::fprintf(stderr, "perfbench: unknown stream '%s'\n",
                 spec.stream.c_str());
    std::exit(2);
  }
  const size_t n = static_cast<size_t>(spec.block_batches) * spec.batch;
  block.updates.resize(n);
  size_t filled = 0;
  while (filled < n) {
    size_t got = source->NextBatch(
        std::span<CountUpdate>(block.updates.data() + filled, n - filled));
    if (got == 0) break;
    filled += got;
  }
  if (filled != n || spec.batch <= spec.sites) {
    std::fprintf(stderr, "perfbench: stream '%s' cannot fill a block\n",
                 spec.stream.c_str());
    std::exit(2);
  }
  block.initial_value = source->initial_value();
  // The second half retraces the first with every delta negated, so each
  // pass returns f and every f_i to where it started: a session's passes
  // are alike, and its replays add no drift.
  const size_t half = n / 2;
  for (size_t i = 0; i < half; ++i) {
    const CountUpdate& u = block.updates[i];
    block.updates[half + i] = {u.site, i < spec.sites ? 0 : -u.delta};
  }
  block.replay_head.assign(block.updates.begin(),
                           block.updates.begin() + spec.batch);
  for (uint32_t site = 0; site < spec.sites; ++site) {
    block.updates[site] = {site, kPrimePerSite};
    block.replay_head[site] = {site, 0};
  }

  std::vector<int64_t> site_f(spec.sites, 0);
  uint64_t clock = 0;
  int64_t f = 0;
  block.walk_clock.reserve(spec.block_batches);
  block.walk_f.reserve(spec.block_batches);
  block.site_walk.reserve(static_cast<size_t>(spec.block_batches) *
                          spec.sites);
  for (size_t b = 0; b < spec.block_batches; ++b) {
    for (const CountUpdate& u : block.Batch(1, b)) {
      site_f[u.site] += u.delta;
      f += u.delta;
      clock += static_cast<uint64_t>(std::llabs(u.delta));
    }
    block.walk_clock.push_back(clock);
    block.walk_f.push_back(f);
    block.site_walk.insert(block.site_walk.end(), site_f.begin(),
                           site_f.end());
  }

  varstream::TrackerOptions options;
  options.num_sites = spec.sites;
  options.epsilon = spec.epsilon;
  options.initial_value = block.initial_value;
  std::unique_ptr<varstream::DistributedTracker> reference;
  std::string error;
  if (spec.shards == 0) {
    reference =
        varstream::TrackerRegistry::Instance().Create("deterministic", options);
  } else {
    reference = varstream::ShardedTracker::Create("deterministic", options,
                                                  spec.shards, &error);
  }
  if (reference == nullptr) {
    std::fprintf(stderr, "perfbench: reference engine: %s\n", error.c_str());
    std::exit(2);
  }
  varstream::VariabilityMeter meter(block.initial_value);
  for (uint32_t pass = 0; pass < passes; ++pass) {
    for (size_t b = 0; b < block.num_batches(); ++b) {
      auto batch = block.Batch(pass, b);
      for (const CountUpdate& u : batch) meter.Push(u.delta);
      reference->PushBatch(batch);
    }
    block.reference.push_back(reference->Snapshot());
    block.variability.push_back(meter.value());
  }
  return block;
}

bool WithinGuarantee(const WorkloadSpec& spec, const Block& block,
                     uint64_t time, double estimate) {
  // Locate the batch boundary (pass, b) whose clock is `time`.
  int64_t f = block.initial_value;
  int64_t sum_abs = 0;
  if (time != 0) {
    const uint64_t prime_clock =
        static_cast<uint64_t>(block.prime) * block.sites;
    const uint64_t per_pass = block.walk_clock.back();
    if (time <= prime_clock) return false;
    uint64_t pass = (time - prime_clock) / per_pass;
    uint64_t rest = (time - prime_clock) % per_pass;
    if (rest == 0) {
      --pass;
      rest = per_pass;
    }
    auto it = std::lower_bound(block.walk_clock.begin(),
                               block.walk_clock.end(), rest);
    if (pass >= block.reference.size() || *it != rest) return false;
    const size_t b = static_cast<size_t>(it - block.walk_clock.begin());
    const size_t last = block.num_batches() - 1;
    const int64_t p = static_cast<int64_t>(pass);
    f += block.prime * block.sites + p * block.walk_f[last] + block.walk_f[b];
    for (uint32_t i = 0; i < block.sites; ++i) {
      sum_abs += std::llabs(block.prime +
                            p * block.site_walk[last * block.sites + i] +
                            block.site_walk[b * block.sites + i]);
    }
  }
  double scale = spec.shards == 0
                     ? std::fabs(static_cast<double>(f))
                     : static_cast<double>(sum_abs);
  double err = std::fabs(estimate - static_cast<double>(f));
  return err <= spec.epsilon * scale * (1 + 1e-9) + 1e-9;
}

bool SameSnapshot(const varstream::TrackerSnapshot& a,
                  const varstream::TrackerSnapshot& b) {
  uint64_t ea = 0;
  uint64_t eb = 0;
  std::memcpy(&ea, &a.estimate, sizeof(ea));
  std::memcpy(&eb, &b.estimate, sizeof(eb));
  return ea == eb && a.time == b.time && a.messages == b.messages &&
         a.bits == b.bits;
}

namespace {

double NearestRank(std::vector<double>* sorted, double q) {
  if (sorted->empty()) return 0.0;
  std::sort(sorted->begin(), sorted->end());
  size_t n = sorted->size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return (*sorted)[rank - 1];
}

}  // namespace

double Samples::Percentile(double q) const {
  std::vector<double> sorted = values;
  return NearestRank(&sorted, q);
}

double Samples::Mean() const {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

int64_t Samples::SliceNs(int64_t start, int64_t end) const {
  size_t count = 0;
  for (int64_t t : at) count += t >= start && t < end;
  const int64_t window = end - start;
  if (count == 0) return window;
  const int64_t fit = window * static_cast<int64_t>(kSliceSamples) /
                      static_cast<int64_t>(count);
  return std::min(window, std::max(kMinSliceNs, fit));
}

Samples Samples::Between(int64_t start, int64_t end) const {
  Samples out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (at[i] >= start && at[i] < end) out.Add(values[i], at[i]);
  }
  return out;
}

double Samples::SliceRate(double q, double weight, int64_t start,
                          int64_t end) const {
  const int64_t slice_ns = SliceNs(start, end);
  const size_t slices = static_cast<size_t>((end - start) / slice_ns);
  std::vector<double> count(slices, 0.0);
  for (int64_t t : at) {
    if (t < start) continue;
    size_t slice = static_cast<size_t>((t - start) / slice_ns);
    if (slice < slices) count[slice] += weight;
  }
  for (double& c : count) c /= static_cast<double>(slice_ns) / 1e9;
  return Quantile(count, q);
}

double Samples::SlicePercentile(double q, double p, int64_t start,
                                int64_t end) const {
  const int64_t slice_ns = SliceNs(start, end);
  const size_t slices = static_cast<size_t>((end - start) / slice_ns);
  std::vector<std::vector<double>> by_slice(slices);
  for (size_t i = 0; i < values.size(); ++i) {
    if (at[i] < start) continue;
    size_t slice = static_cast<size_t>((at[i] - start) / slice_ns);
    if (slice < slices) by_slice[slice].push_back(values[i]);
  }
  std::vector<double> per_slice;
  for (auto& slice : by_slice) {
    if (slice.size() >= 10) per_slice.push_back(NearestRank(&slice, p));
  }
  return per_slice.empty() ? Percentile(p) : Quantile(per_slice, q);
}

std::string Samples::Describe(const char* unit) const {
  char line[256];
  std::vector<double> sorted = values;
  size_t n = sorted.size();
  if (n == 0) return "n=0";
  double p50 = NearestRank(&sorted, 0.50);
  double p90 = NearestRank(&sorted, 0.90);
  if (n > 10) {
    double q = static_cast<double>(n - 10) / static_cast<double>(n);
    std::snprintf(line, sizeof(line),
                  "n=%zu p50=%.2f%s p90=%.2f%s p%.3f=%.2f%s (highest "
                  "percentile with >=10 samples beyond)",
                  n, p50, unit, p90, unit, 100 * q, sorted[n - 11], unit);
  } else {
    std::snprintf(line, sizeof(line), "n=%zu p50=%.2f%s p90=%.2f%s", n, p50,
                  unit, p90, unit);
  }
  return line;
}

double Quantile(std::vector<double> v, double q) {
  return NearestRank(&v, q);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::map<std::string, std::pair<double, uint64_t>> Tracer::SelfTimes() const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      covered[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, std::pair<double, uint64_t>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    double dur = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    auto& slot = out[spans_[i].name];
    slot.first += std::max(0.0, dur - covered[i]);
    slot.second += 1;
  }
  return out;
}

bool Tracer::WriteTsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index\tname\tstart_ns\tend_ns\tparent\tid\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%lld\t%llu\n", i, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.id));
  }
  return std::fclose(f) == 0;
}

void RunResult::Fail(const std::string& why) {
  correct = false;
  ++failed;
  if (notes.size() < 16) notes.push_back(why);
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
