// Shared pieces of the varstream benchmark: workload descriptions,
// pre-built input blocks with their exact truth, latency statistics, the
// span recorder used by traced runs, and the result record every
// workload fills in.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/tracker.h"
#include "stream/update.h"

namespace perfbench {

using varstream::CountUpdate;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Topology { kInProcess, kServer, kTree };

/// What a reader connection sends, in rotation.
enum class ReadKind { kQuery, kQueryRange, kMetricsDump };

/// One workload: the system under test, its traffic, and its budget.
struct WorkloadSpec {
  std::string name;
  std::string why;
  Topology topology = Topology::kServer;
  std::string stream;
  uint32_t sites = 64;
  double epsilon = 0.1;
  /// Shard threads per engine; 0 runs the serial tracker. Decides the
  /// reference and the guarantee sampled estimates are checked against:
  /// eps * |f| serial, eps * sum_i |f_i| sharded.
  uint32_t shards = 0;
  uint32_t batch = 4096;        // updates per PushBatch
  uint32_t window = 1;          // unacked batches per writer connection
  uint32_t writers = 1;         // writer connections (or callers)
  uint32_t server_workers = 0;  // VarstreamServer epoll workers
  uint32_t leaves = 0;          // tree only
  uint32_t leaf_workers = 0;    // tree only
  uint64_t history_cadence = 8192;  // 0 = history off on the server
  uint64_t checkpoint_every = 0;    // tree only
  uint32_t block_batches = 0;   // batches in one pass of one writer
  uint32_t warmup_batches = 0;  // untimed batches before the window
  /// Reads: every `query_every_batches` batches of writer 0 (in-process
  /// and tree), or every `query_period_us` of wall time (server).
  uint32_t query_every_batches = 0;
  uint32_t query_period_us = 0;
  std::vector<ReadKind> reads;
  /// Passes of the block each session replays. One session's reference
  /// is computed before the run, so this bounds that cost; a writer runs
  /// as many sessions as its share of the run's work needs.
  uint32_t session_passes = 1;
  /// Work per run is fixed so that every count (msgs_per_v, sessions
  /// created, memory) repeats exactly: sessions = seconds * nominal rate /
  /// updates per session. The nominal rate is what a 4-core host sustains.
  double nominal_updates_per_s = 0;
};

/// Looks a workload up by name; nullptr when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

/// One writer's input: a block of `num_batches()` batches, opened by one
/// priming update per site, that a session replays pass after pass. Pass
/// 0 sends the block as built; later passes send the same batches with
/// the priming updates' deltas zeroed. The block carries the exact truth
/// at every batch boundary of every pass and the reference engine's
/// snapshot after each pass.
struct Block {
  std::vector<CountUpdate> updates;      // pass 0
  std::vector<CountUpdate> replay_head;  // batch 0 of passes >= 1
  uint32_t batch = 0;
  uint32_t sites = 0;
  int64_t initial_value = 0;
  int64_t prime = 0;  // priming delta per site
  /// Per batch b, the stream after the priming updates, through batch b:
  /// its clock (sum of |delta|), its displacement of f, and each site's
  /// displacement (site_walk[b * sites + i]).
  std::vector<uint64_t> walk_clock;
  std::vector<int64_t> walk_f;
  std::vector<int64_t> site_walk;
  /// After pass p: the reference engine's snapshot and v so far.
  std::vector<varstream::TrackerSnapshot> reference;
  std::vector<double> variability;

  size_t num_batches() const { return walk_clock.size(); }
  std::span<const CountUpdate> Batch(uint64_t pass, size_t b) const {
    if (pass > 0 && b == 0) return replay_head;
    return {updates.data() + b * batch, batch};
  }
  /// Session clock after batch b of pass `pass`.
  uint64_t ClockAt(uint64_t pass, size_t b) const;
  size_t Bytes() const;
};

/// Builds writer `writer`'s block for `seed` and runs the reference
/// engine over `passes` passes of it. Deterministic in its arguments.
Block BuildBlock(const WorkloadSpec& spec, uint64_t seed, uint32_t writer,
                 uint32_t passes);

/// True when `estimate` at session clock `time` honours the engine's
/// guarantee (time must sit on a batch boundary of a referenced pass).
bool WithinGuarantee(const WorkloadSpec& spec, const Block& block,
                     uint64_t time, double estimate);

/// Bit-equality of estimate bits, clock, messages and bits.
bool SameSnapshot(const varstream::TrackerSnapshot& a,
                  const varstream::TrackerSnapshot& b);

/// Interference from outside the benchmark (other tenants, a hypervisor
/// stealing CPU time) only ever slows the program down, and on a shared
/// host it comes and goes within a run. So each timing figure is taken
/// per slice of the timed window, and the run reports the quartile of the
/// slices on the good side: the upper quartile of the slices' rates, the
/// lower quartile of the slices' latency percentiles. That is the figure
/// the program holds in its less disturbed quarter of the run. Slices last
/// at least kMinSliceNs and are long enough to hold kSliceSamples samples
/// on average.
inline constexpr int64_t kMinSliceNs = 20'000'000;
inline constexpr size_t kSliceSamples = 50;

/// Exact latency samples with the time each one completed; percentiles by
/// sorting.
struct Samples {
  std::vector<double> values;
  std::vector<int64_t> at;  // completion time, ns
  void Reserve(size_t n) {
    values.reserve(n);
    at.reserve(n);
  }
  void Add(double v, int64_t when) {
    values.push_back(v);
    at.push_back(when);
  }
  size_t size() const { return values.size(); }
  /// Nearest-rank percentile, q in [0, 1], over every sample.
  double Percentile(double q) const;
  double Mean() const;
  /// The samples completed in [start, end).
  Samples Between(int64_t start, int64_t end) const;
  /// The slice length for these samples over [start, end).
  int64_t SliceNs(int64_t start, int64_t end) const;
  /// The q-quantile over the whole slices of [start, end) of samples
  /// completed per second, each sample weighing `weight`.
  double SliceRate(double q, double weight, int64_t start,
                   int64_t end) const;
  /// The q-quantile over the whole slices of [start, end) of each slice's
  /// p-percentile (slices with fewer than 10 samples are skipped); the
  /// plain percentile when no slice qualifies.
  double SlicePercentile(double q, double p, int64_t start,
                         int64_t end) const;
  /// Human line: count, p50, p90, and the highest percentile with at
  /// least ten samples beyond it.
  std::string Describe(const char* unit) const;
};

/// Median of a small vector (copies).
double Median(std::vector<double> v);
/// Nearest-rank q-quantile of a small vector (copies).
double Quantile(std::vector<double> v, double q);

/// In-memory span recorder for traced runs: name, start, end, parent,
/// and the batch seq as id. Written out once, at the end.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;  // index into spans(), -1 for a root
    uint64_t id;     // batch seq (or read index)
  };
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 20);
  }
  bool enabled() const { return enabled_; }
  int64_t Add(const char* name, int64_t start, int64_t end, int64_t parent,
              uint64_t id) {
    if (!enabled_) return -1;
    spans_.push_back({name, start, end, parent, id});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Per-name total self time (duration minus the part covered by child
  /// spans), in ns, and span counts.
  std::map<std::string, std::pair<double, uint64_t>> SelfTimes() const;
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// One metric as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> notes;  // failed-check diagnostics
  void Fail(const std::string& why);
};

/// Peak RSS of this process in MiB (getrusage ru_maxrss).
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
