// varstream_perfbench — the repository's end-to-end and per-layer
// benchmark. One run executes one workload and prints, as the last line
// of stdout, {"correct","attempted","failed","metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
//
//   varstream_perfbench --workload wire-bulk --seed 3 --seconds 10
//       --trace 0 --work-dir .bench_build/perfbench/work
//
// perfbench/run.py builds this binary from the checkout and runs it; see
// perfbench/README.md.

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace {

// The names BENCHMARK.json declares; every run must print exactly these.
const std::vector<std::string> kEndToEnd = {
    "updates_per_s", "ack_p50_us", "query_p50_us",
    "msgs_per_v",    "setup_s",    "peak_rss_mb"};
const std::vector<std::string> kPerLayer = {
    "core.apply_ns_per_update",
    "core.sharded_publish_ns_per_update",
    "core.drain_us",
    "core.snapshot_us",
    "net.msgs_per_update",
    "net.bits_per_update",
    "protocol.encode_ns_per_update",
    "protocol.crc_ns_per_byte",
    "protocol.push_view_ns_per_update",
    "protocol.frame_view_ns_per_frame",
    "protocol.ack_codec_ns_per_frame",
    "protocol.wire_bytes_per_update",
    "service.remainder_us_per_frame",
    "service.overload_rejections",
    "service.seq_gap_rejections",
    "service.peak_pending_batches",
    "history.query_range_us",
    "history.evaluate_us",
    "obs.metrics_dump_us",
    "obs.collect_us",
    "hierarchy.partition_ns_per_update",
    "hierarchy.leaf_rtt_us",
    "hierarchy.splice_us",
    "hierarchy.remainder_us_per_batch",
    "checkpoint.write_us",
    "proc.user_ns_per_update",
    "proc.sys_ns_per_update",
    "proc.vol_ctx_switches_per_frame",
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: varstream_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n",
               why);
  std::exit(2);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string work_dir;
  long long seed = -1;
  int seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value.c_str());
    } else if (flag == "--seconds") {
      seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) Usage("flags take one value each");
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(workload);
  if (spec == nullptr) Usage(("unknown workload '" + workload + "'").c_str());
  if (seed < 0 || seconds < 1 || (trace != 0 && trace != 1) ||
      work_dir.empty()) {
    Usage("missing or invalid flag");
  }

  // One generator thread drives every connection; refuse a workload that
  // would need more threads or connections than the host has cores.
  constexpr unsigned kGeneratorThreads = 1;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const unsigned connections =
      spec->topology == perfbench::Topology::kInProcess ? 0
                                                        : spec->writers + 1;
  if (connections > cores || kGeneratorThreads > cores) {
    std::fprintf(stderr, "perfbench: %s needs %u connections and %u "
                 "generator thread, host has %u cores\n", spec->name.c_str(),
                 connections, kGeneratorThreads, cores);
    return 2;
  }

  const std::string run_dir =
      work_dir + "/run-" + std::to_string(::getpid());
  ::mkdir(work_dir.c_str(), 0755);
  if (::mkdir(run_dir.c_str(), 0755) != 0) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", run_dir.c_str());
    return 2;
  }

  perfbench::RunConfig config;
  config.spec = spec;
  config.seed = static_cast<uint64_t>(seed);
  config.seconds = seconds;
  config.trace = trace == 1;
  config.work_dir = run_dir;
  config.spans_dir = work_dir;
  perfbench::RunResult result = perfbench::RunWorkload(config);
  ::rmdir(run_dir.c_str());

  const auto& names = config.trace ? kPerLayer : kEndToEnd;
  const auto& metrics = config.trace ? result.per_layer : result.end_to_end;
  bool complete = true;
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < names.size(); ++i) {
    auto it = metrics.find(names[i]);
    if (it == metrics.end() || !std::isfinite(it->second.value)) {
      complete = false;
      continue;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", it->second.value);
    if (json.back() != '{') json += ", ";
    json += JsonString(names[i]) + ": {\"value\": " + value +
            ", \"unit\": " + JsonString(it->second.unit) + "}";
  }
  json += "}}";
  for (const std::string& note : result.notes) {
    std::printf("FAILED: %s\n", note.c_str());
  }
  if (!complete) {
    std::fprintf(stderr, "perfbench: run ended without every metric\n");
    return 1;
  }
  std::printf("%s\n", json.c_str());
  return 0;
}
