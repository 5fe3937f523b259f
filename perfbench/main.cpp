// lft_perfbench: the repository's benchmark. One process runs one workload
// for a fixed time and prints, as its last stdout line, one JSON object:
//
//   {"correct": bool, "attempted": N, "failed": N, "values": {"<name>": x, ...}}
//
// Untraced (--trace=0) the values are the end-to-end figures; traced
// (--trace=1) they are the per-layer figures, and the spans recorded on the
// way are dumped to --trace-out. Above the JSON line a table shows every
// value with the number of samples behind it, plus the report-only compute
// calibration. Exit status 1 when any output check failed.
//
// Metric names, units and which of them are gated live in BENCHMARK.json
// alone: run.py turns this line into the benchmark's result line from it.
//
//   lft_perfbench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//                 [--trace-out=PATH] [--tiny]
//
// perfbench/run.py builds this binary and is the entry point; see
// perfbench/README.md for the workloads and the layer -> end-to-end map.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

/// Fixed compute loop, timed with every run and reported only, so runs on
/// a noisy host can be normalised afterwards. Median of three.
double calibration_ms() {
  std::vector<double> ms;
  volatile std::uint64_t sink = 0;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t x = 0x1234;
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < 10'000'000; ++i) x = mix64(x);
    ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    sink = sink + x;
  }
  return median(ms);
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else if (key == "--tiny" && eq == std::string::npos) {
      args.tiny = true;
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

void print_table(const std::map<std::string, Value>& values) {
  for (const auto& [name, v] : values) {
    std::printf("  %-30s %18.6f  samples=%" PRIu64 "\n", name.c_str(), v.value, v.samples);
  }
}

void print_json(const Result& r, bool correct, const std::map<std::string, Value>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"values\": {",
              correct ? "true" : "false", r.attempted, r.failed);
  const char* sep = "";
  for (const auto& [name, v] : values) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), v.value);
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

bool Tracer::dump(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : spans_) {
    out << "{\"span\": \"" << s.name << "\", \"thread\": " << s.thread
        << ", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}\n";
  }
  for (const auto& [name, t] : totals_) {
    out << "{\"total\": \"" << name << "\", \"count\": " << t.count
        << ", \"sum_ns\": " << t.sum_ns << "}\n";
  }
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: lft_perfbench --workload=serve_closed|serve_open|sim_fleet|sim_scale\n"
                 "                     [--seed=N] [--seconds=S] [--trace=0|1]\n"
                 "                     [--trace-out=PATH] [--tiny]\n");
    return 2;
  }
  Result (*run)(const Args&, Tracer*) = nullptr;
  if (args.workload == "serve_closed") run = run_serve_closed;
  if (args.workload == "serve_open") run = run_serve_open;
  if (args.workload == "sim_fleet") run = run_sim_fleet;
  if (args.workload == "sim_scale") run = run_sim_scale;
  if (run == nullptr) {
    std::fprintf(stderr, "lft_perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  const double calib = calibration_ms();
  Tracer tracer;
  Result r = run(args, args.trace ? &tracer : nullptr);
  r.e2e["peak_rss_mb"] = {peak_rss_mb(), 1};
  r.layers["calib.loop_ms"] = {calib, 3};
  if (args.trace && !args.trace_out.empty() && !tracer.dump(args.trace_out)) {
    std::fprintf(stderr, "lft_perfbench: could not write %s\n", args.trace_out.c_str());
  }

  // A value that is not a number would not parse as JSON: it means the
  // workload measured nothing for it, which is a failed run.
  for (auto* values : {&r.e2e, &r.layers}) {
    for (auto& [name, v] : *values) {
      if (std::isfinite(v.value)) continue;
      v.value = 0.0;
      r.fail(1, name + " is not finite");
    }
  }
  r.e2e["failed_share"] = {
      r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 1.0,
      r.attempted};
  const bool correct = r.failed == 0 && r.attempted > 0;
  std::printf("workload %s seed %" PRIu64 " trace %d: %s (%" PRIu64 " attempted, %" PRIu64
              " failed)\n",
              args.workload.c_str(), args.seed, args.trace ? 1 : 0, correct ? "ok" : "FAILED",
              r.attempted, r.failed);
  for (const auto& e : r.errors) std::printf("  failure: %s\n", e.c_str());
  std::printf("  calibration loop %.4f ms (report only)\n", calib);
  const auto& values = args.trace ? r.layers : r.e2e;
  print_table(values);
  print_json(r, correct, values);
  return correct ? 0 : 1;
}
