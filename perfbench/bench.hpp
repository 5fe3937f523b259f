// Shared plumbing of the lft benchmark (lft_perfbench): run arguments, the
// per-run result every workload fills, seeded input generation, order
// statistics, and the in-memory span recorder of the traced mode.
//
// Every layer is timed from outside, around calls into its public entry
// points; nothing here reaches into the library's internals.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline double seconds_since(std::uint64_t start_ns) noexcept {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-check sizes: every workload shrunk to a fraction of a second.
  bool tiny = false;
  std::string trace_out;  ///< where the traced mode dumps its spans
};

/// The seed the recorded fingerprint digests belong to.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// splitmix64: the benchmark's own input generator and digest mixer, kept
/// apart from the library's hashes so inputs never move with library code.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[nodiscard]] inline std::uint64_t mix64(std::uint64_t a, std::uint64_t b) noexcept {
  return mix64(a ^ mix64(b));
}

/// Nearest-rank percentile (p in (0, 100]) of an unsorted sample; sorts it.
[[nodiscard]] inline double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size())) - 1.0;
  const auto i = static_cast<std::size_t>(std::max(0.0, rank));
  return v[std::min(i, v.size() - 1)];
}

[[nodiscard]] inline double median(std::vector<double> v) { return percentile(v, 50.0); }

/// One measured value plus the number of samples behind it (shown in the
/// human-readable table; percentiles state how many observations back them).
struct Value {
  double value = 0.0;
  std::uint64_t samples = 0;
};

/// What a workload hands back: correctness counts, end-to-end values (from
/// untraced epochs) and per-layer values (from traced epochs), by name.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions
  std::map<std::string, Value> e2e;
  std::map<std::string, Value> layers;

  void fail(std::uint64_t count, std::string why) {
    failed += count;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
};

/// Traced mode's span store: coarse spans (epochs, executions, fleet jobs,
/// setup steps) are kept whole; per-call spans of hot client calls are
/// aggregated by the caller into sums and counts and added as totals.
/// Thread-safe; written to a file once the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint32_t thread = 0;  ///< dense index of the recording thread
    std::int64_t parent = -1;  ///< index of the causing span, -1 for roots
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };
  struct Total {
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
  };

  /// Records a finished span; returns its index (a parent for later spans).
  std::int64_t span(std::string name, std::uint64_t start_ns, std::uint64_t end_ns,
                    std::int64_t parent = -1) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), thread_index_locked(), parent, start_ns, end_ns});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  /// Opens a span that ends at the matching close(); children may name it
  /// as their parent meanwhile.
  std::int64_t open(std::string name, std::int64_t parent = -1) {
    return span(std::move(name), now_ns(), 0, parent);
  }
  void close(std::int64_t index) {
    const std::uint64_t end = now_ns();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].end_ns = end;
  }

  void add_total(const std::string& name, std::uint64_t count, std::uint64_t sum_ns) {
    const std::lock_guard<std::mutex> lock(mu_);
    Total& t = totals_[name];
    t.count += count;
    t.sum_ns += sum_ns;
  }

  [[nodiscard]] std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Writes every span and total as JSON lines; false on an I/O error.
  [[nodiscard]] bool dump(const std::string& path) const;

 private:
  std::uint32_t thread_index_locked() {
    const auto id = std::this_thread::get_id();
    const auto it = threads_.find(id);
    if (it != threads_.end()) return it->second;
    const auto index = static_cast<std::uint32_t>(threads_.size());
    threads_.emplace(id, index);
    return index;
  }

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, Total> totals_;
  std::map<std::thread::id, std::uint32_t> threads_;
};

/// Workload entry points (serve.cpp, sim.cpp). `tracer` is null in the
/// untraced mode.
Result run_serve_closed(const Args& args, Tracer* tracer);
Result run_serve_open(const Args& args, Tracer* tracer);
Result run_sim_fleet(const Args& args, Tracer* tracer);
Result run_sim_scale(const Args& args, Tracer* tracer);

/// Peak resident set size of this process so far (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
