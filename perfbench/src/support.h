// Shared pieces of the perfbench binary: options, the result line, the
// span tracer, the allocation counter, /proc readers and child
// processes.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";  // scratch files, inside the checkout
  std::string bin_dir;                 // where triad_timed lives
  std::uint64_t start_ns = 0;          // now_ns() on entering main()
};

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back; printed as the benchmark's last line.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // failed correctness checks
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void check(const std::string& error) {
    if (!error.empty()) errors.push_back(error);
  }
  [[nodiscard]] bool has(const std::string& name) const;
};

/// Prints errors to stderr and the JSON result as the last stdout line.
void print_result(const Result& result);

// --- time, CPU and memory ----------------------------------------------

/// CLOCK_MONOTONIC in ns (same clock as Python's time.monotonic_ns()).
std::uint64_t now_ns();
/// CPU time (user + sys) of this process, all threads.
std::uint64_t self_cpu_ns();
/// CPU time (user + sys) of another process, all threads (from
/// /proc/<pid>/stat; clock-tick resolution). 0 when unreadable.
std::uint64_t pid_cpu_ns(pid_t pid);
/// Peak resident set (VmHWM) of a process in MiB; pid 0 = self.
double peak_rss_mb(pid_t pid = 0);

/// Nearest-rank percentile of an unsorted sample (p in [0, 1]);
/// reorders the sample.
double percentile(std::vector<std::uint64_t>& sample, double p);

/// Splits a measured window into fixed-length sub-windows and reports
/// ops_per_s, op_p99_us and cpu_us_per_op as medians over them, so a slow
/// spell of the shared machine that covers a minority of the window moves
/// none of them. Each workload sizes its sub-windows to hold well over
/// 1000 ops (ten beyond the p99); a window with fewer than 1000 ops in
/// all fails the run.
///
/// op_p50_us is the mean over half-second slices of each slice's median
/// op latency. The machine switches between a fast and a slow state
/// every fraction of a second; a median over the run (or over a handful
/// of sub-windows) jumps from one state's typical latency to the other's
/// when the two share the run about evenly, while the mean over slices
/// moves in proportion to the share.

class WindowStats {
 public:
  WindowStats(std::uint64_t start_ns, std::uint64_t sub_ns,
              std::function<std::uint64_t()> cpu_ns);
  /// One op completed at `done_ns` after `latency_ns`.
  void add(std::uint64_t done_ns, std::uint64_t latency_ns);
  /// Closes the window; a trailing sub-window shorter than half the
  /// sub-window length is dropped unless it is the only one.
  void finish(std::uint64_t end_ns);
  void report(Result& result);

 private:
  struct Sub {
    std::uint64_t len_ns = 0;
    std::uint64_t cpu_ns = 0;
    std::vector<std::uint64_t> latencies;
  };
  void close_until(std::uint64_t now_ns);
  void close_slices_until(std::uint64_t now_ns);

  static constexpr std::uint64_t kSliceNs = 500'000'000;

  std::uint64_t sub_ns_;
  std::function<std::uint64_t()> cpu_ns_;
  std::uint64_t sub_start_;
  // Rates run from the last op completed before a sub-window to its own
  // last op, so they carry full precision rather than ops / 3 s.
  std::uint64_t mark_ns_;
  std::uint64_t last_done_ = 0;
  std::uint64_t cpu_start_;
  Sub open_;
  std::vector<Sub> subs_;
  std::uint64_t slice_start_;
  std::vector<std::uint64_t> slice_;
  std::vector<double> slice_p50_ns_;
};

// --- allocation counter -------------------------------------------------

/// Heap activity of the calling thread (allocations made, requested
/// bytes still live), counted by the replaced global operator new/delete
/// in support.cpp. Deltas over a fixed operation repeat exactly.
struct AllocCounts {
  std::uint64_t allocs = 0;
  std::int64_t live_bytes = 0;
};
AllocCounts alloc_counts();

// --- span tracer --------------------------------------------------------

/// One recorded layer-boundary span. `parent` is the index + 1 of the
/// span open on the same thread when this one started (0 = root); the
/// spans of one operation share `op`.
struct Span {
  const char* name = nullptr;
  std::uint32_t parent = 0;
  std::uint64_t op = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Per-name totals over the recorded spans. Self time is the span's
/// duration minus the part covered by its child spans.
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  [[nodiscard]] double mean_self_ns() const {
    return count == 0 ? 0.0
                      : static_cast<double>(self_ns) /
                            static_cast<double>(count);
  }
};

/// In-memory span store. Off unless enable() ran (untraced runs pay one
/// relaxed branch per span site). Spans beyond the capacity are counted
/// as dropped; the totals then cover the first `capacity` spans.
class Tracer {
 public:
  static Tracer& instance();
  void enable(std::size_t capacity);
  [[nodiscard]] bool enabled() const { return enabled_; }

  std::uint32_t open(const char* name, std::uint64_t op);
  void close(std::uint32_t handle);

  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;
  /// Forgets every span (tracing stays on).
  void clear();
  /// Writes every span as one line: name op parent start_ns end_ns (after
  /// a header giving the spans dropped for lack of room);
  /// and, to `path`.self, each span name's count, total and self time.
  bool write(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::size_t capacity_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Mean self time of the recorded spans named `name` (0 when none).
double mean_self_ns(const std::string& name);
/// Self time of the spans named `name` divided by `items` (0 when none).
double self_ns_per(const std::string& name, std::uint64_t items);

/// RAII span around one call into a layer.
class SpanScope {
 public:
  explicit SpanScope(const char* name, std::uint64_t op = 0)
      : handle_(Tracer::instance().enabled()
                    ? Tracer::instance().open(name, op)
                    : 0) {}
  ~SpanScope() {
    if (handle_ != 0) Tracer::instance().close(handle_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// False when tracing is off or the span store was full.
  [[nodiscard]] bool recorded() const { return handle_ != 0; }

 private:
  std::uint32_t handle_;
};

// --- child processes ----------------------------------------------------

/// A spawned program, its stdout+stderr going to `log_path`. The
/// destructor kills and reaps it if it is still running.
class Child {
 public:
  Child(const std::vector<std::string>& argv, const std::string& log_path);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  [[nodiscard]] bool running() const { return pid_ > 0; }
  [[nodiscard]] pid_t pid() const { return pid_; }
  /// SIGTERM, then waits up to `timeout_ms` (SIGKILL after). Returns
  /// the exit status (-1 when killed or never started).
  int terminate(int timeout_ms = 5000);

 private:
  pid_t pid_ = -1;
};

/// Reads a whole file ("" when missing).
std::string read_file(const std::string& path);

/// Polls `path` until it contains `key` followed by a token; returns the
/// token ("" on timeout).
std::string wait_for_token(const std::string& path, const std::string& key,
                           int timeout_ms);

/// Sums every sample of a Prometheus family in a text dump (all label
/// sets); -1 when the family is absent.
double prom_sum(const std::string& dump, const std::string& family,
                const std::string& label_filter = "");

}  // namespace pb
