#include "support.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <thread>

extern char** environ;

// --- allocation counter: replaced global operator new/delete ------------
//
// Counts are per thread (no shared cache line on the campaign's worker
// pool). Each block carries a 16-byte header holding its requested size,
// so live bytes count what was asked for and repeat exactly, whatever
// chunk the allocator happened to hand out.

namespace {
constexpr std::size_t kHeader = 16;  // keeps max_align_t alignment
thread_local std::uint64_t tl_allocs = 0;
thread_local std::int64_t tl_live_bytes = 0;

void* counted_alloc(std::size_t n) {
  auto* block = static_cast<unsigned char*>(std::malloc(n + kHeader));
  if (block == nullptr) throw std::bad_alloc();
  std::memcpy(block, &n, sizeof(n));
  ++tl_allocs;
  tl_live_bytes += static_cast<std::int64_t>(n);
  return block + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  unsigned char* block = static_cast<unsigned char*>(p) - kHeader;
  std::size_t n = 0;
  std::memcpy(&n, block, sizeof(n));
  tl_live_bytes -= static_cast<std::int64_t>(n);
  std::free(block);
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace pb {

AllocCounts alloc_counts() { return {tl_allocs, tl_live_bytes}; }

bool Result::has(const std::string& name) const {
  return std::any_of(metrics.begin(), metrics.end(),
                     [&](const Metric& m) { return m.name == name; });
}

void print_result(const Result& result) {
  for (const std::string& error : result.errors) {
    std::cerr << "perfbench: CHECK FAILED: " << error << "\n";
  }
  std::ostringstream out;
  out << "{\"correct\": " << (result.errors.empty() ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
        << value << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

std::uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t self_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t pid_cpu_ns(pid_t pid) {
  const std::string stat = read_file("/proc/" + std::to_string(pid) + "/stat");
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream in(stat.substr(close + 2));
  std::string field;
  std::uint64_t utime = 0;
  std::uint64_t stime = 0;
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  const long ticks = sysconf(_SC_CLK_TCK);
  return (utime + stime) * (1'000'000'000ULL / static_cast<std::uint64_t>(
                                                   ticks > 0 ? ticks : 100));
}

double peak_rss_mb(pid_t pid) {
  const std::string status = read_file(
      pid == 0 ? std::string("/proc/self/status")
               : "/proc/" + std::to_string(pid) + "/status");
  const std::size_t at = status.find("VmHWM:");
  if (at == std::string::npos) return 0.0;
  return std::strtod(status.c_str() + at + 6, nullptr) / 1024.0;
}

double percentile(std::vector<std::uint64_t>& sample, double p) {
  if (sample.empty()) return 0.0;
  const auto n = static_cast<double>(sample.size());
  std::size_t rank = static_cast<std::size_t>(std::max(1.0, p * n + 0.999999999));
  rank = std::min(rank, sample.size());
  std::nth_element(sample.begin(), sample.begin() + static_cast<long>(rank - 1),
                   sample.end());
  return static_cast<double>(sample[rank - 1]);
}

// --- sub-window statistics -----------------------------------------------

WindowStats::WindowStats(std::uint64_t start_ns, std::uint64_t sub_ns,
                         std::function<std::uint64_t()> cpu_ns)
    : sub_ns_(sub_ns),
      cpu_ns_(std::move(cpu_ns)),
      sub_start_(start_ns),
      mark_ns_(start_ns),
      cpu_start_(cpu_ns_()),
      slice_start_(start_ns) {}

void WindowStats::close_until(std::uint64_t now_ns) {
  while (now_ns >= sub_start_ + sub_ns_) {
    const std::uint64_t cpu = cpu_ns_();
    open_.len_ns = last_done_ - mark_ns_;
    mark_ns_ = last_done_;
    open_.cpu_ns = cpu - cpu_start_;
    subs_.push_back(std::move(open_));
    open_ = Sub{};
    sub_start_ += sub_ns_;
    cpu_start_ = cpu;
  }
}

void WindowStats::close_slices_until(std::uint64_t now_ns) {
  while (now_ns >= slice_start_ + kSliceNs) {
    if (!slice_.empty()) {
      slice_p50_ns_.push_back(percentile(slice_, 0.50));
      slice_.clear();
    }
    slice_start_ += kSliceNs;
  }
}

void WindowStats::add(std::uint64_t done_ns, std::uint64_t latency_ns) {
  close_until(done_ns);
  close_slices_until(done_ns);
  open_.latencies.push_back(latency_ns);
  slice_.push_back(latency_ns);
  last_done_ = done_ns;
}

void WindowStats::finish(std::uint64_t end_ns) {
  close_until(end_ns);
  close_slices_until(end_ns);
  if (!slice_.empty() &&
      (end_ns - slice_start_ >= kSliceNs / 2 || slice_p50_ns_.empty())) {
    slice_p50_ns_.push_back(percentile(slice_, 0.50));
  }
  slice_.clear();
  const bool long_enough = end_ns - sub_start_ >= sub_ns_ / 2;
  if ((long_enough || subs_.empty()) && !open_.latencies.empty()) {
    open_.len_ns = last_done_ - mark_ns_;
    open_.cpu_ns = cpu_ns_() - cpu_start_;
    subs_.push_back(std::move(open_));
  }
  open_ = Sub{};
}

void WindowStats::report(Result& result) {
  std::vector<double> rate;
  std::vector<double> p99;
  std::vector<double> cpu;
  std::uint64_t ops_total = 0;
  for (Sub& sub : subs_) {
    if (sub.latencies.empty() || sub.len_ns == 0) continue;
    const auto ops = static_cast<double>(sub.latencies.size());
    rate.push_back(ops / (static_cast<double>(sub.len_ns) / 1e9));
    cpu.push_back(static_cast<double>(sub.cpu_ns) / 1e3 / ops);
    ops_total += sub.latencies.size();
    p99.push_back(percentile(sub.latencies, 0.99) / 1e3);
  }
  if (ops_total < 1000) {
    result.check("only " + std::to_string(ops_total) +
                 " ops completed in the measured window; a p99 needs 1000");
    if (rate.empty()) return;
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  };
  std::cerr << "perfbench: sub-window rates (op/s):";
  for (const double r : rate) std::cerr << " " << r;
  std::cerr << "\n";
  result.add("ops_per_s", median(rate), "op/s");
  double p50_sum = 0.0;
  for (const double p50 : slice_p50_ns_) p50_sum += p50;
  result.add("op_p50_us",
             p50_sum / static_cast<double>(slice_p50_ns_.size()) / 1e3, "us");
  result.add("op_p99_us", median(p99), "us");
  result.add("cpu_us_per_op", median(cpu), "us");
}

// --- tracer ---------------------------------------------------------------

namespace {
thread_local std::uint32_t tl_open_span = 0;
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity;
  spans_.reserve(capacity);
  enabled_ = true;
}

std::uint32_t Tracer::open(const char* name, std::uint64_t op) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return 0;
  }
  Span span;
  span.name = name;
  span.parent = tl_open_span;
  span.op = op;
  span.start_ns = now_ns();
  spans_.push_back(span);
  tl_open_span = static_cast<std::uint32_t>(spans_.size());
  return tl_open_span;
}

void Tracer::close(std::uint32_t handle) {
  const std::uint64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_[handle - 1];
  span.end_ns = end;
  tl_open_span = span.parent;
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::uint64_t> covered(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != 0 && span.end_ns >= span.start_ns) {
      covered[span.parent - 1] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < span.start_ns) continue;  // still open
    const std::uint64_t dur = span.end_ns - span.start_ns;
    SpanTotals& t = totals[span.name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur > covered[i] ? dur - covered[i] : 0;
  }
  return totals;
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
  dropped_ = 0;
}

bool Tracer::write(const std::string& path) const {
  {
    std::ofstream self(path + ".self");
    self << "# name count total_ns self_ns\n";
    for (const auto& [name, t] : totals()) {
      self << name << " " << t.count << " " << t.total_ns << " " << t.self_ns
           << "\n";
    }
    if (!self) return false;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "# dropped %llu\n# name op parent start_ns end_ns\n",
               static_cast<unsigned long long>(dropped_));
  for (const Span& span : spans_) {
    std::fprintf(file, "%s %llu %u %llu %llu\n", span.name,
                 static_cast<unsigned long long>(span.op), span.parent,
                 static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.end_ns));
  }
  return std::fclose(file) == 0;
}

double mean_self_ns(const std::string& name) {
  const auto totals = Tracer::instance().totals();
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.mean_self_ns();
}

double self_ns_per(const std::string& name, std::uint64_t items) {
  const auto totals = Tracer::instance().totals();
  const auto it = totals.find(name);
  return it == totals.end() || items == 0
             ? 0.0
             : static_cast<double>(it->second.self_ns) /
                   static_cast<double>(items);
}

// --- child processes --------------------------------------------------------

Child::Child(const std::vector<std::string>& argv, const std::string& log_path) {
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  pid_t pid = -1;
  if (posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ) == 0) {
    pid_ = pid;
  }
  posix_spawn_file_actions_destroy(&actions);
}

Child::~Child() {
  if (pid_ > 0) terminate(1000);
}

int Child::terminate(int timeout_ms) {
  if (pid_ <= 0) return -1;
  kill(pid_, SIGTERM);
  int status = 0;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1'000'000ULL;
  while (true) {
    const pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_) break;
    if (done < 0) {
      pid_ = -1;
      return -1;
    }
    if (now_ns() > deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      pid_ = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string wait_for_token(const std::string& path, const std::string& key,
                           int timeout_ms) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1'000'000ULL;
  while (now_ns() < deadline) {
    const std::string text = read_file(path);
    const std::size_t at = text.find(key);
    if (at != std::string::npos) {
      const std::size_t start = at + key.size();
      const std::size_t end = text.find_first_of(" \n", start);
      if (end != std::string::npos) return text.substr(start, end - start);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return "";
}

double prom_sum(const std::string& dump, const std::string& family,
                const std::string& label_filter) {
  std::istringstream in(dump);
  std::string line;
  double sum = 0.0;
  bool found = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.compare(0, family.size(), family) != 0) continue;
    if (line.size() <= family.size() ||
        (line[family.size()] != '{' && line[family.size()] != ' ')) {
      continue;
    }
    if (!label_filter.empty() && line.find(label_filter) == std::string::npos) {
      continue;
    }
    const std::size_t space = line.rfind(' ');
    sum += std::strtod(line.c_str() + space + 1, nullptr);
    found = true;
  }
  return found ? sum : -1.0;
}

}  // namespace pb
