// campaign_fminus: rounds of a grid of kSeedsPerRound seeds x {none,
// fminus} two-minute scenarios on CampaignRunner. Detectors are on, as
// in every campaign run; each run dumps Prometheus and JSONL files, and
// each round ends with the aggregate report. One op is one grid run,
// timed by a run_fn wrapper around campaign::execute_run.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "campaign/aggregate.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "checks.h"
#include "exp/scenario.h"
#include "layers.h"
#include "obs/detect.h"
#include "obs/export.h"
#include "workloads.h"

namespace pb {
namespace {

namespace campaign = triad::campaign;

constexpr std::size_t kSeedsPerRound = 4;
// Sub-windows of the measured window: at 150-160 grid runs a second,
// about 1500 ops each.
constexpr std::uint64_t kSubWindowNs = 10'000'000'000;
// Paper §III-C F−: +100 ms on the TA's 0 s-sleep answers of a 1 s
// calibration pair; the paper reports 2609.95 MHz.
constexpr double kNominalMhz = 2900.0;
constexpr double kCalibSleepS = 1.0;
constexpr double kCalibTolerancePpm = 500.0;

// One CPU is left to the main thread and the rest of the machine: with a
// worker on every CPU of a shared 4-vCPU VM, descheduled workers made the
// p99 swing (22.9-35.0 ms over four runs, against 20.9-24.2 ms at three
// jobs).
std::size_t campaign_jobs() {
  const unsigned cpus = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(cpus <= 1 ? 1 : cpus - 1, 1, 3);
}

campaign::CampaignSpec round_spec(std::uint64_t seed, std::size_t round,
                                  std::size_t seeds) {
  campaign::CampaignSpec spec;
  spec.seeds.clear();
  const std::uint64_t base = seed * 100000 + round * seeds;
  for (std::size_t i = 0; i < seeds; ++i) spec.seeds.push_back(base + i);
  spec.attacks = {"none", "fminus"};
  spec.duration = triad::minutes(2);
  return spec;
}

struct Round {
  campaign::CampaignResult result;
  std::string report;
  std::uint64_t busy_ns = 0;  // summed execute_run wall time
  std::uint64_t wall_ns = 0;
  std::uint64_t first_op_ns = 0;  // when the first execute_run began
};

class RoundRunner {
 public:
  /// `time_exports`: also time obs's exporters on every run (probe).
  RoundRunner(std::string metrics_dir, std::size_t jobs,
              bool time_exports = false)
      : metrics_dir_(std::move(metrics_dir)),
        jobs_(jobs),
        time_exports_(time_exports) {}

  /// Runs one grid; each op is also recorded into `window` when given.
  Round run(const campaign::CampaignSpec& spec, Result& checks,
            WindowStats* window = nullptr) {
    Round round;
    std::mutex mutex;
    campaign::RunOptions run_options;
    run_options.metrics_dir = metrics_dir_;
    if (time_exports_) {
      // Times obs's exporters on each run's own registry and trace ring,
      // just before execute_run dumps them.
      run_options.inspect = [](const campaign::RunSpec& run,
                               triad::exp::Scenario& scenario,
                               const triad::exp::Recorder&,
                               campaign::RunResult&) {
        std::ostringstream sink;
        {
          const SpanScope span("obs.export_prometheus", run.index + 1);
          triad::obs::write_prometheus(*scenario.metrics(), sink);
        }
        if (scenario.trace() != nullptr) {
          const SpanScope span("obs.export_jsonl", run.index + 1);
          triad::obs::write_jsonl(*scenario.trace(), sink);
        }
      };
    }
    campaign::RunnerOptions options;
    options.jobs = jobs_;
    options.run_fn = [&](const campaign::RunSpec& run) {
      const std::uint64_t start = now_ns();
      campaign::RunResult result;
      {
        const SpanScope span("campaign.execute_run", run.index + 1);
        result = campaign::execute_run(run, run_options);
      }
      const std::uint64_t done = now_ns();
      const std::lock_guard<std::mutex> lock(mutex);
      if (round.first_op_ns == 0 || start < round.first_op_ns) {
        round.first_op_ns = start;
      }
      round.busy_ns += done - start;
      if (window != nullptr) window->add(done, done - start);
      return result;
    };
    const std::uint64_t start = now_ns();
    round.result = campaign::CampaignRunner(options).run(spec);
    {
      const SpanScope span("campaign.aggregate");
      std::ostringstream report;
      campaign::CampaignReport::aggregate(spec, round.result).write_json(report);
      round.report = report.str();
      std::ofstream(metrics_dir_ + "/report.json") << round.report;
    }
    round.wall_ns = now_ns() - start;
    checks.check(check_campaign_runs(
        round.result.runs, spec.expand(),
        fminus_expected_mhz(kNominalMhz, 0.1, kCalibSleepS),
        kCalibTolerancePpm));
    return round;
  }

 private:
  std::string metrics_dir_;
  std::size_t jobs_;
  bool time_exports_;
};

/// campaign.* and obs.* from the spans of the probe's round.
void add_campaign_layers(const Round& round, std::size_t jobs,
                         const std::string& metrics_dir, Result& result) {
  const auto totals = Tracer::instance().totals();
  const auto mean_ms = [&](const char* span) {
    const auto it = totals.find(span);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : static_cast<double>(it->second.total_ns) /
                     static_cast<double>(it->second.count) / 1e6;
  };
  result.add("campaign.execute_run_ms", mean_ms("campaign.execute_run"), "ms");
  result.add("campaign.aggregate_ms", mean_ms("campaign.aggregate"), "ms");
  result.add("obs.export_prometheus_ms", mean_ms("obs.export_prometheus"), "ms");
  result.add("obs.export_jsonl_ms", mean_ms("obs.export_jsonl"), "ms");
  double queue_ms = 0.0;
  for (const auto& run : round.result.runs) queue_ms += run.queue_ms;
  result.add("campaign.queue_ms",
             queue_ms / static_cast<double>(
                            std::max<std::size_t>(1, round.result.runs.size())),
             "ms");
  result.add("campaign.worker_busy",
             static_cast<double>(round.busy_ns) /
                 (static_cast<double>(jobs) *
                  std::max(1.0, static_cast<double>(round.wall_ns))),
             "ratio");

  // Detector cost: replay one recorded F− trace through a fresh bank.
  const std::size_t fminus_run = kSeedsPerRound;  // first fminus grid index
  const std::string jsonl =
      read_file(metrics_dir + "/run_" + std::to_string(fminus_run) + ".jsonl");
  const auto events = triad::obs::parse_jsonl(jsonl);
  if (!events.empty()) {
    triad::obs::DetectorConfig config;
    config.ta_address = 4;  // node_count + 1
    triad::obs::DetectorBank bank(config, nullptr, nullptr);
    std::uint64_t took = 0;
    {
      const SpanScope span("obs.detector_replay");
      const std::uint64_t start = now_ns();
      for (const auto& event : events) bank.emit(event);
      took = now_ns() - start;
    }
    result.add("obs.detector_ns_per_event",
               static_cast<double>(took) / static_cast<double>(events.size()),
               "ns");
  }
}

}  // namespace

Result run_campaign(const Options& options) {
  Result result;
  const std::string metrics_dir = options.out_dir + "/campaign_fminus";
  std::filesystem::create_directories(metrics_dir);
  const std::size_t jobs = campaign_jobs();
  RoundRunner runner(metrics_dir, jobs);

  const auto window_ns = static_cast<std::uint64_t>(options.seconds * 1e9);
  const std::uint64_t window_start = now_ns();
  WindowStats window(window_start, kSubWindowNs, self_cpu_ns);
  std::uint64_t setup_end = 0;
  std::string first_report;
  std::size_t round_index = 0;
  do {
    const Round round = runner.run(
        round_spec(options.seed, round_index++, kSeedsPerRound), result,
        &window);
    if (first_report.empty()) {
      first_report = round.report;
      setup_end = round.first_op_ns;
    }
    result.attempted += round.result.runs.size();
    result.failed += round.result.failures;
  } while (now_ns() - window_start < window_ns);
  window.finish(now_ns());
  const double rss_mb = peak_rss_mb();

  // The aggregate report must not depend on the worker count.
  RoundRunner serial(metrics_dir, 1);
  const Round replay = serial.run(round_spec(options.seed, 0, kSeedsPerRound), result);
  result.check(check_identical(first_report, replay.report,
                               "aggregate report at jobs " +
                                   std::to_string(jobs) + " vs jobs 1"));

  result.add("setup_s", static_cast<double>(setup_end - options.start_ns) / 1e9,
             "s");
  window.report(result);
  result.add("peak_rss_mb", rss_mb, "MiB");
  return result;
}

void probe_campaign_layers(const Options& options, Result& result) {
  const std::string metrics_dir = options.out_dir + "/campaign_probe";
  std::filesystem::create_directories(metrics_dir);
  const std::size_t jobs = 2;
  RoundRunner runner(metrics_dir, jobs, /*time_exports=*/true);
  const Round round =
      runner.run(round_spec(options.seed, 0, kSeedsPerRound), result);
  add_campaign_layers(round, jobs, metrics_dir, result);
}

}  // namespace pb
