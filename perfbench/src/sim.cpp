// sim_longrun / sim_observed: one seeded 3-node cluster, every node in
// the paper's Triad-like AEX environment (Fig. 1a). One op is one
// Scenario::run_for(1 virtual minute); a run simulates many virtual
// hours. No sockets, no threads: the event loop, simulated delivery,
// in-sim crypto and triad::Node logic do all the work. sim_longrun runs
// with the obs layer off; sim_observed is the same cluster with the
// scenario's metrics registry and trace ring on, as every campaign run
// has them, so the obs layer's recording cost shows.

#include <optional>

#include "checks.h"
#include "exp/scenario.h"
#include "layers.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "ta/time_authority.h"
#include "workloads.h"

namespace pb {
namespace {

namespace exp = triad::exp;

constexpr double kNominalMhz = 2900.0;
// The paper's per-node F_calib spread (Fig. 2/3: 2899.363 to 2900.510 MHz)
// with headroom: calibration error is a few hundred ppm.
constexpr double kCalibTolerancePpm = 500.0;
// Fig. 2: availability > 98 % over 30 min including the initial
// calibration, under the Triad-like environment.
constexpr double kMinAvailability = 0.98;
// Ops replayed for the determinism check, and the fixed prefix the
// traced run's exact per-op counts are taken over.
constexpr std::size_t kReplayOps = 120;
// Trace events sim_observed keeps (the ring holds the latest ones).
constexpr std::size_t kTraceCapacity = 1 << 16;
// Sub-windows of the measured window: at 330-480 ops a second, 1650-2400
// ops each.
constexpr std::uint64_t kSubWindowNs = 5'000'000'000;
// Ops run before the measured window: the first seconds of a run were
// the slowest in most runs measured.
constexpr std::uint64_t kWarmupNs = 5'000'000'000;

exp::ScenarioConfig scenario_config(std::uint64_t seed, bool observed) {
  exp::ScenarioConfig config;
  config.seed = seed;
  config.enable_metrics = observed;
  config.trace_capacity = observed ? kTraceCapacity : 0;
  config.node_count = 3;
  config.environments.assign(3, exp::AexEnvironment::kTriadLike);
  return config;
}

SimCounts counts_of(exp::Scenario& scenario) {
  SimCounts counts;
  counts.events = scenario.simulation().events_executed();
  counts.packets = scenario.network().stats().sent;
  for (std::size_t i = 0; i < scenario.node_count(); ++i) {
    counts.adoptions += scenario.node(i).stats().peer_adoptions +
                        scenario.node(i).stats().ta_time_references;
  }
  return counts;
}

struct SimRun {
  std::vector<SimCounts> counts;       // cumulative, after each op
  std::vector<std::uint64_t> ta_requests;  // cumulative, after each op
  std::vector<double> fcalib_mhz;
  std::vector<double> availability;
  std::uint64_t setup_end_ns = 0;
};

/// Builds the cluster, then issues ops until `max_ops` ops ran or
/// `window_ns` elapsed (0 = no time limit). When `window` is given, ops
/// run untimed for kWarmupNs first and each later op is recorded into it.
SimRun simulate(const exp::ScenarioConfig& config, std::size_t max_ops,
                std::uint64_t window_ns,
                std::optional<WindowStats>* window = nullptr) {
  SimRun run;
  std::optional<exp::Scenario> scenario;
  {
    const SpanScope span("exp.scenario_build");
    scenario.emplace(config);
    scenario->start();
  }
  run.setup_end_ns = now_ns();
  const auto issue = [&] {
    {
      const SpanScope span("sim.run_for", run.counts.size() + 1);
      scenario->run_for(triad::minutes(1));
    }
    run.counts.push_back(counts_of(*scenario));
    run.ta_requests.push_back(
        scenario->time_authority().stats().requests_served);
  };
  std::uint64_t now = run.setup_end_ns;
  if (window != nullptr) {
    while (run.counts.size() < max_ops && now < run.setup_end_ns + kWarmupNs) {
      issue();
      now = now_ns();
    }
    window->emplace(now, kSubWindowNs, self_cpu_ns);
  }
  const std::uint64_t end = now + window_ns;
  while (run.counts.size() < max_ops && (window_ns == 0 || now < end)) {
    issue();
    const std::uint64_t done = now_ns();
    if (window != nullptr) (*window)->add(done, done - now);
    now = done;
  }
  if (window != nullptr) (*window)->finish(now);
  for (std::size_t i = 0; i < scenario->node_count(); ++i) {
    run.fcalib_mhz.push_back(scenario->node(i).calibrated_frequency_hz() / 1e6);
    run.availability.push_back(scenario->node(i).availability());
  }
  return run;
}

/// Exact per-op counts over the first kReplayOps ops, plus the event
/// loop's time per event and the build time, from the spans of a run of
/// kReplayOps ops.
void add_sim_layers(const SimRun& run, Result& result) {
  const std::size_t k = std::min(kReplayOps, run.counts.size());
  if (k == 0) return;
  const auto per_op = [k](std::uint64_t total) {
    return static_cast<double>(total) / static_cast<double>(k);
  };
  result.add("sim.events_per_op", per_op(run.counts[k - 1].events), "count");
  result.add("net.packets_per_op", per_op(run.counts[k - 1].packets), "count");
  result.add("triad.adoptions_per_op", per_op(run.counts[k - 1].adoptions),
             "count");
  result.add("triad.ta_requests_per_op", per_op(run.ta_requests[k - 1]),
             "count");
  const auto totals = Tracer::instance().totals();
  const auto run_for = totals.find("sim.run_for");
  if (run_for != totals.end()) {
    result.add("sim.ns_per_event",
               static_cast<double>(run_for->second.self_ns) /
                   static_cast<double>(run.counts.back().events),
               "ns");
  }
  const auto build = totals.find("exp.scenario_build");
  if (build != totals.end()) {
    result.add("exp.scenario_build_ms",
               static_cast<double>(build->second.total_ns) /
                   static_cast<double>(build->second.count) / 1e6,
               "ms");
  }
}

}  // namespace

Result run_sim(const Options& options, bool observed) {
  Result result;
  const exp::ScenarioConfig config = scenario_config(options.seed, observed);
  const auto window_ns = static_cast<std::uint64_t>(options.seconds * 1e9);
  std::optional<WindowStats> window;
  SimRun run = simulate(config, SIZE_MAX, window_ns, &window);
  result.attempted = run.counts.size();

  result.check(check_fcalib(run.fcalib_mhz, kNominalMhz, kCalibTolerancePpm));
  result.check(check_availability(run.availability, kMinAvailability));
  if (run.counts.size() < kReplayOps) {
    result.check("only " + std::to_string(run.counts.size()) +
                 " ops ran; the determinism replay needs " +
                 std::to_string(kReplayOps));
  } else {
    const SimRun replay = simulate(config, kReplayOps, 0);
    result.check(check_same_counts(run.counts, replay.counts));
  }
  result.add("setup_s",
             static_cast<double>(run.setup_end_ns - options.start_ns) / 1e9,
             "s");
  window->report(result);
  result.add("peak_rss_mb", peak_rss_mb(), "MiB");
  return result;
}

void probe_sim_layers(const Options& options, Result& result) {
  const SimRun run =
      simulate(scenario_config(options.seed, /*observed=*/false), kReplayOps, 0);
  add_sim_layers(run, result);
}

}  // namespace pb
