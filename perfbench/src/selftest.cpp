// The benchmark's own tests: every correctness check passes on a good
// input and fails on a corrupted copy of it.

#include <cmath>
#include <iostream>

#include "checks.h"
#include "workloads.h"

namespace pb {
namespace {

int failures = 0;

void expect(bool passes, const std::string& error, const char* what) {
  const bool ok = passes ? error.empty() : !error.empty();
  std::cout << (ok ? "ok    " : "FAIL  ") << what
            << (error.empty() ? "" : "  [" + error + "]") << "\n";
  if (!ok) ++failures;
}

void serve_checks() {
  ResponseView good{true, 1, true, 77, false};
  expect(true, check_response(good, 1, 77), "response: genuine answer");
  ResponseView bad = good;
  bad.authenticated = false;
  expect(false, check_response(bad, 1, 77), "response: unauthenticated");
  bad = good;
  bad.sender = 2;
  expect(false, check_response(bad, 1, 77), "response: wrong node");
  bad = good;
  bad.request_id = 76;
  expect(false, check_response(bad, 1, 77), "response: wrong request id");
  bad = good;
  bad.tainted = true;
  expect(false, check_response(bad, 1, 77), "response: tainted");
  bad = good;
  bad.is_time_response = false;
  expect(false, check_response(bad, 1, 77), "response: not a time response");

  // Node clock 5 s ahead of ours; 1 ms error bound; 20 us round trips.
  const std::int64_t offset = 5'000'000'000;
  const auto at = [&](std::uint64_t recv_ns, std::int64_t skew) {
    return ServedTimestamp{static_cast<std::int64_t>(recv_ns) - 10'000 +
                               offset + skew,
                           1'000'000, recv_ns - 20'000, recv_ns};
  };
  {
    ServeClockChecker checker;
    std::string error;
    for (std::uint64_t t = 1; t <= 100; ++t) {
      const std::string e = checker.add(at(t * 10'000'000, 0));
      if (error.empty()) error = e;
    }
    expect(true, error, "clock: steady node");
  }
  {
    ServeClockChecker checker;
    (void)checker.add(at(10'000'000, 0));
    (void)checker.add(at(20'000'000, 0));
    expect(false, checker.add(at(30'000'000, -20'000'000)),
           "clock: served time steps back");
  }
  {
    ServeClockChecker checker;
    (void)checker.add(at(10'000'000, 0));
    expect(false, checker.add(at(20'000'000, 5'000'000)),
           "clock: served time runs 5 ms ahead of the local clock");
  }
  {
    // 100 ppm fast with jittery round trips: 100 us off after 1 s, well
    // inside two 1 ms bounds.
    ServeClockChecker checker;
    std::string error;
    for (std::uint64_t t = 1; t <= 100; ++t) {
      ServedTimestamp answer =
          at(t * 10'000'000, static_cast<std::int64_t>(t) * 1'000);
      answer.send_ns -= (t % 7) * 3'000;
      const std::string e = checker.add(answer);
      if (error.empty()) error = e;
    }
    expect(true, error, "clock: 100 ppm drift stays within the bounds");
  }
  {
    // 1 % fast: adjacent answers are 100 us off each other, within the
    // 2.04 ms allowed; answers 0.3 s apart are 3 ms off.
    ServeClockChecker checker;
    std::string error;
    for (std::uint64_t t = 1; t <= 100; ++t) {
      const std::string e = checker.add(
          at(t * 10'000'000, static_cast<std::int64_t>(t) * 100'000));
      if (error.empty()) error = e;
    }
    expect(false, error, "clock: 1 % drift breaks distant pairs");
    const double ppm = checker.drift_ppm();
    expect(true, std::abs(ppm - 10'000.0) < 1.0 ? "" : std::to_string(ppm),
           "clock: drift_ppm reports the 1 % drift");
  }

  expect(true, check_served_count(1000, 3, 1003.0), "count: node agrees");
  expect(false, check_served_count(1000, 3, 1002.0), "count: node served fewer");
  expect(false, check_served_count(1000, 3, 1004.0), "count: node served more");
  expect(true, check_forged(500, 500.0, 0), "forged: all rejected");
  expect(false, check_forged(500, 500.0, 1), "forged: one got a reply");
  expect(false, check_forged(500, 499.0, 0), "forged: one not counted bad");
}

void sim_checks() {
  const std::vector<SimCounts> run = {{100, 20, 1}, {210, 41, 2}, {300, 60, 4}};
  expect(true, check_same_counts(run, {{100, 20, 1}, {210, 41, 2}}),
         "determinism: replay prefix matches");
  expect(false, check_same_counts(run, {{100, 20, 1}, {211, 41, 2}}),
         "determinism: one event more");
  expect(false, check_same_counts(run, {{100, 20, 1}, {210, 41, 3}}),
         "determinism: one adoption more");
  expect(false, check_same_counts(run, {}), "determinism: empty replay");
  expect(true, check_fcalib({2900.089, 2900.113, 2899.653}, 2900.0, 500.0),
         "F_calib: paper Fig. 2 values");
  expect(false, check_fcalib({2900.089, 3190.0, 2899.653}, 2900.0, 500.0),
         "F_calib: an F+ victim");
  expect(false, check_fcalib({}, 2900.0, 500.0), "F_calib: no nodes");
  expect(true, check_availability({0.9805, 0.9883, 0.9838}, 0.98),
         "availability: paper Fig. 2 values");
  expect(false, check_availability({0.9805, 0.97, 0.9838}, 0.98),
         "availability: one node below");
}

void campaign_checks() {
  const double expected = fminus_expected_mhz(2900.0, 0.1, 1.0);
  expect(true, std::abs(expected - 2610.0) < 1e-9 ? "" : "not 2610 MHz",
         "F- analytic value: 2900 * (1 - 0.1 s / 1 s)");
  std::vector<triad::campaign::RunSpec> specs(2);
  specs[0].attack = "none";
  specs[1].attack = "fminus";
  std::vector<triad::campaign::RunResult> runs(2);
  runs[0].victim_freq_mhz = 2900.1;
  runs[1].victim_freq_mhz = 2609.95;  // the paper's figure
  expect(true, check_campaign_runs(runs, specs, expected, 500.0),
         "campaign: paper F- victim, quiet honest run");
  auto bad = runs;
  bad[1].victim_freq_mhz = 2900.0;
  expect(false, check_campaign_runs(bad, specs, expected, 500.0),
         "campaign: F- victim not poisoned");
  bad = runs;
  bad[0].detector_alarms = 1;
  bad[0].detector_false_alarms = 1;
  expect(false, check_campaign_runs(bad, specs, expected, 500.0),
         "campaign: false alarm without attack");
  bad = runs;
  bad[1].failed = true;
  bad[1].error = "boom";
  expect(false, check_campaign_runs(bad, specs, expected, 500.0),
         "campaign: failed run");
  expect(false, check_campaign_runs({runs[0]}, specs, expected, 500.0),
         "campaign: missing result");
  expect(true, check_identical("{\"a\": 1}\n", "{\"a\": 1}\n", "report"),
         "report: identical");
  expect(false, check_identical("{\"a\": 1}\n", "{\"a\": 2}\n", "report"),
         "report: one byte differs");
}

}  // namespace

int run_selftest() {
  serve_checks();
  sim_checks();
  campaign_checks();
  std::cout << (failures == 0 ? "selftest passed" : "selftest FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace pb
