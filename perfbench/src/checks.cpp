#include "checks.h"

#include <cmath>
#include <cstdlib>

namespace pb {

std::string check_response(const ResponseView& got, std::uint32_t node_id,
                           std::uint64_t expected_request_id) {
  if (!got.authenticated) return "response failed authentication";
  if (got.sender != node_id) {
    return "response authenticated as node " + std::to_string(got.sender) +
           ", expected " + std::to_string(node_id);
  }
  if (!got.is_time_response) return "answer is not a PeerTimeResponse";
  if (got.request_id != expected_request_id) {
    return "response id " + std::to_string(got.request_id) +
           " does not match request " + std::to_string(expected_request_id);
  }
  if (got.tainted) return "node answered tainted";
  return "";
}

std::string check_advance(const ServedTimestamp& a, const ServedTimestamp& b) {
  const double served = static_cast<double>(b.served_ns - a.served_ns);
  const double local =
      static_cast<double>(b.recv_ns) - static_cast<double>(a.recv_ns);
  const double slack = static_cast<double>(a.error_bound_ns + b.error_bound_ns) +
                       static_cast<double>(a.recv_ns - a.send_ns) +
                       static_cast<double>(b.recv_ns - b.send_ns);
  if (std::abs(served - local) > slack) {
    return "served time advanced " + std::to_string(served) +
           " ns while the local clock advanced " + std::to_string(local) +
           " ns (allowed gap " + std::to_string(slack) + " ns)";
  }
  return "";
}

namespace {

std::int64_t slack_ns(const ServedTimestamp& t) {
  return t.error_bound_ns + static_cast<std::int64_t>(t.recv_ns - t.send_ns);
}
std::int64_t offset_ns(const ServedTimestamp& t) {
  return t.served_ns - static_cast<std::int64_t>(t.recv_ns);
}

}  // namespace

std::string ServeClockChecker::add(const ServedTimestamp& t) {
  if (!have_) {
    have_ = true;
    first_ = prev_ = low_ = high_ = t;
    return "";
  }
  const bool monotone = t.served_ns > prev_.served_ns;
  const std::int64_t previous = prev_.served_ns;
  prev_ = t;
  if (!monotone) {
    return "served time not monotone: " + std::to_string(t.served_ns) +
           " after " + std::to_string(previous);
  }
  if (offset_ns(t) - slack_ns(t) > offset_ns(low_) - slack_ns(low_)) low_ = t;
  if (offset_ns(t) + slack_ns(t) < offset_ns(high_) + slack_ns(high_)) high_ = t;
  return low_.recv_ns < high_.recv_ns ? check_advance(low_, high_)
                                      : check_advance(high_, low_);
}

double ServeClockChecker::drift_ppm() const {
  const double local = static_cast<double>(prev_.recv_ns) -
                       static_cast<double>(first_.recv_ns);
  if (local <= 0) return 0.0;
  const double served = static_cast<double>(prev_.served_ns - first_.served_ns);
  return (served - local) / local * 1e6;
}

std::string check_served_count(std::uint64_t loadgen_answered,
                               std::uint64_t probe_requests,
                               double node_responses_total) {
  const double expected =
      static_cast<double>(loadgen_answered + probe_requests);
  if (node_responses_total != expected) {
    return "node reports " + std::to_string(node_responses_total) +
           " responses, load generator + probes account for " +
           std::to_string(expected);
  }
  return "";
}

std::string check_forged(std::uint64_t forged_sent, double node_bad_frames,
                         std::uint64_t forged_replies) {
  if (forged_replies != 0) {
    return std::to_string(forged_replies) + " forged senders got a reply";
  }
  if (node_bad_frames != static_cast<double>(forged_sent)) {
    return "node counted " + std::to_string(node_bad_frames) +
           " bad frames for " + std::to_string(forged_sent) + " forged";
  }
  return "";
}

std::string check_same_counts(const std::vector<SimCounts>& first,
                              const std::vector<SimCounts>& replay) {
  if (replay.empty() || replay.size() > first.size()) {
    return "replay has " + std::to_string(replay.size()) + " ops, run has " +
           std::to_string(first.size());
  }
  for (std::size_t i = 0; i < replay.size(); ++i) {
    if (!(first[i] == replay[i])) {
      return "same seed diverged at op " + std::to_string(i) + ": events " +
             std::to_string(first[i].events) + " vs " +
             std::to_string(replay[i].events) + ", packets " +
             std::to_string(first[i].packets) + " vs " +
             std::to_string(replay[i].packets) + ", adoptions " +
             std::to_string(first[i].adoptions) + " vs " +
             std::to_string(replay[i].adoptions);
    }
  }
  return "";
}

std::string check_fcalib(const std::vector<double>& fcalib_mhz,
                         double nominal_mhz, double tolerance_ppm) {
  if (fcalib_mhz.empty()) return "no calibrated frequencies";
  for (std::size_t i = 0; i < fcalib_mhz.size(); ++i) {
    const double ppm = (fcalib_mhz[i] - nominal_mhz) / nominal_mhz * 1e6;
    if (!(std::abs(ppm) <= tolerance_ppm)) {
      return "F_calib " + std::to_string(fcalib_mhz[i]) + " MHz (#" +
             std::to_string(i) + ") is " + std::to_string(ppm) +
             " ppm from " + std::to_string(nominal_mhz) + " MHz";
    }
  }
  return "";
}

std::string check_availability(const std::vector<double>& availability,
                               double minimum) {
  if (availability.empty()) return "no availability figures";
  for (std::size_t i = 0; i < availability.size(); ++i) {
    if (!(availability[i] >= minimum)) {
      return "node " + std::to_string(i) + " availability " +
             std::to_string(availability[i]) + " below " +
             std::to_string(minimum);
    }
  }
  return "";
}

double fminus_expected_mhz(double nominal_mhz, double added_delay_s,
                           double sleep_s) {
  return nominal_mhz * (1.0 - added_delay_s / sleep_s);
}

std::string check_campaign_runs(
    const std::vector<triad::campaign::RunResult>& runs,
    const std::vector<triad::campaign::RunSpec>& specs, double expected_mhz,
    double tolerance_ppm) {
  if (runs.size() != specs.size() || runs.empty()) {
    return "campaign returned " + std::to_string(runs.size()) +
           " results for " + std::to_string(specs.size()) + " runs";
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& run = runs[i];
    const auto& spec = specs[i];
    const std::string where = "run " + std::to_string(i) + " (seed " +
                              std::to_string(spec.seed) + ", " + spec.attack +
                              ")";
    if (run.failed) return where + " failed: " + run.error;
    if (spec.attack == "fminus") {
      const std::string error = check_fcalib({run.victim_freq_mhz},
                                             expected_mhz, tolerance_ppm);
      if (!error.empty()) return where + " victim " + error;
    } else if (run.detector_false_alarms != 0 || run.detector_alarms != 0) {
      return where + " raised " + std::to_string(run.detector_alarms) +
             " detector alarms without an attack";
    }
  }
  return "";
}

std::string check_identical(const std::string& a, const std::string& b,
                            const std::string& what) {
  if (a.empty()) return what + ": empty";
  if (a != b) return what + ": outputs differ";
  return "";
}

}  // namespace pb
