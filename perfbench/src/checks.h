// Correctness checks of the benchmark's workloads. Each compares the
// program's output against an independent computation or a property the
// protocol must have — never against stored output — and returns "" when
// it holds, else a message. selftest.cpp shows each one failing on a
// corrupted input.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/runner.h"

namespace pb {

// --- serve workloads ------------------------------------------------------

/// What the load generator learned from one datagram answering a request.
struct ResponseView {
  bool authenticated = false;  // SecureChannel::open succeeded
  std::uint32_t sender = 0;    // authenticated sender id
  bool is_time_response = false;
  std::uint64_t request_id = 0;
  bool tainted = false;
};
std::string check_response(const ResponseView& got, std::uint32_t node_id,
                           std::uint64_t expected_request_id);

/// One served timestamp with the benchmark's own monotonic clock around
/// it (send and authenticated-receipt instants).
struct ServedTimestamp {
  std::int64_t served_ns = 0;
  std::int64_t error_bound_ns = 0;
  std::uint64_t send_ns = 0;
  std::uint64_t recv_ns = 0;
};

/// Between two answers of one node, served time and the local monotonic
/// clock must advance by the same amount, within both error bounds plus
/// both round-trip times.
std::string check_advance(const ServedTimestamp& a, const ServedTimestamp& b);

/// Streams a node's answers in receipt order: each must be strictly
/// later than the previous one, and every pair of answers, not only
/// adjacent ones, must advance consistently (above). With d = served_ns -
/// recv_ns and s = error_bound_ns + round trip, a pair holds exactly when
/// the intervals [d - s, d + s] of its two answers meet; intervals on a
/// line meet pairwise exactly when they all share a point, so keeping the
/// answer with the largest lower end and the one with the smallest upper
/// end checks every pair at O(1) per answer.
class ServeClockChecker {
 public:
  std::string add(const ServedTimestamp& t);
  /// (served advance - local advance) / local advance, first to last
  /// answer, in ppm.
  [[nodiscard]] double drift_ppm() const;

 private:
  bool have_ = false;
  ServedTimestamp first_;
  ServedTimestamp prev_;
  ServedTimestamp low_;   // largest d - s so far
  ServedTimestamp high_;  // smallest d + s so far
};

/// Every sealed answer the node sent went to the load generator or to a
/// readiness probe: responses_total == loadgen answers + probe requests.
std::string check_served_count(std::uint64_t loadgen_answered,
                               std::uint64_t probe_requests,
                               double node_responses_total);

/// Every forged frame was rejected as a bad frame and none was answered.
std::string check_forged(std::uint64_t forged_sent, double node_bad_frames,
                         std::uint64_t forged_replies);

// --- sim_longrun -----------------------------------------------------------

/// Cumulative simulated work after each op.
struct SimCounts {
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t adoptions = 0;
  friend bool operator==(const SimCounts&, const SimCounts&) = default;
};

/// The replay (same seed, fewer ops) must match the first run op by op.
std::string check_same_counts(const std::vector<SimCounts>& first,
                              const std::vector<SimCounts>& replay);

/// Every node's calibrated frequency within `tolerance_ppm` of nominal.
std::string check_fcalib(const std::vector<double>& fcalib_mhz,
                         double nominal_mhz, double tolerance_ppm);

/// Every node's availability at least `minimum` (share in [0, 1]).
std::string check_availability(const std::vector<double>& availability,
                               double minimum);

// --- campaign_fminus --------------------------------------------------------

/// F− analytic victim frequency: F · (1 − added_delay / calib sleep).
double fminus_expected_mhz(double nominal_mhz, double added_delay_s,
                           double sleep_s);

/// Every run succeeded; every fminus run's victim F_calib lies within
/// `tolerance_ppm` of `expected_mhz`; attack-free runs raised no alarm.
std::string check_campaign_runs(
    const std::vector<triad::campaign::RunResult>& runs,
    const std::vector<triad::campaign::RunSpec>& specs, double expected_mhz,
    double tolerance_ppm);

/// Byte equality of two aggregate reports.
std::string check_identical(const std::string& a, const std::string& b,
                            const std::string& what);

}  // namespace pb
