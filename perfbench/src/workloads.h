// The benchmark's workloads and the per-layer probes.
#pragma once

#include "support.h"

namespace pb {

/// serve_honest / serve_forged: TA + node triad_timed daemons and a
/// closed-loop load generator of sealed PeerTimeRequests.
Result run_serve(const Options& options, bool forged);

/// sim_longrun (`observed` false) / sim_observed (true): one seeded
/// 3-node Triad-like cluster, one virtual minute per op; sim_observed
/// has the scenario's metrics registry and trace ring on.
Result run_sim(const Options& options, bool observed);

/// campaign_fminus: rounds of a seeds x {none, fminus} grid on
/// CampaignRunner.
Result run_campaign(const Options& options);

/// Traced runs only: measures every per-layer metric through calls into
/// each layer's public functions, and adds them to `result`.
void run_layer_probes(const Options& options, Result& result);

/// Shows every correctness check failing on a corrupted input. Returns
/// the process exit code.
int run_selftest();

}  // namespace pb
