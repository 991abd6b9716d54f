// Per-layer probes that live beside the workload sharing their code.
#pragma once

#include "support.h"

namespace pb {

/// sim.*, net.packets_per_op, triad.*_per_op and exp.scenario_build_ms
/// from a short sim_longrun (fixed op count, same seed).
void probe_sim_layers(const Options& options, Result& result);

/// campaign.* and obs.* from one campaign_fminus round at two jobs.
void probe_campaign_layers(const Options& options, Result& result);

}  // namespace pb
