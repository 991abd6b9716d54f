// perfbench: the benchmark binary run by perfbench/run.py.
//
//   perfbench <workload> --seed N --seconds S --trace 0|1 --out DIR
//             --bin DIR
//   perfbench selftest
//
// Workloads: serve_honest, serve_forged, sim_longrun, sim_observed,
// campaign_fminus.
// Prints the result line (see support.h) last on stdout; exits 0 when
// the run completed and every check held, 1 otherwise.

#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

int usage() {
  std::cerr << "usage: perfbench <serve_honest|serve_forged|sim_longrun|"
               "sim_observed|campaign_fminus> --seed N --seconds S --trace 0|1 --out DIR "
               "--bin DIR\n       perfbench selftest\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options options;
  options.start_ns = pb::now_ns();  // setup_s counts from here
  if (argc < 2) return usage();
  options.workload = argv[1];
  if (options.workload == "selftest") return pb::run_selftest();
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out") {
      options.out_dir = value;
    } else if (flag == "--bin") {
      options.bin_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 0 || options.seconds <= 0) return usage();
  std::filesystem::create_directories(options.out_dir);
  if (options.trace) pb::Tracer::instance().enable(std::size_t{1} << 20);

  pb::Result result;
  if (options.workload == "serve_honest") {
    result = pb::run_serve(options, /*forged=*/false);
  } else if (options.workload == "serve_forged") {
    result = pb::run_serve(options, /*forged=*/true);
  } else if (options.workload == "sim_longrun") {
    result = pb::run_sim(options, /*observed=*/false);
  } else if (options.workload == "sim_observed") {
    result = pb::run_sim(options, /*observed=*/true);
  } else if (options.workload == "campaign_fminus") {
    result = pb::run_campaign(options);
  } else {
    return usage();
  }

  if (options.trace) {
    // A traced run reports the per-layer set, all from the probes; the
    // workload's end-to-end figures go to stderr, where they give the
    // tracing overhead against an untraced run.
    for (const pb::Metric& metric : result.metrics) {
      std::cerr << "perfbench: traced " << metric.name << " = " << metric.value
                << " " << metric.unit << "\n";
    }
    result.metrics.clear();
    const std::string base = options.out_dir + "/" + options.workload;
    pb::Tracer& tracer = pb::Tracer::instance();
    if (!tracer.write(base + ".spans")) result.check("cannot write " + base + ".spans");
    tracer.clear();
    pb::run_layer_probes(options, result);
    if (!tracer.write(base + ".probe.spans")) {
      result.check("cannot write " + base + ".probe.spans");
    }
  }
  pb::print_result(result);
  return result.errors.empty() && result.attempted > 0 ? 0 : 1;
}
