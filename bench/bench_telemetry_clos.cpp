// Telemetry smoke bench (CI gate): one Clos fleet scenario, run twice —
// telemetry off, then fully on (flight recorder + metric sampler) — to
// enforce the observer guarantees end to end:
//
//   1. the telemetry-on run's workload fingerprint is bit-identical to the
//      telemetry-off run (observation never perturbs the simulation);
//   2. the recorded trace reconstructs at least one connection's complete
//      BE→FE→peer forwarding detour;
//   3. the JSON time-series and the binary trace dump are written out as
//      build artifacts (paths settable via --json / --trace).
//
// Unlike the figure benches this one is a hard gate: any failed check makes
// it exit nonzero so CI fails the build.
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/testbed.h"
#include "src/telemetry/trace_query.h"
#include "src/workload/fleet_model.h"

using namespace nezha;

namespace {

constexpr std::size_t kVSwitches = 32;
constexpr std::size_t kPairs = 6;
constexpr std::uint64_t kSeed = 20260807;

struct Run {
  std::uint64_t fingerprint = 0;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::size_t offloads = 0;
  std::vector<telemetry::TraceEvent> events;
  std::size_t samples = 0;
};

Run run_scenario(bool with_telemetry, const std::string& json_path,
                 const std::string& trace_path) {
  core::TestbedConfig cfg =
      core::make_clos_testbed_config(kVSwitches, /*hosts_per_leaf=*/8,
                                     /*num_spines=*/2);
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  if (with_telemetry) {
    cfg.telemetry.enabled = true;
    cfg.telemetry.events_per_node = 1 << 12;
    cfg.telemetry.sample_period = common::milliseconds(250);
  }
  core::Testbed bed(cfg);

  workload::FleetScenarioConfig sc;
  sc.num_pairs = kPairs;
  sc.base_attempts_per_sec = 200.0;
  sc.seed = kSeed;
  workload::FleetScenario scenario(bed, sc);
  scenario.deploy();

  Run r;
  r.offloads = scenario.offload_all();
  bed.run_for(common::seconds(4));
  scenario.start_traffic();
  bed.run_for(common::seconds(3));
  scenario.stop_traffic();
  bed.run_for(common::seconds(1));

  for (const auto& wl : scenario.workloads()) {
    r.attempted += wl->attempted();
    r.completed += wl->completed();
  }
  r.fingerprint = scenario.fingerprint();

  if (bed.telemetry() != nullptr) {
    r.events = bed.telemetry()->recorder().merged();
    r.samples = bed.telemetry()->metrics().samples_taken();
    std::ofstream js(json_path);
    bed.telemetry()->write_json(js);
    std::ofstream tr(trace_path, std::ios::binary);
    bed.telemetry()->dump_trace(tr);
  }
  return r;
}

const char* flag_value(int argc, char** argv, const char* flag,
                       const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      flag_value(argc, argv, "--json", "telemetry_clos.json");
  const std::string trace_path =
      flag_value(argc, argv, "--trace", "telemetry_clos.trace");

  benchutil::banner(
      "Telemetry smoke — Clos fleet with the full observer plane on",
      "tracing must not perturb the simulation and must reconstruct the "
      "BE->FE->peer detour");

  const Run off = run_scenario(false, json_path, trace_path);
  const Run on = run_scenario(true, json_path, trace_path);

  benchutil::Table t({"run", "fingerprint", "attempted", "completed",
                      "offloads", "trace events", "samples"});
  const auto row = [&t](const char* name, const Run& r) {
    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(r.fingerprint));
    t.add_row({name, fp, std::to_string(r.attempted),
               std::to_string(r.completed), std::to_string(r.offloads),
               std::to_string(r.events.size()), std::to_string(r.samples)});
  };
  row("telemetry off", off);
  row("telemetry on", on);
  t.print();

  // Gate 1: observation changes nothing.
  const bool identical = on.fingerprint == off.fingerprint &&
                         on.attempted == off.attempted &&
                         on.completed == off.completed;
  benchutil::verdict(identical,
                     "telemetry-on run is bit-identical to telemetry-off");

  // Gate 2: the trace reconstructs a full BE->FE->peer path.
  std::size_t redirects = 0;
  bool complete = false;
  for (const auto& e : on.events) {
    if (e.kind != telemetry::EventKind::kBeFeRedirect || e.flow == 0) {
      continue;
    }
    ++redirects;
    if (!complete &&
        telemetry::check_be_fe_peer_path(on.events, e.flow).complete()) {
      complete = true;
    }
  }
  benchutil::verdict(complete, "a connection's full BE->FE->peer detour "
                               "reconstructed from the trace");

  // Gate 3: artifacts exist and are non-trivial.
  const bool have_data =
      !on.events.empty() && on.samples > 0 && redirects > 0;
  benchutil::verdict(have_data, "trace events, redirects and sampler rows "
                                "all recorded");
  std::printf("\n  artifacts: %s (time series), %s (%zu trace events)\n",
              json_path.c_str(), trace_path.c_str(), on.events.size());

  return benchutil::exit_code(identical && complete && have_data);
}
