// The repository benchmark: runs one workload in this process and prints
// every metric by name with its unit; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The result's "attempted" counts simulated quanta and "failed" the quanta
// of a run that failed a check (all of them).
//
// --trace 0 repeats episodes for --seconds (at least two) and
// reports the end-to-end metrics, all host time or memory. --trace 1 runs
// an untraced, a traced and another untraced episode and reports per-layer
// metrics; all three must produce the same fingerprint. Any fingerprint,
// conservation or invariant failure prints correct=false and exits 1.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(val, "0") != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

// The CPUs this process may run on (empty if they cannot be read).
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

// Pins the calling thread, and the threads it starts later, to `cpu`.
void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

// Every episode of a run replays the same simulated work quantum by
// quantum (their fingerprints must match), and host contention only ever
// adds time. The host alternates between a fast and a slow state for
// seconds at a time, and a sub-ms quantum sits wholly in one of them, so
// its time is two-valued; the throughput and the p50 therefore read the
// floor window: each quantum's fastest time over the run's episodes. The
// p99 rests on the few heaviest quanta, whose floors spread more between
// runs, so it is the median over episodes of each episode's p99, which one
// episode spoilt by noise cannot move; so is the set-up time.
Metrics end_to_end(const std::vector<Episode>& eps) {
  std::vector<double> floor_ms = eps.front().quantum_ms;
  std::vector<double> p99, setup;
  for (const Episode& ep : eps) {
    for (std::size_t q = 0; q < floor_ms.size(); ++q) {
      floor_ms[q] = std::min(floor_ms[q], ep.quantum_ms[q]);
    }
    p99.push_back(percentile(ep.quantum_ms, 99));
    setup.push_back(ep.setup_s);
  }
  double floor_s = 0;
  for (const double ms : floor_ms) floor_s += ms * 1e-3;
  const Snapshot& begin = eps.front().begin;
  const Snapshot& end = eps.front().end;
  std::printf("  %zu episodes of %zu quanta; floor window %.3f s\n",
              eps.size(), floor_ms.size(), floor_s);
  return Metrics{
      {"sim_pkts_per_s",
       {ratio(static_cast<double>(end.net.delivered - begin.net.delivered),
              floor_s),
        "1/s"}},
      {"quantum_ms_p50", {percentile(floor_ms, 50), "ms"}},
      {"quantum_ms_p99", {percentile(p99, 50), "ms"}},
      {"setup_s", {percentile(setup, 50), "s"}},
      {"peak_rss_mb", {peak_rss_mb(), "MB"}},
  };
}

// Per-layer metrics of the traced episode `tr`, against the untraced
// episodes `before` and `after` of the same seed. Products of replayed
// per-call costs and observed call counts are labelled estimates (*.est_ms).
Metrics per_layer(const Episode& before, const Episode& tr,
                  const Episode& after, const Trace& trace,
                  std::vector<std::string>& errors) {
  const double ref_window_s = (before.window_s + after.window_s) / 2;
  const double ref_conns =
      static_cast<double>(before.window_conns + after.window_conns) / 2;
  const Snapshot& a = tr.begin;
  const Snapshot& b = tr.end;
  const auto delta = [](std::uint64_t end, std::uint64_t begin) {
    return static_cast<double>(end - begin);
  };
  const double deliveries = delta(b.net.delivered, a.net.delivered);
  const double vm = delta(b.vm_deliveries, a.vm_deliveries);
  const double sent = delta(b.net.sent, a.net.sent);
  const double slow = delta(b.slow_path_lookups, a.slow_path_lookups);
  const double fast = delta(b.fast_path_hits, a.fast_path_hits);
  const double hits = delta(b.setup_cache_hits, a.setup_cache_hits);
  const double misses = delta(b.setup_cache_misses, a.setup_cache_misses);
  const double allocs = delta(b.allocs, a.allocs);
  const double window_ms = tr.window_s * 1e3;
  const double events = static_cast<double>(trace.events);
  const std::size_t quanta = tr.quantum_ms.size();

  // Shard phases, differenced over the window. Each worker's barrier wait
  // is recorded on every shard it owns (shard s is owned by worker
  // s % threads), so it is read once per worker, from shard w.
  double advance = 0, snapshot = 0, fast_forward = 0, barrier = 0;
  double busy_max = 0;
  const std::size_t shards = b.shards.size();
  for (std::size_t s = 0; s < shards; ++s) {
    const double adv = delta(b.shards[s].advance_ns, a.shards[s].advance_ns);
    advance += adv;
    busy_max = std::max(busy_max, adv);
    snapshot += delta(b.shards[s].snapshot_ns, a.shards[s].snapshot_ns);
    fast_forward +=
        delta(b.shards[s].fast_forward_ns, a.shards[s].fast_forward_ns);
  }
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(tr.threads), shards);
  for (std::size_t w = 0; w < workers; ++w) {
    const double wait =
        delta(b.shards[w].barrier_wait_ns, a.shards[w].barrier_wait_ns);
    if (wait > tr.window_wall_s * 1e9) {
      errors.push_back("worker " + std::to_string(w) + " barrier wait " +
                       std::to_string(wait * 1e-6) +
                       " ms exceeds its window of " +
                       std::to_string(tr.window_wall_s * 1e3) + " ms");
    }
    barrier += wait;
  }
  const double fence = delta(b.fence_ns, a.fence_ns);
  const double epochs = delta(b.epochs, a.epochs);
  const double skipped = delta(b.epochs_skipped, a.epochs_skipped);
  const double sync_ms = (snapshot + barrier + fast_forward + fence) * 1e-6;

  const ReplayCosts cost = measure_replays(
      tr.shape, trace.largest_table,
      quanta > 0 ? trace.pending_sum / quanta : 0);
  const double lookup_ns =
      hits + misses > 0
          ? (misses * cost.lookup_miss_ns + hits * cost.lookup_hit_ns) /
                (hits + misses)
          : cost.lookup_miss_ns;
  const double tables_ms =
      (misses * cost.lookup_miss_ns + hits * cost.lookup_hit_ns) * 1e-6;
  // Sessions: one find per pipeline pass, one insert (later erased) per
  // slow-path lookup. Aging sweeps evict those same sessions, so their
  // replay is reported beside the estimate, not added to it.
  const double flow_ms =
      ((fast + slow) * cost.find_ns + slow * cost.insert_erase_ns) * 1e-6;
  const double codec_ms =
      (sent * cost.encap_ns + deliveries * cost.decap_ns) * 1e-6;
  const double loop_ms = events * cost.dispatch_ns * 1e-6;
  const double attributed = loop_ms + tables_ms + flow_ms + codec_ms + sync_ms;

  return Metrics{
      {"core.build_s", {tr.build_s, "s"}},
      {"core.deploy_s", {tr.deploy_s, "s"}},
      {"core.offload_s", {tr.offload_s, "s"}},
      {"core.ctl_events", {static_cast<double>(b.ctl_events), "count"}},
      {"loop.events", {events, "count"}},
      {"loop.events_per_pkt", {ratio(events, deliveries), "ratio"}},
      {"loop.ns_per_event", {ratio(window_ms * 1e6, events), "ns"}},
      {"loop.dispatch_ns", {cost.dispatch_ns, "ns"}},
      {"loop.est_ms", {loop_ms, "ms"}},
      {"net.deliveries", {deliveries, "count"}},
      {"net.hops_per_pkt", {ratio(deliveries, vm), "ratio"}},
      {"net.dropped", {delta(b.net.dropped, a.net.dropped), "count"}},
      {"net.spine_bytes", {delta(b.spine_bytes, a.spine_bytes), "bytes"}},
      {"shard.epochs", {epochs, "count"}},
      {"shard.epochs_skipped", {skipped, "count"}},
      {"shard.skip_ratio", {ratio(skipped, epochs + skipped), "ratio"}},
      {"shard.advance_ms", {advance * 1e-6, "ms"}},
      {"shard.snapshot_ms", {snapshot * 1e-6, "ms"}},
      {"shard.barrier_wait_ms", {barrier * 1e-6, "ms"}},
      {"shard.fast_forward_ms", {fast_forward * 1e-6, "ms"}},
      {"shard.fence_ms", {fence * 1e-6, "ms"}},
      {"shard.sync_ms", {sync_ms, "ms"}},
      {"shard.exported_tokens",
       {delta(b.net.exported, a.net.exported), "count"}},
      {"shard.busy_balance",
       {ratio(advance, busy_max * static_cast<double>(shards)), "ratio"}},
      {"vsw.from_vm_ns",
       {ratio(trace.from_vm_s * 1e9, static_cast<double>(trace.from_vm_calls)),
        "ns"}},
      {"vsw.slow_path_lookups", {slow, "count"}},
      {"vsw.fast_path_hits", {fast, "count"}},
      {"vsw.fast_path_ratio", {ratio(fast, fast + slow), "ratio"}},
      {"vsw.drops", {delta(b.vsw_drops, a.vsw_drops), "count"}},
      {"tables.setup_cache_hit_ratio", {ratio(hits, hits + misses), "ratio"}},
      {"tables.lookup_ns", {lookup_ns, "ns"}},
      {"tables.est_ms", {tables_ms, "ms"}},
      {"flow.sessions_peak",
       {static_cast<double>(trace.sessions_peak), "count"}},
      {"flow.insert_failures",
       {static_cast<double>(b.insert_failures), "count"}},
      {"flow.find_ns", {cost.find_ns, "ns"}},
      {"flow.insert_erase_ns", {cost.insert_erase_ns, "ns"}},
      {"flow.age_sweep_ms", {cost.age_sweep_ms, "ms"}},
      {"flow.est_ms", {flow_ms, "ms"}},
      {"codec.encap_ns", {cost.encap_ns, "ns"}},
      {"codec.decap_ns", {cost.decap_ns, "ns"}},
      {"codec.est_ms", {codec_ms, "ms"}},
      {"wl.attempted", {static_cast<double>(tr.attempted), "count"}},
      {"wl.completed", {static_cast<double>(tr.wl_completed), "count"}},
      {"wl.kernel_rejects", {static_cast<double>(tr.kernel_rejects), "count"}},
      {"wl.connect_us_p50", {tr.connect_us_p50, "us"}},
      {"wl.connect_us_p99", {tr.connect_us_p99, "us"}},
      {"wl.failed_ratio",
       {ratio(static_cast<double>(tr.failed),
              static_cast<double>(tr.attempted)),
        "ratio"}},
      {"wl.conns_per_s", {ratio(ref_conns, ref_window_s), "1/s"}},
      {"mem.allocs_per_pkt", {ratio(allocs, deliveries), "ratio"}},
      {"mem.allocs_per_conn",
       {ratio(allocs, static_cast<double>(tr.window_conns)), "ratio"}},
      {"layers.attributed_ms", {attributed, "ms"}},
      {"layers.unattributed_ms", {window_ms - attributed, "ms"}},
      {"trace.overhead_pct",
       {ratio(tr.window_s - ref_window_s, ref_window_s) * 100.0, "%"}},
  };
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  for (const auto& [name, m] : metrics) {
    std::printf("  %-30s %16.6f %s\n", name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", sep,
                name.c_str(), m.value, m.unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  const Workload* wl = nullptr;
  for (const Workload& w : workloads()) {
    if (args.workload == w.name) wl = &w;
  }
  if (wl == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::printf("perfbench %s seed=%llu trace=%d (held-out seed %llu)\n"
              "  why: %s\n  bypasses: %s\n",
              wl->name, static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0,
              static_cast<unsigned long long>(wl->held_out_seed), wl->why,
              wl->bypasses);
  std::fflush(stdout);

  std::vector<Episode> eps;
  Trace trace;
  const auto start = Clock::now();
  if (args.trace) {
    // Untraced, traced, untraced: the overhead compares the traced window
    // with the mean of the two around it.
    eps.push_back(wl->run(args.seed, nullptr));
    eps.push_back(wl->run(args.seed, &trace));
    eps.push_back(wl->run(args.seed, nullptr));
  } else {
    // Start another episode while it is expected to end within --seconds.
    // Each episode runs pinned to the next CPU the process may use, so the
    // floor window takes each quantum's best time over the CPUs as well as
    // over time: on a shared host the neighbours of one CPU can stay busy
    // for a whole run.
    const std::vector<int> cpus = allowed_cpus();
    do {
      if (!cpus.empty()) pin_to(cpus[eps.size() % cpus.size()]);
      eps.push_back(wl->run(args.seed, nullptr));
    } while (eps.size() < 2 ||
             seconds_since(start) * static_cast<double>(eps.size() + 1) /
                     static_cast<double>(eps.size()) <=
                 args.seconds);
  }

  // Correctness: every episode clean, all fingerprints equal, and the
  // pinned fingerprint on the default seed.
  std::vector<std::string> errors;
  std::uint64_t quanta = 0;
  for (std::size_t i = 0; i < eps.size(); ++i) {
    const Episode& ep = eps[i];
    std::printf("  episode %zu: setup %.3f s, window %.3f s, fingerprint "
                "%016llx (%llu), attempted %llu, failed %llu\n",
                i, ep.setup_s, ep.window_s,
                static_cast<unsigned long long>(ep.fingerprint),
                static_cast<unsigned long long>(ep.fingerprint),
                static_cast<unsigned long long>(ep.attempted),
                static_cast<unsigned long long>(ep.failed));
    errors.insert(errors.end(), ep.errors.begin(), ep.errors.end());
    if (ep.fingerprint != eps[0].fingerprint) {
      errors.push_back("episode " + std::to_string(i) +
                       " fingerprint differs from episode 0");
    }
    quanta += ep.quantum_ms.size();
  }
  if (args.seed == kDefaultSeed &&
      eps[0].fingerprint != wl->pinned_fingerprint) {
    errors.push_back("fingerprint does not match the pinned value");
  }
  const Metrics metrics =
      args.trace ? per_layer(eps[0], eps[1], eps[2], trace, errors)
                 : end_to_end(eps);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  }
  // The benchmark's operations are simulated quanta; a run that fails a
  // check fails all of them.
  const bool correct = errors.empty();
  quanta = std::max<std::uint64_t>(quanta, 1);
  print_result(correct, quanta, correct ? 0 : quanta, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  return perfbench::run(args);
}
