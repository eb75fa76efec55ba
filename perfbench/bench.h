// Shared types of the repository benchmark (perfbench).
//
// A run executes one workload as a sequence of episodes. An episode builds
// a fresh core::Testbed, sets it up (timed as `setup_s`), advances it in
// fixed 1 ms simulated quanta (each quantum timed in host ms), then checks
// that the simulation produced the right outputs. Everything is measured
// from outside the library: the benchmark times its own calls into each
// module's public functions and reads public counters at the window
// boundaries. Simulated statistics are deterministic, so they serve as the
// correctness fingerprint; every performance number is host time or memory.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/testbed.h"
#include "src/net/packet.h"
#include "src/tables/acl.h"

namespace perfbench {

namespace nz = nezha;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One simulated quantum. Every workload advances in these steps.
inline constexpr nz::common::Duration kQuantum = nz::common::milliseconds(1);

/// Public counters summed over the whole bed, read at a window boundary.
struct Snapshot {
  nz::core::Testbed::NetTotals net;
  std::uint64_t spine_bytes = 0;
  std::uint64_t slow_path_lookups = 0;
  std::uint64_t fast_path_hits = 0;
  std::uint64_t vsw_drops = 0;
  std::uint64_t vm_deliveries = 0;
  std::uint64_t setup_cache_hits = 0;
  std::uint64_t setup_cache_misses = 0;
  std::uint64_t insert_failures = 0;
  std::uint64_t ctl_events = 0;
  std::uint64_t allocs = 0;
  // Sharded engine (zero on unsharded beds).
  std::uint64_t epochs = 0;
  std::uint64_t epochs_skipped = 0;
  std::uint64_t fence_ns = 0;
  std::vector<nz::sim::ShardedEngine::PhaseProfile> shards;
};

/// Reads every counter of `bed`. Call with the bed quiescent (between
/// run_for calls).
Snapshot take_snapshot(nz::core::Testbed& bed);

/// Traced-mode instrumentation of one episode. A null Trace* means the
/// episode runs untraced (the end-to-end measurement).
struct Trace {
  // Event loop (unsharded beds are driven with EventLoop::step()).
  std::uint64_t events = 0;
  std::uint64_t pending_sum = 0;  // loop.pending() summed per quantum
  // vSwitch: spans around the benchmark's own from_vm calls.
  std::uint64_t from_vm_calls = 0;
  double from_vm_s = 0;
  // Session tables, sampled at every quantum boundary.
  std::uint64_t sessions_peak = 0;
  std::uint64_t largest_table = 0;
  // Frontend flow caches to include in the sample: (switch, vnic) pairs.
  std::vector<std::pair<std::size_t, nz::tables::VnicId>> frontends;
};

/// Inputs the traced run's replays need to rebuild the workload's shapes
/// in isolation.
struct ReplayShape {
  std::vector<nz::tables::AclRule> acl;     // the slow-path ACL
  std::vector<nz::net::FiveTuple> tuples;   // the workload's tuple mix
  nz::net::Packet packet;                   // a representative VM packet
  bool carrier = false;                     // packets cross BE<->FE legs
  std::uint32_t vpc = 0;
  nz::common::Duration aging_period = 0;    // 0: aging not running
};

/// Result of one episode.
struct Episode {
  // Set-up, host seconds: total plus its three parts.
  double setup_s = 0;
  double build_s = 0;    // Testbed constructor
  double deploy_s = 0;   // vNICs, ACLs, workload deployment
  double offload_s = 0;  // offload calls plus their simulated settle
  std::vector<double> quantum_ms;  // host ms per simulated quantum
  double window_s = 0;             // sum of the quanta
  Snapshot begin, end;             // counters around the window
  double window_wall_s = 0;        // host seconds from begin to end read
  std::uint64_t window_conns = 0;  // connections completed in the window
  // Correctness.
  std::uint64_t fingerprint = 0;
  // Modelled outcome (part of the fingerprint, so never a performance
  // number): simulated connection attempts or injected packets, and those
  // not completed / not delivered. fleet_twin's FE crash loses some by
  // design.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  // Workload layer.
  std::uint64_t wl_completed = 0;
  std::uint64_t kernel_rejects = 0;
  double connect_us_p50 = 0;
  double connect_us_p99 = 0;
  int threads = 1;  // worker threads driving the shards
  ReplayShape shape;
};

/// Advances `bed` by one quantum: EventLoop::step() per event when traced
/// on an unsharded bed (counting events), Testbed::run_for otherwise.
void advance_quantum(nz::core::Testbed& bed, Trace* trace);

/// Samples session-table occupancy into `trace` (no-op when untraced).
void sample_sessions(nz::core::Testbed& bed, Trace* trace);

/// Checks network conservation and the engine's token accounting; appends
/// a message to `errors` on failure.
void check_conservation(nz::core::Testbed& bed,
                        std::vector<std::string>& errors);

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  /// Why the workload exists, and the layer it bypasses.
  const char* why;
  const char* bypasses;
  /// Fingerprint the default seed must reproduce.
  std::uint64_t pinned_fingerprint;
  /// Seed kept out of tuning, for later claims to re-check on.
  std::uint64_t held_out_seed;
  Episode (*run)(std::uint64_t seed, Trace* trace);
};

/// The workload table (scenarios.cpp).
const std::vector<Workload>& workloads();

/// Seed whose fingerprints are pinned.
inline constexpr std::uint64_t kDefaultSeed = 0;

// ------------------------------------------------------------------ replays

/// Isolated per-call costs of single layers, measured on the workload's
/// shapes (replay.cpp). The traced run multiplies them by the call counts
/// it observed; those products are estimates.
struct ReplayCosts {
  double lookup_miss_ns = 0;   // RuleTableSet::lookup, full chain
  double lookup_hit_ns = 0;    // RuleTableSet::lookup_cached, warm cache
  double find_ns = 0;          // SessionTable::find at peak size
  double insert_erase_ns = 0;  // find_or_create + erase at peak size
  double age_sweep_ms = 0;     // one age_out sweep at the largest table
  double encap_ns = 0;         // overlay (+ carrier) encap
  double decap_ns = 0;         // overlay (+ carrier) decap
  double dispatch_ns = 0;      // EventLoop schedule + fire, no-op event
};

/// Session-table replays run at `largest_table` entries (the largest single
/// table the traced window saw); the event-loop replay at `loop_pending`
/// queued events.
ReplayCosts measure_replays(const ReplayShape& shape,
                            std::size_t largest_table,
                            std::size_t loop_pending);

}  // namespace perfbench
