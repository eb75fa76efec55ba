// The benchmark's workloads and the window helpers they share.
#include <algorithm>
#include <memory>
#include <unordered_set>

#include "bench.h"
#include "src/common/rng.h"
#include "src/core/invariants.h"
#include "src/workload/cps_workload.h"
#include "src/workload/fleet_model.h"
#include "support/alloc_hook.h"

namespace perfbench {
namespace {

using nz::common::microseconds;
using nz::common::milliseconds;
using nz::common::seconds;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Production burst configuration of the end-to-end scenario (DESIGN.md §11).
void use_burst_windows(nz::core::TestbedConfig& cfg) {
  cfg.network.rx_burst_window = microseconds(192);
  cfg.vswitch.cpu_burst_window = microseconds(64);
  cfg.vswitch.aging_period = milliseconds(100);
}

nz::net::FiveTuple random_tuple(nz::common::Rng& rng) {
  return nz::net::FiveTuple{
      nz::net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
      nz::net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
      static_cast<std::uint16_t>(rng.uniform_u64(0, 65535)),
      static_cast<std::uint16_t>(rng.uniform_u64(0, 65535)),
      rng.chance(0.5) ? nz::net::IpProto::kTcp : nz::net::IpProto::kUdp};
}

// A mixed tenant ACL rule: prefix scopes, port ranges, a spread of
// protocols and directions (the generator of bench_engine_hotpath).
nz::tables::AclRule random_rule(nz::common::Rng& rng) {
  nz::tables::AclRule r;
  r.priority = static_cast<std::uint32_t>(rng.uniform_u64(0, 1000));
  r.src = nz::tables::Prefix{
      nz::net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
      static_cast<std::uint8_t>(rng.uniform_u64(8, 24))};
  r.dst = nz::tables::Prefix{
      nz::net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
      static_cast<std::uint8_t>(rng.uniform_u64(8, 24))};
  const auto lo = static_cast<std::uint16_t>(rng.uniform_u64(0, 60000));
  r.dst_ports = nz::tables::PortRange{
      lo, static_cast<std::uint16_t>(lo + rng.uniform_u64(0, 4000))};
  const std::uint64_t proto = rng.uniform_u64(0, 3);
  if (proto == 0) r.proto = nz::net::IpProto::kTcp;
  if (proto == 1) r.proto = nz::net::IpProto::kUdp;
  if (proto == 2) r.proto = nz::net::IpProto::kIcmp;
  const std::uint64_t dir = rng.uniform_u64(0, 2);
  if (dir == 0) r.direction = nz::flow::Direction::kTx;
  if (dir == 1) r.direction = nz::flow::Direction::kRx;
  r.verdict = rng.chance(0.5) ? nz::flow::Verdict::kDrop
                              : nz::flow::Verdict::kAccept;
  return r;
}

// Runs `quanta` timed quanta; `inject(q)` runs at the start of quantum q
// and is part of its time.
template <typename Inject>
void run_window(nz::core::Testbed& bed, int quanta, Trace* trace,
                Episode& ep, Inject&& inject) {
  ep.quantum_ms.reserve(static_cast<std::size_t>(quanta));
  ep.begin = take_snapshot(bed);
  const auto w0 = Clock::now();
  for (int q = 0; q < quanta; ++q) {
    const auto t0 = Clock::now();
    inject(q);
    advance_quantum(bed, trace);
    ep.quantum_ms.push_back(seconds_since(t0) * 1e3);
    sample_sessions(bed, trace);
  }
  ep.window_wall_s = seconds_since(w0);
  ep.end = take_snapshot(bed);
  for (const double ms : ep.quantum_ms) ep.window_s += ms * 1e-3;
}

void no_injection(int) {}

void check_invariants(nz::core::InvariantChecker& checker,
                      std::vector<std::string>& errors) {
  checker.check();
  if (!checker.ok()) {
    errors.push_back("invariant violations: " + checker.report());
  }
}

// ------------------------------------------------------------- crr_setup

// Connection setup at capacity: two closed-loop TCP_CRR clients against a
// server vNIC with a 1000-rule production ACL, no offload (§6.2.1).
Episode run_crr_setup(std::uint64_t seed, Trace* trace) {
  Episode ep;
  const auto t0 = Clock::now();
  nz::core::TestbedConfig cfg;
  cfg.num_vswitches = 8;
  cfg.vswitch.cost = nz::tables::CostModel::production();
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  use_burst_windows(cfg);
  nz::core::Testbed bed(cfg);
  ep.build_s = seconds_since(t0);

  const auto t1 = Clock::now();
  constexpr std::uint32_t kVpc = 7;
  constexpr nz::tables::VnicId kServer = 100;
  nz::vswitch::VnicConfig server;
  server.id = kServer;
  server.addr = nz::tables::OverlayAddr{kVpc, nz::net::Ipv4Addr(10, 0, 0, 100)};
  bed.add_vnic(0, server);
  nz::common::Rng rng(0xe2e + seed);
  auto& acl = bed.vswitch(0).vnic(kServer)->rules()->acl();
  for (int i = 0; i < 1000; ++i) {
    nz::tables::AclRule r = random_rule(rng);
    r.priority += 10;  // priority 0 stays free
    r.verdict = nz::flow::Verdict::kDrop;
    // Scoped to addresses the workload never uses: full chain cost, no
    // dropped traffic.
    r.src.addr = nz::net::Ipv4Addr(172, 16, static_cast<std::uint8_t>(i % 200),
                                   1);
    r.src.length = 30;
    acl.add_rule(r);
    ep.shape.acl.push_back(r);
  }
  bed.vswitch(0).vnic(kServer)->rules()->commit_update();

  std::vector<std::unique_ptr<nz::workload::CpsWorkload>> clients;
  for (int c = 0; c < 2; ++c) {
    nz::vswitch::VnicConfig client;
    client.id = static_cast<nz::tables::VnicId>(c + 1);
    client.addr = nz::tables::OverlayAddr{
        kVpc, nz::net::Ipv4Addr(10, 0, 1, static_cast<std::uint8_t>(c + 1))};
    const std::size_t client_switch = 1 + static_cast<std::size_t>(c);
    bed.add_vnic(client_switch, client);
    nz::workload::CpsWorkloadConfig w;
    w.concurrency = 128;
    w.seed = 300 + 2 * seed + static_cast<std::uint64_t>(c);
    w.timer_window = microseconds(64);
    clients.push_back(std::make_unique<nz::workload::CpsWorkload>(
        bed, client_switch, client.id, 0, kServer, w));
  }
  for (std::size_t i = 0; i < bed.size(); ++i) bed.vswitch(i).start_aging();
  for (auto& c : clients) c->start();
  ep.deploy_s = seconds_since(t1);
  // Warm-up second: session slabs, probe indexes and timer rings reach
  // their steady sizes before the window opens.
  bed.run_for(seconds(1));
  ep.setup_s = seconds_since(t0);

  ep.shape.vpc = kVpc;
  ep.shape.aging_period = cfg.vswitch.aging_period;
  for (int i = 0; i < 4096; ++i) {
    ep.shape.tuples.push_back(nz::net::FiveTuple{
        nz::net::Ipv4Addr(10, 0, 1, static_cast<std::uint8_t>(1 + i % 2)),
        nz::net::Ipv4Addr(10, 0, 0, 100),
        static_cast<std::uint16_t>(rng.uniform_u64(1024, 65535)),
        static_cast<std::uint16_t>(2000 + rng.uniform_u64(0, 15)),
        nz::net::IpProto::kTcp});
  }
  ep.shape.packet = nz::net::make_tcp_packet(
      ep.shape.tuples[0], nz::net::TcpFlags{.syn = true}, 0, kVpc);

  std::uint64_t completed_before = 0;
  for (auto& c : clients) completed_before += c->completed();
  run_window(bed, 3000, trace, ep, no_injection);  // to 4 simulated seconds

  nz::core::InvariantChecker checker(
      bed, nz::core::InvariantCheckerConfig{.seed = seed});
  check_invariants(checker, ep.errors);
  check_conservation(bed, ep.errors);
  std::uint64_t completed = 0;
  nz::common::Percentiles latency =
      nz::common::Percentiles::bounded(0.0, 20000.0, 2000);
  for (auto& c : clients) {
    completed += c->completed();
    ep.kernel_rejects +=
        c->client_kernel_rejects() + c->server_kernel_rejects();
    latency.merge(c->connect_latency_us());
  }
  ep.window_conns = completed - completed_before;
  // Fingerprint: delivered packets and completed connections after 4 s,
  // as the decimal digits <packets><connections, 7 digits>.
  ep.fingerprint = ep.end.net.delivered * 10000000 + completed;
  ep.connect_us_p50 = latency.percentile(50);
  ep.connect_us_p99 = latency.percentile(99);

  // Drain: no new connections; every attempt in flight must complete.
  for (auto& c : clients) c->stop();
  bed.run_for(milliseconds(200));
  check_conservation(bed, ep.errors);
  for (auto& c : clients) {
    ep.attempted += c->attempted();
    ep.wl_completed += c->completed();
  }
  ep.failed = ep.attempted - ep.wl_completed;
  return ep;
}

// -------------------------------------------------------- offload_steady

// Established flows carried through remote FEs (§3.2): one server vNIC
// offloaded to a 4-FE pool on a small Clos fabric, open-loop ACK-only
// traffic in both directions over pre-established flows.
constexpr std::size_t kSteadyFlows = 65536;
constexpr std::size_t kSteadyClients = 4;
constexpr int kSteadyPerQuantum = 256;  // per direction
constexpr int kSteadyQuanta = 2000;

Episode run_offload_steady(std::uint64_t seed, Trace* trace) {
  Episode ep;
  const auto t0 = Clock::now();
  nz::core::TestbedConfig cfg = nz::core::make_clos_testbed_config(32);
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  // Gateway refreshes are control-plane work; keep them out of the window.
  cfg.vswitch.learning_interval = seconds(100000);
  use_burst_windows(cfg);
  nz::core::Testbed bed(cfg);
  ep.build_s = seconds_since(t0);

  const auto t1 = Clock::now();
  constexpr std::uint32_t kVpc = 3;
  constexpr nz::tables::VnicId kServer = 100;
  const nz::net::Ipv4Addr server_ip(10, 0, 0, 100);
  nz::vswitch::VnicConfig server;
  server.id = kServer;
  server.addr = nz::tables::OverlayAddr{kVpc, server_ip};
  bed.add_vnic(0, server);
  // Clients on four other leaves, so client->FE and FE->BE legs cross
  // spines.
  const std::size_t client_switch[kSteadyClients] = {9, 14, 19, 25};
  for (std::size_t c = 0; c < kSteadyClients; ++c) {
    nz::vswitch::VnicConfig client;
    client.id = static_cast<nz::tables::VnicId>(c + 1);
    client.addr = nz::tables::OverlayAddr{
        kVpc, nz::net::Ipv4Addr(10, 0, 1, static_cast<std::uint8_t>(c + 1))};
    bed.add_vnic(client_switch[c], client);
  }
  // Flows: distinct (client, src port, dst port) tuples from the seed,
  // visited in a seeded order.
  nz::common::Rng rng(0x57ead1 + seed);
  std::vector<nz::net::FiveTuple> flows;
  std::vector<std::size_t> flow_client;
  std::unordered_set<std::uint64_t> seen;
  const std::uint16_t dst_ports[] = {80, 443, 8080, 8443};
  while (flows.size() < kSteadyFlows) {
    const std::size_t c = flows.size() % kSteadyClients;
    const auto sport = static_cast<std::uint16_t>(rng.uniform_u64(1024, 65535));
    const std::uint16_t dport = dst_ports[rng.uniform_u64(0, 3)];
    if (!seen.insert(std::uint64_t{c} << 32 | std::uint64_t{sport} << 16 |
                     dport)
             .second) {
      continue;
    }
    flows.push_back(nz::net::FiveTuple{
        nz::net::Ipv4Addr(10, 0, 1, static_cast<std::uint8_t>(c + 1)),
        server_ip, sport, dport, nz::net::IpProto::kTcp});
    flow_client.push_back(c);
  }
  std::vector<std::uint32_t> order(kSteadyFlows);
  for (std::size_t i = 0; i < kSteadyFlows; ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = kSteadyFlows - 1; i > 0; --i) {
    std::swap(order[i], order[rng.uniform_u64(0, i)]);
  }
  ep.deploy_s = seconds_since(t1);

  const auto t2 = Clock::now();
  if (!bed.controller().trigger_offload(kServer).ok()) {
    ep.errors.push_back("offload of the server vNIC was refused");
    return ep;
  }
  bed.run_for(seconds(4));  // the offload workflow settles
  ep.offload_s = seconds_since(t2);

  std::uint64_t injected = 0;
  const auto to_server = [&](std::size_t f) {
    bed.vswitch(client_switch[flow_client[f]])
        .from_vm(static_cast<nz::tables::VnicId>(flow_client[f] + 1),
                 nz::net::make_tcp_packet(
                     flows[f], nz::net::TcpFlags{.ack = true}, 100, kVpc));
    ++injected;
  };
  const auto to_client = [&](std::size_t f) {
    bed.vswitch(0).from_vm(
        kServer, nz::net::make_tcp_packet(flows[f].reversed(),
                                          nz::net::TcpFlags{.ack = true}, 100,
                                          kVpc));
    ++injected;
  };
  // Pre-establish every flow in both directions, in batches the fabric and
  // CPUs carry without a drop.
  const auto t3 = Clock::now();
  constexpr std::size_t kBatch = 2048;
  for (std::size_t b = 0; b < kSteadyFlows; b += kBatch) {
    for (std::size_t f = b; f < b + kBatch; ++f) to_server(order[f]);
    bed.run_for(kQuantum);
    for (std::size_t f = b; f < b + kBatch; ++f) to_client(order[f]);
    bed.run_for(kQuantum);
  }
  bed.run_for(milliseconds(10));
  ep.deploy_s += seconds_since(t3);
  ep.setup_s = seconds_since(t0);

  ep.shape.vpc = kVpc;
  ep.shape.carrier = true;
  ep.shape.tuples.assign(flows.begin(), flows.begin() + 4096);
  ep.shape.packet = nz::net::make_tcp_packet(
      flows[0], nz::net::TcpFlags{.ack = true}, 100, kVpc);
  if (trace != nullptr) {
    for (std::size_t i = 0; i < bed.size(); ++i) {
      if (bed.vswitch(i).frontend(kServer) != nullptr) {
        trace->frontends.emplace_back(i, kServer);
      }
    }
  }

  const std::uint64_t setup_injected = injected;
  // Open loop: a fixed schedule per quantum, each direction walking the
  // seeded flow order (the reverse direction half a cycle behind).
  std::size_t cursor = 0;
  run_window(bed, kSteadyQuanta, trace, ep, [&](int) {
    for (int i = 0; i < kSteadyPerQuantum; ++i) {
      const std::size_t f = order[(cursor + static_cast<std::size_t>(i)) %
                                  kSteadyFlows];
      const std::size_t g =
          order[(cursor + static_cast<std::size_t>(i) + kSteadyFlows / 2) %
                kSteadyFlows];
      if (trace != nullptr) {
        const auto s0 = Clock::now();
        to_server(f);
        to_client(g);
        trace->from_vm_s += seconds_since(s0);
        trace->from_vm_calls += 2;
      } else {
        to_server(f);
        to_client(g);
      }
    }
    cursor += kSteadyPerQuantum;
  });
  bed.run_for(milliseconds(10));  // drain

  nz::core::InvariantChecker checker(
      bed, nz::core::InvariantCheckerConfig{.seed = seed});
  check_invariants(checker, ep.errors);
  check_conservation(bed, ep.errors);
  const Snapshot done = take_snapshot(bed);
  ep.attempted = injected - setup_injected;
  ep.wl_completed = done.vm_deliveries - ep.begin.vm_deliveries;
  ep.failed = ep.attempted > ep.wl_completed ? ep.attempted - ep.wl_completed
                                             : 0;
  if (done.net.dropped != 0 || done.vsw_drops != 0) {
    ep.errors.push_back("offload_steady dropped packets (network " +
                        std::to_string(done.net.dropped) + ", vswitch " +
                        std::to_string(done.vsw_drops) + ")");
  }
  if (done.vm_deliveries != injected) {
    ep.errors.push_back("offload_steady: " + std::to_string(injected) +
                        " packets injected, " +
                        std::to_string(done.vm_deliveries) +
                        " delivered to VMs");
  }
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t v :
       {done.net.sent, done.net.delivered, done.net.total_bytes,
        done.spine_bytes, done.vm_deliveries, done.fast_path_hits,
        done.slow_path_lookups, done.setup_cache_misses}) {
    h = fnv1a(h, v);
  }
  for (const std::uint64_t b : done.net.spine_bytes) h = fnv1a(h, b);
  ep.fingerprint = h;
  return ep;
}

// ------------------------------------------------------------ fleet_twin

// The 10240-vswitch, 8-shard Clos twin with the churn script (offload
// push, FE crash with monitor failover, hash reseed) and open-loop Poisson
// traffic per pair (§4.4), with the shards driven by one worker thread.
Episode run_fleet_twin(std::uint64_t seed, Trace* trace) {
  Episode ep;
  const auto t0 = Clock::now();
  nz::core::TestbedConfig cfg = nz::core::make_clos_testbed_config(10240);
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  cfg.monitor.probe_interval = milliseconds(100);
  cfg.monitor.probe_timeout = milliseconds(50);
  cfg.monitor.miss_threshold = 2;
  cfg.shards = 8;
  cfg.threads = 1;
  nz::core::Testbed bed(cfg);
  ep.build_s = seconds_since(t0);
  ep.threads = bed.threads();

  const auto t1 = Clock::now();
  constexpr std::size_t kPairs = 64;
  nz::workload::FleetScenarioConfig sc;
  sc.num_pairs = kPairs;
  sc.base_attempts_per_sec = 400.0;
  sc.seed = 7 + seed;
  nz::workload::FleetScenario scenario(bed, sc);
  scenario.deploy();
  ep.deploy_s = seconds_since(t1);

  const auto t2 = Clock::now();
  scenario.offload_all(kPairs / 4);
  bed.run_for(seconds(1));  // offload workflows settle
  ep.offload_s = seconds_since(t2);
  nz::core::InvariantChecker checker(
      bed, nz::core::InvariantCheckerConfig{.seed = sc.seed});
  const auto t3 = Clock::now();
  scenario.start_traffic();
  constexpr int kWindowMs = 1000;
  scenario.schedule_churn(milliseconds(kWindowMs / 10),
                          milliseconds(kWindowMs / 4),
                          milliseconds(kWindowMs * 3 / 5));
  ep.setup_s = ep.build_s + ep.deploy_s + ep.offload_s + seconds_since(t3);
  check_invariants(checker, ep.errors);

  ep.shape.vpc = sc.vpc_id;
  ep.shape.carrier = true;
  nz::common::Rng rng(0xf1ee7 + seed);
  for (int i = 0; i < 4096; ++i) {
    nz::net::FiveTuple ft = random_tuple(rng);
    ft.proto = nz::net::IpProto::kTcp;
    ep.shape.tuples.push_back(ft);
  }
  ep.shape.packet = nz::net::make_tcp_packet(
      ep.shape.tuples[0], nz::net::TcpFlags{.syn = true}, 0, sc.vpc_id);
  if (trace != nullptr) {
    for (const nz::tables::VnicId id : scenario.server_vnics()) {
      for (std::size_t i = 0; i < bed.size(); ++i) {
        if (bed.vswitch(i).frontend(id) != nullptr) {
          trace->frontends.emplace_back(i, id);
        }
      }
    }
  }

  std::uint64_t completed_before = 0;
  for (const auto& wl : scenario.workloads()) {
    completed_before += wl->completed();
  }
  run_window(bed, kWindowMs, trace, ep, no_injection);
  for (const auto& wl : scenario.workloads()) {
    ep.window_conns += wl->completed();
  }
  ep.window_conns -= completed_before;
  scenario.stop_traffic();
  bed.run_for(milliseconds(250));  // drain
  check_invariants(checker, ep.errors);
  check_conservation(bed, ep.errors);
  ep.fingerprint = scenario.fingerprint();

  nz::common::Percentiles latency =
      nz::common::Percentiles::bounded(0.0, 20000.0, 2000);
  for (const auto& wl : scenario.workloads()) {
    ep.attempted += wl->attempted();
    ep.wl_completed += wl->completed();
    ep.kernel_rejects +=
        wl->client_kernel_rejects() + wl->server_kernel_rejects();
    latency.merge(wl->connect_latency_us());
  }
  ep.failed = ep.attempted - ep.wl_completed;
  ep.connect_us_p50 = latency.percentile(50);
  ep.connect_us_p99 = latency.percentile(99);
  if (bed.controller().failover_events() == 0) {
    ep.errors.push_back("fleet_twin: the FE crash was never failed over");
  }
  return ep;
}

}  // namespace

// ------------------------------------------------------------- helpers

Snapshot take_snapshot(nz::core::Testbed& bed) {
  Snapshot s;
  s.net = bed.net_totals();
  for (const std::uint64_t b : s.net.spine_bytes) s.spine_bytes += b;
  for (std::size_t i = 0; i < bed.size(); ++i) {
    nz::vswitch::VSwitch& v = bed.vswitch(i);
    s.slow_path_lookups += v.slow_path_lookups();
    s.fast_path_hits += v.fast_path_hits();
    s.vm_deliveries += v.vm_deliveries();
    for (std::size_t c = 0; c < nz::vswitch::kCounterNames.size(); ++c) {
      if (nz::vswitch::kCounterNames[c].starts_with("drop.")) {
        s.vsw_drops += v.counters().get_id(c);
      }
    }
    s.insert_failures += v.sessions().insert_failures();
    if (v.vnic_count() > 0) {
      v.for_each_vnic([&](const nz::vswitch::Vnic& vnic) {
        if (const auto* rules = vnic.rules()) {
          s.setup_cache_hits += rules->setup_cache_hits();
          s.setup_cache_misses += rules->setup_cache_misses();
        }
      });
    }
    if (v.frontend_count() > 0) {
      v.for_each_frontend([&](const nz::vswitch::FrontendInstance& fe) {
        s.setup_cache_hits += fe.rules.setup_cache_hits();
        s.setup_cache_misses += fe.rules.setup_cache_misses();
        s.insert_failures += fe.flow_cache.insert_failures();
      });
    }
  }
  const nz::core::Controller& ctl = bed.controller();
  s.ctl_events = ctl.offload_events() + ctl.fallback_events() +
                 ctl.scale_out_events() + ctl.scale_in_events() +
                 ctl.failover_events() + ctl.fes_provisioned_total();
  if (nz::sim::ShardedEngine* eng = bed.engine()) {
    s.epochs = eng->epochs_run();
    s.epochs_skipped = eng->epochs_skipped();
    s.fence_ns = eng->engine_profile().fence_wall_ns;
    for (std::uint32_t k = 0; k < bed.shard_count(); ++k) {
      s.shards.push_back(eng->phase_profile(k));
    }
  }
  s.allocs = nz::support::alloc_counts().news;
  return s;
}

void advance_quantum(nz::core::Testbed& bed, Trace* trace) {
  if (trace == nullptr || bed.shard_count() > 1) {
    bed.run_for(kQuantum);
    return;
  }
  nz::sim::EventLoop& loop = bed.loop();
  const nz::common::TimePoint end = loop.now() + kQuantum;
  trace->pending_sum += loop.pending();
  while (loop.next_event_at() <= end) {
    loop.step();
    ++trace->events;
  }
  loop.run_until(end);  // no events left; moves the clock to `end`
}

void sample_sessions(nz::core::Testbed& bed, Trace* trace) {
  if (trace == nullptr) return;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < bed.size(); ++i) {
    const std::uint64_t n = bed.vswitch(i).sessions().size();
    total += n;
    trace->largest_table = std::max(trace->largest_table, n);
  }
  for (const auto& [sw, id] : trace->frontends) {
    if (const auto* fe = bed.vswitch(sw).frontend(id)) {
      total += fe->flow_cache.size();
    }
  }
  trace->sessions_peak = std::max(trace->sessions_peak, total);
}

void check_conservation(nz::core::Testbed& bed,
                        std::vector<std::string>& errors) {
  const nz::core::Testbed::NetTotals t = bed.net_totals();
  if (t.sent + t.imported !=
      t.delivered + t.dropped + t.in_flight + t.exported) {
    errors.push_back("network conservation broken: sent " +
                     std::to_string(t.sent) + " + imported " +
                     std::to_string(t.imported) + " != delivered " +
                     std::to_string(t.delivered) + " + dropped " +
                     std::to_string(t.dropped) + " + in flight " +
                     std::to_string(t.in_flight) + " + exported " +
                     std::to_string(t.exported));
  }
  if (nz::sim::ShardedEngine* eng = bed.engine()) {
    if (t.exported - t.imported != eng->tokens_pending()) {
      errors.push_back("cross-shard tokens lost");
    }
    if (eng->late_tokens() != 0) {
      errors.push_back("cross-shard tokens arrived late");
    }
  }
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"crr_setup",
       "closed-loop TCP_CRR at capacity: session-table writes, slow-path "
       "rule lookup, setup cache and workload timers",
       "FE detour, carrier codec and shard sync",
       45852001146286ULL, 9001, run_crr_setup},
      {"offload_steady",
       "open-loop ACKs over 64K established flows through a 4-FE pool: "
       "session-table reads beyond L2, FE fast path, carrier, spine hops",
       "rule lookup, connection timers and shard sync",
       0xd3afd764ad6ef07fULL, 9002, run_offload_steady},
      {"fleet_twin",
       "10240-vswitch 8-shard Clos twin with FE crash, failover and hash "
       "reseed: shard sync and the controller dominate",
       "worker threads (it runs the shards on one)",
       0x1efebef3412d24bdULL, 9003, run_fleet_twin},
  };
  return kWorkloads;
}

}  // namespace perfbench
