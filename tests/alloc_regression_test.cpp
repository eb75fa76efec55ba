// Allocation-regression guard for the zero-allocation datapath contract:
// a steady-state packet through the full BE↔FE offload path (client →
// FE → BE → VM, and BE → FE → client on the reverse direction) must not
// touch the heap. Counted with the nezha_alloc_hook operator-new
// replacement linked into this binary.
//
// A second test pins the per-connection-SETUP allocation count (session
// table entry, FE flow-cache entry, pre-action cache) so growth there is
// visible in review rather than silent.
// A third test drives the production connection-setup fast path (CPS
// workload with burst windows, DESIGN.md §11) and pins its allocation rate:
// once slabs are warm, opening a connection must be allocation-free apart
// from the session-table slab growing toward its TTL equilibrium.
// A fourth test pins the session table's aging sweep itself: once warm, a
// sweep that re-queues survivors must not touch the heap.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/testbed.h"
#include "src/flow/session_table.h"
#include "src/vswitch/vswitch.h"
#include "src/workload/cps_workload.h"
#include "support/alloc_hook.h"

namespace nezha {
namespace {

using common::milliseconds;
using common::seconds;
using tables::OverlayAddr;
using tables::VnicId;
using vswitch::VnicConfig;
using vswitch::VnicMode;

constexpr std::uint32_t kVpc = 5;
constexpr VnicId kClientVnic = 1;
constexpr VnicId kServerVnic = 2;

class AllocRegressionTest : public ::testing::Test {
 protected:
  AllocRegressionTest() : bed_(make_config()) {
    client_ip_ = net::Ipv4Addr(10, 0, 0, 1);
    server_ip_ = net::Ipv4Addr(10, 0, 0, 2);
    VnicConfig client;
    client.id = kClientVnic;
    client.addr = OverlayAddr{kVpc, client_ip_};
    VnicConfig server;
    server.id = kServerVnic;
    server.addr = OverlayAddr{kVpc, server_ip_};
    bed_.add_vnic(0, client);
    bed_.add_vnic(1, server);
  }

  static core::TestbedConfig make_config() {
    core::TestbedConfig cfg;
    cfg.num_vswitches = 8;
    cfg.controller.auto_offload = false;
    cfg.controller.auto_scale = false;
    // A gateway-map refresh is control-plane work and may allocate; keep
    // it out of every measurement window.
    cfg.vswitch.learning_interval = seconds(100000);
    return cfg;
  }

  void offload_server() {
    ASSERT_TRUE(bed_.controller().trigger_offload(kServerVnic).ok());
    bed_.run_for(seconds(4));
    ASSERT_EQ(bed_.vswitch(1).vnic(kServerVnic)->mode(),
              VnicMode::kOffloaded);
  }

  net::FiveTuple flow(std::uint16_t sport) const {
    return net::FiveTuple{client_ip_, server_ip_, sport, 80,
                          net::IpProto::kTcp};
  }

  /// Pushes `iterations` packet pairs (client→server and server→client)
  /// through the datapath, draining the loop after each pair.
  void pump(std::uint16_t sport, int iterations) {
    const net::FiveTuple ft = flow(sport);
    for (int i = 0; i < iterations; ++i) {
      bed_.vswitch(0).from_vm(
          kClientVnic,
          net::make_tcp_packet(ft, net::TcpFlags{.ack = true}, 100, kVpc));
      bed_.vswitch(1).from_vm(
          kServerVnic,
          net::make_tcp_packet(ft.reversed(), net::TcpFlags{.ack = true},
                               100, kVpc));
      bed_.run_for(milliseconds(1));
    }
  }

  core::Testbed bed_;
  net::Ipv4Addr client_ip_, server_ip_;
};

TEST_F(AllocRegressionTest, SteadyStatePacketsAllocateNothing) {
  offload_server();
  pump(40000, /*iterations=*/256);  // warmup: size every slab and table

  const std::uint64_t delivered_before = bed_.network().delivered();
  const std::uint64_t allocs_before = support::alloc_counts().news;
  pump(40000, /*iterations=*/1024);
  const std::uint64_t window_allocs =
      support::alloc_counts().news - allocs_before;
  const std::uint64_t window_packets =
      bed_.network().delivered() - delivered_before;

  // The window must have carried real traffic (4 underlay hops per pump
  // iteration: client→FE, FE→BE, BE→FE, FE→client).
  EXPECT_GE(window_packets, 4 * 1024u);
  EXPECT_EQ(window_allocs, 0u)
      << "steady-state datapath allocated " << window_allocs << " times over "
      << window_packets << " packets";
}

TEST_F(AllocRegressionTest, ConnectionSetupAllocationsArePinned) {
  offload_server();
  pump(40000, /*iterations=*/256);  // warm the shared slabs/tables first

  // Open fresh connections (distinct 5-tuples): each creates a BE session
  // entry, an FE flow-cache entry, and a cached pre-actions copy, all of
  // which legitimately allocate — but the count per connection is a budget,
  // not a blank check. Pin it so creep shows up as a test failure.
  constexpr int kConns = 64;
  const std::uint64_t allocs_before = support::alloc_counts().news;
  for (int c = 0; c < kConns; ++c) {
    const net::FiveTuple ft = flow(static_cast<std::uint16_t>(41000 + c));
    bed_.vswitch(0).from_vm(
        kClientVnic,
        net::make_tcp_packet(ft, net::TcpFlags{.syn = true}, 100, kVpc));
    bed_.run_for(milliseconds(1));
  }
  const std::uint64_t setup_allocs =
      support::alloc_counts().news - allocs_before;
  const double per_conn =
      static_cast<double>(setup_allocs) / static_cast<double>(kConns);

  // Budget: hash-table nodes for the BE session entry, the FE cache entry
  // and the client-side session entry, plus occasional table rehashes
  // amortized across the batch. Measured ~6/conn; 12 leaves headroom for
  // rehash spikes without hiding a per-packet regression (which would add
  // hundreds across the 64-connection batch).
  EXPECT_LE(per_conn, 12.0)
      << "connection setup now allocates " << per_conn
      << " times per connection (" << setup_allocs << " total)";
}

// A table refreshed every tick like a datapath refreshes live flows: each
// sweep visits the entries whose conservative bucket came due, finds them
// alive, and re-queues them a TTL ahead. Creation is spread over ten ticks
// so every sweep has survivors to move. After a warm-up in which every
// wheel cell and the sweep's re-queue buffer reach their peak load, a
// sweep must allocate nothing.
TEST_F(AllocRegressionTest, SteadyStateAgingSweepAllocatesNothing) {
  flow::SessionTable table{flow::SessionTableConfig{
      .established_ttl = seconds(1),
      .embryonic_ttl = milliseconds(500),
      .closed_ttl = milliseconds(100)}};
  std::vector<flow::SessionKey> keys;
  common::TimePoint now = 0;
  std::size_t evicted = 0;
  std::uint64_t sweep_allocs = 0;
  auto tick = [&](bool measure) {
    now += milliseconds(100);
    for (const flow::SessionKey& key : keys) {
      table.find(key)->state.observe(flow::Direction::kTx,
                                     net::TcpFlags{.ack = true}, true, 64,
                                     now);
    }
    const std::uint64_t before = support::alloc_counts().news;
    evicted += table.age_out(now);
    if (measure) sweep_allocs += support::alloc_counts().news - before;
  };
  for (int t = 0; t < 10; ++t) {
    for (int i = 0; i < 64; ++i) {
      keys.push_back(flow::SessionKey::from_packet(
          kVpc, flow(static_cast<std::uint16_t>(1000 + keys.size()))));
      ASSERT_NE(table.find_or_create(keys.back(), now), nullptr);
    }
    tick(/*measure=*/false);
  }
  for (int t = 0; t < 200; ++t) tick(/*measure=*/false);  // warm-up

  for (int t = 0; t < 100; ++t) tick(/*measure=*/true);
  EXPECT_EQ(evicted, 0u);
  EXPECT_EQ(table.size(), keys.size());
  EXPECT_EQ(sweep_allocs, 0u)
      << "100 warm aging sweeps allocated " << sweep_allocs << " times";
}

// The hand-crafted-SYN budget above measures table costs per brand-new
// 5-tuple. This one measures the whole production setup phase — closed-loop
// CPS workloads, coalesced timers, burst windows, session aging — where
// tuples recycle and every per-connection step must run out of pools:
// after a warmup that sizes the slabs, the per-connection allocation rate
// must stay near zero (the residual is the session-table slab still growing
// toward its established-TTL equilibrium, amortized over thousands of
// connections). A heap-spilling closure on any handshake step costs ~0.5
// allocations per connection and fails this immediately.
TEST(CpsSetupPhaseAllocTest, WarmSetupPathAllocatesNearZeroPerConnection) {
  core::TestbedConfig cfg;
  cfg.num_vswitches = 4;
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  cfg.vswitch.learning_interval = seconds(100000);
  // The production burst configuration (bench_engine_hotpath's e2e row).
  cfg.network.rx_burst_window = common::microseconds(192);
  cfg.vswitch.cpu_burst_window = common::microseconds(64);
  cfg.vswitch.aging_period = milliseconds(100);
  core::Testbed bed(cfg);

  VnicConfig server;
  server.id = kServerVnic;
  server.addr = OverlayAddr{kVpc, net::Ipv4Addr(10, 0, 0, 2)};
  bed.add_vnic(0, server);
  std::vector<std::unique_ptr<workload::CpsWorkload>> clients;
  for (int c = 0; c < 2; ++c) {
    VnicConfig client;
    client.id = static_cast<VnicId>(10 + c);
    client.addr =
        OverlayAddr{kVpc, net::Ipv4Addr(10, 0, 1, static_cast<std::uint8_t>(c + 1))};
    bed.add_vnic(1 + static_cast<std::size_t>(c), client);
    workload::CpsWorkloadConfig w;
    w.concurrency = 64;
    w.seed = 900 + static_cast<std::uint64_t>(c);
    w.timer_window = common::microseconds(64);
    clients.push_back(std::make_unique<workload::CpsWorkload>(
        bed, 1 + static_cast<std::size_t>(c), client.id, 0, kServerVnic, w));
  }
  for (std::size_t i = 0; i < bed.size(); ++i) bed.vswitch(i).start_aging();

  for (auto& c : clients) c->start();
  bed.run_for(milliseconds(600));  // warmup: size pools, rings, tables

  const std::uint64_t allocs_before = support::alloc_counts().news;
  std::uint64_t conns_before = 0;
  for (auto& c : clients) conns_before += c->completed();

  bed.run_for(seconds(1));

  const std::uint64_t window_allocs =
      support::alloc_counts().news - allocs_before;
  std::uint64_t window_conns = 0;
  for (auto& c : clients) window_conns += c->completed();
  window_conns -= conns_before;
  for (auto& c : clients) c->stop();

  ASSERT_GT(window_conns, 10000u) << "scenario carried too little load to "
                                  << "make the per-connection rate meaningful";
  const double per_conn =
      static_cast<double>(window_allocs) / static_cast<double>(window_conns);
  // Same contract the bench --smoke gates at 0.02 over a longer window; the
  // shorter test window sees proportionally more slab-growth residue, so
  // the budget is looser — but still ~5x below one spilled closure.
  EXPECT_LE(per_conn, 0.1)
      << "setup phase allocated " << window_allocs << " times over "
      << window_conns << " connections (" << per_conn << "/connection)";
}

}  // namespace
}  // namespace nezha
