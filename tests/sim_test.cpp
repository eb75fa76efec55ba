// Unit tests for the discrete-event simulator: event loop ordering and
// cancellation, topology tiers, network delivery/latency/faults.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/sim/event_loop.h"
#include "src/sim/network.h"
#include "src/sim/node.h"
#include "src/sim/topology.h"

namespace nezha::sim {
namespace {

using common::microseconds;
using common::milliseconds;
using common::TimePoint;

TEST(EventLoopTest, FiresInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30, [&] { order.push_back(3); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoopTest, EqualTimesFireInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoopTest, CancelPreventsFiring) {
  EventLoop loop;
  bool fired = false;
  EventId id = loop.schedule_at(10, [&] { fired = true; });
  loop.cancel(id);
  loop.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoopTest, RunUntilAdvancesTime) {
  EventLoop loop;
  int count = 0;
  loop.schedule_at(10, [&] { ++count; });
  loop.schedule_at(100, [&] { ++count; });
  loop.run_until(50);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(loop.now(), 50);
  loop.run();
  EXPECT_EQ(count, 2);
}

TEST(EventLoopTest, EventsScheduledWhileRunningFire) {
  EventLoop loop;
  int depth = 0;
  loop.schedule_at(1, [&] {
    ++depth;
    loop.schedule_after(1, [&] { ++depth; });
  });
  loop.run();
  EXPECT_EQ(depth, 2);
  EXPECT_EQ(loop.now(), 2);
}

TEST(EventLoopTest, PastSchedulingClampsToNow) {
  EventLoop loop;
  loop.run_until(100);
  TimePoint fired_at = -1;
  loop.schedule_at(5, [&] { fired_at = loop.now(); });
  loop.run();
  EXPECT_EQ(fired_at, 100);
}

// Regression: a cancelled event at the queue head with at <= t used to make
// run_until(t) fire the *next* live event even when its timestamp was > t.
TEST(EventLoopTest, RunUntilDoesNotOvershootPastCancelledHead) {
  EventLoop loop;
  bool late_fired = false;
  EventId head = loop.schedule_at(10, [] {});
  loop.schedule_at(100, [&] { late_fired = true; });
  loop.cancel(head);
  loop.run_until(50);
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(loop.now(), 50);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_TRUE(late_fired);
  EXPECT_EQ(loop.now(), 100);
}

// Regression: cancel-after-fire used to leave a permanent tombstone that made
// pending() = queue.size() - cancelled.size() underflow in size_t.
TEST(EventLoopTest, CancelAfterFireIsANoOp) {
  EventLoop loop;
  int fired = 0;
  EventId id = loop.schedule_at(10, [&] { ++fired; });
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.pending(), 0u);
  loop.cancel(id);  // already fired: must not poison accounting
  EXPECT_EQ(loop.pending(), 0u);
  loop.schedule_at(20, [&] { ++fired; });
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.pending(), 0u);
}

// The raw fast path must interleave with std::function events in exact
// (at, seq) order and honor cancel() identically.
TEST(EventLoopTest, RawEventsOrderWithCallbacks) {
  EventLoop loop;
  std::vector<int> order;
  struct Ctx {
    std::vector<int>* order;
  } ctx{&order};
  const auto raw = [](void* c, std::uint64_t arg) {
    static_cast<Ctx*>(c)->order->push_back(static_cast<int>(arg));
  };
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_raw_at(10, raw, &ctx, 2);  // same time: schedule order wins
  loop.schedule_raw_at(5, raw, &ctx, 0);
  loop.schedule_at(20, [&] { order.push_back(3); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventLoopTest, RawEventCancelAndSlotReuse) {
  EventLoop loop;
  int fired = 0;
  struct Ctx {
    int* fired;
  } ctx{&fired};
  const auto raw = [](void* c, std::uint64_t arg) {
    *static_cast<Ctx*>(c)->fired += static_cast<int>(arg);
  };
  EventId id = loop.schedule_raw_at(10, raw, &ctx, 100);
  loop.cancel(id);
  loop.cancel(id);  // double-cancel is a no-op
  EXPECT_EQ(loop.pending(), 0u);
  loop.run();
  EXPECT_EQ(fired, 0);
  // The freed slot must not resurrect the raw pointer for a std::function
  // event that reuses it.
  bool cb_fired = false;
  loop.schedule_at(20, [&] { cb_fired = true; });
  loop.run();
  EXPECT_TRUE(cb_fired);
  EXPECT_EQ(fired, 0);
}

TEST(EventLoopTest, RawEventReschedulesFromCallee) {
  EventLoop loop;
  struct Ctx {
    EventLoop* loop;
    int count = 0;
    static void tick(void* self, std::uint64_t remaining) {
      auto* c = static_cast<Ctx*>(self);
      ++c->count;
      if (remaining > 0) {
        c->loop->schedule_raw_at(c->loop->now() + 5, &Ctx::tick, self,
                                 remaining - 1);
      }
    }
  } ctx{&loop};
  loop.schedule_raw_at(0, &Ctx::tick, &ctx, 9);
  loop.run();
  EXPECT_EQ(ctx.count, 10);
  EXPECT_EQ(loop.now(), 45);
}

TEST(EventLoopTest, DoubleCancelCountsOnce) {
  EventLoop loop;
  bool fired = false;
  EventId id = loop.schedule_at(10, [&] { fired = true; });
  loop.schedule_at(20, [] {});
  loop.cancel(id);
  loop.cancel(id);  // second cancel must not decrement pending again
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(loop.pending(), 0u);
}

// A fired/cancelled id must never alias a later event that reuses its slot.
TEST(EventLoopTest, StaleIdDoesNotCancelRecycledSlot) {
  EventLoop loop;
  EventId first = loop.schedule_at(10, [] {});
  loop.run();
  bool fired = false;
  loop.schedule_at(20, [&] { fired = true; });  // recycles first's slot
  loop.cancel(first);                           // stale generation: no-op
  loop.run();
  EXPECT_TRUE(fired);
}

TEST(EventLoopTest, PeriodicFiresAtFixedCadenceUntilCancelled) {
  EventLoop loop;
  std::vector<TimePoint> fires;
  EventId id = loop.schedule_periodic(10, [&] { fires.push_back(loop.now()); });
  EXPECT_EQ(loop.pending(), 1u);  // a series counts as one pending event
  loop.run_until(35);
  EXPECT_EQ(fires, (std::vector<TimePoint>{10, 20, 30}));
  EXPECT_EQ(loop.pending(), 1u);
  loop.cancel(id);
  EXPECT_EQ(loop.pending(), 0u);
  loop.run();
  EXPECT_EQ(fires.size(), 3u);
}

TEST(EventLoopTest, PeriodicCanCancelItselfFromCallback) {
  EventLoop loop;
  int fires = 0;
  EventId id = 0;
  id = loop.schedule_periodic(5, [&] {
    if (++fires == 3) loop.cancel(id);
  });
  loop.run();
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(loop.now(), 15);
  EXPECT_EQ(loop.pending(), 0u);
}

// The next periodic tick is sequenced after events its own callback
// scheduled at the same timestamp — matching the legacy self-rescheduling
// pattern, so converted call sites keep identical event order.
TEST(EventLoopTest, PeriodicTickOrdersAfterCallbackScheduledEvents) {
  EventLoop loop;
  std::vector<int> order;
  EventId id = 0;
  int ticks = 0;
  id = loop.schedule_periodic(10, [&] {
    order.push_back(1);
    loop.schedule_after(10, [&] { order.push_back(2); });
    if (++ticks == 2) loop.cancel(id);
  });
  loop.run();
  // t=10: tick. t=20: tick fired events interleave — the callback-scheduled
  // event (seq minted first) precedes the second tick.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2}));
}

TEST(TopologyTest, TierClassification) {
  Topology topo(TopologyConfig{.servers_per_tor = 4, .tors_per_agg = 2});
  EXPECT_EQ(topo.hop_tier(0, 0), 0);
  EXPECT_EQ(topo.hop_tier(0, 3), 1);   // same ToR
  EXPECT_EQ(topo.hop_tier(0, 4), 2);   // same agg, different ToR
  EXPECT_EQ(topo.hop_tier(0, 8), 3);   // different agg
  EXPECT_TRUE(topo.same_tor(1, 2));
  EXPECT_FALSE(topo.same_tor(3, 4));
  EXPECT_TRUE(topo.same_agg(0, 7));
  EXPECT_FALSE(topo.same_agg(0, 8));
}

TEST(TopologyTest, LatencyIncreasesWithTier) {
  Topology topo(TopologyConfig{.servers_per_tor = 4, .tors_per_agg = 2});
  EXPECT_LT(topo.latency(0, 0), topo.latency(0, 1));
  EXPECT_LT(topo.latency(0, 1), topo.latency(0, 4));
  EXPECT_LT(topo.latency(0, 4), topo.latency(0, 8));
}

/// Minimal sink node recording arrivals.
class SinkNode : public Node {
 public:
  SinkNode(NodeId id, net::Ipv4Addr ip)
      : Node(id, "sink" + std::to_string(id), ip, net::MacAddr(id + 1)) {}
  void receive(net::Packet pkt) override {
    received.push_back(std::move(pkt));
  }
  std::vector<net::Packet> received;
};

net::Packet test_packet(std::uint16_t payload = 100) {
  net::FiveTuple ft{net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(10, 0, 0, 2),
                    1000, 80, net::IpProto::kUdp};
  return net::make_udp_packet(ft, payload);
}

struct NetworkFixture {
  EventLoop loop;
  Topology topo{TopologyConfig{.servers_per_tor = 4, .tors_per_agg = 2}};
  Network net{loop, topo};
  SinkNode a{0, net::Ipv4Addr(172, 16, 0, 1)};
  SinkNode b{1, net::Ipv4Addr(172, 16, 0, 2)};
  SinkNode far{8, net::Ipv4Addr(172, 16, 0, 9)};

  NetworkFixture() {
    net.attach(a);
    net.attach(b);
    net.attach(far);
  }
};

TEST(NetworkTest, DeliversToDestination) {
  NetworkFixture f;
  f.net.send(f.a.id(), f.b.underlay_ip(), test_packet());
  f.loop.run();
  EXPECT_EQ(f.b.received.size(), 1u);
  EXPECT_EQ(f.net.delivered(), 1u);
}

TEST(NetworkTest, LatencyMatchesTopologyPlusSerialization) {
  NetworkFixture f;
  f.net.send(f.a.id(), f.b.underlay_ip(), test_packet());
  f.loop.run();
  // same-ToR latency 5us + serialization of a small packet at 100G (~10ns).
  EXPECT_GE(f.loop.now(), microseconds(5));
  EXPECT_LT(f.loop.now(), microseconds(6));
}

TEST(NetworkTest, FartherNodesTakeLonger) {
  NetworkFixture f;
  TimePoint near_arrival = 0, far_arrival = 0;
  f.net.send(f.a.id(), f.b.underlay_ip(), test_packet());
  f.loop.run();
  near_arrival = f.loop.now();
  f.net.send(f.a.id(), f.far.underlay_ip(), test_packet());
  f.loop.run();
  far_arrival = f.loop.now() - near_arrival;
  EXPECT_GT(far_arrival, near_arrival);
}

TEST(NetworkTest, UnknownDestinationDropped) {
  NetworkFixture f;
  f.net.send(f.a.id(), net::Ipv4Addr(9, 9, 9, 9), test_packet());
  f.loop.run();
  EXPECT_EQ(f.net.dropped_no_route(), 1u);
  EXPECT_EQ(f.net.delivered(), 0u);
}

TEST(NetworkTest, CrashedNodeDropsTraffic) {
  NetworkFixture f;
  f.net.crash(f.b.id());
  f.net.send(f.a.id(), f.b.underlay_ip(), test_packet());
  f.loop.run();
  EXPECT_EQ(f.b.received.size(), 0u);
  EXPECT_EQ(f.net.dropped_crashed(), 1u);

  f.net.heal(f.b.id());
  f.net.send(f.a.id(), f.b.underlay_ip(), test_packet());
  f.loop.run();
  EXPECT_EQ(f.b.received.size(), 1u);
}

TEST(NetworkTest, CrashedSenderCannotSend) {
  NetworkFixture f;
  f.net.crash(f.a.id());
  f.net.send(f.a.id(), f.b.underlay_ip(), test_packet());
  f.loop.run();
  EXPECT_EQ(f.b.received.size(), 0u);
}

TEST(NetworkTest, InFlightPacketLostWhenDestinationCrashesMidFlight) {
  NetworkFixture f;
  f.net.send(f.a.id(), f.b.underlay_ip(), test_packet());
  f.net.crash(f.b.id());  // crash before delivery event fires
  f.loop.run();
  EXPECT_EQ(f.b.received.size(), 0u);
  EXPECT_EQ(f.net.dropped_crashed(), 1u);
}

TEST(NetworkTest, SerializationDelayAccumulatesAtPort) {
  // Two large back-to-back packets from one port: second arrives one full
  // serialization time after the first.
  EventLoop loop;
  Topology topo;
  Network net(loop, topo, NetworkConfig{.link_bps = 1e9});  // 1 Gbps
  SinkNode a{0, net::Ipv4Addr(1, 0, 0, 1)};
  SinkNode b{1, net::Ipv4Addr(1, 0, 0, 2)};
  net.attach(a);
  net.attach(b);
  std::vector<TimePoint> arrivals;
  net.set_trace([&](TimePoint t, const net::Packet&, NodeId, NodeId) {
    arrivals.push_back(t);
  });
  net.send(a.id(), b.underlay_ip(), test_packet(1200));
  net.send(a.id(), b.underlay_ip(), test_packet(1200));
  loop.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // ~1242B at 1Gbps ≈ 9.9us between the two arrivals.
  const auto gap = arrivals[1] - arrivals[0];
  EXPECT_GT(gap, microseconds(9));
  EXPECT_LT(gap, microseconds(11));
}

TEST(NetworkTest, EgressQueueOverflowTailDrops) {
  EventLoop loop;
  Topology topo;
  Network net(loop, topo,
              NetworkConfig{.link_bps = 1e6, .egress_queue_bytes = 3000});
  SinkNode a{0, net::Ipv4Addr(1, 0, 0, 1)};
  SinkNode b{1, net::Ipv4Addr(1, 0, 0, 2)};
  net.attach(a);
  net.attach(b);
  for (int i = 0; i < 10; ++i) {
    net.send(a.id(), b.underlay_ip(), test_packet(1200));
  }
  loop.run();
  EXPECT_GT(net.dropped_queue_full(), 0u);
  EXPECT_LT(b.received.size(), 10u);
  EXPECT_GT(b.received.size(), 0u);
}

TEST(NetworkTest, ClosCrossLeafTimingAndFabricTailDrop) {
  // Two leaves of two hosts, two spines; a fabric link at a tenth of the
  // host rate keeps every leg's serialization visible.
  TopologyConfig tc;
  tc.kind = FabricKind::kClos;
  tc.clos.num_leaves = 2;
  tc.clos.hosts_per_leaf = 2;
  tc.clos.num_spines = 2;
  const ClosConfig& clos = tc.clos;
  auto ser = [](std::size_t bytes, double bps) {
    return static_cast<common::Duration>(static_cast<double>(bytes) * 8.0 /
                                         bps *
                                         static_cast<double>(common::kSecond));
  };
  const std::size_t bytes = test_packet(1200).wire_size();

  {
    EventLoop loop;
    Topology topo{tc};
    Network net(loop, topo,
                NetworkConfig{.link_bps = 100e9, .fabric_link_bps = 10e9});
    SinkNode a{0, net::Ipv4Addr(1, 0, 0, 1)};
    SinkNode b{1, net::Ipv4Addr(1, 0, 0, 2)};  // a's leaf
    SinkNode c{2, net::Ipv4Addr(1, 0, 0, 3)};  // the other leaf
    net.attach(a);
    net.attach(b);
    net.attach(c);
    std::vector<TimePoint> arrivals;
    net.set_trace([&](TimePoint t, const net::Packet&, NodeId, NodeId) {
      arrivals.push_back(t);
    });

    // Cross-leaf: host→leaf, uplink, leaf→spine, downlink, spine→leaf,
    // leaf→host, each fabric link serializing at its own rate.
    net.send(a.id(), c.underlay_ip(), test_packet(1200));
    loop.run();
    ASSERT_EQ(arrivals.size(), 1u);
    EXPECT_EQ(arrivals[0], ser(bytes, 100e9) + clos.host_leaf_latency +
                               ser(bytes, 10e9) + clos.leaf_spine_latency +
                               ser(bytes, 10e9) + clos.leaf_spine_latency +
                               clos.host_leaf_latency);
    std::uint64_t spine_total = 0;
    for (const std::uint64_t s : net.spine_bytes()) spine_total += s;
    EXPECT_EQ(spine_total, bytes);

    // Same-leaf: host→leaf→host, no fabric link.
    const TimePoint t0 = loop.now();
    net.send(a.id(), b.underlay_ip(), test_packet(1200));
    loop.run();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[1] - t0,
              ser(bytes, 100e9) + 2 * clos.host_leaf_latency);
    spine_total = 0;
    for (const std::uint64_t s : net.spine_bytes()) spine_total += s;
    EXPECT_EQ(spine_total, bytes);
    EXPECT_EQ(net.dropped_fabric(), 0u);
  }

  {
    // Uplink overflow: one flow rides one spine; its uplink queue holds
    // two packets, so three of five back-to-back packets are tail-dropped.
    EventLoop loop;
    Topology topo{tc};
    Network net(loop, topo,
                NetworkConfig{.link_bps = 100e9,
                              .fabric_link_bps = 10e9,
                              .fabric_queue_bytes = 2 * bytes});
    SinkNode a{0, net::Ipv4Addr(1, 0, 0, 1)};
    SinkNode c{2, net::Ipv4Addr(1, 0, 0, 3)};
    net.attach(a);
    net.attach(c);
    for (int i = 0; i < 5; ++i) {
      net.send(a.id(), c.underlay_ip(), test_packet(1200));
    }
    auto conserved = [&] {
      return net.sent() == net.delivered() + net.dropped_total() +
                               net.in_flight();
    };
    EXPECT_TRUE(conserved());
    loop.run_until(ser(bytes, 100e9) + clos.host_leaf_latency +
                   ser(bytes, 10e9));
    EXPECT_TRUE(conserved());
    loop.run();
    EXPECT_TRUE(conserved());
    EXPECT_EQ(net.dropped_fabric(), 3u);
    EXPECT_EQ(net.dropped_total(), 3u);
    EXPECT_EQ(c.received.size(), 2u);
    EXPECT_EQ(net.in_flight(), 0u);
  }
}

TEST(NetworkTest, DetachRemovesRouting) {
  NetworkFixture f;
  f.net.detach(f.b.id());
  f.net.send(f.a.id(), net::Ipv4Addr(172, 16, 0, 2), test_packet());
  f.loop.run();
  EXPECT_EQ(f.net.dropped_no_route(), 1u);
}

}  // namespace
}  // namespace nezha::sim
