// Differential hop test: the same raw Network::send()s on an unsharded and
// a 2-shard Clos testbed must produce identical deliveries, fabric drops and
// spine loads. On the sharded bed every cross-rack hop here crosses shards,
// so the source shard models the sender port and the leaf→spine uplink and
// hands the packet off at the spine; the destination shard models the
// spine→leaf downlink. The unsharded bed models the whole path on one loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/testbed.h"
#include "src/net/five_tuple.h"
#include "src/net/packet.h"

namespace nezha {
namespace {

using common::TimePoint;

/// Marks test traffic so monitor probes never enter the delivery lists.
constexpr std::uint16_t kHopPort = 7777;

using Delivery = std::tuple<TimePoint, sim::NodeId, sim::NodeId, std::uint64_t>;

struct Send {
  sim::NodeId from = 0;
  sim::NodeId to = 0;
  std::uint16_t seq = 0;
};

struct HopRun {
  std::vector<Delivery> deliveries;  // sorted
  std::uint64_t dropped_fabric = 0;
  std::vector<std::uint64_t> spine_bytes;
  std::uint64_t exported = 0;
  std::vector<std::uint64_t> shard_fabric_drops;  // per shard
};

net::Packet hop_packet(const Send& s) {
  // A distinct 5-tuple per packet spreads the hops over both spines.
  net::FiveTuple ft{core::Testbed::underlay_ip(s.from),
                    core::Testbed::underlay_ip(s.to),
                    static_cast<std::uint16_t>(1000 + s.seq), kHopPort,
                    net::IpProto::kUdp};
  return net::make_udp_packet(ft, 1000);
}

HopRun run_hops(const std::vector<Send>& sends, std::size_t fabric_queue_bytes,
                std::size_t shards, int threads) {
  core::TestbedConfig config = core::make_clos_testbed_config(16, 4, 2, 2.0);
  config.network.fabric_queue_bytes = fabric_queue_bytes;
  config.shards = shards;
  config.threads = threads;
  core::Testbed bed(config);

  // One list per shard: with threads > 1 each shard's taps run on its own
  // worker.
  std::vector<std::vector<Delivery>> per_shard(bed.shard_count());
  for (std::uint32_t s = 0; s < bed.shard_count(); ++s) {
    bed.network_of_shard(s).set_trace(
        [&list = per_shard[s]](TimePoint t, const net::Packet& pkt,
                               sim::NodeId from, sim::NodeId to) {
          if (pkt.inner.ft.dst_port != kHopPort) return;
          list.emplace_back(t, from, to,
                            net::flow_hash(pkt.inner.ft.canonical(), 0));
        });
  }
  for (const Send& s : sends) {
    bed.network_of(s.from).send(s.from, core::Testbed::underlay_ip(s.to),
                                hop_packet(s));
  }
  bed.run_for(common::milliseconds(2));

  HopRun run;
  for (std::uint32_t s = 0; s < bed.shard_count(); ++s) {
    run.deliveries.insert(run.deliveries.end(), per_shard[s].begin(),
                          per_shard[s].end());
    const std::uint64_t drops = bed.network_of_shard(s).dropped_fabric();
    run.dropped_fabric += drops;
    run.shard_fabric_drops.push_back(drops);
  }
  std::sort(run.deliveries.begin(), run.deliveries.end());
  const core::Testbed::NetTotals totals = bed.net_totals();
  run.spine_bytes = totals.spine_bytes;
  run.exported = totals.exported;
  EXPECT_EQ(totals.sent + totals.imported,
            totals.delivered + totals.dropped + totals.in_flight +
                totals.exported);
  return run;
}

/// Runs `sends` on a 1-shard and a 2-shard bed (at 1 and 2 worker threads)
/// and checks the sharded runs reproduce the unsharded one. Returns the
/// unsharded run and the sharded 1-thread run.
std::pair<HopRun, HopRun> expect_same_hops(const std::vector<Send>& sends,
                                           std::size_t fabric_queue_bytes) {
  const HopRun one = run_hops(sends, fabric_queue_bytes, 1, 1);
  HopRun sharded_1t;
  for (const int threads : {1, 2}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    HopRun two = run_hops(sends, fabric_queue_bytes, 2, threads);
    EXPECT_EQ(two.shard_fabric_drops.size(), 2u);
    EXPECT_EQ(one.deliveries, two.deliveries);
    EXPECT_EQ(one.dropped_fabric, two.dropped_fabric);
    EXPECT_EQ(one.spine_bytes, two.spine_bytes);
    EXPECT_EQ(one.exported, 0u);
    EXPECT_GT(two.exported, 0u);
    if (threads == 1) sharded_1t = std::move(two);
  }
  return {one, sharded_1t};
}

TEST(NetworkHop, UncongestedCrossShardHopsMatchUnsharded) {
  std::vector<Send> sends;
  for (sim::NodeId i = 0; i < 4; ++i) {
    for (std::uint16_t k = 0; k < 4; ++k) {
      sends.push_back({i, static_cast<sim::NodeId>(12 + k),
                       static_cast<std::uint16_t>(i * 4 + k)});
    }
  }
  const auto [one, two] = expect_same_hops(sends, 8 * 1024 * 1024);
  EXPECT_EQ(one.deliveries.size(), sends.size());
  EXPECT_EQ(one.dropped_fabric, 0u);
}

TEST(NetworkHop, UplinkTailDropsMatchUnsharded) {
  // 40 back-to-back packets per sender overflow the 6000-byte uplinks.
  std::vector<Send> sends;
  for (sim::NodeId i = 0; i < 4; ++i) {
    for (std::uint16_t k = 0; k < 40; ++k) {
      sends.push_back({i, static_cast<sim::NodeId>(12 + i),
                       static_cast<std::uint16_t>(i * 40 + k)});
    }
  }
  const auto [one, two] = expect_same_hops(sends, 6000);
  EXPECT_GT(one.dropped_fabric, 0u);
  EXPECT_GT(one.deliveries.size(), 0u);
  EXPECT_EQ(one.deliveries.size() + one.dropped_fabric, sends.size());
  // Every drop is on a source uplink, i.e. on the source shard.
  EXPECT_EQ(two.shard_fabric_drops[0], two.dropped_fabric);
}

TEST(NetworkHop, IncastDropsOnBothFabricLegsMatchUnsharded) {
  // Nodes 0-11 (three racks) converge on node 15: uplinks and the
  // destination leaf's downlinks both overflow.
  std::vector<Send> sends;
  for (sim::NodeId i = 0; i < 12; ++i) {
    for (std::uint16_t k = 0; k < 20; ++k) {
      sends.push_back({i, 15, static_cast<std::uint16_t>(i * 20 + k)});
    }
  }
  const auto [one, two] = expect_same_hops(sends, 20000);
  EXPECT_EQ(one.deliveries.size() + one.dropped_fabric, sends.size());
  // Uplink drops stay on the source shard; downlink drops happen after the
  // hand-off, on the destination shard.
  EXPECT_GT(two.shard_fabric_drops[0], 0u);
  EXPECT_GT(two.shard_fabric_drops[1], 0u);
}

}  // namespace
}  // namespace nezha
