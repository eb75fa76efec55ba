// Isolated per-call replays of single layers on the workload's own shapes.
// Each measures the median of several rounds, so one preempted round does
// not skew the estimate.
#include <algorithm>
#include <array>

#include "bench.h"
#include "src/common/rng.h"
#include "src/flow/session_table.h"
#include "src/sim/event_loop.h"
#include "src/tables/rule_set.h"

namespace perfbench {
namespace {

constexpr int kRounds = 5;

// Results of replayed calls land here, so the compiler keeps the calls.
volatile std::uint64_t g_sink = 0;

template <typename Fn>
double median_round_ns(std::size_t ops_per_round, Fn&& round) {
  std::array<double, kRounds> ns{};
  for (double& r : ns) {
    const auto t0 = Clock::now();
    round();
    r = seconds_since(t0) * 1e9 / static_cast<double>(ops_per_round);
  }
  std::sort(ns.begin(), ns.end());
  return ns[kRounds / 2];
}

std::vector<nz::flow::SessionKey> random_keys(std::size_t n, std::uint32_t vpc,
                                              nz::common::Rng& rng) {
  std::vector<nz::flow::SessionKey> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const nz::net::FiveTuple ft{
        nz::net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
        nz::net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
        static_cast<std::uint16_t>(rng.uniform_u64(1024, 65535)),
        static_cast<std::uint16_t>(rng.uniform_u64(1, 65535)),
        nz::net::IpProto::kTcp};
    keys.push_back(nz::flow::SessionKey::from_packet(vpc, ft));
  }
  return keys;
}

void replay_rules(const ReplayShape& shape, ReplayCosts& out) {
  nz::tables::RuleTableSet rules;
  for (const nz::tables::AclRule& r : shape.acl) rules.acl().add_rule(r);
  rules.commit_update();
  out.lookup_miss_ns = median_round_ns(shape.tuples.size(), [&] {
    for (const nz::net::FiveTuple& ft : shape.tuples) {
      g_sink = g_sink + rules.lookup(ft).rule_version;
    }
  });
  for (const nz::net::FiveTuple& ft : shape.tuples) rules.lookup_cached(ft);
  out.lookup_hit_ns = median_round_ns(shape.tuples.size(), [&] {
    for (const nz::net::FiveTuple& ft : shape.tuples) {
      g_sink = g_sink + rules.lookup_cached(ft).rule_version;
    }
  });
}

void replay_sessions(const ReplayShape& shape, std::size_t size,
                     ReplayCosts& out) {
  nz::common::Rng rng(0x5e55 + size);
  const std::vector<nz::flow::SessionKey> live =
      random_keys(size, shape.vpc, rng);
  nz::flow::SessionTable table{nz::flow::SessionTableConfig{}};
  for (const auto& k : live) table.find_or_create(k, 0);

  std::vector<std::uint32_t> probe(std::min<std::size_t>(size * 2, 1 << 18));
  for (auto& p : probe) {
    p = static_cast<std::uint32_t>(rng.uniform_u64(0, size - 1));
  }
  out.find_ns = median_round_ns(probe.size(), [&] {
    for (const std::uint32_t i : probe) {
      g_sink = g_sink + (table.find(live[i]) != nullptr);
    }
  });

  // Churn at constant size: create a fresh session, erase the oldest.
  const std::size_t churn = std::min<std::size_t>(size, 1 << 16);
  const std::vector<nz::flow::SessionKey> fresh =
      random_keys(churn * kRounds, shape.vpc, rng);
  std::size_t next = 0;
  std::size_t oldest = 0;
  std::vector<nz::flow::SessionKey> ring = live;
  out.insert_erase_ns = median_round_ns(churn, [&] {
    for (std::size_t i = 0; i < churn; ++i) {
      table.find_or_create(fresh[next], 0);
      table.erase(ring[oldest]);
      ring[oldest] = fresh[next++];
      oldest = (oldest + 1) % ring.size();
    }
  });
}

// One aging sweep at `size` live sessions whose deadlines are spread over
// one TTL, so each sweep evicts the share a steady churn would; evicted
// sessions are replaced (untimed) to hold the size.
double replay_age_sweep_ms(const ReplayShape& shape, std::size_t size) {
  nz::common::Rng rng(0xa9e + size);
  nz::flow::SessionTable table{nz::flow::SessionTableConfig{}};
  const nz::common::Duration ttl = table.config().embryonic_ttl;
  const std::vector<nz::flow::SessionKey> keys =
      random_keys(size, shape.vpc, rng);
  for (std::size_t i = 0; i < size; ++i) {
    table.find_or_create(
        keys[i], static_cast<nz::common::TimePoint>(
                     static_cast<double>(ttl) * static_cast<double>(i) /
                     static_cast<double>(size)));
  }
  std::vector<double> ms;
  nz::common::TimePoint now = ttl;
  for (int s = 0; s < 20; ++s) {
    now += shape.aging_period;
    const auto t0 = Clock::now();
    table.age_out(now);
    ms.push_back(seconds_since(t0) * 1e3);
    const std::size_t missing = size - table.size();
    for (const auto& k : random_keys(missing, shape.vpc, rng)) {
      table.find_or_create(k, now);
    }
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

void replay_codec(const ReplayShape& shape, ReplayCosts& out) {
  constexpr std::size_t kBatch = 4096;
  std::vector<nz::net::Packet> pkts(kBatch, shape.packet);
  const nz::net::Ipv4Addr a(10, 200, 0, 1), b(10, 200, 0, 2);
  const nz::net::MacAddr mac{};
  nz::flow::SessionState state;
  nz::flow::PreActions pre;
  const auto reset = [&] {
    for (auto& p : pkts) p = shape.packet;
  };
  std::array<double, kRounds> enc{}, dec{};
  for (int r = 0; r < kRounds; ++r) {
    reset();
    auto t0 = Clock::now();
    for (auto& p : pkts) {
      p.encap(a, mac, b, mac);
      if (shape.carrier) {
        // BE -> FE leg: state snapshot TLV; FE -> BE leg: pre-actions TLV.
        nz::net::CarrierHeader& c = p.carrier.emplace();
        state.serialize_snapshot_into(c.add_uninit(
            nz::net::CarrierTlvType::kStateSnapshot,
            nz::flow::SessionState::kSnapshotWireSize));
        pre.serialize_into(c.add_uninit(nz::net::CarrierTlvType::kPreActions,
                                        nz::flow::PreActions::kWireSize));
      }
    }
    enc[static_cast<std::size_t>(r)] = seconds_since(t0) * 1e9 / kBatch;
    t0 = Clock::now();
    for (auto& p : pkts) {
      if (shape.carrier) {
        if (auto tlv = p.carrier->find(nz::net::CarrierTlvType::kPreActions)) {
          auto parsed = nz::flow::PreActions::parse(*tlv);
          g_sink = g_sink + parsed.ok();
        }
      }
      g_sink = g_sink + p.decap().has_value();
    }
    dec[static_cast<std::size_t>(r)] = seconds_since(t0) * 1e9 / kBatch;
  }
  std::sort(enc.begin(), enc.end());
  std::sort(dec.begin(), dec.end());
  out.encap_ns = enc[kRounds / 2];
  out.decap_ns = dec[kRounds / 2];
}

// Schedule + fire of a no-op event with `pending` other events queued.
double replay_dispatch_ns(std::size_t pending) {
  nz::sim::EventLoop loop;
  nz::common::Rng rng(0xd15);
  const auto noop = [](void*, std::uint64_t) {};
  for (std::size_t i = 0; i < pending; ++i) {
    loop.schedule_raw_at(
        nz::common::seconds(1000) +
            static_cast<nz::common::TimePoint>(rng.uniform_u64(0, 1 << 30)),
        noop, nullptr);
  }
  constexpr std::size_t kOps = 1 << 16;
  return median_round_ns(kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      const auto dt = static_cast<nz::common::TimePoint>(1 + (i & 7));
      loop.schedule_raw_at(loop.now() + dt, noop, nullptr);
      loop.step();
    }
  });
}

}  // namespace

ReplayCosts measure_replays(const ReplayShape& shape,
                            std::size_t largest_table,
                            std::size_t loop_pending) {
  ReplayCosts out;
  replay_rules(shape, out);
  const std::size_t size =
      std::clamp<std::size_t>(largest_table, 1024, std::size_t{1} << 21);
  replay_sessions(shape, size, out);
  if (shape.aging_period > 0) {
    out.age_sweep_ms = replay_age_sweep_ms(shape, size);
  }
  replay_codec(shape, out);
  out.dispatch_ns = replay_dispatch_ns(loop_pending);
  return out;
}

}  // namespace perfbench
