// Session record layout and the pooled pre-actions behind it: the record
// stays two cache lines, equal pre-actions share one pool entry, and every
// way a session drops its pre-actions (erase, aging, reset, invalidation,
// clear) returns the pool to empty.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "src/core/testbed.h"
#include "src/flow/session_table.h"

namespace nezha {
namespace {

using flow::PreActionPool;
using flow::PreActions;
using flow::SessionEntry;
using flow::SessionKey;
using flow::SessionTable;
using flow::SessionTableConfig;

static_assert(sizeof(SessionEntry) <= 128, "a session record is 2 lines");
static_assert(alignof(SessionEntry) == 64, "records start on a line");

SessionKey key_n(std::uint32_t n) {
  return SessionKey::from_packet(
      1, net::FiveTuple{net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(10, 1, 0, 1),
                        static_cast<std::uint16_t>(1000 + n % 60000),
                        static_cast<std::uint16_t>(80 + n / 60000),
                        net::IpProto::kTcp});
}

PreActions pre_n(std::uint32_t n) {
  PreActions p;
  p.rule_version = n;
  p.tx.nat_enabled = true;
  p.tx.nat_port = static_cast<std::uint16_t>(n);
  return p;
}

TEST(SessionRecord, FirstLineHoldsWhatAProbeAndAnAgingVisitRead) {
  // Key, wheel stamp, slot, pre-actions handle and the FSM-side state fields
  // end before byte 64; counters and the QoS bucket live on line two.
  EXPECT_LE(offsetof(SessionEntry, key) + sizeof(SessionKey), 64u);
  EXPECT_LT(offsetof(SessionEntry, wheel_gen), 64u);
  EXPECT_LT(offsetof(SessionEntry, wheel_bucket), 64u);
  EXPECT_LT(offsetof(SessionEntry, pre_actions), 64u);
  EXPECT_LT(offsetof(SessionEntry, state) +
                offsetof(flow::SessionState, last_active),
            64u);
  EXPECT_GE(offsetof(SessionEntry, qos_tokens_bits), 64u);
  EXPECT_GE(offsetof(SessionEntry, qos_refilled_at), 64u);
}

TEST(SessionRecord, EqualPreActionsShareOnePoolEntry) {
  SessionTable t{SessionTableConfig{}};
  constexpr std::uint32_t kSessions = 1000;
  const PreActions* first = nullptr;
  for (std::uint32_t i = 0; i < kSessions; ++i) {
    SessionEntry* e = t.find_or_create(key_n(i), 0);
    ASSERT_NE(e, nullptr);
    const PreActions& stored = t.set_pre_actions(*e, pre_n(7));
    if (first == nullptr) first = &stored;
    EXPECT_EQ(&stored, first);
  }
  EXPECT_EQ(t.pre_action_pool().live(), 1u);
  const SessionEntry* e = t.find(key_n(0));
  EXPECT_EQ(t.pre_action_pool().refs(e->pre_actions), kSessions);
  // Re-storing the same value keeps the entry and the count.
  t.set_pre_actions(*t.find(key_n(1)), pre_n(7));
  EXPECT_EQ(t.pre_action_pool().live(), 1u);
  EXPECT_EQ(t.pre_action_pool().refs(e->pre_actions), kSessions);
  // A different value is a second entry; the old one loses a reference.
  t.set_pre_actions(*t.find(key_n(1)), pre_n(8));
  EXPECT_EQ(t.pre_action_pool().live(), 2u);
  EXPECT_EQ(t.pre_action_pool().refs(e->pre_actions), kSessions - 1);
}

TEST(SessionRecord, StoredPreActionsKeepTheirAddressAcrossPoolGrowth) {
  SessionTable t{SessionTableConfig{}};
  SessionEntry* anchor = t.find_or_create(key_n(0), 0);
  const PreActions* stored = &t.set_pre_actions(*anchor, pre_n(1));
  // Thousands of distinct values grow the pool by many chunks and rebuild
  // its dedup index several times; churn frees and reuses slots too.
  for (std::uint32_t i = 1; i < 5000; ++i) {
    SessionEntry* e = t.find_or_create(key_n(i), 0);
    ASSERT_NE(e, nullptr);
    t.set_pre_actions(*e, pre_n(1000 + i));
    if (i % 3 == 0) t.reset_pre_actions(*e);
  }
  EXPECT_GT(t.pre_action_pool().live(), 3000u);
  EXPECT_EQ(t.pre_actions(*anchor), stored);
  EXPECT_EQ(*stored, pre_n(1));
}

TEST(SessionRecord, ValuesThatShareAHashStayDistinct) {
  // The pool hashes the rule version, next hops and NAT rewrites only, so
  // these values, which differ in the verdict, rate limit or stats mode
  // alone, all land on one probe chain and are told apart by the compare.
  std::vector<PreActions> values;
  for (std::uint32_t i = 0; i < 12; ++i) {
    PreActions p = pre_n(3);
    p.rx.acl_verdict = i % 2 ? flow::Verdict::kDrop : flow::Verdict::kAccept;
    p.tx.rate_limit_kbps = i / 2 % 3;
    p.rx.stats_mode = static_cast<flow::StatsMode>(i / 6);
    values.push_back(p);
  }
  PreActionPool pool;
  std::vector<PreActionPool::Handle> handles;
  for (const PreActions& v : values) handles.push_back(pool.acquire(v));
  ASSERT_EQ(pool.live(), values.size());
  // Releasing from the middle of the chain keeps every other value found.
  for (std::size_t i = 0; i < values.size(); i += 3) pool.release(handles[i]);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i % 3 == 0) continue;
    EXPECT_EQ(pool.acquire(values[i]), handles[i]) << "value " << i;
    EXPECT_EQ(pool.refs(handles[i]), 2u);
    EXPECT_EQ(pool.get(handles[i]), values[i]);
  }
  EXPECT_EQ(pool.live(), values.size() - 4);
}

TEST(SessionRecord, PoolEmptiesOnEraseAgingResetInvalidateAndClear) {
  SessionTable t{SessionTableConfig{.established_ttl = common::seconds(1)}};
  const auto fill = [&](common::TimePoint now) {
    for (std::uint32_t i = 0; i < 100; ++i) {
      SessionEntry* e = t.find_or_create(key_n(i), now);
      ASSERT_NE(e, nullptr);
      t.set_pre_actions(*e, pre_n(i % 5));
    }
    ASSERT_EQ(t.pre_action_pool().live(), 5u);
  };

  fill(0);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_TRUE(t.erase(key_n(i)));
  EXPECT_EQ(t.pre_action_pool().live(), 0u);

  fill(0);
  EXPECT_EQ(t.age_out(common::seconds(2)), 100u);
  EXPECT_EQ(t.pre_action_pool().live(), 0u);

  fill(common::seconds(2));
  for (std::uint32_t i = 0; i < 100; ++i) t.reset_pre_actions(*t.find(key_n(i)));
  EXPECT_EQ(t.pre_action_pool().live(), 0u);
  EXPECT_EQ(t.size(), 100u);

  fill(common::seconds(2));
  t.invalidate_pre_actions();
  EXPECT_EQ(t.pre_action_pool().live(), 0u);
  EXPECT_EQ(t.size(), 100u);
  EXPECT_FALSE(t.find(key_n(3))->has_pre_actions());

  fill(common::seconds(2));
  t.clear();
  EXPECT_EQ(t.pre_action_pool().live(), 0u);
  EXPECT_EQ(t.size(), 0u);

  // The FE flow-cache shape: invalidation erases the entries outright.
  SessionTable cache{SessionTableConfig{.store_state = false}};
  for (std::uint32_t i = 0; i < 10; ++i) {
    cache.set_pre_actions(*cache.find_or_create(key_n(i), 0), pre_n(i));
  }
  EXPECT_EQ(cache.pre_action_pool().live(), 10u);
  cache.invalidate_pre_actions();
  EXPECT_EQ(cache.pre_action_pool().live(), 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SessionRecord, DatapathFlowsOfOneVnicShareOnePreAction) {
  core::TestbedConfig cfg;
  cfg.num_vswitches = 2;
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  core::Testbed bed(cfg);
  constexpr std::uint32_t kVpc = 9;
  vswitch::VnicConfig a;
  a.id = 1;
  a.addr = tables::OverlayAddr{kVpc, net::Ipv4Addr(10, 0, 0, 1)};
  bed.add_vnic(0, a);
  vswitch::VnicConfig b;
  b.id = 2;
  b.addr = tables::OverlayAddr{kVpc, net::Ipv4Addr(10, 0, 0, 2)};
  bed.add_vnic(1, b);
  constexpr int kFlows = 50;
  for (int f = 0; f < kFlows; ++f) {
    const net::FiveTuple ft{a.addr.ip, b.addr.ip,
                            static_cast<std::uint16_t>(20000 + f), 80,
                            net::IpProto::kTcp};
    bed.vswitch(0).from_vm(
        1, net::make_tcp_packet(ft, net::TcpFlags{.syn = true}, 0, kVpc));
  }
  bed.run_for(common::milliseconds(10));
  const SessionTable& sender = bed.vswitch(0).sessions();
  ASSERT_EQ(sender.size(), static_cast<std::size_t>(kFlows));
  EXPECT_EQ(sender.pre_action_pool().live(), 1u);
  std::size_t with_pre = 0;
  sender.for_each([&](const SessionKey&, const SessionEntry& e) {
    with_pre += e.has_pre_actions();
  });
  EXPECT_EQ(with_pre, static_cast<std::size_t>(kFlows));
}

}  // namespace
}  // namespace nezha
