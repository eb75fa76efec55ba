// Session table / flow cache.
//
// One class serves three deployment shapes (memory-accounted differently):
//  * traditional vSwitch: entries hold cached pre-actions AND state;
//  * Nezha BE:            entries hold state only (tables are remote);
//  * Nezha FE flow cache: entries hold pre-actions only (stateless).
//
// Memory accounting mirrors §2.2.2: key ≈ 16B (5-tuple + VPC), pre-actions
// ≈ 48B, state 64B fixed allocation — O(100B) per full entry. A byte
// capacity bounds the table; insertion fails when full, which is exactly the
// #concurrent-flows bottleneck.
//
// Storage: one 128-byte, 64-byte-aligned record per session (SessionEntry)
// in fixed-size slab chunks (pointers returned by find/find_or_create stay
// valid until the entry is erased), indexed by an open-addressing probe
// table over a 64-bit key hash — no per-node allocation or pointer chasing
// on the lookup hot path. The record's first cache line holds everything a
// probe hit, touch() and an aging visit read (key, wheel stamp, slot, FSM,
// decap IP, last_active, a pre-actions handle); the second holds the flow
// counters and the QoS bucket. Pre-actions live once per distinct value in
// the table's PreActionPool. Index maintenance never reads the slab: each
// cell's 32-bit hash tag gives its home bucket (the index is capped at 2^32
// cells), erase finds its cell by slot, and a rebuild re-inserts from the
// old cells.
//
// Aging: a lazy TTL wheel. Every entry is queued in the bucket of its
// earliest *possible* deadline (TTLs are FSM-dependent, so that is
// last_active + min TTL at creation); age_out drains only buckets at or
// before `now`, recomputes each visited entry's exact deadline, and
// re-queues survivors at that deadline's bucket. Evictions are therefore
// exact while a sweep touches only expired candidates, not the whole table.
// A sweep touches each visited record's first line once — a survivor is
// re-stamped while that line is hot and only its ref is pushed after the
// drain — and reuses its buffers, so steady-state sweeps allocate nothing.
// External code that mutates an entry's state directly should call touch()
// afterwards so a TTL that *shrank* (e.g. FIN/RST → closed) re-queues the
// entry earlier; refreshes that extend the deadline need no notification.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/time.h"
#include "src/flow/pre_action_pool.h"
#include "src/flow/pre_actions.h"
#include "src/flow/session.h"

namespace nezha::flow {

/// One session's record. Everything before `state.pkts_tx` is the first
/// cache line; the bookkeeping fields are maintained by SessionTable.
struct alignas(64) SessionEntry {
  SessionKey key;
  /// Slab slot backing this entry (lets touch() reach the aging
  /// bookkeeping in O(1)).
  std::uint32_t table_slot = 0;
  /// Bucket of the entry's one live wheel ref.
  std::int64_t wheel_bucket = 0;
  /// Odd while the slot holds a live session: bumped by one on create and
  /// on free, by two on each wheel enqueue. A wheel ref is live only while
  /// it matches, so stale refs (erased, recycled, superseded) skip.
  std::uint32_t wheel_gen = 0;
  /// Cached pre-actions: a handle into the owning table's PreActionPool.
  PreActionPool::Handle pre_actions = PreActionPool::kNone;
  SessionState state;
  /// Token bucket for the QoS pre-action (enforcement metadata, not session
  /// state — it never needs to leave the enforcing node).
  double qos_tokens_bits = 0;
  common::TimePoint qos_refilled_at = 0;

  bool live() const { return (wheel_gen & 1u) != 0; }
  bool has_pre_actions() const {
    return pre_actions != PreActionPool::kNone;
  }

  /// Charges `bits` against the rate limit; returns false (drop) when the
  /// bucket is empty. `kbps` == 0 means unlimited. Burst: one second's
  /// worth of tokens.
  bool qos_admit(std::uint32_t kbps, std::size_t bits, common::TimePoint now);
};

static_assert(alignof(SessionEntry) == 64 && sizeof(SessionEntry) <= 128);
static_assert(offsetof(SessionEntry, state) + offsetof(SessionState, pkts_tx) ==
                  64,
              "the flow counters open the record's second cache line");

struct SessionTableConfig {
  bool store_pre_actions = true;
  bool store_state = true;
  /// Byte budget; 0 means unlimited (useful in unit tests).
  std::size_t capacity_bytes = 0;
  /// Aging TTLs (§7.3: embryonic/SYN sessions age fast; the paper cites an
  /// 8s average lifetime for normal connections).
  common::Duration established_ttl = common::seconds(8);
  common::Duration embryonic_ttl = common::seconds(1);
  common::Duration closed_ttl = common::milliseconds(100);
};

class SessionTable {
 public:
  explicit SessionTable(SessionTableConfig config = {});

  /// Per-entry footprint under this table's configuration.
  std::size_t entry_bytes() const { return entry_bytes_; }

  std::size_t size() const { return size_; }
  std::size_t memory_bytes() const { return size_ * entry_bytes_; }
  std::size_t capacity_bytes() const { return config_.capacity_bytes; }
  bool full() const {
    return config_.capacity_bytes != 0 &&
           memory_bytes() + entry_bytes_ > config_.capacity_bytes;
  }

  /// The table's key hash (placement only: it never reaches an outcome,
  /// since slot order is free-list order and eviction order wheel order).
  static std::uint64_t hash_of(const SessionKey& key);

  SessionEntry* find(const SessionKey& key);
  const SessionEntry* find(const SessionKey& key) const;

  /// Finds or creates an entry; returns nullptr when the table is full.
  SessionEntry* find_or_create(const SessionKey& key, common::TimePoint now);

  /// Single-probe fusion of find() + find_or_create(): on a miss, `gate`
  /// (if set) decides whether creation may proceed — e.g. a memory-pool
  /// reservation — and nullptr is returned when it refuses or the table is
  /// full. The separate find-then-create idiom probes the index twice per
  /// new session; this probes once either way. `h` must be hash_of(key),
  /// which the caller may already hold (e.g. from prefetch_index), so the
  /// key is hashed once per packet.
  SessionEntry* find_or_create_gated(const SessionKey& key, std::uint64_t h,
                                     common::TimePoint now,
                                     bool (*gate)(void*), void* gate_ctx);

  bool erase(const SessionKey& key);
  void clear();

  /// Drops every cached pre-action (rule-table update invalidation, §3.2.2);
  /// state-bearing entries survive, pure flow-cache entries are erased.
  void invalidate_pre_actions();

  /// The entry's cached pre-actions, or nullptr when it holds none. The
  /// pooled copy never moves, but it holds this value only while some entry
  /// still holds its handle: once the last holder drops it (erase,
  /// eviction, reset, invalidate_pre_actions, clear), the next distinct
  /// value stored may overwrite it.
  const PreActions* pre_actions(const SessionEntry& entry) const {
    return entry.has_pre_actions() ? &pool_.get(entry.pre_actions) : nullptr;
  }
  /// Caches `value` as the entry's pre-actions (replacing any it held) and
  /// returns the pooled copy, valid on the same terms as pre_actions().
  const PreActions& set_pre_actions(SessionEntry& entry,
                                    const PreActions& value);
  /// Drops the entry's cached pre-actions (no-op when it holds none).
  void reset_pre_actions(SessionEntry& entry);
  /// The pool of distinct pre-action values this table's entries share.
  const PreActionPool& pre_action_pool() const { return pool_; }

  /// Removes entries idle beyond their FSM-dependent TTL; returns the count.
  /// `on_evict` (optional) observes each removed entry — used by the
  /// vSwitch to release per-entry memory-pool reservations.
  using EvictFn = std::function<void(const SessionKey&, const SessionEntry&)>;
  std::size_t age_out(common::TimePoint now, const EvictFn& on_evict = {});

  /// Re-syncs the aging wheel after the entry's state was mutated in place
  /// (the datapath calls this after state.observe()). Only needed when the
  /// mutation may have *shrunk* the deadline; always safe to call.
  void touch(const SessionEntry* entry);

  /// TTL applicable to an entry (embryonic sessions age fast, §7.3).
  common::Duration ttl_of(const SessionEntry& entry) const;

  std::uint64_t insert_failures() const { return insert_failures_; }

  const SessionTableConfig& config() const { return config_; }

  /// Burst-processing software prefetch (wall-clock only, no behavioral
  /// effect): step 1 computes the probe hash and prefetches the index cell;
  /// step 2 — issued after the other packets' step 1s, so the cell loads
  /// have landed — prefetches the first line (key included) of the entry
  /// the cell points at. A burst
  /// receiver runs step 1 across the whole burst, then step 2, then the
  /// actual per-packet find()s hit warm lines.
  std::uint64_t prefetch_index(const SessionKey& key) const;
  void prefetch_entry(std::uint64_t h) const;

  /// Iteration support for censuses (e.g. the Fig 15 state-size census).
  /// Order is slab order (deterministic for a given operation sequence).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& chunk : chunks_) {
      for (const SessionEntry& entry : *chunk) {
        if (entry.live()) fn(entry.key, entry);
      }
    }
  }

 private:
  static constexpr std::size_t kChunkSize = 512;
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  using Chunk = std::vector<SessionEntry>;

  /// Probe cell: cached hash tag for cheap rejection + slab slot (or
  /// sentinel). The tag is the low 32 bits of the key hash; a tag
  /// collision merely falls through to the key compare. The tag doubles as
  /// the cell's home-bucket source (`hash_tag & index_mask_` equals the
  /// full hash's home while the index has at most 2^32 cells, a bound
  /// rebuild_index enforces), so erase and rebuild maintain the index
  /// without reading the slab. 8 bytes/cell keeps the index cache-resident.
  /// Erases use backward-shift deletion (no tombstones), so session churn
  /// never forces an index rebuild and probe chains stay as short as the
  /// live load.
  struct Cell {
    std::uint32_t hash_tag = 0;
    std::uint32_t slot = kEmpty;
  };

  /// Wheel reference; stale once the entry's wheel_gen moves on.
  struct Ref {
    std::uint32_t slot;
    std::uint32_t gen;
  };
  /// A survivor's ref, already stamped on its entry, waiting for the sweep
  /// to finish draining before it is pushed into its bucket's cell.
  struct Requeue {
    std::int64_t bucket;
    Ref ref;
  };

  SessionEntry& entry_at(std::uint32_t slot) {
    return (*chunks_[slot / kChunkSize])[slot % kChunkSize];
  }
  const SessionEntry& entry_at(std::uint32_t slot) const {
    return (*chunks_[slot / kChunkSize])[slot % kChunkSize];
  }

  std::uint32_t find_slot(const SessionKey& key, std::uint64_t h) const;
  void index_insert(std::uint64_t h, std::uint32_t slot);
  void index_erase(std::uint32_t slot, std::uint64_t h);
  void rebuild_index(std::size_t new_size);

  std::int64_t bucket_of(common::TimePoint deadline) const {
    return deadline / wheel_width_;
  }
  std::vector<Ref>& wheel_cell(std::int64_t bucket) {
    return wheel_ring_[static_cast<std::size_t>(bucket) & wheel_mask_];
  }
  std::size_t drain_cell(std::vector<Ref>& cell, common::TimePoint now,
                         const EvictFn& on_evict);
  common::TimePoint deadline_of(const SessionEntry& entry) const {
    return entry.state.last_active + ttl_of(entry);
  }
  /// Points the entry's only live wheel ref at `bucket` and returns it.
  Ref wheel_stamp(SessionEntry& entry, std::int64_t bucket);
  void wheel_push(std::int64_t bucket, Ref ref);
  void wheel_enqueue(SessionEntry& entry, std::int64_t bucket);
  void free_entry(SessionEntry& entry);

  SessionTableConfig config_;
  std::size_t entry_bytes_;
  /// Minimum TTL any entry can have — the conservative first-visit horizon.
  common::Duration min_ttl_;
  common::Duration wheel_width_;

  std::vector<std::unique_ptr<Chunk>> chunks_;
  PreActionPool pool_;
  std::vector<std::uint32_t> free_;
  std::vector<Cell> index_;
  std::size_t index_mask_ = 0;
  std::size_t size_ = 0;
  /// TTL wheel as a flat ring of bucket cells (power-of-two size covering
  /// the longest TTL plus slack). A cell may transiently hold refs for a
  /// bucket `ring_size` ahead of the drain cursor — an early visit merely
  /// recomputes the deadline and re-queues, so collisions cost work, never
  /// correctness. `wheel_floor_` is the lowest bucket that may still hold
  /// refs; touch() shrinking a deadline below it lowers it back.
  std::vector<std::vector<Ref>> wheel_ring_;
  std::size_t wheel_mask_ = 0;
  std::int64_t wheel_floor_ = 0;
  /// Survivors re-queued by the sweep in progress; empty between sweeps and
  /// reused so its capacity carries over.
  std::vector<Requeue> requeue_;
  std::uint64_t insert_failures_ = 0;
};

}  // namespace nezha::flow
