#include "src/flow/session_table.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/net/five_tuple.h"

namespace nezha::flow {

bool SessionEntry::qos_admit(std::uint32_t kbps, std::size_t bits,
                             common::TimePoint now) {
  if (kbps == 0) return true;
  const double rate_bps = static_cast<double>(kbps) * 1000.0;
  const double burst_bits = rate_bps;  // one-second burst
  if (qos_refilled_at == 0) {
    qos_tokens_bits = burst_bits;
  } else {
    qos_tokens_bits += rate_bps * common::to_seconds(now - qos_refilled_at);
    if (qos_tokens_bits > burst_bits) qos_tokens_bits = burst_bits;
  }
  qos_refilled_at = now;
  if (qos_tokens_bits < static_cast<double>(bits)) return false;
  qos_tokens_bits -= static_cast<double>(bits);
  return true;
}

namespace {

std::size_t compute_entry_bytes(const SessionTableConfig& config) {
  std::size_t n = kSessionKeyBytes;
  if (config.store_pre_actions) n += kPreActionsBytes;
  if (config.store_state) n += kStateAllocBytes;
  return n;
}

constexpr std::size_t kInitialIndexSize = 64;  // power of two

}  // namespace

SessionTable::SessionTable(SessionTableConfig config)
    : config_(config), entry_bytes_(compute_entry_bytes(config)) {
  // Stateless tables have one fixed TTL; stateful ones can shrink down to
  // closed_ttl at any moment, so that is the conservative horizon.
  min_ttl_ = config_.established_ttl;
  if (config_.store_state) {
    min_ttl_ = std::min({config_.established_ttl, config_.embryonic_ttl,
                         config_.closed_ttl});
  }
  if (min_ttl_ < 1) min_ttl_ = 1;
  wheel_width_ = min_ttl_;
  // Ring sized to span the longest TTL plus sweep slack; anything wider
  // (pathological TTL ratios, long sweep gaps) degrades to early visits of
  // colliding buckets, not to missed evictions.
  const std::int64_t span = config_.established_ttl / wheel_width_ + 4;
  std::size_t ring = 8;
  while (ring < static_cast<std::size_t>(span) && ring < 4096) ring *= 2;
  wheel_ring_.resize(ring);
  wheel_mask_ = ring - 1;
  index_.assign(kInitialIndexSize, Cell{});
  index_mask_ = kInitialIndexSize - 1;
}

std::uint64_t SessionTable::hash_of(const SessionKey& key) {
  // Two 64x64->128 multiply folds over the 20-byte key (the wyhash "mum"
  // step): placement only, so it need not match net::flow_hash, just spread
  // the low bits the index and its 32-bit tags use.
  const auto& ft = key.canonical_ft;
  const std::uint64_t ips =
      static_cast<std::uint64_t>(ft.src_ip.value()) << 32 | ft.dst_ip.value();
  const std::uint64_t rest = static_cast<std::uint64_t>(key.vpc_id) << 32 |
                             std::uint64_t{ft.src_port} << 16 | ft.dst_port;
  const auto mum = [](std::uint64_t a, std::uint64_t b) {
    const unsigned __int128 r = static_cast<unsigned __int128>(a) * b;
    return static_cast<std::uint64_t>(r >> 64) ^ static_cast<std::uint64_t>(r);
  };
  const std::uint64_t h =
      mum(ips ^ 0xa0761d6478bd642full, rest ^ 0xe7037ed1a0b428dbull);
  return mum(h ^ static_cast<std::uint64_t>(ft.proto),
             0x8ebc6af09c88c6e3ull);
}

std::uint32_t SessionTable::find_slot(const SessionKey& key,
                                      std::uint64_t h) const {
  const auto tag = static_cast<std::uint32_t>(h);
  for (std::size_t i = h & index_mask_;; i = (i + 1) & index_mask_) {
    const Cell& cell = index_[i];
    if (cell.slot == kEmpty) return kEmpty;
    if (cell.hash_tag == tag && entry_at(cell.slot).key == key) {
      return cell.slot;
    }
  }
}

std::uint64_t SessionTable::prefetch_index(const SessionKey& key) const {
  const std::uint64_t h = hash_of(key);
  __builtin_prefetch(&index_[h & index_mask_]);
  return h;
}

void SessionTable::prefetch_entry(std::uint64_t h) const {
  const Cell& cell = index_[h & index_mask_];
  if (cell.slot != kEmpty && cell.slot / kChunkSize < chunks_.size()) {
    __builtin_prefetch(&entry_at(cell.slot));
  }
}

void SessionTable::index_insert(std::uint64_t h, std::uint32_t slot) {
  for (std::size_t i = h & index_mask_;; i = (i + 1) & index_mask_) {
    Cell& cell = index_[i];
    if (cell.slot == kEmpty) {
      cell = Cell{static_cast<std::uint32_t>(h), slot};
      return;
    }
  }
}

void SessionTable::index_erase(std::uint32_t slot, std::uint64_t h) {
  // The caller already holds the slot, so the cell is found by slot alone:
  // no tag or key compare, and the key chunk is never loaded.
  std::size_t i = h & index_mask_;
  for (; index_[i].slot != slot; i = (i + 1) & index_mask_) {
    if (index_[i].slot == kEmpty) return;  // not present
  }
  // Backward-shift deletion: walk the cluster after the hole and pull back
  // every cell whose home position lies at or before the hole. Leaves no
  // tombstones, so churn never degrades probes or forces a rebuild. The
  // home position comes from the cell's own tag (rebuild_index keeps the
  // mask within 32 bits), so the walk never reads the slab.
  for (std::size_t j = (i + 1) & index_mask_;; j = (j + 1) & index_mask_) {
    const Cell& cell = index_[j];
    if (cell.slot == kEmpty) break;
    const std::size_t home = cell.hash_tag & index_mask_;
    if (((j - home) & index_mask_) >= ((j - i) & index_mask_)) {
      index_[i] = cell;
      i = j;
    }
  }
  index_[i] = Cell{};
}

void SessionTable::rebuild_index(std::size_t new_size) {
  // A cell's home bucket is read from its 32-bit tag, which is only the
  // full hash's home while the index has at most 2^32 cells.
  if (new_size > (std::uint64_t{1} << 32)) {
    throw std::length_error("SessionTable: index beyond 2^32 cells");
  }
  const std::vector<Cell> old =
      std::exchange(index_, std::vector<Cell>(new_size, Cell{}));
  index_mask_ = new_size - 1;
  // Re-insert from the old cells: their tags carry every placement bit
  // the new mask needs, so the slab is not walked.
  for (const Cell& cell : old) {
    if (cell.slot != kEmpty) index_insert(cell.hash_tag, cell.slot);
  }
}

SessionTable::Ref SessionTable::wheel_stamp(SessionEntry& entry,
                                            std::int64_t bucket) {
  entry.wheel_bucket = bucket;
  entry.wheel_gen += 2;  // keeps the parity: still live
  return Ref{entry.table_slot, entry.wheel_gen};
}

void SessionTable::wheel_push(std::int64_t bucket, Ref ref) {
  // A shrink below the drain cursor (touch() after FIN/RST) re-opens that
  // bucket; lowering the floor keeps the next sweep exact.
  if (bucket < wheel_floor_) wheel_floor_ = bucket;
  wheel_cell(bucket).push_back(ref);
}

void SessionTable::wheel_enqueue(SessionEntry& entry, std::int64_t bucket) {
  wheel_push(bucket, wheel_stamp(entry, bucket));
}

void SessionTable::free_entry(SessionEntry& entry) {
  // Only the first line is written; create() re-initialises the rest.
  pool_.release(entry.pre_actions);
  entry.pre_actions = PreActionPool::kNone;
  ++entry.wheel_gen;  // even: free, and every wheel ref to it is stale
  free_.push_back(entry.table_slot);
  --size_;
}

SessionEntry* SessionTable::find(const SessionKey& key) {
  const std::uint32_t slot = find_slot(key, hash_of(key));
  return slot == kEmpty ? nullptr : &entry_at(slot);
}

const SessionEntry* SessionTable::find(const SessionKey& key) const {
  const std::uint32_t slot = find_slot(key, hash_of(key));
  return slot == kEmpty ? nullptr : &entry_at(slot);
}

SessionEntry* SessionTable::find_or_create(const SessionKey& key,
                                           common::TimePoint now) {
  return find_or_create_gated(key, hash_of(key), now, nullptr, nullptr);
}

SessionEntry* SessionTable::find_or_create_gated(const SessionKey& key,
                                                 std::uint64_t h,
                                                 common::TimePoint now,
                                                 bool (*gate)(void*),
                                                 void* gate_ctx) {
  if (const std::uint32_t slot = find_slot(key, h); slot != kEmpty) {
    return &entry_at(slot);
  }
  if (full()) {
    ++insert_failures_;
    return nullptr;
  }
  if (gate != nullptr && !gate(gate_ctx)) return nullptr;
  // Keep live load below 3/4 so probe chains stay short. Backward-shift
  // erases leave no tombstones, so rebuilds happen only on genuine growth
  // of the concurrent working set — churn never triggers one.
  if ((size_ + 1) * 4 > index_.size() * 3) {
    rebuild_index(index_.size() * 2);
  }

  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    if (chunks_.empty() || chunks_.back()->size() == kChunkSize) {
      chunks_.push_back(std::make_unique<Chunk>());
      chunks_.back()->reserve(kChunkSize);
    }
    chunks_.back()->emplace_back();
    slot = static_cast<std::uint32_t>((chunks_.size() - 1) * kChunkSize +
                                      chunks_.back()->size() - 1);
  }
  SessionEntry& entry = entry_at(slot);
  entry.key = key;
  entry.table_slot = slot;
  ++entry.wheel_gen;  // odd: live
  entry.state = SessionState{};
  entry.state.last_active = now;
  entry.qos_tokens_bits = 0;
  entry.qos_refilled_at = 0;
  index_insert(h, slot);
  ++size_;
  // Conservative first wheel visit: the entry's TTL may shrink to min_ttl_
  // via direct state mutation before the first sweep sees it; the visit
  // recomputes the exact deadline and re-queues.
  wheel_enqueue(entry, bucket_of(now + min_ttl_));
  return &entry;
}

bool SessionTable::erase(const SessionKey& key) {
  const std::uint64_t h = hash_of(key);
  const std::uint32_t slot = find_slot(key, h);
  if (slot == kEmpty) return false;
  index_erase(slot, h);
  free_entry(entry_at(slot));
  return true;
}

void SessionTable::clear() {
  chunks_.clear();
  pool_.clear();
  free_.clear();
  for (auto& cell : wheel_ring_) cell.clear();
  wheel_floor_ = 0;
  index_.assign(kInitialIndexSize, Cell{});
  index_mask_ = kInitialIndexSize - 1;
  size_ = 0;
}

void SessionTable::invalidate_pre_actions() {
  if (!config_.store_state) {
    // Pure flow cache: the whole entry is the pre-action.
    clear();
    return;
  }
  for (auto& chunk : chunks_) {
    for (SessionEntry& entry : *chunk) entry.pre_actions = PreActionPool::kNone;
  }
  pool_.clear();
}

const PreActions& SessionTable::set_pre_actions(SessionEntry& entry,
                                                const PreActions& value) {
  // Acquire before release: re-storing an equal value keeps its slot.
  const PreActionPool::Handle h = pool_.acquire(value);
  pool_.release(entry.pre_actions);
  entry.pre_actions = h;
  return pool_.get(h);
}

void SessionTable::reset_pre_actions(SessionEntry& entry) {
  pool_.release(entry.pre_actions);
  entry.pre_actions = PreActionPool::kNone;
}

common::Duration SessionTable::ttl_of(const SessionEntry& entry) const {
  if (!config_.store_state) return config_.established_ttl;
  if (entry.state.fsm.closed()) return config_.closed_ttl;
  if (entry.state.fsm.embryonic() &&
      entry.state.fsm.state() != TcpFsmState::kNone) {
    return config_.embryonic_ttl;
  }
  return config_.established_ttl;
}

void SessionTable::touch(const SessionEntry* entry) {
  SessionEntry& e = entry_at(entry->table_slot);
  if (!e.live() || &e != entry) return;  // stale pointer
  const std::int64_t b = bucket_of(deadline_of(e));
  // Deadline extensions resolve lazily at the next visit; only a shrink
  // needs an earlier queue position to stay exact across sweeps.
  if (b < e.wheel_bucket) wheel_enqueue(e, b);
}

std::size_t SessionTable::drain_cell(std::vector<Ref>& cell,
                                     common::TimePoint now,
                                     const EvictFn& on_evict) {
  // Two-stage prefetch ahead of the walk: the entry kPrefetchDistance refs
  // out has landed by now, so its key names the index cell an eviction
  // would probe; the entry twice as far out starts loading. Each ref hits a
  // random slab record, and the visit logic hides most of both misses. A
  // visit reads only the record's first line.
  constexpr std::size_t kPrefetchDistance = 8;
  const std::size_t n = cell.size();
  const std::size_t chunks = chunks_.size();
  std::size_t removed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 2 * kPrefetchDistance < n &&
        cell[i + 2 * kPrefetchDistance].slot / kChunkSize < chunks) {
      __builtin_prefetch(&entry_at(cell[i + 2 * kPrefetchDistance].slot));
    }
    if (i + kPrefetchDistance < n &&
        cell[i + kPrefetchDistance].slot / kChunkSize < chunks) {
      __builtin_prefetch(&index_[hash_of(entry_at(cell[i + kPrefetchDistance]
                                                      .slot)
                                             .key) &
                                 index_mask_]);
    }
    const Ref& ref = cell[i];
    if (ref.slot / kChunkSize >= chunks) continue;
    SessionEntry& entry = entry_at(ref.slot);
    if (entry.wheel_gen != ref.gen) {
      continue;  // erased, recycled, or superseded by a later enqueue
    }
    const common::TimePoint deadline = deadline_of(entry);
    if (deadline <= now) {
      if (on_evict) on_evict(entry.key, entry);
      index_erase(ref.slot, hash_of(entry.key));
      free_entry(entry);
      ++removed;
    } else {
      // Survivor (or a ring collision from a future bucket): re-queue it
      // while the line is hot, but defer the push so the drain loop never
      // mutates the cell it iterates; a deadline still in a drained bucket
      // is revisited by the next sweep.
      const std::int64_t bucket = bucket_of(deadline);
      requeue_.push_back(Requeue{bucket, wheel_stamp(entry, bucket)});
    }
  }
  cell.clear();  // retains capacity
  return removed;
}

std::size_t SessionTable::age_out(common::TimePoint now,
                                  const EvictFn& on_evict) {
  const std::int64_t now_bucket = bucket_of(now);
  if (now_bucket < wheel_floor_) return 0;  // nothing can be due yet
  std::size_t removed = 0;
  const std::size_t span =
      static_cast<std::size_t>(now_bucket - wheel_floor_) + 1;
  if (span >= wheel_ring_.size()) {
    // Sweep gap exceeded the ring: every cell is potentially due. A single
    // full pass visits each ref once (future ones just re-queue).
    for (auto& cell : wheel_ring_) removed += drain_cell(cell, now, on_evict);
  } else {
    for (std::int64_t b = wheel_floor_; b <= now_bucket; ++b) {
      removed += drain_cell(wheel_cell(b), now, on_evict);
    }
  }
  wheel_floor_ = now_bucket + 1;
  // The survivors are already stamped; only their refs move. Every buffer
  // here keeps its capacity, so steady-state sweeps allocate nothing.
  for (const Requeue& r : requeue_) wheel_push(r.bucket, r.ref);
  requeue_.clear();
  return removed;
}

}  // namespace nezha::flow
