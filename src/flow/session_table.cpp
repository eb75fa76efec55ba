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
  return net::flow_hash(key.canonical_ft,
                        0x9e3779b97f4a7c15ull ^ key.vpc_id);
}

std::uint32_t SessionTable::find_slot(const SessionKey& key,
                                      std::uint64_t h) const {
  const auto tag = static_cast<std::uint32_t>(h);
  for (std::size_t i = h & index_mask_;; i = (i + 1) & index_mask_) {
    const Cell& cell = index_[i];
    if (cell.slot == kEmpty) return kEmpty;
    if (cell.hash_tag == tag && key_at(cell.slot) == key) {
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
    __builtin_prefetch(&key_at(cell.slot));
    __builtin_prefetch(&node_at(cell.slot).entry);
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

SessionTable::Ref SessionTable::wheel_stamp(std::uint32_t slot, Node& node,
                                            std::int64_t bucket) {
  node.wheel_bucket = bucket;
  ++node.wheel_seq;
  return Ref{slot, node.gen, node.wheel_seq};
}

void SessionTable::wheel_push(std::int64_t bucket, Ref ref) {
  // A shrink below the drain cursor (touch() after FIN/RST) re-opens that
  // bucket; lowering the floor keeps the next sweep exact.
  if (bucket < wheel_floor_) wheel_floor_ = bucket;
  wheel_cell(bucket).push_back(ref);
}

void SessionTable::wheel_enqueue(std::uint32_t slot, std::int64_t bucket) {
  wheel_push(bucket, wheel_stamp(slot, node_at(slot), bucket));
}

void SessionTable::free_node(std::uint32_t slot) {
  Node& node = node_at(slot);
  node.live = false;
  node.entry = SessionEntry{};
  ++node.gen;  // invalidates any wheel refs still pointing here
  free_.push_back(slot);
  --size_;
}

SessionEntry* SessionTable::find(const SessionKey& key) {
  const std::uint32_t slot = find_slot(key, hash_of(key));
  return slot == kEmpty ? nullptr : &node_at(slot).entry;
}

const SessionEntry* SessionTable::find(const SessionKey& key) const {
  const std::uint32_t slot = find_slot(key, hash_of(key));
  return slot == kEmpty ? nullptr : &node_at(slot).entry;
}

SessionEntry* SessionTable::find_or_create(const SessionKey& key,
                                           common::TimePoint now) {
  return find_or_create_gated(key, now, nullptr, nullptr);
}

SessionEntry* SessionTable::find_or_create_gated(const SessionKey& key,
                                                 common::TimePoint now,
                                                 bool (*gate)(void*),
                                                 void* gate_ctx) {
  const std::uint64_t h = hash_of(key);
  if (const std::uint32_t slot = find_slot(key, h); slot != kEmpty) {
    return &node_at(slot).entry;
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
      key_chunks_.push_back(std::make_unique<KeyChunk>());
      key_chunks_.back()->reserve(kChunkSize);
    }
    chunks_.back()->emplace_back();
    key_chunks_.back()->emplace_back();
    slot = static_cast<std::uint32_t>((chunks_.size() - 1) * kChunkSize +
                                      chunks_.back()->size() - 1);
  }
  Node& node = node_at(slot);
  key_at(slot) = key;
  node.hash = h;
  node.live = true;
  node.entry.created_at = now;
  node.entry.state.last_active = now;
  node.entry.table_slot = slot;
  index_insert(h, slot);
  ++size_;
  // Conservative first wheel visit: the entry's TTL may shrink to min_ttl_
  // via direct state mutation before the first sweep sees it; the visit
  // recomputes the exact deadline and re-queues.
  wheel_enqueue(slot, bucket_of(now + min_ttl_));
  return &node.entry;
}

bool SessionTable::erase(const SessionKey& key) {
  const std::uint64_t h = hash_of(key);
  const std::uint32_t slot = find_slot(key, h);
  if (slot == kEmpty) return false;
  index_erase(slot, h);
  free_node(slot);
  return true;
}

void SessionTable::clear() {
  chunks_.clear();
  key_chunks_.clear();
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
    for (Node& node : *chunk) {
      if (node.live) node.entry.pre_actions.reset();
    }
  }
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
  const std::uint32_t slot = entry->table_slot;
  Node& node = node_at(slot);
  if (!node.live || &node.entry != entry) return;  // stale pointer
  const std::int64_t b = bucket_of(deadline_of(node));
  // Deadline extensions resolve lazily at the next visit; only a shrink
  // needs an earlier queue position to stay exact across sweeps.
  if (b < node.wheel_bucket) wheel_enqueue(slot, b);
}

std::size_t SessionTable::drain_cell(std::vector<Ref>& cell,
                                     common::TimePoint now,
                                     const EvictFn& on_evict) {
  // Two-stage prefetch ahead of the walk: the node kPrefetchDistance refs
  // out has landed by now, so its hash names the index cell an eviction
  // would probe; the node twice as far out starts loading. Each ref hits a
  // random slab node, and the visit logic hides most of both misses.
  constexpr std::size_t kPrefetchDistance = 8;
  const std::size_t n = cell.size();
  const std::size_t chunks = chunks_.size();
  std::size_t removed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 2 * kPrefetchDistance < n &&
        cell[i + 2 * kPrefetchDistance].slot / kChunkSize < chunks) {
      __builtin_prefetch(&node_at(cell[i + 2 * kPrefetchDistance].slot));
    }
    if (i + kPrefetchDistance < n &&
        cell[i + kPrefetchDistance].slot / kChunkSize < chunks) {
      __builtin_prefetch(
          &index_[node_at(cell[i + kPrefetchDistance].slot).hash &
                  index_mask_]);
    }
    const Ref& ref = cell[i];
    if (ref.slot / kChunkSize >= chunks) continue;
    Node& node = node_at(ref.slot);
    if (!node.live || node.gen != ref.gen || node.wheel_seq != ref.seq) {
      continue;  // erased, recycled, or superseded by a later enqueue
    }
    const common::TimePoint deadline = deadline_of(node);
    if (deadline <= now) {
      if (on_evict) on_evict(key_at(ref.slot), node.entry);
      index_erase(ref.slot, node.hash);
      free_node(ref.slot);
      ++removed;
    } else {
      // Survivor (or a ring collision from a future bucket): re-queue it
      // while the node is hot, but defer the push so the drain loop never
      // mutates the cell it iterates; a deadline still in a drained bucket
      // is revisited by the next sweep.
      const std::int64_t bucket = bucket_of(deadline);
      requeue_.push_back(Requeue{bucket, wheel_stamp(ref.slot, node, bucket)});
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
