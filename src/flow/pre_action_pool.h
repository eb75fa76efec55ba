// Pre-action pool: every distinct PreActions value a session table caches,
// stored once.
//
// A rule chain hands most flows of a vNIC the same bidirectional pre-actions
// (HNLB keeps only an action index per flow for the same reason), so a
// session record holds a 4-byte handle instead of a ~92-byte value. The pool
// deduplicates on store and reference-counts each value: a record's handle is
// one reference, released when the record drops its pre-actions (erase,
// eviction, reset, invalidation, clear).
//
// Values live in fixed-size chunks that are never freed or moved while the
// pool exists, so growth never invalidates a reference returned by get().
// Such a reference reads its value only while some holder keeps the handle:
// once the last reference is released (or the pool cleared), the slot is
// reused and the next distinct acquire() overwrites it. Freed slots and
// index cells are reused, so a pool whose distinct-value count has stopped
// growing allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/flow/pre_actions.h"

namespace nezha::flow {

class PreActionPool {
 public:
  using Handle = std::uint32_t;
  static constexpr Handle kNone = 0;

  /// Takes one reference to `value`, storing it unless an equal value is
  /// already held. Never returns kNone.
  Handle acquire(const PreActions& value);
  /// Drops one reference; the value's slot is freed when none remain.
  /// Releasing kNone is a no-op.
  void release(Handle h);

  const PreActions& get(Handle h) const { return slot(h).value; }
  std::uint32_t refs(Handle h) const { return slot(h).refs; }

  /// Distinct values currently held.
  std::size_t live() const { return live_; }

  /// Drops every value at once. The chunks stay, but their slots are handed
  /// out again, so earlier references must not be read afterwards.
  void clear();

 private:
  static constexpr std::size_t kChunkSize = 64;

  struct Slot {
    PreActions value;
    std::uint64_t hash = 0;
    std::uint32_t refs = 0;
  };

  static std::uint64_t hash_of(const PreActions& value);
  Slot& slot(Handle h) {
    return chunks_[(h - 1) / kChunkSize][(h - 1) % kChunkSize];
  }
  const Slot& slot(Handle h) const {
    return chunks_[(h - 1) / kChunkSize][(h - 1) % kChunkSize];
  }
  Handle find(const PreActions& value, std::uint64_t h) const;
  void index_insert(std::uint64_t h, Handle handle);
  void index_erase(Handle handle);

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t used_ = 0;  // slots ever handed out
  std::vector<Handle> free_;
  /// Open-addressing dedup index of live handles (kNone = empty cell),
  /// placed by each slot's value hash; backward-shift erase, no tombstones.
  std::vector<Handle> index_;
  std::size_t live_ = 0;
};

}  // namespace nezha::flow
