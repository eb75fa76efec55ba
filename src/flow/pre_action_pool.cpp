#include "src/flow/pre_action_pool.h"

#include <algorithm>
#include <utility>

#include "src/net/five_tuple.h"

namespace nezha::flow {

std::uint64_t PreActionPool::hash_of(const PreActions& value) {
  // Folds the fields that tell values apart: the rule version, each
  // direction's next hop and NAT rewrite. Equal values hash equally; values
  // that differ only elsewhere share a hash and are told apart by the
  // compare in find().
  const auto word = [](const DirPreAction& d) {
    return (std::uint64_t{d.next_hop.ip.value()} << 32) ^
           (std::uint64_t{d.nat_ip.value()} << 16) ^ d.nat_port;
  };
  std::uint64_t h = net::flow_hash_mix64(0x243f6a8885a308d3ull ^
                                         value.rule_version);
  h = net::flow_hash_mix64(h ^ word(value.tx));
  return net::flow_hash_mix64(h ^ word(value.rx));
}

PreActionPool::Handle PreActionPool::find(const PreActions& value,
                                          std::uint64_t h) const {
  if (index_.empty()) return kNone;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = h & mask;; i = (i + 1) & mask) {
    const Handle cell = index_[i];
    if (cell == kNone) return kNone;
    const Slot& s = slot(cell);
    if (s.hash == h && s.value == value) return cell;
  }
}

void PreActionPool::index_insert(std::uint64_t h, Handle handle) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = h & mask;
  while (index_[i] != kNone) i = (i + 1) & mask;
  index_[i] = handle;
}

void PreActionPool::index_erase(Handle handle) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = slot(handle).hash & mask;
  while (index_[i] != handle) i = (i + 1) & mask;
  // Backward-shift deletion, as in the session table's index.
  for (std::size_t j = (i + 1) & mask; index_[j] != kNone;
       j = (j + 1) & mask) {
    const std::size_t home = slot(index_[j]).hash & mask;
    if (((j - home) & mask) >= ((j - i) & mask)) {
      index_[i] = index_[j];
      i = j;
    }
  }
  index_[i] = kNone;
}

PreActionPool::Handle PreActionPool::acquire(const PreActions& value) {
  const std::uint64_t h = hash_of(value);
  if (const Handle found = find(value, h); found != kNone) {
    ++slot(found).refs;
    return found;
  }
  // Keep the index at most half full (it holds few, fat-keyed values).
  if ((live_ + 1) * 2 > index_.size()) {
    const std::vector<Handle> old =
        std::exchange(index_, std::vector<Handle>(
                                  index_.empty() ? 16 : index_.size() * 2,
                                  kNone));
    for (const Handle cell : old) {
      if (cell != kNone) index_insert(slot(cell).hash, cell);
    }
  }
  Handle handle;
  if (!free_.empty()) {
    handle = free_.back();
    free_.pop_back();
  } else {
    if (used_ == chunks_.size() * kChunkSize) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
    handle = ++used_;
  }
  Slot& s = slot(handle);
  s.value = value;
  s.hash = h;
  s.refs = 1;
  index_insert(h, handle);
  ++live_;
  return handle;
}

void PreActionPool::release(Handle h) {
  if (h == kNone) return;
  Slot& s = slot(h);
  if (--s.refs != 0) return;
  index_erase(h);
  free_.push_back(h);
  --live_;
}

void PreActionPool::clear() {
  // Slots are handed out again from the first chunk; no chunk is freed.
  used_ = 0;
  free_.clear();
  std::fill(index_.begin(), index_.end(), kNone);
  live_ = 0;
}

}  // namespace nezha::flow
