/// \file flat_index.hpp
/// \brief Lookup-only open-addressing map from node ids to node ids — the
/// global -> local index of the per-rank level stores.
///
/// A per-level store holds a few thousand to a few million resident and
/// ghost ids and translates peer-supplied or row-supplied global ids
/// through its index on every arc it builds. A node-based hash map pays a
/// heap node and a pointer chase per entry; this table keeps keys and
/// values in one flat array (power-of-two capacity, linear probing, load
/// factor at most 1/2), so a lookup touches one or two adjacent cache
/// lines.
///
/// The table has no iteration API on purpose: its slot layout depends on
/// the hash, and nothing that reaches the partition may ever read it in
/// table order. Memory is sized to the keys inserted, never to the id
/// range they come from.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace kappa {

class FlatIndex {
 public:
  FlatIndex() = default;

  /// An empty index that holds \p expected keys without growing.
  explicit FlatIndex(std::size_t expected) { reserve(expected); }

  /// Value stored for \p key; kInvalidNode if the key is absent.
  [[nodiscard]] NodeID find(NodeID key) const {
    if (slots_.empty()) return kInvalidNode;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.key == key) return slot.value;
      if (slot.key == kInvalidNode) return kInvalidNode;
    }
  }

  /// Stores \p key -> \p value unless \p key is present; returns the value
  /// stored for \p key afterwards (the earlier one if it was present).
  /// kInvalidNode is the empty-slot marker and cannot be a key.
  NodeID insert(NodeID key, NodeID value) {
    assert(key != kInvalidNode && "kInvalidNode marks empty slots");
    if (2 * (size_ + 1) > slots_.size()) grow(size_ + 1);
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.key == key) return slot.value;
      if (slot.key == kInvalidNode) {
        slot = {key, value};
        ++size_;
        return value;
      }
    }
  }

  /// Makes room for \p expected keys without further growth.
  void reserve(std::size_t expected) {
    if (2 * expected > slots_.size()) grow(expected);
  }

  /// Number of keys stored.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Number of slots (a power of two, at least twice size()).
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    NodeID key = kInvalidNode;
    NodeID value = kInvalidNode;
  };

  /// Fibonacci hashing: the top bits of a multiplicative hash, so runs of
  /// consecutive ids spread over the whole table.
  [[nodiscard]] std::size_t home(NodeID key) const {
    return static_cast<std::size_t>(
        (std::uint64_t{key} * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  /// Rehashes into the smallest power-of-two capacity that keeps
  /// \p expected keys at load factor 1/2 or below.
  void grow(std::size_t expected) {
    const std::size_t capacity =
        std::bit_ceil(std::max<std::size_t>(2 * expected, 16));
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (const Slot& slot : old) {
      if (slot.key == kInvalidNode) continue;
      std::size_t i = home(slot.key);
      while (slots_[i].key != kInvalidNode) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace kappa
