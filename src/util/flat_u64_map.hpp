// Open-addressing hash map from 64-bit keys to small values.
//
// For maps that gain and lose a key on nearly every operation (the hub's
// per-shard tag rollup sees a new tag with every beat when apps tag beats
// with a counter): slots live in one array, so insert and erase allocate
// nothing. Linear probing with backward-shift erase (no tombstones), and
// the table doubles before it is half full. Not internally synchronized.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hb::util {

template <typename V>
class FlatU64Map {
 public:
  std::size_t size() const { return size_; }

  /// The value under `key`, value-initialized if the key is new.
  V& operator[](std::uint64_t key) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = home(key);
    for (; slots_[i].used; i = next(i)) {
      if (slots_[i].key == key) return slots_[i].value;
    }
    slots_[i] = Slot{key, V{}, true};
    ++size_;
    return slots_[i].value;
  }

  /// The value under `key`, or null.
  V* find(std::uint64_t key) {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key); slots_[i].used; i = next(i)) {
      if (slots_[i].key == key) return &slots_[i].value;
    }
    return nullptr;
  }

  /// Remove `key` if present.
  void erase(std::uint64_t key) {
    if (size_ == 0) return;
    std::size_t hole = home(key);
    for (; slots_[hole].used; hole = next(hole)) {
      if (slots_[hole].key == key) break;
    }
    if (!slots_[hole].used) return;
    // Backward shift: pull every later slot of the probe run whose home
    // does not lie cyclically in (hole, j] into the hole, so lookups that
    // stop at the first empty slot still find it.
    for (std::size_t j = next(hole); slots_[j].used; j = next(j)) {
      const std::size_t h = home(slots_[j].key);
      const bool stays = hole < j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (!stays) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].used = false;
    --size_;
  }

  /// Call fn(key, value) for every entry, in no particular order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.used) fn(s.key, s.value);
    }
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    V value{};
    bool used = false;
  };

  // Fibonacci hashing: the top bits of key * 2^64/phi spread counters and
  // other clustered keys across the table.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  std::size_t next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t cap = old.empty() ? 16 : 2 * old.size();
    slots_.assign(cap, Slot{});
    shift_ = 64 - std::countr_zero(cap);
    size_ = 0;
    for (const Slot& s : old) {
      if (s.used) (*this)[s.key] = s.value;
    }
  }

  std::vector<Slot> slots_;
  int shift_ = 64;  // set by grow(), which runs before any home() call
  std::size_t size_ = 0;
};

}  // namespace hb::util
