// Sorted-vector group-by primitives for the columnar hot path.
//
// The measurement pipeline used to funnel every row through node-based
// std::map / std::unordered_map buckets; at paper scale the allocator —
// not the hardware — set the throughput ceiling. These primitives replace
// that pattern with the classic sort-based plan: append rows to a flat
// vector, sort them by a packed key (common/radix.h's stable radix sort,
// so equal keys keep scan order), then walk maximal runs of equal keys in
// ascending order. FlatMap carries the grouped results.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/error.h"

namespace acdn {

/// Half-open index range [begin, end) of one key's run in a sorted span.
struct Run {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const { return end - begin; }
};

/// Visits every maximal run of consecutive eq-equal elements, in order:
/// fn(Run{begin, end}). The span must already be grouped (sorted).
template <typename T, typename Eq, typename Fn>
void for_each_run(std::span<const T> v, Eq eq, Fn&& fn) {
  std::size_t begin = 0;
  for (std::size_t i = 1; i <= v.size(); ++i) {
    if (i == v.size() || !eq(v[begin], v[i])) {
      fn(Run{begin, i});
      begin = i;
    }
  }
}

/// Sorted-vector replacement for read-mostly std::map uses: contiguous
/// storage, binary-search lookups, ascending iteration. Build either with
/// append() (keys already ascending — the group-by output order) or
/// operator[] (sorted insert; fine for small maps like per-catchment
/// country counts, not for hot per-row updates).
template <typename Key, typename Value>
class FlatMap {
 public:
  using value_type = std::pair<Key, Value>;
  using const_iterator = typename std::vector<value_type>::const_iterator;
  using iterator = typename std::vector<value_type>::iterator;

  [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }
  [[nodiscard]] iterator begin() { return entries_.begin(); }
  [[nodiscard]] iterator end() { return entries_.end(); }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }
  void reserve(std::size_t n) { entries_.reserve(n); }

  /// O(1) sorted build: `key` must exceed the current last key.
  void append(Key key, Value value) {
    ACDN_DCHECK(entries_.empty() || entries_.back().first < key)
        << "FlatMap::append keys must be strictly ascending";
    entries_.emplace_back(std::move(key), std::move(value));
  }

  [[nodiscard]] const_iterator find(const Key& key) const {
    const auto it = lower_bound(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }
  [[nodiscard]] iterator find(const Key& key) {
    const auto it = lower_bound(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }
  [[nodiscard]] std::size_t count(const Key& key) const {
    return find(key) == entries_.end() ? 0 : 1;
  }
  [[nodiscard]] bool contains(const Key& key) const { return count(key) > 0; }

  [[nodiscard]] const Value& at(const Key& key) const {
    const auto it = find(key);
    require(it != entries_.end(), "FlatMap::at: key not found");
    return it->second;
  }

  /// Sorted insert-or-find, std::map semantics (O(n) on insert).
  Value& operator[](const Key& key) {
    auto it = lower_bound(key);
    if (it == entries_.end() || it->first != key) {
      it = entries_.insert(it, value_type(key, Value{}));
    }
    return it->second;
  }

 private:
  [[nodiscard]] const_iterator lower_bound(const Key& key) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const Key& k) { return e.first < k; });
  }
  [[nodiscard]] iterator lower_bound(const Key& key) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const Key& k) { return e.first < k; });
  }

  std::vector<value_type> entries_;
};

}  // namespace acdn
