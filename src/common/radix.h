// Stable LSD radix sort for packed uint64 keys.
//
// The measurement pipeline's sorts are all of one shape: a flat array of
// rows keyed by a bit-packed uint64 (join keys, group-by keys, snapshot
// keys). Comparison sorting those costs O(n log n) branchy compares; the
// byte-wise least-significant-digit radix below costs eight counting
// passes — and skips every byte column the whole input agrees on, which
// for our packed keys (few distinct groups, small front-end ids) usually
// leaves two or three real passes.
//
// The sort is serial and *stable*: its output permutation is a pure
// function of the input array, so equal keys keep scan order and callers
// need no seq tie-breaker columns. Composite keys wider than 64 bits
// chain passes least-significant first.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/check.h"

namespace acdn {

namespace radix_detail {

/// Tag for the keys-only variant; never instantiated.
struct NoPayload {};

/// Serial stable LSD radix over keys[0, n) (and vals[0, n) when V is a
/// real payload). tmp_* must be n elements of caller-owned scratch.
/// Counters are 32-bit: callers check n <= UINT32_MAX.
template <typename V>
void lsd_sort(std::uint64_t* keys, V* vals, std::size_t n,
              std::uint64_t* tmp_keys, V* tmp_vals) {
  constexpr bool kHasVals = !std::is_same_v<V, NoPayload>;
  if (n < 2) return;

  // All eight 256-bucket byte histograms in one read pass. Byte
  // distributions are permutation-invariant, so they stay valid across
  // the scatter passes below.
  std::array<std::array<std::uint32_t, 256>, 8> hist{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = keys[i];
    for (std::size_t b = 0; b < 8; ++b) {
      ++hist[b][(k >> (8 * b)) & 0xff];
    }
  }

  std::uint64_t* src_k = keys;
  std::uint64_t* dst_k = tmp_keys;
  V* src_v = vals;
  V* dst_v = tmp_vals;
  for (std::size_t b = 0; b < 8; ++b) {
    const std::array<std::uint32_t, 256>& h = hist[b];
    // A byte column where every key agrees scatters as the identity
    // permutation: skip it.
    if (h[(src_k[0] >> (8 * b)) & 0xff] == n) continue;

    std::array<std::uint32_t, 256> offset;
    std::uint32_t sum = 0;
    for (std::size_t d = 0; d < 256; ++d) {
      offset[d] = sum;
      sum += h[d];
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = src_k[i];
      const std::uint32_t o = offset[(k >> (8 * b)) & 0xff]++;
      dst_k[o] = k;
      if constexpr (kHasVals) dst_v[o] = src_v[i];
    }
    std::swap(src_k, dst_k);
    if constexpr (kHasVals) std::swap(src_v, dst_v);
  }
  if (src_k != keys) {
    std::memcpy(keys, src_k, n * sizeof(std::uint64_t));
    if constexpr (kHasVals) std::memcpy(vals, src_v, n * sizeof(V));
  }
}

}  // namespace radix_detail

/// Stable LSD radix sort of packed uint64 keys, ascending. `scratch`
/// retains the ping-pong buffer between calls.
inline void radix_sort(std::span<std::uint64_t> keys,
                       ScratchArena* scratch = nullptr) {
  ACDN_CHECK_LE(keys.size(), std::size_t{UINT32_MAX})
      << "radix_sort counters are 32-bit";
  std::vector<std::uint64_t> local;
  std::vector<std::uint64_t>& tmp =
      scratch ? scratch->buffer<std::uint64_t>("radix.tmp_keys") : local;
  tmp.resize(keys.size());
  radix_detail::lsd_sort<radix_detail::NoPayload>(
      keys.data(), nullptr, keys.size(), tmp.data(), nullptr);
}

/// Payload-permutation variant: sorts `keys` ascending and applies the
/// same stable permutation to `vals`. V must be trivially copyable (the
/// scatter passes move payloads with memcpy).
template <typename V>
void radix_sort_pairs(std::span<std::uint64_t> keys, std::span<V> vals,
                      ScratchArena* scratch = nullptr) {
  static_assert(std::is_trivially_copyable_v<V>,
                "radix_sort_pairs payloads move via memcpy");
  ACDN_CHECK_EQ(keys.size(), vals.size());
  ACDN_CHECK_LE(keys.size(), std::size_t{UINT32_MAX})
      << "radix_sort counters are 32-bit";
  std::vector<std::uint64_t> local_k;
  std::vector<V> local_v;
  std::vector<std::uint64_t>& tmp_k =
      scratch ? scratch->buffer<std::uint64_t>("radix.tmp_keys") : local_k;
  std::vector<V>& tmp_v =
      scratch ? scratch->buffer<V>("radix.tmp_vals") : local_v;
  tmp_k.resize(keys.size());
  tmp_v.resize(vals.size());
  radix_detail::lsd_sort(keys.data(), vals.data(), keys.size(), tmp_k.data(),
                         tmp_v.data());
}

}  // namespace acdn
