// Property tests for common/radix.h against std::stable_sort.
//
// The pipeline's determinism contract leans on radix_sort being *stable*
// — that is what lets callers sort packed keys without seq tie-breaker
// columns and still keep scan order among equal keys. Every test here
// therefore compares against std::stable_sort on (key, original index)
// pairs, not just sortedness.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.h"
#include "common/radix.h"
#include "common/rng.h"

namespace acdn {
namespace {

std::vector<std::uint64_t> random_keys(std::size_t n, std::uint64_t seed,
                                       std::uint64_t mask) {
  Rng rng(seed);
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(rng.next_u64() & mask);
  }
  return keys;
}

/// Checks radix_sort_pairs against std::stable_sort on an index payload:
/// equal keys must keep their original relative order.
void check_stable_pairs(std::vector<std::uint64_t> keys) {
  std::vector<std::uint32_t> payload(keys.size());
  std::iota(payload.begin(), payload.end(), 0u);

  std::vector<std::pair<std::uint64_t, std::uint32_t>> expected;
  expected.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    expected.emplace_back(keys[i], payload[i]);
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;  // key only: ties keep order
                   });

  radix_sort_pairs(std::span<std::uint64_t>(keys),
                   std::span<std::uint32_t>(payload));
  ASSERT_EQ(keys.size(), expected.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(keys[i], expected[i].first) << "key mismatch at " << i;
    ASSERT_EQ(payload[i], expected[i].second)
        << "stability violated at " << i;
  }
}

void check_keys_only(std::vector<std::uint64_t> keys) {
  std::vector<std::uint64_t> expected = keys;
  std::sort(expected.begin(), expected.end());
  radix_sort(std::span<std::uint64_t>(keys));
  EXPECT_EQ(keys, expected);
}

TEST(RadixSort, EmptyAndSingle) {
  check_keys_only({});
  check_keys_only({42});
  check_stable_pairs({});
  check_stable_pairs({7});
}

TEST(RadixSort, RandomKeysMatchStdSort) {
  for (const std::size_t n : {2u, 3u, 100u, 4096u, 70'000u}) {
    check_keys_only(
        random_keys(n, 0x1234 + n, std::numeric_limits<std::uint64_t>::max()));
  }
}

TEST(RadixSort, DuplicateHeavyKeysStaySorted) {
  // Only 16 distinct keys over 50k elements: most byte columns trivial.
  check_keys_only(random_keys(50'000, 99, 0xf));
  check_stable_pairs(random_keys(50'000, 99, 0xf));
}

TEST(RadixSort, AlreadySortedInput) {
  std::vector<std::uint64_t> keys(40'000);
  std::iota(keys.begin(), keys.end(), 0ull);
  check_keys_only(keys);
  check_stable_pairs(keys);
}

TEST(RadixSort, ReverseSortedInput) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 40'000; i-- > 0;) keys.push_back(i);
  check_keys_only(keys);
  check_stable_pairs(keys);
}

TEST(RadixSort, AllEqualKeys) {
  std::vector<std::uint64_t> keys(10'000, 0xdeadbeefull);
  check_stable_pairs(keys);
}

TEST(RadixSort, HighBytesOnly) {
  // Keys that differ only in the top byte exercise the skip-trivial-
  // column logic for every low byte.
  check_keys_only(random_keys(10'000, 7, 0xff00000000000000ull));
  check_stable_pairs(random_keys(10'000, 7, 0xff00000000000000ull));
}

TEST(RadixSort, PairsPermutationIsStableAcrossPayloadTypes) {
  // Packed-struct payload, as the pipeline uses (columnar row indices).
  struct Row {
    std::uint32_t index;
    float weight;
  };
  Rng rng(5);
  const std::size_t n = 20'000;
  std::vector<std::uint64_t> keys = random_keys(n, 21, 0xffff);
  std::vector<std::uint64_t> keys2 = keys;
  std::vector<Row> rows(n);
  std::vector<std::uint32_t> index(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows[i] = Row{static_cast<std::uint32_t>(i), float(i) * 0.5f};
    index[i] = static_cast<std::uint32_t>(i);
  }
  radix_sort_pairs(std::span<std::uint64_t>(keys), std::span<Row>(rows));
  radix_sort_pairs(std::span<std::uint64_t>(keys2),
                   std::span<std::uint32_t>(index));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(rows[i].index, index[i]) << "payload permutation diverged";
  }
}

TEST(RadixSort, ArenaScratchReuse) {
  ScratchArena arena;
  for (int round = 0; round < 3; ++round) {
    std::vector<std::uint64_t> keys =
        random_keys(30'000, 17 + std::uint64_t(round), 0xffffff);
    std::vector<std::uint64_t> expected = keys;
    std::sort(expected.begin(), expected.end());
    radix_sort(std::span<std::uint64_t>(keys), &arena);
    EXPECT_EQ(keys, expected);
  }
  const std::size_t warm = arena.capacity_bytes();
  std::vector<std::uint64_t> keys = random_keys(30'000, 3, 0xffffff);
  radix_sort(std::span<std::uint64_t>(keys), &arena);
  EXPECT_EQ(arena.capacity_bytes(), warm) << "arena should stay warm";
}

}  // namespace
}  // namespace acdn
