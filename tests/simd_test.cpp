// Identity sweep for common/simd.h.
//
// The SIMD policy (docs/ARCHITECTURE.md, "Batch kernels & SIMD policy")
// requires every vector kernel to compute exactly what its scalar
// reference computes: golden digests must not depend on which dispatch
// target ran. This suite runs every kernel on every compiled-in dispatch
// target over randomized and edge-case inputs — boundary lanes,
// non-multiple-of-width lengths — and compares the outputs.

#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/simd.h"

namespace acdn {
namespace {

using simd::Dispatch;

/// Lengths that cover empty inputs, sub-width tails, exact widths for
/// 2/4-lane kernels, width+1 boundaries, and a bulk run.
const std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 1001};

TEST(SimdDispatch, ActiveIsAvailable) {
  bool found = false;
  for (Dispatch d : simd::available()) {
    if (d == simd::active()) found = true;
  }
  EXPECT_TRUE(found) << "active() must come from available()";
  // Scalar is always first so sweeps can use index 0 as the reference.
  ASSERT_FALSE(simd::available().empty());
  EXPECT_EQ(simd::available().front(), Dispatch::kScalar);
}

TEST(SimdSweep, IsSortedU64) {
  Rng rng(11);
  for (const std::size_t n : kLengths) {
    // Sorted (with duplicates), and one violation planted at every
    // position — this covers violations in boundary lanes and tails.
    std::vector<std::uint64_t> keys(n);
    std::uint64_t v = 0;
    for (auto& k : keys) k = (v += rng.next_u64() % 3);
    for (std::size_t flip = 0; flip <= n; ++flip) {
      std::vector<std::uint64_t> probe = keys;
      if (flip < n && flip > 0) probe[flip] = probe[flip - 1] / 2;
      const bool want = simd::is_sorted_u64_at(
          Dispatch::kScalar, std::span<const std::uint64_t>(probe));
      for (Dispatch d : simd::available()) {
        EXPECT_EQ(simd::is_sorted_u64_at(
                      d, std::span<const std::uint64_t>(probe)),
                  want)
            << "n=" << n << " flip=" << flip << " on " << simd::name(d);
      }
    }
  }
}

TEST(SimdSweep, RunStartsU64) {
  Rng rng(12);
  for (const std::size_t n : kLengths) {
    // Duplicate-heavy sorted keys: realistic group-by input shape.
    std::vector<std::uint64_t> keys(n);
    std::uint64_t v = 1000;
    for (auto& k : keys) k = (v += (rng.next_u64() % 4 == 0) ? 1 : 0);
    std::vector<std::uint32_t> want;
    simd::run_starts_u64_at(Dispatch::kScalar,
                            std::span<const std::uint64_t>(keys), want);
    for (Dispatch d : simd::available()) {
      std::vector<std::uint32_t> got;
      simd::run_starts_u64_at(d, std::span<const std::uint64_t>(keys), got);
      EXPECT_EQ(got, want) << "n=" << n << " on " << simd::name(d);
    }
  }
}

TEST(SimdSweep, PackGroupTarget) {
  Rng rng(13);
  for (const std::size_t n : kLengths) {
    std::vector<std::uint32_t> group(n);
    std::vector<std::uint8_t> anycast(n);
    std::vector<std::uint32_t> fe(n);
    for (std::size_t i = 0; i < n; ++i) {
      group[i] = static_cast<std::uint32_t>(rng.next_u64());
      anycast[i] = static_cast<std::uint8_t>(rng.next_u64() % 2);
      // Mostly valid 31-bit ids; every 7th lane tests overflow
      // detection, every anycast lane carries the invalid sentinel the
      // real column holds (and must be ignored).
      fe[i] = static_cast<std::uint32_t>(rng.next_u64()) & 0x7fffffffu;
      if (i % 7 == 3) fe[i] |= 0x80000000u;
      if (anycast[i] != 0) fe[i] = 0xffffffffu;
    }
    std::vector<std::uint64_t> want(n);
    const std::uint32_t want_overflow = simd::pack_group_target_at(
        Dispatch::kScalar, group, anycast, fe, std::span<std::uint64_t>(want));
    for (Dispatch d : simd::available()) {
      std::vector<std::uint64_t> got(n);
      const std::uint32_t overflow = simd::pack_group_target_at(
          d, group, anycast, fe, std::span<std::uint64_t>(got));
      EXPECT_EQ(got, want) << "n=" << n << " on " << simd::name(d);
      EXPECT_EQ(overflow, want_overflow)
          << "n=" << n << " on " << simd::name(d);
    }
  }
}

}  // namespace
}  // namespace acdn
