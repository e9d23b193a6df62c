// Vector dispatch stamp. The join's and the aggregation's integer kernels
// (the sortedness check, the run-boundary scan, the aggregation key pack)
// are plain loops at their call sites, so the only dispatch is scalar.
// This header remains because perfbench's runner records
// simd::name(simd::active()) in each result's hardware stamp.
#pragma once

#include <cstdint>

namespace acdn::simd {

enum class Dispatch : std::uint8_t { kScalar = 0 };

/// The dispatch every kernel runs: always scalar.
inline Dispatch active() { return Dispatch::kScalar; }

/// Stable lowercase name, for logs and result stamps.
inline const char* name(Dispatch) { return "scalar"; }

}  // namespace acdn::simd
