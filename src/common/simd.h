// Runtime-dispatched SIMD kernels for the measurement pipeline.
//
// Policy: *integer elementwise kernels only* — the sortedness check,
// run-boundary detection and the aggregation key pack on the join and
// aggregate path. Every kernel computes exactly what its scalar reference
// computes, so golden digests cannot depend on which dispatch ran.
// Bitwise reductions (the OR-accumulated validation mask below) are
// exactly associative and therefore allowed. Floating-point code stays
// scalar: its callers are set-up paths dominated by libm trig, which
// would run scalar per lane anyway, so vector bodies save nothing.
//
// Dispatch is selected once, race-free (C++11 magic static), from CPUID
// capped by the ACDN_SIMD environment variable:
//   ACDN_SIMD=off|scalar  force the scalar reference path
//   ACDN_SIMD=sse2|avx2|neon  cap at that target (clamped to hardware)
//   ACDN_SIMD=auto (or unset)  best supported target
// Each kernel also has a *_at(Dispatch, ...) entry point so tests can
// sweep every compiled-in target against the scalar reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace acdn::simd {

enum class Dispatch : std::uint8_t {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kNeon = 3,
};

/// Stable lowercase name ("scalar", "sse2", ...), for logs and bench JSON.
const char* name(Dispatch d);

/// The dispatch every auto-entry point uses: best hardware-supported
/// target capped by ACDN_SIMD. Resolved once; thread-safe.
Dispatch active();

/// Every target this binary compiled in *and* this machine can run,
/// scalar first. Bit-identity sweeps iterate this list.
std::span<const Dispatch> available();

// ---- Kernels (auto dispatch). Contracts: spans of equal length;
// ---- lengths bounded by UINT32_MAX where u32 indices are produced.

/// True when keys[i] <= keys[i+1] for all i (ascending, duplicates ok).
bool is_sorted_u64(std::span<const std::uint64_t> keys);

/// Appends to `starts` the index of every maximal-run start: 0 (when
/// non-empty) and every i with keys[i] != keys[i-1]. `starts` is cleared
/// first.
void run_starts_u64(std::span<const std::uint64_t> keys,
                    std::vector<std::uint32_t>& starts);

/// Packed aggregation key: out[i] = group[i]<<32 | (anycast[i] ? 1<<31
/// : fe[i]). Returns the OR of all unicast fe[i] high bits — nonzero
/// means some unicast front-end id overflowed the 31-bit field and the
/// caller must fail. Anycast lanes ignore fe[i] entirely (the invalid
/// sentinel 0xFFFFFFFF never reaches the key).
std::uint32_t pack_group_target(std::span<const std::uint32_t> group,
                                std::span<const std::uint8_t> anycast,
                                std::span<const std::uint32_t> fe,
                                std::span<std::uint64_t> out);

// ---- Explicit-dispatch variants for the bit-identity test sweep. `d`
// ---- must come from available(); anything else fails a check.

bool is_sorted_u64_at(Dispatch d, std::span<const std::uint64_t> keys);
void run_starts_u64_at(Dispatch d, std::span<const std::uint64_t> keys,
                       std::vector<std::uint32_t>& starts);
std::uint32_t pack_group_target_at(Dispatch d,
                                   std::span<const std::uint32_t> group,
                                   std::span<const std::uint8_t> anycast,
                                   std::span<const std::uint32_t> fe,
                                   std::span<std::uint64_t> out);

}  // namespace acdn::simd
