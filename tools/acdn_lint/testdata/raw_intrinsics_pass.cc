// Must-pass twin: plain library code, which the compiler is free to
// vectorize; a hand-written vector path needs an end-to-end benchmark win
// first. Plus the justified-NOLINT form for a hint that changes no result.
#include <algorithm>
#include <cstdint>
#include <span>

bool keys_sorted(std::span<const std::uint64_t> keys) {
  return std::is_sorted(keys.begin(), keys.end());
}

// NOLINT-ACDN(raw-intrinsics): prefetch hint only — no data-path result
void warm(const void* p) { __builtin_prefetch(p); }
