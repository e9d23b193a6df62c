// Round-trip latency model.
//
// RTT between a client and a front-end decomposes into:
//   * propagation along the routed geographic path (the dominant term for
//     the paper's analysis — anycast pathologies show up as extra km),
//   * per-AS-handoff processing,
//   * the client's last-mile access delay (drawn once per client /24 from a
//     technology mixture: fiber / cable / DSL / wireless),
//   * multiplicative lognormal jitter, a diurnal load factor, and rare
//     additive congestion spikes per sample.
#pragma once

#include "common/rng.h"
#include "common/sim_clock.h"
#include "common/types.h"

namespace acdn {

struct RttConfig {
  /// Kilometers of one-way path per millisecond of RTT. Light in fiber
  /// travels ~200 km/ms one-way => 100 km of path per RTT ms.
  double km_per_rtt_ms = 100.0;
  /// Router/exchange processing per inter-AS handoff (RTT contribution).
  Milliseconds per_as_hop_ms = 0.5;
  /// Lognormal sigma of multiplicative per-sample jitter.
  double jitter_sigma = 0.18;
  /// Probability a sample hits a transient delay spike — last-mile
  /// congestion, bufferbloat, or in-browser scheduling (Li et al., IMC'13
  /// document heavy-tailed error in browser-based measurement) — and the
  /// mean of the exponential extra delay when it does. These spikes give
  /// single-sample comparisons like Figure 3 their heavy tail while daily
  /// medians/percentiles (Figures 5, 6, 9) stay robust.
  double congestion_prob = 0.20;
  Milliseconds congestion_mean_ms = 140.0;
  /// Diurnal load: RTT multiplier peaks at `peak_hour` local-ish time.
  double diurnal_amplitude = 0.06;
  double peak_hour = 20.0;

  void validate() const;
};

/// Last-mile access technology mixture (shares must sum to ~1).
struct LastMileMix {
  double fiber_share = 0.20;
  double cable_share = 0.45;
  double dsl_share = 0.30;
  double wireless_share = 0.05;
};

class RttModel {
 public:
  explicit RttModel(const RttConfig& config = {});

  /// Deterministic base RTT for a path: propagation + hop processing +
  /// the client's fixed last-mile contribution.
  [[nodiscard]] Milliseconds base_rtt(Kilometers one_way_path_km, int as_hops,
                                      Milliseconds last_mile_ms) const;

  /// One measured sample around `base` at simulated time `t`.
  [[nodiscard]] Milliseconds sample(Milliseconds base, const SimTime& t,
                                    Rng& rng) const;

  /// The diurnal load multiplier at `t` — the deterministic part of
  /// sample(). Callers timing several fetches at the same instant (a
  /// beacon's target plan) hoist it and use sample_at.
  [[nodiscard]] double diurnal_factor(const SimTime& t) const;

  /// sample() with the diurnal multiplier precomputed. Draw-for-draw
  /// identical to sample(base, t, rng) when `diurnal == diurnal_factor(t)`.
  [[nodiscard]] Milliseconds sample_at(Milliseconds base, double diurnal,
                                       Rng& rng) const;

  /// Draws a client /24's fixed last-mile RTT contribution from `mix`.
  [[nodiscard]] static Milliseconds draw_last_mile(const LastMileMix& mix,
                                                   Rng& rng);

  [[nodiscard]] const RttConfig& config() const { return config_; }

 private:
  RttConfig config_;
};

}  // namespace acdn
