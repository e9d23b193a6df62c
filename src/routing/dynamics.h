// Day-to-day interdomain route dynamics.
//
// The paper observes (Figure 7) that ~7% of clients land on more than one
// front-end within their first day, another 2-4% switch on each subsequent
// weekday, and almost none switch on weekends ("network operators not
// pushing out changes during the weekend unless they have to"), for ~21%
// over a week. The underlying causes — BGP path changes and policy pushes —
// happen per routing unit: an (access AS, PoP metro) pair. This module
// evolves a per-unit selected-route index over simulated days with
// weekday-biased change probabilities, plus an intra-day flap set for units
// whose route changes mid-day.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/sim_clock.h"
#include "common/types.h"

namespace acdn {

struct RoutingUnit {
  AsId as;
  MetroId metro;

  auto operator<=>(const RoutingUnit&) const = default;
};

struct RoutingUnitHash {
  std::size_t operator()(const RoutingUnit& u) const noexcept {
    return (std::size_t(u.as.value) << 20) ^ std::size_t(u.metro.value);
  }
};

struct DynamicsConfig {
  /// Per-unit probability of a route change on a weekday / weekend day.
  double weekday_change_prob = 0.08;
  double weekend_change_prob = 0.0005;
  /// A changed unit reverts to its primary route with this probability on
  /// each subsequent change event (problems are mostly short-lived, Fig 6).
  double revert_prob = 0.65;
  /// Intra-day flapping concentrates in persistently unstable units
  /// (BGP ties, load balancing across peers): a fixed fraction of units is
  /// "flappy" and flaps most weekdays; stable units almost never flap.
  /// This produces Figure 7's large day-one jump without inflating the
  /// per-weekday increments later in the week.
  double flappy_unit_fraction = 0.25;
  double flappy_weekday_flap_prob = 0.75;
  double flappy_weekend_flap_prob = 0.01;
  double stable_flap_prob = 0.002;
};

class RouteDynamics {
 public:
  RouteDynamics(const DynamicsConfig& config, const SimCalendar& calendar,
                std::uint64_t seed)
      : config_(config), calendar_(calendar), rng_(Rng(seed).fork("route-dynamics")) {}

  /// Declares a routing unit and how many route candidates its AS has.
  /// Units with fewer than two candidates never change.
  ///
  /// Re-registering an already-known unit updates its candidate count but
  /// is draw-neutral: it consumes nothing from the RNG stream, so the
  /// flappy draw of every unit registered afterwards is unaffected. (The
  /// original flappy draw is kept; a unit that shrinks below two
  /// candidates stops flapping.)
  void register_unit(RoutingUnit unit, std::size_t candidate_count);

  /// Advances the state to `day` (must be called with non-decreasing days;
  /// gaps are simulated). Day 0 is the initial state: no changes yet.
  void advance_to(DayIndex day);

  /// The candidate index the unit's selected route has today. A
  /// "bgp/withdrawal" fault overrides the selection with the next-best
  /// candidate for just that day (the route returns on re-announcement).
  [[nodiscard]] std::size_t selected_candidate(const RoutingUnit& unit) const;

  /// If the unit flaps today, the alternate candidate index seen by a
  /// fraction of its queries; nullopt otherwise.
  [[nodiscard]] std::optional<std::size_t> flap_alternate(
      const RoutingUnit& unit) const;

  [[nodiscard]] DayIndex current_day() const { return day_; }

  /// Monotone state-change counter: incremented on every simulated day
  /// step (including day 0's initial flap draw). Consumers that snapshot
  /// per-day state — the day-route plan — compare epochs to detect
  /// staleness; current_day() alone cannot distinguish "day 0 not yet
  /// started" from "day 0 stepped".
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

 private:
  struct UnitState {
    std::size_t candidates = 1;
    std::size_t selected = 0;
    bool flappy = false;
  };

  void step_one_day(DayIndex day);

  DynamicsConfig config_;
  SimCalendar calendar_;
  Rng rng_;
  DayIndex day_ = 0;
  bool started_ = false;
  std::uint64_t epoch_ = 0;
  /// Registration order; iterated instead of the hash map so that results
  /// do not depend on hash-table iteration order.
  std::vector<RoutingUnit> order_;
  // NOLINT-ACDN(unordered-decl): keyed lookups; walks go through order_
  std::unordered_map<RoutingUnit, UnitState, RoutingUnitHash> units_;
  // NOLINT-ACDN(unordered-decl): keyed lookups; walks go through order_
  std::unordered_map<RoutingUnit, std::size_t, RoutingUnitHash> flaps_today_;
  /// Units whose selected route was withdrawn by a "bgp/withdrawal" fault
  /// today, mapped to the fallback candidate they ride instead.
  // NOLINT-ACDN(unordered-decl): keyed lookups; walks go through order_
  std::unordered_map<RoutingUnit, std::size_t, RoutingUnitHash>
      withdrawn_today_;
};

}  // namespace acdn
