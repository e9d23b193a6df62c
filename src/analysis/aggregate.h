// Grouped latency aggregation over beacon measurements.
//
// Both the daily poor-path analyses (§5) and the prediction scheme (§6)
// consume one day of beacon measurements bucketed by client group — the
// client /24 (what ECS redirection can key on) or the client's LDNS (what
// classic DNS redirection must key on) — and, within a group, by target:
// the anycast address or a specific unicast front-end.
//
// The aggregation is columnar: every (group, target, sample) triple is
// appended to a flat entry table, sorted by a total-order key on the
// executor pool (common/flat_group.h), and the sorted runs become three
// parallel arrays — groups, targets, samples — instead of a std::map of
// std::maps of vectors. Iteration order (groups ascending; within a
// group, unicast front-ends ascending then anycast; within a target,
// measurement scan order) is exactly the order the old nested maps
// produced, so every downstream digest is unchanged.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "beacon/columns.h"
#include "beacon/measurement.h"
#include "beacon/store.h"
#include "common/arena.h"
#include "dns/ldns.h"
#include "workload/clients.h"

namespace acdn {

/// Client grouping granularity for DNS-side decisions.
enum class Grouping {
  kEcsPrefix,  // per client /24 (ECS-capable resolvers)
  kLdns,       // per LDNS (traditional DNS redirection)
};

[[nodiscard]] const char* to_string(Grouping g);

/// Target of a latency sample within a group.
struct TargetKey {
  bool anycast = false;
  FrontEndId front_end;  // meaningful when !anycast

  auto operator<=>(const TargetKey&) const = default;
};

/// All groups for one day.
class DayAggregates {
 public:
  /// One target's samples within one group: samples(t) spans the
  /// contiguous slice, in measurement scan order.
  struct Target {
    TargetKey key;
    std::uint32_t begin = 0;  // into the flat sample column
    std::uint32_t count = 0;
  };
  /// One client group: targets(g) spans its targets in TargetKey order
  /// (unicast front-ends ascending, anycast last).
  struct Group {
    std::uint32_t key = 0;
    std::uint32_t target_begin = 0;  // into the flat target table
    std::uint32_t target_count = 0;
  };

  /// Buckets one day's columns by group and target. The flat entry table
  /// sorts with the serial stable radix sort, so equal keys keep scan
  /// order. The `int` is ignored; it stays only for existing callers.
  /// `scratch` (optional) recycles the entry table across days.
  static DayAggregates build(const MeasurementColumns& columns,
                             Grouping grouping, int /*ignored*/ = 1,
                             ScratchArena* scratch = nullptr);
  /// Row-struct convenience overload: converts and delegates (one
  /// algorithm, one iteration order).
  static DayAggregates build(std::span<const BeaconMeasurement> measurements,
                             Grouping grouping);

  [[nodiscard]] Grouping grouping() const { return grouping_; }

  /// Groups in ascending key order.
  [[nodiscard]] std::span<const Group> groups() const { return groups_; }
  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }
  /// Binary-search lookup; nullptr when the group has no samples.
  [[nodiscard]] const Group* find(std::uint32_t key) const;

  [[nodiscard]] std::span<const Target> targets(const Group& g) const {
    return {targets_.data() + g.target_begin, g.target_count};
  }
  [[nodiscard]] std::span<const Milliseconds> samples(const Target& t) const {
    return {samples_.data() + t.begin, t.count};
  }
  /// Binary-search lookup within a group; nullptr when unmeasured.
  [[nodiscard]] const Target* find_target(const Group& g,
                                          const TargetKey& key) const;
  [[nodiscard]] std::size_t sample_count(const Group& g,
                                         const TargetKey& key) const;

  /// Group key for a measurement under this aggregation's grouping.
  [[nodiscard]] static std::uint32_t group_key(const BeaconMeasurement& m,
                                               Grouping grouping);

 private:
  Grouping grouping_ = Grouping::kEcsPrefix;
  std::vector<Group> groups_;
  std::vector<Target> targets_;
  std::vector<Milliseconds> samples_;
};

}  // namespace acdn
