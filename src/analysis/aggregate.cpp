#include "analysis/aggregate.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "common/check.h"
#include "common/flat_group.h"
#include "common/radix.h"

namespace acdn {

namespace {

// The aggregation sort key is one packed uint64: group in the high half,
// the target in the low half as anycast-bit-31 | front-end-id-30..0. For
// any unicast front-end id < 2^31 the low half sorts exactly like TargetKey's
// (anycast, front_end) lexicographic order — unicast ids ascend below
// 0x80000000, the anycast lane is exactly 0x80000000 — and the radix
// sort's stability replaces the old explicit seq tie-breaker column:
// equal keys keep measurement scan order by construction.
constexpr std::uint64_t kAnycastBit = std::uint64_t{1} << 31;

[[nodiscard]] TargetKey unpack_target(std::uint64_t key) {
  const bool anycast = (key & kAnycastBit) != 0;
  // The hash join normalized anycast targets to a default FrontEndId;
  // reproduce that here rather than round-tripping the logged id.
  return TargetKey{anycast,
                   anycast ? FrontEndId{}
                           : FrontEndId{static_cast<std::uint32_t>(
                                 key & (kAnycastBit - 1))}};
}

}  // namespace

const char* to_string(Grouping g) {
  switch (g) {
    case Grouping::kEcsPrefix: return "EDNS-0";
    case Grouping::kLdns:      return "LDNS";
  }
  return "?";
}

std::uint32_t DayAggregates::group_key(const BeaconMeasurement& m,
                                       Grouping grouping) {
  return grouping == Grouping::kEcsPrefix ? m.client.value : m.ldns.value;
}

const DayAggregates::Group* DayAggregates::find(std::uint32_t key) const {
  const auto it = std::lower_bound(
      groups_.begin(), groups_.end(), key,
      [](const Group& g, std::uint32_t k) { return g.key < k; });
  if (it == groups_.end() || it->key != key) return nullptr;
  return &*it;
}

const DayAggregates::Target* DayAggregates::find_target(
    const Group& g, const TargetKey& key) const {
  const std::span<const Target> span = targets(g);
  const auto it = std::lower_bound(
      span.begin(), span.end(), key,
      [](const Target& t, const TargetKey& k) { return t.key < k; });
  if (it == span.end() || it->key != key) return nullptr;
  return &*it;
}

std::size_t DayAggregates::sample_count(const Group& g,
                                        const TargetKey& key) const {
  const Target* t = find_target(g, key);
  return t == nullptr ? 0 : t->count;
}

DayAggregates DayAggregates::build(const MeasurementColumns& columns,
                                   Grouping grouping, int,
                                   ScratchArena* scratch) {
  DayAggregates out;
  out.grouping_ = grouping;
  const std::size_t n = columns.target_count();
  if (n == 0) return out;

  ScratchArena local;
  ScratchArena& arena = scratch != nullptr ? *scratch : local;

  // Pack (group, anycast, front_end) into one sortable uint64 per target.
  // Anycast targets ignore their logged front end; a unicast id with bit
  // 31 set would alias the anycast lane, so its high bit is ORed into
  // `overflow` and fails the check.
  std::vector<std::uint64_t>& keys = arena.buffer<std::uint64_t>("agg.keys");
  keys.resize(n);
  std::uint32_t overflow = 0;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    const std::uint64_t group = grouping == Grouping::kEcsPrefix
                                    ? columns.client[i].value
                                    : columns.ldns[i].value;
    for (std::size_t t = columns.row_targets_begin(i);
         t < columns.row_targets_end(i); ++t) {
      const std::uint32_t fe = columns.target_front_end[t];
      std::uint64_t target = kAnycastBit;
      if (columns.target_anycast[t] == 0) {
        overflow |= fe & 0x80000000u;
        target = fe & (kAnycastBit - 1);
      }
      keys[t] = (group << 32) | target;
    }
  }
  ACDN_CHECK_EQ(overflow, 0u)
      << "unicast front-end id overflows the 31-bit aggregation key";

  // Stable radix sort with the flat scan position as payload: after the
  // sort, equal keys are in scan order and seq[idx] gathers each sample.
  std::vector<std::uint32_t>& seq = arena.buffer<std::uint32_t>("agg.seq");
  seq.resize(n);
  std::iota(seq.begin(), seq.end(), 0u);
  radix_sort_pairs(std::span<std::uint64_t>(keys),
                   std::span<std::uint32_t>(seq), &arena);

  out.samples_.resize(n);
  for_each_run(
      std::span<const std::uint64_t>(keys), std::equal_to<>(), [&](Run run) {
        const std::uint64_t key = keys[run.begin];
        const auto group = static_cast<std::uint32_t>(key >> 32);
        if (out.groups_.empty() || out.groups_.back().key != group) {
          out.groups_.push_back(Group{
              group, static_cast<std::uint32_t>(out.targets_.size()), 0});
        }
        ++out.groups_.back().target_count;
        out.targets_.push_back(
            Target{unpack_target(key), static_cast<std::uint32_t>(run.begin),
                   static_cast<std::uint32_t>(run.size())});
        for (std::size_t idx = run.begin; idx < run.end; ++idx) {
          out.samples_[idx] = columns.target_rtt[seq[idx]];
        }
      });
  return out;
}

DayAggregates DayAggregates::build(
    std::span<const BeaconMeasurement> measurements, Grouping grouping) {
  MeasurementColumns columns;
  std::size_t targets = 0;
  for (const BeaconMeasurement& m : measurements) {
    targets += m.targets.size();
  }
  columns.reserve(measurements.size(), targets);
  for (const BeaconMeasurement& m : measurements) columns.push_back(m);
  return build(columns, grouping);
}

}  // namespace acdn
