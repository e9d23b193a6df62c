// Raw-log export/import.
//
// The simulation's products — passive production logs and joined beacon
// measurements — exported as CSV so downstream users can analyze them in
// other tooling, and imported back so recorded runs can be re-analyzed
// without re-simulating. Doubles are written in their shortest round-trip
// text, so they re-import bit-identical. Integer fields (ids, days, front
// ends) are written as that same double text below 2^53 — which can be
// scientific, e.g. beacon 70369280000000 as 7.036928e+13 — and as exact
// digits from 2^53 on, where a double no longer holds every integer. The
// importers read both forms, so every integer field round-trips exactly.
#pragma once

#include <string>

#include "beacon/store.h"

namespace acdn {

/// Writes one row per (client, front-end, day) aggregate.
void export_passive_log(const PassiveLog& log, const std::string& path);

/// Reads a file written by export_passive_log. Throws acdn::Error on
/// malformed input.
[[nodiscard]] PassiveLog import_passive_log(const std::string& path);

/// Writes one row per beacon *target* (wide rows would lose the variable
/// target count); rows of one beacon share its beacon_id.
void export_measurements(const MeasurementStore& store,
                         const std::string& path);

[[nodiscard]] MeasurementStore import_measurements(const std::string& path);

}  // namespace acdn
