// Repo-specific determinism and safety linter (see docs/ARCHITECTURE.md,
// "Correctness tooling").
//
// The reproduction's headline numbers only hold if every pipeline stage is
// bit-deterministic; three shipped bugs (hash-order iteration feeding
// figures, streaming key-packing truncation, libstdc++-specific
// distribution draws) were all of a *textually recognizable* class. This
// linter encodes those classes as rules and runs over the real tree as a
// ctest, so the next instance fails a PR instead of a golden-CSV diff.
//
// Rules (ids are what NOLINT-ACDN takes):
//   unordered-iter    iteration (range-for or .begin()) over a container
//                     declared std::unordered_* in the same file or its
//                     paired header — hash order must never reach output
//   unordered-decl    every std::unordered_* declaration (or alias) must
//                     state why hash order cannot leak, via NOLINT-ACDN
//   raw-thread        std::thread/jthread/async outside common/executor —
//                     all parallelism goes through the deterministic pool
//   banned-random     rand()/srand()/std::random_device outside common/rng
//                     and std::*_distribution outside common/rng
//                     (std::poisson_distribution is banned everywhere:
//                     draws are implementation-defined, PR 1)
//   wall-clock        time()/clock()/system_clock etc. — simulation code
//                     uses SimClock; steady_clock is allowed only in the
//                     observability layer (common/metrics)
//   parallel-fp-accum compound accumulation (+=, -=) inside a
//                     parallel_for body — cross-iteration accumulation
//                     belongs in parallel_reduce's ordered fold
//   failpoint         rng.bernoulli(...) whose probability expression
//                     names failure-ish state (fail/fault/loss/outage/
//                     corrupt/drop/error/timeout) outside
//                     common/failpoint — injected failures go through a
//                     named fail point (seeded, day-windowed,
//                     trigger-counted); organic loss rates justify via
//                     NOLINT-ACDN
//   unguarded-mutex   raw std::mutex / std::shared_mutex (or recursive/
//                     timed) in src/ — use the capability-annotated
//                     acdn::Mutex/SharedMutex wrappers
//                     (common/thread_annotations.h) so -Wthread-safety
//                     can verify lock discipline
//   unchecked-pack    shift-or bit-pack `(a << K) | b` in src/ with no
//                     ACDN_CHECK*/ACDN_DCHECK* range guard within 10
//                     lines — unguarded packs alias silently when an
//                     operand outgrows its field (the PR 7 beacon-id bug)
//   raw-intrinsics    x86/NEON intrinsics (_mm*/__m128../vld1q_f64/
//                     float64x2_t) or a vendor intrinsic header
//                     (<immintrin.h>, <arm_neon.h>) anywhere — there is no
//                     vector facade; the hot integer kernels are plain
//                     loops, and a vector path comes back only with an
//                     end-to-end perfbench win at a shipped scale
//   nolint-justification  every NOLINT-ACDN directive must name a known
//                     rule and carry `: <justification>`
//
// Escape hatch: `// NOLINT-ACDN(<rule>): justification` on the finding's
// line or the line directly above suppresses that rule there. The
// justification is mandatory and is itself linted.
#pragma once

#include <string>
#include <vector>

namespace acdn::lint {

struct Finding {
  std::string file;  // label as given (tree scans use repo-relative paths)
  int line = 0;      // 1-based
  std::string rule;
  std::string message;
};

/// One source file to lint. `label` decides path-based allowlists
/// (e.g. "src/common/rng.h" may use std distributions).
struct FileInput {
  std::string label;
  std::string text;
};

/// Rule ids accepted by NOLINT-ACDN, in stable order.
[[nodiscard]] const std::vector<std::string>& known_rules();

/// Names (variables, members, aliases) declared as unordered containers
/// in `text` — used to seed paired-header lookups.
[[nodiscard]] std::vector<std::string> unordered_names(
    const std::string& text);

/// Lints one file. `extra_unordered_names` extends the unordered-name set
/// (callers pass the paired header's names when linting a .cpp).
[[nodiscard]] std::vector<Finding> lint_file(
    const FileInput& file,
    const std::vector<std::string>& extra_unordered_names = {});

/// Lints every .h/.cpp under root/{src,tests,bench,examples,tools},
/// skipping directories named "testdata". Findings are sorted by
/// (file, line, rule).
[[nodiscard]] std::vector<Finding> lint_tree(const std::string& root);

/// "file:line: [rule] message" for human and CI output.
[[nodiscard]] std::string format(const Finding& finding);

/// The findings as a JSON array of {file, line, rule, message} objects
/// (sorted order preserved from the input), for machine-readable CI
/// artifacts. Stable: same findings, byte-identical output.
[[nodiscard]] std::string format_json(const std::vector<Finding>& findings);

}  // namespace acdn::lint
