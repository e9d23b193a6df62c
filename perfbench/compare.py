#!/usr/bin/env python3
"""Compare two sets of benchmark results: does the candidate regress?

    python3 perfbench/compare.py BASE.jsonl CANDIDATE.jsonl
    python3 perfbench/compare.py --self-test

Each input holds JSON lines written by `run.py --out`. Per workload, the
candidate is rejected when

  * the median of an end-to-end metric is worse than the base median by more
    than the metric's bound in BENCHMARK.json;
  * its failed fraction (failed / attempted operations) is higher;
  * a (workload, seed) pair present on both sides has a different digest, so
    the two builds did not compute the same worlds, figures and outputs;
  * a workload of the base is missing.

Exit status 0 accepts, 1 rejects. --self-test runs the fixture pairs in
fixtures/ and checks each verdict against the one the fixture expects.
"""

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def end_to_end(results):
    """Untraced results only: those carry the end-to-end metrics."""
    return [r for r in results if r["trace"] == 0]


def failed_frac(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / max(1, attempted)


def compare(base, candidate, spec):
    """Returns the reasons to reject the candidate (empty: accept)."""
    reasons = []
    for workload in sorted({r["workload"] for r in base}):
        b_all = [r for r in base if r["workload"] == workload]
        c_all = [r for r in candidate if r["workload"] == workload]
        if not c_all:
            reasons.append(f"{workload}: no candidate results")
            continue
        if failed_frac(c_all) > failed_frac(b_all):
            reasons.append(f"{workload}: failed fraction "
                           f"{failed_frac(b_all):.4g} -> "
                           f"{failed_frac(c_all):.4g}")
        b_digests = {(r["seed"], r["digest"]) for r in b_all}
        for r in c_all:
            seeds = {d for s, d in b_digests if s == r["seed"]}
            if seeds and r["digest"] not in seeds:
                reasons.append(f"{workload} seed {r['seed']}: digest "
                               f"{r['digest']} differs from {sorted(seeds)}")
        b_e2e, c_e2e = end_to_end(b_all), end_to_end(c_all)
        if not b_e2e or not c_e2e:
            continue
        for m in spec["end_to_end"]:
            b = statistics.median(r["metrics"][m["name"]] for r in b_e2e)
            c = statistics.median(r["metrics"][m["name"]] for r in c_e2e)
            worse = (c - b) / b if m["better"] == "lower" else (b - c) / b
            if worse > m["bound"]:
                reasons.append(f"{workload}: {m['name']} {b:.4g} -> {c:.4g} "
                               f"{m['unit']} ({worse:+.1%}, bound "
                               f"{m['bound']:.0%})")
    return reasons


def self_test(spec):
    ok = True
    fixtures = sorted((HERE / "fixtures").glob("*.json"))
    for path in fixtures:
        case = json.loads(path.read_text())
        reasons = compare(case["base"], case["candidate"], spec)
        verdict = "reject" if reasons else "accept"
        good = verdict == case["expect"]
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {path.name}: {verdict}"
              + (f" ({reasons[0]})" if reasons else ""))
    return ok and bool(fixtures)


def main(argv):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if argv == ["--self-test"]:
        return 0 if self_test(spec) else 1
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    reasons = compare(load(argv[0]), load(argv[1]), spec)
    for reason in reasons:
        print("reject:", reason)
    if not reasons:
        print("accept")
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
