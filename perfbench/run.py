#!/usr/bin/env python3
"""Scenario benchmark: time to figures on three workloads.

Builds the library and the runner from the checkout's sources, turns
(workload, seed) into a scenario config, starts the runner in a process of
its own and prints every metric by name with its unit. The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload month --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # all three
    python3 perfbench/run.py --workload dense --seed 1 --trace 1

Exit status: 0 when every operation matched its digest, 1 when one failed
or threw (the result line is still printed), 2 when the benchmark could not
build or run at all (no result line).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = HERE / "build"
DIGESTS = HERE / "digests"

# Why each workload exists is recorded in BENCHMARK.json and README.md.
# beacons_per_day pins each World's beacon volume (the runner derives the
# sampling rate from it): 8000 is paper_default's sampling 0.02 on a
# typical seed, 60000 is Fig 9's 0.15.
WORKLOADS = {
    "month": {"days": 28, "beacons_per_day": 8000, "site_factors": [1.0]},
    "dense": {"days": 3, "beacons_per_day": 60000, "site_factors": [1.0]},
    "sweep": {"days": 2, "beacons_per_day": 8000,
              "site_factors": [0.4, 0.6, 0.8, 1.0, 1.25, 1.5, 1.75, 2.0,
                               2.5, 3.0]},
}


class BenchError(Exception):
    """The benchmark cannot produce a result (build or run failure)."""


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def threads():
    return max(1, min(4, os.cpu_count() or 1))


def build():
    """Configures once, then builds incrementally; returns the runner."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no library sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    log = BUILD / "build.log"
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(threads())])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    runner = BUILD / "perfbench_runner"
    if not runner.is_file():
        raise BenchError("build produced no runner")
    return runner


def source_digest():
    """sha256 over the library sources: the commit stand-in for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    # Only the checkout's own repository: git would otherwise search the
    # parent directories and could report an unrelated one.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def digest_file(workload, seed):
    return DIGESTS / f"{workload}-{seed}.txt"


def run_runner(runner, workload, seed, seconds, trace, pin):
    """One workload in its own process (peak RSS is per process)."""
    w = WORKLOADS[workload]
    BUILD.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=BUILD) as tmp:
        pinned = digest_file(workload, seed)
        lines = [
            f"seed {seed}",
            f"days {w['days']}",
            f"beacons_per_day {w['beacons_per_day']}",
            "site_factors " + " ".join(str(f) for f in w["site_factors"]),
            f"threads {threads()}",
            f"seconds {seconds}",
            f"trace {int(trace)}",
            f"out_dir {tmp}",
        ]
        if pin:
            DIGESTS.mkdir(exist_ok=True)
            lines.append(f"write_digests {pinned}")
        elif pinned.is_file():
            lines.append(f"pinned_digests {pinned}")
        config = Path(tmp) / "workload.cfg"
        config.write_text("\n".join(lines) + "\n")
        # The runner starts repetitions until `seconds` have passed; the
        # last one, and a traced run's ablations, run past that.
        try:
            proc = subprocess.run([str(runner), "--config", str(config)],
                                  capture_output=True, text=True,
                                  timeout=2 * seconds + 120)
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"{workload}: runner timed out") from e
    sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise BenchError(f"{workload}: runner exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["exit"] = proc.returncode
    return result


def report(workload, seed, trace, result, metric_specs):
    """Checks the runner's metrics against the spec, prints them, and
    returns the contract's metrics object."""
    metrics = {}
    for m in metric_specs:
        value = result["metrics"].get(m["name"])
        if value is None or not math.isfinite(value):
            raise BenchError(f"{workload}: metric {m['name']} missing")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    stamp = dict(result["stamp"], commit=commit(), source=source_digest())
    print(f"== {workload} seed={seed} trace={int(trace)} reps={result['reps']}"
          f" digest={result['digest']}")
    print("   " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    for name, m in metrics.items():
        print(f"   {name:34s} {m['value']:14.6g} {m['unit']}")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")
    return metrics, stamp


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append the full result as a JSON "
                        "line (the input of compare.py)")
    parser.add_argument("--pin", action="store_true",
                        help="record this seed's digests in digests/")
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")

    try:
        s = spec()
        seconds = args.seconds if args.seconds is not None else s["run_seconds"]
        metric_specs = s["per_layer"] if args.trace else s["end_to_end"]
        runner = build()
        workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
        merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in workloads:
            result = run_runner(runner, workload, args.seed, seconds,
                                args.trace, args.pin)
            metrics, stamp = report(workload, args.seed, args.trace, result,
                                    metric_specs)
            merged["correct"] &= result["failed"] == 0 and result["exit"] == 0
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            prefix = "" if len(workloads) == 1 else workload + "."
            for name, m in metrics.items():
                merged["metrics"][prefix + name] = m
            if args.out:
                with open(args.out, "a") as out:
                    out.write(json.dumps({
                        "workload": workload, "seed": args.seed,
                        "trace": args.trace, "attempted": result["attempted"],
                        "failed": result["failed"], "digest": result["digest"],
                        "metrics": {k: m["value"] for k, m in metrics.items()},
                        "stamp": stamp}) + "\n")
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
