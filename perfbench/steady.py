"""Steadiness check: do two sets of runs of the same commit agree?

    python3 perfbench/steady.py --trace
    python3 perfbench/steady.py --workloads tx_stream

Runs ``run.py`` in two sets of ten runs per workload, every run with its
own seed (1..20) and ``run_seconds`` of ``BENCHMARK.json``, and reports per
workload and end-to-end metric: each set's median and spread (quartile
distance over the median, as ``statistics.quantiles(values, n=4)`` gives
them) and whether the sets agree, i.e. the second set's median differs from
the first's, either way, by no more than the metric's bound. A spread wider
than its bound is reported as unresolved, for every metric, ``setup_s``
included. With ``--trace`` it also
makes one traced run per workload and set and reports the tracing
overhead on latency_mean_ms and setup_s against the untraced medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETS = 2
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="two-set steadiness check of the chainyard benchmark")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    metrics = SPEC["end_to_end"]
    results: dict = {}
    unresolved = disagree = 0
    for workload in args.workloads.split(","):
        sets = []
        for set_index in range(SETS):
            seeds = [1 + set_index * RUNS + i for i in range(RUNS)]
            runs = [run_once(workload, seed, SPEC["run_seconds"], 0) for seed in seeds]
            traced = run_once(workload, seeds[0], SPEC["run_seconds"], 1)["metrics"] if args.trace else None
            sets.append({"seeds": seeds, "runs": runs, "traced": traced})
            failed = sum(r["failed"] for r in runs)
            print(f"{workload} set {set_index + 1}: seeds {seeds[0]}..{seeds[-1]}, "
                  f"correct {sum(r['correct'] for r in runs)}/{len(runs)}, failed ops {failed}", flush=True)
        rows = {}
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            per_set = [[r["metrics"][name]["value"] for r in s["runs"]] for s in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            steady = all(sp <= bound for sp in spreads)
            agree = abs(medians[1] - medians[0]) / medians[0] <= bound
            unresolved += not steady
            disagree += not agree
            rows[name] = {"medians": medians, "spreads": spreads, "bound": bound, "steady": steady, "agree": agree}
            verdict = ("agree" if agree else "DISAGREE") + ("" if steady else ", UNRESOLVED: spread above bound")
            print(f"  {name:18s} medians {' '.join(f'{m:.5g}' for m in medians):28s} "
                  f"spreads {' '.join(f'{sp:.3f}' for sp in spreads):14s} bound {bound:.2f}  {verdict}")
        if args.trace:
            for key, base in (("trace.latency_mean_ms", "latency_mean_ms"), ("trace.setup_s", "setup_s")):
                for set_index, s in enumerate(sets):
                    traced = s["traced"][key]["value"]
                    untraced = rows[base]["medians"][set_index]
                    print(f"  tracing overhead set {set_index + 1} on {base}: "
                          f"{traced:.5g} traced vs {untraced:.5g} untraced ({(traced - untraced) / untraced:+.1%})")
        results[workload] = {"sets": sets, "rows": rows}
    out = ROOT / ".perfbench_work" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1), encoding="utf-8")
    print(f"unresolved metrics: {unresolved}, disagreeing metrics: {disagree} (details in {out.relative_to(ROOT)})")
    return 0 if unresolved == 0 and disagree == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
