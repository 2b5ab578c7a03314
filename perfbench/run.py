"""chainyard benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload tx_stream --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; nodes are started from ``src/``.
Prints one line per metric, then, as the last line, a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits non-zero without a result when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

LIMITS = (
    "nodes talk over loopback with no injected delay: latency is processor time plus block-interval waits",
    "single miner only: Chain.receive_block has no fork choice, so a two-miner net diverges",
    "no SIGSTOP-peer workload yet (a hung peer stalls the miner's serial gossip loop)",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chainyard" / "__init__.py").is_file():
        print(f"perfbench: no chainyard sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")  # the manager stages node files through tempfile

    import workloads
    from harness import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    shutil.rmtree(WORK / "ws", ignore_errors=True)
    tracer = Tracer(bool(args.trace))
    ctx = workloads.Ctx(args.workload, args.seed, args.seconds, tracer, WORK)
    workloads.WORKLOADS[args.workload](ctx)
    e2e = workloads.end_to_end(ctx)
    if args.trace:
        metrics = workloads.per_layer(ctx, e2e)
        tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.json")
    else:
        metrics = {name: (value, workloads.E2E[name]) for name, value in e2e.items()}
    wall_s = time.perf_counter() - started

    attempted = ctx.attempted + ctx.gates.checked
    failed = ctx.failed + len(ctx.gates.failures)
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(), "wall_s": round(wall_s, 3)}
    print(f"# chainyard benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"# machine: nproc={machine['nproc']} python={machine['python']} wall_s={wall_s:.3f}")
    for limit in LIMITS:
        print(f"# not measured here: {limit}")
    print(f"# {' '.join(ctx.notes)}; latency samples per round (tx_stream: per window): {[len(v) for v in ctx.latency]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, (value, unit, note) in ctx.named.items():
        print(f"{args.workload}.{name} = {value:.6g} {unit}  ({note})")
    print(f"fail_ratio = {failed}/{attempted} = {failed / max(1, attempted):.6g}")
    for problem in ctx.errors + ctx.gates.failures:
        print(f"# FAILED: {problem}")

    result = {
        "correct": not ctx.gates.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    rounds = {"setup_s": ctx.setup, "teardown_s": ctx.teardown, "throughput": ctx.rates,
              "latency_samples_ms": ctx.latency}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, machine=machine, rounds=rounds,
                  named_metrics={k: v[:2] for k, v in ctx.named.items()}, problems=ctx.errors + ctx.gates.failures)
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
