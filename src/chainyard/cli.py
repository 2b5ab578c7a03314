"""netmgr: single command-line entry point for network lifecycle, benchmarks,
the trading-day case study, and report audits.

Exit codes: 0 success, 1 validation error, 2 execution failure, 64 usage.
Human-readable summaries go to stdout, logs to stderr, machine output
(CSV/JSON) only to the paths given via flags.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Callable

from . import dsl, node, tes
from .executor import make_executor
from .genesis import GenesisFormatError, HashMismatch, InvalidConfig
from .manager import (
    BenchResult,
    ManagerError,
    NetworkManager,
    NodeDefaults,
    PhaseTiming,
    ValidationFailed,
    bench,
    raw_csv,
)
from .protocol import AdminError, AdminTimeout, AdminUnreachable
from .wrapper import NodeWrapper, RecoveryFailed

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_EXECUTION = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(parser: argparse.ArgumentParser, config_required: bool = True) -> None:
    parser.add_argument("--config", required=config_required, help="network definition file (JSON DSL)")
    parser.add_argument("--workspace", default="testnets", help="workspace root directory")
    parser.add_argument("--executor", choices=("local", "ssh"), default="local")
    parser.add_argument("--force", action="store_true", help="overwrite/recreate existing state")
    parser.add_argument("--csv", help="write raw phase timings CSV (phase,node_count,rep,duration_seconds)")
    parser.add_argument("--json", dest="json_out", help="write machine-readable JSON report")
    parser.add_argument("--block-interval", type=float, default=NodeDefaults.block_interval)
    parser.add_argument("--max-block-txs", type=int, default=NodeDefaults.max_block_txs)
    parser.add_argument("-v", "--verbose", action="store_true")


def build_parser() -> _Parser:
    parser = _Parser(prog="netmgr", description="Manage private blockchain test networks")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    for name, (help_text, run) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        _add_common(command)
        command.set_defaults(run=run)

    bench_parser = sub.choices["bench"]
    bench_parser.add_argument("--counts", default="2,5,10,20", help="comma-separated prosumer counts")
    bench_parser.add_argument("--reps", type=int, default=5, help="repetitions per count")
    bench_parser.add_argument("--summary", help="write mean/stddev summary CSV (one row per phase)")
    bench_parser.add_argument("--no-warmup", action="store_true", help="skip the untimed warmup repetition")

    tes_parser = sub.choices["run-tes"]
    tes_parser.add_argument("--seed", type=int, required=True)
    tes_parser.add_argument("--intervals", type=int, default=tes.DEFAULT_INTERVALS)
    tes_parser.add_argument("--fault", help="inject a fault: interval:node:mode")
    tes_parser.add_argument("--report", default="dayreport.json", help="day report output path")
    tes_parser.add_argument("--keep-network", action="store_true", help="leave nodes running afterwards")

    audit_parser = sub.choices["audit"]
    audit_parser.add_argument("--report", required=True, help="day report file to audit")
    audit_parser.add_argument("--node", help="node whose chain to audit against (default: first miner)")

    return parser


def _manager(args, config: dsl.NetworkConfig) -> NetworkManager:
    return NetworkManager(
        config,
        args.workspace,
        executor=make_executor(args.executor),
        force=args.force,
        node_defaults=NodeDefaults(block_interval=args.block_interval, max_block_txs=args.max_block_txs),
    )


def _print_timings(timings: list[PhaseTiming]) -> None:
    for timing in timings:
        print(f"{timing.phase:<22} {timing.duration:9.4f}s  ({timing.node_count} nodes)")


def _print_findings(findings: list[tes.AuditFinding]) -> None:
    for finding in findings:
        print(f"interval {finding.interval:>2}: {'pass' if finding.ok else 'FAIL'} ({finding.reason})")


def _write_json(payload, path: str) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _cmd_validate(args) -> int:
    config = dsl.load_config(args.config)
    report = dsl.validate(config)
    for issue in report.errors:
        print(f"error {issue.code}: {issue.message}")
    for issue in report.warnings:
        print(f"warning {issue.code}: {issue.message}")
    if args.json_out:
        _write_json(
            {
                "errors": [{"code": i.code, "message": i.message, "nodes": list(i.nodes)} for i in report.errors],
                "warnings": [{"code": i.code, "message": i.message} for i in report.warnings],
            },
            args.json_out,
        )
    if report.ok:
        print(f"configuration {config.configuration_name!r} is deployable "
              f"({len(config.clients)} clients, {len(config.miners)} miners)")
        return EXIT_OK
    return EXIT_VALIDATION


def _lifecycle(phases: Callable[[NetworkManager], list[PhaseTiming]]) -> Callable[[argparse.Namespace], int]:
    """A command that runs lifecycle phases and reports their timings."""

    def run(args) -> int:
        timings = phases(_manager(args, dsl.load_config(args.config)))
        _print_timings(timings)
        if args.csv:
            rows = ((t.phase, t.node_count, 0, t.duration) for t in timings)
            Path(args.csv).write_text(raw_csv(rows), encoding="utf-8")
        if args.json_out:
            _write_json([t.__dict__ for t in timings], args.json_out)
        return EXIT_OK

    return run


def _cmd_bench(args) -> int:
    config = dsl.load_config(args.config)
    counts = [int(part) for part in args.counts.split(",") if part.strip()]
    result: BenchResult = bench(
        config,
        counts,
        args.reps,
        args.workspace,
        executor=make_executor(args.executor),
        node_defaults=NodeDefaults(block_interval=args.block_interval, max_block_txs=args.max_block_txs),
        warmup=not args.no_warmup,
    )
    summary = result.summary()
    print(f"bench: counts={counts} reps={args.reps}")
    for phase in result.phases():
        cells = "  ".join(
            f"{count}p {summary[phase][count][0]:.3f}±{summary[phase][count][1]:.3f}"
            for count in counts
            if count in summary.get(phase, {})
        )
        print(f"{phase:<22} {cells}")
    if args.csv:
        Path(args.csv).write_text(result.to_raw_csv(), encoding="utf-8")
    if args.summary:
        Path(args.summary).write_text(result.to_summary_csv(), encoding="utf-8")
    if args.json_out:
        _write_json(
            {
                "counts": counts,
                "repetitions": args.reps,
                "rows": [row.__dict__ for row in result.rows],
                "failures": result.failures,
            },
            args.json_out,
        )
    if not result.ok:
        print(f"bench finished with {len(result.failures)} failed repetition(s); results are partial")
        return EXIT_EXECUTION
    return EXIT_OK


def _parse_fault(spec: str | None, config: dsl.NetworkConfig, intervals: int) -> tuple[int, str, str] | None:
    """``--fault interval:node:mode``, checked against the config and the day before anything starts."""
    if spec is None:
        return None
    try:
        interval, node_name, mode = spec.split(":")
        number = int(interval)
    except ValueError:
        raise ValidationFailed(f"--fault must be interval:node:mode, got {spec!r}") from None
    if not 0 <= number < intervals:
        raise ValidationFailed(f"--fault interval {number} is not one of the day's intervals 0..{intervals - 1}")
    try:
        dsl.node_lookup(config, node_name)
    except dsl.NodeNotFound as exc:
        raise ValidationFailed(f"--fault: {exc}") from None
    if mode not in node.FAULT_MODES:
        raise ValidationFailed(f"--fault mode must be one of {', '.join(node.FAULT_MODES)}, got {mode!r}")
    return number, node_name, mode


def _cmd_status(args) -> int:
    status = _manager(args, dsl.load_config(args.config)).network_status()
    for name, answer in status.items():
        if answer is None:
            print(f"{name:<16} not answering")
            continue
        code = answer.get("codeDigest") or "source tree"
        print(
            f"{name:<16} height {answer['height']:>6}  pending {answer['pending']:>5}  peers {answer['peers']:>3}  "
            f"mining {str(answer['mining']).lower():<5}  fault {answer['fault']:<13}  code {code}"
        )
    if args.json_out:
        _write_json(status, args.json_out)
    return EXIT_OK if all(status.values()) else EXIT_EXECUTION


def _cmd_run_tes(args) -> int:
    config = dsl.load_config(args.config)
    fault = _parse_fault(args.fault, config, args.intervals)
    manager = _manager(args, config)

    if not manager.genesis_path().exists():
        _print_timings(manager.network_create())
    _print_timings([manager.start("miners"), manager.start("clients"), manager.network_connect()])

    wrappers: dict[str, NodeWrapper] = {}
    try:
        for client in config.clients:
            wrappers[client.name] = NodeWrapper(
                manager.node_dir(client.name), poll_period=0.2, launcher=manager.launcher
            ).attach()
        report = tes.run_day(wrappers, config, args.seed, intervals=args.intervals, fault=fault)
    finally:
        for wrapper in wrappers.values():
            wrapper.close()
        if not args.keep_network:
            try:
                manager.network_stop()
            except ManagerError:
                pass

    tes.write_report(report, args.report)
    print(f"day report written to {args.report}")

    blocks = node.load_blocks(manager.node_dir(config.miners[0].name))
    findings = tes.audit_report(report, blocks)
    failed = [f for f in findings if not f.ok]
    _print_findings(findings)
    bad_intervals = [o for o in report["outcomes"] if o["status"] != "ok"]
    if failed or bad_intervals:
        print(f"trading day completed with {len(bad_intervals)} failed interval(s), {len(failed)} audit failure(s)")
        return EXIT_EXECUTION
    print(f"trading day complete: {args.intervals} intervals committed and audited")
    return EXIT_OK


def _cmd_audit(args) -> int:
    config = dsl.load_config(args.config)
    manager = _manager(args, config)
    report = tes.read_report(args.report)
    node_name = args.node or config.miners[0].name
    dsl.node_lookup(config, node_name)
    blocks = node.load_blocks(manager.node_dir(node_name))
    findings = tes.audit_report(report, blocks)
    _print_findings(findings)
    if args.json_out:
        _write_json([finding.__dict__ for finding in findings], args.json_out)
    return EXIT_OK if all(f.ok for f in findings) else EXIT_EXECUTION


# Every subcommand: its help line and what runs it, in the order --help lists them.
_COMMANDS: dict[str, tuple[str, Callable[[argparse.Namespace], int]]] = {
    "validate": ("parse and consistency-check a network definition", _cmd_validate),
    "clients-create": ("create client data directories", _lifecycle(lambda m: [m.clients_create()])),
    "miners-create": ("create miner data directories", _lifecycle(lambda m: [m.miners_create()])),
    "blockchain-make": ("produce the genesis document from the DSL", _lifecycle(lambda m: [m.blockchain_make()])),
    "blockchain-create": ("initialize miner-side chain stores", _lifecycle(lambda m: [m.blockchain_create()])),
    "distribute-clients": ("copy the genesis file to every client", _lifecycle(lambda m: [m.distribute("clients")])),
    "distribute-miners": ("copy the genesis file to every miner", _lifecycle(lambda m: [m.distribute("miners")])),
    "create": ("run all creation phases in order", _lifecycle(lambda m: m.network_create())),
    "start-miners": ("launch miner node processes", _lifecycle(lambda m: [m.start("miners")])),
    "start-clients": ("launch client node processes", _lifecycle(lambda m: [m.start("clients")])),
    "connect": ("connect every client to every miner (star)", _lifecycle(lambda m: [m.network_connect()])),
    "status": ("show each node's admin status; exit 2 if one does not answer", _cmd_status),
    "stop": ("stop all nodes (graceful, then kill)", _lifecycle(lambda m: [m.network_stop()])),
    "delete": ("remove all per-node directories", _lifecycle(lambda m: [m.network_delete()])),
    "bench": ("measure lifecycle phases across network sizes", _cmd_bench),
    "run-tes": ("run a simulated trading day on the network", _cmd_run_tes),
    "audit": ("verify a day report against a node's chain", _cmd_audit),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.run(args)
    except (dsl.ConfigParseError, dsl.ConfigSchemaError, InvalidConfig, ValidationFailed) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (
        ManagerError,
        tes.TesError,
        AdminError,
        AdminTimeout,
        AdminUnreachable,
        RecoveryFailed,
        GenesisFormatError,
        HashMismatch,
        dsl.NodeNotFound,
        OSError,
    ) as exc:
        print(f"execution failure: {exc}", file=sys.stderr)
        return EXIT_EXECUTION


if __name__ == "__main__":
    sys.exit(main())
