from __future__ import annotations

import json
from pathlib import Path

import pytest

from chainyard.cli import main
from chainyard.dsl import serialize_config
from chainyard.manager import make_bench_config
from chainyard.tes import read_report, stable_report_view
from conftest import BENCH_TEMPLATE, sample_doc


def write_config(tmp_path, prosumers=0, suffix="cli", name="config.json"):
    config = make_bench_config(BENCH_TEMPLATE, prosumers, suffix=suffix)
    path = tmp_path / name
    path.write_text(serialize_config(config), encoding="utf-8")
    return path, config


def test_validate_ok(tmp_path, capsys):
    path, _ = write_config(tmp_path)
    assert main(["validate", "--config", str(path)]) == 0
    assert "deployable" in capsys.readouterr().out


def test_validate_port_conflict_exits_one(tmp_path, capsys):
    doc = sample_doc()
    doc["clients"][1]["host"] = doc["clients"][0]["host"]
    doc["clients"][1]["blockchainPort"] = doc["clients"][0]["blockchainPort"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 1
    assert "PORT_CONFLICT" in capsys.readouterr().out


def test_validate_reserved_chain_id_warns_but_passes(tmp_path, capsys):
    path = tmp_path / "warn.json"
    path.write_text(json.dumps(sample_doc(chainID=3)), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 0
    assert "CHAIN_ID_RESERVED" in capsys.readouterr().out


def test_malformed_config_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"configurationName": ', encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 1
    assert "validation error" in capsys.readouterr().err


def test_unknown_subcommand_usage_exit():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 64


def test_missing_required_flag_usage_exit():
    with pytest.raises(SystemExit) as excinfo:
        main(["validate"])
    assert excinfo.value.code == 64


def test_no_subcommand_usage_exit():
    assert main([]) == 64


def test_the_removed_parallel_flag_is_a_usage_error(tmp_path):
    path, config = write_config(tmp_path, suffix="cli10")
    with pytest.raises(SystemExit) as excinfo:
        main(["create", "--config", str(path), "--workspace", str(tmp_path / "ws"), "--parallel"])
    assert excinfo.value.code == 64
    assert not (tmp_path / "ws" / config.configuration_name).exists()


def test_create_prints_phase_timings_and_csv(tmp_path, capsys):
    path, config = write_config(tmp_path, suffix="cli2")
    csv_path = tmp_path / "timings.csv"
    code = main(
        ["create", "--config", str(path), "--workspace", str(tmp_path / "ws"), "--csv", str(csv_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    for phase in ("ClientsCreate", "MinersCreate", "BlockchainMake", "BlockchainCreate",
                  "DistributeToClients", "DistributeToMiners", "FullNetworkCreated"):
        assert phase in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "phase,node_count,rep,duration_seconds"
    assert len(lines) == 8


def test_blockchain_make_rerun_is_byte_identical(tmp_path):
    path, config = write_config(tmp_path, suffix="cli3")
    ws = str(tmp_path / "ws")
    assert main(["blockchain-make", "--config", str(path), "--workspace", ws]) == 0
    genesis_path = Path(ws) / config.configuration_name / "genesis.json"
    first = genesis_path.read_bytes()
    assert main(["blockchain-make", "--config", str(path), "--workspace", ws]) == 0
    assert genesis_path.read_bytes() == first


def test_create_twice_without_force_fails(tmp_path, capsys):
    path, _ = write_config(tmp_path, suffix="cli4")
    ws = str(tmp_path / "ws")
    assert main(["create", "--config", str(path), "--workspace", ws]) == 0
    assert main(["create", "--config", str(path), "--workspace", ws]) == 2
    assert "execution failure" in capsys.readouterr().err


def test_full_cli_lifecycle(tmp_path):
    path, config = write_config(tmp_path, prosumers=1, suffix="cli5")
    ws = str(tmp_path / "ws")
    base = ["--config", str(path), "--workspace", ws, "--block-interval", "0.1"]
    try:
        assert main(["create", *base]) == 0
        assert main(["start-miners", *base]) == 0
        assert main(["start-clients", *base]) == 0
        assert main(["connect", *base]) == 0
    finally:
        assert main(["stop", *base]) == 0
    assert main(["delete", *base]) == 0
    assert not (Path(ws) / config.configuration_name).exists()


def test_stop_without_running_network_fails(tmp_path):
    path, _ = write_config(tmp_path, suffix="cli6")
    ws = str(tmp_path / "ws")
    assert main(["create", "--config", str(path), "--workspace", ws]) == 0
    assert main(["stop", "--config", str(path), "--workspace", ws]) == 2


def test_bench_cli_writes_raw_and_summary(tmp_path, capsys):
    path, _ = write_config(tmp_path, suffix="cli8")
    raw = tmp_path / "raw.csv"
    summary = tmp_path / "summary.csv"
    code = main(
        [
            "bench",
            "--config", str(path),
            "--workspace", str(tmp_path / "ws"),
            "--counts", "1",
            "--reps", "1",
            "--no-warmup",
            "--csv", str(raw),
            "--summary", str(summary),
            "--block-interval", "0.2",
        ]
    )
    assert code == 0
    raw_lines = raw.read_text().splitlines()
    assert raw_lines[0] == "phase,node_count,rep,duration_seconds"
    assert len(raw_lines) == 13  # 12 phases, one rep
    summary_lines = summary.read_text().splitlines()
    assert summary_lines[0] == "phase,avg_1p,stddev_1p"
    out = capsys.readouterr().out
    assert "FullNetworkCreated" in out


def test_run_tes_and_audit_round_trip(tmp_path, capsys):
    path, config = write_config(tmp_path, prosumers=2, suffix="cli7")
    ws = str(tmp_path / "ws")
    report_path = tmp_path / "day.json"
    code = main(
        [
            "run-tes",
            "--config", str(path),
            "--workspace", ws,
            "--seed", "99",
            "--intervals", "2",
            "--report", str(report_path),
            "--block-interval", "0.12",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "trading day complete" in out
    report = read_report(report_path)
    assert len(report["outcomes"]) == 2
    assert stable_report_view(report)["seed"] == 99

    assert main(["audit", "--config", str(path), "--workspace", ws, "--report", str(report_path)]) == 0
    assert "pass" in capsys.readouterr().out

    # tamper one byte of one off-chain result: exactly that interval must fail
    tampered = read_report(report_path)
    tampered["outcomes"][1]["result"]["interval"] = 1  # no-op field touch keeps structure
    tampered["outcomes"][1]["result"]["dsoResidual"] += 1
    tampered_path = tmp_path / "tampered.json"
    tampered_path.write_text(json.dumps(tampered), encoding="utf-8")
    assert main(["audit", "--config", str(path), "--workspace", ws, "--report", str(tampered_path)]) == 2
    audit_out = capsys.readouterr().out
    assert "interval  0: pass" in audit_out
    assert "interval  1: FAIL" in audit_out


@pytest.mark.parametrize(
    "spec",
    ["x:dso1:stall_mempool", "0:dso1", "0:nobody:stall_mempool", "0:dso1:explode", "2:dso1:none", "-1:dso1:none"],
)
def test_run_tes_rejects_a_bad_fault_before_anything_starts(tmp_path, capsys, spec):
    path, _ = write_config(tmp_path, suffix="cli8")
    ws = tmp_path / "ws"
    args = ["run-tes", "--config", str(path), "--workspace", str(ws), "--seed", "1", "--intervals", "2"]
    assert main([*args, f"--fault={spec}"]) == 1
    assert "--fault" in capsys.readouterr().err
    assert not ws.exists()
