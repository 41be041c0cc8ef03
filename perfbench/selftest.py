"""Tests of the benchmark itself.

Run from the root of a checkout with::

    python3 -m pytest perfbench/selftest.py

The file name keeps these tests out of a plain ``pytest`` run of the
package's own suite.  They take about two minutes, most of it in the
expansion suite, which has no reduced size.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from circshell import checkers, kernels, suites  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _command(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _command("--workload", workload, "--smoke", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = _result(proc.stdout)
    env = re.search(r"^env: (.*)$", proc.stdout, re.M)
    assert env and set(json.loads(env.group(1))) == {
        "kernel_backend", "numba_importable", "cpu_count", "python", "git_commit",
        "src_sha256"}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        line = rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$"
        assert re.search(line, proc.stdout, re.M), m["name"]
    assert re.search(r"^\s+failed_ratio\s+0 ", proc.stdout, re.M)
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_self_times_are_nonnegative_and_fit_in_the_traced_wall(workload):
    proc = _command("--workload", workload, "--smoke", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-3000:]
    metrics = {k: v["value"] for k, v in _result(proc.stdout)["metrics"].items()}
    selfs = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
    assert len(selfs) == 7
    assert all(v >= 0 for v in selfs.values()), selfs
    assert sum(selfs.values()) <= metrics["tracing.wall_s"]
    # only alpha-scan reaches the kernels; the traced pass saw real spans
    assert (metrics["kernels.scan_s"] > 0) == (workload == "alpha-scan")
    assert metrics["tracing.spans"] > 0


def _corrupt_shelling_certificates(monkeypatch):
    real = checkers.shelling

    def corrupted(d, **kwargs):
        out = real(d, **kwargs)
        if out.verdict == "yes" and len(out.certificate.order) > 1:
            cert = checkers.ShellingCertificate(out.certificate.order[:-1])
            out = dataclasses.replace(out, certificate=cert)
        return out

    monkeypatch.setattr(checkers, "shelling", corrupted)


def _flip_vd_verdicts(monkeypatch):
    real = checkers.vertex_decomposition

    def flipped(d, **kwargs):
        out = real(d, **kwargs)
        return dataclasses.replace(
            out, verdict={"yes": "no", "no": "yes"}.get(out.verdict, out.verdict))

    monkeypatch.setattr(checkers, "vertex_decomposition", flipped)


def _report_a_product_failure(monkeypatch):
    monkeypatch.setattr(kernels, "alpha_product_failures", lambda ns, adjs: [(0, 1)])


def _exhaust_every_budget(monkeypatch):
    monkeypatch.setattr(workloads, "SMALL_CALL_BUDGET_S", 0.0)


def _fail_an_expansion(monkeypatch):
    def run_suite(name, cfg):
        bad = {"instance": "injected", "status": "fail", "verdicts": {}}
        return suites.SuiteReport(
            suite=name, config=cfg.to_obj(), total=33866, passed=False,
            elapsed_s=0.0, failures=[bad], unknowns=[], skipped=[], records=[],
            aggregated=True, budgeted=False)

    monkeypatch.setattr(suites, "run_suite", run_suite)


@pytest.mark.parametrize("workload, inject", [
    ("milestones", _corrupt_shelling_certificates),
    ("milestones", _flip_vd_verdicts),
    ("chain", _corrupt_shelling_certificates),
    ("chain", _flip_vd_verdicts),
    ("chain", _exhaust_every_budget),
    ("alpha-scan", _report_a_product_failure),
    ("expansion-suite", _fail_an_expansion),
])
def test_injected_fault_is_counted_and_fails_the_command(workload, inject,
                                                         monkeypatch, capsys):
    inject(monkeypatch)
    code = run.main(["--workload", workload, "--smoke", "--seconds", "0"])
    out = capsys.readouterr().out
    result = _result(out)
    assert code == 1
    assert not result["correct"] and 0 < result["failed"] <= result["attempted"]
    ratio = re.search(r"^\s+failed_ratio\s+(\S+) ", out, re.M)
    assert ratio and float(ratio.group(1)) > 0
    assert "tracing" not in sys.modules  # untraced runs load no wrappers


def test_error_outside_the_checked_calls_exits_2_without_a_result(monkeypatch, capsys):
    def broken_inputs(seed, smoke):
        raise AttributeError("the program's API changed")

    chain = dataclasses.replace(workloads.WORKLOADS["chain"], make_inputs=broken_inputs)
    monkeypatch.setitem(workloads.WORKLOADS, "chain", chain)
    code = run.main(["--workload", "chain", "--smoke", "--seconds", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert '"correct"' not in captured.out
    assert "API changed" in captured.err


def test_one_command_runs_every_workload():
    proc = _command("--smoke", "--seconds", "0")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = _result(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {f"{w}.{m['name']}" for w in run.WORKLOAD_NAMES
                                      for m in SPEC["end_to_end"]}


def test_bare_benchmark_directory_fails_without_a_result():
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _command("--workload", "chain", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_layer_map_covers_every_per_layer_metric_once():
    rows = json.loads((BENCH / "layer_map.json").read_text())["rows"]
    mapped = [m for row in rows for m in row["per_layer"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    names = {w["name"] for w in SPEC["workloads"]}
    assert names == set(run.WORKLOAD_NAMES)
    for row in rows:
        assert {m["metric"] for m in row["moves"]} <= e2e
        assert {m["workload"] for m in row["moves"]} | set(row["no_change"]) <= names
