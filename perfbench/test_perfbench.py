"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench

Each workload runs for about a second and must print every metric that
BENCHMARK.json names, with its unit; planted wrong results must show up
in ``fail_ratio``, and in ``failed`` when they fall outside the known
failures of the seed program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
BENCH = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(args, cwd=REPO):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


@pytest.fixture
def run_module(monkeypatch):
    """The benchmark's ``run`` module, imported from the repository root."""
    monkeypatch.chdir(REPO)
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    monkeypatch.syspath_prepend(str(REPO / "src"))
    for name in ("run", "workloads", "spans"):
        sys.modules.pop(name, None)
    import run

    return run


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"])
    result, info = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    assert info["input_digest"] and info["python"] and info["nproc"]
    assert result["correct"] == (not info["unexpected_failures"])
    assert result["failed"] == 0 or not result["correct"]
    if not trace:
        assert info["host_speed_factor"] > 0
        assert set(info["unscaled"]) == {"setup_s", "items_per_s", "item_p50_ms", "item_tail_ms"}


def test_same_seed_same_inputs():
    digests = set()
    for _ in range(2):
        _, info = _result(_run(["--workload", "certify-small", "--seed", "3", "--seconds", "0.5", "--tiny"]))
        digests.add(info["input_digest"])
    _, other = _result(_run(["--workload", "certify-small", "--seed", "4", "--seconds", "0.5", "--tiny"]))
    assert len(digests) == 1 and other["input_digest"] not in digests


def test_benchmark_json_matches_the_runner(run_module):
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run_module.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == (
        run_module.per_layer_metrics()
    )
    assert tuple(WORKLOADS) == run_module.WORKLOADS
    baseline = json.loads((REPO / "perfbench" / "baseline.json").read_text())
    import workloads

    assert baseline["known_failures"] == workloads.KNOWN_FAILURES
    assert list(baseline["workloads"]) == WORKLOADS


def test_traced_run_writes_spans_that_share_item_ids(run_module):
    result, info = _result(
        _run(["--workload", "represent-small", "--seed", "2", "--seconds", "0.5", "--trace", "1", "--tiny"])
    )
    rows = (REPO / info["spans"]).read_text().splitlines()
    assert rows[0] == "item,parent,name,start_ns,end_ns,ok"
    items = {r.split(",")[0] for r in rows[1:] if r.split(",")[2].startswith("item.")}
    children = [r.split(",") for r in rows[1:] if not r.split(",")[2].startswith("item.")]
    assert items == {str(i) for i in range(min(result["attempted"], run_module.SPAN_ITEMS))}
    assert children and all(c[0] == c[1] and c[0] in items for c in children)


def _in_process(run_module, capsys, *args):
    assert run_module.main([*args, "--seconds", "1", "--tiny"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


def test_planted_negative_value_counts_as_failed(run_module, capsys, monkeypatch):
    import divkit

    real = divkit.divergence

    def negative_triangular(kind, p, q, **params):
        value = real(kind, p, q, **params)
        if kind == "triangular":
            return divkit.DivergenceValue(-abs(value.value) - 1e-3, kind, dict(params))
        return value

    monkeypatch.setattr(divkit, "divergence", negative_triangular)
    result, info = _in_process(run_module, capsys, "--workload", "certify-small", "--seed", "1")
    # every item but the few Poisson ones computes the triangular divergence
    planted = info["failure_counts"]["divergences.negative.triangular"]
    assert planted >= 0.9 * result["attempted"]
    assert result["metrics"]["fail_ratio"]["value"] * result["attempted"] >= planted
    assert result["failed"] >= 0.9 * result["attempted"] and result["correct"] is False
    # a negative value is a known failure class; the f_divergence mismatch is not
    assert "divergences.negative.triangular" not in info["unexpected_failures"]
    assert "divergences.f_divergence_mismatch.triangular" in info["unexpected_failures"]


def test_known_failure_counts_in_fail_ratio_only(run_module, capsys, monkeypatch):
    import dataclasses

    import divkit

    real = divkit.local_limit_estimate

    def off_target(*args, **kwargs):
        est = real(*args, **kwargs)
        return dataclasses.replace(est, extrapolated=2.0 * est.target + 1.0)

    monkeypatch.setattr(divkit, "local_limit_estimate", off_target)
    result, info = _in_process(run_module, capsys, "--workload", "certify-small", "--seed", "1")
    planted = info["failure_counts"]["local.limit_off_target"]
    assert planted >= 0.9 * result["attempted"]
    assert result["metrics"]["fail_ratio"]["value"] * result["attempted"] >= planted
    assert info["known_failure_items"] >= planted
    assert result["failed"] == 0 and result["correct"] is True


def test_planted_representation_error_counts_as_failed(run_module, capsys, monkeypatch):
    import divkit

    real = divkit.represent_named
    monkeypatch.setattr(divkit, "represent_named", lambda *a, **k: real(*a, **k) + 1e-6)
    result, info = _in_process(run_module, capsys, "--workload", "represent-small", "--seed", "1")
    assert info["failure_counts"]["spectrum_repr.represent_named_error"] > 0
    assert "spectrum_repr.represent_named_error" in info["unexpected_failures"]
    assert result["correct"] is False
    assert result["failed"] >= info["failure_counts"]["spectrum_repr.represent_named_error"]
    assert result["metrics"]["fail_ratio"]["value"] > 0


def test_refuses_to_run_without_the_program():
    bare = REPO / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(REPO / "BENCHMARK.json", bare)
        shutil.copytree(REPO / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["--workload", "certify-small", "--seed", "1", "--seconds", "1"], cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_tail_has_ten_samples_beyond(run_module):
    latencies = list(range(100))
    value, pct = run_module.tail(latencies)
    assert value == 89 and sum(1 for x in latencies if x > value) == 10
    assert pct == pytest.approx(90.0)
