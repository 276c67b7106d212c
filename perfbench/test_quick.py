"""Test of the benchmark's quick mode and of its output checks.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/test_quick.py
"""

from __future__ import annotations

import fnmatch
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from workloads import DEFAULT_SEED, WORKLOADS, build_jobs, check_output, independent_betti, \
    load_exact_values, load_goldens

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_is_correct_and_prints_every_end_to_end_metric(workload):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0", "--quick")
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("metric ")}
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    assert printed == set(layer_map["end_to_end_reported"][workload])


def test_quick_traced_run_writes_spans_and_layer_metrics():
    result = last_json(run_bench(ROOT, "--workload", "monte-carlo", "--seed", str(DEFAULT_SEED),
                                 "--seconds", "1", "--trace", "1", "--quick"))
    assert result["correct"] and result["failed"] == 0
    layers = {name.split(".")[0] for name in result["metrics"]}
    assert layers == {"cli", "linkages", "slicing", "simplexes", "averages", "sampling"}
    spans = json.loads((ROOT / ".perfbench_out" / f"spans-monte-carlo-seed{DEFAULT_SEED}-trace1-quick.json").read_text())
    ids = {s["id"] for s in spans}
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)
    assert all(s["end"] >= s["start"] for s in spans)


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "exact-avg", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_wrong_golden_fails_the_check():
    goldens, exact = load_goldens("quick"), load_exact_values()
    job = build_jobs("exact-avg", DEFAULT_SEED, "quick")[0]
    good = goldens[job.key]
    assert check_output(job, good, goldens, exact, {}) == []
    tampered = dict(goldens, **{job.key: good.replace("1", "2", 1)})
    assert check_output(job, good, tampered, exact, {})
    assert check_output(job, good, {}, exact, {})


def test_betti_and_monte_carlo_checks_catch_wrong_outputs():
    betti = next(j for j in build_jobs("instance-betti", 9, "quick") if j.group == "nongeneric")
    assert check_output(betti, betti.expected, {}, {}, {}) == []
    assert check_output(betti, betti.expected.replace("false", "true"), {}, {}, {})
    assert independent_betti([Fraction(3), Fraction(1), Fraction(1), Fraction(1), Fraction(1)])[0] == (
        "p,betti,short,median,generic\n0,1,1,0,true\n1,0,0,0,true\n2,1,0,0,true\n")

    t1, t2 = [j for j in build_jobs("monte-carlo", 9, "quick") if j.exact_key == "simplex.n6p1"]
    exact = load_exact_values()
    row = {"samples": t1.samples, "estimate": str(float(exact["simplex.n6p1"])), "stderr": "0.01"}
    good = json.dumps({"rows": [row]})
    assert check_output(t1, good, {}, exact, {}) == []
    assert check_output(t2, good, {}, exact, {t1.key: good}) == []
    far = json.dumps({"rows": [dict(row, estimate=str(float(exact["simplex.n6p1"]) + 0.06))]})
    assert check_output(t1, far, {}, exact, {})
    assert check_output(t2, good, {}, exact, {t1.key: far})


def test_layer_map_covers_every_per_layer_metric():
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    workloads = {w["name"] for w in SPEC["workloads"]}
    patterns = [p for entry in layer_map["predictions"] for p in entry["per_layer"]]
    for metric in SPEC["per_layer"]:
        assert any(fnmatch.fnmatchcase(metric["name"], p) for p in patterns), metric["name"]
    for entry in layer_map["predictions"]:
        assert set(entry["moves"]) == workloads
        for workload, moved in entry["moves"].items():
            assert moved == "no change" or set(moved) <= set(layer_map["end_to_end_reported"][workload])


@pytest.mark.parametrize("missing", [("simplexes", "functional_values"), ("averages", "subset_classes")])
def test_traced_measurement_marks_a_removed_function_absent(monkeypatch, missing):
    import layers

    module = pytest.importorskip(f"linkage_betti.{missing[0]}")
    monkeypatch.delattr(module, missing[1])
    report, metrics = layers.Report(), {}
    with report.optional():
        metrics = layers.m_simplexes(layers.Tracer("test"), layers.SIZES["quick"], 0, report)
    assert report.absent == [f"linkage_betti.{missing[0]}.{missing[1]}"]
    assert "simplexes.functional_values_us" not in metrics
    assert report.problems == []
