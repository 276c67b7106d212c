"""Benchmark of the linkage-betti command-line program.

Run from the repository root::

    python3 perfbench/run.py --workload exact-avg --seed 0 --seconds 30 --trace 0

``--trace 0`` runs the workload's job list (see ``workloads.py``) as
``python -m linkage_betti ...`` subprocesses, one at a time, in passes until
``--seconds`` is used up, checks every job's stdout, and reports the median
pass.  ``--trace 1`` instead runs the per-layer measurements of
``layers.py`` in fresh interpreters and writes their spans.  ``--quick``
shrinks every input, for the benchmark's own test.

Human-readable lines (environment, every metric with its unit, problems) come
first; the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``).  The full record goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import traced_run
from procs import run_process
from workloads import WORKLOADS, build_jobs, check_output, load_exact_values, load_goldens

SETUP_PER_PASS = 3
RUN_LIMIT_S = 165.0  # children still running then are killed, so a run exits within 180 s
PACKAGE = Path("src") / "linkage_betti"


def environment(root: Path) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    revision, dirty = "unknown", None
    if (root / ".git").exists():
        def git(*args: str) -> str:
            return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                                  check=True).stdout.strip()
        try:
            revision, dirty = git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "git_revision": revision,
        "git_dirty": dirty,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py"))),
    }


def run_job(argv: tuple[str, ...], env: dict[str, str], deadline: float):
    """Run ``python -m linkage_betti <argv>``; returns the result and a problem if it exited non-zero."""
    result = run_process([sys.executable, "-m", "linkage_betti", *argv], env, deadline - time.perf_counter())
    problems = [] if result.returncode == 0 else [
        f"{' '.join(argv[:1])}: exit {result.returncode}: {result.stderr.strip()[-400:]}"]
    return result, problems


def run_passes(jobs, env, seconds: float, mode: str, deadline: float):
    """Time passes over the job list until ``seconds`` is used up; returns (pass records, problems).

    SETUP_PER_PASS set-up probes (``--version``) run before each pass, so the
    set-up median spans the same stretch of time as the pass median.
    """
    goldens, exact_values = load_goldens(mode), load_exact_values()
    passes, problems = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        record = {"setup": [], "wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "groups": {}, "jobs": {}}
        for _ in range(SETUP_PER_PASS):
            result, setup_problems = run_job(("--version",), env, deadline)
            if not setup_problems and not result.stdout.startswith("linkage-betti "):
                setup_problems = [f"--version printed {result.stdout[:80]!r}"]
            problems += setup_problems
            record["setup"].append({"wall_s": result.wall_s, "ok": not setup_problems})
        outputs: dict[str, str] = {}
        pass_start = time.perf_counter()
        for job in jobs:
            result, job_problems = run_job(job.argv, env, deadline)
            if not job_problems:
                job_problems = check_output(job, result.stdout, goldens, exact_values, outputs)
            problems += job_problems
            outputs[job.key] = result.stdout
            record["cpu_s"] += result.cpu_s
            record["peak_rss_mb"] = max(record["peak_rss_mb"], result.maxrss_mb)
            record["groups"][job.group] = record["groups"].get(job.group, 0.0) + result.wall_s
            record["jobs"][job.key] = {"wall_s": result.wall_s, "cpu_s": result.cpu_s,
                                       "maxrss_mb": result.maxrss_mb, "ok": not job_problems}
        now = time.perf_counter()
        record["wall_s"] = now - pass_start
        record["round_s"] = now - round_start
        passes.append(record)
        typical = statistics.median(p["round_s"] for p in passes)
        if now + typical > min(start + seconds, deadline):
            return passes, problems


def end_to_end(jobs, passes) -> dict[str, tuple[float, str]]:
    """Median over passes of every end-to-end metric that applies to the job list."""
    median = statistics.median
    metrics = {
        "setup_s": (median(s["wall_s"] for p in passes for s in p["setup"]), "s"),
        "wall_s": (median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    for group in sorted({job.group for job in jobs} - {"both"}):
        metrics[f"{group}_s"] = (median(p["groups"][group] for p in passes), "s")
    for job in jobs:
        if job.samples and job.group == "simplex":
            threads = job.key.rsplit(".", 1)[1]
            metrics[f"samples_per_s.{threads}"] = (
                median(job.samples / p["jobs"][job.key]["wall_s"] for p in passes), "1/s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args()

    deadline = time.perf_counter() + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / PACKAGE / "__init__.py").is_file():
        print(f"error: {PACKAGE} not found under {root}; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    mode = "quick" if args.quick else "full"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"

    result: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "mode": mode,
                    "environment": environment(root)}
    if args.trace == 0:
        jobs = build_jobs(args.workload, args.seed, mode)
        passes, problems = run_passes(jobs, env, args.seconds, mode, deadline)
        runs = [run for p in passes for run in p["setup"] + list(p["jobs"].values())]
        attempted, failed = len(runs), sum(not run["ok"] for run in runs)
        metrics = end_to_end(jobs, passes)
        metrics["failed_frac"] = (failed / attempted, "ratio")
        result.update(passes=passes, jobs=[list(job.argv) for job in jobs])
        wanted = [m["name"] for m in spec["end_to_end"]]
        absent = []
    else:  # the end-to-end passes are not run: spans would not change them, only add cost
        metrics, absent_functions, problems, spans, attempted, failed = traced_run(
            env, args.workload, args.seed, mode, deadline)
        (out_dir / f"spans-{stem}.json").write_text(json.dumps(spans, indent=1))
        wanted = sorted(metrics) if args.quick else [m["name"] for m in spec["per_layer"]]
        absent = [f"function {name}" for name in absent_functions]
        absent += [f"metric {name}" for name in wanted if name not in metrics]
    result.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  problems=problems, absent=absent)
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1))

    env_block = result["environment"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} mode {mode}")
    for key, value in env_block.items():
        print(f"env {key} {json.dumps(value)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    for name in absent:
        print(f"absent {name}")
    for problem in problems:
        print(f"problem {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
