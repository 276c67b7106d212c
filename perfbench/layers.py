"""Traced per-layer measurements of the six ``linkage_betti`` modules.

``traced_run`` (called by ``run.py --trace 1``) starts one fresh interpreter
per measurement, so the ``slicing`` LRU cache starts cold as it does for a CLI
user.  Each child runs this file as a script::

    PYTHONPATH=src python3 perfbench/layers.py <measurement> <mode> <workload> <seed>

and prints one JSON line: its metrics, the metrics whose public function has
left ``src/`` (absent), the problems its checks found, and its spans.  Spans
(name, start, end, parent) are recorded here, around calls into each layer;
the program itself is not instrumented.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import io
import json
import os
import random
import statistics
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

from procs import run_process
from workloads import DATA_DIR, build_jobs, check_output, independent_betti, load_exact_values, \
    load_goldens, seeded_vector

SIZES = {
    "full": {
        "generic_ns": (21, 22, 23),
        "nongeneric_ns": (20, 21, 22),
        "is_generic_n": 23,
        "betti_n": 18,
        "three_value_ns": (20, 40),
        "exact": (("simplex", 14, 5), ("cube", 16, 6)),
        "workers2": ("simplex", 14, 5),
        "convergence": (1, 4, 14),
        "mc_setup": (20, 8),
        "mc": (("simplex", 12, 4, 65536), ("cube", 14, 3, 65536)),
        "repeats": 3,
    },
    "quick": {
        "generic_ns": (8, 9),
        "nongeneric_ns": (7, 8),
        "is_generic_n": 9,
        "betti_n": 8,
        "three_value_ns": (8, 12),
        "exact": (("simplex", 7, 2), ("cube", 8, 2)),
        "workers2": ("simplex", 7, 2),
        "convergence": (0, 3, 7),
        "mc_setup": (8, 2),
        "mc": (("simplex", 6, 1, 4096), ("cube", 7, 2, 4096)),
        "repeats": 1,
    },
}


class Absent(Exception):
    """A public function a measurement needs is no longer in ``src/``."""


class Report:
    """What a measurement's checks found, and the functions it could not find."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.absent: list[str] = []

    @contextlib.contextmanager
    def optional(self):
        """Skip the rest of the block, noting the function, when it has left ``src/``."""
        try:
            yield
        except Absent as exc:
            self.absent.append(str(exc))


def lookup(module: str, name: str):
    """``linkage_betti.<module>.<name>``; Absent if either is gone, while a failing import still raises."""
    qualified = f"linkage_betti.{module}"
    try:
        return getattr(importlib.import_module(qualified), name)
    except ModuleNotFoundError as exc:
        if exc.name != qualified:
            raise
        raise Absent(f"{qualified}.{name}") from exc
    except AttributeError as exc:
        raise Absent(f"{qualified}.{name}") from exc


class Tracer:
    """In-memory spans of one process; each has a parent span id or None."""

    def __init__(self, trace_id: str, root_parent: str | None = None) -> None:
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[str | None] = [root_parent]

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": f"{os.getpid()}.{len(self.spans)}", "trace": self.trace_id, "name": name,
                  "parent": self._stack[-1], "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def duration(self, record: dict) -> float:
        return record["end"] - record["start"]

    def self_time(self, record: dict) -> float:
        """Span duration minus the time its (sequential) child spans cover."""
        children = [s for s in self.spans if s["parent"] == record["id"]]
        return self.duration(record) - sum(self.duration(c) for c in children)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


# ---------------------------------------------------------------------------
# measurements; each returns {metric: (value, unit)} and notes problems in report


def m_import(tr, sizes, seed, report):
    with tr.span("cli.import") as s:
        importlib.import_module("linkage_betti.cli")
    return {"cli.import_s": (tr.duration(s), "s")}


def m_cli(workload):
    """In-process ``cli.main`` over the workload's quick job list; self time excludes library calls.

    The only measurement that depends on the workload.
    """
    def measurement(tr, sizes, seed, report):
        cli = importlib.import_module("linkage_betti.cli")
        for name in ("betti_profile", "is_generic", "average_betti_exact", "convergence_table",
                     "average_betti_mc", "slice_ratio"):
            if hasattr(cli, name):
                setattr(cli, name, tr.wrap(f"library.{name}", getattr(cli, name)))
        goldens, exact_values, outputs = load_goldens("quick"), load_exact_values(), {}
        self_s = 0.0
        for job in build_jobs(workload, seed, "quick"):
            buffer = io.StringIO()
            with tr.span(f"cli.main {job.key}") as s, contextlib.redirect_stdout(buffer):
                code = cli.main(list(job.argv))
            self_s += tr.self_time(s)
            if code != 0:
                report.problems.append(f"cli.main {job.key}: exit {code}")
            report.problems += check_output(job, buffer.getvalue(), goldens, exact_values, outputs)
            outputs[job.key] = buffer.getvalue()
        return {"cli.self_s": (self_s, "s")}
    return measurement


def _profile_csv(profile) -> str:
    generic = "false" if any(profile.median_counts) else "true"
    lines = ["p,betti,short,median,generic"] + [
        f"{p},{v},{profile.short_counts[p]},{profile.median_counts[p]},{generic}"
        for p, v in enumerate(profile.values)
    ]
    return "\n".join(lines) + "\n"


def m_linkages(tr, sizes, seed, report):
    LengthVector = lookup("linkages", "LengthVector")
    rng = random.Random(f"layers:{seed}")
    metrics = {}
    cases = [("generic", "generic", n) for n in sizes["generic_ns"]]
    cases += [("nongeneric", "ints", n) for n in sizes["nongeneric_ns"]]
    with report.optional():
        betti_profile = lookup("linkages", "betti_profile")
        for label, kind, n in cases:
            lengths = seeded_vector(rng, kind, n)
            ell = LengthVector(tuple(lengths))
            times = []
            for _ in range(sizes["repeats"]):
                with tr.span(f"linkages.betti_profile {label} n{n}") as s:
                    profile = betti_profile(ell)
                times.append(tr.duration(s))
            if _profile_csv(profile) != independent_betti(lengths)[0]:
                report.problems.append(f"betti_profile {label} n{n}: differs from the independent count")
            metrics[f"linkages.betti_profile_s.{label}.n{n}"] = (statistics.median(times), "s")
    n = sizes["is_generic_n"]
    ell = LengthVector(tuple(seeded_vector(rng, "generic", n)))
    with report.optional():
        is_generic = lookup("linkages", "is_generic")
        times = []
        for _ in range(25):
            with tr.span(f"linkages.is_generic n{n}") as s:
                generic = is_generic(ell)
            times.append(tr.duration(s))
        if not generic:
            report.problems.append(f"is_generic n{n}: a generic vector reported non-generic")
        metrics[f"linkages.is_generic_s.n{n}"] = (statistics.median(times), "s")
    n = sizes["betti_n"]
    lengths = seeded_vector(rng, "ints", n)
    with report.optional():
        betti = lookup("linkages", "betti")
        times = []
        values = []
        for _ in range(sizes["repeats"]):
            with tr.span(f"linkages.betti n{n}") as s:
                values = [betti(LengthVector(tuple(lengths)), p) for p in range(n - 2)]
            times.append(tr.duration(s) / (n - 2))
        expected = [int(line.split(",")[1]) for line in independent_betti(lengths)[0].split()[1:]]
        if values != expected:
            report.problems.append(f"betti n{n}: differs from the independent count")
        metrics[f"linkages.betti_s.n{n}"] = (statistics.median(times), "s")
    return metrics


def _cache_info():
    """``cache_info()`` of the slicing module's LRU cache, or None once it is gone."""
    slicing = importlib.import_module("linkage_betti.slicing")
    for value in vars(slicing).values():
        if callable(getattr(value, "cache_info", None)):
            return value.cache_info()
    return None


def _slice_corpus(measure: str, sizes) -> tuple[str, list[list[Fraction]]]:
    _, n, p = next(case for case in sizes["exact"] if case[0] == measure)
    name = f"{measure}.n{n}p{p}"
    with gzip.open(DATA_DIR / f"slice_corpus.{name}.txt.gz", "rt") as f:
        return name, [[Fraction(v) for v in line.split(",")] for line in f.read().split()]


def _time_slices(tr, label, corpus):
    slice_ratio = lookup("slicing", "slice_ratio")
    with tr.span(f"slicing.slice_ratio {label}") as s:
        for values in corpus:
            slice_ratio(values)
    return tr.duration(s) / len(corpus) * 1e6


def m_slice(measure):
    def measurement(tr, sizes, seed, report):
        name, corpus = _slice_corpus(measure, sizes)
        metrics = {f"slicing.slice_ratio_us.{measure}": (_time_slices(tr, name, corpus), "us")}
        info = _cache_info()
        if info is not None:
            metrics[f"slicing.cache_hits.{measure}"] = (info.hits, "count")
            metrics[f"slicing.cache_misses.{measure}"] = (info.misses, "count")
        return metrics
    return measurement


def m_three_value(tr, sizes, seed, report):
    """Kernel inputs of a closed-form simplex expectation: 1 (k-1 times), -1 (n-k times), (1+a-b)/(1+a+b)."""
    corpus = []
    for n in sizes["three_value_ns"]:
        for k in (n // 4, n // 2):
            for a in range(3):
                for b in range(3):
                    if a or b:
                        corpus.append([Fraction(1)] * (k - 1) + [Fraction(-1)] * (n - k)
                                      + [Fraction(1 + a - b, 1 + a + b)])
    return {"slicing.slice_ratio_us.three_value": (_time_slices(tr, "three_value", corpus), "us")}


def m_simplexes(tr, sizes, seed, report):
    subset_classes = lookup("averages", "subset_classes")
    Measure = lookup("simplexes", "Measure")
    metrics = {}
    calls = [(s, Measure(m)) for m, n, p in sizes["exact"] for family in subset_classes(n, p) for s in family]
    with report.optional():
        functional_values = lookup("simplexes", "functional_values")
        with tr.span("simplexes.functional_values") as s:
            for subset, measure in calls:
                functional_values(subset, measure)
        metrics["simplexes.functional_values_us"] = (tr.duration(s) / len(calls) * 1e6, "us")
    with report.optional():
        density_sequence = lookup("simplexes", "density_sequence")
        with tr.span("simplexes.density_sequence") as s:
            for subset, _ in calls:
                density_sequence(subset)
        metrics["simplexes.density_sequence_us"] = (tr.duration(s) / len(calls) * 1e6, "us")
    return metrics


def m_exact(measure_name, n, p, workers):
    def measurement(tr, sizes, seed, report):
        average_betti_exact = lookup("averages", "average_betti_exact")
        measure = lookup("simplexes", "Measure")(measure_name)
        label = f"{measure_name}.n{n}p{p}"
        with tr.span(f"averages.average_betti_exact {label} workers{workers}") as s:
            result = average_betti_exact(n, p, measure, workers=workers)
        if result.exact != load_exact_values()[label]:
            report.problems.append(f"average_betti_exact {label}: {result.exact} differs from the golden value")
        suffix = "" if workers == 1 else f".workers{workers}"
        metrics = {f"averages.exact_s.{label}{suffix}": (tr.duration(s), "s")}
        if workers == 1:
            metrics[f"averages.terms.{label}"] = (result.term_count, "count")
        return metrics
    return measurement


def m_convergence(measure_name):
    def measurement(tr, sizes, seed, report):
        convergence_table = lookup("averages", "convergence_table")
        measure = lookup("simplexes", "Measure")(measure_name)
        p, n_min, n_max = sizes["convergence"]
        with tr.span(f"averages.convergence_table {measure_name}") as s:
            rows = convergence_table(p, n_min, n_max, measure)
        if len(rows) != n_max - n_min + 1:
            report.problems.append(f"convergence_table {measure_name}: {len(rows)} rows")
        return {f"averages.convergence_s.{measure_name}": (tr.duration(s), "s")}
    return measurement


def m_mc_setup(tr, sizes, seed, report):
    """``average_betti_mc`` with one sample: almost all of it is set-up before sampling."""
    average_betti_mc = lookup("averages", "average_betti_mc")
    measure = lookup("simplexes", "Measure")("simplex")
    n, p = sizes["mc_setup"]
    with tr.span(f"averages.average_betti_mc n{n}p{p} samples1") as s:
        average_betti_mc(n, p, measure, 1, seed)
    tracemalloc.start()
    try:
        with tr.span(f"averages.average_betti_mc n{n}p{p} samples1 tracemalloc"):
            average_betti_mc(n, p, measure, 1, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {f"averages.mc_setup_s.n{n}p{p}": (tr.duration(s), "s"),
            f"averages.mc_setup_peak_mb.n{n}p{p}": (peak / 2**20, "MB")}


def m_sampling(tr, sizes, seed, report):
    averages = importlib.import_module("linkage_betti.averages")
    average_betti_mc = lookup("averages", "average_betti_mc")
    Measure = lookup("simplexes", "Measure")
    map_chunks = lookup("averages", "map_chunks")
    cpu = {}

    def traced_map_chunks(*args, **kwargs):
        with tr.span("sampling.map_chunks") as s:
            c0 = time.process_time()
            result = map_chunks(*args, **kwargs)
            cpu[s["id"]] = time.process_time() - c0
        return result

    averages.map_chunks = traced_map_chunks
    metrics = {}
    for measure, n, p, samples in sizes["mc"]:
        case = f"{measure}.n{n}p{p}"
        estimates, times, cpu_ratios = {}, {1: [], 2: []}, []
        average_betti_mc(n, p, Measure(measure), 64, seed)  # warm numpy and BLAS up, untimed
        for _ in range(sizes["repeats"]):
            for threads in (1, 2):
                with tr.span(f"averages.average_betti_mc {case} t{threads}") as outer:
                    estimates[threads] = average_betti_mc(n, p, Measure(measure), samples, seed, workers=threads)
                chunk_spans = [s for s in tr.spans if s["parent"] == outer["id"]]
                if not chunk_spans:
                    raise Absent("linkage_betti.averages.average_betti_mc calling map_chunks")
                times[threads].append(tr.duration(chunk_spans[0]))
                if threads == 1:
                    cpu_ratios.append(cpu[chunk_spans[0]["id"]] / tr.duration(chunk_spans[0]))
        for threads in (1, 2):
            metrics[f"sampling.samples_per_s.{case}.t{threads}"] = (samples / statistics.median(times[threads]), "1/s")
        if measure == "simplex":
            metrics["sampling.cpu_per_wall.t1"] = (statistics.median(cpu_ratios), "ratio")
        if estimates[1] != estimates[2]:
            report.problems.append(f"average_betti_mc {case}: threads 1 and 2 disagree")
    chunk = lookup("sampling", "CHUNK_SIZE")
    for measure, n, _, _ in sizes["mc"]:
        sampler = lookup("sampling", f"sample_unit_{measure}")
        rng = lookup("sampling", "chunk_rng")(seed, 0)
        times = []
        for _ in range(5):
            with tr.span(f"sampling.sample_unit_{measure} n{n}") as s:
                sampler(rng, chunk, n)
            times.append(tr.duration(s))
        metrics[f"sampling.sampler_s.{measure}"] = (statistics.median(times), "s")
    return metrics


def measurements(sizes, workload: str) -> dict:
    """Measurement name -> (function, number of fresh interpreters), in run order.

    Only ``cli`` depends on the workload.  The others measure each layer the
    same way on every workload: every traced run must report every per-layer
    metric, so a traced run of each workload repeats them.
    """
    r = sizes["repeats"]
    table = {"import": (m_import, 5), "cli": (m_cli(workload), 1), "linkages": (m_linkages, 1),
             "slice.simplex": (m_slice("simplex"), r), "slice.cube": (m_slice("cube"), r),
             "slice.three_value": (m_three_value, r), "simplexes": (m_simplexes, 1)}
    for m, n, p in sizes["exact"]:
        table[f"exact.{m}.n{n}p{p}"] = (m_exact(m, n, p, 1), 1)
    m, n, p = sizes["workers2"]
    table[f"exact.{m}.n{n}p{p}.workers2"] = (m_exact(m, n, p, 2), 1)
    table.update({"convergence.simplex": (m_convergence("simplex"), 1),
                  "convergence.cube": (m_convergence("cube"), 1),
                  "mc_setup": (m_mc_setup, 1), "sampling": (m_sampling, 1)})
    return table


# ---------------------------------------------------------------------------
# orchestration (parent side)


def traced_run(env: dict[str, str], workload: str, seed: int, mode: str, deadline: float):
    """Run every measurement in fresh interpreters.

    Returns (metrics, absent functions, problems, spans, children run, children failed).
    """
    tracer = Tracer(f"{workload}.seed{seed}.trace")
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    absent: set[str] = set()
    problems: list[str] = []
    children = failed = 0
    with tracer.span(f"trace {workload}"):
        for name, (_, repeats) in measurements(SIZES[mode], workload).items():
            for _ in range(repeats):
                with tracer.span(f"measure {name}") as parent:
                    child_env = dict(env, PERFBENCH_PARENT_SPAN=parent["id"], PERFBENCH_TRACE=tracer.trace_id)
                    result = run_process(
                        [sys.executable, str(Path(__file__)), name, mode, workload, str(seed)],
                        child_env, deadline - time.perf_counter())
                children += 1
                try:
                    out = json.loads(result.stdout.strip().splitlines()[-1])
                except (IndexError, ValueError):
                    problems.append(f"{name}: child exit {result.returncode}: {result.stderr.strip()[-400:]}")
                    failed += 1
                    continue
                failed += bool(out["problems"])
                for metric, (value, unit) in out["metrics"].items():
                    values.setdefault(metric, []).append(value)
                    units[metric] = unit
                absent.update(out["absent"])
                problems += out["problems"]
                tracer.spans += out["spans"]
    metrics = {k: (statistics.median(v), units[k]) for k, v in values.items()}
    counts = [metrics.get(f"slicing.cache_{kind}.{m}") for kind in ("hits", "misses") for m in ("simplex", "cube")]
    if None not in counts:
        hits, misses = counts[0][0] + counts[1][0], counts[2][0] + counts[3][0]
        metrics["slicing.cache_hits"] = (hits, "count")
        metrics["slicing.cache_misses"] = (misses, "count")
        metrics["slicing.cache_hit_ratio"] = (hits / (hits + misses), "ratio")
    return metrics, sorted(absent), problems, tracer.spans, children, failed


def _child_main(argv: list[str]) -> None:
    name, mode, workload, seed = argv[0], argv[1], argv[2], int(argv[3])
    tracer = Tracer(os.environ.get("PERFBENCH_TRACE", name), os.environ.get("PERFBENCH_PARENT_SPAN"))
    report = Report()
    metrics = {}
    with report.optional():
        fn, _ = measurements(SIZES[mode], workload)[name]
        metrics = fn(tracer, SIZES[mode], seed, report)
    print(json.dumps({"metrics": metrics, "absent": report.absent, "problems": report.problems,
                      "spans": tracer.spans}))


if __name__ == "__main__":
    _child_main(sys.argv[1:])
