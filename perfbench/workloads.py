"""Workload job lists and their output checks.

A workload is a fixed list of ``python -m linkage_betti ...`` jobs built from
the workload seed.  Every job carries what its output is checked against:

* a golden stdout recorded by ``record.py`` (exact-avg at every seed, since its
  rationals do not depend on the seed; the other workloads at DEFAULT_SEED);
* for ``betti`` jobs, the CSV that an independent meet-in-the-middle count
  below predicts, at every seed;
* for ``sample`` jobs, the exact expectation stored in ``data/`` (within
  MC_SIGMAS standard errors), and byte equality of the ``--threads 1`` and
  ``--threads 2`` runs of the same seed.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"
DATA_DIR = HERE / "data"

DEFAULT_SEED = 0
WORKLOADS = ("exact-avg", "instance-betti", "monte-carlo")
FORMATS = ("table", "csv", "json")
MC_SIGMAS = 5
THREADS = 2


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the checks its stdout must pass."""

    key: str
    argv: tuple[str, ...]
    group: str
    golden: bool = True
    expected: str | None = None
    exact_key: str | None = None
    samples: int = 0
    twin: str | None = None


# ---------------------------------------------------------------------------
# exact-avg: seed-independent rationals; the seed picks job order and format

_EXACT_CASES = {
    "full": [
        ("average.simplex.n14p5", "simplex", ("average", "--n", "14", "--p", "5", "--measure", "simplex")),
        ("average.cube.n16p6", "cube", ("average", "--n", "16", "--p", "6", "--measure", "cube")),
        ("convergence.both.p1.n4-14", "both",
         ("convergence", "--p", "1", "--n-min", "4", "--n-max", "14", "--measure", "both")),
    ],
    "quick": [
        ("average.simplex.n7p2", "simplex", ("average", "--n", "7", "--p", "2", "--measure", "simplex")),
        ("average.cube.n8p2", "cube", ("average", "--n", "8", "--p", "2", "--measure", "cube")),
        ("convergence.both.p0.n3-7", "both",
         ("convergence", "--p", "0", "--n-min", "3", "--n-max", "7", "--measure", "both")),
    ],
}


def _exact_avg(rng: random.Random, mode: str, all_formats: bool) -> list[Job]:
    jobs = []
    for key, group, argv in _EXACT_CASES[mode]:
        formats = FORMATS if all_formats else (rng.choice(FORMATS),)
        for fmt in formats:
            jobs.append(Job(f"{key}.{fmt}", argv + ("--format", fmt, "--threads", str(THREADS)), group))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# instance-betti: seeded length vectors, generic and not


def _random_rationals(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.randrange(10**5, 10**6), rng.randrange(1, 13)) for _ in range(n)]


def _small_integers(rng: random.Random, n: int) -> list[Fraction]:
    values = [rng.randrange(1, 21) for _ in range(n)]
    if sum(values) % 2:
        values[0] += 1 if values[0] < 20 else -1
    return [Fraction(v) for v in values]


def seeded_vector(rng: random.Random, kind: str, n: int) -> list[Fraction]:
    """A seeded length vector of the given kind, redrawn until its genericity is as named."""
    want_generic = kind == "generic"
    while True:
        if kind == "generic":
            lengths = _random_rationals(rng, n)
        elif kind == "equilateral":
            lengths = [Fraction(rng.randrange(1, 100), rng.randrange(1, 8))] * n
        elif kind == "ints":
            lengths = _small_integers(rng, n)
        else:
            lengths = [Fraction(v) for v in rng.sample(range(1, n + 1), n)]
        if independent_betti(lengths)[1] == want_generic:
            return lengths


_BETTI_CASES = {
    "full": [("generic", 23), ("generic", 22), ("equilateral", 22), ("ints", 22), ("perm", 20)],
    "quick": [("generic", 9), ("generic", 8), ("equilateral", 8), ("ints", 8), ("perm", 8)],
}


def _instance_betti(rng: random.Random, mode: str, seed: int) -> list[Job]:
    jobs = []
    for kind, n in _BETTI_CASES[mode]:
        lengths = seeded_vector(rng, kind, n)
        text = ",".join(str(x) for x in lengths)
        expected, generic = independent_betti(lengths)
        jobs.append(Job(
            f"betti.{kind}.n{n}",
            ("betti", "--lengths", text, "--format", "csv", "--threads", str(THREADS)),
            "generic" if generic else "nongeneric",
            golden=seed == DEFAULT_SEED,
            expected=expected,
        ))
    return jobs


def independent_betti(lengths: list[Fraction]) -> tuple[str, bool]:
    """The ``betti --format csv`` stdout for ``lengths``, and its genericity.

    Counts anchored short and median subsets by size with a meet-in-the-middle
    split and bisection, independent of the package's Gray-code sweep.
    """
    scale = math.lcm(*(x.denominator for x in lengths))
    weights = [int(x * scale) for x in lengths]
    n, total = len(weights), sum(weights)
    anchor = weights.index(max(weights))
    rest = weights[:anchor] + weights[anchor + 1:]

    def subset_sums(part: list[int]) -> dict[int, list[int]]:
        by_size: dict[int, list[int]] = {}
        for picks in itertools.product((0, 1), repeat=len(part)):
            by_size.setdefault(sum(picks), []).append(sum(w for w, c in zip(part, picks) if c))
        return {k: sorted(v) for k, v in by_size.items()}

    left = subset_sums(rest[: len(rest) // 2])
    right = subset_sums(rest[len(rest) // 2:])
    short = [0] * (n + 1)
    median = [0] * (n + 1)
    for k_left, sums in left.items():
        for s in sums:
            limit = total - 2 * (weights[anchor] + s)  # short: 2r < limit; median: 2r == limit
            for k_right, rs in right.items():
                below = bisect.bisect_left(rs, -(-limit // 2))
                short[1 + k_left + k_right] += below
                if limit % 2 == 0:
                    median[1 + k_left + k_right] += bisect.bisect_right(rs, limit // 2) - below
    generic = not any(median)
    lines = ["p,betti,short,median,generic"]
    for p in range(n - 2):
        betti = short[p + 1] + median[p + 1] + short[n - 2 - p]
        lines.append(f"{p},{betti},{short[p + 1]},{median[p + 1]},{str(generic).lower()}")
    return "\n".join(lines) + "\n", generic


# ---------------------------------------------------------------------------
# monte-carlo: one seeded case at two thread counts, plus a cube case

_MC_CASES = {
    "full": [("simplex", 12, 4, 131072, (1, 2)), ("cube", 14, 3, 131072, (2,))],
    "quick": [("simplex", 6, 1, 4096, (1, 2)), ("cube", 7, 2, 4096, (2,))],
}


def _monte_carlo(rng: random.Random, mode: str, seed: int) -> list[Job]:
    program_seed = rng.randrange(2**31)
    jobs = []
    for measure, n, p, samples, thread_counts in _MC_CASES[mode]:
        case = f"{measure}.n{n}p{p}"
        for threads in thread_counts:
            jobs.append(Job(
                f"sample.{case}.t{threads}",
                ("sample", "--n", str(n), "--p", str(p), "--measure", measure,
                 "--samples", str(samples), "--seed", str(program_seed),
                 "--format", "json", "--threads", str(threads)),
                measure,
                golden=seed == DEFAULT_SEED,
                exact_key=case,
                samples=samples,
                twin=f"sample.{case}.t1" if threads != 1 and 1 in thread_counts else None,
            ))
    return jobs


def build_jobs(workload: str, seed: int, mode: str = "full", all_formats: bool = False) -> list[Job]:
    """The job list of one workload; ``all_formats`` lists every exact-avg format (for recording)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exact-avg":
        return _exact_avg(rng, mode, all_formats)
    if workload == "instance-betti":
        return _instance_betti(rng, mode, seed)
    if workload == "monte-carlo":
        return _monte_carlo(rng, mode, seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# checks


def load_goldens(mode: str) -> dict[str, str]:
    return json.loads((GOLDEN_DIR / f"{mode}.json").read_text())


def load_exact_values() -> dict[str, Fraction]:
    raw = json.loads((DATA_DIR / "exact_values.json").read_text())
    return {key: Fraction(value) for key, value in raw.items()}


def check_output(job: Job, stdout: str, goldens: dict[str, str],
                 exact_values: dict[str, Fraction], outputs: dict[str, str]) -> list[str]:
    """Problems with one job's stdout; ``outputs`` holds this pass's earlier stdouts by key."""
    problems = []
    if job.golden:
        if job.key not in goldens:
            problems.append(f"{job.key}: no golden recorded")
        elif stdout != goldens[job.key]:
            problems.append(f"{job.key}: stdout differs from golden")
    if job.expected is not None and stdout != job.expected:
        problems.append(f"{job.key}: betti rows differ from the independent count")
    if job.twin is not None and job.twin in outputs and stdout != outputs[job.twin]:
        problems.append(f"{job.key}: estimate differs from {job.twin}")
    if job.exact_key is not None:
        try:
            row = json.loads(stdout)["rows"][0]
            estimate, stderr = float(row["estimate"]), float(row["stderr"])
        except (ValueError, KeyError, IndexError, TypeError):
            return problems + [f"{job.key}: unparsable sample output"]
        exact = exact_values[job.exact_key]
        if row["samples"] != job.samples or abs(estimate - float(exact)) > MC_SIGMAS * stderr:
            problems.append(f"{job.key}: estimate {estimate} not within {MC_SIGMAS} stderr of {exact}")
    return problems
