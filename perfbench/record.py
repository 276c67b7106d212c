"""Record the benchmark's reference data from the current program.

Run from the repository root, at the commit whose outputs become the
reference::

    python3 perfbench/record.py

It writes

* ``golden/{full,quick}.json``: the stdout of every job checked against a
  golden (every exact-avg format; the other workloads at DEFAULT_SEED);
* ``data/exact_values.json``: exact expectations, from ``average --format
  json``, for the Monte Carlo and per-layer checks;
* ``data/slice_corpus.<measure>.n<N>p<P>.txt.gz``: the vertex values of every
  slice-kernel call the exact-avg ``average`` jobs make, one call per line, in
  the order the exact engine makes them.  They are derived here from the
  subsets, independently of the package.
"""

from __future__ import annotations

import gzip
import itertools
import json
import os
import sys
from fractions import Fraction

from procs import run_process
from workloads import DATA_DIR, DEFAULT_SEED, GOLDEN_DIR, WORKLOADS, build_jobs

EXACT_KEYS = {"full": ("simplex.n14p5", "cube.n16p6", "simplex.n12p4", "cube.n14p3"),
              "quick": ("simplex.n7p2", "cube.n8p2", "simplex.n6p1", "cube.n7p2")}
CORPORA = (("simplex", 14, 5), ("cube", 16, 6), ("simplex", 7, 2), ("cube", 8, 2))


def cli(env: dict[str, str], argv: tuple[str, ...]) -> str:
    result = run_process([sys.executable, "-m", "linkage_betti", *argv], env, 600)
    if result.returncode != 0:
        raise SystemExit(f"{' '.join(argv)}: exit {result.returncode}\n{result.stderr}")
    return result.stdout


def vertex_values(members: set[int], n: int, measure: str) -> list[Fraction]:
    """Signed-sum functional of a subset at the n+1 sorted-region vertices."""
    values, hits = [Fraction(0)], 0
    for i in range(1, n + 1):
        hits += i in members
        values.append(Fraction(2 * hits - i, i) if measure == "simplex" else Fraction(2 * hits - i))
    return values


def main() -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    GOLDEN_DIR.mkdir(exist_ok=True)
    DATA_DIR.mkdir(exist_ok=True)
    exact = {}
    for mode in ("full", "quick"):
        goldens = {}
        for workload in WORKLOADS:
            for job in build_jobs(workload, DEFAULT_SEED, mode, all_formats=True):
                goldens[job.key] = cli(env, job.argv)
        (GOLDEN_DIR / f"{mode}.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
        for key in EXACT_KEYS[mode]:
            measure, np_label = key.split(".")
            n, p = np_label[1:].split("p")
            out = cli(env, ("average", "--n", n, "--p", p, "--measure", measure, "--format", "json"))
            exact[key] = json.loads(out)["rows"][0]["exact_rational"]
    (DATA_DIR / "exact_values.json").write_text(json.dumps(exact, indent=1, sort_keys=True) + "\n")
    for measure, n, p in CORPORA:
        lines = []
        for size in (p + 1, n - 2 - p):
            for extra in itertools.combinations(range(2, n + 1), size - 1):
                lines.append(",".join(str(v) for v in vertex_values({1, *extra}, n, measure)))
        path = DATA_DIR / f"slice_corpus.{measure}.n{n}p{p}.txt.gz"
        with gzip.GzipFile(path, "wb", mtime=0) as f:
            f.write(("\n".join(lines) + "\n").encode())


if __name__ == "__main__":
    main()
