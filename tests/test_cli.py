"""Command-line interface.

Core claims exercised here:
  * the documented commands produce the pinned exact values;
  * the CSV schema is stable, JSON round-trips to the same CSV bytes, and
    decimal columns agree with the rational columns to 12 significant digits;
  * convergence's gap_ratio is |gap(n) / gap(n-1)| between consecutive
    reports of one measure, also in interleaved tables, and is blank on each
    measure's first row and after an exactly-zero gap;
  * exit codes separate malformed input (2) from domain violations (3), and
    every cost ceiling (slice sweep, betti subset count and sums, exact bar
    counts, Monte Carlo set-up and budget) exits 3 in a child held to one
    second of CPU and 1 GiB of address space;
  * a closed stdout ends a command with exit code 1 and nothing on stderr;
  * sampling runs are byte-identical for identical arguments, also across
    OpenBLAS thread counts in fresh interpreters;
  * --threads is ignored, so exact and sampled output are the same bytes at
    any count, and argparse refuses a count below 1 (exit 2) like any other
    malformed input;
  * every command's table, csv and json bytes are pinned in cli_outputs.txt,
    and two cube and two simplex tables near the ceilings by the sha256 of
    their csv bytes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from linkage_betti.averages import EXACT_MAX_BARS, average_betti_exact, convergence_table
from linkage_betti.cli import decimal_str, main
from linkage_betti.errors import DomainError, digit_limit
from linkage_betti.linkages import MAX_BARS
from linkage_betti.sampling import MC_MAX_SAMPLES
from linkage_betti.simplexes import Measure


@pytest.fixture(autouse=True)
def _blas_threads_left_as_found(monkeypatch):
    # an in-process ``sample`` sets OPENBLAS_NUM_THREADS when it is unset;
    # setenv records that absence, so teardown removes the value again
    if "OPENBLAS_NUM_THREADS" not in os.environ:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def parse_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def child_env(**overrides: str) -> dict[str, str]:
    """This process's environment plus ``overrides``, importing the package from ``src``."""
    env = dict(os.environ, **overrides)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_betti_equilateral(capsys):
    code, out = run_cli(
        capsys, "betti", "--lengths", "1,1,1,1,1,1,1,1,1", "--format", "csv"
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["p", "betti", "short", "median", "generic"]
    by_p = {row[0]: row for row in rows[1:]}
    assert by_p["1"][1] == "8"
    assert by_p["0"][4] == "true"


def test_betti_median_instance(capsys):
    code, out = run_cli(capsys, "betti", "--lengths", "3,1,1,1", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert rows[1] == ["0", "1", "0", "1", "false"]


def test_betti_empty_space(capsys):
    code, out = run_cli(capsys, "betti", "--lengths", "10,1,1,1", "--format", "csv")
    assert code == 0
    for row in parse_csv(out)[1:]:
        assert row[1] == "0"


def test_betti_accepts_rational_and_decimal_strings(capsys):
    code, out = run_cli(
        capsys, "betti", "--lengths", "1/2,0.5,1/2", "--format", "csv"
    )
    assert code == 0
    assert parse_csv(out)[1][1] == "2"


def test_average_simplex_triangle(capsys):
    code, out = run_cli(
        capsys, "average", "--n", "3", "--p", "0", "--measure", "simplex",
        "--format", "csv",
    )
    assert code == 0
    rows = parse_csv(out)
    header = rows[0]
    row = dict(zip(header, rows[1]))
    assert row["exact_rational"] == "1/2"
    assert row["binomial"] == "1"
    assert row["gap_rational"] == "1/2"


def test_average_cube_triangle(capsys):
    code, out = run_cli(
        capsys, "average", "--n", "3", "--p", "0", "--measure", "cube",
        "--format", "csv",
    )
    assert code == 0
    row = dict(zip(*parse_csv(out)))
    assert row["exact_rational"] == "1"
    assert row["gap_rational"] == "0"


def test_average_cube_decagon_gap(capsys):
    code, out = run_cli(
        capsys, "average", "--n", "10", "--p", "0", "--measure", "cube",
        "--format", "csv",
    )
    assert code == 0
    row = dict(zip(*parse_csv(out)))
    assert row["exact_rational"] == "10369/10368"
    assert abs(float(row["gap_decimal"])) < 0.05


def test_decimal_columns_match_rational_columns(capsys):
    code, out = run_cli(
        capsys, "average", "--n", "9", "--p", "1", "--measure", "simplex",
        "--format", "csv",
    )
    assert code == 0
    row = dict(zip(*parse_csv(out)))
    exact = Fraction(row["exact_rational"])
    assert float(row["exact_decimal"]) == pytest.approx(float(exact), rel=1e-11)
    gap = Fraction(row["gap_rational"])
    assert float(row["gap_decimal"]) == pytest.approx(float(gap), rel=1e-11)


def test_convergence_schema_and_interleaving(capsys):
    code, out = run_cli(
        capsys, "convergence", "--p", "0", "--n-min", "3", "--n-max", "12",
        "--measure", "both", "--format", "csv",
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == [
        "n", "measure", "p",
        "exact_rational", "exact_decimal", "binomial", "gap_decimal", "gap_ratio",
    ]
    assert len(rows) == 1 + 2 * 10
    assert [r[1] for r in rows[1:5]] == ["simplex", "cube", "simplex", "cube"]
    assert rows[1][0] == rows[2][0] == "3"
    # the simplex degree-0 gap shrinks at every step
    simplex_ratios = [r[7] for r in rows[1:] if r[1] == "simplex"]
    assert simplex_ratios[0] == ""
    assert all(float(ratio) < 1 for ratio in simplex_ratios[1:])


@pytest.mark.parametrize(
    "p, n_min, n_max, measure",
    [
        (1, 4, 14, "both"),  # the benchmark's interleaved table
        (0, 3, 10, "simplex"),
        (1, 4, 8, "cube"),  # the gap is 0 at n = 5
    ],
)
def test_convergence_gap_ratio_is_taken_within_one_measure(capsys, p, n_min, n_max, measure):
    code, out = run_cli(
        capsys, "convergence", "--p", str(p), "--n-min", str(n_min), "--n-max", str(n_max),
        "--measure", measure, "--format", "csv",
    )
    assert code == 0
    header, *body = parse_csv(out)
    rows = [dict(zip(header, r)) for r in body]
    measures = ("simplex", "cube") if measure == "both" else (measure,)
    assert [r["measure"] for r in rows] == list(measures) * (n_max - n_min + 1)
    for m in measures:
        ratios = [r["gap_ratio"] for r in rows if r["measure"] == m]
        reports = [average_betti_exact(n, p, m) for n in range(n_min, n_max + 1)]
        assert ratios[0] == ""
        for ratio, b, a in zip(ratios[1:], reports, reports[1:]):
            assert ratio == ("" if b.gap == 0 else decimal_str(abs(a.gap / b.gap))), (m, a.n)


def test_convergence_single_measure(capsys):
    code, out = run_cli(
        capsys, "convergence", "--p", "1", "--n-min", "6", "--n-max", "14",
        "--measure", "cube", "--format", "csv",
    )
    assert code == 0
    rows = parse_csv(out)
    ratios = {int(r[0]): r[7] for r in rows[1:]}
    assert all(float(ratios[n]) < 1 for n in range(9, 15))


def test_convergence_vacuous_range(capsys):
    code, out = run_cli(
        capsys, "convergence", "--p", "0", "--n-min", "9", "--n-max", "3",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["rows"] == []


def test_convergence_zero_gap_blank_ratio(capsys):
    code, out = run_cli(
        capsys, "convergence", "--p", "0", "--n-min", "3", "--n-max", "5",
        "--measure", "cube", "--format", "csv",
    )
    assert code == 0
    rows = parse_csv(out)
    by_n = {r[0]: r for r in rows[1:]}
    assert by_n["3"][6] == "0"
    assert by_n["4"][7] == ""
    # a zero gap after a nonzero one has ratio 0; the row after it is blank
    code, out = run_cli(
        capsys, "convergence", "--p", "1", "--n-min", "4", "--n-max", "8",
        "--measure", "cube", "--format", "csv",
    )
    assert code == 0
    by_n = {r[0]: r for r in parse_csv(out)[1:]}
    assert by_n["5"][6] == by_n["5"][7] == "0"
    assert by_n["6"][7] == ""
    assert by_n["7"][7] != ""


def test_sample_within_three_sigma_of_one(capsys):
    code, out = run_cli(
        capsys, "sample", "--n", "3", "--p", "0", "--measure", "cube",
        "--samples", "100000", "--seed", "42", "--format", "csv",
    )
    assert code == 0
    row = dict(zip(*parse_csv(out)))
    estimate = float(row["estimate"])
    stderr = float(row["stderr"])
    assert abs(estimate - 1.0) <= 3 * stderr


def test_sample_reruns_are_byte_identical(capsys):
    args = (
        "sample", "--n", "5", "--p", "1", "--measure", "simplex",
        "--samples", "20000", "--seed", "9", "--format", "json",
    )
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sample_is_byte_identical_across_blas_threads():
    # n = 19, p = 7 has one-row tiles, whose products OpenBLAS splits over
    # two threads when it may
    outputs = {}
    for blas_threads in ("1", "2"):
        env = child_env(OPENBLAS_NUM_THREADS=blas_threads)
        outputs[blas_threads] = [
            subprocess.run(
                [sys.executable, "-m", "linkage_betti", "sample", "--n", n, "--p", p,
                 "--measure", "simplex", "--samples", samples, "--seed", "4",
                 "--threads", "1"],
                capture_output=True, text=True, env=env, timeout=60, check=True,
            ).stdout
            for n, p, samples in (("12", "4", "3000"), ("19", "7", "100"))
        ]
    assert outputs["1"] == outputs["2"]


def test_sample_single_sample_reports_zero_stderr(capsys):
    code, out = run_cli(
        capsys, "sample", "--n", "4", "--p", "0", "--measure", "cube",
        "--samples", "1", "--seed", "2", "--format", "csv",
    )
    assert code == 0
    row = dict(zip(*parse_csv(out)))
    assert row["stderr"] == "0"
    assert float(row["estimate"]) == int(float(row["estimate"]))


def test_sample_json_meta_has_seed(capsys):
    code, out = run_cli(
        capsys, "sample", "--n", "3", "--p", "0", "--measure", "cube",
        "--samples", "10", "--seed", "77", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["command"] == "sample"
    assert payload["meta"]["seed"] == 77
    assert "version" in payload["meta"]


def test_json_round_trips_to_csv(capsys):
    for args in (
        ("betti", "--lengths", "2,3/2,1,1"),
        ("average", "--n", "6", "--p", "1", "--measure", "cube"),
        ("convergence", "--p", "0", "--n-min", "3", "--n-max", "6"),
        ("slice", "--q", "-1,0,1,1"),
    ):
        _, csv_out = run_cli(capsys, *args, "--format", "csv")
        _, json_out = run_cli(capsys, *args, "--format", "json")
        rows = json.loads(json_out)["rows"]
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow(row.values())
        assert buffer.getvalue().rstrip("\n") + "\n" == csv_out


def _pinned_outputs() -> list:
    """One case per ``$ linkage-betti ARGS`` line of ``cli_outputs.txt``:
    ARGS, and the stdout that follows it up to the next such line."""
    text = (Path(__file__).parent / "cli_outputs.txt").read_text(encoding="utf-8")
    cases = []
    for block in text.split("$ linkage-betti ")[1:]:
        argv, _, out = block.partition("\n")
        cases.append(pytest.param(argv, out, id=argv))
    return cases


@pytest.mark.parametrize(("argv", "expected"), _pinned_outputs())
def test_rendered_bytes_are_pinned(capsys, argv, expected):
    # every command in every format, json meta with a seed for sample only
    code, out = run_cli(capsys, *argv.split())
    assert code == 0
    assert out == expected


def test_slice_examples(capsys):
    code, out = run_cli(capsys, "slice", "--q", "-1,1,2", "--format", "csv")
    assert code == 0
    assert dict(zip(*parse_csv(out)))["ratio_rational"] == "1/6"

    code, out = run_cli(capsys, "slice", "--q", "-1,1,1", "--format", "csv")
    assert dict(zip(*parse_csv(out)))["ratio_rational"] == "1/4"

    code, out = run_cli(capsys, "slice", "--q", "1,2,3", "--format", "csv")
    assert dict(zip(*parse_csv(out)))["ratio_rational"] == "0"


def test_slice_accepts_leading_minus_values(capsys):
    code, out = run_cli(capsys, "slice", "--q", "-1/2,-1/2,1", "--format", "csv")
    assert code == 0
    row = dict(zip(*parse_csv(out)))
    assert row["count"] == "3"
    # positive corner is the similar triangle of scale 2/3 at the last vertex
    assert Fraction(row["ratio_rational"]) == 1 - Fraction(2, 3) ** 2


def test_slice_of_many_repeated_values_is_fast_and_exact(capsys):
    # 20 values symmetric about 0, each 10 times: half the simplex by symmetry
    q = [Fraction(k, 3) for k in range(-10, 11) if k] * 10
    start = time.perf_counter()
    code, out = run_cli(capsys, "slice", "--q", ",".join(map(str, q)), "--format", "csv")
    elapsed = time.perf_counter() - start
    assert code == 0
    row = dict(zip(*parse_csv(out)))
    assert (row["count"], row["ratio_rational"]) == ("200", "1/2")
    assert elapsed < 2.0, elapsed


def _costly_subset_sums() -> str:
    # 1/(2^q - 1) for 32 primes q near 6,644: 2,000-digit denominators,
    # pairwise coprime as gcd(2^a - 1, 2^b - 1) = 2^gcd(a, b) - 1.  They
    # rescale to 210,000-bit integers whose 98,304 half sums need about 3 GB
    primes = [q for q in range(6644, 7000) if all(q % d for d in range(2, 84))][:32]
    return ",".join(f"1/{2**q - 1}" for q in primes)


def _slice(values) -> tuple[str, ...]:
    return ("slice", "--q", ",".join(map(str, values)))


COST_CEILINGS = {
    "slice-1600-distinct": (_slice(range(-799, 801)), "slice cost limit"),
    "slice-3200-in-three-groups": (
        _slice([-1] * 1067 + [1] * 1067 + [2] * 1066), "slice cost limit"),
    "slice-50-of-1000-digits": (
        _slice((-1) ** k * (10**999 + k) for k in range(50)), "slice cost limit"),
    "betti-32-of-2000-digits": (
        ("betti", "--lengths", _costly_subset_sums()), "subset-sum limit"),
    "betti-past-max-bars": (
        ("betti", "--lengths", ",".join(["1"] * (MAX_BARS + 1))), "subset-count limit"),
    "average-past-simplex-ceiling": (
        ("average", "--n", str(EXACT_MAX_BARS[Measure.SIMPLEX] + 1), "--p", "0",
         "--measure", "simplex"), "simplex expectations take at most"),
    "convergence-past-cube-ceiling": (
        ("convergence", "--p", "0", "--n-min", "3",
         "--n-max", str(EXACT_MAX_BARS[Measure.CUBE] + 1), "--measure", "cube"),
        "cube expectations take at most"),
    "sample-past-pick-budget": (
        ("sample", "--n", "30", "--p", "13", "--measure", "cube", "--samples", "1"),
        "MiB budget"),
    # every degree past 257 bars is over the budget; the binomial at a central
    # degree overflowed a float at 1,100 bars and took minutes at 3,000,000
    "sample-1100-bars-central": (
        ("sample", "--n", "1100", "--p", "550", "--measure", "cube", "--samples", "1"),
        "MiB budget"),
    "sample-3000000-bars-central": (
        ("sample", "--n", "3000000", "--p", "1500000", "--measure", "cube",
         "--samples", "1"), "MiB budget"),
    "sample-past-max-samples": (
        ("sample", "--n", "5", "--p", "0", "--measure", "cube",
         "--samples", str(MC_MAX_SAMPLES + 1)), "exceed the limit"),
}


@pytest.mark.parametrize("case", COST_CEILINGS)
def test_cost_ceilings_refuse_within_a_cpu_second_and_a_gib(case):
    argv, fragment = COST_CEILINGS[case]
    # the slices took 10-25 s of CPU before their cost check, and the betti
    # count of 2,000-digit lengths would need about 3 GB.  The child caps its
    # own CPU at one second and its address space at 1 GiB, so running past a
    # ceiling would end in SIGXCPU or MemoryError, without exit code 3.  The
    # sample cases are refused before numpy loads
    script = (
        "import resource, runpy, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "resource.setrlimit(resource.RLIMIT_CPU, (1, 2))\n"
        "sys.argv = ['linkage-betti', *sys.argv[1:]]\n"
        "runpy.run_module('linkage_betti', run_name='__main__', alter_sys=True)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert result.returncode == 3, result
    assert fragment in result.stderr


@pytest.mark.parametrize(
    "argv",
    [("slice", "--q", "-1,1,2"),
     ("convergence", "--p", "0", "--n-min", "3", "--n-max", "400", "--measure", "cube")],
)
def test_closed_stdout_exits_1_without_a_traceback(argv):
    # the reader is gone before the first byte, as when ``| head`` has exited
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "linkage_betti", *argv],
            stdout=write, stderr=subprocess.PIPE, env=child_env(), timeout=60,
        )
    finally:
        os.close(write)
    assert result.stderr == b""
    assert result.returncode == 1


@pytest.mark.parametrize(
    "p, n_min, digest",
    [
        (0, 850, "d58a42e8532c110be07c9de61ac7d836484deab7e46582b28012fd2f59bb22da"),
        (300, 880, "72bc72b0527685344add56cc1c50e11536a6018bd73fa17bc90a53220a5dd625"),
    ],
)
def test_cube_tables_near_the_ceiling_keep_their_bytes(capsys, p, n_min, digest):
    # sha256 of the csv bytes as two separate Irwin-Hall tails computed them;
    # the rationals reach about 2,300 digits
    code, out = run_cli(capsys, "convergence", "--p", str(p), "--n-min", str(n_min),
                        "--n-max", "900", "--measure", "cube", "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "p, digest",
    [
        (0, "e43029e43bee2b80a4942adf0ed9baa6dcb44fef524e19ab08e9715c3507a84d"),
        (34, "a01cbcc1504992407de31aae28ebd17a335c2ff3f8d82e2e0484d1ad5e514962"),
    ],
)
def test_simplex_tables_near_the_ceiling_keep_their_bytes(capsys, p, digest):
    # sha256 of the csv bytes as one Fraction per Gamma race term computed
    # them, before the terms were grouped by shared denominator
    code, out = run_cli(capsys, "convergence", "--p", str(p), "--n-min", "90",
                        "--n-max", "100", "--measure", "simplex", "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_table_format_is_aligned(capsys):
    code, out = run_cli(capsys, "betti", "--lengths", "1,1,1")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0].split() == ["p", "betti", "short", "median", "generic"]
    assert len(lines) == 2


def test_exit_code_2_on_malformed_input(capsys):
    for argv, flag, text in ((["betti", "--lengths", "1,abc,2"], "--lengths", "abc"),
                             (["slice", "--q", "1/0,1"], "--q", "1/0")):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"linkage-betti {argv[0]}: error: argument {flag}: not a rational number: {text!r}")
    with pytest.raises(SystemExit) as excinfo:
        main(["slice", "--q", "5"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["average", "--n", "3", "--p", "0", "--measure", "gaussian"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    # an empty list entry, a thread count that is not an integer, a bare flag
    # as the last token, and an exponent that is not an integer
    for argv in (["betti", "--lengths", "1,,2"],
                 ["betti", "--lengths", "3,1,1", "--threads", "two"],
                 ["slice", "--q"], ["slice", "--q", "1e1.5,2"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2, argv
    capsys.readouterr()
    # literals whose numerator or denominator Python would refuse to print,
    # refused before Fraction spends seconds building 10**10000000
    for argv, literal in ((["slice", "--q", "-1e5000,1"], "-1e5000"),
                          (["slice", "--q", "1,1e-4300"], "1e-4300"),
                          (["betti", "--lengths", "1e10000000,1,1"], "1e10000000"),
                          # an exponent too long for int
                          (["slice", "--q", "1e" + "9" * 4301 + ",1"], "1e" + "9" * 4301)):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2, argv
        assert time.perf_counter() - start < 1.0, argv
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"linkage-betti {argv[0]}: error: argument {argv[1]}: "
            f"numerator or denominator past {digit_limit()} digits: {literal!r}")


def test_exit_code_3_on_domain_violations(capsys):
    assert main(["betti", "--lengths", "1,1"]) == 3
    assert main(["betti", "--lengths", "0,1,1"]) == 3
    assert main(["betti", "--lengths", ",".join(["1"] * (MAX_BARS + 1))]) == 3
    assert main(["average", "--n", "5", "--p", "7", "--measure", "cube"]) == 3
    too_many = str(EXACT_MAX_BARS[Measure.SIMPLEX] + 1)
    assert main(["average", "--n", too_many, "--p", "0", "--measure", "simplex"]) == 3
    assert main(["convergence", "--p", "0", "--n-min", "3", "--n-max", too_many,
                 "--measure", "both"]) == 3
    # a whole cube table one bar past the ceiling would take over 5 s
    past_cube = str(EXACT_MAX_BARS[Measure.CUBE] + 1)
    assert main(["convergence", "--p", "0", "--n-min", "3", "--n-max", past_cube,
                 "--measure", "cube"]) == 3
    assert main(["sample", "--n", "30", "--p", "13", "--measure", "cube",
                 "--samples", "1"]) == 3
    assert main(["sample", "--n", "4", "--p", "0", "--measure", "cube",
                 "--samples", "0"]) == 3
    assert main(["sample", "--n", "21", "--p", "9", "--measure", "simplex",
                 "--samples", "10", "--seed", "-1"]) == 3
    # a budget whose chunk list alone would take gigabytes
    start = time.perf_counter()
    assert main(["sample", "--n", "5", "--p", "0", "--measure", "cube",
                 "--samples", "1000000000000", "--threads", "2"]) == 3
    assert time.perf_counter() - start < 1.0
    # an empty range is still checked: degree 100 needs n_min >= 103, and
    # degree -1 does not exist
    assert main(["convergence", "--p", "100", "--n-min", "5", "--n-max", "4"]) == 3
    assert main(["convergence", "--p", "-1", "--n-min", "5", "--n-max", "4"]) == 3
    with pytest.raises(DomainError):
        convergence_table(-1, 5, 4, Measure.CUBE)
    # every input prints, but the ratio would have more digits than Python prints
    start = time.perf_counter()
    assert main(["slice", "--q", "-1e1500,3e1400,7,-11e1300,13"]) == 3
    assert time.perf_counter() - start < 1.0
    capsys.readouterr()


def test_threads_flag(capsys):
    args = ("average", "--n", "7", "--p", "1", "--measure", "simplex",
            "--format", "csv")
    _, baseline = run_cli(capsys, *args)
    _, threaded = run_cli(capsys, *args, "--threads", "3")
    assert baseline == threaded
    sample = ("sample", "--n", "12", "--p", "4", "--measure", "simplex",
              "--samples", "70000", "--format", "json")
    assert run_cli(capsys, *sample, "--threads", "1") == run_cli(capsys, *sample, "--threads", "2")
    with pytest.raises(SystemExit) as excinfo:
        main([*args, "--threads", "0"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_engines_are_called_through_rebindable_module_names(capsys, monkeypatch):
    # the benchmark's traced run rebinds these names to time library calls
    from linkage_betti import averages, cli

    calls = []

    def recording(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("betti_profile", "average_betti_exact"):
        recording(cli, name)
    recording(averages, "map_chunks")
    assert run_cli(capsys, "betti", "--lengths", "3,1,1,1,1", "--format", "csv")[0] == 0
    assert run_cli(capsys, "average", "--n", "7", "--p", "1", "--measure", "cube")[0] == 0
    assert run_cli(capsys, "sample", "--n", "5", "--p", "0", "--measure", "cube",
                   "--samples", "100", "--threads", "1")[0] == 0
    assert calls == ["betti_profile", "average_betti_exact", "map_chunks"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "linkage-betti" in capsys.readouterr().out
