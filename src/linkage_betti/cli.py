"""Command-line front end.

Subcommands:

* ``betti``        exact Betti profile of one rational length vector
* ``average``      exact expected Betti number for one (n, p, measure)
* ``convergence``  expected values against the binomial reference over a range of n
* ``sample``       seeded Monte Carlo estimate of an expected Betti number
* ``slice``        exact simplex cut-volume fraction for given vertex values

Every command takes ``--format table|csv|json``.  Rational results are exact
"a/b" strings and stay authoritative; decimal columns are 12-significant-digit
conveniences.  Exit codes: 0 success, 2 malformed input, 3 domain violations
(valid input outside an operation's mathematical range).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Sequence

from . import __version__
from .averages import average_betti_exact, average_betti_mc, convergence_table
from .errors import DomainError
from .linkages import LengthVector, betti_profile
from .simplexes import Measure
from .slicing import slice_ratio

__all__ = ["main"]

DECIMAL_DIGITS = 12


class UsageError(Exception):
    """Malformed input detected after argparse (mirrors its exit code 2)."""


@dataclass
class OutputRecord:
    """One command's tabular result, renderable as table, CSV, or JSON."""

    command: str
    columns: tuple[str, ...]
    rows: list[dict[str, str | int]] = field(default_factory=list)
    seed: int | None = None


def decimal_str(x: Fraction, digits: int = DECIMAL_DIGITS) -> str:
    """Decimal rendering of a rational, correctly rounded to 12 significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        value = Decimal(x.numerator) / Decimal(x.denominator)
    return str(value).lower()


def float_str(x: float, digits: int = DECIMAL_DIGITS) -> str:
    return format(x, f".{digits}g")


# ---------------------------------------------------------------------------
# rendering


def _render_table(record: OutputRecord) -> str:
    headers = list(record.columns)
    cells = [[str(row[c]) for c in headers] for row in record.rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def _render_csv(record: OutputRecord) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(record.columns)
    for row in record.rows:
        writer.writerow([row[c] for c in record.columns])
    return buffer.getvalue().rstrip("\n")


def _render_json(record: OutputRecord) -> str:
    meta: dict[str, str | int] = {"command": record.command, "version": __version__}
    if record.seed is not None:
        meta["seed"] = record.seed
    return json.dumps({"meta": meta, "rows": record.rows}, indent=2)


def render(record: OutputRecord, fmt: str) -> str:
    if fmt == "table":
        return _render_table(record)
    if fmt == "csv":
        return _render_csv(record)
    if fmt == "json":
        return _render_json(record)
    raise UsageError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# argument parsing


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _rational_list(text: str) -> list[Fraction]:
    items = [piece.strip() for piece in text.split(",")]
    if any(not piece for piece in items):
        raise argparse.ArgumentTypeError(f"empty entry in list: {text!r}")
    return [_rational(piece) for piece in items]


def _vertex_value_list(text: str) -> list[Fraction]:
    values = _rational_list(text)
    if len(values) < 2:
        raise argparse.ArgumentTypeError("need at least 2 vertex values")
    return values


def _merge_list_option_values(argv: Sequence[str]) -> list[str]:
    """Join ``--q -1,1,2`` into ``--q=-1,1,2`` so leading minus signs parse.

    argparse treats a separate token starting with ``-`` as an option, which
    would reject negative vertex values; gluing the value onto the flag keeps
    the grammar unambiguous.
    """
    merged: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        if token in ("--q", "--lengths"):
            value = next(tokens, None)
            if value is None:
                merged.append(token)
            else:
                merged.append(f"{token}={value}")
        else:
            merged.append(token)
    return merged


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        help="output rendering (default: table)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        metavar="N",
        help="worker threads for Monte Carlo sampling, used by sample only "
        "(default: LINKAGE_BETTI_THREADS or all cores)",
    )


def _resolve_threads(args: argparse.Namespace) -> int:
    value = args.threads
    if value is None:
        raw = os.environ.get("LINKAGE_BETTI_THREADS")
        if raw is not None:
            try:
                value = int(raw)
            except ValueError as exc:
                raise UsageError(
                    f"LINKAGE_BETTI_THREADS must be an integer, got {raw!r}"
                ) from exc
    if value is None:
        value = os.cpu_count() or 1
    if value < 1:
        raise UsageError("thread count must be at least 1")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkage-betti",
        description="Betti numbers of planar linkage moduli spaces, "
        "exactly and in expectation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_betti = sub.add_parser(
        "betti", help="exact Betti profile of one length vector"
    )
    p_betti.add_argument(
        "--lengths",
        type=_rational_list,
        required=True,
        metavar="L1,L2,...",
        help="comma-separated bar lengths; rationals as a/b or exact decimals",
    )
    _add_common(p_betti)
    p_betti.set_defaults(handler=_cmd_betti)

    p_average = sub.add_parser(
        "average", help="exact expected Betti number for one (n, p, measure)"
    )
    p_average.add_argument("--n", type=int, required=True, help="number of bars")
    p_average.add_argument("--p", type=int, required=True, help="Betti degree")
    p_average.add_argument(
        "--measure", choices=("simplex", "cube"), required=True,
        help="random-length model",
    )
    _add_common(p_average)
    p_average.set_defaults(handler=_cmd_average)

    p_conv = sub.add_parser(
        "convergence", help="expected values against the binomial reference"
    )
    p_conv.add_argument("--p", type=int, required=True, help="Betti degree")
    p_conv.add_argument("--n-min", type=int, required=True, help="first n")
    p_conv.add_argument("--n-max", type=int, required=True, help="last n")
    p_conv.add_argument(
        "--measure", choices=("simplex", "cube", "both"), default="both",
        help="one model or interleaved rows for both (default: both)",
    )
    _add_common(p_conv)
    p_conv.set_defaults(handler=_cmd_convergence)

    p_sample = sub.add_parser(
        "sample", help="Monte Carlo estimate of an expected Betti number"
    )
    p_sample.add_argument("--n", type=int, required=True, help="number of bars")
    p_sample.add_argument("--p", type=int, required=True, help="Betti degree")
    p_sample.add_argument(
        "--measure", choices=("simplex", "cube"), required=True,
        help="random-length model",
    )
    p_sample.add_argument("--samples", type=int, required=True, help="sample budget")
    p_sample.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    _add_common(p_sample)
    p_sample.set_defaults(handler=_cmd_sample)

    p_slice = sub.add_parser(
        "slice", help="exact cut-volume fraction for given simplex vertex values"
    )
    p_slice.add_argument(
        "--q",
        type=_vertex_value_list,
        required=True,
        metavar="Q0,Q1,...",
        help="comma-separated vertex values (at least 2); repeats allowed",
    )
    _add_common(p_slice)
    p_slice.set_defaults(handler=_cmd_slice)

    return parser


# ---------------------------------------------------------------------------
# command handlers


def _cmd_betti(args: argparse.Namespace, threads: int) -> OutputRecord:
    ell = LengthVector(tuple(args.lengths))
    profile = betti_profile(ell)
    generic = "false" if any(profile.median_counts) else "true"
    record = OutputRecord(
        command="betti",
        columns=("p", "betti", "short", "median", "generic"),
    )
    for p, value in enumerate(profile.values):
        record.rows.append(
            {
                "p": p,
                "betti": value,
                "short": profile.short_counts[p],
                "median": profile.median_counts[p],
                "generic": generic,
            }
        )
    return record


def _average_row(report) -> dict[str, str | int]:
    return {
        "n": report.n,
        "p": report.p,
        "measure": str(report.measure),
        "exact_rational": str(report.exact),
        "exact_decimal": decimal_str(report.exact),
        "binomial": report.binomial,
        "gap_rational": str(report.gap),
        "gap_decimal": decimal_str(report.gap),
    }


def _cmd_average(args: argparse.Namespace, threads: int) -> OutputRecord:
    row = _average_row(average_betti_exact(args.n, args.p, Measure(args.measure)))
    return OutputRecord(command="average", columns=tuple(row), rows=[row])


def _cmd_convergence(args: argparse.Namespace, threads: int) -> OutputRecord:
    record = OutputRecord(
        command="convergence",
        columns=(
            "n",
            "measure",
            "p",
            "exact_rational",
            "exact_decimal",
            "binomial",
            "gap_decimal",
            "gap_ratio",
        ),
    )
    if args.n_min > args.n_max:
        return record
    measures = (
        (Measure.SIMPLEX, Measure.CUBE)
        if args.measure == "both"
        else (Measure(args.measure),)
    )
    tables = {
        m: convergence_table(args.p, args.n_min, args.n_max, m)
        for m in measures
    }
    for index in range(args.n_max - args.n_min + 1):
        for m in measures:
            row = tables[m][index]
            report = row.report
            record.rows.append(
                {
                    "n": report.n,
                    "measure": str(m),
                    "p": report.p,
                    "exact_rational": str(report.exact),
                    "exact_decimal": decimal_str(report.exact),
                    "binomial": report.binomial,
                    "gap_decimal": decimal_str(report.gap),
                    "gap_ratio": "" if row.gap_ratio is None else decimal_str(row.gap_ratio),
                }
            )
    return record


def _cmd_sample(args: argparse.Namespace, threads: int) -> OutputRecord:
    # read when numpy loads; OpenBLAS's threads would only spin beside --threads
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    estimate = average_betti_mc(
        args.n,
        args.p,
        Measure(args.measure),
        args.samples,
        args.seed,
        workers=threads,
    )
    return OutputRecord(
        command="sample",
        columns=("n", "p", "measure", "samples", "seed", "estimate", "stderr"),
        rows=[
            {
                "n": args.n,
                "p": args.p,
                "measure": args.measure,
                "samples": estimate.samples,
                "seed": estimate.seed,
                "estimate": float_str(estimate.estimate),
                "stderr": float_str(estimate.stderr),
            }
        ],
        seed=estimate.seed,
    )


def _cmd_slice(args: argparse.Namespace, threads: int) -> OutputRecord:
    ratio = slice_ratio(args.q)
    return OutputRecord(
        command="slice",
        columns=("values", "count", "ratio_rational", "ratio_decimal"),
        rows=[
            {
                "values": ",".join(str(v) for v in args.q),
                "count": len(args.q),
                "ratio_rational": str(ratio),
                "ratio_decimal": decimal_str(ratio),
            }
        ],
    )


# ---------------------------------------------------------------------------
# entry point


def main(argv: Sequence[str] | None = None) -> int:
    tokens = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(_merge_list_option_values(tokens))
    handler: Callable[[argparse.Namespace, int], OutputRecord] = args.handler
    try:
        threads = _resolve_threads(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        record = handler(args, threads)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(render(record, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
