"""Command-line front end.

Subcommands:

* ``betti``        exact Betti profile of one rational length vector
* ``average``      exact expected Betti number for one (n, p, measure)
* ``convergence``  expected values against the binomial reference over a range of n
* ``sample``       seeded Monte Carlo estimate of an expected Betti number
* ``slice``        exact simplex cut-volume fraction for given vertex values

Every command takes ``--format table|csv|json``.  Rational results are exact
"a/b" strings and stay authoritative; decimal columns are 12-significant-digit
conveniences.  Exit codes: 0 success, 1 stdout closed by its reader before
the output was written, 2 malformed input (including a number with more
digits than Python prints, and a ``--threads`` count below 1), both reported
by argparse, 3 domain violations (valid input outside an operation's
mathematical range, or a result too long to print).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .errors import DomainError, digit_limit, exact_rational

__all__ = ["main"]

DECIMAL_DIGITS = 12

# The engine functions the handlers call.  Each is imported from the package
# on first use and then bound here, so that a command loads only its own
# engine and a caller that rebinds one on this module is obeyed.
_ENGINES = ("betti_profile", "average_betti_exact", "convergence_table",
            "average_betti_mc", "slice_ratio")


def __getattr__(name: str):
    if name not in _ENGINES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(sys.modules[__package__], name)
    globals()[name] = value
    return value


def _engine(name: str):
    """The engine function bound to ``name`` on this module."""
    return getattr(sys.modules[__name__], name)


def _rational_str(x: Fraction) -> str:
    """``str(x)``, or DomainError when Python refuses to print that many digits."""
    try:
        return str(x)
    except ValueError:
        raise DomainError(f"result has more than {digit_limit()} digits to print") from None


def decimal_str(x: Fraction) -> str:
    """Decimal rendering of a rational, correctly rounded to 12 significant digits."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        value = Decimal(x.numerator) / Decimal(x.denominator)
    return str(value).lower()


def float_str(x: float) -> str:
    return format(x, f".{DECIMAL_DIGITS}g")


# ---------------------------------------------------------------------------
# rendering: each renderer prints the given columns of every row; only json
# prints ``meta``


def _render_table(columns: tuple[str, ...], rows: list[dict], meta: dict) -> str:
    cells = [[str(row[c]) for c in columns] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(columns)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(columns, widths)).rstrip()]
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def _render_csv(columns: tuple[str, ...], rows: list[dict], meta: dict) -> str:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[c] for c in columns])
    return buffer.getvalue().rstrip("\n")


def _render_json(columns: tuple[str, ...], rows: list[dict], meta: dict) -> str:
    import json

    rows = [{c: row[c] for c in columns} for row in rows]
    return json.dumps({"meta": meta, "rows": rows}, indent=2)


_RENDERERS = {"table": _render_table, "csv": _render_csv, "json": _render_json}


# ---------------------------------------------------------------------------
# argument parsing


def _rational(text: str) -> Fraction:
    try:
        return exact_rational(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
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


def _thread_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"thread count must be at least 1: {text!r}")
    return count


def _merge_list_option_values(argv: list[str]) -> list[str]:
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
        choices=tuple(_RENDERERS),
        default="table",
        help="output rendering (default: table)",
    )
    parser.add_argument(
        "--threads",
        type=_thread_count,
        metavar="N",
        help="ignored, so that existing command lines still run (at least 1)",
    )


def _add_model(parser: argparse.ArgumentParser) -> None:
    """``--n``, ``--p`` and ``--measure``: one expected Betti number's arguments."""
    parser.add_argument("--n", type=int, required=True, help="number of bars")
    parser.add_argument("--p", type=int, required=True, help="Betti degree")
    parser.add_argument(
        "--measure", choices=("simplex", "cube"), required=True,
        help="random-length model",
    )


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
    p_betti.set_defaults(handler=_cmd_betti)

    p_average = sub.add_parser(
        "average", help="exact expected Betti number for one (n, p, measure)"
    )
    _add_model(p_average)
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
    p_conv.set_defaults(handler=_cmd_convergence)

    p_sample = sub.add_parser(
        "sample", help="Monte Carlo estimate of an expected Betti number"
    )
    _add_model(p_sample)
    p_sample.add_argument("--samples", type=int, required=True, help="sample budget")
    p_sample.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
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
    p_slice.set_defaults(handler=_cmd_slice)

    for command_parser in sub.choices.values():
        _add_common(command_parser)
    return parser


# ---------------------------------------------------------------------------
# command handlers


def _cmd_betti(args: argparse.Namespace) -> tuple[tuple[str, ...], list[dict]]:
    from .linkages import LengthVector

    profile = _engine("betti_profile")(LengthVector(tuple(args.lengths)))
    generic = "false" if any(profile.median_counts) else "true"
    rows = [
        {
            "p": p,
            "betti": value,
            "short": profile.short_counts[p],
            "median": profile.median_counts[p],
            "generic": generic,
        }
        for p, value in enumerate(profile.values)
    ]
    return ("p", "betti", "short", "median", "generic"), rows


def _average_row(report) -> dict[str, str | int]:
    """The columns ``average`` and ``convergence`` share."""
    return {
        "n": report.n,
        "p": report.p,
        "measure": str(report.measure),
        "exact_rational": _rational_str(report.exact),
        "exact_decimal": decimal_str(report.exact),
        "binomial": report.binomial,
        "gap_decimal": decimal_str(report.gap),
    }


def _cmd_average(args: argparse.Namespace) -> tuple[tuple[str, ...], list[dict]]:
    report = _engine("average_betti_exact")(args.n, args.p, args.measure)
    row = _average_row(report)
    row["gap_rational"] = _rational_str(report.gap)
    columns = ("n", "p", "measure", "exact_rational", "exact_decimal", "binomial",
               "gap_rational", "gap_decimal")
    return columns, [row]


def _cmd_convergence(args: argparse.Namespace) -> tuple[tuple[str, ...], list[dict]]:
    measures = ("simplex", "cube") if args.measure == "both" else (args.measure,)
    tables = [_engine("convergence_table")(args.p, args.n_min, args.n_max, m) for m in measures]
    rows = [
        {
            **_average_row(report),
            # |gap(n) / gap(n-1)| within one measure, blank on its first row and after a zero gap
            "gap_ratio": decimal_str(abs(report.gap / last.gap)) if last and last.gap else "",
        }
        for same_n in zip(*(zip([None, *table], table) for table in tables))
        for last, report in same_n
    ]
    columns = ("n", "measure", "p", "exact_rational", "exact_decimal", "binomial",
               "gap_decimal", "gap_ratio")
    return columns, rows


def _cmd_sample(args: argparse.Namespace) -> tuple[tuple[str, ...], list[dict]]:
    # read when numpy loads; on a tile's small product OpenBLAS's own threads would only spin
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    estimate = _engine("average_betti_mc")(args.n, args.p, args.measure, args.samples, args.seed)
    row = {
        "n": args.n,
        "p": args.p,
        "measure": args.measure,
        "samples": estimate.samples,
        "seed": estimate.seed,
        "estimate": float_str(estimate.estimate),
        "stderr": float_str(estimate.stderr),
    }
    return tuple(row), [row]


def _cmd_slice(args: argparse.Namespace) -> tuple[tuple[str, ...], list[dict]]:
    ratio = _engine("slice_ratio")(args.q)
    row = {
        "values": ",".join(str(v) for v in args.q),
        "count": len(args.q),
        "ratio_rational": _rational_str(ratio),
        "ratio_decimal": decimal_str(ratio),
    }
    return tuple(row), [row]


# ---------------------------------------------------------------------------
# entry point


def main(argv: list[str] | None = None) -> int:
    tokens = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(_merge_list_option_values(tokens))
    try:
        columns, rows = args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    meta: dict[str, str | int] = {"command": args.command, "version": __version__}
    if args.command == "sample":
        meta["seed"] = args.seed
    try:
        print(_RENDERERS[args.format](columns, rows, meta))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (``| head``); pointing stdout at devnull keeps
        # the flush at shutdown from raising again (Python's SIGPIPE note)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0
