"""Command-line front end: single values, tables, formula-vs-oracle
verification, defect scans, the plane reduction, and the two-step traces.

Exit codes: 0 success or full agreement, 1 semantic disagreement (MISMATCH
from verify or reduce, chain FAILED from horace) or any ArithmeticError, 2
bad usage or configuration. No command reaches hf_trace_line, the one
cross-check that raises ArithmeticError; exit 1 keeps any other (say a
ZeroDivisionError) from ending in a traceback. FATPOINTS_PRIME and
FATPOINTS_SEED preload the corresponding flags; explicit flags win. The
integer flags other than --m must be nonnegative when parsed; --m may be
any integer and is validated later, by UniformFatPoints.
"""

import argparse
import csv
import json
import os
import sys

from .core import BiDegree, HFValue, Source, UniformFatPoints, hf_value
from .formulas import hf_uniform, table_region
from .horace import verify_chain
from .oracle import (
    DEFAULT_PRIME,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    OracleConfig,
    OracleConfigError,
    check_reduction,
    hf_uniform_cells,
)
from .schemes import reduce_to_plane

RECORD_KEYS = ["a", "b", "m", "s", "value", "source", "known", "defective", "defect",
               "virtual_dim", "expected_dim"]


def cell_record(deg: BiDegree, pts: UniformFatPoints, hf: HFValue) -> dict:
    """A cell as the record every machine format prints, keys in RECORD_KEYS
    order."""
    return {
        "a": deg.a, "b": deg.b, "m": pts.m, "s": pts.s,
        "value": hf.value, "source": hf.source.value, "known": hf.known,
        "defective": hf.defective, "defect": hf.defect,
        "virtual_dim": hf.virtual_dim, "expected_dim": hf.expected_dim,
    }


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise OracleConfigError(f"{name} must be an integer, got {raw!r}")


def _oracle_args(parser: argparse.ArgumentParser):
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS, metavar="N",
                        help="at most N rank trials per instance; stops once the rank "
                             "reaches the model's bound")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (default: FATPOINTS_SEED or 0)")
    parser.add_argument("--prime", type=int, default=None,
                        help="field prime (default: FATPOINTS_PRIME or 2^31-1)")


def _int_args(parser: argparse.ArgumentParser, *names: str):
    """Required integer flags, in the given order: --m any integer, the rest
    nonnegative."""
    for name in names:
        parser.add_argument(f"--{name}", type=int if name == "m" else _nonneg, required=True)


def _oracle_config(args) -> OracleConfig:
    seed = args.seed if args.seed is not None else _env_int("FATPOINTS_SEED", DEFAULT_SEED)
    prime = args.prime if args.prime is not None else _env_int("FATPOINTS_PRIME", DEFAULT_PRIME)
    return OracleConfig(prime=prime, trials=args.trials, seed=seed)


def _text_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return "unknown" if value is None else str(value)


def _emit(fmt: str, records, text: str = "", single: bool = False):
    """Print the cell records as a JSON list (one object if `single`) or as
    CSV rows under a RECORD_KEYS header, booleans spelled as in JSON and an
    unknown value as an empty field, or print `text`; records are only
    consumed by the format that prints them, one at a time."""
    if fmt == "json" and single:
        print(json.dumps(next(iter(records))))
    elif fmt == "json":
        # the bytes of json.dumps(list(records)), without the list
        sys.stdout.write("[")
        for i, record in enumerate(records):
            sys.stdout.write((", " if i else "") + json.dumps(record))
        print("]")
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(RECORD_KEYS)
        writer.writerows(["" if value is None else _text_value(value)
                          for value in record.values()] for record in records)
    else:
        print(text)


def cmd_hf(args) -> int:
    deg = BiDegree(args.a, args.b)
    pts = UniformFatPoints(args.s, args.m)
    hf = hf_uniform(deg, pts)
    if args.mode == "oracle" or (args.mode == "auto" and hf.value is None):
        rank = hf_uniform_cells([(deg.a, deg.b)], pts, _oracle_config(args))[deg.a, deg.b]
        hf = hf_value(rank, deg, pts, source=Source.ORACLE, known=hf.known)
    record = cell_record(deg, pts, hf)
    text = "\n".join(f"{key} = {_text_value(value)}" for key, value in record.items())
    _emit(args.format, [record], text, single=True)
    return 0


def _cell_marks(hf: HFValue, mark_defective: bool) -> str:
    marks = ""
    if mark_defective and hf.defective:
        marks += "*"
    if hf.source is Source.ORACLE:
        marks += "?"
    return marks


def render_table(grid, mark_defective: bool) -> str:
    cells = [
        [("-" if hf.value is None else str(hf.value)) + _cell_marks(hf, mark_defective)
         for hf in row]
        for row in grid
    ]
    a_max = len(grid[0]) - 1
    header = [r"b\a"] + [str(a) for a in range(a_max + 1)]
    width = max(len(text) for row in [header] + cells for text in row)
    lines = [" ".join(text.rjust(width) for text in header)]
    for b, row in enumerate(cells):
        lines.append(" ".join(text.rjust(width) for text in [str(b)] + row))
    return "\n".join(lines)


def cmd_table(args) -> int:
    oracle = _oracle_config(args) if args.oracle_unknown else None
    grid = table_region(args.m, args.s, args.amax, args.bmax, oracle)
    text = render_table(grid, args.mark_defective) if args.format == "text" else ""
    pts = UniformFatPoints(args.s, args.m)
    _emit(args.format, (
        cell_record(BiDegree(a, b), pts, hf)
        for b, row in enumerate(grid)
        for a, hf in enumerate(row)
    ), text)
    return 0


def cmd_verify(args) -> int:
    cfg = _oracle_config(args)
    grid = table_region(args.m, args.s, args.amax, args.bmax)
    pts = UniformFatPoints(args.s, args.m)
    closed = {(a, b): hf.value for b, row in enumerate(grid)
              for a, hf in enumerate(row) if hf.value is not None}
    ranks = hf_uniform_cells(closed, pts, cfg)
    mismatches = [(a, b, formula, ranks[a, b]) for (a, b), formula in closed.items()
                  if formula != ranks[a, b]]
    checked = len(closed)
    if mismatches:
        for a, b, formula, oracle in mismatches:
            print(f"MISMATCH a={a} b={b}: formula {formula} != oracle {oracle}")
        print(f"{checked - len(mismatches)}/{checked} cells confirmed, "
              f"{len(mismatches)} mismatches")
        return 1
    print(f"{checked}/{checked} cells confirmed")
    return 0


def cmd_defects(args) -> int:
    grid = table_region(args.m, args.s, args.amax, args.bmax)
    cells = [
        (BiDegree(a, b), hf)
        for b, row in enumerate(grid) if b >= 1
        for a, hf in enumerate(row) if a >= 1 and hf.defective
    ]
    text = "\n".join(f"a={deg.a} b={deg.b} value={hf.value} defect={hf.defect}"
                     for deg, hf in cells) or "no defective cells"
    pts = UniformFatPoints(args.s, args.m)
    _emit(args.format, (cell_record(deg, pts, hf) for deg, hf in cells), text)
    return 0


def cmd_reduce(args) -> int:
    deg = BiDegree(args.a, args.b)
    pts = UniformFatPoints(args.s, args.m)
    # the oracle runs first, so a refused input prints nothing on stdout and
    # builds no plane scheme
    agree = check_reduction(deg, pts, _oracle_config(args))
    scheme, d = reduce_to_plane(deg, pts)
    mults = ",".join(str(m) for m in scheme.general)
    print(f"plane scheme: {scheme.corner_a}Q1 + {scheme.corner_b}Q2 + points [{mults}]")
    print(f"plane degree: {d}")
    if agree:
        print("ideal dimensions agree")
        return 0
    print("MISMATCH between the two models")
    return 1


def cmd_horace(args) -> int:
    cfg = _oracle_config(args)
    report = verify_chain(args.a, args.b, args.s, cfg)
    step1, step2 = report.step1, report.step2
    print(f"a+b = 5*{step1.h} + {step1.c}; on-line points: x={step1.x} y={step1.y}")
    print("step 1 slices:", list(step1.slices))
    print("step 1 residual profiles:",
          [list(pr.widths) for pr in step1.residual.on_line])
    print("step 2 slices:", list(step2.slices))
    print("step 2 residual profiles:",
          [list(pr.widths) for pr in step2.residual.on_line])
    d = args.a + args.b
    print(f"dim at {d} (general) = {report.generic_dim}")
    print(f"dim at {d - 2} (first residual) = {report.residual1_dim}")
    print(f"dim at {d - 4} (second residual) = {report.residual2_dim}")
    print(f"specialized dims: {report.specialized1_dim} at {d}, "
          f"{report.specialized2_dim} at {d - 2}")
    if report.ok:
        print("chain verified")
        return 0
    print("chain FAILED")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fatpoints",
        description="Hilbert functions of equal-multiplicity fat points on "
                    "the doubly ruled quadric, with an exact rank oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_hf = sub.add_parser("hf", help="one Hilbert-function value")
    _int_args(p_hf, "a", "b", "m", "s")
    p_hf.add_argument("--mode", choices=["auto", "formula", "oracle"], default="auto")
    p_hf.add_argument("--format", choices=["text", "json", "csv"], default="text")
    _oracle_args(p_hf)
    p_hf.set_defaults(func=cmd_hf)

    p_table = sub.add_parser("table", help="grid of values, b rows by a columns")
    _int_args(p_table, "m", "s", "amax", "bmax")
    p_table.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p_table.add_argument("--mark-defective", action="store_true",
                         help="append * to defective cells in text output")
    p_table.add_argument("--oracle-unknown", action="store_true",
                         help="resolve unknown cells with the rank oracle (marked ?)")
    _oracle_args(p_table)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="compare formulas against the oracle")
    _int_args(p_verify, "m", "s", "amax", "bmax")
    _oracle_args(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_defects = sub.add_parser("defects", help="list defective cells in a rectangle")
    _int_args(p_defects, "m", "s", "amax", "bmax")
    p_defects.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p_defects.set_defaults(func=cmd_defects)

    p_reduce = sub.add_parser("reduce", help="show the plane model and confirm it")
    _int_args(p_reduce, "a", "b", "m", "s")
    _oracle_args(p_reduce)
    p_reduce.set_defaults(func=cmd_reduce)

    p_horace = sub.add_parser("horace", help="run the two-step trace for triple points")
    _int_args(p_horace, "a", "b", "s")
    _oracle_args(p_horace)
    p_horace.set_defaults(func=cmd_horace)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early (`| head`), which is not an error; stdout
        # moves to devnull so the final flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ValueError as exc:  # OracleConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # no command reaches hf_trace_line; any ArithmeticError exits 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
