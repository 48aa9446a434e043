"""Command-line front end.

Subcommands: weights | pfd | char | mult | orbits | vpart | verify.
Output goes to stdout (JSON by default, plain text with --format text),
diagnostics to stderr.  Exit codes: 0 success, 1 user error, 2 internal
inconsistency (an exactness assertion failed or a lookup missed, which
means a bug).
"""

from __future__ import annotations

import argparse
import json
import sys

from .charformula import character_at, multiplicity_at, orbit_split
from .oracle import adams_symmetric, truncated_molien
from .pfdcore import pfd_decompose
from .rootsys import RootSystem, from_label
from .vpart import build_partition_matrix, check_partition_equivalence
from .weightsys import weight_system

__all__ = ["main"]

# Cases driven by the `verify` subcommand: (algebra, highest weight, max degree).
VERIFY_CASES = (
    ("A1", (1,), 10),
    ("A1", (2,), 10),
    ("A1", (3,), 10),
    ("A1", (4,), 10),
    ("A2", (1, 0), 8),
    ("A2", (1, 1), 6),
    ("B2", (0, 1), 4),
)


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; user errors must exit 1 here.
    def error(self, message):
        raise _UsageError(message)


def _parse_weight(text: str, rank: int) -> tuple[int, ...]:
    try:
        coords = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError("malformed weight %r (expected comma-separated integers)" % text)
    if len(coords) != rank:
        raise ValueError("weight %r has %d coordinates, expected %d" % (text, len(coords), rank))
    return coords


def _emit(payload, fmt: str, text_renderer) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text_renderer())


def _add_common(parser: argparse.ArgumentParser, with_n=False, with_mu=False) -> None:
    parser.add_argument("--algebra", required=True, help="algebra label, e.g. A1, A2, B2")
    parser.add_argument(
        "--lambda",
        dest="highest",
        required=True,
        metavar="WEIGHT",
        help="highest weight as comma-separated fundamental-weight coordinates",
    )
    if with_n:
        parser.add_argument("--N", dest="degree", type=int, required=True,
                            help="symmetric-power degree (non-negative)")
    if with_mu:
        parser.add_argument("--mu", required=True, metavar="WEIGHT",
                            help="weight to extract, comma-separated coordinates")
    parser.add_argument("--format", choices=("json", "text"), default="json")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="symchar",
        description="Exact characters of symmetric powers of irreducible modules",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    _add_common(sub.add_parser("weights", help="weight multiplicities of the module"))
    _add_common(sub.add_parser("pfd", help="pole coefficients of the graded character"))
    _add_common(sub.add_parser("char", help="character of one symmetric power"), with_n=True)
    _add_common(sub.add_parser("mult", help="one weight multiplicity of one symmetric power"),
                with_n=True, with_mu=True)
    _add_common(sub.add_parser("orbits", help="character split by Weyl orbits"), with_n=True)

    vpart = sub.add_parser("vpart", help="vector-partition matrix and equivalence report")
    _add_common(vpart)
    vpart.add_argument("--max-n", dest="max_degree", type=int, default=3,
                       help="largest symmetric-power degree to check (default 3)")

    verify = sub.add_parser("verify", help="run the three-way oracle equivalences")
    verify.add_argument("--case", action="append", default=None,
                        help="restrict to one algebra label (repeatable)")
    verify.add_argument("--max-n", dest="max_degree", type=int, default=None,
                        help="cap the symmetric-power degree for every case")
    verify.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def _resolve(args) -> tuple[RootSystem, tuple[int, ...]]:
    rs = from_label(args.algebra)
    return rs, _parse_weight(args.highest, rs.rank)


def _cmd_weights(args) -> int:
    rs, highest = _resolve(args)
    table = weight_system(rs, highest)
    payload = {
        "algebra": rs.label,
        "highest_weight": list(highest),
        "dim": table.dimension(),
        "weights": table.to_json(),
    }
    _emit(payload, args.format, lambda: "\n".join(
        "%s  %d" % (",".join(str(c) for c in mu), table.multiplicity(mu))
        for mu in table.support()
    ))
    return 0


def _cmd_pfd(args) -> int:
    rs, highest = _resolve(args)
    closed = pfd_decompose(weight_system(rs, highest))
    payload = {
        "algebra": rs.label,
        "highest_weight": list(highest),
        "terms": closed.to_json(),
    }
    _emit(payload, args.format, lambda: "\n".join(
        "weight %s  order %d:  %s"
        % (",".join(str(c) for c in term.weight), term.order, term.coeff)
        for term in closed.terms
    ))
    return 0


def _require_degree(args) -> int:
    if args.degree is None or args.degree < 0:
        raise ValueError("--N must be a non-negative integer")
    return args.degree


def _cmd_char(args) -> int:
    rs, highest = _resolve(args)
    degree = _require_degree(args)
    character = character_at(pfd_decompose(weight_system(rs, highest)), degree)
    payload = {
        "algebra": rs.label,
        "highest_weight": list(highest),
        "N": degree,
        "character": character.to_json(),
    }
    _emit(payload, args.format, lambda: character.terms.render())
    return 0


def _cmd_mult(args) -> int:
    rs, highest = _resolve(args)
    degree = _require_degree(args)
    mu = _parse_weight(args.mu, rs.rank)
    character = character_at(pfd_decompose(weight_system(rs, highest)), degree)
    value = multiplicity_at(character, mu)
    payload = {
        "algebra": rs.label,
        "highest_weight": list(highest),
        "N": degree,
        "mu": list(mu),
        "multiplicity": value,
    }
    _emit(payload, args.format, lambda: str(value))
    return 0


def _cmd_orbits(args) -> int:
    rs, highest = _resolve(args)
    degree = _require_degree(args)
    summands = orbit_split(pfd_decompose(weight_system(rs, highest)), rs, degree)
    payload = {
        "algebra": rs.label,
        "highest_weight": list(highest),
        "N": degree,
        "summands": [summand.to_json() for summand in summands],
    }
    _emit(payload, args.format, lambda: "\n".join(
        "dominant %s:  %s"
        % (",".join(str(c) for c in s.dominant_weight), s.value)
        for s in summands
    ))
    return 0


def _cmd_vpart(args) -> int:
    rs, highest = _resolve(args)
    if args.max_degree < 0:
        raise ValueError("--max-n must be non-negative")
    table = weight_system(rs, highest)
    matrix = build_partition_matrix(rs, table)
    report = check_partition_equivalence(rs, table, args.max_degree)
    payload = {
        "algebra": rs.label,
        "highest_weight": list(highest),
        "matrix": matrix.to_json(),
        "properties": {
            "grading_row": all(x == 1 for x in matrix.entries[-1]),
            "columns": matrix.cols,
        },
        "equivalence": report["cases"],
        "all_pass": report["all_pass"],
    }
    _emit(payload, args.format, lambda: json.dumps(payload["matrix"]) + (
        "\nall_pass: %s" % report["all_pass"]
    ))
    return 0 if report["all_pass"] else 1


def _cmd_verify(args) -> int:
    rows = []
    for label, highest, n_max in VERIFY_CASES:
        if args.case and label not in args.case:
            continue
        if args.max_degree is not None:
            n_max = min(n_max, args.max_degree)
        rs = from_label(label)
        table = weight_system(rs, highest)
        closed = pfd_decompose(table)
        truncation = truncated_molien(table, n_max)
        char_v = table.character_poly()
        case = "%s lambda=%s" % (label, ",".join(str(c) for c in highest))

        unit = closed.coefficient_sum() == 1
        rows.append({"case": case, "N": None, "check": "coefficient-sum-1",
                     "status": "pass" if unit else "fail"})
        for n in range(n_max + 1):
            from_pfd = character_at(closed, n).terms
            checks = (
                ("pfd-vs-molien", from_pfd == truncation.coefficient(n)),
                ("pfd-vs-adams", from_pfd == adams_symmetric(char_v, n)),
            )
            for name, ok in checks:
                rows.append({"case": case, "N": n, "check": name,
                             "status": "pass" if ok else "fail"})
    failed = [row for row in rows if row["status"] == "fail"]
    if args.format == "json":
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        for row in rows:
            print("%-18s N=%-4s %-18s %s" % (row["case"], row["N"], row["check"], row["status"]))
        print("%d checks, %d failed" % (len(rows), len(failed)))
    return 1 if failed else 0


_HANDLERS = {
    "weights": _cmd_weights,
    "pfd": _cmd_pfd,
    "char": _cmd_char,
    "mult": _cmd_mult,
    "orbits": _cmd_orbits,
    "vpart": _cmd_vpart,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except (AssertionError, ArithmeticError, KeyError, IndexError) as error:
        print("internal inconsistency: %s" % error, file=sys.stderr)
        return 2
    except ValueError as error:
        print("error: %s" % error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
