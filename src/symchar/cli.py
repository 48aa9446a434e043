"""Command-line front end.

Subcommands: weights | pfd | char | mult | orbits | vpart | verify.
Output goes to stdout (JSON by default, plain text with --format text),
diagnostics to stderr.  Exit codes: 0 success, 1 user error, 2 internal
inconsistency (an exactness or consistency check failed, a lookup missed,
a `verify` check failed or `vpart` reported all_pass false; each means a
bug).  A failing `verify` or `vpart` still prints its full report first.

A subcommand loads and compiles only what it runs.  This module loads
rootsys and weightsys (with _base), all that `weights` runs;
the other handlers import pfdcore (with polyring), charformula, vpart and
oracle when they run, each only what it uses, and none loads univariate.
main builds the parser of the requested subcommand alone; no argument, -h
or an unknown command gets the parser of all seven, so --help and the
invalid-choice message list them all.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import partial
from itertools import islice

from ._base import InconsistencyError
from .rootsys import build_root_system, from_label, parse_label
from .weightsys import weight_system

__all__ = ["main"]


def __getattr__(name):
    # PEP 562: symchar.cli.pfd_decompose stays the pipeline's function, looked
    # up when asked for, so loading the command line does not load pfdcore.
    if name != "pfd_decompose":
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from .pfdcore import pfd_decompose
    return pfd_decompose

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


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; user errors must exit 1 here.
    def error(self, message):
        raise ValueError(message)


def _parse_weight(text: str, rank: int) -> tuple[int, ...]:
    # A sign and ASCII digits only: int() alone would also take 1_0 and non-ASCII digits.
    parts = text.split(",")
    if not all(re.fullmatch(r"\s*[+-]?[0-9]+\s*", part) for part in parts):
        raise ValueError("malformed weight %r (expected comma-separated integers)" % text)
    coords = tuple(map(int, parts))
    if len(coords) != rank:
        raise ValueError("weight %r has %d coordinates, expected %d" % (text, len(coords), rank))
    return coords


def _integer(text: str) -> int:
    # ASCII digits after an optional '-': int() alone would also take 0_2, " 2" and other digits.
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    return int(text)


def _emit(payload, fmt: str, text_renderer, failure=None) -> None:
    if fmt == "json":  # in batches of chunks: the JSON text is never held whole
        chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
        while batch := "".join(islice(chunks, 1 << 14)):
            sys.stdout.write(batch)
    print("" if fmt == "json" else text_renderer())
    if failure:
        raise InconsistencyError(failure)


def _check_max_degree(args) -> None:
    if args.max_degree is not None and args.max_degree < 0:
        raise ValueError("--max-n must be non-negative")


def _coords(weight) -> str:
    return ",".join(str(c) for c in weight)


# A module subcommand's handler takes the weight table and the parsed arguments
# and returns its payload body, its text renderer and a failure message or None.
def _weights(table, args):
    return {"dim": table.dimension(), "weights": table.to_json()}, lambda: "\n".join(
        "%s  %d" % (_coords(mu), table.multiplicity(mu)) for mu in table.support()
    ), None


def _pfd(table, args):
    from .pfdcore import pfd_decompose
    closed = pfd_decompose(table)
    return {"terms": closed.to_json()}, lambda: "\n".join(
        "weight %s  order %d:  %s" % (_coords(term.weight), term.order, term.coeff)
        for term in closed.terms
    ), None


def _char(table, args):
    from .charformula import character_at
    from .pfdcore import pfd_decompose
    character = character_at(pfd_decompose(table), args.degree)
    return {"character": character.to_json()}, character.terms.render, None


def _mult(table, args):
    from .charformula import character_at, multiplicity_at
    from .pfdcore import pfd_decompose
    value = multiplicity_at(character_at(pfd_decompose(table), args.degree), args.mu)
    return {"multiplicity": value}, lambda: str(value), None


def _orbits(table, args):
    from .charformula import orbit_split
    from .pfdcore import pfd_decompose
    summands = orbit_split(pfd_decompose(table), table.root_system, args.degree)
    return {"summands": [summand.to_json() for summand in summands]}, lambda: "\n".join(
        "dominant %s:  %s" % (_coords(s.dominant_weight), s.value) for s in summands
    ), None


def _vpart(table, args):
    from .vpart import check_partition_equivalence
    report = check_partition_equivalence(table, args.max_degree)
    matrix, all_pass = report["matrix"], report["all_pass"]
    body = {
        "matrix": matrix,
        "properties": {"grading_row": all(x == 1 for x in matrix[-1]), "columns": len(matrix[0])},
        "equivalence": report["cases"],
        "all_pass": all_pass,
    }
    failure = None if all_pass else "vector-partition counts differ from the pole-data characters"
    return body, lambda: json.dumps(matrix) + "\nall_pass: %s" % all_pass, failure


# The subcommands that act on one module, in the order --help lists them:
# (help, handler, options beyond --algebra, --lambda and --format).
_COMMANDS = {
    "weights": ("weight multiplicities of the module", _weights, ()),
    "pfd": ("pole coefficients of the graded character", _pfd, ()),
    "char": ("character of one symmetric power", _char, ("--N",)),
    "mult": ("one weight multiplicity of one symmetric power", _mult, ("--N", "--mu")),
    "orbits": ("character split by Weyl orbits", _orbits, ("--N",)),
    "vpart": ("vector-partition matrix and equivalence report", _vpart, ("--max-n",)),
}

# The options of the module subcommands, in the order --help lists them.
_OPTIONS = {
    "--algebra": dict(required=True, help="algebra label, e.g. A1, A2, B2"),
    "--lambda": dict(dest="highest", required=True, metavar="WEIGHT",
                     help="highest weight as comma-separated fundamental-weight coordinates"),
    "--N": dict(dest="degree", type=_integer, required=True,
                help="symmetric-power degree (non-negative)"),
    "--mu": dict(required=True, metavar="WEIGHT",
                 help="weight to extract, comma-separated coordinates"),
    "--format": dict(choices=("json", "text"), default="json"),
    "--max-n": dict(dest="max_degree", type=_integer, default=3,
                    help="largest symmetric-power degree to check (default 3)"),
}


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of the subcommand named only alone."""
    parser = _Parser(prog="symchar",
                     description="Exact characters of symmetric powers of irreducible modules")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, _, options) in _COMMANDS.items():
        if only not in (None, name):
            continue
        module = sub.add_parser(name, help=help_text)
        for flag, spec in _OPTIONS.items():
            if flag in ("--algebra", "--lambda", "--format", *options):
                module.add_argument(flag, **spec)
    if only in (None, "verify"):
        verify = sub.add_parser("verify", help="run the three-way oracle equivalences")
        verify.add_argument("--case", action="append",
                            help="restrict to one algebra label (repeatable)")
        verify.add_argument("--max-n", dest="max_degree", type=_integer,
                            help="cap the symmetric-power degree for every case")
        verify.add_argument("--format", **_OPTIONS["--format"])
    return parser


def _run(handler, options: tuple[str, ...], args) -> int:
    # Check the label and the weight's length before building: a user error
    # must not wait for the root system of a large rank.
    series, rank = parse_label(args.algebra)
    highest = _parse_weight(args.highest, rank)
    rs = build_root_system(series, rank)
    header = {"algebra": rs.label, "highest_weight": list(highest)}
    if "--N" in options:
        if args.degree < 0:
            raise ValueError("--N must be a non-negative integer")
        header["N"] = args.degree
    if "--mu" in options:
        args.mu = _parse_weight(args.mu, rank)
        header["mu"] = list(args.mu)
    if "--max-n" in options:
        _check_max_degree(args)
    body, text_renderer, failure = handler(weight_system(rs, highest), args)
    _emit({**header, **body}, args.format, text_renderer, failure)
    return 0


def _cmd_verify(args) -> int:
    from .charformula import character_at
    from .oracle import adams_series, truncated_molien
    from .pfdcore import pfd_decompose

    known = list(dict.fromkeys(label for label, _, _ in VERIFY_CASES))
    unknown = [label for label in args.case or () if label not in known]
    if unknown:
        raise ValueError("unknown verify case %s; the cases are %s"
                         % (", ".join(unknown), ", ".join(known)))
    _check_max_degree(args)
    rows = []
    for label, highest, n_max in VERIFY_CASES:
        if args.case and label not in args.case:
            continue
        if args.max_degree is not None:
            n_max = min(n_max, args.max_degree)
        table = weight_system(from_label(label), highest)
        closed = pfd_decompose(table)
        molien = truncated_molien(table, n_max)
        adams = adams_series(table.character_poly(), n_max)
        case = "%s lambda=%s" % (label, _coords(highest))
        checks = [(None, "coefficient-sum-1", character_at(closed, 0).terms == 1)]
        for n in range(n_max + 1):
            from_pfd = character_at(closed, n).terms
            checks += [(n, "pfd-vs-molien", from_pfd == molien.coefficient(n)),
                       (n, "pfd-vs-adams", from_pfd == adams.coefficient(n))]
        rows += [{"case": case, "N": n, "check": name, "status": "pass" if ok else "fail"}
                 for n, name, ok in checks]
    failed = sum(row["status"] == "fail" for row in rows)
    _emit(rows, args.format, lambda: "\n".join(
        ["%(case)-18s N=%(N)-4s %(check)-18s %(status)s" % row for row in rows]
        + ["%d checks, %d failed" % (len(rows), failed)]
    ), "%d of %d verify checks failed" % (failed, len(rows)) if failed else None)
    return 0


_HANDLERS = {
    **{name: partial(_run, handler, options) for name, (_, handler, options) in _COMMANDS.items()},
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv and argv[0] in _HANDLERS else None)
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except (AssertionError, ArithmeticError, KeyError, IndexError) as error:
        print("internal inconsistency: %s" % error, file=sys.stderr)
        return 2
    except ValueError as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader left early; stdout now goes nowhere, so the final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
