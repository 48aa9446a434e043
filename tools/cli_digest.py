"""Byte-identity sweep of the command line: one digest line per request.

Runs a fixed list of ``symchar`` requests in process through ``cli.main``
and prints, for each one,

    <sha256 of stdout, a NUL byte and stderr> <exit code> <argv>

The requests cover all seven subcommands, text and JSON output, ``--help``
and user errors.  Every request runs with ``COLUMNS=80``, so the help text
is wrapped the same way on any terminal.  Two source trees produce the
same bytes on every request exactly when their digests are equal, so the
check is a plain diff:

    PYTHONPATH=src python tools/cli_digest.py > new.txt
    PYTHONPATH=/path/to/other/checkout/src python tools/cli_digest.py > old.txt
    diff old.txt new.txt

The sweep takes a few seconds.  ``tests/test_cli_digest.py`` runs it
against the lines recorded in ``tests/cli_digest.txt``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from unittest import mock

from symchar import cli

# (algebra, highest weight) pairs whose weight table and pole data are cheap.
MODULES = [
    *(("A1", str(m)) for m in range(1, 9)),
    *(("A2", w) for w in ("1,0", "0,1", "1,1", "2,0", "0,2", "2,1", "1,2", "3,0", "2,2", "0,3")),
    *(("B2", w) for w in ("1,0", "0,1", "1,1", "2,0", "0,2", "1,2", "2,1")),
    ("A2", "3,1"), ("B2", "0,3"), ("A5", "1,0,0,0,0"), ("B4", "1,0,0,0"),
    *(("G2", w) for w in ("1,0", "0,1", "2,0")),
    *(("A3", w) for w in ("1,0,0", "0,1,0", "0,0,1", "2,0,0", "1,1,0", "1,0,1")),
    *(("B3", w) for w in ("1,0,0", "0,0,1", "0,1,0")),
    *(("C3", w) for w in ("1,0,0", "0,1,0", "0,0,1")),
    ("F4", "0,0,0,1"),
    *(("D4", w) for w in ("1,0,0,0", "0,0,0,1", "0,1,0,0")),
    *(("A4", w) for w in ("1,0,0,1", "0,1,0,0")),
]

# (algebra, highest weight, N, a weight of S^N V) for char, mult and orbits.
POWERS = [
    ("A1", "2", 4, "4"),
    ("A1", "3", 5, "3"),
    ("A1", "4", 6, "0"),
    ("A2", "1,0", 4, "1,1"),
    ("A2", "1,1", 3, "0,0"),
    ("A2", "2,1", 2, "1,1"),
    ("B2", "0,1", 4, "0,2"),
    ("B2", "1,1", 2, "0,0"),
    ("G2", "1,0", 3, "1,0"),
    ("G2", "0,1", 2, "0,0"),
    ("A3", "1,0,0", 3, "1,1,0"),
    ("C3", "1,0,0", 2, "0,1,0"),
]

VPART = [("A1", "2", 4), ("A1", "3", 3), ("A2", "1,0", 3), ("A2", "1,1", 2),
         ("B2", "0,1", 3), ("G2", "1,0", 2)]

# The trivial module has the same weight table on every rank-2 algebra; run
# back to back in one process, these requests would show pole data shared
# across root systems.
TRIVIAL = ["A2", "B2", "G2"]

VERIFY = [
    (),  # all seven cases at their full degree
    ("--case", "A1", "--max-n", "4"),
    ("--case", "A2", "--max-n", "3"),
    ("--case", "B2", "--max-n", "3", "--format", "text"),
    ("--case", "A1", "--case", "A2", "--max-n", "2"),
    ("--case", "A9",),
    ("--case", "Z1", "--max-n", "2"),
]

SUBCOMMANDS = ["weights", "pfd", "char", "mult", "orbits", "vpart", "verify"]

ERRORS = [
    ("weights", "--algebra", "A60", "--lambda", "1"),
    ("weights", "--algebra", "A30", "--lambda", "1"),
    ("weights", "--algebra", "B1", "--lambda", "1"),
    ("weights", "--algebra", "E9", "--lambda", "1,0,0,0,0,0,0,0,0"),
    ("weights", "--algebra", "D3", "--lambda", "1,0,0"),
    ("weights", "--algebra", "C2", "--lambda", "1,x"),
    ("weights", "--algebra", "Z9", "--lambda", "1"),
    ("pfd", "--algebra", "A2", "--lambda", "1"),
    ("pfd", "--algebra", "A2", "--lambda", "1,,1"),
    ("pfd", "--algebra", "A2", "--lambda", "-1,1"),
    ("pfd", "--algebra", "A2"),
    ("char", "--algebra", "A1", "--lambda", "2"),
    ("char", "--algebra", "A1", "--lambda", "2", "--N", "-1"),
    ("char", "--algebra", "A1", "--lambda", "-2", "--N", "2"),
    ("char", "--algebra", "A1", "--lambda", "2", "--N", "x"),
    ("mult", "--algebra", "A2", "--lambda", "1,1", "--N", "2", "--mu", "1"),
    ("mult", "--algebra", "A2", "--lambda", "1,1", "--N", "2"),
    ("orbits", "--algebra", "A2", "--lambda", "1,1", "--N", "-2"),
    ("vpart", "--algebra", "A1", "--lambda", "2", "--max-n", "-1"),
    ("verify", "--max-n", "-1"),
    ("frobnicate", "--algebra", "A1"),
    ("pfd", "--algebra", "A2", "--lambda", "1,1", "--format", "xml"),
    (),
]


def requests() -> list[tuple[str, ...]]:
    """The sweep, in a fixed order."""
    out: list[tuple[str, ...]] = []
    for algebra, weight in MODULES:
        out.append(("weights", "--algebra", algebra, "--lambda", weight))
        out.append(("pfd", "--algebra", algebra, "--lambda", weight))
    for algebra, weight in MODULES[:12]:
        out.append(("pfd", "--algebra", algebra, "--lambda", weight, "--format", "text"))
        out.append(("weights", "--algebra", algebra, "--lambda", weight, "--format", "text"))
    for algebra, weight, n, mu in POWERS:
        common = ("--algebra", algebra, "--lambda", weight, "--N", str(n))
        out.append(("char", *common))
        out.append(("char", *common, "--format", "text"))
        out.append(("mult", *common, "--mu", mu))
        out.append(("mult", *common, "--mu", mu, "--format", "text"))
        out.append(("orbits", *common))
        out.append(("orbits", *common, "--format", "text"))
    for algebra, weight, n in VPART:
        out.append(("vpart", "--algebra", algebra, "--lambda", weight, "--max-n", str(n)))
        out.append(("vpart", "--algebra", algebra, "--lambda", weight, "--max-n", str(n),
                    "--format", "text"))
    for algebra in TRIVIAL:
        common = ("--algebra", algebra, "--lambda", "0,0")
        out.append(("weights", *common))
        out.append(("pfd", *common))
        out.append(("orbits", *common, "--N", "2"))
        out.append(("vpart", *common, "--max-n", "2"))
    out.append(("orbits", "--algebra", "A3", "--lambda", "1,0,1", "--N", "2"))
    out.append(("vpart", "--algebra", "A3", "--lambda", "1,0,0", "--max-n", "2"))
    out.extend(("verify", *flags) for flags in VERIFY)
    out.extend(ERRORS)
    out.append(("--help",))
    out.extend((command, "--help") for command in SUBCOMMANDS)
    return out


def run(argv: tuple[str, ...]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as stop:  # --help
            code = 0 if stop.code is None else stop.code if isinstance(stop.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def line(argv: tuple[str, ...]) -> str:
    """The digest line of one request."""
    code, out, err = run(argv)
    digest = hashlib.sha256((out + "\0" + err).encode()).hexdigest()
    return "%s %d %s" % (digest, code, " ".join(argv) or "(no arguments)")


def main() -> int:
    for argv in requests():
        print(line(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
