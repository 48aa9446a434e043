"""Where the pole-data route overtakes the two brute-force oracles.

For each (module, N) row below, times three routes from the label to the
character of S^N V, each three times in a fresh interpreter, so no memo is
shared, and reports the least of the three times:

    pole    weight_system -> pfd_decompose -> character_at
    molien  weight_system -> truncated_molien
    adams   weight_system -> character_poly -> adams_symmetric

and prints one markdown table row per module and N.  The last column
compares the pole route with the faster oracle: within 10 % either way is
"even".  A route that runs past the limit once is recorded as a timeout,
not dropped, and is not run again.  Every run that finishes prints a digest
of its character, and a row whose runs disagree is marked MISMATCH.

    PYTHONPATH=src python tools/crossover.py [--limit SECONDS]

The rows are the crossover table of ROADMAP item 1; with the default 30 s
limit the sweep takes about six minutes (352 s on a shared 2-core Linux
machine with Python 3.11.7), the Molien runs at A3(1,0,1) N=40 peaking
near 0.7 GB.
"""

from __future__ import annotations

import argparse
import hashlib
import subprocess
import sys
import time

# Molien at A3(1,0,1) N=40 holds about 0.7 GB of rows.  B2(2,1), A2(3,3)
# and G2(0,2) are the transport-heavy modules, whose pole terms mostly come
# from another weight of the orbit: their common denominators are the
# largest.  The other rows are modules of the C, D, E and F series; the F4
# and E6 rows at N=8 and N=6 are the large windows of ROADMAP item 6.
ROWS = [
    *(("A3", (1, 0, 1), n) for n in (6, 20, 32, 34, 40)),
    *(("A2", (2, 1), n) for n in (10, 18, 24, 30)),
    ("B2", (2, 1), 4),
    ("A2", (3, 3), 4),
    ("G2", (0, 2), 3),
    *(("F4", (0, 0, 0, 1), n) for n in (4, 8)),
    *(("E6", (1, 0, 0, 0, 0, 0), n) for n in (3, 6)),
    ("C3", (0, 1, 0), 8),
    ("D4", (1, 0, 0, 0), 12),
]
ROUTES = ("pole", "molien", "adams")
# Fresh processes per route and row: the least time of a few keeps a row near
# the crossover from flipping its verdict on the machine's noise.
RUNS = 3


def run_route(route: str, label: str, highest: tuple[int, ...], n: int) -> tuple[float, str]:
    """Time one route in this process; return the seconds and a digest of the character."""
    from symchar import (adams_symmetric, character_at, from_label, pfd_decompose,
                         truncated_molien, weight_system)

    start = time.perf_counter()
    table = weight_system(from_label(label), highest)
    if route == "pole":
        character = character_at(pfd_decompose(table), n).terms
    elif route == "molien":
        character = truncated_molien(table, n).coefficient(n)
    else:
        character = adams_symmetric(table.character_poly(), n)
    seconds = time.perf_counter() - start
    digest = hashlib.sha256(repr(sorted(character.terms.items())).encode()).hexdigest()
    return seconds, digest[:16]


def timed(route: str, label: str, highest: tuple[int, ...], n: int, limit: float):
    """(least seconds, digests) of RUNS fresh interpreters, or None once one runs past the limit."""
    argv = [sys.executable, __file__, "--route", route, label, ",".join(map(str, highest)), str(n)]
    times, digests = [], set()
    for _ in range(RUNS):
        try:
            out = subprocess.run(argv, capture_output=True, text=True, timeout=limit, check=True)
        except subprocess.TimeoutExpired:
            return None
        seconds, digest = out.stdout.split()
        times.append(float(seconds))
        digests.add(digest)
    return min(times), digests


def verdict(pole, oracles) -> str:
    finished = [o[0] for o in oracles if o is not None]
    if pole is None:
        return "loses" if finished else "all time out"
    if not finished:
        return "wins"
    floor = min(finished)
    if pole[0] < 0.9 * floor:
        return "wins"
    return "loses" if pole[0] > 1.1 * floor else "even"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--limit", type=float, default=30.0, help="seconds per route (default 30)")
    parser.add_argument("--route", choices=ROUTES, help=argparse.SUPPRESS)
    parser.add_argument("row", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.route:
        label, weight, n = args.row
        seconds, digest = run_route(args.route, label, tuple(map(int, weight.split(","))), int(n))
        print("%.6f %s" % (seconds, digest))
        return 0

    print("| module | N | pole route (s) | molien (s) | adams (s) | pole route |")
    print("| --- | --- | --- | --- | --- | --- |")
    for label, highest, n in ROWS:
        results = [timed(route, label, highest, n, args.limit) for route in ROUTES]
        cells = ["timeout" if r is None else "%.3g" % r[0] for r in results]
        digests = set().union(*(r[1] for r in results if r is not None))
        outcome = verdict(results[0], results[1:]) if len(digests) <= 1 else "MISMATCH"
        module = "%s(%s)" % (label, ",".join(map(str, highest)))
        print("| %s | %d | %s | %s |" % (module, n, " | ".join(cells), outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
