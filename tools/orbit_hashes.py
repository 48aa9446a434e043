"""Byte-identity hashes of ``symchar orbits`` on a fixed list of modules and degrees.

Runs ``orbits --algebra X --lambda W --N n`` in process through ``cli.main``
for each module below and n = 0..3, and prints, for each request,

    <sha256 of stdout> <seconds> <algebra> <highest weight> <n>

where <seconds> is the wall time of that in-process request (module table,
pole data, orbit summands and JSON output together; the pole data of a
module is computed at its first degree and shared by the later ones), and
then one last line, the sha256 of all the stdouts concatenated in list
order.  Two source trees give the same ``orbits`` JSON on every request
exactly when their last lines are equal.  The tool compares its last line
with ``EXPECTED``, the hash of the recorded outputs, and exits 1, printing
both hashes to stderr, when they differ:

    PYTHONPATH=src python tools/orbit_hashes.py

The list mixes modules of several orbits, whose summands are transported
lifts reduced once, with B4(0,0,0,1), whose weights form one orbit.
"""

from __future__ import annotations

import hashlib
import sys
import time

from cli_digest import run

MODULES = [("C3", "0,1,0"), ("A3", "1,0,1"), ("B2", "1,1"), ("A2", "2,1"), ("G2", "0,1"),
           ("B4", "0,0,0,1")]
DEGREES = range(4)

# The last line for the recorded orbits outputs of MODULES at DEGREES.
EXPECTED = "fdf3a808b7bb3829110969eb14276aac9fb737356b176092785ac61263381256"


def main() -> int:
    total = hashlib.sha256()
    for algebra, weight in MODULES:
        for n in DEGREES:
            start = time.perf_counter()
            argv = ("orbits", "--algebra", algebra, "--lambda", weight, "--N", str(n))
            code, out, err = run(argv)
            seconds = time.perf_counter() - start
            if code:
                print("exit %d on %s(%s) N=%d: %s" % (code, algebra, weight, n, err.strip()),
                      file=sys.stderr)
                return code
            total.update(out.encode())
            digest = hashlib.sha256(out.encode()).hexdigest()
            print(digest, "%.3f" % seconds, algebra, weight, n, flush=True)
    print(total.hexdigest())
    if total.hexdigest() != EXPECTED:
        print("orbits outputs changed: sha256 %s, expected %s" % (total.hexdigest(), EXPECTED),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
