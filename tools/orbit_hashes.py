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
both hashes to stderr, when they differ (the loop is ``pfd_hashes.sweep``):

    PYTHONPATH=src python tools/orbit_hashes.py

The list mixes modules of several orbits, whose summands are their own
pole terms, each lifted to the orbit's common denominator, summed and
reduced once, with B4(0,0,0,1), whose weights form one orbit.
"""

from __future__ import annotations

import sys

from pfd_hashes import sweep

MODULES = [("C3", "0,1,0"), ("A3", "1,0,1"), ("B2", "1,1"), ("A2", "2,1"), ("G2", "0,1"),
           ("B4", "0,0,0,1")]
DEGREES = range(4)

# The last line for the recorded orbits outputs of MODULES at DEGREES.
EXPECTED = "fdf3a808b7bb3829110969eb14276aac9fb737356b176092785ac61263381256"


def main() -> int:
    return sweep("orbits", [(("--algebra", algebra, "--lambda", weight, "--N", str(n)),
                             (algebra, weight, n)) for algebra, weight in MODULES for n in DEGREES],
                 EXPECTED)


if __name__ == "__main__":
    sys.exit(main())
