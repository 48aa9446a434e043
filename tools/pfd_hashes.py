"""Byte-identity hashes of ``symchar pfd`` on a fixed list of 33 modules.

Runs ``pfd --algebra X --lambda W`` in process through ``cli.main`` for
each module below and prints, for each one,

    <sha256 of stdout> <seconds> <algebra> <highest weight>

where <seconds> is the wall time of that in-process request (module
tables, pole data and JSON output together), and then one last line, the
sha256 of all the stdouts concatenated in list order.  Two source trees
give the same ``pfd`` JSON on every module exactly when their last lines
are equal.  The tool compares its last line with ``EXPECTED``, the hash of
the recorded outputs, and exits 1, printing both hashes to stderr, when
they differ:

    PYTHONPATH=src python tools/pfd_hashes.py

``sweep`` is the loop; ``tools/orbit_hashes.py`` runs it too.  The list
holds the transport-heavy modules that ``tests/test_cli_digest.py``
leaves out.  C3(1,0,1) alone takes minutes, so the sweep is a tool and not
a test.
"""

from __future__ import annotations

import hashlib
import sys
import time

from cli_digest import run

MODULES = [
    *(("A2", w) for w in ("1,0", "1,1", "2,1", "2,2", "3,1", "3,3", "4,0")),
    *(("B2", w) for w in ("1,0", "1,1", "2,0", "2,1", "0,3", "1,3")),
    *(("G2", w) for w in ("0,1", "2,0", "1,1", "0,2")),
    *(("A3", w) for w in ("1,0,0", "1,1,0", "1,0,1", "2,0,1")),
    ("B3", "0,1,0"), ("B3", "1,0,1"),
    *(("C3", w) for w in ("1,0,0", "0,1,0", "1,0,1")),
    ("D4", "0,1,0,0"), ("F4", "0,0,0,1"),
    # Long descents to the dominant weight: spinors, minuscule E6 and E7, A4(1,0,0,1).
    ("B5", "0,0,0,0,1"), ("D5", "0,0,0,0,1"), ("E6", "1,0,0,0,0,0"),
    ("E7", "0,0,0,0,0,0,1"), ("A4", "1,0,0,1"),
]

# The last line for the recorded pfd outputs of MODULES.
EXPECTED = "c1a4136748037cd0a2365d217487db1547b4824a60647dab4aac1547e50e969b"


def sweep(command: str, requests, expected: str) -> int:
    """Run ``command`` on each (args, fields) request in turn and check the running sha256.

    Prints one line per request, the sha256 of its stdout, its seconds and
    then fields, and last the sha256 of all the stdouts in order.  Returns
    the exit code of the first failing request, printing its stderr, or 1,
    printing both hashes to stderr, when the last line is not expected.
    """
    total = hashlib.sha256()
    for args, fields in requests:
        start = time.perf_counter()
        code, out, err = run((command, *args))
        seconds = time.perf_counter() - start
        if code:
            print("exit %d on %s %s: %s" % (code, command, " ".join(args), err.strip()),
                  file=sys.stderr)
            return code
        total.update(out.encode())
        print(hashlib.sha256(out.encode()).hexdigest(), "%.3f" % seconds, *fields, flush=True)
    print(total.hexdigest())
    if total.hexdigest() != expected:
        print("%s outputs changed: sha256 %s, expected %s" % (command, total.hexdigest(), expected),
              file=sys.stderr)
        return 1
    return 0


def main() -> int:
    return sweep("pfd", [(("--algebra", algebra, "--lambda", weight), (algebra, weight))
                         for algebra, weight in MODULES], EXPECTED)


if __name__ == "__main__":
    sys.exit(main())
