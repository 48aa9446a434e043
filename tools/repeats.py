"""How often each benchmark workload repeats a request within one process.

Builds each workload's requests as ``perfbench/run.py`` does, for the same
seed and ``--seconds``, without running them, and prints one markdown row
per workload, seed and request kind: the number of requests, and how many
of them (and what share) repeat a (kind, module, N) that an earlier request
of the same process already asked for.  That share is all that a memo
keyed on (module, N) can serve.  ``cli_requests`` sends every request to a
new process, so its share is 0 whatever its requests are.

    PYTHONPATH=src python tools/repeats.py [--seeds 1 2 3] [--seconds 10] [--workload NAME]

Run it from the repository root.  It imports ``perfbench/workloads.py``
and changes nothing there.  Building the plans computes the workloads'
oracle answers, under a second for the default seeds.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

import symchar  # noqa: E402
from workloads import SETUP  # noqa: E402


def repeat_counts(plan) -> dict[str, tuple[int, int]]:
    """{kind: (requests, repeats)} of one plan, the kinds sorted.

    An in-process request is named "<kind> <module> N=<n>" (no N for pfd,
    no weight for mult), so two requests with one name ask for the same
    (kind, module, N).
    """
    seen: set[str] = set()
    requests: Counter = Counter()
    repeats: Counter = Counter()
    for request in plan.requests:
        kind = request.name.split()[0]
        requests[kind] += 1
        if not plan.in_children and request.name in seen:
            repeats[kind] += 1
        seen.add(request.name)
    return {kind: (requests[kind], repeats[kind]) for kind in sorted(requests)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 7, 11])
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="sizes the query_stream and cli_requests plans, as in run.py")
    parser.add_argument("--workload", choices=sorted(SETUP), action="append",
                        help="a workload to count (repeatable; default: all)")
    args = parser.parse_args(argv)

    src = os.path.dirname(os.path.dirname(os.path.abspath(symchar.__file__)))
    print("| workload | seed | kind | requests | repeats | share |")
    print("| --- | ---: | --- | ---: | ---: | ---: |")
    for workload in args.workload or SETUP:
        for seed in args.seeds:
            plan = SETUP[workload](symchar, random.Random(seed), args.seconds, src)
            counts = repeat_counts(plan)
            counts["all"] = tuple(map(sum, zip(*counts.values())))
            for kind, (count, repeated) in counts.items():
                print("| %s | %d | %s | %d | %d | %.2f |"
                      % (workload, seed, kind, count, repeated, repeated / count))
    return 0


if __name__ == "__main__":
    sys.exit(main())
