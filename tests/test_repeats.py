"""``tools/repeats.py``: the share of each workload that a (module, N) memo can serve."""

import importlib.util
import random
from pathlib import Path

import symchar

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("repeats", ROOT / "tools" / "repeats.py")
repeats = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(repeats)


def _counts(workload, seed=1):
    plan = repeats.SETUP[workload](symchar, random.Random(seed), 10.0, str(ROOT / "src"))
    return repeats.repeat_counts(plan)


def test_query_stream_repeats_orbit_requests():
    counts = _counts("query_stream")
    assert set(counts) == {"char", "mult", "orbits"}
    # 15 % of 600 requests, spread over ten modules and six degrees.
    requests, repeated = counts["orbits"]
    assert requests == 90 and 30 <= repeated < 90


def test_requests_in_new_processes_never_repeat():
    counts = _counts("cli_requests")
    assert sum(count for count, _ in counts.values()) == 100
    assert all(repeated == 0 for _, repeated in counts.values())
