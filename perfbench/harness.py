"""Request loop, per-request limits and latency statistics.

The benchmark is a closed loop with one client: it sends the next request
only after the previous one has returned.  Each request is timed on its
own; its answer is checked after the clock has stopped, so the check's cost
never counts as the program's.  A request that runs past its limit is
stopped in the same process by an interval timer and recorded with status
``limit``; it is never dropped.
"""

from __future__ import annotations

import contextlib
import math
import signal
import time
from dataclasses import dataclass
from typing import Callable

# A request is judged by one of these statuses.  Only "ok" is a success.
OK, WRONG, ERROR, LIMIT = "ok", "wrong", "error", "limit"


class LimitExceeded(Exception):
    """Raised inside a request by the interval timer when its limit passes."""


@dataclass
class Request:
    """One call into the program plus an independent judgement of its answer.

    ``check`` returns None for a correct answer and a short reason otherwise.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    limit_s: float


@dataclass
class Outcome:
    name: str
    status: str
    latency_s: float
    detail: str = ""
    start: float = 0.0  # perf_counter() when the request was sent
    scaled_s: float | None = None  # latency in seconds at the speed probe's reference speed


def _on_alarm(signum, frame):
    raise LimitExceeded()


def call_with_limit(call: Callable[[], object], limit_s: float):
    """Run ``call`` with a wall-clock limit; return (status, answer, start, latency).

    A call that raises gives status ERROR with the exception as its answer.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            try:
                answer = call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except LimitExceeded:
            return LIMIT, None, start, time.perf_counter() - start
        except Exception as error:  # the program raised: record it and keep going
            return ERROR, error, start, time.perf_counter() - start
        return OK, answer, start, time.perf_counter() - start
    finally:
        signal.signal(signal.SIGALRM, previous)


def run_request(request: Request, recording=None) -> Outcome:
    """Time one request, then check its answer outside the timed region.

    ``recording`` makes a context manager that brackets the timed call; the
    tracer uses it to tag spans with the request.
    """
    with recording() if recording else contextlib.nullcontext():
        status, answer, start, latency = call_with_limit(request.call, request.limit_s)
    if status == LIMIT:
        return Outcome(request.name, LIMIT, latency, "stopped at %g s" % request.limit_s, start)
    if status == ERROR:
        return Outcome(request.name, ERROR, latency, "%s: %s" % (type(answer).__name__, answer), start)
    try:
        reason = request.check(answer)
    except Exception as error:  # an answer of the wrong shape is a wrong answer
        reason = "check raised %s: %s" % (type(error).__name__, error)
    if reason is not None:
        return Outcome(request.name, WRONG, latency, reason, start)
    return Outcome(request.name, OK, latency, "", start)


def percentile(samples, p: float):
    """Nearest-rank p-th percentile, or None with fewer than ten samples above it.

    So p90 needs 100 samples and p50 needs 20.
    """
    values = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(values)))
    if len(values) - rank < 10:
        return None
    return values[rank - 1]


def normalize_outcomes(outcomes: list[Outcome], probe) -> None:
    """Take the speed probe's own time out of each latency and add its scaled time."""
    for outcome in outcomes:
        outcome.latency_s, outcome.scaled_s = probe.normalize(outcome.start, outcome.latency_s)


def summarize(outcomes: list[Outcome]) -> dict:
    """End-to-end numbers of one pass: time, failures and latency percentiles.

    Times are at the reference speed where the speed probe ran, raw otherwise.
    """
    times = [o.latency_s if o.scaled_s is None else o.scaled_s for o in outcomes]
    failed = [o for o in outcomes if o.status != OK]
    return {
        "wall_s": sum(times),
        "wall_raw_s": sum(o.latency_s for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "failed_frac": len(failed) / len(outcomes) if outcomes else 0.0,
        "latency_p50_s": percentile(times, 50),
        "latency_p90_s": percentile(times, 90),
        "latency_samples": len(times),
        "correct": not any(o.status in (WRONG, ERROR) for o in outcomes),
    }
