"""The four workloads: their inputs, expected answers and requests.

Every expected answer is computed in set-up, before timing starts, by a
route that does not use the pipeline under test (weight_system ->
pfd_decompose -> character_at / orbit_split):

* char / mult: the truncated Molien product, whose coefficient sum must be
  C(dim-1+N, N) with dim from the Weyl dimension formula;
* pfd: the Molien coefficients for N = 0, 1, 2 evaluated exactly at a
  seeded rational point, against sum A(nu,k) C(N+k-1,N) q^(N nu) there;
* orbits: the Molien coefficient at the same point, against the sum of the
  orbit summands there;
* CLI: exit code 0 and JSON that matches the same expectations.

The point's coordinates are ratios of distinct primes, so no monomial
q^alpha with alpha != 0 equals 1 there and no denominator factor vanishes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from harness import Request

# Times below are those of the code the benchmark was written against, on a
# shared 2-core Intel Xeon machine; every limit sits far from its case's time.

# char_ladder rungs (ROADMAP item 1): algebra, highest weight, N, limit in s.
# Times 0.03, 0.5, 0.1, 1.8, 5.1 and 21 s.
LADDER = (
    ("A1", (6,), 20, 2.0),
    ("A2", (1, 1), 12, 5.0),
    ("G2", (1, 0), 6, 2.0),
    ("B3", (1, 0, 0), 8, 10.0),
    ("A2", (2, 1), 4, 20.0),
    ("A2", (2, 1), 10, 60.0),
)
# Rungs that run far past any practical limit (over 40 s); they
# are attempted every run and recorded with their status, outside the timed
# pass, so that a change which makes them finish shows in the rows.
LADDER_OVER_LIMIT = (
    ("A3", (1, 0, 1), 3, 3.0),
    ("A3", (1, 0, 1), 6, 3.0),
)

# pole_data modules (weights of multiplicity >= 2) with limits; times
# 0.14, 0.19, 0.02, 0.03, 0.03, 0.44, 1.3, 4.2 and 5.6 s.
POLE_MODULES = (
    ("A2", (2, 1), 2.0),
    ("B2", (1, 1), 2.0),
    ("B2", (2, 0), 2.0),
    ("G2", (0, 1), 2.0),
    ("C3", (0, 1, 0), 2.0),
    ("A3", (1, 0, 1), 3.0),
    ("F4", (0, 0, 0, 1), 8.0),
    ("A2", (2, 2), 20.0),
    ("B3", (0, 1, 0), 25.0),
)
POLE_OVER_LIMIT = (("D4", (0, 1, 0, 0), 3.0),)  # over 60 s

# query_stream: small modules, N <= 6, repeated heavily.  Every module gets
# the same number of requests in the same 60/25/15 mult/char/orbits split
# and every N equally often, so seeds differ in pairing and order but not
# in the amount of work; that keeps wall_s comparable across seeds.
QUERY_MODULES = (
    ("A1", (2,)), ("A1", (3,)), ("A1", (4,)), ("A1", (5,)), ("A1", (6,)),
    ("A2", (1, 0)), ("A2", (1, 1)), ("B2", (1, 0)), ("B2", (0, 1)), ("G2", (1, 0)),
)
QUERY_KINDS = ("mult",) * 12 + ("char",) * 5 + ("orbits",) * 3
QUERY_MAX_N = 6
QUERY_LIMIT_S = 5.0  # the slowest request takes about 0.12 s

# cli_requests: one block of 20 subprocess requests covers all seven
# subcommands; runs are whole blocks and at least 100 requests.
CLI_MODULES = (
    ("A1", (2,)), ("A1", (3,)), ("A1", (4,)), ("A2", (1, 0)),
    ("A2", (1, 1)), ("B2", (0, 1)), ("B2", (1, 0)), ("G2", (1, 0)),
)
CLI_BLOCK = (("weights",) * 3 + ("pfd",) * 3 + ("char",) * 4 + ("mult",) * 4
             + ("orbits",) * 3 + ("vpart",) * 2 + ("verify",))
CLI_MAX_N = 4
CLI_VPART = ((("A1", (2,)), 3), (("A1", (3,)), 3), (("A2", (1, 0)), 3), (("B2", (0, 1)), 2))
CLI_VERIFY = (("A1", 4), ("A2", 2), ("B2", 2))
CLI_LIMIT_S = 10.0  # the slowest request takes about 0.5 s

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class SetupError(RuntimeError):
    """The inputs or the oracle answers of a workload are inconsistent."""


@dataclass
class Plan:
    """Everything one workload run needs: the timed requests and what else to report."""

    requests: list[Request]
    over_limit: list[Request] = field(default_factory=list)
    rows: dict[str, dict] = field(default_factory=dict)  # informational, keyed by request
    import_s: list[float] = field(default_factory=list)  # CLI import times (traced pass)
    tracer: object = None  # set for the traced pass
    in_children: bool = False  # the requests run in child processes


def _name(label, highest, n=None) -> str:
    text = "%s(%s)" % (label, ",".join(str(c) for c in highest))
    return text if n is None else "%s N=%d" % (text, n)


def rational_point(rng: random.Random, rank: int) -> tuple[Fraction, ...]:
    primes = rng.sample(_PRIMES, 2 * rank)
    return tuple(Fraction(primes[2 * i], primes[2 * i + 1]) for i in range(rank))


def _monomial_at(point, exponent) -> Fraction:
    value = Fraction(1)
    for base, e in zip(point, exponent):
        value *= base ** e
    return value


class Module:
    """One irreducible module with its oracle series, built in set-up."""

    def __init__(self, sc, label, highest, n_max):
        self.rs = sc.from_label(label)
        self.table = sc.weight_system(self.rs, highest)
        dim = sc.dim_irrep(self.rs, highest)
        if self.table.dimension() != dim:
            raise SetupError("%s: weight table has dimension %d, Weyl formula %d"
                             % (_name(label, highest), self.table.dimension(), dim))
        self.label, self.highest, self.dim = self.rs.label, tuple(highest), dim
        start = time.perf_counter()
        self.series = sc.truncated_molien(self.table, n_max)
        self.molien_s = time.perf_counter() - start
        for n in range(n_max + 1):
            if self.series.coefficient(n).coefficient_sum() != comb(dim - 1 + n, n):
                raise SetupError("%s: Molien coefficient sum at N=%d" % (_name(label, highest), n))

    def character(self, n):
        return self.series.coefficient(n)

    def series_at(self, point, degrees=(0, 1, 2)) -> list[Fraction]:
        return [self.character(n).evaluate(point) for n in degrees]


def pole_series_at(terms, point, degrees=(0, 1, 2)) -> list[Fraction]:
    """sum over (nu, k, A) of A(point) C(N+k-1, N) point^(N nu), for each N."""
    totals = [Fraction(0)] * len(degrees)
    for weight, order, coeff in terms:
        value = coeff.evaluate(point)
        base = _monomial_at(point, weight)
        for i, n in enumerate(degrees):
            totals[i] += value * comb(n + order - 1, n) * base ** n
    return totals


# -- checks --------------------------------------------------------------------


def _check_character(module: Module, n: int):
    expected, total = module.character(n), comb(module.dim - 1 + n, n)

    def check(character):
        if character.terms != expected:
            return "character differs from the truncated Molien product"
        if character.coefficient_sum() != total:
            return "coefficient sum differs from C(dim-1+N, N) = %d" % total
        return None

    return check


def _check_mult(module: Module, n: int, mu):
    expected = module.character(n).coefficient(mu)

    def check(value):
        return None if value == expected else "multiplicity %s, oracle %s" % (value, expected)

    return check


def _check_pole_data(module: Module, point):
    expected = module.series_at(point)

    def check(closed):
        got = pole_series_at(((t.weight, t.order, t.coeff) for t in closed.terms), point)
        return None if got == expected else "pole data disagrees with the Molien series at the seeded point"

    return check


def _check_orbits(module: Module, n: int, point):
    expected = module.character(n).evaluate(point)

    def check(summands):
        got = sum((s.value.evaluate(point) for s in summands), Fraction(0))
        return None if got == expected else "orbit summands do not add up to the character"

    return check


# -- in-process requests -----------------------------------------------------------


def _char_request(sc, module, n, limit_s, kind="char", mu=None, point=None):
    label, highest = module.label, module.highest

    def pipeline():
        rs = sc.from_label(label)
        return rs, sc.pfd_decompose(sc.weight_system(rs, highest))

    if kind == "char":
        def call():
            return sc.character_at(pipeline()[1], n)
        check = _check_character(module, n)
    elif kind == "mult":
        def call():
            return sc.multiplicity_at(sc.character_at(pipeline()[1], n), mu)
        check = _check_mult(module, n, mu)
    else:
        def call():
            rs, closed = pipeline()
            return sc.orbit_split(closed, rs, n)
        check = _check_orbits(module, n, point)
    name = "%s %s" % (kind, _name(label, highest, n))
    return Request(name, call, check, limit_s)


def _pfd_request(sc, module, point, limit_s):
    label, highest = module.label, module.highest

    def call():
        return sc.pfd_decompose(sc.weight_system(sc.from_label(label), highest))

    return Request("pfd " + _name(label, highest), call, _check_pole_data(module, point), limit_s)


def setup_char_ladder(sc, rng, seconds, src):
    plan = Plan(requests=[])
    for rungs, target in ((LADDER, plan.requests), (LADDER_OVER_LIMIT, plan.over_limit)):
        for label, highest, n, limit_s in rungs:
            module = Module(sc, label, highest, n)
            # The second oracle, timed on the same input for the per-rung rows.
            start = time.perf_counter()
            adams = sc.adams_symmetric(module.table.character_poly(), n)
            adams_s = time.perf_counter() - start
            if adams != module.character(n):
                raise SetupError("%s: Molien and Adams oracles disagree" % _name(label, highest, n))
            request = _char_request(sc, module, n, limit_s)
            plan.rows[request.name] = {"molien_s": module.molien_s, "adams_s": adams_s}
            target.append(request)
    return plan


def setup_pole_data(sc, rng, seconds, src):
    plan = Plan(requests=[])
    for modules, target in ((POLE_MODULES, plan.requests), (POLE_OVER_LIMIT, plan.over_limit)):
        for label, highest, limit_s in modules:
            module = Module(sc, label, highest, 2)
            point = rational_point(rng, module.rs.rank)
            target.append(_pfd_request(sc, module, point, limit_s))
    return plan


def setup_query_stream(sc, rng, seconds, src):
    rounds = max(1, round(seconds / 3))
    modules = [Module(sc, label, highest, QUERY_MAX_N) for label, highest in QUERY_MODULES]
    requests = []
    for module in modules:
        kinds = list(QUERY_KINDS * rounds)
        degrees = [1 + i % QUERY_MAX_N for i in range(len(kinds))]
        rng.shuffle(degrees)
        point = rational_point(rng, module.rs.rank)
        for kind, n in zip(kinds, degrees):
            mu = rng.choice(module.character(n).support()) if kind == "mult" else None
            requests.append(_char_request(sc, module, n, QUERY_LIMIT_S, kind, mu, point))
    rng.shuffle(requests)
    return Plan(requests=requests)


# -- CLI requests ------------------------------------------------------------------


def _import_us(stderr: str) -> int:
    """The package's cumulative import time from ``-X importtime`` output."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "symchar":
            return int(parts[1])
    raise ValueError("no import time reported for symchar")


def _judge_cli(sc, kind, module, n, mu=None, point=None, label=None):
    """Return a function that checks one parsed CLI payload, or None when it matches."""
    head = {"algebra": module.label, "highest_weight": list(module.highest)} if module else {}
    if n is not None and kind != "vpart":
        head["N"] = n

    def fields(payload):
        return None if all(payload.get(k) == v for k, v in head.items()) else "header fields differ"

    if kind == "weights":
        expected = dict(head, dim=module.dim, weights=module.table.to_json())
        return lambda payload: None if payload == expected else "weights differ"
    if kind == "char":
        expected = dict(head, character=[{"weight": list(w), "mult": int(c)}
                                         for w, c in sorted(module.character(n).terms.items())])
        return lambda payload: None if payload == expected else "character differs from the Molien product"
    if kind == "mult":
        expected = dict(head, mu=list(mu), multiplicity=int(module.character(n).coefficient(mu)))
        return lambda payload: None if payload == expected else "multiplicity differs from the Molien product"
    if kind == "pfd":
        expected = module.series_at(point)

        def pfd(payload):
            terms = ((tuple(t["weight"]), t["order"], _rational(sc, t["A"])) for t in payload["terms"])
            if pole_series_at(terms, point) != expected:
                return "pole data disagrees with the Molien series at the seeded point"
            return fields(payload)
        return pfd
    if kind == "orbits":
        expected = module.character(n).evaluate(point)

        def orbits(payload):
            got = sum((_rational(sc, s["value"]).evaluate(point) for s in payload["summands"]), Fraction(0))
            return fields(payload) if got == expected else "orbit summands do not add up to the character"
        return orbits
    if kind == "vpart":
        expected = sorted((m, list(w), int(c)) for m in range(n + 1)
                          for w, c in module.character(m).terms.items())

        def vpart(payload):
            got = sorted((case["N"], case["mu"], case["count"]) for case in payload["equivalence"])
            if payload["all_pass"] is not True or got != expected:
                return "partition counts differ from the Molien product"
            return fields(payload)
        return vpart

    def verify(rows):
        if not rows or any(row["status"] != "pass" for row in rows):
            return "verify reported a failing check"
        if any(not row["case"].startswith(label + " ") for row in rows):
            return "verify ran a case it was not asked for"
        if {row["N"] for row in rows if row["N"] is not None} != set(range(n + 1)):
            return "verify did not cover N = 0..%d" % n
        return None
    return verify


def _rational(sc, data):
    """A FactoredRational from its CLI JSON form."""
    rank = len(data["num"][0]["exp"]) if data["num"] else len(data["den"][0]["alpha"])
    numerator = sc.LaurentPoly(rank, {tuple(m["exp"]): Fraction(m["coef"]) for m in data["num"]})
    return sc.FactoredRational(numerator, [(tuple(f["alpha"]), f["power"]) for f in data["den"]])


def _cli_request(plan, src, argv, judge):
    env = dict(os.environ, PYTHONPATH=src)
    name = " ".join(argv)

    def call():
        flags = ["-X", "importtime"] if plan.tracer is not None else []
        done = subprocess.run([sys.executable, *flags, "-m", "symchar", *argv],
                              env=env, capture_output=True, text=True)
        if plan.tracer is not None and done.returncode == 0:
            plan.import_s.append(_import_us(done.stderr) / 1e6)
        return done.returncode, done.stdout

    def check(answer):
        code, out = answer
        if code != 0:
            return "exit code %d" % code
        reason = judge(json.loads(out))
        if reason is not None or plan.tracer is None:
            return reason
        # The traced pass also runs the same argv in-process, recording spans.
        buffer = io.StringIO()
        with plan.tracer.recording(), contextlib.redirect_stdout(buffer):
            code = importlib.import_module("symchar.cli").main(list(argv))
        if code != 0 or buffer.getvalue() != out:
            return "in-process cli.main output differs from the subprocess"
        return None

    return Request(name, call, check, CLI_LIMIT_S)


def setup_cli_requests(sc, rng, seconds, src):
    blocks = max(5, round(seconds / 2))
    plan = Plan(requests=[], in_children=True)
    modules = {}

    def module(label, highest):
        if (label, highest) not in modules:
            modules[label, highest] = Module(sc, label, highest, CLI_MAX_N)
        return modules[label, highest]

    kinds = list(CLI_BLOCK * blocks)
    rng.shuffle(kinds)
    for kind in kinds:
        n = mu = point = target = None
        if kind == "verify":
            label, n = rng.choice(CLI_VERIFY)
            argv = ["verify", "--case", label, "--max-n", str(n)]
        else:
            if kind == "vpart":
                (label, highest), n = rng.choice(CLI_VPART)
            else:
                label, highest = rng.choice(CLI_MODULES)
            target = module(label, highest)
            argv = [kind, "--algebra", label, "--lambda", ",".join(map(str, highest))]
            if kind == "vpart":
                argv += ["--max-n", str(n)]
            elif kind in ("char", "mult", "orbits"):
                n = rng.randint(1, CLI_MAX_N if kind != "orbits" else 3)
                argv += ["--N", str(n)]
            if kind == "mult":
                mu = rng.choice(target.character(n).support())
                argv.append("--mu=" + ",".join(map(str, mu)))
            if kind in ("pfd", "orbits"):
                point = rational_point(rng, target.rs.rank)
        judge = _judge_cli(sc, kind, target, n, mu, point, label)
        plan.requests.append(_cli_request(plan, src, argv, judge))
    return plan


SETUP = {
    "char_ladder": setup_char_ladder,
    "pole_data": setup_pole_data,
    "query_stream": setup_query_stream,
    "cli_requests": setup_cli_requests,
}
