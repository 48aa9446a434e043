"""Tests of the benchmark's own machinery.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import functools
import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import symchar  # noqa: E402
import symchar.cli  # noqa: E402
from harness import LIMIT, OK, WRONG, Request, percentile, run_request, summarize  # noqa: E402
from tracing import END, NAME, PARENT, START, STATUS, Tracer, layer_metrics, self_times  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import Module, _check_character  # noqa: E402


def test_p90_needs_ten_samples_beyond_it():
    assert percentile(range(99), 90) is None
    assert percentile(range(100), 90) == 89  # ranks 91..100 lie beyond it
    assert percentile(range(19), 50) is None
    assert percentile(range(20), 50) == 9
    assert percentile([], 50) is None


def test_probe_time_is_removed_and_the_rest_scaled_to_the_reference_speed():
    probe = SpeedProbe(reference_s=0.004)
    probe.starts, probe.durations = [0.0, 1.0, 2.0], [0.01, 0.01, 0.02]
    own, scaled = probe.normalize(0.5, 2.0)  # holds the samples at 1.0 and 2.0
    assert abs(own - 1.97) < 1e-12
    assert abs(scaled - 1.97 / 0.015 * 0.004) < 1e-12
    # A short request with no sample inside is scaled by the samples just before it.
    assert probe.normalize(2.1, 0.1) == (0.1, 0.1 / 0.02 * 0.004)


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, "ok", None]


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        _span("a.root", 0.0, 10.0, -1),
        _span("a.left", 1.0, 4.0, 0),
        _span("a.right", 5.0, 9.0, 0),
        _span("a.left", 6.0, 7.0, 2),  # same name nested under another span
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    metrics = layer_metrics(spans, {"a.root", "a.left", "a.right"})
    assert metrics["a.left.s"] == 4.0 and metrics["a.left.calls"] == 2
    assert metrics["a.root.incl_s"] == 10.0
    assert metrics["a.right.incl_s"] == 4.0


def test_inclusive_time_counts_recursive_spans_once_and_no_probe_time():
    spans = [_span("a.f", 0.0, 8.0, -1), _span("a.f", 2.0, 6.0, 0), _span("bench.probe", 3.0, 4.0, 1)]
    metrics = layer_metrics(spans, {"a.f", "bench.probe"})
    assert metrics["a.f.incl_s"] == 7.0
    assert metrics["a.f.s"] == 7.0


def test_a_request_past_its_limit_is_a_failed_request():
    def spin():
        while True:
            pass

    outcome = run_request(Request("spin", spin, lambda answer: None, 0.05))
    assert outcome.status == LIMIT
    assert 0.05 <= outcome.latency_s < 1.0
    summary = summarize([outcome])
    assert summary["failed"] == 1 and summary["failed_frac"] == 1.0
    assert summary["correct"]  # slow is not wrong


def test_a_wrong_answer_from_a_fake_request_counts_as_failed():
    module = Module(symchar, "A1", (2,), 3)
    check = _check_character(module, 3)

    def fake():
        right = symchar.character_at(symchar.pfd_decompose(module.table), 3)
        wrong = right.terms + symchar.LaurentPoly.monomial((0,))
        return symchar.CharacterPoly(rank=1, terms=wrong)

    good = run_request(Request("char", lambda: symchar.character_at(
        symchar.pfd_decompose(module.table), 3), check, 5.0))
    bad = run_request(Request("fake", fake, check, 5.0))
    assert good.status == OK
    assert bad.status == WRONG
    summary = summarize([good, bad])
    assert summary["failed"] == 1 and summary["failed_frac"] == 0.5
    assert not summary["correct"]


def test_tracer_wraps_every_namespace_and_restores_it():
    original = symchar.pfd_decompose
    tracer = Tracer()
    tracer.install(symchar)
    try:
        assert symchar.cli.pfd_decompose is symchar.pfd_decompose is not original
        table = symchar.weight_system(symchar.from_label("A1"), (2,))
        symchar.pfd_decompose(table)  # not recording: no spans
        assert tracer.spans == []
        with tracer.recording(7):
            closed = symchar.pfd_decompose(table)
            try:
                one_minus_q2 = symchar.LaurentPoly.one(1) - symchar.LaurentPoly.monomial((2,))
                symchar.LaurentPoly.monomial((1,)).exact_div(one_minus_q2)
            except symchar.ExactDivisionError:
                pass
    finally:
        tracer.uninstall()
    assert symchar.pfd_decompose is original and symchar.cli.pfd_decompose is original
    assert tracer.spans[0][NAME] == "pfdcore.pfd_decompose"
    assert all(span[END] >= span[START] for span in tracer.spans)
    assert any(span[PARENT] == 0 for span in tracer.spans)  # polyring calls nest under it
    metrics = layer_metrics(tracer.spans, tracer.names)
    assert metrics["pfdcore.pole_terms"] == len(closed.terms)
    assert metrics["polyring.exact_div.failed"] >= 1
    assert any(span[STATUS] == "ExactDivisionError" for span in tracer.spans)
    assert 0.0 <= metrics["polyring.exact_div.hit_ratio"] < 1.0


def test_recording_closes_spans_a_limit_interrupted():
    tracer = Tracer()
    tracer.install(symchar)
    try:
        table = symchar.weight_system(symchar.from_label("A3"), (1, 0, 1))
        request = Request("slow", lambda: symchar.truncated_molien(table, 40), lambda answer: None, 0.2)
        outcome = run_request(request, functools.partial(tracer.recording, 0))
    finally:
        tracer.uninstall()
    assert outcome.status == LIMIT
    assert tracer.spans and all(span[END] > 0 for span in tracer.spans)
    assert tracer.spans[0][STATUS] == "LimitExceeded"
