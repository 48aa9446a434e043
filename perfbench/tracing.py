"""Spans around the public calls of each symchar module, installed from outside.

The tracer replaces every public function of the symchar modules in every
namespace that imported it by name (``pfd_decompose`` is bound in
``pfdcore``, ``cli``, ``vpart`` and the package itself), and the public and
arithmetic methods of ``LaurentPoly`` and ``FactoredRational`` on the class.
Nothing under ``src/`` changes.  Spans are only recorded while a request is
being recorded; they stay in memory and are aggregated after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager

MODULES = ("rootsys", "weightsys", "polyring", "pfdcore", "charformula", "oracle", "vpart", "cli")

# Arithmetic dunders are traced under one name per operation.
_DUNDERS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__mul__": "mul", "__rmul__": "mul", "__neg__": "neg", "__pow__": "pow", "__eq__": "eq",
}
_CLASSES = {"LaurentPoly": "laurent", "FactoredRational": "rational"}

# Fields of one span record.
NAME, START, END, PARENT, REQUEST, STATUS, INFO = range(7)


def _sum_sizes(result):
    """Common-denominator degree and numerator monomial count of a summed rational."""
    return sum(result.factors.values()), len(result.numerator.terms)


# Sizes recorded from the return value of a few calls.
_INFO = {
    "pfdcore.pfd_decompose": lambda closed: len(closed.terms),
    "polyring.sum": _sum_sizes,
    "charformula.character_at": lambda character: len(character.terms.terms),
}


class Tracer:
    """Records one span per traced call: name, start, end, parent, request, status."""

    def __init__(self):
        self.spans: list[list] = []
        self.names: set[str] = set()
        self._stack: list[int] = []
        self._request = -1
        self._enabled = False
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """``fn`` recording a span called ``name`` whenever spans are being recorded."""
        info = _INFO.get(name)
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._enabled:
                return fn(*args, **kwargs)
            stack = self._stack
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                    self._request, "ok", None]
            index = len(self.spans)
            self.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                span[STATUS] = type(error).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                if stack and stack[-1] == index:
                    stack.pop()
            if info is not None:
                span[INFO] = info(result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions and the two arithmetic classes of ``package``."""
        prefix = package.__name__
        modules = [importlib.import_module("%s.%s" % (prefix, short)) for short in MODULES]
        wrappers = {}
        for short, module in zip(MODULES, modules):
            for attr in module.__all__:
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[obj] = self.wrap("%s.%s" % (short, attr), obj)
        for namespace in [package, *modules]:
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(namespace, attr, wrappers[value])

        polyring = modules[MODULES.index("polyring")]
        classes = {cls: getattr(polyring, cls) for cls in _CLASSES}
        public = [{a for a in vars(c) if not a.startswith("_")} for c in classes.values()]
        shared = set.intersection(*public)
        for cls_name, cls in classes.items():
            short = _CLASSES[cls_name]
            for attr, raw in list(vars(cls).items()):
                if attr in _DUNDERS:
                    name = "polyring.%s_%s" % (short, _DUNDERS[attr])
                elif attr.startswith("_"):
                    continue
                elif attr in shared:
                    name = "polyring.%s_%s" % (short, attr)
                else:
                    name = "polyring." + attr
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                elif inspect.isfunction(raw):
                    self._patch(cls, attr, self.wrap(name, raw))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def recording(self, request: int | None = None):
        """Record spans of the calls made inside the block, tagged with ``request``.

        Without ``request`` the spans belong to the most recent request.
        """
        first = len(self.spans)
        if request is not None:
            self._request = request
        self._enabled = True
        try:
            yield
        finally:
            self._enabled = False
            # A limit can interrupt a call before its span is closed.
            now = time.perf_counter()
            for span in self.spans[first:]:
                if not span[END]:
                    span[END] = now
            self._stack.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Calls are nested and single-threaded, so children never overlap and the
    time they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]


def layer_metrics(spans, names) -> dict[str, float]:
    """Self time, calls and inclusive time per traced name, plus size counters."""
    metrics: dict[str, float] = {}
    for name in names:
        metrics[name + ".s"] = 0.0
        metrics[name + ".calls"] = 0
        metrics[name + ".incl_s"] = 0.0
    for module in MODULES:
        metrics[module + ".s"] = 0.0
    div_failed, div_failed_s = 0, 0.0
    pole_terms = output_terms = den_degree_max = num_terms_max = 0

    # The benchmark's own spans (the speed probe) belong to no layer.
    bench_inside = [0.0] * len(spans)
    for span in spans:
        if span[NAME].startswith("bench."):
            parent = span[PARENT]
            while parent >= 0:
                bench_inside[parent] += span[END] - span[START]
                parent = spans[parent][PARENT]

    for i, (span, own) in enumerate(zip(spans, self_times(spans))):
        name = span[NAME]
        metrics[name + ".s"] += own
        metrics[name + ".calls"] += 1
        module = name.split(".")[0] + ".s"
        metrics[module] = metrics.get(module, 0.0) + own
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:  # outermost span of this name: count its whole duration once
            metrics[name + ".incl_s"] += span[END] - span[START] - bench_inside[i]
        if name == "polyring.exact_div" and span[STATUS] == "ExactDivisionError":
            div_failed += 1
            div_failed_s += own
        elif span[INFO] is not None:
            if name == "pfdcore.pfd_decompose":
                pole_terms += span[INFO]
            elif name == "charformula.character_at":
                output_terms += span[INFO]
            elif name == "polyring.sum":
                den_degree_max = max(den_degree_max, span[INFO][0])
                num_terms_max = max(num_terms_max, span[INFO][1])

    divisions = metrics.get("polyring.exact_div.calls", 0)
    metrics.update({
        "polyring.exact_div.failed": div_failed,
        "polyring.exact_div.failed_s": div_failed_s,
        "polyring.exact_div.hit_ratio": (divisions - div_failed) / divisions if divisions else 0.0,
        "pfdcore.pole_terms": pole_terms,
        "charformula.output_terms": output_terms,
        "polyring.sum.den_degree_max": den_degree_max,
        "polyring.sum.num_terms_max": num_terms_max,
        "trace.spans": len(spans),
    })
    return metrics
