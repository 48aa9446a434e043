"""Exact characters of symmetric powers of irreducible representations.

The pipeline: build a root system, compute the weight multiplicities of an
irreducible module, decompose the graded symmetric-power character into
pole data (closed in the degree), then read off characters, weight
multiplicities, Weyl-orbit summands and vector-partition counts for any
concrete degree.  Independent oracles (truncated series expansion, a
Newton-style recursion, symmetric-function identities and a quadrature
check) validate every result.  All core arithmetic is exact over Q.

The package exports every name in the ``__all__`` of each pipeline module;
the command line (``symchar.cli``) stays out.  The eight modules load when the
first such name is looked up, so the command line loads only what it runs.
"""

__version__ = "0.1.0"

_MODULES = ("charformula", "oracle", "pfdcore", "polyring", "rootsys", "univariate", "vpart",
            "weightsys")


def __getattr__(name):
    # PEP 562: runs only for a name not yet in the package namespace.
    from importlib import import_module
    modules = [import_module("." + short, __name__) for short in _MODULES]
    exported = {attr: getattr(module, attr) for module in modules for attr in module.__all__}
    globals().update(exported, __all__=[*exported, "__version__"])
    if name not in globals():
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return globals()[name]
