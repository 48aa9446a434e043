import gc

import pytest

from symchar import build_root_system, pfdcore, rootsys, univariate, weight_system, weightsys


@pytest.fixture(autouse=True)
def cold_memos(monkeypatch):
    # Every test starts with empty pipeline memos, so no test is served
    # another test's results and the order of tests cannot hide a fault.
    monkeypatch.setattr(rootsys, "_ROOT_SYSTEMS", {})
    monkeypatch.setattr(weightsys, "_TABLES", {})
    monkeypatch.setattr(pfdcore, "_POLE_DATA", {})
    monkeypatch.setattr(univariate, "_CYCLOTOMICS", {})


@pytest.fixture(autouse=True, scope="module")
def own_gc_callbacks():
    # Hypothesis adds a Python callback to gc.callbacks and never takes it
    # off.  Left in place, it runs on every collection in the later tests,
    # and an exception that a signal handler raises while it runs is only
    # reported as unraisable, not propagated: the perfbench tests that stop
    # a slow call with SIGALRM then never stop it.  Each module leaves the
    # callbacks as it found them.
    before = list(gc.callbacks)
    yield
    gc.callbacks[:] = before


@pytest.fixture(scope="session")
def a1():
    return build_root_system("A", 1)


@pytest.fixture(scope="session")
def a2():
    return build_root_system("A", 2)


@pytest.fixture(scope="session")
def b2():
    return build_root_system("B", 2)


@pytest.fixture(scope="session")
def sl2_adjoint(a1):
    return weight_system(a1, (2,))


@pytest.fixture(scope="session")
def sl3_adjoint(a2):
    return weight_system(a2, (1, 1))
