import sys
import tracemalloc

import numpy as np
import pytest

from mpnls import build_grid, validate_symbol


@pytest.fixture
def sym1():
    """1D Laplacian symbol."""
    return validate_symbol([[1.0]])


@pytest.fixture
def sym2():
    """2D anisotropic symbol with eigenvalues 1 and 3."""
    return validate_symbol([[2.0, 1.0], [1.0, 2.0]])


@pytest.fixture
def grid1():
    return build_grid(1, 64, np.pi)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, *names, weight=None) wraps each named function of `module` wherever
    an mpnls module binds it, and returns the dict that counts its calls by name, each from 0;
    a call counts weight(*args, **kwargs) when a weight is given, and else 1."""
    def count(home, *names, weight=None):
        calls = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(home, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1 if weight is None else weight(*args, **kwargs)
                return _original(*args, **kwargs)

            for modname, mod in list(sys.modules.items()):
                if modname.split(".")[0] == "mpnls" and vars(mod).get(name) is original:
                    monkeypatch.setattr(mod, name, counted)
        return calls

    return count


@pytest.fixture
def traced_peak():
    """traced_peak(run) returns (run(), the peak traced memory of the call in bytes above what
    was traced when it began); tracemalloc runs for the call if it is not running already."""
    def peak(run):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = run()
            return out, tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()

    return peak
