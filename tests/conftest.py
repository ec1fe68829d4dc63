import sys

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
    """count_calls(module, *names) wraps each named function of `module` wherever an mpnls
    module binds it, and returns the dict that counts its calls by name, each from 0."""
    def count(home, *names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(home, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for modname, mod in list(sys.modules.items()):
                if modname.split(".")[0] == "mpnls" and vars(mod).get(name) is original:
                    monkeypatch.setattr(mod, name, counted)
        return calls

    return count
