import sys
from pathlib import Path

import pytest

# make the sibling helpers module importable regardless of invocation dir
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def no_scipy_quad(monkeypatch):
    """Make every call of scipy's quad fail, however the package reaches it."""
    import regionmedian.kernels

    def refuse(*args, **kwargs):
        raise AssertionError("scipy quad called on the solve path")

    monkeypatch.setattr("scipy.integrate.quad", refuse)
    monkeypatch.setattr(regionmedian.kernels, "quad", refuse, raising=False)
