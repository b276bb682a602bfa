"""Shared test configuration."""

import sys

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ctqwlab",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ctqwlab")


def _replace_decomposition(monkeypatch, stand_in):
    """Put ``stand_in`` in place of every ctqwlab module's binding of
    ``laplacian_decomposition``."""
    from ctqwlab import spectra

    real = spectra.laplacian_decomposition
    for name, module in list(sys.modules.items()):
        if name.startswith("ctqwlab") and \
                getattr(module, "laplacian_decomposition", None) is real:
            monkeypatch.setattr(module, "laplacian_decomposition", stand_in)


@pytest.fixture
def decompositions(monkeypatch):
    """Record the dense guard in force at every Laplacian decomposition,
    through whichever ctqwlab module's binding of it the call is made."""
    from ctqwlab import errors, spectra

    real = spectra.laplacian_decomposition
    seen = []

    def spy(graph):
        seen.append(errors._LIMIT.get())
        return real(graph)

    _replace_decomposition(monkeypatch, spy)
    return seen


@pytest.fixture
def no_decompositions(monkeypatch):
    """Make every Laplacian decomposition raise, whichever ctqwlab module's
    binding of it is called."""
    def refuse(*args, **kwargs):
        raise AssertionError("a full Laplacian eigendecomposition ran")

    _replace_decomposition(monkeypatch, refuse)
