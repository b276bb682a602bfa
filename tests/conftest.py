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


@pytest.fixture
def decompositions(monkeypatch):
    """Record the dense guard of every Laplacian decomposition, through
    whichever ctqwlab module's binding of it the call is made."""
    from ctqwlab import spectra

    real = spectra.laplacian_decomposition
    seen = []

    def spy(graph, **kwargs):
        seen.append(kwargs.get("dense_guard"))
        return real(graph, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("ctqwlab") and \
                getattr(module, "laplacian_decomposition", None) is real:
            monkeypatch.setattr(module, "laplacian_decomposition", spy)
    return seen
