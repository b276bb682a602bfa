"""Exception taxonomy and shared solver limits.

Exit-code mapping for the command line lives in :mod:`ctqwlab.cli`; the
library itself only raises these types.
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

# Largest matrix order the dense eigensolver path accepts by default.
# Scoped by :func:`dense_guard` and, for the CLI, set by --dense-guard or
# the CTQW_DENSE_GUARD environment variable.
DEFAULT_DENSE_GUARD = 6000
DENSE_GUARD_ENV = "CTQW_DENSE_GUARD"
# The limit in force, None when disabled; read by check_dense_guard only.
_LIMIT: ContextVar[int | None] = ContextVar("dense_guard",
                                           default=DEFAULT_DENSE_GUARD)


class CtqwError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CtqwError):
    """Invalid user input: malformed spec, bad parameter, unusable file."""


class DenseGuardError(CtqwError):
    """A dense O(N^2)/O(N^3) operation was refused above the size guard."""


class NumericalError(CtqwError):
    """A numerical procedure failed to meet its accuracy contract."""


class NoTransitionError(NumericalError):
    """No overlap crossing was found inside the allowed coupling range."""


@contextmanager
def dense_guard(limit: int | None) -> Iterator[None]:
    """Put ``limit`` in force as the dense guard inside the ``with`` block,
    None disabling it; the previous limit returns when the block ends,
    however it ends."""
    token = _LIMIT.set(limit)
    try:
        yield
    finally:
        _LIMIT.reset(token)


def check_dense_guard(n: int, what: str) -> None:
    """Raise :class:`DenseGuardError` if ``n`` exceeds the dense guard in
    force (:func:`dense_guard`)."""
    guard = _LIMIT.get()
    if guard is not None and n > guard:
        raise DenseGuardError(
            f"{what}: problem size {n} exceeds dense guard {guard}; "
            f"raise the guard explicitly to proceed"
        )
