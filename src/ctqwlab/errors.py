"""Exception taxonomy and shared solver limits.

Exit-code mapping for the command line lives in :mod:`ctqwlab.cli`; the
library itself only raises these types.
"""
from __future__ import annotations

# Largest matrix order the dense eigensolver path accepts by default.
# Overridable per call and, for the CLI, via the CTQW_DENSE_GUARD
# environment variable.
DEFAULT_DENSE_GUARD = 6000
DENSE_GUARD_ENV = "CTQW_DENSE_GUARD"


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


def check_dense_guard(n: int, guard: int | None, what: str) -> None:
    """Raise :class:`DenseGuardError` if ``n`` exceeds ``guard``.

    ``guard=None`` disables the check (used by matrix-free code paths).
    """
    if guard is not None and n > guard:
        raise DenseGuardError(
            f"{what}: problem size {n} exceeds dense guard {guard}; "
            f"raise the guard explicitly to proceed"
        )
