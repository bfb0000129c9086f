"""Typed errors shared across the package.

The CLI maps these onto exit codes: InputError -> 2, AccuracyError -> 3,
GeometryError -> 4. Messages name the violated check so failures are
actionable from scripts. The readers at the end refuse with an InputError
the arguments float() and int() would coerce or truncate.
"""

import math


class K3ZetaError(Exception):
    """Base class for all typed errors raised by this package."""


class InputError(K3ZetaError):
    """Malformed or inconsistent input (wrong shape, bad JSON, bad flags)."""


class DegenerateLatticeError(InputError):
    """A Gram matrix that was required to be nondegenerate is singular."""


class GeometryError(K3ZetaError):
    """A geometric precondition failed (compatibility, signature, isotropy)."""


class MarkingError(GeometryError):
    """A marking isometry does not relate the data it was asked to relate."""


class ConsistencyError(GeometryError):
    """Two declarations that must agree do not (for example curve data
    supplied for a spectrum whose twisted tail claims a free involution)."""


class AccuracyError(K3ZetaError):
    """The requested tolerance is not reachable with the supplied data.

    Carries the achievable bound so callers can decide whether to retry
    with a larger cutoff or accept the weaker result.
    """

    def __init__(self, message, achievable=None):
        super().__init__(message)
        self.achievable = achievable


def _finite(x, what: str) -> float:
    """A finite float from a number: booleans, strings and values past
    float range are refused."""
    try:
        v = math.nan if isinstance(x, (bool, str)) else float(x)
    except (TypeError, ValueError, OverflowError):
        v = math.nan
    if not math.isfinite(v):
        raise InputError("%s must be a finite number, not %r" % (what, x))
    return v


def _count(x, what: str) -> int:
    """A nonnegative integer that float() can hold, from an int or an
    integral float."""
    try:
        n = int(x)
        float(n)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != x or n < 0 or isinstance(x, bool):
        raise InputError(
            "%s must be a nonnegative integer in float range, not %r" % (what, x)
        )
    return n


def _positive(x, what: str) -> float:
    """A positive finite float from a number, refused as _finite refuses."""
    try:
        v = _finite(x, what)
    except InputError:
        v = math.nan
    if not v > 0.0:
        raise InputError("%s must be positive and finite, got %r" % (what, x))
    return v
