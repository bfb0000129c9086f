"""Typed errors shared across the package.

The CLI maps these onto exit codes: InputError -> 2, AccuracyError -> 3,
GeometryError -> 4. Messages name the violated check so failures are
actionable from scripts. The readers at the end refuse with an InputError
the arguments float() and int() would coerce or truncate, and counts a
float64 would round.

_within is the one float acceptance rule of the package: a deviation is
accepted when it is at most max(tol, 1e-9 * scale), an absolute tolerance
or a relative one against the size of the data, whichever is larger. A
NaN deviation is never accepted. The frame, period and continuation
checks all decide through it, so a change of tolerance is made there.
"""

import math

import numpy as np


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
    """A finite float from a number: booleans (numpy's too), strings and
    values past float range are refused."""
    try:
        v = math.nan if isinstance(x, (bool, np.bool_, str)) else float(x)
    except (TypeError, ValueError, OverflowError):
        v = math.nan
    if not math.isfinite(v):
        raise InputError("%s must be a finite number, not %r" % (what, x))
    return v


def _count(x, what: str) -> int:
    """A nonnegative integer of at most 2**53 (2**53 + 1 is the first that
    float64 rounds), from an int or an integral float; booleans (numpy's
    too) are refused."""
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != x or not 0 <= n <= 2**53 or isinstance(x, (bool, np.bool_)):
        raise InputError(
            "%s must be a nonnegative integer of at most 2**53, not %r" % (what, x)
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


def _within(deviation: float, tol: float, scale: float = 0.0) -> bool:
    """True iff deviation <= max(tol, 1e-9 * scale); a NaN deviation fails."""
    return deviation <= max(tol, 1e-9 * scale)
