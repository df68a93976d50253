"""Exception types shared across the package, and the finiteness, time and
node-count rules the parameter validators share."""

import math

import numpy as np


class DunklKitError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(DunklKitError):
    """Invalid configuration, parameters out of range, unknown keys."""


class NumericalError(DunklKitError):
    """Base class for runtime numerical failures."""


class QuadratureError(NumericalError):
    """A quadrature did not converge or its error estimate is unusable."""


class ResolutionError(NumericalError):
    """A grid or node budget cannot resolve the requested computation."""


class PositivityError(NumericalError):
    """A quantity that must be nonnegative came out negative beyond tolerance."""


class ConsistencyError(NumericalError):
    """Two independent evaluation routes disagree beyond tolerance."""


def _finite(value, what: str) -> float:
    """value as a float; ConfigError if it is not a number, NaN or infinite."""
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {value}")
    return value


def _floats(value, what: str) -> np.ndarray:
    """value as a float array; ConfigError if an entry is not a number."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be numbers, got {value!r}") from None


def _positive_time(t, what: str) -> float:
    """t as a float in (0, inf); ConfigError for anything else."""
    value = _finite(t, what)
    if not value > 0.0:
        raise ConfigError(f"{what} must be finite and positive, got {t}")
    return value


def _node_count(n, what: str = "node count", least: int = 1) -> int:
    """n as an int >= least; ConfigError for bools and fractional, non-finite
    or smaller counts."""
    try:
        count = int(n)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be an integer, got {n!r}") from None
    if count != n or isinstance(n, (bool, np.bool_)):
        raise ConfigError(f"{what} must be an integer, got {n!r}")
    if count < least:
        raise ConfigError(f"{what} must be at least {least}, got {n!r}")
    return count
