"""Log-growth utility of a fixed-fraction staking strategy.

The utility U(F, p) = p log(1+F) + q log(1-F) is the expected per-trial
log growth of wealth when a fraction F is staked each trial. This module
houses its derivatives, the Kelly critical point F_K = 2p - 1, the
break-even root F* of U = 0, the small-stake series approximation of F*, and
the dominance of higher win probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bernoulli_core import _check_count, _check_fp, _check_p
from .errors import (
    DegenerateGameError,
    DomainError,
    NoEdgeError,
    ResourceGuardError,
    SeriesInvalidError,
)

# guard distance from the F = 1 singularity for bracketing and curves
DELTA = 1e-12

# |U| tolerance for the break-even root
ROOT_TOL = 1e-12

# most points of a utility curve. Each writes about 41 B of CSV and holds
# 64 B while the curve is built: F and U as Python floats, 24 B each, and
# a slot for each in its list. The CLI writes the rows one at a time, so
# `analyze` at this grid peaks at 65 MB traced (92 MiB RSS) for a 41 MB CSV.
MAX_GRID_POINTS = 10**6

NEG_INFINITY = float("-inf")


@dataclass(frozen=True)
class Derivatives:
    first: float
    second: float


@dataclass(frozen=True)
class SeriesApprox:
    """Small-stake series estimate of the break-even root: 2 F_K + epsilon."""

    approx: float
    epsilon: float


@dataclass(frozen=True)
class RegimePartition:
    """Critical stake fractions partitioning [0, 1] for a given game; a
    fraction whose hypothesis fails at p is nan, and `notes` says why."""

    f_kelly: float
    f_star: float
    f_star_approx: float
    epsilon: float
    notes: tuple[str, ...] = ()


def utility(F: float, p: float) -> float:
    """Expected per-trial log growth p log(1+F) + (1-p) log(1-F).

    F = 1 returns the -infinity sentinel (total loss on the first losing
    trial) unless the game is deterministic (p = 1), where the 0*log(0)
    convention leaves p log(2).
    """
    _check_fp(F, p)
    q = 1.0 - p
    if F == 1.0:
        return p * math.log(2.0) if q == 0.0 else NEG_INFINITY
    win = p * math.log1p(F) if p > 0.0 else 0.0
    loss = q * math.log1p(-F) if q > 0.0 else 0.0
    return win + loss


def utility_derivatives(F: float, p: float) -> Derivatives:
    """First and second F-derivatives of the utility; the second is < 0."""
    _check_fp(F, p)
    if F == 1.0:
        raise DomainError("derivatives are undefined at F = 1")
    q = 1.0 - p
    first = p / (1.0 + F) - q / (1.0 - F)
    second = -p / (1.0 + F) ** 2 - q / (1.0 - F) ** 2
    return Derivatives(first=first, second=second)


def kelly_fraction(p: float) -> float:
    """The utility-maximising stake p - q = 2p - 1; refuses losing games."""
    _check_p(p)
    if p < 0.5:
        raise NoEdgeError(
            f"p={p!r} gives no positive edge; the game is not played"
        )
    return p - (1.0 - p)


def f_star(p: float) -> float:
    """Break-even stake: the root of U(F, p) = 0 in (F_K, 1), by bisection.

    Bisection is guaranteed by the bracket U(F_K + delta) > 0 and
    U(1 - delta) < 0; Newton is avoided because U' blows up near F = 1.
    Where U(1 - delta) is still positive, the bracket reaches up to the
    largest float below 1. Near 1, U moves by more than ROOT_TOL from one
    float to the next, so the bisection may close on two adjacent floats;
    it then returns the one with the smaller |U|, the best root float64 has.
    """
    _check_p(p)
    if p <= 0.5:
        raise NoEdgeError(f"break-even root requires p > 1/2, got {p!r}")
    if p >= 1.0:
        raise DegenerateGameError(
            f"p={p!r}: utility is positive on all of [0, 1), no break-even root"
        )
    lo = kelly_fraction(p) + DELTA
    hi = 1.0 - DELTA
    if utility(hi, p) >= 0.0:
        hi = math.nextafter(1.0, 0.0)
        if utility(hi, p) >= 0.0:
            # 1 - F* is below float64's resolution at 1 (p extremely high)
            raise DegenerateGameError(
                f"p={p!r}: break-even root is not representable below 1"
            )
    # each turn halves [lo, hi], and lo > 2^-40, so they are adjacent floats
    # within about 93 turns
    while True:
        mid = 0.5 * (lo + hi)
        um = utility(mid, p)
        if abs(um) <= ROOT_TOL:
            return mid
        if mid in (lo, hi):  # lo and hi are adjacent floats
            return min(lo, hi, key=lambda f: abs(utility(f, p)))
        if um > 0.0:
            lo = mid
        else:
            hi = mid


def f_star_approx(p: float) -> SeriesApprox:
    """Series estimate 2 F_K + F_K^3 / (3/8 - F_K^2) of the break-even stake."""
    fk = kelly_fraction(p)
    if fk * fk >= 0.375:
        raise SeriesInvalidError(
            f"F_K={fk!r} outside the series validity region F_K^2 < 3/8"
        )
    epsilon = fk**3 / (0.375 - fk * fk)
    return SeriesApprox(approx=2.0 * fk + epsilon, epsilon=epsilon)


def utility_dominance(F: float, p: float, p_hat: float) -> float:
    """U(F, p) - U(F, p_hat) for p > p_hat > 1/2; strictly positive."""
    _check_p(p)
    if not (p > p_hat > 0.5):
        raise DomainError(
            f"dominance requires p > p_hat > 1/2, got p={p!r}, p_hat={p_hat!r}"
        )
    if not (0.0 < F < 1.0):
        raise DomainError(f"stake fraction {F!r} outside (0, 1)")
    return (p - p_hat) * math.log1p(F) + (p_hat - p) * math.log1p(-F)


def _unit_grid(points: int) -> list[float]:
    """`points` evenly spaced floats from 0 to 1: i * (1 / (points - 1)),
    the last set to 1.0, which is np.linspace(0, 1, points) bit for bit."""
    step = 1.0 / (points - 1)
    grid = [i * step for i in range(points)]
    grid[-1] = 1.0
    return grid


def utility_curve(p: float, grid_points: int) -> tuple[list[float], list[float]]:
    """Uniform grid of (F, U(F, p)) over [0, 1], as two lists of Python
    floats; the F = 1 endpoint carries the -infinity sentinel. U is
    `utility` at every point."""
    _check_count(grid_points, "grid point count", least=2)
    if grid_points > MAX_GRID_POINTS:
        raise ResourceGuardError(f"grid of {grid_points} points exceeds {MAX_GRID_POINTS}")
    _check_p(p)
    fs = _unit_grid(int(grid_points))  # a NumPy integer would make NumPy floats
    return fs, [utility(f, p) for f in fs]


def regime_partition(p: float) -> RegimePartition:
    """All critical fractions of the game in one report.

    The series estimate holds only for F_K^2 < 3/8, and the root only where
    it is a float below 1; outside them those fractions are nan, each with
    a note, and the rest of the report stands.
    """
    f_kelly = kelly_fraction(p)
    notes = []
    try:
        series = f_star_approx(p)
    except SeriesInvalidError as exc:
        series = SeriesApprox(approx=math.nan, epsilon=math.nan)
        notes.append(f"f_star_approx and epsilon are nan: {exc}")
    try:
        root = f_star(p)
    except DegenerateGameError as exc:
        root = math.nan
        notes.append(f"f_star is nan: {exc}")
    return RegimePartition(
        f_kelly=f_kelly,
        f_star=root,
        f_star_approx=series.approx,
        epsilon=series.epsilon,
        notes=tuple(notes),
    )
