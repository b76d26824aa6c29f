"""Closed-form and numerically solved quantities for the phase transition.

The survival fraction y(c) is the unique root in (0, 1) of y = 1 - exp(-c*y)
for c > 1; everything else here is either an exact evaluation (binomial
tails, branching-process fixed points) or a direct formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_Y_RESIDUAL_TOL = 1e-12
_GW_DELTA_TOL = 1e-14
_GW_MAX_ITER = 2_000_000


def solve_y(c: float) -> float:
    """Root of y = 1 - exp(-c*y) in (0, 1), by bisection to 1e-12 residual.

    Bisection over [1e-12, 1] converges unconditionally on the sign change;
    Newton would be faster but needs no safeguarding headroom here.
    """
    if not c > 1.0 + 1e-9:
        raise ValueError(f"supercritical mean degree required (c > 1), got {c}")

    def g(y: float) -> float:
        return y - 1.0 + math.exp(-c * y)

    lo, hi = 1e-12, 1.0
    if not (g(lo) < 0.0 < g(hi)):
        raise ValueError(f"no bracketed root for c={c}")
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    y = 0.5 * (lo + hi)
    residual = abs(g(y))
    if residual > _Y_RESIDUAL_TOL:
        raise ArithmeticError(f"bisection residual {residual} above tolerance at c={c}")
    return y


def second_component_bound(c: float, d: int) -> float:
    """Size ceiling d / (c - 1 - ln c) for every non-giant component."""
    if c <= 1.0:
        raise ValueError(f"bound defined for c > 1, got {c}")
    return d / (c - 1.0 - math.log(c))


def subcritical_bound(d: int, eps: float) -> float:
    """Component-size ceiling 9 ln(n) / eps^2 with n = 2^d."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return 9.0 * d * math.log(2.0) / (eps * eps)


def binom_tail_geq(nn: int, q: float, k: int) -> float:
    """Exact upper tail P[Bin(nn, q) >= k], in log space with stable summation.

    Terms are evaluated via lgamma and summed with math.fsum (compensated),
    keeping the absolute error at the 1e-12 level for nn up to ~10^4.
    """
    if nn < 0:
        raise ValueError(f"number of trials must be nonnegative, got {nn}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"success probability must lie in [0, 1], got {q}")
    if not 0 <= k <= nn + 1:
        raise ValueError(f"threshold k={k} out of range [0, {nn + 1}]")
    if k == 0:
        return 1.0
    if k == nn + 1:
        return 0.0
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return 1.0
    log_q = math.log(q)
    log_1mq = math.log1p(-q)
    lg_n1 = math.lgamma(nn + 1)
    terms = [
        math.exp(
            lg_n1
            - math.lgamma(j + 1)
            - math.lgamma(nn - j + 1)
            + j * log_q
            + (nn - j) * log_1mq
        )
        for j in range(k, nn + 1)
    ]
    return min(1.0, math.fsum(terms))


def chernoff_interval_bound(eps: float, k: int) -> float:
    """The Chernoff-type ceiling exp(-eps^2 * k / 4) for the interval statistic."""
    return math.exp(-eps * eps * k / 4.0)


@dataclass(frozen=True)
class GWParams:
    """Branching process with Bin(d, p) offspring: extinction/survival split."""

    d: int
    p: float
    extinction: float

    @property
    def survival(self) -> float:
        return 1.0 - self.extinction


def gw_extinction(d: int, p: float) -> GWParams:
    """Smallest fixed point of f(s) = (1 - p + p*s)^d in [0, 1].

    Monotone iteration from s = 0 converges to the smallest fixed point,
    which is the extinction probability; subcritical means (d*p <= 1) give
    extinction exactly 1.
    """
    if d < 1:
        raise ValueError(f"offspring trials must be at least 1, got {d}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"offspring probability must lie in [0, 1], got {p}")
    if d * p <= 1.0:
        return GWParams(d=d, p=float(p), extinction=1.0)
    s = 0.0
    for _ in range(_GW_MAX_ITER):
        nxt = (1.0 - p + p * s) ** d
        if abs(nxt - s) <= _GW_DELTA_TOL:
            return GWParams(d=d, p=float(p), extinction=nxt)
        s = nxt
    raise ArithmeticError(f"fixed-point iteration failed to converge for d={d}, p={p}")


@dataclass(frozen=True)
class SurvivalLimitRow:
    d: int
    survival: float
    y: float
    deviation: float


def gw_survival_limit_check(c: float, d_list) -> list[SurvivalLimitRow]:
    """Exact survival of Bin(d, c/d) offspring against the limit y(c), per d."""
    y = solve_y(c)
    rows = []
    for d in d_list:
        if d < 2:
            raise ValueError(f"offspring trials must be at least 2 in the table, got {d}")
        survival = gw_extinction(d, c / d).survival
        rows.append(SurvivalLimitRow(d=d, survival=survival, y=y, deviation=abs(survival - y)))
    return rows


@dataclass(frozen=True)
class TreeCountBound:
    """Ceilings on the number of k-vertex subtrees through a fixed vertex.

    ``loose`` is (e*d)^(k-1); ``sharp`` is the intermediate
    k^(k-2)/(k-1)! * d^(k-1).  Log forms are always finite; the linear
    fields overflow to inf for huge k.
    """

    loose: float
    sharp: float
    log_loose: float
    log_sharp: float


def tree_count_bound(d: int, k: int) -> TreeCountBound:
    if d < 1 or k < 1:
        raise ValueError(f"degree and size must be positive, got d={d}, k={k}")
    log_loose = (k - 1) * (1.0 + math.log(d))
    log_sharp = (k - 2) * math.log(k) - math.lgamma(k) + (k - 1) * math.log(d)
    loose = math.exp(log_loose) if log_loose < 709 else math.inf
    sharp = math.exp(log_sharp) if log_sharp < 709 else math.inf
    return TreeCountBound(loose=loose, sharp=sharp, log_loose=log_loose, log_sharp=log_sharp)
