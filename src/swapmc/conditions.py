"""Rapid-mixing sufficient conditions on degree bounds.

The swap chains are rapidly mixing whenever the spread of the degrees is
dominated by slack terms built from the extreme degrees and the class sizes.
The bipartite and directed inequalities differ only in those terms, so one
evaluator checks both in exact integer arithmetic and reports the full
certificate (both sides, every candidate product) so a verdict can be
audited.  A violated applicability window yields the distinct verdict "not
applicable": the theory is silent there, and the tool must not claim slow mixing.

The Erdos-Renyi window test evaluates, in double precision, the edge
probability ranges under which a random bipartite or directed graph's degree
sequence satisfies the corresponding spread condition with high probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .degrees import DegreeBounds, DirectedDegreeBiSequence, bounds_of

__all__ = [
    "ConditionReport",
    "ERWindowReport",
    "bipartite_spread_condition",
    "directed_spread_condition",
    "erdos_renyi_window",
    "greenhill_sfragara_directed",
]


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one spread-condition evaluation.

    ``lhs``/``rhs`` are exact integers; ``rhs_candidates`` records both
    branches of the max and ``active_branch`` which one was attained.  When
    ``applicable`` is False all other certificate fields are still populated
    where they make sense, but ``holds`` is None.
    """

    name: str
    bounds: DegreeBounds
    applicable: bool
    holds: bool | None
    lhs: int
    rhs: int | None
    lhs_factors: tuple[int, int]
    rhs_candidates: tuple[int, int] | None
    active_branch: int | None
    reason: str = ""

    @property
    def verdict(self) -> str:
        if not self.applicable:
            return "not applicable"
        return "holds" if self.holds else "fails"


def _spread_condition(name, b, lhs_factors, d_name, d_cap, candidates, offset) -> ConditionReport:
    """Check ``lhs_factors[0] * lhs_factors[1] <= offset + max(candidates)`` on
    the window ``0 < c1 <= c2 < n``, ``0 < d1 <= d2 < d_cap`` (whose message
    prints ``d_cap`` as ``d_name``)."""
    lhs = lhs_factors[0] * lhs_factors[1]
    if not (0 < b.c1 <= b.c2 < b.n and 0 < b.d1 <= b.d2 < d_cap):
        return ConditionReport(
            name=name, bounds=b, applicable=False, holds=None, lhs=lhs, rhs=None,
            lhs_factors=lhs_factors, rhs_candidates=None, active_branch=None,
            reason=f"window violated: need 0 < c1 <= c2 < n={b.n} "
            f"and 0 < d1 <= d2 < {d_name}={d_cap}",
        )
    rhs = offset + max(candidates)
    return ConditionReport(
        name=name, bounds=b, applicable=True, holds=lhs <= rhs, lhs=lhs, rhs=rhs,
        lhs_factors=lhs_factors, rhs_candidates=candidates,
        active_branch=0 if candidates[0] >= candidates[1] else 1,
    )


def bipartite_spread_condition(b: DegreeBounds) -> ConditionReport:
    """Check ``(c2-c1-1)(d2-d1-1) <= max{c1(m-d2), d1(n-c2)}``.

    Applicability window: ``0 < c1 <= c2 < n`` and ``0 < d1 <= d2 < m``,
    with [c1,c2] bounding the V-degrees and [d1,d2] the U-degrees.  The
    second branch is read as ``d1(n-c2)`` with ``n = |U|``, the U<->V mirror
    of ``c1(m-d2)``, so swapping U and V keeps every verdict; the abstract
    prints it as ``d1(|V|-c2)``.
    """
    c1, c2, d1, d2, n, m = b.c1, b.c2, b.d1, b.d2, b.n, b.m
    factors, candidates = (c2 - c1 - 1, d2 - d1 - 1), (c1 * (m - d2), d1 * (n - c2))
    return _spread_condition("bipartite-spread", b, factors, "m", m, candidates, 0)


def directed_spread_condition(b: DegreeBounds) -> ConditionReport:
    """Check ``(c2-c1)(d2-d1) <= 2 + max{c1(n-d2-1)+d1+c2, d1(n-c2-1)+c1+d2} - n``.

    Applicability window: ``0 < c1 <= c2 < n`` and ``0 < d1 <= d2 < n``, with
    [c1,c2] bounding the out-degrees and [d1,d2] the in-degrees.
    """
    c1, c2, d1, d2, n = b.c1, b.c2, b.d1, b.d2, b.n
    candidates = (c1 * (n - d2 - 1) + d1 + c2, d1 * (n - c2 - 1) + c1 + d2)
    return _spread_condition("directed-spread", b, (c2 - c1, d2 - d1), "n", n, candidates, 2 - n)


def greenhill_sfragara_directed(seq: DirectedDegreeBiSequence) -> ConditionReport:
    """Check Greenhill and Sfragara's ``1 <= d_max <= sqrt(m)/4`` as ``16 d_max^2 <= m``.

    ``d_max`` is the largest in- or out-degree and ``m`` the arc count
    (C. Greenhill and M. Sfragara, Theoretical Computer Science, 2018).  The
    constant 1/4 is read from the abstract's remark that their result does
    not apply once the average degree exceeds n/16: on a d-regular digraph
    ``m = nd``, so the test holds exactly when ``16 d <= n``.  A digraph
    without arcs falls outside the window ``1 <= d_max``.
    """
    b = bounds_of(seq)
    d_max, m = max(b.c2, b.d2), seq.arc_count
    lhs = 16 * d_max * d_max
    applicable = d_max >= 1
    return ConditionReport(
        name="greenhill-sfragara",
        bounds=b,
        applicable=applicable,
        holds=lhs <= m if applicable else None,
        lhs=lhs,
        rhs=m,
        lhs_factors=(4 * d_max, 4 * d_max),
        rhs_candidates=None,
        active_branch=None,
        reason="" if applicable else "window violated: need d_max >= 1",
    )


@dataclass(frozen=True)
class ERWindowReport:
    """Evaluated Erdos-Renyi edge-probability window(s)."""

    kind: str  # "bipartite" | "directed"
    n: int
    m: int
    p: float
    windows: tuple[tuple[float, float], ...]
    inside: tuple[bool, ...]

    @property
    def holds(self) -> bool:
        return any(self.inside)

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "fails"


def _bip_window(n: int, m: int) -> tuple[float, float]:
    half_log2 = 0.5 * math.log(2.0)
    lo = 3.0 * math.sqrt((math.log(m) + half_log2) / n)
    hi = 1.0 - 3.0 * math.sqrt((math.log(n) + half_log2) / m)
    return lo, hi


def erdos_renyi_window(kind: str, n: int, p: float, m: int | None = None) -> ERWindowReport:
    """Edge-probability windows guaranteeing the spread condition w.h.p.

    Bipartite: ``3 sqrt((log m + log(2)/2)/n) <= p <= 1 - 3 sqrt((log n +
    log(2)/2)/m)``, checked in both orientations of (n, m) and OR-ed.
    Directed: the single window with the extra ``2/sqrt(n)`` margins.
    Natural logarithms, double precision, no tolerance fudge.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if kind == "bipartite":
        if m is None:
            m = n
        if n < 2 or m < 2:
            raise ValueError("need n, m >= 2")
        w1 = _bip_window(n, m)
        w2 = _bip_window(m, n)
        windows = (w1, w2)
    elif kind == "directed":
        if m is not None and m != n:
            raise ValueError("directed window has a single class size")
        if n < 2:
            raise ValueError("need n >= 2")
        lo, hi = _bip_window(n, n)
        margin = 2.0 / math.sqrt(n)
        windows = ((lo + margin, hi - margin),)
        m = n
    else:
        raise ValueError("kind must be 'bipartite' or 'directed'")
    inside = tuple(lo <= p <= hi for lo, hi in windows)
    return ERWindowReport(kind=kind, n=n, m=m, p=p, windows=windows, inside=inside)
