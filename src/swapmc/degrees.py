"""Degree sequences, graphicality tests, and degree-bound extraction.

Two kinds of prescription are supported: a bipartite degree sequence (one
degree per vertex of each class) and a directed degree bi-sequence (an
out-degree and an in-degree per vertex of a loop-free digraph in which
anti-parallel arcs are allowed).  Graphicality is decided by Gale-Ryser
inequalities for the bipartite case and by the Kleitman-Wang reduction for
the directed case; the latter doubles as a constructive realization
algorithm and is reused by :mod:`swapmc.realization`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

__all__ = [
    "BipartiteDegreeSequence",
    "DirectedDegreeBiSequence",
    "DegreeBounds",
    "is_bipartite_graphic",
    "is_directed_graphic",
    "bounds_of",
    "kleitman_wang_arcs",
]


def _int_tuple(name: str, values) -> tuple[int, ...]:
    try:
        out = tuple(operator.index(v) for v in values)
    except TypeError as exc:
        raise ValueError(f"{name} must contain integers") from exc
    if any(v < 0 for v in out):
        raise ValueError(f"{name} must be non-negative")
    if not out:
        raise ValueError(f"{name} must not be empty")
    return out


@dataclass(frozen=True)
class BipartiteDegreeSequence:
    """Prescribed degrees for the two classes U (rows) and V (columns).

    The degree sums of the two classes must agree.  Whether each degree also
    fits inside the opposite class (``d(u) <= m``, ``d(v) <= n``) is reported
    by :attr:`fits_class_sizes` and folded into graphicality rather than
    raised here, so that infeasible prescriptions can still be talked about.
    """

    u_degrees: tuple[int, ...]
    v_degrees: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "u_degrees", _int_tuple("u_degrees", self.u_degrees))
        object.__setattr__(self, "v_degrees", _int_tuple("v_degrees", self.v_degrees))
        if sum(self.u_degrees) != sum(self.v_degrees):
            raise ValueError(
                f"degree sums differ: sum(u)={sum(self.u_degrees)} "
                f"!= sum(v)={sum(self.v_degrees)}"
            )

    @property
    def n(self) -> int:
        return len(self.u_degrees)

    @property
    def m(self) -> int:
        return len(self.v_degrees)

    @property
    def edge_count(self) -> int:
        return sum(self.u_degrees)

    @property
    def fits_class_sizes(self) -> bool:
        return all(d <= self.m for d in self.u_degrees) and all(
            d <= self.n for d in self.v_degrees
        )


@dataclass(frozen=True)
class DirectedDegreeBiSequence:
    """Prescribed (out-degree, in-degree) pairs for a loop-free digraph."""

    out_degrees: tuple[int, ...]
    in_degrees: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "out_degrees", _int_tuple("out_degrees", self.out_degrees)
        )
        object.__setattr__(self, "in_degrees", _int_tuple("in_degrees", self.in_degrees))
        if len(self.out_degrees) != len(self.in_degrees):
            raise ValueError("out_degrees and in_degrees must have equal length")
        if sum(self.out_degrees) != sum(self.in_degrees):
            raise ValueError(
                f"degree sums differ: sum(out)={sum(self.out_degrees)} "
                f"!= sum(in)={sum(self.in_degrees)}"
            )

    @property
    def n(self) -> int:
        return len(self.out_degrees)

    @property
    def arc_count(self) -> int:
        return sum(self.out_degrees)

    @property
    def fits_class_sizes(self) -> bool:
        cap = self.n - 1
        return all(d <= cap for d in self.out_degrees) and all(
            d <= cap for d in self.in_degrees
        )


@dataclass(frozen=True)
class DegreeBounds:
    """Degree intervals feeding the rapid-mixing condition checkers.

    Orientation convention (fixed to avoid silent transposition): for a
    bipartite sequence ``[c1, c2]`` bounds the V-degrees and ``[d1, d2]``
    the U-degrees; for a directed bi-sequence ``[c1, c2]`` bounds the
    out-degrees and ``[d1, d2]`` the in-degrees.  ``n`` and ``m`` are the
    class sizes (``n == m`` in the directed case).
    """

    c1: int
    c2: int
    d1: int
    d2: int
    n: int
    m: int

    def __post_init__(self):
        if not (0 <= self.c1 <= self.c2 and 0 <= self.d1 <= self.d2):
            raise ValueError("bounds must satisfy 0 <= c1 <= c2 and 0 <= d1 <= d2")
        if self.n < 1 or self.m < 1:
            raise ValueError("class sizes must be positive")


def bounds_of(seq) -> DegreeBounds:
    """Extract the tight degree intervals of a sequence (see DegreeBounds)."""
    if isinstance(seq, BipartiteDegreeSequence):
        c, d, m = seq.v_degrees, seq.u_degrees, seq.m
    elif isinstance(seq, DirectedDegreeBiSequence):
        c, d, m = seq.out_degrees, seq.in_degrees, seq.n
    else:
        raise TypeError(f"unsupported sequence type: {type(seq).__name__}")
    return DegreeBounds(c1=min(c), c2=max(c), d1=min(d), d2=max(d), n=seq.n, m=m)


def is_bipartite_graphic(seq: BipartiteDegreeSequence) -> bool:
    """Gale-Ryser test: does a simple bipartite realization exist?

    Sort the U-degrees decreasingly as ``a_1 >= ... >= a_n``; the sequence is
    graphic iff for every ``k``

        sum_{i<=k} a_i  <=  sum_j min(d(v_j), k).

    Degrees exceeding the opposite class size make the answer ``False``.
    """
    if not seq.fits_class_sizes:
        return False
    a = sorted(seq.u_degrees, reverse=True)
    b = seq.v_degrees
    prefix = 0
    for k, ak in enumerate(a, start=1):
        prefix += ak
        if prefix > sum(min(bj, k) for bj in b):
            return False
    return True


def kleitman_wang_arcs(seq: DirectedDegreeBiSequence) -> list[tuple[int, int]] | None:
    """Run the Kleitman-Wang reduction; return realizing arcs or ``None``.

    Repeatedly pick the lowest-indexed vertex ``k`` with positive residual
    in-degree, zero it, and draw one arc into ``k`` from each of the ``b_k``
    other vertices whose residual pair ``(out, in)`` is lexicographically
    largest.  The bi-sequence is realizable iff the reduction never needs a
    donor with exhausted out-degree.  The returned arc list is deterministic.
    """
    if not seq.fits_class_sizes:
        return None
    n = seq.n
    a = list(seq.out_degrees)
    b = list(seq.in_degrees)
    arcs: list[tuple[int, int]] = []
    while True:
        k = next((i for i, bi in enumerate(b) if bi > 0), None)
        if k is None:
            return arcs
        need = b[k]
        b[k] = 0
        donors = sorted(
            (i for i in range(n) if i != k), key=lambda i: (-a[i], -b[i], i)
        )[:need]
        if a[donors[-1]] <= 0:
            return None
        for i in donors:
            a[i] -= 1
            arcs.append((i, k))


def is_directed_graphic(seq: DirectedDegreeBiSequence) -> bool:
    """Whether a loop-free digraph (anti-parallel arcs allowed) realizes seq."""
    return kleitman_wang_arcs(seq) is not None
