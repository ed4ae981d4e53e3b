"""Ground truth for small instances.

Everything here is exhaustive or exact and intentionally independent of the
sampler's proposal code: realizations are enumerated by backtracking (and
recounted by a separate column-recursive counter), and kernel neighbours are
recovered from *state differences* -- two valid realizations at Hamming
distance 4 necessarily differ by an alternating c4, and at distance 6 by an
alternating hexagon, so transition matrices are built without ever invoking
the chain's move-proposal logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .degrees import BipartiteDegreeSequence
from .errors import BudgetExceededError
from .realization import (
    BipartiteRealization,
    canonical_forbidden,
    partner_arrays,
)

__all__ = [
    "POSITION_BUDGET",
    "STATE_BUDGET",
    "enumerate_realizations",
    "count_realizations",
    "ExactKernel",
    "exact_transition_matrix",
    "swap_graph_connected",
    "tv_curve",
]

POSITION_BUDGET = 36  # n*m cap for exhaustive enumeration
STATE_BUDGET = 5000  # |G| cap for exact transition matrices


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def enumerate_realizations(
    seq: BipartiteDegreeSequence,
    forbidden=(),
    *,
    position_budget: int = POSITION_BUDGET,
) -> list[BipartiteRealization]:
    """All realizations, duplicate-free, in canonical order.

    Backtracks row by row with margin pruning.  The canonical order is
    lexicographic on the row bit patterns (rows read as big-endian binary).

    Raises
    ------
    BudgetExceededError
        If ``n*m`` exceeds ``position_budget``.
    """
    n, m = seq.n, seq.m
    if n * m > position_budget:
        raise BudgetExceededError(
            f"{n}x{m} grid exceeds the enumeration budget of {position_budget} positions"
        )
    forb = canonical_forbidden(forbidden, n, m)
    if not seq.fits_class_sizes:
        return []
    fu, _ = partner_arrays(forb, n, m)
    caps = list(seq.v_degrees)
    udeg = seq.u_degrees
    rows: list[tuple[int, ...]] = []
    found: list[tuple[tuple[int, ...], ...]] = []

    max_udeg_suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        max_udeg_suffix[i] = max(udeg[i], max_udeg_suffix[i + 1])

    def recurse(i: int) -> None:
        if i == n:
            if all(c == 0 for c in caps):
                found.append(tuple(rows))
            return
        d = udeg[i]
        allowed = [j for j in range(m) if caps[j] > 0 and fu[i] != j]
        if len(allowed) < d:
            return
        rows_left = n - i - 1
        for chosen in combinations(allowed, d):
            for j in chosen:
                caps[j] -= 1
            ok = all(c <= rows_left for c in caps)
            if ok and rows_left:
                positive = sum(1 for c in caps if c > 0)
                ok = positive >= max_udeg_suffix[i + 1]
            if ok:
                rows.append(chosen)
                recurse(i + 1)
                rows.pop()
            for j in chosen:
                caps[j] += 1

    recurse(0)

    def row_key(chosen_rows):
        return tuple(sum(1 << (m - 1 - j) for j in row) for row in chosen_rows)

    found.sort(key=row_key)
    out = []
    for chosen_rows in found:
        M = np.zeros((n, m), dtype=np.uint8)
        for i, row in enumerate(chosen_rows):
            for j in row:
                M[i, j] = 1
        out.append(BipartiteRealization(seq, M, forb, validate=False))
    return out


def count_realizations(
    seq: BipartiteDegreeSequence,
    forbidden=(),
    *,
    position_budget: int = POSITION_BUDGET,
) -> int:
    """Count realizations by a column-recursive memoized method.

    Independent of :func:`enumerate_realizations` (columns instead of rows,
    counting instead of construction); the two must agree, which the test
    suite uses as a cross-check.
    """
    n, m = seq.n, seq.m
    if n * m > position_budget:
        raise BudgetExceededError(
            f"{n}x{m} grid exceeds the counting budget of {position_budget} positions"
        )
    if not seq.fits_class_sizes:
        return 0
    forb = canonical_forbidden(forbidden, n, m)
    _, fv = partner_arrays(forb, n, m)
    vdeg = seq.v_degrees

    max_vdeg_suffix = [0] * (m + 1)
    for j in range(m - 1, -1, -1):
        max_vdeg_suffix[j] = max(vdeg[j], max_vdeg_suffix[j + 1])

    @lru_cache(maxsize=None)
    def recurse(j: int, caps: tuple[int, ...]) -> int:
        if j == m:
            return 1 if all(c == 0 for c in caps) else 0
        d = vdeg[j]
        allowed = [i for i in range(n) if caps[i] > 0 and fv[j] != i]
        if len(allowed) < d:
            return 0
        cols_left = m - j - 1
        total = 0
        for chosen in combinations(allowed, d):
            new_caps = list(caps)
            for i in chosen:
                new_caps[i] -= 1
            if any(c > cols_left for c in new_caps):
                continue
            if cols_left:
                positive = sum(1 for c in new_caps if c > 0)
                if positive < max_vdeg_suffix[j + 1]:
                    continue
            total += recurse(j + 1, tuple(new_caps))
        return total

    result = recurse(0, tuple(seq.u_degrees))
    recurse.cache_clear()
    return result


# ---------------------------------------------------------------------------
# Exact kernels
# ---------------------------------------------------------------------------


@dataclass
class ExactKernel:
    """Exact transition matrix of a kernel over the full realization set.

    ``matrix`` holds float64 probabilities materialized from the exact
    rationals in ``rational_offdiag`` (diagonal entries are the exact
    complements, converted once).  ``p_c4`` / ``p_c6`` are the kernel's
    per-neighbour jumping probabilities (zero when the move kind cannot
    fire, e.g. c6 in the bipartite kernel or with fewer than three vertices
    per class).
    """

    states: list[BipartiteRealization]
    matrix: np.ndarray
    rational_offdiag: dict[tuple[int, int], Fraction]
    chain_kind: str
    p_c4: Fraction
    p_c6: Fraction

    @property
    def size(self) -> int:
        return len(self.states)

    def rational_entry(self, i: int, j: int) -> Fraction:
        if i == j:
            return Fraction(1) - sum(
                (p for (a, _), p in self.rational_offdiag.items() if a == i),
                Fraction(0),
            )
        return self.rational_offdiag.get((i, j), Fraction(0))


def _pairwise_hamming(states: list[BipartiteRealization]) -> np.ndarray:
    flat = np.stack([r.matrix.reshape(-1) for r in states]).astype(np.int32)
    # All states share margins, so |a - b| = 2*(E - a.b) for 0/1 vectors.
    edges = int(flat[0].sum())
    gram = flat @ flat.T
    return 2 * (edges - gram)


def _classify_neighbors(states, c6: bool):
    """Yield (i, j, kind) for every ordered neighbour pair, from state diffs.

    c6 pairs are looked for only when ``c6`` is set and the states carry
    forbidden positions; without them no hexagon can be a c6-swap.
    """
    if not states:
        return
    ref = states[0]
    ham = _pairwise_hamming(states)
    fu, _ = partner_arrays(ref.forbidden, ref.n, ref.m)
    for i, j in zip(*np.nonzero(ham == 4)):
        yield int(i), int(j), "c4"
    if c6 and ref.forbidden:
        for i, j in zip(*np.nonzero(ham == 6)):
            if i > j:
                continue
            diff = states[i].matrix != states[j].matrix
            rows = np.nonzero(diff.any(axis=1))[0]
            cols = np.nonzero(diff.any(axis=0))[0]
            # Three rows x three columns; the 3 non-differing cells are the
            # hexagon's opposite pairs and must all be forbidden.
            opposite_ok = True
            for r in rows:
                for c in cols:
                    if not diff[r, c] and fu[r] != c:
                        opposite_ok = False
            if opposite_ok:
                yield int(i), int(j), "c6"
                yield int(j), int(i), "c6"


def exact_transition_matrix(
    seq: BipartiteDegreeSequence,
    forbidden=(),
    chain_kind: str = "bipartite",
    *,
    state_budget: int = STATE_BUDGET,
    position_budget: int = POSITION_BUDGET,
) -> ExactKernel:
    """Exact kernel over the enumerated realization set.

    Off-diagonal entries are the exact jumping probabilities: with ``n=|U|``
    and ``m=|V|``, ``1/(2 C(n,2) C(m,2))`` for the bipartite kernel, and
    ``1/(4 C(n,2) C(m,2))`` / ``1/(4 C(n,3) C(m,3))`` for the c4/c6 moves of
    the restricted kernel.  Diagonals absorb the rest; rows sum to one.
    """
    if chain_kind not in ("bipartite", "directed"):
        raise ValueError("chain_kind must be 'bipartite' or 'directed'")
    if chain_kind == "bipartite" and tuple(forbidden):
        raise ValueError("the bipartite kernel has no forbidden positions")
    states = enumerate_realizations(seq, forbidden, position_budget=position_budget)
    N = len(states)
    if N > state_budget:
        raise BudgetExceededError(f"{N} states exceed the budget of {state_budget}")
    n, m = seq.n, seq.m
    pairs = comb(n, 2) * comb(m, 2)
    triples = comb(n, 3) * comb(m, 3)
    if chain_kind == "bipartite":
        p4 = Fraction(1, 2 * pairs) if pairs else Fraction(0)
        p6 = Fraction(0)
    else:
        p4 = Fraction(1, 4 * pairs) if pairs else Fraction(0)
        p6 = Fraction(1, 4 * triples) if triples else Fraction(0)
    offdiag: dict[tuple[int, int], Fraction] = {}
    for i, j, kind in _classify_neighbors(states, chain_kind == "directed"):
        offdiag[(i, j)] = p4 if kind == "c4" else p6
    P = np.zeros((N, N), dtype=np.float64)
    rowsum = [Fraction(0)] * N
    for (i, j), p in offdiag.items():
        P[i, j] = float(p)
        rowsum[i] += p
    for i in range(N):
        P[i, i] = float(Fraction(1) - rowsum[i])
    return ExactKernel(
        states=states,
        matrix=P,
        rational_offdiag=offdiag,
        chain_kind=chain_kind,
        p_c4=p4,
        p_c6=p6,
    )


def swap_graph_connected(
    seq: BipartiteDegreeSequence,
    forbidden=(),
    moves: str = "c4",
    *,
    position_budget: int = POSITION_BUDGET,
) -> tuple[bool, int]:
    """Connectivity of the move graph over all realizations.

    ``moves`` is ``"c4"`` (double swaps only) or ``"c4+c6"`` (all restricted
    moves).  Returns (connected, component count); an empty realization set
    counts as 0 components and not connected.
    """
    if moves not in ("c4", "c4+c6"):
        raise ValueError("moves must be 'c4' or 'c4+c6'")
    states = enumerate_realizations(seq, forbidden, position_budget=position_budget)
    N = len(states)
    if N == 0:
        return False, 0
    adj: list[list[int]] = [[] for _ in range(N)]
    for i, j, _ in _classify_neighbors(states, moves == "c4+c6"):
        adj[i].append(j)
    seen = [False] * N
    components = 0
    for s in range(N):
        if seen[s]:
            continue
        components += 1
        stack = [s]
        seen[s] = True
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
    return components == 1, components


def tv_from_kernel(kernel: ExactKernel, horizon: int) -> list[float]:
    """Worst-case TV distance to uniform after t exact steps, t = 0..horizon."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    P = kernel.matrix
    N = kernel.size
    uniform = np.full(N, 1.0 / N)
    dist = np.eye(N)
    curve = []
    for t in range(horizon + 1):
        if t:
            dist = P if t == 1 else dist @ P
        curve.append(float(0.5 * np.abs(dist - uniform).sum(axis=1).max()))
    return curve


def tv_curve(
    seq: BipartiteDegreeSequence,
    forbidden=(),
    chain_kind: str = "bipartite",
    horizon: int = 50,
    *,
    state_budget: int = STATE_BUDGET,
) -> list[float]:
    """Worst-case total-variation distance to uniform after t exact steps.

    Entry ``t`` is ``max_s TV(P^t[s, .], uniform)``; the sequence is
    non-increasing because uniform is stationary for both kernels.
    """
    kernel = exact_transition_matrix(
        seq, forbidden, chain_kind, state_budget=state_budget
    )
    return tv_from_kernel(kernel, horizon)
