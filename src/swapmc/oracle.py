"""Ground truth for small instances.

Everything here is exhaustive or exact and intentionally independent of the
sampler's proposal code: realizations are enumerated by backtracking (and
recounted by a separate column-recursive counter), and kernel neighbours are
found from *state codes* -- each state's matrix read as one big-endian bit
string.  Two valid realizations are c4 neighbours exactly when their codes
differ in the four cells of a rectangle, and c6 neighbours exactly when they
differ in the six cells of a 3x3 block whose other three cells are
forbidden; so flipping each such mask in every code and looking the result
up among the sorted codes finds every neighbour without ever invoking the
chain's move-proposal logic.

The kernel keeps those neighbour pairs as index arrays, and everything
else is derived from them: the exact rationals (on first use), move-graph
components (vectorised label propagation), and ``P^2`` for the TV curve
(a sparse product; later powers are dense because ``P^3`` already is).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
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
_TV_BLOCK = 1 << 20  # matrix entries per row block of the TV reduction


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
    bit = [1 << (m - 1 - j) for j in range(m)]
    rows: list[int] = []  # each chosen row as its big-endian bit pattern
    found: list[tuple[int, ...]] = []

    max_udeg_suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        max_udeg_suffix[i] = max(udeg[i], max_udeg_suffix[i + 1])

    def recurse(i: int) -> None:
        if i == n:
            if not any(caps):
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
            ok = max(caps) <= rows_left
            if ok and rows_left:
                # caps never go negative, so the others are positive
                ok = m - caps.count(0) >= max_udeg_suffix[i + 1]
            if ok:
                rows.append(sum(bit[j] for j in chosen))
                recurse(i + 1)
                rows.pop()
            for j in chosen:
                caps[j] += 1

    recurse(0)
    if not found:
        return []
    found.sort()
    dtype = np.uint64 if m <= 64 else object
    patterns = np.array(found, dtype=dtype)[:, :, None]
    block = ((patterns & np.array(bit, dtype=dtype)) != 0).astype(np.uint8)
    # One validated state; the others are shallow clones of it, as copy()
    # makes them, each with its own matrix.
    template = BipartiteRealization(seq, block[0], forb)
    return [template] + [template._with_matrix(M.copy()) for M in block[1:]]


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

    ``c4_pairs`` and ``c6_pairs`` are the ordered neighbour pairs ``(i, j)``
    of each move kind as two index arrays; every pair is listed in both
    directions and the c6 arrays are empty unless the kernel has c6 moves.
    ``matrix`` holds the float64 probabilities: ``p_c4`` / ``p_c6`` at those
    pairs (zero when the move kind cannot fire, e.g. c6 in the bipartite
    kernel or with fewer than three vertices per class) and the exact
    complement of each row on the diagonal, converted once.  The exact
    rationals, ``rational_offdiag``, are built from the pairs on first use.
    """

    states: list[BipartiteRealization]
    matrix: np.ndarray
    chain_kind: str
    p_c4: Fraction
    p_c6: Fraction
    c4_pairs: tuple[np.ndarray, np.ndarray]
    c6_pairs: tuple[np.ndarray, np.ndarray]

    @property
    def size(self) -> int:
        return len(self.states)

    @cached_property
    def rational_offdiag(self) -> dict[tuple[int, int], Fraction]:
        (i4, j4), (i6, j6) = self.c4_pairs, self.c6_pairs
        offdiag = dict.fromkeys(zip(i4.tolist(), j4.tolist()), self.p_c4)
        offdiag.update(dict.fromkeys(zip(i6.tolist(), j6.tolist()), self.p_c6))
        return offdiag

    @cached_property
    def _offdiag_row_sums(self) -> list[Fraction]:
        sums = [Fraction(0)] * self.size
        for (i, _), p in self.rational_offdiag.items():
            sums[i] += p
        return sums

    def rational_entry(self, i: int, j: int) -> Fraction:
        if i == j:
            return Fraction(1) - self._offdiag_row_sums[i]
        return self.rational_offdiag.get((i, j), Fraction(0))


def _state_codes(states: list[BipartiteRealization]) -> np.ndarray:
    """Each state's matrix as one big-endian bit string, row 0 first.

    ``np.uint64`` up to 64 cells, exact Python ints in an object array
    above.  Canonical enumeration order makes the codes strictly increasing.
    """
    dtype = np.uint64 if states[0].matrix.size <= 64 else object
    flat = np.stack([r.matrix.reshape(-1) for r in states]).astype(dtype)
    codes = np.zeros(len(states), dtype=dtype)
    for column in flat.T:
        codes = (codes << 1) | column
    return codes


def _flip_lookup(codes: np.ndarray, masks, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Ordered pairs (i, j) whose codes differ in exactly one mask's cells.

    Each mask, a list of (row, column) cells of the n x m grid, is XORed
    into every code and the results are looked up among the sorted codes.
    A hit is a valid state, so no margin or forbidden-cell test is needed.
    """
    top = n * m - 1
    values = [sum(1 << (top - i * m - j) for i, j in mask) for mask in masks]
    last = len(codes) - 1
    src, dst = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for mask in np.array(values, dtype=codes.dtype):
        flipped = codes ^ mask
        j = np.minimum(np.searchsorted(codes, flipped), last)
        hit = np.flatnonzero(codes[j] == flipped)
        src.append(hit)
        dst.append(j[hit])
    return np.concatenate(src), np.concatenate(dst)


def _neighbor_pairs(states: list[BipartiteRealization], c6: bool):
    """Ordered neighbour pairs as index arrays ``(i4, j4), (i6, j6)``.

    c4 masks are the C(n,2) C(m,2) rectangles.  c6 masks are looked for only
    when ``c6`` is set: the forbidden set is a matching, so each 3-subset of
    it spans one 3x3 block, and the hexagon is that block's other six cells.
    """
    if not states:
        empty = np.empty(0, dtype=np.intp)
        return (empty, empty), (empty, empty)
    ref = states[0]
    n, m = ref.n, ref.m
    rectangles = [
        [(r1, c1), (r1, c2), (r2, c1), (r2, c2)]
        for r1, r2 in combinations(range(n), 2)
        for c1, c2 in combinations(range(m), 2)
    ]
    hexagons = []
    if c6:
        for trio in combinations(ref.forbidden, 3):
            block = product([u for u, _ in trio], [v for _, v in trio])
            hexagons.append([cell for cell in block if cell not in trio])
    codes = _state_codes(states)
    return _flip_lookup(codes, rectangles, n, m), _flip_lookup(codes, hexagons, n, m)


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
    (i4, j4), (i6, j6) = _neighbor_pairs(states, chain_kind == "directed")
    P = np.zeros((N, N), dtype=np.float64)
    P[i4, j4] = float(p4)
    P[i6, j6] = float(p6)
    # The diagonal is the exact complement of each row, converted once per
    # distinct pair of neighbour counts (k4, k6).
    counts = np.stack([np.bincount(i4, minlength=N), np.bincount(i6, minlength=N)], axis=1)
    distinct, which = np.unique(counts, axis=0, return_inverse=True)
    holding = [float(1 - int(k4) * p4 - int(k6) * p6) for k4, k6 in distinct]
    np.fill_diagonal(P, np.array(holding, dtype=np.float64)[which.reshape(-1)])
    return ExactKernel(
        states=states,
        matrix=P,
        chain_kind=chain_kind,
        p_c4=p4,
        p_c6=p6,
        c4_pairs=(i4, j4),
        c6_pairs=(i6, j6),
    )


def _components(size: int, *pairs: tuple[np.ndarray, np.ndarray]) -> tuple[bool, int]:
    """(connected, component count) of the graph on ``range(size)`` whose
    edges are the given ``(i, j)`` index arrays, each edge in both directions.

    Every vertex starts as its own label.  Each round lowers the label of
    every edge's source root to the edge's target label, then jumps
    pointers until each label is a root (``label[r] == r``).  Labels only
    fall and always name a vertex of the same component, so once a round
    changes nothing every component carries one root label.
    """
    if size == 0:
        return False, 0
    src = np.concatenate([i for i, _ in pairs])
    dst = np.concatenate([j for _, j in pairs])
    label = np.arange(size)
    while True:
        lowered = label.copy()
        np.minimum.at(lowered, label[src], label[dst])
        while True:
            jumped = lowered[lowered]
            if np.array_equal(jumped, lowered):
                break
            lowered = jumped
        if np.array_equal(lowered, label):
            break
        label = lowered
    components = int(np.count_nonzero(label == np.arange(size)))
    return components == 1, components


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
    return _components(len(states), *_neighbor_pairs(states, moves == "c4+c6"))


def _square_blocks(kernel: ExactKernel, rows: int, out: np.ndarray | None):
    """Row blocks of ``P @ P``, ``rows`` rows each, from the sparse ``P``.

    ``P``'s nonzeros -- the neighbour pairs and the diagonal, valued from
    ``kernel.matrix`` -- are sorted into CSR-style row arrays.  Each block
    pairs every nonzero ``P[r, k]`` of its rows with every nonzero
    ``P[k, c]`` of row ``k`` and sums the products into a dense block with
    ``np.bincount``.  Each block is also copied into ``out`` when given.
    """
    P, N = kernel.matrix, kernel.size
    diagonal = np.arange(N)
    src = np.concatenate([kernel.c4_pairs[0], kernel.c6_pairs[0], diagonal])
    dst = np.concatenate([kernel.c4_pairs[1], kernel.c6_pairs[1], diagonal])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    value = P[src, dst]
    start = np.zeros(N + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=N), out=start[1:])
    for lo in range(0, N, rows):
        hi = min(lo + rows, N)
        a, b = start[lo], start[hi]
        mid = dst[a:b]
        lengths = start[mid + 1] - start[mid]
        # CSR position of each product's second factor
        second = np.arange(int(lengths.sum())) + np.repeat(
            start[mid] - (np.cumsum(lengths) - lengths), lengths
        )
        cell = np.repeat((src[a:b] - lo) * N, lengths) + dst[second]
        weight = np.repeat(value[a:b], lengths) * value[second]
        block = np.bincount(cell, weights=weight, minlength=(hi - lo) * N).reshape(hi - lo, N)
        if out is not None:
            out[lo:hi] = block
        yield block


def tv_from_kernel(kernel: ExactKernel, horizon: int) -> list[float]:
    """Worst-case TV distance to uniform after t exact steps, t = 0..horizon.

    Each ``0.5 * |dist - 1/N|`` row sum is reduced over blocks of rows, so
    no N x N temporary beyond the power of ``P`` itself is built.  ``P^2``
    is a sparse product of ``P`` with itself, reduced block by block and
    kept whole only when ``horizon > 2``; P is sparse but its cube is not,
    so every later power is a dense ``dist @ P``.  A kernel with no states
    has no distance to uniform, and raises ``ValueError``.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if not kernel.size:
        raise ValueError("the kernel has no states")
    P = kernel.matrix
    N = kernel.size
    uniform = 1.0 / N
    rows = max(1, _TV_BLOCK // N)
    starts = range(0, N, rows)

    def worst(blocks) -> float:
        tv = 0.0
        for block in blocks:
            tv = max(tv, float(0.5 * np.abs(block - uniform).sum(axis=1).max()))
        return tv

    curve = [worst(np.eye(min(rows, N - lo), N, lo) for lo in starts)]
    if horizon >= 1:
        curve.append(worst(P[lo : lo + rows] for lo in starts))
    if horizon >= 2:
        dist = np.empty((N, N)) if horizon > 2 else None
        curve.append(worst(_square_blocks(kernel, rows, dist)))
    for _ in range(3, horizon + 1):
        dist = dist @ P
        curve.append(worst(dist[lo : lo + rows] for lo in starts))
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
