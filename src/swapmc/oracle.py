"""Ground truth for small instances.

Everything here is exhaustive or exact and intentionally independent of the
sampler's proposal code.  A :class:`StateSpace` enumerates realizations row
by row, over whole arrays of partial states, into sorted *state codes* --
each state's matrix read as one big-endian bit string -- and builds
realization objects only when asked (a separate column-recursive counter
recounts them).  A valid realization has a c4 (c6) neighbour across a
rectangle (a 3x3 block minus its three forbidden cells) exactly when its
bits alternate around that cycle; a bitwise test over all codes finds the
states that move and a sorted lookup finds where they land, without ever
invoking the chain's move-proposal logic.

The kernel, connectivity and the TV curve never build a realization: the
kernel keeps the neighbour pairs as index arrays and the holding
probabilities as a diagonal, and derives the rest from them -- the dense
``P`` and the exact rationals (each on first read), move-graph components
(vectorised label propagation), and the TV curve up to t = 2 (from ``P``'s
sparse rows, its square a sparse product; later powers are dense because
``P^3`` already is).  The last space of at most ``STATE_BUDGET`` states is
kept, codes and neighbour pairs read-only, so the kernel and connectivity
of one sequence enumerate it once.  Connectivity of the 40 320 permutation
matrices of an 8x8 grid peaks at about 84 MiB.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, combinations
from math import comb

import numpy as np

from .degrees import BipartiteDegreeSequence
from .errors import BudgetExceededError
from .realization import BipartiteRealization, canonical_forbidden, partner_arrays

__all__ = [
    "POSITION_BUDGET",
    "STATE_BUDGET",
    "StateSpace",
    "enumerate_realizations",
    "count_realizations",
    "ExactKernel",
    "exact_transition_matrix",
    "swap_graph_connected",
    "tv_curve",
]

POSITION_BUDGET = 36  # n*m cap for exhaustive enumeration
STATE_BUDGET = 5000  # |G| cap for exact transition matrices
_TV_BLOCK = 1 << 16  # matrix entries per row block of the TV reduction (512 KiB)
_EXPAND_CELLS = 1 << 18  # candidate cells per expansion chunk of the enumeration
_FLIP_CELLS = 1 << 17  # mask x state entries per chunk of the neighbour lookup

# The last enumeration, if it has at most STATE_BUDGET states, else None:
# ((seq, forbidden), codes, lookups), where lookups maps "c4" and "c6" to
# that cycle kind's neighbour pairs once found.  One entry only.  Each space
# reads it once and holds what it shares, so concurrent spaces can at worst
# enumerate or look up the same thing twice.
_enumerated = None


# ---------------------------------------------------------------------------
# State space and enumeration
# ---------------------------------------------------------------------------


class StateSpace:
    """Every realization of ``seq`` avoiding ``forbidden``, held as codes.

    A state's code is its matrix read as one big-endian bit string, row 0
    first: ``np.uint64`` up to 64 cells, exact Python ints in an object
    array above.  Each row extends every margin-feasible partial state by
    each column subset it may take (``code << m | row``), in chunks of about
    ``_EXPAND_CELLS`` cells.  Sorted ``codes`` are the canonical order (rows
    read as big-endian binary).  ``states`` builds the realization objects
    on first use only.  Raises ``BudgetExceededError`` above ``position_budget`` cells.

    The last space enumerated is kept as the module's one record if it has
    at most ``STATE_BUDGET`` states.  A new space of the same sequence and
    forbidden matching shares its read-only ``codes`` and neighbour pairs
    instead of enumerating again; each space still builds its own ``states``.
    """

    def __init__(self, seq, forbidden=(), *, position_budget: int = POSITION_BUDGET):
        global _enumerated
        n, m = seq.n, seq.m
        if n * m > position_budget:
            raise BudgetExceededError(
                f"{n}x{m} grid exceeds the enumeration budget of {position_budget} positions"
            )
        self.seq = seq
        self.forbidden = canonical_forbidden(forbidden, n, m)
        key = (seq, self.forbidden)
        record = _enumerated
        if record is not None and record[0] == key:
            _, self.codes, self._lookups = record
            return
        fu, _ = partner_arrays(self.forbidden, n, m)
        dtype = np.uint64 if n * m <= 64 else object
        small = np.min_scalar_type(-n)
        udeg, vdeg = seq.u_degrees, seq.v_degrees
        suffix = list(accumulate(reversed(udeg), max))[::-1] + [0]
        # the partial states after each row: their codes and column capacities
        codes = np.zeros(1 if seq.fits_class_sizes else 0, dtype=dtype)
        caps = np.array([vdeg] * len(codes), dtype=small).reshape(-1, m)
        for i, d in enumerate(udeg):
            sets = list(combinations([j for j in range(m) if vdeg[j] and fu[i] != j], d))
            cand = np.array([[j in c for j in range(m)] for c in sets], dtype=small).reshape(-1, m)
            bits = np.array([sum(1 << (m - 1 - j) for j in c) for c in sets], dtype=dtype)
            step = max(1, _EXPAND_CELLS // max(1, len(sets) * m))
            kept = [(codes[:0], caps[:0])]
            for lo in range(0, len(codes), step):
                left = caps[lo : lo + step, None, :] - cand
                ok = (left.min(axis=2) >= 0) & (left.max(axis=2) <= n - i - 1)
                if i < n - 1:
                    ok &= np.count_nonzero(left, axis=2) >= suffix[i + 1]
                state, row = np.nonzero(ok)
                kept.append((codes[lo + state] << m | bits[row], left[state, row]))
            codes, caps = (np.concatenate(part) for part in zip(*kept))
        self.codes = np.sort(codes[~caps.any(axis=1)])
        self.codes.flags.writeable = False
        self._lookups = {}
        _enumerated = (key, self.codes, self._lookups) if len(self) <= STATE_BUDGET else None

    def __len__(self) -> int:
        return len(self.codes)

    def index(self, state) -> int:
        """Position of a realization's code in ``codes``, found with
        ``np.searchsorted``; raises ``ValueError`` for a state outside the space."""
        n, m = self.seq.n, self.seq.m
        matrix = np.asarray(state.matrix)
        if matrix.shape != (n, m):
            raise ValueError(f"a {matrix.shape} matrix is not a state of the {n}x{m} space")
        code = int.from_bytes(np.packbits(matrix.reshape(-1)).tobytes(), "big") >> (-n * m % 8)
        i = int(np.searchsorted(self.codes, code))
        if i == len(self) or self.codes[i] != code:
            raise ValueError("the state is not in the space")
        return i

    @cached_property
    def states(self) -> list[BipartiteRealization]:
        """One validated state; the others are shallow clones of it, as
        copy() makes them, each with its own matrix."""
        if not len(self):
            return []
        n, m = self.seq.n, self.seq.m
        width = (n * m + 7) // 8
        raw = b"".join(code.to_bytes(width, "big") for code in self.codes.tolist())
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(-1, width), axis=1)
        block = bits[:, 8 * width - n * m :].reshape(-1, n, m)
        template = BipartiteRealization(self.seq, block[0], self.forbidden)
        return [template] + [template._with_matrix(M.copy()) for M in block[1:]]

    def pairs(self, c6: bool):
        """Ordered neighbour pairs as index arrays ``(i4, j4), (i6, j6)``.

        c4 moves flip the C(n,2) C(m,2) rectangles that miss every forbidden
        cell.  c6 moves, looked for only when ``c6`` is set, flip the hexagon
        that each 3-subset of the forbidden matching leaves in its 3x3 block.
        Each kind is looked up once per enumeration, shared with every space
        that shares the codes; the arrays are read-only.
        """
        n, m = self.seq.n, self.seq.m
        lookups = self._lookups
        if "c4" not in lookups:
            forbidden = set(self.forbidden)
            rectangles = [
                cycle
                for r1, r2 in combinations(range(n), 2)
                for c1, c2 in combinations(range(m), 2)
                if forbidden.isdisjoint(cycle := [(r1, c1), (r1, c2), (r2, c2), (r2, c1)])
            ]
            lookups["c4"] = _flip_lookup(self.codes, rectangles, n, m)
        if not c6:
            return lookups["c4"], (np.empty(0, dtype=np.intp),) * 2
        if "c6" not in lookups:
            hexagons = [
                [(u1, v2), (u1, v3), (u2, v3), (u2, v1), (u3, v1), (u3, v2)]
                for (u1, v1), (u2, v2), (u3, v3) in combinations(self.forbidden, 3)
            ]
            lookups["c6"] = _flip_lookup(self.codes, hexagons, n, m)
        return lookups["c4"], lookups["c6"]


def _flip_lookup(codes: np.ndarray, cycles, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Ordered pairs (i, j) whose codes differ in exactly one cycle's cells,
    cycle by cycle and ascending in i.  A cycle lists (row, column) cells,
    none forbidden, each sharing a row or a column with the next; flipping
    it keeps the margins exactly when the state's bits alternate around it,
    so only those states are looked up among the sorted codes.  The two
    arrays are read-only.
    """
    bit = [[1 << (n * m - 1 - r * m - c) for r, c in cycle] for cycle in cycles]
    even, odd = (np.array([sum(b[k::2]) for b in bit], dtype=codes.dtype) for k in (0, 1))
    mask = even | odd
    found = [(np.empty(0, dtype=np.intp),) * 2]
    step = max(1, _FLIP_CELLS // max(1, len(codes)))
    for lo in range(0, len(cycles), step):
        held = codes & mask[lo : lo + step, None]
        hit = (held == even[lo : lo + step, None]) | (held == odd[lo : lo + step, None])
        which, i = np.divmod(np.flatnonzero(hit), len(codes))
        flipped = codes[i] ^ mask[lo + which]
        j = np.searchsorted(codes, flipped)
        if not np.array_equal(codes.take(j, mode="clip"), flipped):
            raise RuntimeError("a margin-preserving flip left the state space")
        found.append((i, j))
    pairs = tuple(np.concatenate(part) for part in zip(*found))
    for a in pairs:
        a.flags.writeable = False
    return pairs


def enumerate_realizations(
    seq: BipartiteDegreeSequence,
    forbidden=(),
    *,
    position_budget: int = POSITION_BUDGET,
) -> list[BipartiteRealization]:
    """All realizations, duplicate-free, in canonical order: the states of
    a :class:`StateSpace`, which raises if ``n*m`` exceeds ``position_budget``."""
    return StateSpace(seq, forbidden, position_budget=position_budget).states


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
    forb = canonical_forbidden(forbidden, n, m)
    if not seq.fits_class_sizes:
        return 0
    _, fv = partner_arrays(forb, n, m)
    vdeg = seq.v_degrees
    max_vdeg_suffix = list(accumulate(reversed(vdeg), max))[::-1] + [0]

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
    del recurse  # its closure holds itself: free the cache now, not at a later gc
    return result


# ---------------------------------------------------------------------------
# Exact kernels
# ---------------------------------------------------------------------------


@dataclass
class ExactKernel:
    """Exact transition matrix of a kernel over the full realization set.

    ``space`` is that set as codes, and ``states`` its realization objects,
    built on first read.  ``c4_pairs`` and ``c6_pairs`` are the ordered
    neighbour pairs ``(i, j)`` of each move kind as two index arrays; every
    pair is listed in both directions and the c6 arrays are empty unless
    the kernel has c6 moves.  ``p_c4`` / ``p_c6`` are the probabilities at
    those pairs (zero when the move kind cannot fire, e.g. c6 in the
    bipartite kernel or with fewer than three vertices per class), and
    ``diagonal`` holds the float64 exact complement of each row, converted
    once.  The dense N x N ``matrix`` and the exact rationals,
    ``rational_offdiag``, are built from these on first read.
    """

    space: StateSpace
    chain_kind: str
    p_c4: Fraction
    p_c6: Fraction
    c4_pairs: tuple[np.ndarray, np.ndarray]
    c6_pairs: tuple[np.ndarray, np.ndarray]
    diagonal: np.ndarray

    @cached_property
    def matrix(self) -> np.ndarray:
        N = self.size
        (i4, j4), (i6, j6) = self.c4_pairs, self.c6_pairs
        P = np.zeros((N, N), dtype=np.float64)
        P[i4, j4] = float(self.p_c4)
        P[i6, j6] = float(self.p_c6)
        np.fill_diagonal(P, self.diagonal)
        return P

    @property
    def size(self) -> int:
        return len(self.space)

    @property
    def states(self) -> list[BipartiteRealization]:
        return self.space.states

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
    space = StateSpace(seq, forbidden, position_budget=position_budget)
    N = len(space)
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
    (i4, j4), (i6, j6) = space.pairs(chain_kind == "directed")
    # The diagonal is the exact complement of each row, converted once per
    # distinct pair of neighbour counts (k4, k6).
    counts = np.stack([np.bincount(i4, minlength=N), np.bincount(i6, minlength=N)], axis=1)
    distinct, which = np.unique(counts, axis=0, return_inverse=True)
    holding = [float(1 - int(k4) * p4 - int(k6) * p6) for k4, k6 in distinct]
    return ExactKernel(
        space=space,
        chain_kind=chain_kind,
        p_c4=p4,
        p_c6=p6,
        c4_pairs=(i4, j4),
        c6_pairs=(i6, j6),
        diagonal=np.array(holding, dtype=np.float64)[which.reshape(-1)],
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
    space = StateSpace(seq, forbidden, position_budget=position_budget)
    return _components(len(space), *space.pairs(moves == "c4+c6"))


def _sparse_rows(kernel: ExactKernel):
    """``P``'s nonzeros as CSR rows ``(src, dst, value, start)``: the neighbour
    pairs and the diagonal, sorted stably by source, row ``r`` at entries
    ``start[r]:start[r + 1]``.  Off the diagonal the values are ``p_c4`` and
    ``p_c6``, on it the kernel's ``diagonal``.
    """
    N = kernel.size
    (i4, j4), (i6, j6) = kernel.c4_pairs, kernel.c6_pairs
    src, dst = np.concatenate([i4, i6, np.arange(N)]), np.concatenate([j4, j6, np.arange(N)])
    p = np.repeat([float(kernel.p_c4), float(kernel.p_c6)], [len(i4), len(i6)])
    value = np.concatenate([p, kernel.diagonal])
    order = np.argsort(src, kind="stable")
    start = np.zeros(N + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=N), out=start[1:])
    return src[order], dst[order], value[order], start


def _square_blocks(N: int, csr, rows: int, out: np.ndarray | None):
    """Row blocks of ``P @ P``, ``rows`` rows each, from ``P``'s CSR rows.

    Each block pairs every nonzero ``P[r, k]`` of its rows with every
    nonzero ``P[k, c]`` of row ``k`` and sums the products into a dense
    block with ``np.bincount``, in CSR order.  Row ``k`` is read from
    ``(N, width)`` copies of ``dst`` and ``value`` padded with column 0 and
    the value 0.0; adding 0.0 leaves every nonnegative sum's bits as they
    are.  Each block is also copied into ``out`` when given.
    """
    src, dst, value, start = csr
    slot = np.arange(len(src)) - start[src]
    cols = np.zeros((N, int(slot.max()) + 1), dtype=np.intp)
    vals = np.zeros(cols.shape)
    cols[src, slot], vals[src, slot] = dst, value
    for lo in range(0, N, rows):
        hi = min(lo + rows, N)
        a, b = start[lo], start[hi]
        cell = ((src[a:b] - lo) * N)[:, None] + cols[dst[a:b]]
        weight = value[a:b, None] * vals[dst[a:b]]
        block = np.bincount(cell.ravel(), weight.ravel(), (hi - lo) * N).reshape(hi - lo, N)
        if out is not None:
            out[lo:hi] = block
        yield block


def tv_from_kernel(kernel: ExactKernel, horizon: int) -> list[float]:
    """Worst-case TV distance to uniform after t exact steps, t = 0..horizon.

    Each ``0.5 * |dist - 1/N|`` row sum is reduced over cache-sized blocks
    of rows in one reused buffer.  Up to t = 2 the blocks come from ``P``'s
    sparse rows and the dense ``matrix`` is not built: at t = 0 and
    t = 1 a block is ``1/N`` with the gaps of the identity's or ``P``'s
    nonzeros written in, and ``P^2`` is a sparse product, kept whole only
    when ``horizon > 2``.  ``P^3`` is dense, so later powers are ``dist @ P``.
    A kernel with no states has no distance to uniform: ``ValueError``.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if not kernel.size:
        raise ValueError("the kernel has no states")
    N = kernel.size
    uniform = 1.0 / N
    rows = max(1, _TV_BLOCK // N)
    starts = range(0, N, rows)
    buf = np.full((min(rows, N), N), uniform)
    csr = src, dst, value, start = _sparse_rows(kernel)

    def worst(blocks) -> float:
        return max(float(0.5 * block.sum(axis=1).max()) for block in blocks)

    def gaps(blocks):
        for block in blocks:
            out = buf[: len(block)]
            yield np.abs(np.subtract(block, uniform, out=out), out=out)

    def near_uniform(row_start, cell, gap):
        # |dist - 1/N| for a dist that is 0 off its CSR entries; buf is
        # 1/N throughout before and after
        for lo in starts:
            hi = min(lo + rows, N)
            a, b = row_start[lo], row_start[hi]
            at = cell[a:b] - lo * N
            buf.reshape(-1)[at] = gap[a:b]
            yield buf[: hi - lo]
            buf.reshape(-1)[at] = uniform

    diagonal = np.arange(N + 1)
    curve = [worst(near_uniform(diagonal, diagonal * (N + 1), np.full(N, 1.0 - uniform)))]
    if horizon >= 1:
        curve.append(worst(near_uniform(start, src * N + dst, np.abs(value - uniform))))
    if horizon >= 2:
        dist = np.empty((N, N)) if horizon > 2 else None
        curve.append(worst(gaps(_square_blocks(N, csr, rows, dist))))
    for _ in range(3, horizon + 1):
        dist = dist @ kernel.matrix
        curve.append(worst(gaps(dist[lo : lo + rows] for lo in starts)))
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
