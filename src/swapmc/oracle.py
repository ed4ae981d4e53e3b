"""Ground truth for small instances.

Everything here is exhaustive or exact and intentionally independent of the
sampler's proposal code.  A :class:`StateSpace` enumerates realizations row
by row, over whole arrays of partial states, into sorted *state codes* --
each state's matrix read as one big-endian bit string -- and builds
realization objects only when asked (a separate column-recursive counter
recounts them).  Whether a row may take a column subset is decided on
per-state column bitmasks, one integer test per (state, subset).  A valid
realization has a c4 (c6) neighbour across a rectangle (a 3x3 block minus
its three forbidden cells) exactly when its bits alternate around that
cycle; a bitwise test over all codes finds the states that move, and each
cycle's states of one alternation pair by rank with those of the other,
without ever invoking the chain's move-proposal logic.

Every entry point takes a bipartite sequence or a directed bi-sequence,
the latter through its bipartite representation (the diagonal forbidden).
The kernel, connectivity and the TV curve never build a realization: the
kernel keeps the neighbour pairs as index arrays and derives the rest from
them -- the holding diagonal, the dense ``P`` and the exact rationals (each
on first read), move-graph components and symmetry orbits (one vectorised
label propagation), and the TV curve.
The curve reads one table, ``D P``'s padded integer rows: exact, correctly
rounded sums over one row per symmetry orbit up to t = 2, then dense floats
from the table over ``D``, because ``P^3`` already is dense.  The
last space of at most ``STATE_BUDGET`` states is kept, codes and neighbour
pairs read-only, so the kernel and connectivity of one sequence enumerate
it once.  Connectivity of the 40 320 permutation matrices of an 8x8 grid
peaks at about 84 MiB.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, combinations
from math import comb, lcm

import numpy as np

from .degrees import BipartiteDegreeSequence, DirectedDegreeBiSequence
from .errors import BudgetExceededError
from .realization import BipartiteRealization, _kernel_form, _restricted_form, partner_arrays

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
_TV_BLOCK = 1 << 15  # matrix entries per row block of the TV reduction (256 KiB)
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
    """Every realization of ``seq`` avoiding ``forbidden``, held as codes;
    both are kept as their :func:`_restricted_form`, so a bi-sequence's
    space is that of its bipartite representation.

    A state's code is its matrix read as one big-endian bit string, row 0
    first: ``np.uint64`` up to 64 cells, exact Python ints in an object
    array above.  Each row extends every margin-feasible partial state by
    each column subset it may take (``code << m | row``), in chunks of about
    ``_EXPAND_CELLS`` cells.  A partial state keeps its column capacities,
    and each chunk reads them as column bitmasks (:func:`_column_words`,
    words of up to 64 columns): the row must take the columns whose
    capacity equals the rows left, none that is full, and may take at most
    so many columns of capacity 1 that the later rows still find enough
    columns open (one ``np.bitwise_count``).  Only the extensions kept pay
    for their new capacities, and the last row, which takes every column
    left, for none.  Sorted ``codes`` are the canonical order (rows read as
    big-endian binary).  ``states`` builds the realization objects on first
    use only.  Raises ``BudgetExceededError`` above ``position_budget`` cells.

    The last space enumerated is kept as the module's one record if it has
    at most ``STATE_BUDGET`` states.  A new space of the same sequence and
    forbidden matching shares its read-only ``codes`` and neighbour pairs
    instead of enumerating again; each space still builds its own ``states``.
    """

    def __init__(self, seq, forbidden=(), *, position_budget: int = POSITION_BUDGET):
        global _enumerated
        seq, self.forbidden = _restricted_form(seq, forbidden)
        n, m = seq.n, seq.m
        if n * m > position_budget:
            raise BudgetExceededError(
                f"{n}x{m} grid exceeds the enumeration budget of {position_budget} positions"
            )
        self.seq = seq
        key = (seq, self.forbidden)
        record = _enumerated
        if record is not None and record[0] == key:
            _, self.codes, self._lookups = record
            return
        fu, _ = partner_arrays(self.forbidden, n, m)
        dtype = np.uint64 if n * m <= 64 else object
        small = np.min_scalar_type(-n)
        word = np.min_scalar_type((1 << min(m, 64)) - 1).newbyteorder("<")
        udeg, vdeg = seq.u_degrees, seq.v_degrees
        suffix = list(accumulate(reversed(udeg), max))[::-1] + [0]
        # the partial states after each row: their codes and column capacities
        codes = np.zeros(1 if seq.fits_class_sizes else 0, dtype=dtype)
        caps = np.array([vdeg] * len(codes), dtype=small).reshape(-1, m)
        for i, d in enumerate(udeg):
            sets = list(combinations([j for j in range(m) if vdeg[j] and fu[i] != j], d))
            cand = np.array([[j in c for j in range(m)] for c in sets], dtype=small).reshape(-1, m)
            bits = np.array([sum(1 << (m - 1 - j) for j in c) for c in sets], dtype=dtype)
            take = _column_words(cand != 0, word)
            step = max(1, _EXPAND_CELLS // max(1, len(sets) * m))
            kept, left = [codes[:0]], [caps[:0]]
            for lo in range(0, len(codes), step):
                part = caps[lo : lo + step]
                # the row takes the columns whose capacity is the rows left,
                # and no full one: on these "shut" columns it takes "must"
                must = part == n - i
                shut, must = _column_words(must | (part == 0), word), _column_words(must, word)
                ok = reduce(
                    np.logical_and,
                    ((t & s[:, None]) == u[:, None] for t, s, u in zip(take, shut, must)),
                )
                state, row = np.divmod(np.flatnonzero(ok), len(sets))
                # capacities are at most 1 before the last row, which takes
                # every column left: its states are complete
                if i < n - 1:
                    # later rows need suffix[i + 1] columns with capacity
                    # left, and shut ^ must are the full ones
                    full = np.bitwise_count(shut ^ must).sum(axis=0, dtype=np.intp)
                    one = _column_words(part == 1, word)
                    lost = np.bitwise_count(take[:, row] & one[:, state]).sum(axis=0, dtype=np.intp)
                    spare = m - suffix[i + 1] - full
                    keep = lost <= spare[state]
                    state, row = state[keep], row[keep]
                    left.append(part[state] - cand[row])
                kept.append(codes[lo + state] << m | bits[row])
            codes, caps = np.concatenate(kept), np.concatenate(left)
        self.codes = np.sort(codes)
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


def _column_words(flags: np.ndarray, word: np.dtype) -> np.ndarray:
    """Each row of a ``(k, m)`` boolean array as unsigned ``word``s, column
    ``j`` at bit ``j % w`` of word ``j // w`` for ``w``-bit words: a
    ``(words, k)`` array."""
    packed = np.packbits(flags, axis=1, bitorder="little")
    if short := -packed.shape[1] % word.itemsize:
        packed = np.concatenate([packed, np.zeros((len(packed), short), np.uint8)], axis=1)
    return packed.view(word).T


def _flip_lookup(codes: np.ndarray, cycles, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Ordered pairs (i, j) whose codes differ in exactly one cycle's cells,
    cycle by cycle and ascending in i.  A cycle lists (row, column) cells,
    none forbidden, each sharing a row or a column with the next; flipping
    it keeps the margins exactly when the state's bits alternate around it,
    and maps the states that show its even cells set onto those that show
    its odd cells set.  Within each set the states agree on the cycle's
    cells, so the flip keeps their order: a cycle's k-th even state pairs
    with its k-th odd state.
    ``RuntimeError`` unless every such pair differs by the cycle's cells
    (then every flip lands in the space).  The two arrays are read-only.
    """
    bit = [[1 << (n * m - 1 - r * m - c) for r, c in cycle] for cycle in cycles]
    even, odd = (np.array([sum(b[k::2]) for b in bit], dtype=codes.dtype) for k in (0, 1))
    mask = even | odd
    found = [(np.empty(0, dtype=np.intp),) * 2]
    step = max(1, _FLIP_CELLS // max(1, len(codes)))
    for lo in range(0, len(cycles), step):
        held = codes & mask[lo : lo + step, None]
        shows_even = held == even[lo : lo + step, None]
        hit = np.flatnonzero(shows_even | (held == odd[lo : lo + step, None]))
        which, i = np.divmod(hit, len(codes))
        up = shows_even.ravel()[hit]
        down = ~up
        a, b, cycle = i[up], i[down], which[up]
        if not (
            np.array_equal(cycle, which[down])
            and np.array_equal(codes[a] ^ mask[lo + cycle], codes[b])
        ):
            raise RuntimeError("a margin-preserving flip left the state space")
        j = np.empty_like(i)
        j[up], j[down] = b, a
        found.append((i, j))
    pairs = tuple(np.concatenate(part) for part in zip(*found))
    for a in pairs:
        a.flags.writeable = False
    return pairs


def enumerate_realizations(
    seq: BipartiteDegreeSequence | DirectedDegreeBiSequence,
    forbidden=(),
    *,
    position_budget: int = POSITION_BUDGET,
) -> list[BipartiteRealization]:
    """All realizations, duplicate-free, in canonical order: the states of
    a :class:`StateSpace`, which raises if ``n*m`` exceeds ``position_budget``."""
    return StateSpace(seq, forbidden, position_budget=position_budget).states


def count_realizations(
    seq: BipartiteDegreeSequence | DirectedDegreeBiSequence,
    forbidden=(),
    *,
    position_budget: int = POSITION_BUDGET,
) -> int:
    """Count realizations by a column-recursive memoized method.

    Independent of :func:`enumerate_realizations` (columns instead of rows,
    counting instead of construction); the two must agree, which the test
    suite uses as a cross-check.
    """
    seq, forb = _restricted_form(seq, forbidden)
    n, m = seq.n, seq.m
    if n * m > position_budget:
        raise BudgetExceededError(
            f"{n}x{m} grid exceeds the counting budget of {position_budget} positions"
        )
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
    bipartite kernel or with fewer than three vertices per class).
    ``diagonal``, each row's holding mass in ``D P`` over ``D``
    (:func:`_holding`), ``matrix`` and ``rational_offdiag`` are derived from
    them on first read, so a ``dataclasses.replace`` copy derives its own.
    """

    space: StateSpace
    chain_kind: str
    p_c4: Fraction
    p_c6: Fraction
    c4_pairs: tuple[np.ndarray, np.ndarray]
    c6_pairs: tuple[np.ndarray, np.ndarray]

    @cached_property
    def diagonal(self) -> np.ndarray:
        D, holding = _holding(self.p_c4, self.p_c6, self.c4_pairs[0], self.c6_pairs[0], self.size)
        return (holding / D).astype(np.float64, copy=False)

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
    seq: BipartiteDegreeSequence | DirectedDegreeBiSequence,
    forbidden=(),
    chain_kind: str = "bipartite",
    *,
    state_budget: int = STATE_BUDGET,
    position_budget: int = POSITION_BUDGET,
) -> ExactKernel:
    """Exact kernel over the enumerated realization set.

    ``seq`` and ``forbidden`` must fit ``chain_kind`` as they must for
    ``sample()`` (:func:`_kernel_form`); a ``DirectedDegreeBiSequence``
    runs on its bipartite representation.  Off-diagonal entries are the
    exact jumping probabilities: with ``n=|U|`` and ``m=|V|``,
    ``1/(2 C(n,2) C(m,2))`` for the bipartite kernel, and
    ``1/(4 C(n,2) C(m,2))`` / ``1/(4 C(n,3) C(m,3))`` for the c4/c6 moves of
    the restricted kernel.  Diagonals absorb the rest; rows sum to one.
    """
    seq, forbidden = _kernel_form(seq, forbidden, chain_kind)
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
    c4_pairs, c6_pairs = space.pairs(chain_kind == "directed")
    return ExactKernel(space, chain_kind, p4, p6, c4_pairs, c6_pairs)


def _holding(p_c4: Fraction, p_c6: Fraction, i4: np.ndarray, i6: np.ndarray, size: int):
    """``D``, the lcm of ``p_c4``'s and ``p_c6``'s denominators, and each row's
    holding mass in ``D P``, ``D - k4 p_c4 D - k6 p_c6 D`` with ``k`` its count
    among the sources ``i4`` / ``i6``.  IEEE 754 division of these exact float64
    integers rounds ``holding / D`` correctly; from 2^53, Python ints' does."""
    D = lcm(p_c4.denominator, p_c6.denominator)
    wide = object if D >> 53 else np.int64
    k4, k6 = (np.bincount(i, minlength=size).astype(wide, copy=False) for i in (i4, i6))
    return D, D - k4 * int(p_c4 * D) - k6 * int(p_c6 * D)


def _labels(size: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Each vertex's component label in the graph on ``range(size)`` whose
    edges are ``(src[e], dst[e])``, each edge listed in both directions: the
    smallest vertex of its component.

    Every vertex starts as its own label.  Each round lowers the label of
    every edge's source root to the edge's target label, then jumps
    pointers until each label is a root (``label[r] == r``).  Labels only
    fall and always name a vertex of the same component, so once a round
    changes nothing every component carries one root label, its smallest
    vertex (whose label can fall no lower).
    """
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
            return label
        label = lowered


def _components(size: int, *pairs: tuple[np.ndarray, np.ndarray]) -> tuple[bool, int]:
    """(connected, component count) of the graph on ``range(size)`` whose
    edges are the given ``(i, j)`` index arrays, each edge in both
    directions, from :func:`_labels`."""
    if size == 0:
        return False, 0
    src = np.concatenate([i for i, _ in pairs])
    dst = np.concatenate([j for _, j in pairs])
    components = int(np.count_nonzero(_labels(size, src, dst) == np.arange(size)))
    return components == 1, components


def swap_graph_connected(
    seq: BipartiteDegreeSequence | DirectedDegreeBiSequence,
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


def _relabellings(space: StateSpace) -> list[list[tuple[int, int]]]:
    """Generators of the relabellings that keep the degrees and the
    forbidden matching, so commute with either kernel: transpositions of
    consecutive members of each class of unmatched rows of one degree, of
    unmatched columns of one degree, and of matched rows of one (row
    degree, partner-column degree), each row swapped with its partner
    column too.  A generator is the bit-group swaps ``(shift, low)`` that
    apply it to a code: the bits ``low`` trade places with ``low << shift``.
    """
    seq = space.seq
    n, m = seq.n, seq.m
    udeg, vdeg = seq.u_degrees, seq.v_degrees
    fu, fv = partner_arrays(space.forbidden, n, m)
    last_row = (1 << m) - 1
    last_col = sum(1 << r * m for r in range(n))

    def rows(a, b):
        a, b = sorted((a, b))
        return (b - a) * m, last_row << (n - 1 - b) * m

    def cols(a, b):
        a, b = sorted((a, b))
        return b - a, last_col << m - 1 - b

    classes = {}
    for i in range(n):
        key = ("row", udeg[i]) if fu[i] < 0 else ("matched", udeg[i], vdeg[fu[i]])
        classes.setdefault(key, []).append(i)
    for j in range(m):
        if fv[j] < 0:
            classes.setdefault(("column", vdeg[j]), []).append(j)
    generators = []
    for (kind, *_), members in classes.items():
        for a, b in zip(members, members[1:]):
            if kind == "row":
                generators.append([rows(a, b)])
            elif kind == "column":
                generators.append([cols(a, b)])
            else:
                generators.append([rows(a, b), cols(fu[a], fu[b])])
    return generators


def _relabel(codes: np.ndarray, swaps, cells: int) -> np.ndarray:
    """Every code's image under the bit-group swaps of one generator, in the
    codes' own dtype (``np.uint64`` or Python ints)."""
    for shift, low in swaps:
        high = low << shift
        keep = (1 << cells) - 1 ^ low ^ high
        keep, low = (np.array(x, dtype=codes.dtype) for x in (keep, low))
        codes = (codes & keep) | ((codes >> shift) & low) | ((codes & low) << shift)
    return codes


def _orbits(space: StateSpace) -> np.ndarray:
    """Each state's orbit label under :func:`_relabellings`: the smallest
    index in its orbit.  Each generator's image of every code is looked up
    among the sorted codes, and the orbits are the components of the edges
    ``(i, g(i))``, which list each edge both ways because ``g`` is an
    involution.  Raises ``RuntimeError`` if an image leaves the space."""
    codes, size = space.codes, len(space)
    cells = space.seq.n * space.seq.m
    index = np.arange(size)
    src, dst = [index[:0]], [index[:0]]
    for swaps in _relabellings(space):
        image = _relabel(codes, swaps, cells)
        j = np.searchsorted(codes, image)
        if not np.array_equal(codes.take(j, mode="clip"), image):
            raise RuntimeError("a relabelling left the state space")
        src.append(index)
        dst.append(j)
    return _labels(size, np.concatenate(src), np.concatenate(dst))


def _table(kernel: ExactKernel) -> tuple[int, np.ndarray, np.ndarray]:
    """``D`` and ``D P``'s rows as ``(N, width)`` arrays of columns and
    integer values: the neighbour pairs, valued ``p_c4 D`` and ``p_c6 D``,
    then the diagonal, valued by :func:`_holding`, sorted stably by source
    row and padded with column 0 and the value 0.0."""
    N = kernel.size
    (i4, j4), (i6, j6) = kernel.c4_pairs, kernel.c6_pairs
    D, holding = _holding(kernel.p_c4, kernel.p_c6, i4, i6, N)
    src, dst = np.concatenate([i4, i6, np.arange(N)]), np.concatenate([j4, j6, np.arange(N)])
    a4, a6 = int(kernel.p_c4 * D), int(kernel.p_c6 * D)
    value = np.concatenate([np.repeat([a4, a6], [len(i4), len(i6)]), holding])
    # a stable sort of the same keys at the narrowest width (numpy
    # radix-sorts keys of 16 bits or less) gives the same permutation
    order = np.argsort(src.astype(np.min_scalar_type(N)), kind="stable")
    count = np.bincount(src, minlength=N)
    src = src[order]
    slot = np.arange(len(src)) - (np.cumsum(count) - count)[src]
    cols = np.zeros((N, int(count.max())), dtype=np.intp)
    vals = np.zeros(cols.shape)
    cols[src, slot], vals[src, slot] = dst[order], value[order]
    return D, cols, vals


def _square_rows(cols: np.ndarray, vals: np.ndarray, rows: np.ndarray, scale=1.0) -> np.ndarray:
    """Rows ``rows`` of ``scale`` times the square of the padded matrix, as a
    dense block: every entry ``[r, k]`` is paired with every entry of row
    ``k`` and the products are summed with ``np.bincount``, cell by cell in
    the order of ``r``'s entries and then ``k``'s.  Padding adds 0.0, which
    leaves every nonnegative sum's bits as they are."""
    N = len(cols)
    mid = cols[rows]
    cell = cols[mid]
    cell += (np.arange(len(rows)) * N)[:, None, None]
    weight = vals[mid]
    weight *= (scale * vals[rows])[:, :, None]
    return np.bincount(cell.ravel(), weight.ravel(), len(rows) * N).reshape(-1, N)


def tv_from_kernel(kernel: ExactKernel, horizon: int) -> list[float]:
    """Worst-case TV distance to uniform after t exact steps, t = 0..horizon.

    Entries for t <= 2 are exact, correctly rounded, and read from one row
    per orbit of the relabellings that commute with the kernel
    (:func:`_orbits`): rows in one orbit have the same exact distance.  With
    ``D`` the lcm of ``p_c4``'s and ``p_c6``'s denominators, ``A = D P`` is
    an integer matrix and row ``r``'s distance at step t is ``S / (2 N D^t)``
    with ``S = sum_c |N (A^t)[r, c] - D^t|``, an integer below ``2^53``, so
    float64 sums of it are exact in any order; one Python ``int / int``
    division of the largest ``S`` rounds it.  t = 1 reads the representatives'
    rows of ``A``'s padded table (:func:`_table`), and t = 2 their rows of
    its square, where only cells above ``D^2`` count because rows of ``A^2``
    sum to ``D^2``.  ``BudgetExceededError`` if ``2 N D^t`` reaches ``2^53``.

    Entries for t >= 3 are floats from dense rows: the table over ``D`` is
    ``P``'s rows, correctly rounded; its square over all rows, then ``dist @
    P``, are reduced as ``0.5 * |dist - 1/N|`` row sums over cache-sized
    blocks of rows.  A kernel with no states has no distance: ``ValueError``.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if not kernel.size:
        raise ValueError("the kernel has no states")
    N = kernel.size
    curve = [(N - 1) / N]
    if horizon == 0:
        return curve
    D, cols, vals = _table(kernel)
    bound = 2 * N * D ** min(horizon, 2)
    if bound >= 1 << 53:
        raise BudgetExceededError(f"exact TV needs 2*N*D^t = {bound} below 2^53")
    reps = np.flatnonzero(_orbits(kernel.space) == np.arange(N))
    # t = 1: |N a - D| over each row's padded slots, D for each other cell
    s1 = np.abs(N * vals[reps] - D).sum(axis=1).max() + (N - cols.shape[1]) * D
    curve.append(int(s1) / (2 * N * D))
    rows = max(1, _TV_BLOCK // N)
    if horizon >= 2:
        # t = 2: sum_c |y_c - D^2| = 2 (N D^2 - sum_c min(y_c, D^2)), y = N A^2[r]
        total = N * D * D
        low = total
        for lo in range(0, len(reps), rows):
            block = _square_rows(cols, vals, reps[lo : lo + rows], N)
            np.minimum(block, D * D, out=block)
            low = min(low, int(block.sum(axis=1).min()))
        curve.append((total - low) / total)
    if horizon <= 2:
        return curve
    vals /= D  # P's rows, each value correctly rounded
    dist = np.empty((N, N))
    for lo in range(0, N, rows):
        dist[lo : lo + rows] = _square_rows(cols, vals, np.arange(lo, min(lo + rows, N)))
    uniform = 1.0 / N
    buf = np.empty((min(rows, N), N))
    for _ in range(3, horizon + 1):
        dist = dist @ kernel.matrix
        tv = 0.0
        for lo in range(0, N, rows):
            out = buf[: min(rows, N - lo)]
            np.abs(np.subtract(dist[lo : lo + rows], uniform, out=out), out=out)
            tv = max(tv, float(0.5 * out.sum(axis=1).max()))
        curve.append(tv)
    return curve


def tv_curve(
    seq: BipartiteDegreeSequence | DirectedDegreeBiSequence,
    forbidden=(),
    chain_kind: str = "bipartite",
    horizon: int = 50,
    *,
    state_budget: int = STATE_BUDGET,
) -> list[float]:
    """Worst-case total-variation distance to uniform after t exact steps.

    Entry ``t`` is ``max_s TV(P^t[s, .], uniform)``; the sequence is
    non-increasing because uniform is stationary for both kernels.  As in
    :func:`tv_from_kernel`, entries for t <= 2 are exact, correctly rounded
    and read from one row per symmetry orbit of ``D P``'s integer table,
    and entries for t >= 3 are dense floats from that table divided by ``D``.
    """
    kernel = exact_transition_matrix(
        seq, forbidden, chain_kind, state_budget=state_budget
    )
    return tv_from_kernel(kernel, horizon)
