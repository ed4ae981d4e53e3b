"""Executable canonical-path machinery.

Given two realizations X and Y of the same degrees and forbidden matching,
their symmetric difference decomposes into alternating cycles; toggling the
cycles one at a time visits intermediate realizations ("milestones"), and a
deterministic *sweep* turns each milestone into the next through legal c4/c6
moves; a canonical path sweeps one working realization in place, cycle by
cycle.  Along the way the auxiliary matrix ``Mhat = M_X + M_Y - M_Z`` stays
within strict bad-entry budgets (at most two entries of 2 and one of -1,
possibly after finishing a two-move double-step), and a short sequence of at
most four margin-preserving switches repairs any such matrix back into the
adjacency matrix of a genuine realization at bounded Hamming distance
(16 without a forbidden matching, 20 including the double-step completion).
All of that is implemented here as checkable procedures: path construction,
bad-entry auditing, and the switch repair, each reporting the quantities the
bounds constrain.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .errors import IllegalMoveError, RepairError
from .realization import (
    BipartiteRealization,
    SwapMove,
    _cells,
    _Grid,
    apply_switch,
    hamming_distance,
)

__all__ = [
    "Cycle",
    "CycleDecomposition",
    "AuxiliaryMatrix",
    "SweepResult",
    "PathSegment",
    "CanonicalPath",
    "BadPositionReport",
    "RepairResult",
    "RepairReport",
    "decompose",
    "milestones",
    "cornerstone",
    "sweep",
    "auxiliary_matrix",
    "build_canonical_path",
    "verify_bad_positions",
    "repair_to_realization",
    "verify_repairs",
]


# ---------------------------------------------------------------------------
# Cycles and decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cycle:
    """An alternating cycle u_1, v_1, u_2, v_2, ..., u_l, v_l.

    Chords in cyclic order are (u_1,v_1), (u_2,v_1), (u_2,v_2), (u_3,v_2),
    ...; labels alternate strictly, so all "forward" chords (u_i, v_i) carry
    one label and all "backward" chords (u_{i+1}, v_i) the other.
    ``first_is_x`` records whether (u_1, v_1) is an X-chord (an edge of the
    first realization of the decomposed pair); ``decompose`` always sets it.
    """

    us: tuple[int, ...]
    vs: tuple[int, ...]
    first_is_x: bool

    @property
    def ell(self) -> int:
        return len(self.us)

    def chords(self) -> list[tuple[int, int]]:
        out = []
        ell = self.ell
        for i in range(ell):
            out.append((self.us[i], self.vs[i]))
            out.append((self.us[(i + 1) % ell], self.vs[i]))
        return out

    def x_chords(self) -> list[tuple[int, int]]:
        return self.chords()[0 if self.first_is_x else 1 :: 2]

    def y_chords(self) -> list[tuple[int, int]]:
        return self.chords()[1 if self.first_is_x else 0 :: 2]


@dataclass(frozen=True)
class CycleDecomposition:
    cycles: tuple[Cycle, ...]


def _check_compatible(x: BipartiteRealization, y: BipartiteRealization) -> None:
    if x.seq != y.seq or x.forbidden != y.forbidden:
        raise ValueError("realizations must share degrees and forbidden matching")


def decompose(x: BipartiteRealization, y: BipartiteRealization) -> CycleDecomposition:
    """Deterministic alternating-cycle decomposition of E(X) symdiff E(Y).

    Circuits are extracted starting from the lowest-indexed row with unused
    difference chords, always leaving a row along its lowest-indexed unused
    X-chord and a column along its lowest-indexed unused Y-chord.  The walk
    stacks its vertices, and the first revisit of a vertex pops the stack
    above its earlier visit as one simple cycle (the stack stays
    duplicate-free, and even length keeps the rest alternating), rotated to
    start at a row so that its first chord is an X-chord.  The result is a
    pure function of (X, Y).
    """
    _check_compatible(x, y)
    xonly = (x.matrix == 1) & (y.matrix == 0)
    yonly = (y.matrix == 1) & (x.matrix == 0)
    # Sorted adjacency with consumption pointers; X-chords leave rows,
    # Y-chords leave columns.  One row-major scan of the X-only chords and
    # one column-major scan of the Y-only chords list each vertex's chords
    # in ascending order.
    x_adj: list[list[int]] = [[] for _ in range(x.n)]
    for u, v in zip(*(a.tolist() for a in np.nonzero(xonly))):
        x_adj[u].append(v)
    y_adj: list[list[int]] = [[] for _ in range(x.m)]
    for v, u in zip(*(a.tolist() for a in np.nonzero(yonly.T))):
        y_adj[v].append(u)
    x_ptr = [0] * x.n
    y_ptr = [0] * x.m
    pos = ([-1] * x.n, [-1] * x.m)  # stack positions of rows, columns; -1 off it

    cycles: list[Cycle] = []
    for start in range(x.n):
        # start's circuits in turn, each popping back to [start]; index parity = side.
        # They use all of start's chords, so no later walk meets its stale pos.
        stack = [start]
        pos[0][start] = 0
        u = start
        while u != start or x_ptr[start] < len(x_adj[start]):
            v = x_adj[u][x_ptr[u]]
            x_ptr[u] += 1
            u = y_adj[v][y_ptr[v]]
            y_ptr[v] += 1
            for side, w in ((1, v), (0, u)):
                s = pos[side][w]
                if s < 0:
                    pos[side][w] = len(stack)
                    stack.append(w)
                    continue
                k = s + (s & 1)  # the popped cycle's first row
                us, vs = stack[k::2], stack[k + 1 :: 2] + stack[s:k]
                cycles.append(Cycle(us=tuple(us), vs=tuple(vs), first_is_x=True))
                for i in range(s + 1, len(stack)):
                    pos[i & 1][stack[i]] = -1
                del stack[s + 1 :]
    return CycleDecomposition(tuple(cycles))


def milestones(
    x: BipartiteRealization, y: BipartiteRealization, dec: CycleDecomposition
) -> list[BipartiteRealization]:
    """H_0 = X, ..., H_l = Y, toggling one decomposition cycle at a time."""
    _check_compatible(x, y)
    out = [x.copy()]
    current = x.copy()
    for cyc in dec.cycles:
        current = current.copy()
        for u, v in cyc.chords():
            current.matrix[u, v] ^= 1
        current.validate()
        out.append(current)
    if dec.cycles and not np.array_equal(out[-1].matrix, y.matrix):
        raise ValueError("decomposition does not connect the two realizations")
    return out


# ---------------------------------------------------------------------------
# Auxiliary matrices
# ---------------------------------------------------------------------------


class AuxiliaryMatrix(_Grid):
    """Entrywise M_X + M_Y - M_Z with starred (forbidden) positions.

    Entries lie in {-1, 0, 1, 2}; stars are excluded from arithmetic and
    rendered as '*'.  Row and column sums (stars excluded) equal those of
    M_X, which the constructor verifies.
    """

    __slots__ = ()
    _DTYPE, _CELLS = np.int16, (-1, 2)
    _NOUN, _RANGE = "auxiliary", "lie in {-1, 0, 1, 2}"

    def is_star(self, u: int, v: int) -> bool:
        return self._fu[u] == v

    def bad_positions(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Positions of 2-entries and of -1-entries."""
        return _cells(self.matrix == 2), _cells(self.matrix == -1)

    def render(self) -> str:
        rows = []
        for i, row in enumerate(self.matrix.tolist()):
            cells = ("*" if self.is_star(i, j) else c for j, c in enumerate(row))
            rows.append(" ".join(f"{c:>2}" for c in cells))
        return "\n".join(rows)

    __str__ = render


def auxiliary_matrix(
    x: BipartiteRealization, y: BipartiteRealization, z: BipartiteRealization
) -> AuxiliaryMatrix:
    """``M_X + M_Y - M_Z`` over common degrees and forbidden matching."""
    _check_compatible(x, y)
    _check_compatible(x, z)
    return x._with_matrix(x.matrix.astype(np.int16) + y.matrix - z.matrix, AuxiliaryMatrix)


# ---------------------------------------------------------------------------
# Cornerstone and sweep
# ---------------------------------------------------------------------------


def cornerstone(state, cycle: Cycle) -> int:
    """Row of the cycle with minimal sum in the cycle submatrix; ties by index.

    ``state`` may be a realization or an auxiliary matrix; stars are excluded
    from the row sums.  Path construction applies the same rule to the
    auxiliary matrix ``M_X + M_Y - M_Z`` of the milestone being swept, whose
    submatrix row sums stay constant along the sweep.
    """
    return _cornerstone(state.matrix.tolist(), state._fu, cycle)


def _cornerstone(rows: list[list[int]], forb_u, cycle: Cycle) -> int:
    """``cornerstone`` on a matrix given as row lists, stars ``forb_u``."""
    cols = sorted(set(cycle.vs))
    best_u, best_sum = -1, None
    for u in sorted(set(cycle.us)):
        row, star = rows[u], forb_u[u]
        total = sum([row[v] for v in cols if v != star])
        if best_sum is None or total < best_sum:
            best_sum = total
            best_u = u
    return best_u


@dataclass
class SweepResult:
    moves: list[SwapMove]
    states: list[BipartiteRealization]  # one per move, post-move
    intermediate: list[bool]  # True where the state sits mid double-step
    norm_us: tuple[int, ...]  # cycle rows, cornerstone first
    norm_vs: tuple[int, ...]


def _normalize_cycle(
    cycle: Cycle, g: BipartiteRealization, corner: int
) -> tuple[list[int], list[int]]:
    """Rotate/reflect so us[1] is the cornerstone, (u1, v1) a non-edge of g,
    and (u1, v_l) an edge of g.  Returns 1-based padded lists."""
    if corner not in cycle.us:
        raise ValueError("cornerstone must be a row of the cycle")
    k = cycle.us.index(corner)
    us_r = [int(u) for u in cycle.us[k:] + cycle.us[:k]]
    vs_r = [int(v) for v in cycle.vs[k:] + cycle.vs[:k]]
    forward_edge = g.has_edge(us_r[0], vs_r[0])
    backward_edge = g.has_edge(us_r[0], vs_r[-1])
    if forward_edge == backward_edge:
        raise ValueError("cycle is not the symmetric difference of the pair")
    if forward_edge:
        us_r = [us_r[0]] + us_r[:0:-1]
        vs_r = vs_r[::-1]
    return [None] + us_r, [None] + vs_r  # type: ignore[list-item]


def sweep(
    g: BipartiteRealization,
    g_next: BipartiteRealization,
    cycle: Cycle,
    corner: int | None = None,
) -> SweepResult:
    """Move sequence turning milestone ``g`` into ``g_next`` along ``cycle``.

    Iteratively finds the lowest diagonal edge (u1, v_i) of the cornerstone
    u1 (by default ``cornerstone(g, cycle)``), then sweeps it down towards
    the current end chord in single steps (one c4 each); where the position
    below the start chord is forbidden, a double-step covers two cycle
    positions with either one circular c6 (when both remaining opposite
    pairs are forbidden) or two c4 moves through whichever opposite chord
    exists, edge variant first.

    Without forbidden positions only single-steps occur and a cycle with
    ``2*ell`` chords costs exactly ``ell - 1`` moves; with a forbidden
    matching the count is at most ``2*ell``.  The sweep runs on a copy of
    ``g``, after checking that ``cycle`` is exactly the pair's difference.
    """
    _check_compatible(g, g_next)
    diff = {
        (int(u), int(v)) for u, v in zip(*np.nonzero(g.matrix != g_next.matrix))
    }
    if diff != set(cycle.chords()):
        raise ValueError("cycle does not equal the symmetric difference of the pair")
    if corner is None:
        corner = cornerstone(g, cycle)
    z = g.copy()
    res = SweepResult(moves=[], states=[], intermediate=[], norm_us=(), norm_vs=())
    res.norm_us, res.norm_vs = _sweep(z, cycle, corner, res)
    if not np.array_equal(z.matrix, g_next.matrix):  # pragma: no cover - guard
        raise IllegalMoveError("sweep did not reach the next milestone")
    return res


def _sweep(z: BipartiteRealization, cycle: Cycle, corner: int, out):
    """Sweep ``cycle`` on ``z`` in place from ``corner`` (see ``sweep``).

    Every move goes through ``apply_move``'s legality checks and is
    appended with a copy of its post-move state and its double-step flag
    to ``out.moves``, ``out.states`` and ``out.intermediate``.  Returns the
    normalised rows and columns, cornerstone first."""
    us, vs = _normalize_cycle(cycle, z, corner)
    ell = cycle.ell
    u1 = us[1]
    row, star = z.matrix[u1], z._fu[u1]  # row: a view of u1's live cells
    apply, copy = z.apply_move, z.copy
    moves, states, inter = out.moves, out.states, out.intermediate

    def emit(mv: SwapMove, mid_double: bool) -> None:
        apply(mv, True)
        moves.append(mv)
        states.append(copy())
        inter.append(mid_double)

    end = 1
    while True:
        start = next((i for i in range(end + 1, ell + 1) if row[vs[i]]), None)
        if start is None:  # cannot happen on valid input
            raise IllegalMoveError("sweep lost its start chord")
        t = start
        while t > end:
            if vs[t - 1] != star:
                emit(SwapMove("c4", (u1, us[t]), (vs[t], vs[t - 1])), False)
                t -= 1
                continue
            # Double-step: (u1, vs[t-1]) is forbidden, so (u1, vs[t-2]) is a
            # chord (the forbidden set is a matching).
            q1 = (us[t], vs[t - 2])
            q2 = (us[t - 1], vs[t])
            if not z.is_chord(*q1) and not z.is_chord(*q2):
                emit(
                    SwapMove("c6", (u1, us[t], us[t - 1]), (vs[t], vs[t - 1], vs[t - 2])),
                    False,
                )
            elif z.is_chord(*q1):
                outer = SwapMove("c4", (u1, us[t]), (vs[t], vs[t - 2]))
                inner = SwapMove("c4", (us[t - 1], us[t]), (vs[t - 2], vs[t - 1]))
                first, second = (outer, inner) if z.has_edge(*q1) else (inner, outer)
                emit(first, True)
                emit(second, False)
            else:
                inner = SwapMove("c4", (us[t], us[t - 1]), (vs[t - 1], vs[t]))
                outer = SwapMove("c4", (us[t - 1], u1), (vs[t - 2], vs[t]))
                first, second = (inner, outer) if z.has_edge(*q2) else (outer, inner)
                emit(first, True)
                emit(second, False)
            t -= 2
        end = start
        if end == ell:
            break
    return tuple(us[1:]), tuple(vs[1:])


# ---------------------------------------------------------------------------
# Canonical paths
# ---------------------------------------------------------------------------


@dataclass
class PathSegment:
    """One milestone-to-milestone stretch of a canonical path."""

    cycle: Cycle
    corner: int
    norm_us: tuple[int, ...]
    norm_vs: tuple[int, ...]
    first_state: int  # index of the segment's starting milestone in states
    last_state: int  # index of the segment's final milestone

    @property
    def ell(self) -> int:
        return self.cycle.ell

    @property
    def move_count(self) -> int:
        return self.last_state - self.first_state


@dataclass
class CanonicalPath:
    """States G_0 .. G_M with milestone anchors and double-step annotations."""

    states: list[BipartiteRealization]
    moves: list[SwapMove]
    intermediate: list[bool]
    segments: list[PathSegment]

    @property
    def length(self) -> int:
        return len(self.moves)

    @property
    def milestone_indices(self) -> list[int]:
        return [0] + [seg.last_state for seg in self.segments]

    def segment_of(self, state_index: int) -> PathSegment | None:
        """The segment holding a state; a milestone belongs to the one it ends."""
        k = bisect_left(self.segments, state_index, key=attrgetter("last_state"))
        if state_index < 0 or k == len(self.segments):
            return None
        return self.segments[k]


def build_canonical_path(
    x: BipartiteRealization, y: BipartiteRealization
) -> CanonicalPath:
    """Full canonical path from X to Y with cornerstone-anchored sweeps.

    One working copy of X is swept in place through the cycles of
    ``decompose(x, y)`` in turn.  Before each sweep it is the milestone G
    being left, and the cycle's cornerstone is chosen by minimal row sum of
    the auxiliary matrix ``M_X + M_Y - M_G`` restricted to the cycle's rows
    and columns, kept as row lists from ``M_Y`` at G = X on: a sweep takes
    its cycle's X-chords out of G and puts the Y-chords in, so it adds 1 on
    the former and -1 on the latter.  Every state is reached through
    ``apply_move``'s legality checks, so each is a valid realization.
    """
    z = x.copy()
    path = CanonicalPath(states=[x.copy()], moves=[], intermediate=[False], segments=[])
    aux = y.matrix.tolist()
    for cyc in decompose(x, y).cycles:
        corner = _cornerstone(aux, x._fu, cyc)
        first = len(path.states) - 1
        norm_us, norm_vs = _sweep(z, cyc, corner, path)
        path.segments.append(
            PathSegment(cyc, corner, norm_us, norm_vs, first, len(path.states) - 1)
        )
        for u, v, w in zip(cyc.us, cyc.vs, cyc.us[1:] + cyc.us[:1]):
            aux[u][v] += 1  # an X-chord: decompose starts every cycle on one
            aux[w][v] -= 1
    if not np.array_equal(z.matrix, y.matrix):  # pragma: no cover - guard
        raise IllegalMoveError("canonical path did not reach Y")
    return path


# ---------------------------------------------------------------------------
# Path states in blocks
# ---------------------------------------------------------------------------

# Cells per audit block: a block owns max(1, _BLOCK_CELLS // (n*m)) states
# and carries the next block's first state, so a double-step intermediate
# and its completion always share a block, and an audit holds one block.
_BLOCK_CELLS = 1 << 16


def _aux_base(
    path: CanonicalPath, x: BipartiteRealization, y: BipartiteRealization
) -> np.ndarray:
    """``M_X + M_Y`` (int16) as one row of n*m cells.  Raises ``ValueError``
    unless the path joins X to Y with one double-step flag per state."""
    _check_compatible(x, y)
    states, inter = path.states, path.intermediate
    if not states or len(inter) != len(states):
        raise ValueError(f"the path has {len(states)} states, {len(inter)} double-step flags")
    if inter[-1]:
        raise ValueError("the path's last state is an intermediate without completion")
    if states[0] != x or states[-1] != y:
        raise ValueError("the path does not join the audited pair")
    return np.add(x.matrix, y.matrix, dtype=np.int16).ravel()


# The kinds of entry a of M_X + M_Y - M_Z that the audits count: a 2, a -1
# and an entry outside {0, 1}.  Realizations hold uint8 cells, so
# -255 <= a <= 510, and column a of _KINDS describes a (numpy wraps a
# negative column index round to the end).
_ENTRY = np.r_[0:511, -255:0]
_KINDS = np.stack((_ENTRY == 2, _ENTRY == -1, (_ENTRY < 0) | (_ENTRY > 1)))
_KINDS = _KINDS.astype(np.intp)


def _state_blocks(path: CanonicalPath, x: BipartiteRealization, base: np.ndarray):
    """Yield ``(start, owned, S, counts, changes)`` for the path states
    ``Z = G_{start+k}``, ``k`` up to ``owned`` inclusive (exclusive in the last block).

    ``S[k]`` holds the cells of ``G_{start+k}`` as one int16 row.  Every
    block is written into the same buffer, so ``S`` is valid only until the
    next block is drawn, and the caller may overwrite it.  ``changes =
    (flat, aux)`` lists in row-major order the cells where a state differs
    from the one before it: ``flat`` indexes ``S[1:]``, and ``aux[0]``,
    ``aux[1]`` are the auxiliary entries ``base - Z`` there before and after
    the change.  ``counts[:, k]`` holds the entries of each kind in
    ``_KINDS`` for ``G_{start+k}``: counted in full for ``G_0`` only, then
    carried through the changes from state to state and from block to
    block."""
    m = x.matrix.shape[1]
    nm = base.size
    block = max(1, _BLOCK_CELLS // nm)
    states = path.states
    pair = np.array([[0], [nm]])  # a change's index in S, before and after it
    ends = np.arange(min(block + 1, len(states))) * nm  # where each state's changes end in S[1:]
    buf = np.empty((ends.size, nm), dtype=np.int16)
    for start in range(0, len(states), block):
        chunk = states[start : start + block + 1]
        # Path states share x's seq and forbidden objects through copy().
        for z in chunk[:block]:
            if z.seq is not x.seq or z.forbidden is not x.forbidden:
                _check_compatible(x, z)
        S = buf[: len(chunk)]
        np.concatenate([z.matrix for z in chunk], out=S.reshape(-1, m))
        if not start:
            carried = _KINDS.take(base - S[0], axis=1).sum(axis=1)
        flat = (S[1:] != S[:-1]).ravel().nonzero()[0]
        # Wrapping an index of S[1:] round base gives the change's cell.
        aux = base.take(flat, mode="wrap") - S.take(flat + pair)
        kinds = _KINDS.take(aux, axis=1)
        run = np.empty((3, flat.size + 1), dtype=np.intp)
        run[:, 0] = carried
        np.subtract(kinds[:, 1], kinds[:, 0], out=run[:, 1:])
        np.add.accumulate(run, axis=1, out=run)
        counts = run.take(flat.searchsorted(ends[: len(chunk)]), axis=1)
        carried = counts[:, -1]
        yield start, min(block, len(chunk)), S, counts, (flat, aux)


# ---------------------------------------------------------------------------
# Bad-entry auditing
# ---------------------------------------------------------------------------


@dataclass
class BadPositionReport:
    """Observed bad-entry extremes along a path.

    States that are not double-step intermediates must directly satisfy the
    bound (at most two 2-entries and one -1-entry); an intermediate may
    exceed it provided its completion state (the next one) satisfies it.
    """

    max_twos_direct: int = 0
    max_minus_ones_direct: int = 0
    max_twos_intermediate: int = 0
    max_minus_ones_intermediate: int = 0
    violations: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


# A state's bad-entry budget: at most two 2-entries and one -1-entry.
_BUDGET = np.array([[2], [1]])


def verify_bad_positions(
    path: CanonicalPath, x: BipartiteRealization, y: BipartiteRealization
) -> BadPositionReport:
    """Audit every path state's auxiliary matrix against the bad-entry bound."""
    blocks = _state_blocks(path, x, _aux_base(path, x, y))
    counts = np.concatenate([c[:2, :owned] for _, owned, _, c, _ in blocks], axis=1)
    inter = np.array(path.intermediate, dtype=bool)
    over = (counts > _BUDGET).any(axis=0)
    # An intermediate is excused when its completion state is within budget.
    over[:-1] &= ~inter[:-1] | over[1:]
    direct = np.where(inter, 0, counts).max(axis=1).tolist()
    mid = np.where(inter, counts, 0).max(axis=1).tolist()
    return BadPositionReport(*direct, *mid, np.flatnonzero(over).tolist())


# ---------------------------------------------------------------------------
# Switch repair
# ---------------------------------------------------------------------------


@dataclass
class RepairResult:
    realization: BipartiteRealization
    switches: list[SwapMove]
    distance: int  # Hamming distance from the input auxiliary matrix


def repair_to_realization(
    aux: AuxiliaryMatrix,
    cycle_rows=(),
    cycle_cols=(),
    corner: int | None = None,
    bounds=None,
) -> RepairResult:
    """Turn a bad-entry-bounded auxiliary matrix into a realization.

    At most two switches eliminate the 2-entries (searching the cycle
    submatrix: a row ``u_k`` with a 0 in the 2's column, then a column
    ``v_l`` where ``u_k`` exceeds the cornerstone row), then at most two
    switches eliminate a remaining -1 via a direct exchange or, failing
    that, a pre-switch found through rows/columns adjacent to the -1's
    unit entries.  The search scans the entire matrix for the -1 phase.

    Raises
    ------
    RepairError
        When no eligible switch exists.  Under the degree-spread conditions
        this is unreachable for matrices arising along canonical paths, so a
        failure is evidence about the instance (``bounds``, when given, is
        echoed in the message).
    """
    M = aux.matrix.astype(np.int16)
    realization, switches = _repair(
        M,
        aux._stars(),
        aux,
        cycle_rows,
        cycle_cols,
        corner,
        bounds,
    )
    return RepairResult(realization, switches, hamming_distance(aux, realization))


def _first_hit(hit: np.ndarray) -> tuple[int, int] | None:
    """Row-major index pair of the first True of a 2-D mask, or None."""
    flat = np.flatnonzero(hit)
    return divmod(int(flat[0]), hit.shape[1]) if flat.size else None


def _repair(M, star, template, rows, cols, corner, bounds):
    """The switch repair of ``repair_to_realization`` on the int16 matrix
    ``M``, in place; ``star`` masks the forbidden cells.  Returns the
    validated realization that shares ``template``'s sequence and forbidden
    matching, and the switches."""
    m = M.shape[1]
    switches: list[SwapMove] = []

    twos = sorted(
        (divmod(c, m) for c in np.flatnonzero(M == 2).tolist()),
        key=lambda p: (p[1], p[0]),
    )
    if twos:
        if corner is None:
            raise ValueError("2-entries present: cycle context and cornerstone required")
        R = np.array(sorted(set(rows)), dtype=np.intp)
        C = np.array(sorted(set(cols)), dtype=np.intp)
    for u1, vj in twos:
        if u1 != corner:
            raise RepairError(
                f"2-entry at ({u1},{vj}) outside the cornerstone row {corner}"
            )
        # Donor rows u_k hold an unstarred 0 under the 2; in a donor row the
        # first unstarred column v_l where u_k exceeds u1 completes the switch.
        donor = (R != u1) & ~star[R, vj] & (M[R, vj] == 0)
        found = _first_hit(
            donor[:, None]
            & ~star[R[:, None], C]
            & ~star[u1, C]
            & (M[R[:, None], C] > M[u1, C])
        )
        if found is None:
            raise RepairError(_repair_message("2-entry", (u1, vj), bounds))
        mv = SwapMove.switch((u1, R[found[0]]), (vj, C[found[1]]), sign=-1)
        apply_switch(M, mv)
        switches.append(mv)

    minus = np.flatnonzero(M == -1).tolist()
    if len(minus) > 1:
        raise RepairError("more than one -1-entry: input exceeds the bad-entry budget")
    if minus:
        u0, v0 = divmod(minus[0], m)
        u_prime = np.flatnonzero(~star[:, v0] & (M[:, v0] == 1))
        v_prime = np.flatnonzero(~star[u0] & (M[u0] == 1))
        sub = (u_prime[:, None], v_prime)
        direct = _first_hit(~star[sub] & (M[sub] == 0))
        if direct is not None:
            u, v = u_prime[direct[0]], v_prime[direct[1]]
            mv = SwapMove.switch((u0, u), (v0, v), sign=1)
            apply_switch(M, mv)
            switches.append(mv)
        else:
            quad = _find_detour(M, star, u0, v0, u_prime.tolist(), v_prime.tolist())
            if quad is None:
                raise RepairError(_repair_message("-1-entry", (u0, v0), bounds))
            u1_, v1_, u2, v2 = quad
            mv1 = SwapMove.switch((u1_, u2), (v1_, v2), sign=-1)
            apply_switch(M, mv1)
            switches.append(mv1)
            mv2 = SwapMove.switch((u0, u1_), (v0, v1_), sign=1)
            apply_switch(M, mv2)
            switches.append(mv2)

    realization = template._with_matrix(M.astype(np.uint8), BipartiteRealization)
    realization.validate()
    return realization, switches


def _find_detour(M, star, u0, v0, u_prime, v_prime):
    """Quadruple (u1, v1, u2, v2) enabling the two-switch -1 elimination:
    M[u1,v1]=1 with u1 in U', v1 in V'; M[u2,v2]=1 with M[u2,v1]=0 and
    M[u1,v2]=0, all positions unstarred."""
    n, m = M.shape
    u_second = [u for u in range(n) if u not in u_prime and u != u0]
    v_second = [v for v in range(m) if v not in v_prime and v != v0]
    for u2 in u_second:
        for v2 in v_second:
            if star[u2, v2] or M[u2, v2] != 1:
                continue
            for v1 in v_prime:
                if star[u2, v1] or M[u2, v1] != 0:
                    continue
                for u1 in u_prime:
                    if star[u1, v2] or M[u1, v2] != 0:
                        continue
                    if not star[u1, v1] and M[u1, v1] == 1:
                        return u1, v1, u2, v2
    return None


def _repair_message(entry: str, pos, bounds) -> str:
    msg = (
        f"no eligible switch eliminates the {entry} at {pos}; this indicates the "
        "instance violates the degree-spread condition"
    )
    if bounds is not None:
        msg += f" (bounds: {bounds})"
    return msg


@dataclass
class RepairReport:
    """Repair statistics over every state of a canonical path."""

    max_switches: int = 0
    max_distance_direct: int = 0
    max_distance_intermediate: int = 0
    failures: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_repairs(
    path: CanonicalPath,
    x: BipartiteRealization,
    y: BipartiteRealization,
    bounds=None,
) -> RepairReport:
    """Repair the auxiliary matrix of every path state and collect extremes.

    Double-step intermediates are repaired through their completion state
    (distance measured from the intermediate's own auxiliary matrix, so the
    20-bound applies); all other states must repair within distance 16.
    The states are read block by block, and a clean target is a realization
    already, reached with no switch.  Each block decides its targets whose
    only bad entry is one -1 in one batch, by the direct exchange that the
    switch repair would pick.  The switch repair itself runs only for a
    target with a 2-entry or more than one -1, and for a -1 with no direct
    exchange (the detour).  ``bounds`` reaches only ``RepairError``
    messages, which the report does not keep: it lists failed states.
    """
    report = RepairReport()
    base = _aux_base(path, x, y)
    n, m = x.matrix.shape
    star = x._stars()
    starred = bool(x.forbidden)
    inter = path.intermediate
    for start, owned, S, counts, (flat, aux) in _state_blocks(path, x, base):
        A = np.subtract(base, S, out=S).reshape(-1, n, m)  # S is read no more
        # The realization check of every clean target: G_0's auxiliary
        # matrix in full, then no change sets a starred cell or moves a
        # margin (a state's changes sum to 0 in each row and column).
        first_off = not start and (
            tuple(A[0].sum(axis=1).tolist()) != x.seq.u_degrees
            or tuple(A[0].sum(axis=0).tolist()) != x.seq.v_degrees
            or (starred and A[0][star].any())
        )
        q, v = np.divmod(flat, m)  # q = k * n + u for a change into S[k + 1]
        delta = aux[1] - aux[0]
        if (
            first_off
            or (starred and star.take(flat, mode="wrap").any())
            or np.bincount(q, delta).any()
            or np.bincount(q // n * m + v, delta).any()
        ):
            raise ValueError("auxiliary margins or starred cells differ from X's")
        nbad = counts[2].tolist()
        ks = range(owned)
        ts = [k + 1 if inter[start + k] else k for k in ks]
        direct = _direct_exchanges(A, sorted({t for t in ts if nbad[t] == 1}), star)
        for k, t in zip(ks, ts):
            idx = start + k
            mid = t != k
            if t in direct:
                report.max_switches = max(report.max_switches, 1)
                # The exchange changes four cells of the target's own matrix.
                dist = int(np.count_nonzero(A[k] != direct[t][0])) if mid else 4
            elif nbad[t]:
                seg = path.segment_of(idx)
                rows = seg.norm_us if seg else ()
                cols = seg.norm_vs if seg else ()
                corner = seg.corner if seg else None
                try:
                    realization, switches = _repair(
                        A[t].copy(), star, x, rows, cols, corner, bounds
                    )
                except RepairError:
                    report.failures.append(idx)
                    continue
                report.max_switches = max(report.max_switches, len(switches))
                dist = int(np.count_nonzero(A[k] != realization.matrix))
            elif mid:
                dist = int(np.count_nonzero(A[k] != A[t]))
            else:
                continue  # a clean direct state is its own repair
            if mid:
                report.max_distance_intermediate = max(
                    report.max_distance_intermediate, dist
                )
            else:
                report.max_distance_direct = max(report.max_distance_direct, dist)
    return report


def _direct_exchanges(A, targets, star):
    """The direct exchanges of ``_repair`` for the block targets ``A[t]``,
    ``t`` in the sorted list ``targets``, decided in one batch.

    Every target holds exactly one bad entry, and a target qualifies when
    that entry is a -1, at (u0, v0).  Its candidate cells (u, v) hold an
    unstarred 0 with ``M[u, v0] = 1`` and ``M[u0, v] = 1``; the first in
    row-major order is the exchange that ``_repair`` picks, since it lists
    U' and V' in ascending order.  Returns ``{t: (repaired, ((u0, u),
    (v0, v)))}``, the int16 matrix after the sign +1 switch and the
    switch's rows and columns, for each target with a candidate; the rest
    go to ``_repair``.  The caller has checked that the block's starred
    cells are 0, so the switch, which turns the -1 and the 1s at (u0, v)
    and (u, v0) into 0s and the candidate into a 1, leaves a realization."""
    if not targets:
        return {}
    B = A[targets]
    s, _, m = B.shape
    ar = np.arange(s)
    flat = B.reshape(s, -1)
    least = flat.argmin(axis=1)
    u0, v0 = np.divmod(least, m)
    # A's starred cells are 0, so the 1s of U' and V' are unstarred.
    hit = B == 0
    hit &= ~star
    hit &= (B[ar, :, v0] == 1)[:, :, None]
    hit &= (B[ar, u0, :] == 1)[:, None, :]
    hit = hit.reshape(s, -1)
    first = hit.argmax(axis=1)
    found = hit[ar, first] & (flat[ar, least] == -1)
    out = {}
    for i, (a, b, ok) in enumerate(zip(least.tolist(), first.tolist(), found.tolist())):
        if ok:
            (r0, c0), (r, c) = divmod(a, m), divmod(b, m)
            row = flat[i]
            row[a] = row[r0 * m + c] = row[r * m + c0] = 0
            row[b] = 1
            out[targets[i]] = (B[i], ((r0, r), (c0, c)))
    return out
