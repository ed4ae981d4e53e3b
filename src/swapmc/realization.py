"""Concrete graph states and swap moves.

A bipartite realization is an n x m 0/1 incidence matrix with prescribed row
and column sums, optionally constrained by a *forbidden partial matching*: a
set of (u, v) positions, each row and each column occurring at most once,
that may never hold an edge.  Loop-free digraphs are n x n 0/1 adjacency
matrices with zero diagonal; their bipartite representation is the square
incidence matrix with the diagonal as forbidden matching, which puts digraph
realizations in one-to-one correspondence with restricted bipartite ones.

Moves come in three kinds:

* ``c4`` -- exchange edges (ua,va), (ub,vb) for (ua,vb), (ub,va);
* ``c6`` -- exchange three edges for three non-edges around an alternating
  hexagon whose three "opposite" vertex pairs are all forbidden;
* ``switch`` -- a +-1 update on the four corners of a 2 x 2 submatrix of an
  integer matrix, preserving all margins (used by the repair machinery).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .degrees import (
    BipartiteDegreeSequence,
    DirectedDegreeBiSequence,
    kleitman_wang_arcs,
)
from .errors import IllegalMoveError, InfeasibleSequenceError

__all__ = [
    "SwapMove",
    "BipartiteRealization",
    "DirectedRealization",
    "construct_bipartite",
    "construct_directed",
    "to_bipartite_representation",
    "from_bipartite_representation",
    "try_c4_swap",
    "try_c6_swap",
    "hamming_distance",
    "canonical_forbidden",
    "partner_arrays",
    "apply_switch",
]


# ---------------------------------------------------------------------------
# Forbidden partial matchings
# ---------------------------------------------------------------------------


def canonical_forbidden(forbidden, n: int, m: int) -> tuple[tuple[int, int], ...]:
    """Validate and sort a forbidden set; it must be a partial matching."""
    pairs = sorted((int(u), int(v)) for (u, v) in forbidden)
    seen_u: set[int] = set()
    seen_v: set[int] = set()
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < m):
            raise ValueError(f"forbidden position ({u},{v}) outside {n}x{m} grid")
        if u in seen_u or v in seen_v:
            raise ValueError("forbidden positions must form a partial matching")
        seen_u.add(u)
        seen_v.add(v)
    return tuple(pairs)


def partner_arrays(
    forbidden: tuple[tuple[int, int], ...], n: int, m: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-row / per-column forbidden partner index, -1 where unconstrained."""
    fu = [-1] * n
    fv = [-1] * m
    for u, v in forbidden:
        fu[u] = int(v)
        fv[v] = int(u)
    return tuple(fu), tuple(fv)


# ---------------------------------------------------------------------------
# Moves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SwapMove:
    """A c4-swap, c6-swap, or margin-preserving switch.

    Conventions:

    * ``c4``: ``us = (ua, ub)``, ``vs = (va, vb)``; edges (ua,va), (ub,vb)
      are deleted and (ua,vb), (ub,va) inserted.
    * ``c6``: ``us = (u1, u2, u3)``, ``vs = (v1, v2, v3)`` walk the hexagon
      u1,v1,u2,v2,u3,v3; edges (ui,vi) are deleted and (u_{i+1},vi) inserted;
      the opposite pairs (u1,v2), (u2,v3), (u3,v1) must be forbidden.
    * ``switch``: ``us = (r1, r2)``, ``vs = (c1, c2)``; ``sign`` is added at
      (r1,c1), (r2,c2) and subtracted at (r1,c2), (r2,c1).
    """

    kind: str
    us: tuple[int, ...]
    vs: tuple[int, ...]
    sign: int = 1

    @classmethod
    def c4(cls, us, vs) -> "SwapMove":
        return cls("c4", (int(us[0]), int(us[1])), (int(vs[0]), int(vs[1])))

    @classmethod
    def c6(cls, us, vs) -> "SwapMove":
        return cls(
            "c6",
            (int(us[0]), int(us[1]), int(us[2])),
            (int(vs[0]), int(vs[1]), int(vs[2])),
        )

    @classmethod
    def switch(cls, us, vs, sign: int = 1) -> "SwapMove":
        if sign not in (-1, 1):
            raise ValueError("switch sign must be +1 or -1")
        return cls("switch", (int(us[0]), int(us[1])), (int(vs[0]), int(vs[1])), sign)

    def inverse(self) -> "SwapMove":
        if self.kind == "c4":
            return SwapMove.c4(self.us, (self.vs[1], self.vs[0]))
        if self.kind == "c6":
            # Reversed traversal of the same hexagon: the inserted triple
            # becomes the deleted one and opposite pairs are preserved.
            u1, u2, u3 = self.us
            v1, v2, v3 = self.vs
            return SwapMove.c6((u1, u3, u2), (v3, v2, v1))
        return SwapMove.switch(self.us, self.vs, -self.sign)


def _exact_copy(matrix, dtype) -> np.ndarray:
    """A fresh ``dtype`` copy of ``matrix``; ``ValueError`` if the cast wraps
    or truncates an entry.  An input already of ``dtype`` is not compared."""
    src = np.asarray(matrix)
    out = src.astype(dtype)
    if src.dtype != out.dtype and not np.array_equal(out, src):
        raise ValueError(f"matrix entries do not fit {out.dtype} unchanged")
    return out


def apply_switch(M: np.ndarray, mv: SwapMove) -> None:
    """Add ``mv.sign`` at (r1,c1), (r2,c2) and subtract it at (r1,c2), (r2,c1).

    Updates the integer matrix ``M`` in place without any legality check;
    margins are preserved by construction.
    """
    (r1, r2), (c1, c2), s = mv.us, mv.vs, mv.sign
    M[r1, c1] += s
    M[r2, c2] += s
    M[r1, c2] -= s
    M[r2, c1] -= s


# ---------------------------------------------------------------------------
# Bipartite realizations
# ---------------------------------------------------------------------------


class BipartiteRealization:
    """A 0/1 incidence matrix realizing a bipartite degree sequence.

    Value-semantic: ``apply_move`` returns a fresh realization by default;
    the sampler's hot loop uses ``inplace=True``.  Both paths perform the
    same legality checks and produce identical states.
    """

    __slots__ = ("seq", "matrix", "forbidden", "_fu")

    def __init__(self, seq, matrix, forbidden=(), *, validate=True):
        self.seq = seq
        self.matrix = _exact_copy(matrix, np.uint8)
        self.forbidden = canonical_forbidden(forbidden, seq.n, seq.m)
        self._fu = partner_arrays(self.forbidden, seq.n, seq.m)[0]
        if validate:
            self.validate()

    # -- basic queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return self.seq.n

    @property
    def m(self) -> int:
        return self.seq.m

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.matrix[u, v])

    def is_chord(self, u: int, v: int) -> bool:
        """A position that may hold an edge in some realization."""
        return self._fu[u] != v

    def edges(self) -> list[tuple[int, int]]:
        us, vs = np.nonzero(self.matrix)
        return list(zip(us.tolist(), vs.tolist()))

    def key(self) -> bytes:
        """Canonical hashable identity of the state (fixed degrees/forbidden)."""
        return self.matrix.tobytes()

    def copy(self) -> "BipartiteRealization":
        """A new state with its own matrix; the immutable parts are shared."""
        return self._with_matrix(self.matrix.copy())

    def _with_matrix(self, matrix: np.ndarray) -> "BipartiteRealization":
        """A state holding ``matrix`` itself, unvalidated, that shares
        ``seq``, ``forbidden`` and ``_fu`` with this one."""
        out = BipartiteRealization.__new__(BipartiteRealization)
        out.seq, out.forbidden, out._fu = self.seq, self.forbidden, self._fu
        out.matrix = matrix
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BipartiteRealization)
            and self.seq == other.seq
            and self.forbidden == other.forbidden
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self):
        return hash((self.seq, self.forbidden, self.key()))

    def __repr__(self):
        return (
            f"BipartiteRealization(n={self.n}, m={self.m}, "
            f"edges={int(self.matrix.sum())}, forbidden={len(self.forbidden)})"
        )

    def validate(self) -> None:
        M = self.matrix
        if M.shape != (self.seq.n, self.seq.m):
            raise ValueError(f"matrix shape {M.shape} does not match degrees")
        if M.max(initial=0) > 1:
            raise ValueError("incidence entries must be 0 or 1")
        rows = M.sum(axis=1)
        cols = M.sum(axis=0)
        if tuple(rows.tolist()) != self.seq.u_degrees:
            raise ValueError(f"row sums {rows.tolist()} != u_degrees")
        if tuple(cols.tolist()) != self.seq.v_degrees:
            raise ValueError(f"column sums {cols.tolist()} != v_degrees")
        for u, v in self.forbidden:
            if M[u, v]:
                raise ValueError(f"edge on forbidden position ({u},{v})")

    # -- moves ----------------------------------------------------------------

    def apply_move(self, mv: SwapMove, inplace: bool = False) -> "BipartiteRealization":
        """Apply a legal move; raises IllegalMoveError otherwise.

        Every kind lowers some cells to 0 and raises others to 1: a c4 move
        on ``(us, vs)`` is the switch on ``(us, vs)`` with sign -1.  A move
        is legal when its lowered cells are edges and its raised cells are
        non-edges off the forbidden positions, so degree margins are
        preserved and forbidden positions are never set.
        """
        kind = mv.kind
        if kind == "c4" or kind == "switch":
            (ua, ub), (va, vb) = mv.us, mv.vs
            if ua == ub or va == vb:
                raise IllegalMoveError(f"{kind} corners must span two rows and two columns")
            lowered, raised = ((ua, va), (ub, vb)), ((ua, vb), (ub, va))
            if kind == "switch" and mv.sign == 1:
                lowered, raised = raised, lowered
        elif kind == "c6":
            u1, u2, u3 = mv.us
            v1, v2, v3 = mv.vs
            if len({u1, u2, u3}) < 3 or len({v1, v2, v3}) < 3:
                raise IllegalMoveError("c6 vertices must be distinct")
            if self.is_chord(u1, v2) or self.is_chord(u2, v3) or self.is_chord(u3, v1):
                raise IllegalMoveError("c6 opposite pairs must all be forbidden")
            lowered = ((u1, v1), (u2, v2), (u3, v3))
            raised = ((u2, v1), (u3, v2), (u1, v3))
        else:
            raise IllegalMoveError(f"unknown move kind {kind!r}")
        M, fu = self.matrix, self._fu
        for p in lowered:
            if not M[p]:
                raise IllegalMoveError(f"{kind} would lower a non-edge")
        for u, v in raised:
            if M[u, v]:
                raise IllegalMoveError(f"{kind} would raise an edge")
            if fu[u] == v:
                raise IllegalMoveError(f"{kind} would set a forbidden position")
        target = self if inplace else self.copy()
        M = target.matrix
        for p in lowered:
            M[p] = 0
        for p in raised:
            M[p] = 1
        return target


# ---------------------------------------------------------------------------
# Directed realizations
# ---------------------------------------------------------------------------


class DirectedRealization:
    """A loop-free digraph with prescribed out/in degrees (0/1 adjacency)."""

    __slots__ = ("seq", "matrix")

    def __init__(self, seq: DirectedDegreeBiSequence, matrix, *, validate=True):
        self.seq = seq
        self.matrix = _exact_copy(matrix, np.uint8)
        if validate:
            self.validate()

    @property
    def n(self) -> int:
        return self.seq.n

    def arcs(self) -> list[tuple[int, int]]:
        src, dst = np.nonzero(self.matrix)
        return list(zip(src.tolist(), dst.tolist()))

    def key(self) -> bytes:
        return self.matrix.tobytes()

    def copy(self) -> "DirectedRealization":
        return DirectedRealization(self.seq, self.matrix, validate=False)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DirectedRealization)
            and self.seq == other.seq
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self):
        return hash((self.seq, self.key()))

    def __repr__(self):
        return f"DirectedRealization(n={self.n}, arcs={int(self.matrix.sum())})"

    def validate(self) -> None:
        n = self.seq.n
        M = self.matrix
        if M.shape != (n, n):
            raise ValueError(f"adjacency shape {M.shape} does not match n={n}")
        if not np.isin(M, (0, 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        if np.diagonal(M).any():
            raise ValueError("loops are not allowed")
        if tuple(M.sum(axis=1).tolist()) != self.seq.out_degrees:
            raise ValueError("row sums do not match out_degrees")
        if tuple(M.sum(axis=0).tolist()) != self.seq.in_degrees:
            raise ValueError("column sums do not match in_degrees")


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _greedy_fill(seq: BipartiteDegreeSequence) -> np.ndarray:
    """Gale-style greedy: row by row, take the columns of largest residual."""
    caps = np.array(seq.v_degrees, dtype=np.int64)
    M = np.zeros((seq.n, seq.m), dtype=np.uint8)
    for i, d in enumerate(seq.u_degrees):
        if d == 0:
            continue
        # largest residual first, ties to the lower column index
        chosen = np.argsort(-caps, kind="stable")[:d]
        if d > seq.m or caps[chosen[-1]] <= 0:
            raise InfeasibleSequenceError(
                f"no bipartite realization: row {i} cannot place degree {d}"
            )
        caps[chosen] -= 1
        M[i, chosen] = 1
    return M


def _kleitman_wang_fill(seq: BipartiteDegreeSequence, forbidden) -> np.ndarray | None:
    """Realization avoiding a forbidden matching, via the merged digraph.

    Digraph vertex ``u < n`` is row ``u`` merged with its forbidden partner
    column, if any; each unmatched column is appended as a further vertex.
    Out-degrees are row degrees and in-degrees column degrees (0 where the
    vertex has no row or no column), and arc ``a -> b`` is the edge from
    ``a``'s row to ``b``'s column.  Loops are exactly the forbidden cells,
    so the loop-free realizations found by Kleitman-Wang are the wanted
    ones.  On the diagonal the map is the identity.  ``None`` if infeasible.
    """
    fu, fv = partner_arrays(forbidden, seq.n, seq.m)
    cols = fu + tuple(v for v in range(seq.m) if fv[v] < 0)
    out = seq.u_degrees + (0,) * (len(cols) - seq.n)
    ins = tuple(seq.v_degrees[c] if c >= 0 else 0 for c in cols)
    arcs = kleitman_wang_arcs(DirectedDegreeBiSequence(out, ins))
    if arcs is None:
        return None
    M = np.zeros((seq.n, seq.m), dtype=np.uint8)
    for a, b in arcs:
        M[a, cols[b]] = 1
    return M


def construct_bipartite(
    seq: BipartiteDegreeSequence, forbidden=()
) -> BipartiteRealization:
    """Build some realization of ``seq`` avoiding ``forbidden``.

    Without forbidden positions this is the classical greedy construction;
    with a forbidden matching it is the Kleitman-Wang construction on the
    merged digraph (see :func:`_kleitman_wang_fill`), which is exact.  For
    the diagonal it returns ``to_bipartite_representation`` of
    :func:`construct_directed`.  Deterministic output either way.

    Raises
    ------
    InfeasibleSequenceError
        If no realization exists (reported distinctly from malformed input,
        which raises ValueError at sequence construction).
    """
    forb = canonical_forbidden(forbidden, seq.n, seq.m)
    if not seq.fits_class_sizes:
        raise InfeasibleSequenceError("a degree exceeds the opposite class size")
    if not forb:
        return BipartiteRealization(seq, _greedy_fill(seq))
    matrix = _kleitman_wang_fill(seq, forb)
    if matrix is None:
        if seq.n == seq.m and forb == tuple((i, i) for i in range(seq.n)):
            raise InfeasibleSequenceError("bi-sequence has no loop-free realization")
        raise InfeasibleSequenceError("no realization avoids the forbidden matching")
    return BipartiteRealization(seq, matrix, forb)


def construct_directed(seq: DirectedDegreeBiSequence) -> DirectedRealization:
    """Build a loop-free realization via the Kleitman-Wang reduction."""
    return from_bipartite_representation(construct_bipartite(*_restricted_form(seq)))


# ---------------------------------------------------------------------------
# Digraph <-> restricted bipartite representation
# ---------------------------------------------------------------------------


def _restricted_form(
    seq, forbidden=()
) -> tuple[BipartiteDegreeSequence, tuple[tuple[int, int], ...]]:
    """``seq`` and its canonical forbidden matching as the chains run them: a
    bi-sequence becomes out-degree rows x in-degree columns and forbids
    exactly its diagonal, so its ``forbidden`` must be empty or that."""
    if not isinstance(seq, DirectedDegreeBiSequence):
        return seq, canonical_forbidden(forbidden, seq.n, seq.m)
    diag = tuple((i, i) for i in range(seq.n))
    if canonical_forbidden(forbidden, seq.n, seq.n) not in ((), diag):
        raise ValueError("a directed bi-sequence forbids exactly the diagonal")
    return BipartiteDegreeSequence(seq.out_degrees, seq.in_degrees), diag


def to_bipartite_representation(d: DirectedRealization) -> BipartiteRealization:
    """Square incidence matrix with the diagonal forbidden; arc i->j = edge (i,j).

    Vertices with zero out- or in-degree keep their (empty) row/column so
    that indices are stable under round-tripping.
    """
    seq, diag = _restricted_form(d.seq)
    return BipartiteRealization(seq, d.matrix, diag)


def from_bipartite_representation(b: BipartiteRealization) -> DirectedRealization:
    """Inverse of :func:`to_bipartite_representation`."""
    if b.n != b.m:
        raise ValueError("representation must be square")
    if b.forbidden != tuple((i, i) for i in range(b.n)):
        raise ValueError("representation must forbid exactly the diagonal")
    seq = DirectedDegreeBiSequence(b.seq.u_degrees, b.seq.v_degrees)
    return DirectedRealization(seq, b.matrix)


# ---------------------------------------------------------------------------
# Proposal helpers (shared by the chain kernels)
# ---------------------------------------------------------------------------


def try_c4_swap(r: BipartiteRealization, i, i2, j, j2) -> SwapMove | None:
    """The unique legal c4-swap on rows {i,i2} x columns {j,j2}, if any.

    At most one of the two pairings alternates, so the returned move is
    unique; ``None`` means the proposal is rejected.
    """
    M = r.matrix
    a, b = M[i, j], M[i2, j2]
    c, d = M[i, j2], M[i2, j]
    if a and b and not c and not d:
        if r.is_chord(i, j2) and r.is_chord(i2, j):
            return SwapMove.c4((i, i2), (j, j2))
        return None
    if c and d and not a and not b:
        if r.is_chord(i, j) and r.is_chord(i2, j2):
            return SwapMove.c4((i, i2), (j2, j))
    return None


def try_c6_swap(r: BipartiteRealization, us, vs) -> SwapMove | None:
    """The unique legal c6-swap on a 3+3 vertex choice, if any.

    The chosen u's and v's must pair into three forbidden positions (the
    forbidden matching itself provides the pairing); the hexagon's traversal
    direction is then determined and at most one direction alternates.
    """
    x, y, z = sorted(us)
    if len({x, y, z}) < 3:
        return None
    px, py, pz = r._fu[x], r._fu[y], r._fu[z]
    if px < 0 or py < 0 or pz < 0:
        return None
    if {px, py, pz} != {int(v) for v in vs} or len(set(vs)) < 3:
        return None
    M = r.matrix
    # The hexagon runs x, pz, y, px, z, py or the reverse way; opposite pairs
    # (x,px), (y,py), (z,pz).  Either way v_i is the partner of u_{i-1}, and
    # the move lowers (u_i, v_i) and raises (u_{i+1}, v_i) as apply_move does.
    for hu, hv in (((x, y, z), (pz, px, py)), ((x, z, y), (py, px, pz))):
        if all(M[hu[i], hv[i]] and not M[hu[(i + 1) % 3], hv[i]] for i in range(3)):
            return SwapMove.c6(hu, hv)
    return None


# ---------------------------------------------------------------------------
# Hamming distance
# ---------------------------------------------------------------------------


def _matrix_and_forbidden(obj):
    if isinstance(obj, np.ndarray):
        return obj, None
    matrix = getattr(obj, "matrix", None)
    if matrix is None:
        return np.asarray(obj), None
    return matrix, getattr(obj, "forbidden", None)


def hamming_distance(a, b) -> int:
    """Number of positions where two matrix-like states differ.

    Accepts realizations, auxiliary matrices, or plain arrays.  Forbidden
    (starred) positions are excluded from the count; if both operands carry
    a forbidden set the sets must agree.
    """
    ma, fa = _matrix_and_forbidden(a)
    mb, fb = _matrix_and_forbidden(b)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    if fa is not None and fb is not None and tuple(fa) != tuple(fb):
        raise ValueError("forbidden sets differ")
    diff = ma.astype(np.int16) != mb.astype(np.int16)
    for u, v in fa if fa is not None else (fb if fb is not None else ()):
        diff[u, v] = False
    return int(diff.sum())
