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

import functools
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


def _cells(mask: np.ndarray) -> list[tuple[int, int]]:
    """The (row, column) pairs of a matrix's nonzero cells, row by row."""
    rows, cols = np.nonzero(mask)
    return list(zip(rows.tolist(), cols.tolist()))


def _exact_copy(matrix, dtype) -> np.ndarray:
    """A fresh ``dtype`` copy of ``matrix``; ``ValueError`` if the cast wraps
    or truncates an entry, or cannot convert one at all (an integer beyond
    int64, ``None``).  An input already of ``dtype`` is not compared."""
    src = np.asarray(matrix)
    try:
        out = src.astype(dtype)
    except (OverflowError, TypeError) as exc:
        raise ValueError(f"matrix entries do not fit {np.dtype(dtype)}") from exc
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
# The grid core
# ---------------------------------------------------------------------------


class _Grid:
    """An integer matrix on the grid of a degree sequence.

    The invariant: n x m cells of type ``_DTYPE`` with entries in ``_CELLS``,
    the row and column sums of ``_form``, and every forbidden cell 0.  ``seq``
    is the sequence as given, which must be a ``_SEQ``, and ``_form`` with
    ``forbidden`` is its :func:`_restricted_form`; ``_fu`` holds each row's
    forbidden partner column, -1 where it has none.
    """

    __slots__ = ("seq", "matrix", "forbidden", "_fu", "_form")
    _SEQ = BipartiteDegreeSequence
    _DTYPE, _CELLS = np.uint8, (0, 1)
    _NOUN, _RANGE = "incidence", "be 0 or 1"

    def __init__(self, seq, matrix, forbidden=(), *, validate=True):
        if not isinstance(seq, self._SEQ):
            raise TypeError(
                f"{type(self).__name__} needs a {self._SEQ.__name__}, "
                f"not a {type(seq).__name__}"
            )
        self.seq = seq
        self.matrix = _exact_copy(matrix, self._DTYPE)
        self._form, self.forbidden = _restricted_form(seq, forbidden)
        self._fu = partner_arrays(self.forbidden, self._form.n, self._form.m)[0]
        if validate:
            self.validate()

    def _with_matrix(self, matrix: np.ndarray, cls=None):
        """A ``cls`` (by default this one's class) holding ``matrix`` itself,
        unvalidated, that shares every other field with this one."""
        out = object.__new__(cls or type(self))
        out.seq, out.forbidden, out._fu = self.seq, self.forbidden, self._fu
        out._form, out.matrix = self._form, matrix
        return out

    def _stars(self) -> np.ndarray:
        """The forbidden cells as a boolean mask of the matrix's shape."""
        star = np.zeros(self.matrix.shape, dtype=bool)
        for u, v in self.forbidden:
            star[u, v] = True
        return star

    def validate(self) -> None:
        M, form, noun = self.matrix, self._form, self._NOUN
        if M.shape != (form.n, form.m):
            raise ValueError(f"{noun} shape {M.shape} does not match degrees")
        low, high = self._CELLS
        # a floor of 0 needs no check: those cells are unsigned
        if M.max(initial=low) > high or (low < 0 and M.min(initial=low) < low):
            raise ValueError(f"{noun} entries must {self._RANGE}")
        for u, v in self.forbidden:
            if M[u, v]:
                raise ValueError(f"{noun} entry on forbidden position ({u},{v})")
        rows, cols = M.sum(axis=1).tolist(), M.sum(axis=0).tolist()
        if tuple(rows) != form.u_degrees:
            raise ValueError(f"{noun} row sums {rows} != {list(form.u_degrees)}")
        if tuple(cols) != form.v_degrees:
            raise ValueError(f"{noun} column sums {cols} != {list(form.v_degrees)}")


class _State(_Grid):
    """A realization: a 0/1 grid that is identified by its cells."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return self.seq.n

    def key(self) -> bytes:
        """Canonical hashable identity of the state (fixed degrees/forbidden)."""
        return self.matrix.tobytes()

    def copy(self):
        """A new state with its own matrix; the immutable parts are shared."""
        return self._with_matrix(self.matrix.copy())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.seq == other.seq
            and self.forbidden == other.forbidden
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self):
        return hash((self.seq, self.forbidden, self.key()))


# ---------------------------------------------------------------------------
# Bipartite realizations
# ---------------------------------------------------------------------------


class BipartiteRealization(_State):
    """A 0/1 incidence matrix realizing a bipartite degree sequence.

    Value-semantic: ``apply_move`` returns a fresh realization by default;
    the sampler's hot loop uses ``inplace=True``.  Both paths perform the
    same legality checks and produce identical states.
    """

    __slots__ = ()

    # -- basic queries ------------------------------------------------------

    @property
    def m(self) -> int:
        return self.seq.m

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.matrix[u, v])

    def is_chord(self, u: int, v: int) -> bool:
        """A position that may hold an edge in some realization."""
        return self._fu[u] != v

    def edges(self) -> list[tuple[int, int]]:
        return _cells(self.matrix)

    def __repr__(self):
        return (
            f"BipartiteRealization(n={self.n}, m={self.m}, "
            f"edges={int(self.matrix.sum())}, forbidden={len(self.forbidden)})"
        )

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


class DirectedRealization(_State):
    """A loop-free digraph with prescribed out/in degrees (0/1 adjacency):
    the grid of out-degree rows and in-degree columns with the diagonal
    forbidden."""

    __slots__ = ()
    _SEQ = DirectedDegreeBiSequence
    _NOUN = "adjacency"

    def __init__(self, seq: DirectedDegreeBiSequence, matrix, *, validate=True):
        super().__init__(seq, matrix, validate=validate)

    def arcs(self) -> list[tuple[int, int]]:
        return _cells(self.matrix)

    def __repr__(self):
        return f"DirectedRealization(n={self.n}, arcs={int(self.matrix.sum())})"


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


def _kernel_form(seq, forbidden, chain_kind: str):
    """``seq`` and ``forbidden`` in :func:`_restricted_form`, refused unless
    they fit the ``chain_kind`` kernel: a bi-sequence needs the restricted
    one, and the matching must pass :func:`_fit_kernel`."""
    if isinstance(seq, DirectedDegreeBiSequence) and chain_kind != "directed":
        raise ValueError("directed bi-sequences require chain_kind='directed'")
    seq, forbidden = _restricted_form(seq, forbidden)
    _fit_kernel(forbidden, chain_kind == "directed")
    return seq, forbidden


def _fit_kernel(forbidden, c6: bool) -> None:
    """The kernel-fit rule: the restricted kernel (``c6``) runs on a forbidden
    matching, and the bipartite kernel on none."""
    if c6 and not forbidden:
        raise ValueError("restricted kernel requires a forbidden matching")
    if forbidden and not c6:
        raise ValueError("bipartite kernel requires an empty forbidden set")


def to_bipartite_representation(d: DirectedRealization) -> BipartiteRealization:
    """Square incidence matrix with the diagonal forbidden; arc i->j = edge (i,j).

    Vertices with zero out- or in-degree keep their (empty) row/column so
    that indices are stable under round-tripping.
    """
    return BipartiteRealization(d._form, d.matrix, d.forbidden)


@functools.lru_cache(maxsize=1)
def _digraph_template(seq: BipartiteDegreeSequence) -> DirectedRealization:
    """An empty digraph whose out- and in-degrees are ``seq``'s row and column
    degrees.  The last one built is kept, so the samples of one sequence
    share its bi-sequence, margins, diagonal and partner tuple."""
    digraph = DirectedDegreeBiSequence(seq.u_degrees, seq.v_degrees)
    return DirectedRealization(digraph, np.zeros((seq.n, seq.m), np.uint8), validate=False)


def from_bipartite_representation(b: BipartiteRealization) -> DirectedRealization:
    """Inverse of :func:`to_bipartite_representation`.

    The digraph's sequence, margins and diagonal come from a kept template
    for ``b.seq`` (see :func:`_digraph_template`); its matrix is a copy of
    ``b.matrix``, and every call checks the diagonal and validates it.
    """
    if b.n != b.m:
        raise ValueError("representation must be square")
    d = _digraph_template(b.seq)._with_matrix(_exact_copy(b.matrix, DirectedRealization._DTYPE))
    if b.forbidden != d.forbidden:
        raise ValueError("representation must forbid exactly the diagonal")
    d.validate()
    return d


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
    if isinstance(obj, _Grid) and not isinstance(obj, DirectedRealization):
        return obj.matrix, obj.forbidden
    return np.asarray(getattr(obj, "matrix", obj)), None  # a digraph counts its diagonal


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
