"""The shared grid core against frozen copies of the three matrix classes
it replaced.

``BipartiteRealization``, ``DirectedRealization`` and ``AuxiliaryMatrix``
once had a constructor and a ``validate`` each, and the two realization
classes their own ``key``, ``copy``, ``==`` and ``hash``.  The copies below
keep those definitions as they were.  On drawn matrices (wrong shapes,
entries out of range, wrong margins, set forbidden, diagonal or starred
cells) the core must accept and refuse exactly what they did, and give the
same identity relations.  Messages are not compared: they are listed where
the core changed them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapmc import (
    AuxiliaryMatrix,
    BipartiteDegreeSequence,
    BipartiteRealization,
    DirectedDegreeBiSequence,
    DirectedRealization,
    hamming_distance,
    to_bipartite_representation,
)
from swapmc.realization import _exact_copy, canonical_forbidden, partner_arrays


class OldBipartite:
    __slots__ = ("seq", "matrix", "forbidden", "_fu")

    def __init__(self, seq, matrix, forbidden=(), *, validate=True):
        self.seq = seq
        self.matrix = _exact_copy(matrix, np.uint8)
        self.forbidden = canonical_forbidden(forbidden, seq.n, seq.m)
        self._fu = partner_arrays(self.forbidden, seq.n, seq.m)[0]
        if validate:
            self.validate()

    def key(self) -> bytes:
        return self.matrix.tobytes()

    def copy(self):
        out = OldBipartite.__new__(OldBipartite)
        out.seq, out.forbidden, out._fu = self.seq, self.forbidden, self._fu
        out.matrix = self.matrix.copy()
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OldBipartite)
            and self.seq == other.seq
            and self.forbidden == other.forbidden
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self):
        return hash((self.seq, self.forbidden, self.key()))

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


class OldDirected:
    __slots__ = ("seq", "matrix")

    def __init__(self, seq, matrix, *, validate=True):
        self.seq = seq
        self.matrix = _exact_copy(matrix, np.uint8)
        if validate:
            self.validate()

    def key(self) -> bytes:
        return self.matrix.tobytes()

    def copy(self):
        return OldDirected(self.seq, self.matrix, validate=False)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OldDirected)
            and self.seq == other.seq
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self):
        return hash((self.seq, self.key()))

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


class OldAuxiliary:
    __slots__ = ("matrix", "forbidden", "seq", "_fu")

    def __init__(self, seq, matrix, forbidden=(), *, validate=True):
        self.seq = seq
        self.matrix = _exact_copy(matrix, np.int16)
        self.forbidden = canonical_forbidden(forbidden, seq.n, seq.m)
        self._fu = partner_arrays(self.forbidden, seq.n, seq.m)[0]
        if validate:
            self.validate()

    def validate(self) -> None:
        M = self.matrix
        if M.shape != (self.seq.n, self.seq.m):
            raise ValueError("auxiliary shape does not match the degree sequence")
        if not np.isin(M, (-1, 0, 1, 2)).all():
            raise ValueError("auxiliary entries must lie in {-1, 0, 1, 2}")
        for u, v in self.forbidden:
            if M[u, v] != 0:
                raise ValueError("starred positions must carry no arithmetic value")
        if tuple(M.sum(axis=1).tolist()) != self.seq.u_degrees:
            raise ValueError("auxiliary row sums must match the degree sequence")
        if tuple(M.sum(axis=0).tolist()) != self.seq.v_degrees:
            raise ValueError("auxiliary column sums must match the degree sequence")


def _verdict(make):
    """The built object, or the type of the exception that refused it."""
    try:
        return make()
    except (ValueError, TypeError, AttributeError) as exc:
        return type(exc)


@st.composite
def grids(draw, low, high, square=False):
    """A degree sequence, a matrix and a forbidden matching that mostly fit
    together.  The margins come from a drawn in-range matrix; the matrix
    handed over is that one, sometimes with a cell moved out of range, a
    cell changed (wrong margins), a forbidden cell set, or the wrong shape."""
    n = draw(st.integers(1, 4))
    m = n if square else draw(st.integers(1, 4))
    cells = st.integers(low, high)
    base = np.array(draw(st.lists(cells, min_size=n * m, max_size=n * m)), dtype=np.int64)
    base = base.reshape(n, m)
    perm = draw(st.permutations(range(m)))
    size = draw(st.integers(0, min(n, m)))
    forbidden = [(u, perm[u]) for u in range(size)]
    if square and draw(st.booleans()):
        forbidden = [(i, i) for i in range(n)]
    if draw(st.booleans()):
        for u, v in forbidden:
            base[u, v] = 0
    rows, cols = base.sum(axis=1), base.sum(axis=0)
    M = base.copy()
    fault = draw(st.sampled_from(["none", "none", "range", "cell", "forbidden", "shape"]))
    u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
    if fault == "range":
        M[u, v] = draw(st.sampled_from([low - 1, high + 1, 255, -2]))
    elif fault == "cell":
        M[u, v] = draw(cells)
    elif fault == "forbidden" and forbidden:
        fu, fv = forbidden[draw(st.integers(0, len(forbidden) - 1))]
        M[fu, fv] = draw(st.sampled_from([x for x in range(low, high + 1) if x] or [1]))
    elif fault == "shape":
        M = np.zeros((n + draw(st.integers(0, 1)), m + 1), dtype=np.int64)
    return tuple(rows.tolist()), tuple(cols.tolist()), M, forbidden


def _bip_seq(rows, cols):
    try:
        return BipartiteDegreeSequence(rows, cols)
    except ValueError:
        return None


def _same_verdict(old, new):
    """Both refused with one exception type, or both built with one matrix;
    True in the second case."""
    if isinstance(old, type) or isinstance(new, type):
        assert old == new
        return False
    assert np.array_equal(old.matrix, new.matrix) and old.matrix.dtype == new.matrix.dtype
    return True


@settings(max_examples=400, deadline=None, database=None)
@given(grids(0, 1))
def test_bipartite_core_matches_the_frozen_class(case):
    rows, cols, M, forbidden = case
    seq = _bip_seq(rows, cols)
    if seq is None:
        return
    old = _verdict(lambda: OldBipartite(seq, M, forbidden))
    new = _verdict(lambda: BipartiteRealization(seq, M, forbidden))
    _same_verdict(old, new)
    # the same verdicts from validate() on an unvalidated state
    old = _verdict(lambda: OldBipartite(seq, M, forbidden, validate=False).validate())
    new = _verdict(lambda: BipartiteRealization(seq, M, forbidden, validate=False).validate())
    assert (old is None) == (new is None) and (old is None or old == new)


@settings(max_examples=400, deadline=None, database=None)
@given(grids(-1, 2))
def test_auxiliary_core_matches_the_frozen_class(case):
    rows, cols, M, forbidden = case
    seq = _bip_seq(rows, cols)
    if seq is None:
        return
    old = _verdict(lambda: OldAuxiliary(seq, M, forbidden))
    new = _verdict(lambda: AuxiliaryMatrix(seq, M, forbidden))
    if _same_verdict(old, new):
        assert new.forbidden == old.forbidden
        assert not isinstance(new, (BipartiteRealization, DirectedRealization))
        # auxiliary matrices keep identity equality: no realization's == or hash
        assert new != AuxiliaryMatrix(seq, M, forbidden)


@settings(max_examples=400, deadline=None, database=None)
@given(grids(0, 1, square=True))
def test_directed_core_matches_the_frozen_class(case):
    rows, cols, M, _ = case
    try:
        seq = DirectedDegreeBiSequence(rows, cols)
    except ValueError:
        return
    old = _verdict(lambda: OldDirected(seq, M))
    new = _verdict(lambda: DirectedRealization(seq, M))
    if _same_verdict(old, new):
        assert new.seq is seq
        assert hamming_distance(new, M) == hamming_distance(old.matrix, M)
    old = _verdict(lambda: OldDirected(seq, M, validate=False).validate())
    new = _verdict(lambda: DirectedRealization(seq, M, validate=False).validate())
    assert (old is None) == (new is None) and (old is None or old == new)


@st.composite
def state_pairs(draw):
    """Two states over one small sequence, or over two sequences."""
    n, m = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    a = np.array(draw(st.lists(st.integers(0, 1), min_size=n * m, max_size=n * m)))
    a = a.reshape(n, m)
    b = a.copy()
    if draw(st.booleans()):
        b[:2, :2] = b[:2, :2][::-1]  # swap two rows of a corner
    return a, b


@settings(max_examples=200, deadline=None, database=None)
@given(state_pairs(), st.booleans())
def test_identity_relations_match_the_frozen_classes(pair, directed):
    a, b = pair
    if directed:
        n = min(a.shape)
        a, b = a[:n, :n].copy(), b[:n, :n].copy()
        np.fill_diagonal(a, 0)
        np.fill_diagonal(b, 0)

    def margins(M):
        return tuple(M.sum(axis=1).tolist()), tuple(M.sum(axis=0).tolist())

    def build(cls_old, cls_new, seqcls, M):
        seq = seqcls(*margins(M))
        return cls_old(seq, M), cls_new(seq, M)

    if directed:
        classes = OldDirected, DirectedRealization, DirectedDegreeBiSequence
    else:
        classes = OldBipartite, BipartiteRealization, BipartiteDegreeSequence
    pairs = [build(*classes, M) for M in (a, b)]
    (old_a, new_a), (old_b, new_b) = pairs
    assert (old_a == old_b) == (new_a == new_b)
    assert (old_a.key() == old_b.key()) == (new_a.key() == new_b.key())
    if new_a == new_b:
        assert hash(new_a) == hash(new_b)
    for old, new in pairs:
        assert new.key() == old.key()
        c = new.copy()
        assert type(c) is type(new) and c == new and hash(c) == hash(new)
        assert c.key() == new.key() and not np.shares_memory(c.matrix, new.matrix)
        assert c.seq is new.seq
    if directed:
        # a digraph is never equal to its bipartite representation
        rep = to_bipartite_representation(new_a)
        assert rep != new_a and new_a != rep
        assert not isinstance(new_a, BipartiteRealization)


def test_each_class_refuses_the_other_kind_of_sequence():
    bip = BipartiteDegreeSequence((1, 1), (1, 1))
    with pytest.raises(TypeError, match="needs a DirectedDegreeBiSequence.*BipartiteDegree"):
        DirectedRealization(bip, [[0, 1], [1, 0]])
    directed = DirectedDegreeBiSequence((1, 1), (1, 1))
    for cls in (BipartiteRealization, AuxiliaryMatrix):
        with pytest.raises(TypeError, match="needs a BipartiteDegreeSequence.*DirectedDegree"):
            cls(directed, [[0, 1], [1, 0]])


def test_hamming_counts_a_digraph_diagonal():
    seq = DirectedDegreeBiSequence((1, 1), (1, 1))
    d = DirectedRealization(seq, [[0, 1], [1, 0]])
    assert hamming_distance(d, np.eye(2)) == 4
    assert hamming_distance(np.ones((2, 2)), d) == 2
    free = BipartiteRealization(BipartiteDegreeSequence((1, 1), (1, 1)), [[0, 1], [1, 0]])
    assert hamming_distance(d, free) == 0
