import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swapmc
from swapmc import (
    BipartiteDegreeSequence,
    BipartiteRealization,
    DirectedDegreeBiSequence,
    IllegalMoveError,
    InfeasibleSequenceError,
    SwapMove,
    construct_bipartite,
    construct_directed,
    count_realizations,
    from_bipartite_representation,
    hamming_distance,
    is_directed_graphic,
    kleitman_wang_arcs,
    to_bipartite_representation,
    try_c4_swap,
    try_c6_swap,
)
from swapmc.oracle import StateSpace
from swapmc.realization import partner_arrays

DIAG3 = tuple((i, i) for i in range(3))


def test_construct_bipartite_matching():
    r = construct_bipartite(BipartiteDegreeSequence((1, 1), (1, 1)))
    assert sorted(r.edges()) in ([(0, 0), (1, 1)], [(0, 1), (1, 0)])


def test_construct_bipartite_with_forbidden_diagonal():
    seq = BipartiteDegreeSequence((1, 1, 1), (1, 1, 1))
    r = construct_bipartite(seq, DIAG3)
    # a derangement permutation matrix
    assert all(u != v for u, v in r.edges())
    r.validate()


def test_construct_bipartite_margins():
    seq = BipartiteDegreeSequence((2, 1, 1), (2, 1, 1))
    r = construct_bipartite(seq)
    assert tuple(r.matrix.sum(axis=1).tolist()) == (2, 1, 1)
    assert tuple(r.matrix.sum(axis=0).tolist()) == (2, 1, 1)


def test_construct_infeasible_is_distinct_error():
    with pytest.raises(InfeasibleSequenceError):
        construct_bipartite(BipartiteDegreeSequence((2,), (2,)))
    with pytest.raises(InfeasibleSequenceError):
        # perfect matching demanded but one position forbidden on a 1x1 grid
        construct_bipartite(BipartiteDegreeSequence((1,), (1,)), ((0, 0),))
    with pytest.raises(InfeasibleSequenceError):
        construct_directed(DirectedDegreeBiSequence((2, 0), (0, 2)))


@st.composite
def sequences_with_matchings(draw):
    """Margins of a random 0..2 matrix (so some are infeasible) and a random
    partial matching on the same grid."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    M = np.array(
        draw(st.lists(st.lists(st.integers(0, 2), min_size=m, max_size=m),
                      min_size=n, max_size=n))
    )
    seq = BipartiteDegreeSequence(tuple(M.sum(axis=1)), tuple(M.sum(axis=0)))
    perm = draw(st.permutations(range(max(n, m))))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    forbidden = [(u, perm[u]) for u in range(n) if keep[u] and perm[u] < m]
    return seq, forbidden


@settings(max_examples=300, deadline=None, database=None)
@given(sequences_with_matchings())
def test_construct_bipartite_is_exact_under_forbidden_matchings(case):
    seq, forbidden = case
    feasible = count_realizations(seq, forbidden) > 0
    try:
        r = construct_bipartite(seq, forbidden)
    except InfeasibleSequenceError:
        assert not feasible
        return
    assert feasible
    assert set(np.unique(r.matrix).tolist()) <= {0, 1}
    assert tuple(r.matrix.sum(axis=1).tolist()) == seq.u_degrees
    assert tuple(r.matrix.sum(axis=0).tolist()) == seq.v_degrees
    assert not any(r.matrix[u, v] for u, v in forbidden)


def test_construct_bipartite_on_diagonal_matches_construct_directed():
    graphic = 0
    for n in range(1, 5):
        for out in itertools.product(range(n), repeat=n):
            for ins in itertools.product(range(n), repeat=n):
                if sum(out) != sum(ins):
                    continue
                d = DirectedDegreeBiSequence(out, ins)
                if not is_directed_graphic(d):
                    continue
                graphic += 1
                diag = [(i, i) for i in range(n)]
                r = construct_bipartite(BipartiteDegreeSequence(out, ins), diag)
                assert r == to_bipartite_representation(construct_directed(d))
                assert sorted(r.edges()) == sorted(kleitman_wang_arcs(d))
    assert graphic > 2000


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(swapmc.__file__)))
    code = (
        "import sys, swapmc; "
        "sys.exit(any(k == 'scipy' or k.startswith('scipy.') for k in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_construct_directed_examples():
    tri = construct_directed(DirectedDegreeBiSequence((1, 1, 1), (1, 1, 1)))
    arcs = set(tri.arcs())
    assert arcs in ({(0, 1), (1, 2), (2, 0)}, {(0, 2), (1, 0), (2, 1)})

    empty = construct_directed(DirectedDegreeBiSequence((0, 0), (0, 0)))
    assert empty.arcs() == []

    d = construct_directed(DirectedDegreeBiSequence((2, 1, 1), (1, 2, 1)))
    assert tuple(d.matrix.sum(axis=1).tolist()) == (2, 1, 1)
    assert tuple(d.matrix.sum(axis=0).tolist()) == (1, 2, 1)


def test_representation_of_triangle():
    d = construct_directed(DirectedDegreeBiSequence((1, 1, 1), (1, 1, 1)))
    b = to_bipartite_representation(d)
    assert b.forbidden == DIAG3
    assert set(b.edges()) == set(d.arcs())
    assert from_bipartite_representation(b) == d


def test_representation_round_trip_random():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        M = (rng.random((n, n)) < 0.4).astype(np.uint8)
        np.fill_diagonal(M, 0)
        seq = DirectedDegreeBiSequence(
            tuple(M.sum(axis=1).tolist()), tuple(M.sum(axis=0).tolist())
        )
        from swapmc import DirectedRealization

        d = DirectedRealization(seq, M)
        assert from_bipartite_representation(to_bipartite_representation(d)) == d


def test_from_representation_rejects_bad_shapes():
    seq = BipartiteDegreeSequence((1, 1), (1, 1))
    r = construct_bipartite(seq)
    with pytest.raises(ValueError):
        from_bipartite_representation(r)  # no diagonal forbidden matching


def test_apply_c4_on_perfect_matching():
    seq = BipartiteDegreeSequence((1, 1), (1, 1))
    r = BipartiteRealization(seq, [[1, 0], [0, 1]])
    mv = SwapMove.c4((0, 1), (0, 1))
    r2 = r.apply_move(mv)
    assert sorted(r2.edges()) == [(0, 1), (1, 0)]
    # original untouched (copy-on-write)
    assert sorted(r.edges()) == [(0, 0), (1, 1)]
    # the inverse restores the original
    assert r2.apply_move(mv.inverse()) == r


def test_apply_c6_on_triangle_representation():
    seq = BipartiteDegreeSequence((1, 1, 1), (1, 1, 1))
    fwd = BipartiteRealization(seq, [[0, 1, 0], [0, 0, 1], [1, 0, 0]], DIAG3)
    mv = try_c6_swap(fwd, (0, 1, 2), (0, 1, 2))
    assert mv is not None and mv.kind == "c6"
    back = fwd.apply_move(mv)
    assert set(back.edges()) == {(0, 2), (1, 0), (2, 1)}
    assert back.apply_move(mv.inverse()) == fwd


def test_apply_move_rejects_illegal():
    seq = BipartiteDegreeSequence((2, 2), (2, 2))
    r = BipartiteRealization(seq, [[1, 1], [1, 1]])
    with pytest.raises(IllegalMoveError):
        r.apply_move(SwapMove.c4((0, 1), (0, 1)))  # all four are edges


def test_move_respects_forbidden():
    seq = BipartiteDegreeSequence((1, 1), (1, 1))
    r = BipartiteRealization(seq, [[1, 0], [0, 1]], ((0, 1),))
    assert try_c4_swap(r, 0, 1, 0, 1) is None
    with pytest.raises(IllegalMoveError):
        r.apply_move(SwapMove.c4((0, 1), (0, 1)))


def test_inplace_and_copy_agree():
    seq = BipartiteDegreeSequence((1, 1), (1, 1))
    r = BipartiteRealization(seq, [[1, 0], [0, 1]])
    mv = SwapMove.c4((0, 1), (0, 1))
    out_copy = r.apply_move(mv)
    out_inplace = r.copy().apply_move(mv, inplace=True)
    assert out_copy == out_inplace


def test_moves_preserve_margins_and_forbidden():
    rng = np.random.default_rng(7)
    seq = BipartiteDegreeSequence((2, 2, 2, 1), (2, 2, 2, 1))
    r = construct_bipartite(seq)
    for _ in range(200):
        i, i2 = rng.choice(4, 2, replace=False)
        j, j2 = rng.choice(4, 2, replace=False)
        mv = try_c4_swap(r, int(i), int(i2), int(j), int(j2))
        if mv is not None:
            r = r.apply_move(mv)
            r.validate()


def test_hamming_distance():
    seq = BipartiteDegreeSequence((1, 1), (1, 1))
    a = BipartiteRealization(seq, [[1, 0], [0, 1]])
    b = a.apply_move(SwapMove.c4((0, 1), (0, 1)))
    assert hamming_distance(a, a) == 0
    assert hamming_distance(a, b) == 4

    tri = BipartiteDegreeSequence((1, 1, 1), (1, 1, 1))
    x = BipartiteRealization(tri, [[0, 1, 0], [0, 0, 1], [1, 0, 0]], DIAG3)
    y = x.apply_move(try_c6_swap(x, (0, 1, 2), (0, 1, 2)))
    assert hamming_distance(x, y) == 6

    with pytest.raises(ValueError):
        hamming_distance(a, x)


def test_forbidden_must_be_partial_matching():
    seq = BipartiteDegreeSequence((1, 1), (1, 1))
    with pytest.raises(ValueError):
        BipartiteRealization(seq, [[0, 1], [1, 0]], ((0, 0), (0, 1)))


def test_switch_move_on_realization():
    seq = BipartiteDegreeSequence((1, 1), (1, 1))
    r = BipartiteRealization(seq, [[1, 0], [0, 1]])
    sw = SwapMove.switch((0, 1), (0, 1), sign=-1)  # same effect as the c4 here
    r2 = r.apply_move(sw)
    assert sorted(r2.edges()) == [(0, 1), (1, 0)]
    with pytest.raises(IllegalMoveError):
        r2.apply_move(sw)  # would leave 0/1 range


def test_switch_move_checks_corners_and_forbidden():
    seq = BipartiteDegreeSequence((1, 1), (1, 1))
    sw = SwapMove.switch((0, 1), (0, 1))
    free = BipartiteRealization(seq, [[0, 1], [1, 0]])
    assert free.apply_move(sw).edges() == [(0, 0), (1, 1)]
    with pytest.raises(IllegalMoveError):
        free.apply_move(SwapMove.switch((0, 0), (0, 1)))  # one row only
    starred = BipartiteRealization(seq, [[0, 1], [1, 0]], ((0, 0),))
    with pytest.raises(IllegalMoveError):
        starred.apply_move(sw)  # would set the forbidden (0,0)


@st.composite
def c4_corners(draw):
    """A random 0/1 matrix, with or without a forbidden matching, and two
    possibly equal rows and columns, around which it often alternates."""
    n, m = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    cells = draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))
    M = np.array(cells, dtype=np.uint8).reshape(n, m)
    us = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    vs = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    if draw(st.booleans()):
        M[us, vs[::-1]] = 0
        M[us, vs] = 1
    forbidden = ()
    if draw(st.booleans()):
        k = draw(st.integers(1, min(n, m)))
        rows = draw(st.permutations(range(n)))[:k]
        cols = draw(st.permutations(range(m)))[:k]
        forbidden = tuple(zip(rows, cols))
        for u, v in forbidden:
            M[u, v] = 0
    seq = BipartiteDegreeSequence(tuple(M.sum(axis=1).tolist()), tuple(M.sum(axis=0).tolist()))
    return BipartiteRealization(seq, M, forbidden), us, vs


@settings(max_examples=300, deadline=None)
@given(c4_corners())
def test_c4_is_the_switch_with_sign_minus_one(case):
    r, us, vs = case
    (ua, ub), (va, vb) = us, vs
    M = r.matrix
    legal = (
        ua != ub
        and va != vb
        and M[ua, va] == M[ub, vb] == 1
        and M[ua, vb] == M[ub, va] == 0
        and r.is_chord(ua, vb)
        and r.is_chord(ub, va)
    )
    start = r.key()
    outcomes = []
    for mv in (SwapMove.c4(us, vs), SwapMove.switch(us, vs, sign=-1)):
        work = r.copy()
        try:
            outcomes.append(r.apply_move(mv).key())
            work.apply_move(mv, inplace=True)
            assert work.key() == outcomes[-1]
            work.validate()
        except IllegalMoveError:
            outcomes.append(None)
            assert work.key() == start  # a refused move writes nothing
    assert r.key() == start
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0] is not None) == legal


def _greedy_fill_reference(seq):
    """The row-by-row greedy as first written, with a Python sort per row."""
    caps = list(seq.v_degrees)
    M = np.zeros((seq.n, seq.m), dtype=np.uint8)
    for i, d in enumerate(seq.u_degrees):
        if d == 0:
            continue
        chosen = sorted(range(seq.m), key=lambda j: (-caps[j], j))[:d]
        if d > seq.m or caps[chosen[-1]] <= 0:
            raise InfeasibleSequenceError(
                f"no bipartite realization: row {i} cannot place degree {d}"
            )
        for j in chosen:
            caps[j] -= 1
            M[i, j] = 1
    return M


@st.composite
def equal_sum_sequences(draw):
    """Row degrees up to m + 1 and column degrees splitting the same sum, so
    that both graphic and non-graphic sequences occur."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 7))
    u = draw(st.lists(st.integers(0, m + 1), min_size=n, max_size=n))
    v = [0] * m
    for _ in range(sum(u)):
        v[draw(st.integers(0, m - 1))] += 1
    return BipartiteDegreeSequence(tuple(u), tuple(v))


@settings(max_examples=300, deadline=None, database=None)
@given(equal_sum_sequences())
def test_greedy_fill_matches_reference(seq):
    from swapmc.realization import _greedy_fill

    try:
        expected = _greedy_fill_reference(seq)
    except InfeasibleSequenceError as exc:
        with pytest.raises(InfeasibleSequenceError, match=str(exc)):
            _greedy_fill(seq)
        return
    got = _greedy_fill(seq)
    assert got.dtype == np.uint8
    assert np.array_equal(got, expected)


def test_validate_rejects_entries_outside_0_1():
    seq = BipartiteDegreeSequence((2, 0), (1, 1))
    with pytest.raises(ValueError, match="incidence entries must be 0 or 1"):
        BipartiteRealization(seq, [[2, 0], [0, 0]])
    # -1 + 3 keeps the margins; the -1 is stored as the wrapped uint8 255
    wrapped = np.array([[-1, 3], [0, 0]]).astype(np.uint8)
    assert wrapped[0, 0] == 255
    with pytest.raises(ValueError, match="incidence entries must be 0 or 1"):
        BipartiteRealization(seq, wrapped)
    d = DirectedDegreeBiSequence((2, 0), (0, 2))
    with pytest.raises(ValueError, match="adjacency entries must be 0 or 1"):
        swapmc.DirectedRealization(d, [[0, 2], [0, 0]])
    with pytest.raises(ValueError, match="adjacency entries must be 0 or 1"):
        swapmc.DirectedRealization(d, np.array([[0, 3], [0, -1]]).astype(np.uint8))
    # A cast that would wrap an integer or truncate a float is refused, not
    # stored as some other 0/1 matrix
    one = BipartiteDegreeSequence((1, 1), (1, 1))
    wraps = (np.array([[257, 0], [0, 1]]), np.array([[1.9, 0], [0, 1.2]]), [[-1, 0], [0, 1]])
    for bad in wraps:
        with pytest.raises(ValueError, match="do not fit uint8"):
            BipartiteRealization(one, bad)
    with pytest.raises(ValueError, match="do not fit uint8"):
        swapmc.DirectedRealization(
            DirectedDegreeBiSequence((1, 1), (1, 1)), np.array([[0, 513], [1, 0]])
        )
    with pytest.raises(ValueError, match="do not fit int16"):
        swapmc.AuxiliaryMatrix(one, np.array([[65537, 0], [0, 1]]))
    # Exact casts still pass
    for good in (np.eye(2), np.eye(2, dtype=bool)):
        assert BipartiteRealization(one, good).matrix.tolist() == [[1, 0], [0, 1]]


@pytest.mark.parametrize(
    "bad", [[[2**70, 0], [0, 1]], [[None, 0], [0, 1]]], ids=["beyond_int64", "none"]
)
def test_constructors_refuse_an_entry_numpy_cannot_cast(bad):
    # numpy's cast raises OverflowError or TypeError here; every matrix
    # constructor turns that into the ValueError of any other bad entry
    one = BipartiteDegreeSequence((1, 1), (1, 1))
    with pytest.raises(ValueError, match="do not fit uint8"):
        BipartiteRealization(one, bad)
    with pytest.raises(ValueError, match="do not fit uint8"):
        swapmc.DirectedRealization(DirectedDegreeBiSequence((1, 1), (1, 1)), bad)
    with pytest.raises(ValueError, match="do not fit int16"):
        swapmc.AuxiliaryMatrix(one, bad)


def test_copy_is_equal_with_an_independent_matrix():
    seq = BipartiteDegreeSequence((1, 1, 1), (1, 1, 1))
    r = BipartiteRealization(seq, [[0, 1, 0], [0, 0, 1], [1, 0, 0]], DIAG3)
    c = r.copy()
    assert c == r and c.key() == r.key() and hash(c) == hash(r)
    assert c.forbidden is r.forbidden
    assert not np.shares_memory(c.matrix, r.matrix)
    c.apply_move(try_c6_swap(c, (0, 1, 2), (0, 1, 2)), inplace=True)
    assert c != r
    assert r.matrix.tolist() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    c.validate()
    r.validate()


def test_constructor_canonicalises_numpy_forbidden_pairs():
    seq = BipartiteDegreeSequence((1, 1, 1), (1, 1, 1))
    forbidden = [(np.int64(2), np.int64(0)), (np.int32(0), np.int64(1))]
    r = BipartiteRealization(seq, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], forbidden)
    assert r.forbidden == ((0, 1), (2, 0))
    assert all(type(i) is int for pair in r.forbidden for i in pair)
    assert r.is_chord(0, 0) and not r.is_chord(0, 1) and not r.is_chord(2, 0)
    fu, fv = partner_arrays(forbidden, 3, 3)
    assert fu == (1, -1, 0) and fv == (2, 0, -1)
    assert all(type(i) is int for i in fu + fv)
    with pytest.raises(ValueError, match="partial matching"):
        BipartiteRealization(seq, np.eye(3), ((0, 1), (2, 1)))
    with pytest.raises(ValueError, match="outside 3x3 grid"):
        BipartiteRealization(seq, np.eye(3), ((0, 3),))


def _try_c6_swap_two_tests(r, us, vs):
    """Frozen copy of ``try_c6_swap`` with one alternation test per direction."""
    x, y, z = sorted(us)
    if len({x, y, z}) < 3:
        return None
    px, py, pz = r._fu[x], r._fu[y], r._fu[z]
    if px < 0 or py < 0 or pz < 0:
        return None
    if {px, py, pz} != {int(v) for v in vs} or len(set(vs)) < 3:
        return None
    M = r.matrix
    # Hexagon x, pz, y, px, z, py; opposite pairs (x,px), (y,py), (z,pz).
    if (
        M[x, pz]
        and M[y, px]
        and M[z, py]
        and not M[y, pz]
        and not M[z, px]
        and not M[x, py]
    ):
        return SwapMove.c6((x, y, z), (pz, px, py))
    if (
        M[x, py]
        and M[z, px]
        and M[y, pz]
        and not M[z, py]
        and not M[y, px]
        and not M[x, pz]
    ):
        return SwapMove.c6((x, z, y), (py, px, pz))
    return None


@pytest.mark.parametrize(
    "seq, forbidden",
    [
        (BipartiteDegreeSequence((1, 1, 1), (1, 1, 1)), DIAG3),
        (BipartiteDegreeSequence((2, 2, 2, 1), (2, 2, 1, 2)), tuple((i, i) for i in range(4))),
        (BipartiteDegreeSequence((1, 1, 2, 2), (2, 2, 1, 1)), ((0, 1), (1, 3), (2, 0), (3, 2))),
    ],
)
def test_try_c6_swap_matches_the_two_test_copy(seq, forbidden):
    # every state, every ordered pair of row and column triples, repeats included;
    # the last two instances have hexagons whose lowered cells are all edges
    # while a raised cell is one too
    directions = set()
    for r in StateSpace(seq, forbidden).states:
        for us in itertools.product(range(r.n), repeat=3):
            for vs in itertools.product(range(r.m), repeat=3):
                mv = try_c6_swap(r, us, vs)
                assert mv == _try_c6_swap_two_tests(r, us, vs)
                if mv is not None:
                    directions.add(mv.us == tuple(sorted(mv.us)))
    assert directions == {True, False}  # both hexagon directions are reached


def _from_bipartite_representation_rebuilt(b):
    """Frozen copy of ``from_bipartite_representation`` as it was before the
    kept template: every call builds the bi-sequence and the grid afresh."""
    if b.n != b.m:
        raise ValueError("representation must be square")
    seq = DirectedDegreeBiSequence(b.seq.u_degrees, b.seq.v_degrees)
    d = swapmc.DirectedRealization(seq, b.matrix, validate=False)
    if b.forbidden != d.forbidden:
        raise ValueError("representation must forbid exactly the diagonal")
    d.validate()
    return d


_FAULTS = (
    "loop",
    "margins",
    "above-1",
    "beyond-uint8",
    "non-square",
    "no-forbidden",
    "part-diagonal",
    "off-diagonal",
)


@st.composite
def representations(draw):
    """Bipartite grids that are a digraph's representation but for up to two
    faults: a loop, wrong margins, an entry above 1 or beyond uint8, a
    non-square shape, and a missing, partial or non-diagonal forbidden set."""
    faults = draw(st.sets(st.sampled_from(_FAULTS), max_size=2))
    n = draw(st.integers(1, 4))
    m = n + ("non-square" in faults)
    M = np.array(draw(st.lists(st.integers(0, 1), min_size=n * m, max_size=n * m)))
    M = M.reshape(n, m)
    np.fill_diagonal(M, 0)
    if "loop" in faults:
        k = draw(st.integers(0, n - 1))
        M[k, k] = 1
    if "above-1" in faults:
        M[draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))] = 2
    rows, cols = M.sum(axis=1).tolist(), M.sum(axis=0).tolist()
    if "margins" in faults:  # equal sums, so the sequence itself is fine
        i = draw(st.integers(0, n - 1))
        rows[i] += 1
        rows[i - 1 if rows[i - 1] else i] -= 1
    diag = [(k, k) for k in range(n)]
    forbidden = diag
    if "no-forbidden" in faults:
        forbidden = []
    elif "part-diagonal" in faults:
        forbidden = diag[1:]
    elif "off-diagonal" in faults:
        forbidden = [(k, (k + 1) % m) for k in range(n)]
    seq = BipartiteDegreeSequence(tuple(rows), tuple(cols))
    b = BipartiteRealization(seq, M, forbidden, validate=False)
    if "beyond-uint8" in faults:
        b.matrix = b.matrix.astype(np.int64)
        b.matrix[0, -1] += 256
    return b


def _outcome(f, b):
    try:
        return f(b)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, database=None)
@given(representations())
def test_from_representation_matches_its_frozen_copy(b):
    expected = _outcome(_from_bipartite_representation_rebuilt, b)
    got = _outcome(from_bipartite_representation, b)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert type(got) is swapmc.DirectedRealization
    assert got == expected and got.seq == expected.seq
    assert got.forbidden == expected.forbidden and got._fu == expected._fu
    assert got._form == expected._form and got.matrix.dtype == expected.matrix.dtype
    assert not np.shares_memory(got.matrix, b.matrix)


def test_from_representation_keeps_no_stale_sequence():
    seqs = [
        DirectedDegreeBiSequence((1, 1, 1), (1, 1, 1)),
        DirectedDegreeBiSequence((2, 1, 1), (1, 1, 2)),
        DirectedDegreeBiSequence((2, 2, 1, 1), (1, 2, 2, 1)),
    ]
    reps = [to_bipartite_representation(construct_directed(s)) for s in seqs]
    for k in [0, 1, 0, 1, 2, 0, 2, 2, 1]:
        d = from_bipartite_representation(reps[k])
        assert d.seq == seqs[k] and d._form == reps[k].seq
        assert np.array_equal(d.matrix, reps[k].matrix)


def test_from_representation_copies_the_matrix():
    seq = DirectedDegreeBiSequence((2, 1, 1), (1, 1, 2))
    b = to_bipartite_representation(construct_directed(seq))
    kept = b.matrix.copy()
    d = from_bipartite_representation(b)
    d.matrix[0, 1] ^= 1  # a write to the digraph leaves the representation
    assert np.array_equal(b.matrix, kept)
    b.matrix[1, 2] ^= 1  # and a write to the representation leaves the digraph
    assert d.matrix[1, 2] == kept[1, 2]
    b.matrix[1, 2] ^= 1
    e = from_bipartite_representation(b)  # the same template, a clean matrix
    assert np.array_equal(e.matrix, kept) and not np.shares_memory(e.matrix, d.matrix)
