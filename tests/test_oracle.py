import dataclasses
import gc
import itertools
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import accumulate, combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import swapmc.oracle
from swapmc import (
    BipartiteDegreeSequence,
    BipartiteRealization,
    BudgetExceededError,
    ChainConfig,
    DirectedDegreeBiSequence,
    count_realizations,
    enumerate_realizations,
    exact_transition_matrix,
    sample,
    swap_graph_connected,
    tv_curve,
    tv_from_kernel,
)
from swapmc.oracle import StateSpace, _components
from swapmc.realization import canonical_forbidden, partner_arrays

DIAG3 = tuple((i, i) for i in range(3))
TRI = BipartiteDegreeSequence((1, 1, 1), (1, 1, 1))


def test_enumerate_matchings():
    reals = enumerate_realizations(BipartiteDegreeSequence((1, 1), (1, 1)))
    assert len(reals) == 2


def test_enumerate_triangle_representation():
    reals = enumerate_realizations(TRI, DIAG3)
    assert len(reals) == 2
    for r in reals:
        assert all(u != v for u, v in r.edges())


def test_enumerate_and_count_agree():
    cases = [
        (BipartiteDegreeSequence((2, 1, 1), (2, 1, 1)), ()),
        (BipartiteDegreeSequence((2, 2, 2), (2, 2, 2)), ()),
        (TRI, DIAG3),
        (BipartiteDegreeSequence((2, 2, 1, 1), (2, 2, 1, 1)), ()),
        (BipartiteDegreeSequence((1, 1, 1, 1), (1, 1, 1, 1)), ((0, 0), (1, 1))),
    ]
    for seq, forb in cases:
        reals = enumerate_realizations(seq, forb)
        assert len(reals) == count_realizations(seq, forb)
        assert len({r.key() for r in reals}) == len(reals)


def test_enumerate_known_count():
    # frozen: two independent counting methods agreed on 5
    seq = BipartiteDegreeSequence((2, 1, 1), (2, 1, 1))
    assert len(enumerate_realizations(seq)) == 5
    assert count_realizations(seq) == 5


def test_enumerator_complete_on_3x3_brute_force():
    patterns = [np.array(bits, dtype=np.uint8).reshape(3, 3)
                for bits in itertools.product((0, 1), repeat=9)]
    for u in itertools.product(range(4), repeat=3):
        for v in itertools.product(range(4), repeat=3):
            if sum(u) != sum(v):
                continue
            brute = [
                p
                for p in patterns
                if tuple(p.sum(axis=1).tolist()) == u and tuple(p.sum(axis=0).tolist()) == v
            ]
            seq = BipartiteDegreeSequence(u, v)
            assert len(enumerate_realizations(seq)) == len(brute)


def test_enumerate_canonical_order_and_determinism():
    seq = BipartiteDegreeSequence((2, 1, 1), (2, 1, 1))
    a = enumerate_realizations(seq)
    b = enumerate_realizations(seq)
    keys = [r.key() for r in a]
    assert keys == [r.key() for r in b]

    def row_patterns(r):
        return tuple(
            sum(1 << (r.m - 1 - j) for j in range(r.m) if r.matrix[i, j])
            for i in range(r.n)
        )

    pats = [row_patterns(r) for r in a]
    assert pats == sorted(pats)


def test_enumerated_states_are_clones_of_one_template():
    cases = [
        (BipartiteDegreeSequence((2, 2, 1, 1), (2, 2, 1, 1)), ((0, 3), (2, 1))),
        (BipartiteDegreeSequence((2, 1, 1), (2, 1, 1)), ()),
        (TRI, DIAG3),
    ]
    for seq, forbidden in cases:
        states = enumerate_realizations(seq, forbidden)
        assert len(states) > 1
        first = states[0]
        for r in states:
            assert r.seq is first.seq
            assert r.forbidden is first.forbidden
            assert r._fu is first._fu
            assert r == BipartiteRealization(seq, r.matrix, forbidden)
        before = [r.matrix.copy() for r in states]
        for i, r in enumerate(states):
            r.matrix[:] = 7
            for j, other in enumerate(states):
                if j != i:
                    assert np.array_equal(other.matrix, before[j])
            r.matrix[:] = before[i]


def test_out_of_grid_forbidden_raises_when_degrees_overflow():
    seq = BipartiteDegreeSequence((3, 1), (2, 2))
    assert not seq.fits_class_sizes
    for oracle in (enumerate_realizations, count_realizations):
        with pytest.raises(ValueError, match="outside"):
            oracle(seq, [(5, 5)])
        assert oracle(seq) in ([], 0)


def test_enumerate_budget():
    big = BipartiteDegreeSequence((1,) * 7, (1,) * 7)
    with pytest.raises(BudgetExceededError):
        enumerate_realizations(big)
    assert count_realizations(big, position_budget=49) == 5040


def test_exact_matrix_2x2_matching():
    k = exact_transition_matrix(BipartiteDegreeSequence((1, 1), (1, 1)))
    assert np.allclose(k.matrix, [[0.5, 0.5], [0.5, 0.5]])
    assert set(k.rational_offdiag.values()) == {Fraction(1, 2)}


def test_exact_matrix_triangle_directed():
    k = exact_transition_matrix(TRI, DIAG3, "directed")
    assert np.allclose(k.matrix, [[0.75, 0.25], [0.25, 0.75]])
    assert set(k.rational_offdiag.values()) == {Fraction(1, 4)}
    assert k.rational_entry(0, 0) == Fraction(3, 4)


def test_exact_matrix_families_symmetric_doubly_stochastic():
    cases = [
        (BipartiteDegreeSequence((2, 1, 1), (2, 1, 1)), (), "bipartite"),
        (BipartiteDegreeSequence((2, 2, 1, 1), (2, 2, 1, 1)), (), "bipartite"),
        (TRI, DIAG3, "directed"),
        (
            BipartiteDegreeSequence((1, 1, 1, 1), (1, 1, 1, 1)),
            tuple((i, i) for i in range(4)),
            "directed",
        ),
    ]
    for seq, forb, kind in cases:
        k = exact_transition_matrix(seq, forb, kind)
        P = k.matrix
        assert np.abs(P - P.T).max() == 0.0
        assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
        N = k.size
        uniform = np.full(N, 1.0 / N)
        assert np.abs(uniform @ P - uniform).max() < 1e-12
        assert (np.diag(P) >= 0.5 - 1e-15).all()  # lazy holding probability


def test_exact_matrix_general_forbidden_matching():
    # the restricted kernel is defined for any forbidden partial matching,
    # not only the diagonal of a digraph representation
    seq = BipartiteDegreeSequence((2, 2, 1, 1), (2, 2, 1, 1))
    forb = ((0, 3), (2, 1))
    k = exact_transition_matrix(seq, forb, "directed")
    P = k.matrix
    assert np.abs(P - P.T).max() == 0.0
    assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
    ok, comps = swap_graph_connected(seq, forb, "c4+c6")
    assert ok and comps == 1


def test_exact_matrix_rejects_forbidden_for_bipartite_kernel():
    # in sample()'s words
    message = "bipartite kernel requires an empty forbidden set"
    with pytest.raises(ValueError) as info:
        sample(TRI, DIAG3, ChainConfig(seed=0, samples=1, burn_in=0))
    assert str(info.value) == message
    for call in (exact_transition_matrix, tv_curve):
        with pytest.raises(ValueError) as info:
            call(TRI, DIAG3, "bipartite")
        assert str(info.value) == message


def test_restricted_kernel_refuses_an_empty_forbidden_matching():
    # With no forbidden matching the restricted kernel has no c6 pairs, so a
    # quarter of every row's mass would be extra holding; sample() refuses
    # the same input with the same message.
    seq = BipartiteDegreeSequence((2, 2, 2), (2, 2, 2))
    msg = "restricted kernel requires a forbidden matching"
    for forbidden in ((), [], iter(())):
        with pytest.raises(ValueError, match=msg):
            exact_transition_matrix(seq, forbidden, "directed")
        with pytest.raises(ValueError, match=msg):
            tv_curve(seq, forbidden, "directed", horizon=2)
    # a generator of forbidden cells is read once, not exhausted by the check
    k = exact_transition_matrix(TRI, ((i, i) for i in range(3)), "directed")
    assert k.space.forbidden == DIAG3 and k.size == 2


def test_exact_matrix_state_budget():
    seq = BipartiteDegreeSequence((2, 1, 1), (2, 1, 1))
    with pytest.raises(BudgetExceededError):
        exact_transition_matrix(seq, state_budget=3)


def test_connectivity_triangle():
    assert swap_graph_connected(TRI, DIAG3, "c4") == (False, 2)
    assert swap_graph_connected(TRI, DIAG3, "c4+c6") == (True, 1)


def test_connectivity_unforbidden_instances():
    for u, v in [((2, 1, 1), (2, 1, 1)), ((2, 2, 2), (2, 2, 2)), ((1, 1, 1), (1, 1, 1))]:
        seq = BipartiteDegreeSequence(u, v)
        ok, comps = swap_graph_connected(seq, (), "c4")
        assert ok and comps == 1


def test_tv_curve_triangle_closed_form():
    # two-state chain with flip probability 1/4: TV(t) = 1/2 * (1/2)^t
    curve = tv_curve(TRI, DIAG3, "directed", horizon=6)
    expect = [0.5 * 0.5**t for t in range(7)]
    assert np.allclose(curve, expect)


def test_tv_curve_non_increasing_and_small_at_horizon():
    curve = tv_curve(BipartiteDegreeSequence((1, 1), (1, 1)), horizon=20)
    assert all(a >= b - 1e-15 for a, b in zip(curve, curve[1:]))
    assert curve[20] < 1e-3

    curve = tv_curve(BipartiteDegreeSequence((2, 1, 1), (2, 1, 1)), horizon=40)
    assert all(a >= b - 1e-15 for a, b in zip(curve, curve[1:]))


def test_tv_from_kernel_matches_tv_curve():
    k = exact_transition_matrix(TRI, DIAG3, "directed")
    assert tv_from_kernel(k, 5) == tv_curve(TRI, DIAG3, "directed", horizon=5)


def test_tv_from_kernel_refuses_a_kernel_without_states():
    # the bipartite form of out 2 2 0 / in 0 2 2 with the diagonal forbidden
    seq = BipartiteDegreeSequence((2, 2, 0), (0, 2, 2))
    k = exact_transition_matrix(seq, DIAG3, "directed")
    assert k.size == 0
    with pytest.raises(ValueError, match="no states"):
        tv_from_kernel(k, 3)
    with pytest.raises(ValueError, match="no states"):
        tv_from_kernel(k, 0)


def test_tv_from_kernel_matches_matrix_powers():
    k = exact_transition_matrix(
        BipartiteDegreeSequence((2, 1, 1), (2, 1, 1)), (), "bipartite"
    )
    uniform = np.full(k.size, 1.0 / k.size)
    curve = tv_from_kernel(k, 4)
    assert len(curve) == 5
    for t, tv in enumerate(curve):
        dist = np.linalg.matrix_power(k.matrix, t)
        expected = float(0.5 * np.abs(dist - uniform).sum(axis=1).max())
        if t <= 1:
            assert tv == expected
        else:
            assert abs(tv - expected) <= 1e-12
    assert tv_from_kernel(k, 0) == curve[:1] == [1.0 - 1.0 / k.size]


@pytest.mark.parametrize(
    "seq, forbidden, kind",
    [
        (TRI, DIAG3, "directed"),
        (BipartiteDegreeSequence((2,) * 4, (2,) * 4), (), "bipartite"),  # N = 90
        (BipartiteDegreeSequence((2, 2, 1, 1, 2), (2, 1, 2, 2, 1)), (), "bipartite"),  # N = 453
    ],
    ids=["triangle", "4x4-2-regular", "5x5-453"],
)
def test_sparse_square_matches_matrix_powers(seq, forbidden, kind):
    k = exact_transition_matrix(seq, forbidden, kind)
    uniform = 1.0 / k.size
    exact = _ref_exact_tv(k)[0]
    for horizon in (2, 5):
        curve = tv_from_kernel(k, horizon)
        assert len(curve) == horizon + 1
        for t, tv in enumerate(curve):
            dist = np.linalg.matrix_power(k.matrix, t)
            expected = float(0.5 * np.abs(dist - uniform).sum(axis=1).max())
            if t <= 2:
                assert tv == exact[t]
            if t <= 1:
                assert abs(tv - expected) <= 1e-15
            else:
                assert abs(tv - expected) <= 1e-12
    # t = 2 alone reduces the sparse square's blocks; a longer horizon
    # also keeps them as the dense square that P^3 starts from.
    assert tv_from_kernel(k, 2) == tv_from_kernel(k, 5)[:3]


# ---------------------------------------------------------------------------
# Neighbours from code masks against the state-difference reference
# ---------------------------------------------------------------------------


def _ref_pairwise_hamming(states):
    flat = np.stack([r.matrix.reshape(-1) for r in states]).astype(np.int32)
    # All states share margins, so |a - b| = 2*(E - a.b) for 0/1 vectors.
    edges = int(flat[0].sum())
    gram = flat @ flat.T
    return 2 * (edges - gram)


def _ref_classify_neighbors(states, c6):
    """The dense Gram-matrix neighbour search the masks replaced."""
    if not states:
        return
    ref = states[0]
    ham = _ref_pairwise_hamming(states)
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
            opposite_ok = True
            for r in rows:
                for c in cols:
                    if not diff[r, c] and fu[r] != c:
                        opposite_ok = False
            if opposite_ok:
                yield int(i), int(j), "c6"
                yield int(j), int(i), "c6"


def _ref_kernel(states, n, m, chain_kind):
    """The per-entry ``Fraction`` assembly of the exact kernel."""
    pairs, triples = comb(n, 2) * comb(m, 2), comb(n, 3) * comb(m, 3)
    if chain_kind == "bipartite":
        p4 = Fraction(1, 2 * pairs) if pairs else Fraction(0)
        p6 = Fraction(0)
    else:
        p4 = Fraction(1, 4 * pairs) if pairs else Fraction(0)
        p6 = Fraction(1, 4 * triples) if triples else Fraction(0)
    offdiag = {}
    for i, j, kind in _ref_classify_neighbors(states, chain_kind == "directed"):
        offdiag[(i, j)] = p4 if kind == "c4" else p6
    N = len(states)
    P = np.zeros((N, N), dtype=np.float64)
    rowsum = [Fraction(0)] * N
    for (i, j), p in offdiag.items():
        P[i, j] = float(p)
        rowsum[i] += p
    for i in range(N):
        P[i, i] = float(Fraction(1) - rowsum[i])
    return P, offdiag


def _ref_connected(states, c6):
    N = len(states)
    if N == 0:
        return False, 0
    adj = [[] for _ in range(N)]
    for i, j, _ in _ref_classify_neighbors(states, c6):
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
            for y in adj[stack.pop()]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
    return components == 1, components


def _mask_pairs(space, c6):
    (i4, j4), (i6, j6) = space.pairs(c6)
    listed = [(i, j, "c4") for i, j in zip(i4.tolist(), j4.tolist())]
    listed += [(i, j, "c6") for i, j in zip(i6.tolist(), j6.tolist())]
    assert len(set(listed)) == len(listed)
    return set(listed)


def _assert_matches_reference(seq, forbidden, position_budget=36):
    # the restricted kernel needs a forbidden matching, the bipartite one none
    kind, other = ("directed", "bipartite") if forbidden else ("bipartite", "directed")
    with pytest.raises(ValueError):
        exact_transition_matrix(seq, forbidden, other, position_budget=position_budget)
    k = exact_transition_matrix(seq, forbidden, kind, position_budget=position_budget)
    assert _mask_pairs(k.space, kind == "directed") == set(
        _ref_classify_neighbors(k.states, kind == "directed")
    )
    P, offdiag = _ref_kernel(k.states, seq.n, seq.m, kind)
    assert k.matrix.tobytes() == P.tobytes()
    assert k.rational_offdiag == offdiag
    states = enumerate_realizations(seq, forbidden, position_budget=position_budget)
    # the states decoded from the codes are the valid realizations
    assert all(r == BipartiteRealization(seq, r.matrix, forbidden) for r in states)
    for moves in ("c4", "c4+c6"):
        got = swap_graph_connected(seq, forbidden, moves, position_budget=position_budget)
        assert got == _ref_connected(states, moves == "c4+c6")
    return states


@st.composite
def _instances(draw):
    """A sequence read off a random 0/1 matrix (so it is realizable), with
    or without a random forbidden matching kept clear of that matrix."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    forbidden = ()
    if draw(st.booleans()):
        k = draw(st.integers(1, min(n, m)))
        rows = draw(st.permutations(range(n)))[:k]
        cols = draw(st.permutations(range(m)))[:k]
        forbidden = tuple(zip(rows, cols))
    bits = draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))
    M = np.array(bits, dtype=np.uint8).reshape(n, m)
    for u, v in forbidden:
        M[u, v] = 0
    seq = BipartiteDegreeSequence(tuple(M.sum(axis=1).tolist()), tuple(M.sum(axis=0).tolist()))
    return seq, forbidden


@settings(max_examples=150, deadline=None)
@given(_instances())
@example((TRI, DIAG3))
@example((BipartiteDegreeSequence((2, 2, 1, 1), (2, 2, 1, 1)), ((0, 3), (2, 1))))
@example((BipartiteDegreeSequence((2, 2, 2, 2), (2, 2, 2, 2)), ()))
@example((BipartiteDegreeSequence((1,), (1,)), ((0, 0),)))  # no realization
def test_mask_neighbors_match_state_difference_reference(instance):
    seq, forbidden = instance
    _assert_matches_reference(seq, forbidden)


@pytest.mark.parametrize(
    "seq, forbidden",
    [
        # 5 derangements of a 9x8 grid: c4 and c6 moves, 72 cells
        (
            BipartiteDegreeSequence((1,) * 5 + (0,) * 4, (1,) * 5 + (0,) * 3),
            tuple((i, i) for i in range(5)),
        ),
        (BipartiteDegreeSequence((2, 1, 1) + (0,) * 6, (1,) * 4 + (0,) * 4), ()),
    ],
    ids=["derangements", "unforbidden"],
)
def test_mask_neighbors_above_64_cells(seq, forbidden):
    states = _assert_matches_reference(seq, forbidden, position_budget=72)
    space = StateSpace(seq, forbidden, position_budget=72)
    assert space.codes.dtype == object
    codes = space.codes.tolist()
    assert codes == sorted(codes) and len(set(codes)) == len(codes)
    assert codes == [int("".join(str(b) for b in r.matrix.reshape(-1)), 2) for r in states]
    if forbidden:
        _, (i6, _) = space.pairs(True)
        assert len(i6) > 0


def test_state_codes_read_rows_big_endian():
    seq = BipartiteDegreeSequence((2, 1, 1), (2, 1, 1))
    states = enumerate_realizations(seq)
    codes = StateSpace(seq).codes
    assert codes.dtype == np.uint64
    expect = [int("".join(str(b) for b in r.matrix.reshape(-1)), 2) for r in states]
    assert codes.tolist() == expect == sorted(expect)


def test_kernel_connectivity_and_tv_leave_states_unbuilt(monkeypatch):
    import swapmc.oracle

    spaces = []

    class Recorded(StateSpace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            spaces.append(self)

    monkeypatch.setattr(swapmc.oracle, "StateSpace", Recorded)
    seq = BipartiteDegreeSequence((2, 2, 1, 1), (2, 2, 1, 1))
    forbidden = ((0, 3), (2, 1))
    kernel = exact_transition_matrix(seq, forbidden, "directed")
    tv_from_kernel(kernel, 3)
    for moves in ("c4", "c4+c6"):
        swap_graph_connected(seq, forbidden, moves)
    assert len(spaces) == 3 and spaces[0] is kernel.space
    assert kernel.size == len(kernel.space) > 1
    for space in spaces:
        assert "states" not in space.__dict__
    assert kernel.states == enumerate_realizations(seq, forbidden)
    assert "states" in kernel.space.__dict__


def test_oracle_calls_leave_no_cyclic_garbage():
    # Everything an oracle call allocates is freed by reference counting on
    # return, so its memory use does not hinge on when the cyclic gc runs.
    seq = BipartiteDegreeSequence((2, 2, 1, 1), (2, 2, 1, 1))
    forbidden = ((0, 3), (2, 1))
    calls = [
        lambda: tv_from_kernel(exact_transition_matrix(seq, forbidden, "directed"), 3),
        lambda: swap_graph_connected(seq, forbidden, "c4+c6"),
        lambda: enumerate_realizations(seq, forbidden),
        lambda: count_realizations(seq, forbidden),
    ]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for call in calls:
            gc.collect()
            call()
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_rational_diagonal_is_complement_of_row():
    cases = [
        (TRI, DIAG3),
        (BipartiteDegreeSequence((2, 2, 1, 1), (2, 2, 1, 1)), ((0, 3), (2, 1))),
    ]
    for seq, forbidden in cases:
        k = exact_transition_matrix(seq, forbidden, "directed")
        for i in range(k.size):
            row = sum((p for (a, _), p in k.rational_offdiag.items() if a == i), Fraction(0))
            assert k.rational_entry(i, i) == 1 - row
            assert k.matrix[i, i] == float(1 - row)
        assert k.rational_entry(0, k.size) == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=80)
    )
))
@example((1, []))
@example((200, [(i, i + 1) for i in range(199)][::-1]))  # a long path, reversed
def test_components_match_depth_first_search(graph):
    n, edges = graph
    src = np.array([a for a, b in edges] + [b for a, b in edges], dtype=np.intp)
    dst = np.array([b for a, b in edges] + [a for a, b in edges], dtype=np.intp)
    adj = [[] for _ in range(n)]
    for a, b in zip(src.tolist(), dst.tolist()):
        adj[a].append(b)
    seen, components = [False] * n, 0
    for s in range(n):
        if not seen[s]:
            components += 1
            seen[s], stack = True, [s]
            while stack:
                for y in adj[stack.pop()]:
                    if not seen[y]:
                        seen[y] = True
                        stack.append(y)
    half = len(edges)
    pairs = ((src[:half], dst[:half]), (src[half:], dst[half:]))
    assert _components(n, *pairs) == (components == 1, components)
    assert _components(0) == (False, 0)


def test_connectivity_on_8x8_permutations_in_bounded_memory():
    # 40 320 states on 64 cells: the widest uint64 code
    root = pathlib.Path(__file__).resolve().parent.parent
    code = (
        "import resource\n"
        "from swapmc import BipartiteDegreeSequence, swap_graph_connected\n"
        "seq = BipartiteDegreeSequence((1,) * 8, (1,) * 8)\n"
        "print(swap_graph_connected(seq, position_budget=64))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    result, maxrss_kib = proc.stdout.split("\n")[:2]
    assert result == "(True, 1)"
    assert int(maxrss_kib) < 512 * 1024


# ---------------------------------------------------------------------------
# Level-wise enumeration and alternation-filtered lookup against the
# row recursion and full-mask lookup they replaced
# ---------------------------------------------------------------------------


def _ref_recursive_codes(seq, forbidden=()):
    """Sorted state codes from the backtracking row recursion."""
    n, m = seq.n, seq.m
    fu, _ = partner_arrays(canonical_forbidden(forbidden, n, m), n, m)
    caps = list(seq.v_degrees)
    udeg = seq.u_degrees
    bit = [1 << (m - 1 - j) for j in range(m)]
    max_udeg_suffix = list(accumulate(reversed(udeg), max))[::-1] + [0]
    found = []

    def recurse(i, code):
        if i == n:
            if not any(caps):
                found.append(code)
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
                ok = m - caps.count(0) >= max_udeg_suffix[i + 1]
            if ok:
                recurse(i + 1, code << m | sum(bit[j] for j in chosen))
            for j in chosen:
                caps[j] += 1

    if seq.fits_class_sizes:
        recurse(0, 0)
    return np.array(sorted(found), dtype=np.uint64 if n * m <= 64 else object)


def _ref_flip_lookup(codes, masks, n, m):
    """Every mask XORed into every code, looked up among the sorted codes."""
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


def _ref_pairs(space, c6):
    """Pairs from all C(n,2) C(m,2) rectangles and the hexagon masks."""
    n, m = space.seq.n, space.seq.m
    rectangles = [
        [(r1, c1), (r1, c2), (r2, c1), (r2, c2)]
        for r1, r2 in combinations(range(n), 2)
        for c1, c2 in combinations(range(m), 2)
    ]
    hexagons = []
    if c6:
        for trio in combinations(space.forbidden, 3):
            block = product([u for u, _ in trio], [v for _, v in trio])
            hexagons.append([cell for cell in block if cell not in trio])
    codes = space.codes
    return _ref_flip_lookup(codes, rectangles, n, m), _ref_flip_lookup(codes, hexagons, n, m)


def _assert_same_array(got, expected):
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tolist() == expected.tolist()


@st.composite
def _any_sequences(draw):
    """Equal-sum degrees up to one above the class sizes, zeros included,
    so some sequences fail ``fits_class_sizes`` or have no realization."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    u = draw(st.lists(st.integers(0, m + 1), min_size=n, max_size=n))
    columns = draw(st.lists(st.integers(0, m - 1), min_size=sum(u), max_size=sum(u)))
    v = [columns.count(j) for j in range(m)]
    forbidden = ()
    if draw(st.booleans()):
        k = draw(st.integers(1, min(n, m)))
        rows = draw(st.permutations(range(n)))[:k]
        cols = draw(st.permutations(range(m)))[:k]
        forbidden = tuple(zip(rows, cols))
    return BipartiteDegreeSequence(tuple(u), tuple(v)), forbidden


@settings(max_examples=200, deadline=None)
@given(st.one_of(_instances(), _any_sequences()))
@example((BipartiteDegreeSequence((3, 1), (2, 2)), ()))  # does not fit the classes
@example((BipartiteDegreeSequence((0, 0), (0, 0, 0)), ()))  # one empty state
@example((BipartiteDegreeSequence((0, 2, 0), (1, 0, 1)), ((1, 0),)))
def test_level_wise_enumeration_matches_row_recursion(instance):
    seq, forbidden = instance
    _assert_same_array(StateSpace(seq, forbidden).codes, _ref_recursive_codes(seq, forbidden))


@pytest.mark.parametrize(
    "seq, forbidden, budget",
    [
        (BipartiteDegreeSequence((1,) * 8, (1,) * 8), (), 64),  # 40 320 uint64 codes
        (
            BipartiteDegreeSequence((1,) * 5 + (0,) * 4, (1,) * 5 + (0,) * 3),
            tuple((i, i) for i in range(5)),
            72,
        ),  # object codes
    ],
    ids=["8x8-permutations", "derangements-72-cells"],
)
def test_level_wise_enumeration_matches_row_recursion_at_width(seq, forbidden, budget):
    codes = StateSpace(seq, forbidden, position_budget=budget).codes
    _assert_same_array(codes, _ref_recursive_codes(seq, forbidden))


@pytest.mark.parametrize(
    "seq, forbidden, budget",
    [
        # the bipartite forms of the benchmark's two oracle instances (seed 0)
        (BipartiteDegreeSequence((2,) * 5, (2,) * 5), (), 36),
        (
            BipartiteDegreeSequence((1, 1, 2, 2, 2, 2), (2, 1, 1, 2, 2, 2)),
            tuple((v, v) for v in range(6)),
            36,
        ),
        (BipartiteDegreeSequence((2, 2, 1, 1), (2, 2, 1, 1)), ((0, 3), (2, 1)), 36),
        (TRI, DIAG3, 36),
        (
            BipartiteDegreeSequence((1,) * 5 + (0,) * 4, (1,) * 5 + (0,) * 3),
            tuple((i, i) for i in range(5)),
            72,
        ),
    ],
    ids=["oracle-bipartite", "oracle-directed", "general-matching", "triangle", "derangements"],
)
def test_pairs_match_full_mask_lookup_in_order(seq, forbidden, budget):
    space = StateSpace(seq, forbidden, position_budget=budget)
    for c6 in (False, True):
        got, expected = space.pairs(c6), _ref_pairs(space, c6)
        for got_pair, expected_pair in zip(got, expected):
            for a, b in zip(got_pair, expected_pair):
                _assert_same_array(a, b)
    if len(forbidden) >= 3:
        _, (i6, _) = space.pairs(True)
        assert len(i6) > 0


def test_state_space_memory_on_6x6_3_regular():
    seq = BipartiteDegreeSequence((3,) * 6, (3,) * 6)
    tracemalloc.start()
    try:
        space = StateSpace(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(space) == 297_200
    assert peak < 24 * 2**20


@pytest.mark.parametrize(
    "seq, forbidden, budget, foreign",
    [
        # N = 90; the foreign state has other margins
        (
            BipartiteDegreeSequence((2,) * 4, (2,) * 4),
            (),
            36,
            [[1, 1, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]],
        ),
        # object codes; the foreign state has the same margins on forbidden cells
        (
            BipartiteDegreeSequence((1,) * 5 + (0,) * 4, (1,) * 5 + (0,) * 3),
            tuple((i, i) for i in range(5)),
            72,
            np.pad(np.eye(5, dtype=np.uint8), ((0, 4), (0, 3))),
        ),
    ],
    ids=["4x4-2-regular", "derangements-72-cells"],
)
def test_index_finds_every_state(seq, forbidden, budget, foreign):
    space = StateSpace(seq, forbidden, position_budget=budget)
    assert [space.index(r) for r in space.states] == list(range(len(space)))
    M = np.array(foreign, dtype=np.uint8)
    margins = BipartiteDegreeSequence(tuple(M.sum(axis=1).tolist()), tuple(M.sum(axis=0).tolist()))
    with pytest.raises(ValueError, match="not in the space"):
        space.index(BipartiteRealization(margins, M))
    with pytest.raises(ValueError, match="not a state"):
        space.index(BipartiteRealization(TRI, np.eye(3, dtype=np.uint8)))


# ---------------------------------------------------------------------------
# TV from the kernel's sparse rows against the dense-row reduction it replaced
# ---------------------------------------------------------------------------


def _ref_square_blocks(kernel, rows, out):
    """Row blocks of ``P @ P`` from CSR rows valued from ``kernel.matrix``."""
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
        second = np.arange(int(lengths.sum())) + np.repeat(
            start[mid] - (np.cumsum(lengths) - lengths), lengths
        )
        cell = np.repeat((src[a:b] - lo) * N, lengths) + dst[second]
        weight = np.repeat(value[a:b], lengths) * value[second]
        block = np.bincount(cell, weights=weight, minlength=(hi - lo) * N).reshape(hi - lo, N)
        if out is not None:
            out[lo:hi] = block
        yield block


def _ref_tv_from_kernel(kernel, horizon):
    """The TV curve from dense rows: the identity, ``P``'s own rows and the
    sparse square, each reduced in 8 MiB row blocks."""
    P, N = kernel.matrix, kernel.size
    uniform = 1.0 / N
    rows = max(1, (1 << 20) // N)
    starts = range(0, N, rows)
    buf = np.empty((min(rows, N), N))

    def worst(blocks):
        tv = 0.0
        for block in blocks:
            out = buf[: len(block)]
            np.abs(np.subtract(block, uniform, out=out), out=out)
            tv = max(tv, float(0.5 * out.sum(axis=1).max()))
        return tv

    def identity():
        for lo in starts:
            buf.fill(0.0)
            np.fill_diagonal(buf[:, lo:], 1.0)
            yield buf[: N - lo]

    curve = [worst(identity())]
    if horizon >= 1:
        curve.append(worst(P[lo : lo + rows] for lo in starts))
    if horizon >= 2:
        dist = np.empty((N, N)) if horizon > 2 else None
        curve.append(worst(_ref_square_blocks(kernel, rows, dist)))
    for _ in range(3, horizon + 1):
        dist = dist @ P
        curve.append(worst(dist[lo : lo + rows] for lo in starts))
    return curve


_TV_INSTANCES = pytest.mark.parametrize(
    "seq, forbidden, kind, size",
    [
        (TRI, DIAG3, "directed", 2),
        (BipartiteDegreeSequence((2,) * 4, (2,) * 4), (), "bipartite", 90),
        (BipartiteDegreeSequence((2, 2, 1, 1, 2), (2, 1, 2, 2, 1)), (), "bipartite", 453),
        # the benchmark's digraph (seed 0): p_c6 = 1/1600 lies below 1/N
        (
            BipartiteDegreeSequence((1, 1, 2, 2, 2, 2), (2, 1, 1, 2, 2, 2)),
            tuple((v, v) for v in range(6)),
            "directed",
            1519,
        ),
        # a non-diagonal matching with c6 moves: p_c4 = 1/240, p_c6 = 1/160, D = 480
        (
            BipartiteDegreeSequence((1, 2, 1, 2, 2), (2, 2, 2, 2)),
            ((0, 1), (1, 3), (2, 0), (4, 2)),
            "directed",
            36,
        ),
    ],
    ids=["triangle", "4x4-2-regular", "5x5-453", "oracle-digraph", "5x4-non-diagonal"],
)


@_TV_INSTANCES
def test_tv_from_sparse_rows_matches_dense_rows_bit_for_bit(monkeypatch, seq, forbidden, kind, size):
    k = exact_transition_matrix(seq, forbidden, kind)
    assert k.size == size
    if kind == "directed" and size > 2:
        assert 0 < k.p_c6 < Fraction(1, size) and len(k.c6_pairs[0])
    expected = [_ref_tv_from_kernel(k, horizon) for horizon in range(6)]
    exact = _ref_exact_tv(k)[0]
    # one row, seven rows (a partial last block) and the default block
    for block in (1, 7 * size, swapmc.oracle._TV_BLOCK):
        monkeypatch.setattr(swapmc.oracle, "_TV_BLOCK", block)
        curves = [tv_from_kernel(k, horizon) for horizon in range(6)]
        # t <= 2 exact, t >= 3 the dense rows' floats bit for bit
        assert [c[:3] for c in curves] == [exact[: horizon + 1] for horizon in range(6)]
        assert all(abs(a - b) <= 1e-15 for c, e in zip(curves, expected) for a, b in zip(c[:3], e))
        assert [c[3:] for c in curves] == [e[3:] for e in expected]


@_TV_INSTANCES
def test_tv_to_horizon_2_leaves_the_dense_matrix_unbuilt(seq, forbidden, kind, size):
    k = exact_transition_matrix(seq, forbidden, kind)
    curves = [tv_from_kernel(k, horizon) for horizon in range(3)]
    assert "matrix" not in vars(k)
    curves.append(tv_from_kernel(k, 3))
    assert "matrix" in vars(k)
    assert np.array_equal(k.matrix.diagonal(), k.diagonal)
    expected = [_ref_tv_from_kernel(k, horizon) for horizon in range(4)]
    exact = _ref_exact_tv(k)[0]
    # t <= 2 exact, t >= 3 the dense rows' floats bit for bit
    assert [c[:3] for c in curves] == [exact[: horizon + 1] for horizon in range(4)]
    assert all(abs(a - b) <= 1e-15 for c, e in zip(curves, expected) for a, b in zip(c[:3], e))
    assert [c[3:] for c in curves] == [e[3:] for e in expected]


def _ref_sparse_rows(kernel):
    """``P``'s CSR rows ordered by a stable sort of the int64 sources."""
    N = kernel.size
    (i4, j4), (i6, j6) = kernel.c4_pairs, kernel.c6_pairs
    src = np.concatenate([i4, i6, np.arange(N)])
    dst = np.concatenate([j4, j6, np.arange(N)])
    p = [float(kernel.p_c4)] * len(i4) + [float(kernel.p_c6)] * len(i6)
    value = np.array(p + kernel.diagonal.tolist())
    order = np.argsort(src.astype(np.int64), kind="stable")
    start = np.zeros(N + 1, dtype=np.intp)
    start[1:] = np.cumsum(np.bincount(src, minlength=N))
    return src[order], dst[order], value[order], start


@_TV_INSTANCES
def test_sparse_rows_keep_the_order_of_the_int64_sort(seq, forbidden, kind, size):
    k = exact_transition_matrix(seq, forbidden, kind)
    # the sort key narrows to uint8 on the small kernels, uint16 on the others
    assert np.min_scalar_type(size) == (np.uint8 if size < 256 else np.uint16)
    D, cols, vals = swapmc.oracle._table(k)
    src, dst, value, start = _ref_sparse_rows(k)
    slot = np.arange(len(src)) - start[src]
    expected_cols = np.zeros((size, int(slot.max()) + 1), dtype=np.intp)
    expected_vals = np.zeros(expected_cols.shape)
    expected_cols[src, slot], expected_vals[src, slot] = dst, value
    _assert_same_array(cols, expected_cols)
    # integers, which over D round as float(Fraction) does
    assert np.array_equal(vals, np.round(vals))
    _assert_same_array(vals / D, expected_vals)


@pytest.mark.parametrize(
    "seq, forbidden, kind, size",
    [
        # the two instances of the oracle-exact benchmark workload (seed 0)
        (BipartiteDegreeSequence((2,) * 5, (2,) * 5), (), "bipartite", 2040),
        (
            BipartiteDegreeSequence((1, 1, 2, 2, 2, 2), (2, 1, 1, 2, 2, 2)),
            tuple((v, v) for v in range(6)),
            "directed",
            1519,
        ),
        # unequal probabilities on a non-diagonal matching: p_c4 = 1/240, p_c6 = 1/160
        (
            BipartiteDegreeSequence((1, 2, 1, 2, 2), (2, 2, 2, 2)),
            ((0, 1), (1, 3), (2, 0), (4, 2)),
            "directed",
            36,
        ),
        # 72 cells, object codes
        (
            BipartiteDegreeSequence((1,) * 5 + (0,) * 4, (1,) * 5 + (0,) * 3),
            tuple((i, i) for i in range(5)),
            "directed",
            44,
        ),
    ],
    ids=["5x5-2-regular", "oracle-digraph", "5x4-non-diagonal", "72-cells"],
)
def test_holding_classes_match_the_rational_diagonal(seq, forbidden, kind, size):
    k = exact_transition_matrix(seq, forbidden, kind, position_budget=72)
    assert k.size == size
    assert k.diagonal.dtype == np.float64
    assert k.diagonal.tolist() == [float(k.rational_entry(i, i)) for i in range(size)]


def test_holding_divides_exactly_past_2_to_the_53():
    # D = 3^35 > 2^53: the holding masses 3^35 - k no longer fit a float64,
    # and int64 / int64 would round row 2 (k = 3) to 1.0
    p, i4, i6 = Fraction(1, 3**35), np.array([0, 1, 1, 2, 2, 2]), np.array([], dtype=np.intp)
    D, holding = swapmc.oracle._holding(p, Fraction(0), i4, i6, 4)
    assert D == 3**35
    assert holding.tolist() == [D - 1, D - 2, D - 3, D]
    assert (holding / D).astype(np.float64).tolist() == [float(1 - k * p) for k in (1, 2, 3, 0)]


def test_tv_to_horizon_2_peaks_below_a_quarter_of_a_dense_matrix():
    k = exact_transition_matrix(BipartiteDegreeSequence((2,) * 5, (2,) * 5), (), "bipartite")
    assert k.size == 2040
    tracemalloc.start()
    try:
        tv_from_kernel(k, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one dense N x N float64 array is 31.8 MiB; a whole-matrix P^2 would pass it
    assert peak < 8 * 2**20
    assert "matrix" not in vars(k)


# ---------------------------------------------------------------------------
# The one kept enumeration
# ---------------------------------------------------------------------------

# derangements of five: 44 states, with c4 and c6 neighbours
DERANGEMENTS = (BipartiteDegreeSequence((1,) * 5, (1,) * 5), tuple((i, i) for i in range(5)))


@pytest.fixture
def no_record(monkeypatch):
    monkeypatch.setattr(swapmc.oracle, "_enumerated", None)


def test_a_space_of_the_same_key_shares_the_kept_codes(no_record):
    seq, forbidden = DERANGEMENTS
    first = StateSpace(seq, forbidden)
    second = StateSpace(BipartiteDegreeSequence((1,) * 5, (1,) * 5), forbidden[::-1])
    assert second.codes is first.codes
    assert second.states == first.states
    assert not set(map(id, second.states)) & set(map(id, first.states))
    with pytest.raises(BudgetExceededError):
        StateSpace(seq, forbidden, position_budget=24)
    # a new key replaces the record
    assert StateSpace(TRI, DIAG3).codes is swapmc.oracle._enumerated[1]
    assert swapmc.oracle._enumerated[0] == (TRI, DIAG3)
    third = StateSpace(seq, forbidden)
    assert third.codes is not first.codes
    _assert_same_array(third.codes, first.codes)


def test_a_space_over_the_state_budget_leaves_no_record(no_record, monkeypatch):
    StateSpace(TRI, DIAG3)
    assert swapmc.oracle._enumerated is not None
    # the 5040 permutation matrices of a 7x7 grid lie just over the budget
    seven = BipartiteDegreeSequence((1,) * 7, (1,) * 7)
    assert swap_graph_connected(seven, position_budget=49) == (True, 1)
    assert swapmc.oracle._enumerated is None
    monkeypatch.setattr(swapmc.oracle, "STATE_BUDGET", 1)
    first = StateSpace(*DERANGEMENTS)
    assert swapmc.oracle._enumerated is None
    assert StateSpace(*DERANGEMENTS).codes is not first.codes


def test_shared_codes_and_pairs_are_read_only(no_record):
    k = exact_transition_matrix(*DERANGEMENTS, "directed")
    space = StateSpace(*DERANGEMENTS)
    assert space.codes is k.space.codes
    (i4, j4), (i6, j6) = space.pairs(True)
    assert i4 is k.c4_pairs[0] and i6 is k.c6_pairs[0]
    for a in (space.codes, i4, j4, i6, j6):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[1]


@pytest.mark.parametrize(
    "seq, forbidden, kind, moves, lengths",
    [
        (BipartiteDegreeSequence((2,) * 4, (2,) * 4), (), "bipartite", "c4", [4]),
        (*DERANGEMENTS, "directed", "c4+c6", [4, 6]),
    ],
    ids=["bipartite", "directed"],
)
def test_kernel_and_connectivity_look_up_each_cycle_kind_once(
    no_record, monkeypatch, seq, forbidden, kind, moves, lengths
):
    lookup, cycle_lengths = swapmc.oracle._flip_lookup, []

    def counted(codes, cycles, n, m):
        cycle_lengths.append(len(cycles[0]))
        return lookup(codes, cycles, n, m)

    monkeypatch.setattr(swapmc.oracle, "_flip_lookup", counted)
    k = exact_transition_matrix(seq, forbidden, kind)
    assert swap_graph_connected(seq, forbidden, moves) == (True, 1)
    assert swap_graph_connected(seq, forbidden, "c4") == _components(k.size, k.c4_pairs)
    assert cycle_lengths == lengths


def test_hexagons_after_rectangles_reuse_the_c4_lookup(no_record, monkeypatch):
    lookup, calls = swapmc.oracle._flip_lookup, []

    def counted(*args):
        calls.append(args)
        return lookup(*args)

    monkeypatch.setattr(swapmc.oracle, "_flip_lookup", counted)
    space = StateSpace(*DERANGEMENTS)
    c4, none = space.pairs(False)
    assert len(calls) == 1 and not len(none[0])
    again, c6 = space.pairs(True)
    assert again is c4 and len(calls) == 2 and len(c6[0])
    expected = _ref_pairs(space, True)
    for got_pair, expected_pair in zip((again, c6), expected):
        for a, b in zip(got_pair, expected_pair):
            _assert_same_array(a, b)


# ---------------------------------------------------------------------------
# Exact TV up to t = 2, read from one row per orbit
# ---------------------------------------------------------------------------


def _ref_exact_tv(kernel):
    """Exact TV up to t = 2 from every row.  ``A = D P`` is built from the
    pair arrays and squared by a dense float64 ``A @ A``, which is exact
    because every partial sum is an integer below 2^53.  Returns the
    correctly rounded curve and each row's ``S_t = 2 N D^t TV_t(row)``."""
    N = kernel.size
    D = math.lcm(kernel.p_c4.denominator, kernel.p_c6.denominator)
    A = np.zeros((N, N))
    (i4, j4), (i6, j6) = kernel.c4_pairs, kernel.c6_pairs
    A[i4, j4] = int(kernel.p_c4 * D)
    A[i6, j6] = int(kernel.p_c6 * D)
    np.fill_diagonal(A, D - A.sum(axis=1))
    S = [np.abs(N * power - D**t).sum(axis=1) for t, power in enumerate((np.eye(N), A, A @ A))]
    return [int(s.max()) / (2 * N * D**t) for t, s in enumerate(S)], S


def _fraction_tv(kernel, horizon):
    """Worst-case TV from the kernel's rational entries, each step a sparse
    product in ``Fraction``s, rounded once by ``float``."""
    N = kernel.size
    P = [{j: p for j in range(N) if (p := kernel.rational_entry(i, j))} for i in range(N)]
    dist = [{i: Fraction(1)} for i in range(N)]
    curve = []
    for _ in range(horizon + 1):
        gaps = [sum(abs(row.get(c, 0) - Fraction(1, N)) for c in range(N)) / 2 for row in dist]
        curve.append(float(max(gaps)))
        step = []
        for row in dist:
            out = {}
            for k, x in row.items():
                for c, p in P[k].items():
                    out[c] = out.get(c, 0) + x * p
            step.append(out)
        dist = step
    return curve


@pytest.mark.parametrize(
    "seq, forbidden, kind, size",
    [
        (TRI, DIAG3, "directed", 2),
        (BipartiteDegreeSequence((2, 1, 1), (2, 1, 1)), (), "bipartite", 5),
        (*DERANGEMENTS, "directed", 44),
        (BipartiteDegreeSequence((2,) * 4, (2,) * 4), (), "bipartite", 90),
        (BipartiteDegreeSequence((2, 2), (2, 2)), (), "bipartite", 1),
        # one row: p_c4 = 0, so D = 1
        (BipartiteDegreeSequence((2,), (1, 1, 0)), (), "bipartite", 1),
    ],
    ids=["triangle", "5-states", "derangements", "4x4-2-regular", "one-state", "one-row"],
)
def test_tv_to_horizon_2_is_the_correctly_rounded_fraction(seq, forbidden, kind, size):
    k = exact_transition_matrix(seq, forbidden, kind)
    assert k.size == size
    if seq.n == 1:
        assert k.p_c4 == 0
    expected = _fraction_tv(k, 2)
    curves = [tv_from_kernel(k, horizon) for horizon in range(3)]
    assert curves == [expected[:1], expected[:2], expected]


_ORBIT_INSTANCES = pytest.mark.parametrize(
    "seq, forbidden, kind, size, orbits",
    [
        (BipartiteDegreeSequence((2,) * 5, (2,) * 5), (), "bipartite", 2040, 2),
        (
            BipartiteDegreeSequence((1, 1, 2, 2, 2, 2), (2, 1, 1, 2, 2, 2)),
            tuple((v, v) for v in range(6)),
            "directed",
            1519,
            257,
        ),
        (BipartiteDegreeSequence((2, 2, 1, 1, 2), (2, 1, 2, 2, 1)), (), "bipartite", 453, 8),
        # a non-diagonal matching: matched rows 0 and 1 swap with columns 2 and 3
        (BipartiteDegreeSequence((2, 2, 1, 1), (2, 2, 1, 1)), ((0, 2), (1, 3)), "directed", 16, 4),
        # out 2 1 1 3 3 2 / in 3 2 1 2 3 1: no two vertices alike, every state its own orbit
        (
            BipartiteDegreeSequence((2, 1, 1, 3, 3, 2), (3, 2, 1, 2, 3, 1)),
            tuple((v, v) for v in range(6)),
            "directed",
            478,
            478,
        ),
        # 72 cells, object codes
        (
            BipartiteDegreeSequence((1,) * 5 + (0,) * 4, (1,) * 5 + (0,) * 3),
            tuple((i, i) for i in range(5)),
            "directed",
            44,
            2,
        ),
    ],
    ids=["5x5-2-regular", "oracle-digraph", "5x5-453", "non-diagonal", "no-symmetry", "72-cells"],
)


def _kernel(seq, forbidden, kind, size):
    k = exact_transition_matrix(seq, forbidden, kind, position_budget=72)
    assert k.size == size
    return k


@_ORBIT_INSTANCES
def test_tv_to_horizon_2_equals_the_all_rows_exact_reference(seq, forbidden, kind, size, orbits):
    k = _kernel(seq, forbidden, kind, size)
    assert tv_from_kernel(k, 2) == _ref_exact_tv(k)[0]


@_ORBIT_INSTANCES
def test_orbits_partition_the_states(seq, forbidden, kind, size, orbits):
    label = swapmc.oracle._orbits(_kernel(seq, forbidden, kind, size).space)
    assert label.shape == (size,)
    # every state is labelled by the smallest state of its orbit
    assert np.all(label <= np.arange(size))
    assert np.array_equal(label[label], label)
    roots = np.flatnonzero(label == np.arange(size))
    assert len(roots) == orbits
    assert np.bincount(np.searchsorted(roots, label)).sum() == size


def _cells(codes, cells):
    return np.array([[c >> cells - 1 - b & 1 for b in range(cells)] for c in codes.tolist()])


@_ORBIT_INSTANCES
def test_relabellings_map_the_codes_onto_themselves(seq, forbidden, kind, size, orbits):
    k = _kernel(seq, forbidden, kind, size)
    space, n, m = k.space, seq.n, seq.m
    forbidden = set(space.forbidden)
    codes = space.codes
    label = swapmc.oracle._orbits(space)
    for swaps in swapmc.oracle._relabellings(space):
        # the generator moves each cell to one cell: rows by sigma, columns by tau
        unit = np.array([1 << b for b in range(n * m)], dtype=codes.dtype)
        image = _cells(swapmc.oracle._relabel(unit, swaps, n * m), n * m)
        moved = np.argmax(image, axis=1)[::-1].reshape(n, m)
        sigma, tau = moved[:, 0] // m, moved[0] % m
        assert np.array_equal(moved, sigma[:, None] * m + tau[None, :])
        assert [seq.u_degrees[i] for i in sigma] == list(seq.u_degrees)
        assert [seq.v_degrees[j] for j in tau] == list(seq.v_degrees)
        assert {(int(sigma[u]), int(tau[v])) for u, v in forbidden} == forbidden
        # every code's image is the code of the relabelled matrix, in the space
        image = swapmc.oracle._relabel(codes, swaps, n * m)
        matrices = _cells(codes, n * m).reshape(-1, n, m)
        relabelled = matrices[:, np.argsort(sigma)][:, :, np.argsort(tau)]
        assert np.array_equal(_cells(image, n * m), relabelled.reshape(-1, n * m))
        assert sorted(image.tolist()) == codes.tolist()
        # the kernel commutes with it, and it keeps each orbit
        j = np.searchsorted(codes, image)
        assert np.array_equal(k.matrix[np.ix_(j, j)], k.matrix)
        assert np.array_equal(label[j], label)


@_ORBIT_INSTANCES
def test_exact_row_distances_are_constant_on_each_orbit(seq, forbidden, kind, size, orbits):
    k = _kernel(seq, forbidden, kind, size)
    label = swapmc.oracle._orbits(k.space)
    for s in _ref_exact_tv(k)[1]:
        assert np.array_equal(s[label], s)


def test_exact_tv_refuses_sums_past_2_to_the_53():
    k = exact_transition_matrix(TRI, DIAG3, "directed")
    # D = 2^26 with N = 2: 2 N D^2 = 2^54, while 2 N D = 2^28 is fine
    wide = dataclasses.replace(k, p_c4=Fraction(1, 2**26))
    assert len(tv_from_kernel(wide, 1)) == 2
    with pytest.raises(BudgetExceededError, match="2\\^53"):
        tv_from_kernel(wide, 2)


# ---------------------------------------------------------------------------
# One route from a directed bi-sequence
# ---------------------------------------------------------------------------

_BI_SEQUENCES = pytest.mark.parametrize(
    "bi",
    [
        DirectedDegreeBiSequence((1, 1, 1), (1, 1, 1)),
        # the benchmark's digraph, N = 1519
        DirectedDegreeBiSequence((1, 1, 2, 2, 2, 2), (2, 1, 1, 2, 2, 2)),
        # a source with no in-arcs and a sink with no out-arcs, N = 7
        DirectedDegreeBiSequence((2, 0, 1, 1, 2), (1, 1, 2, 0, 2)),
    ],
    ids=["triangle", "oracle-exact", "zero-degree"],
)


def _representation(bi):
    """The bipartite representation of ``bi``, built by hand."""
    diagonal = tuple((i, i) for i in range(bi.n))
    return BipartiteDegreeSequence(bi.out_degrees, bi.in_degrees), diagonal


def _oracle_outputs(monkeypatch, seq, forbidden):
    """Every oracle entry point's output on one input, as comparable values;
    each call enumerates afresh, so no call reads another's kept record."""

    def fresh(call, *args):
        monkeypatch.setattr(swapmc.oracle, "_enumerated", None)
        return call(seq, forbidden, *args)

    k = fresh(exact_transition_matrix, "directed")
    arrays = (k.space.codes, *k.c4_pairs, *k.c6_pairs, k.diagonal)
    return (
        [(r.seq, r.forbidden, r.matrix.tobytes()) for r in fresh(enumerate_realizations)],
        fresh(count_realizations),
        [(a.dtype, a.tobytes()) for a in arrays],
        (k.p_c4, k.p_c6),
        fresh(swap_graph_connected, "c4"),
        fresh(swap_graph_connected, "c4+c6"),
        np.array(fresh(tv_curve, "directed", 5)).tobytes(),
    )


@_BI_SEQUENCES
def test_every_oracle_entry_point_takes_a_bi_sequence(monkeypatch, bi):
    got = _oracle_outputs(monkeypatch, bi, ())
    assert got == _oracle_outputs(monkeypatch, *_representation(bi))
    assert got == _oracle_outputs(monkeypatch, bi, _representation(bi)[1])


@_BI_SEQUENCES
def test_a_bi_sequence_shares_the_record_of_its_representation(no_record, bi):
    space = StateSpace(bi)
    assert (space.seq, space.forbidden) == _representation(bi)
    assert StateSpace(*_representation(bi)).codes is space.codes


@_BI_SEQUENCES
@pytest.mark.parametrize(
    "forbidden, kind, message",
    [
        ((), "bipartite", "directed bi-sequences require chain_kind='directed'"),
        ([(0, 1)], "directed", "a directed bi-sequence forbids exactly the diagonal"),
    ],
    ids=["bipartite-kind", "off-diagonal"],
)
def test_the_oracle_refuses_a_bi_sequence_as_sample_does(bi, forbidden, kind, message):
    calls = [
        lambda: sample(bi, forbidden, ChainConfig(seed=0, samples=1, burn_in=0, chain_kind=kind)),
        lambda: exact_transition_matrix(bi, forbidden, kind),
        lambda: tv_curve(bi, forbidden, kind, horizon=1),
    ]
    if kind == "directed":
        calls += [
            lambda: enumerate_realizations(bi, forbidden),
            lambda: count_realizations(bi, forbidden),
            lambda: swap_graph_connected(bi, forbidden, "c4+c6"),
        ]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


@_BI_SEQUENCES
def test_a_replaced_kernel_derives_its_own_diagonal(bi):
    k = exact_transition_matrix(bi, (), "directed")
    before = k.diagonal.tolist()
    half = dataclasses.replace(k, p_c4=k.p_c4 / 2)
    assert half.diagonal.tolist() == [float(half.rational_entry(i, i)) for i in range(k.size)]
    assert k.diagonal.tolist() == before
    assert (half.diagonal.tolist() != before) == (len(k.c4_pairs[0]) > 0)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: swap_graph_connected(TRI, DIAG3, moves="c6"),
            ValueError,
            "moves must be 'c4' or 'c4+c6'",
        ),
        (
            lambda: tv_from_kernel(exact_transition_matrix(TRI, DIAG3, "directed"), -1),
            ValueError,
            "horizon must be >= 0",
        ),
        (
            lambda: count_realizations(BipartiteDegreeSequence((1,) * 7, (1,) * 7)),
            BudgetExceededError,
            "7x7 grid exceeds the counting budget of 36 positions",
        ),
    ],
    ids=["unknown-moves", "negative-horizon", "counting-budget"],
)
def test_oracle_argument_checks(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
