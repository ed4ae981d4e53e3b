import itertools
import os
import pathlib
import subprocess
import sys
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swapmc import (
    BipartiteDegreeSequence,
    BipartiteRealization,
    BudgetExceededError,
    count_realizations,
    enumerate_realizations,
    exact_transition_matrix,
    swap_graph_connected,
    tv_curve,
    tv_from_kernel,
)
from swapmc.oracle import _components, _neighbor_pairs, _state_codes
from swapmc.realization import partner_arrays

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
    with pytest.raises(ValueError):
        exact_transition_matrix(TRI, DIAG3, "bipartite")


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
    for horizon in (2, 5):
        curve = tv_from_kernel(k, horizon)
        assert len(curve) == horizon + 1
        for t, tv in enumerate(curve):
            dist = np.linalg.matrix_power(k.matrix, t)
            expected = float(0.5 * np.abs(dist - uniform).sum(axis=1).max())
            if t <= 1:
                assert tv == expected
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


def _mask_pairs(states, c6):
    (i4, j4), (i6, j6) = _neighbor_pairs(states, c6)
    listed = [(i, j, "c4") for i, j in zip(i4.tolist(), j4.tolist())]
    listed += [(i, j, "c6") for i, j in zip(i6.tolist(), j6.tolist())]
    assert len(set(listed)) == len(listed)
    return set(listed)


def _assert_matches_reference(seq, forbidden, position_budget=36):
    kinds = ("directed",) if forbidden else ("bipartite", "directed")
    for kind in kinds:
        k = exact_transition_matrix(seq, forbidden, kind, position_budget=position_budget)
        assert _mask_pairs(k.states, kind == "directed") == set(
            _ref_classify_neighbors(k.states, kind == "directed")
        )
        P, offdiag = _ref_kernel(k.states, seq.n, seq.m, kind)
        assert k.matrix.tobytes() == P.tobytes()
        assert k.rational_offdiag == offdiag
    states = enumerate_realizations(seq, forbidden, position_budget=position_budget)
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
    assert _state_codes(states).dtype == object
    codes = _state_codes(states).tolist()
    assert codes == sorted(codes) and len(set(codes)) == len(codes)
    if forbidden:
        _, (i6, _) = _neighbor_pairs(states, True)
        assert len(i6) > 0


def test_state_codes_read_rows_big_endian():
    states = enumerate_realizations(BipartiteDegreeSequence((2, 1, 1), (2, 1, 1)))
    codes = _state_codes(states)
    assert codes.dtype == np.uint64
    expect = [int("".join(str(b) for b in r.matrix.reshape(-1)), 2) for r in states]
    assert codes.tolist() == expect == sorted(expect)


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
