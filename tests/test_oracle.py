import itertools
from fractions import Fraction

import numpy as np
import pytest

from swapmc import (
    BipartiteDegreeSequence,
    BudgetExceededError,
    count_realizations,
    enumerate_realizations,
    exact_transition_matrix,
    swap_graph_connected,
    tv_curve,
    tv_from_kernel,
)

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
