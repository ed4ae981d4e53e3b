import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swapmc import (
    DegreeBounds,
    DirectedDegreeBiSequence,
    bounds_of,
    bipartite_spread_condition,
    directed_spread_condition,
    erdos_renyi_window,
)
from swapmc.conditions import ConditionReport, greenhill_sfragara_directed


def test_bipartite_condition_worked_examples():
    rep = bipartite_spread_condition(DegreeBounds(c1=2, c2=2, d1=2, d2=2, n=4, m=4))
    assert rep.applicable and rep.holds
    assert rep.lhs == 1  # (-1) * (-1)
    assert rep.rhs == 4 and rep.rhs_candidates == (4, 4)

    rep = bipartite_spread_condition(DegreeBounds(c1=1, c2=5, d1=1, d2=5, n=6, m=6))
    assert rep.applicable and not rep.holds
    assert rep.lhs == 9 and rep.rhs == 1

    # almost-half-regular: c2 = c1 + 1 forces lhs = 0 <= rhs
    rep = bipartite_spread_condition(DegreeBounds(c1=2, c2=3, d1=1, d2=3, n=6, m=6))
    assert rep.lhs == 0 and rep.holds


@st.composite
def _bipartite_bounds(draw):
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    c1, c2 = sorted(draw(st.lists(st.integers(0, n + 1), min_size=2, max_size=2)))
    d1, d2 = sorted(draw(st.lists(st.integers(0, m + 1), min_size=2, max_size=2)))
    return DegreeBounds(c1=c1, c2=c2, d1=d1, d2=d2, n=n, m=m)


@given(_bipartite_bounds())
@example(DegreeBounds(c1=1, c2=3, d1=2, d2=4, n=5, m=6))  # candidates (2, 4)
def test_bipartite_condition_invariant_under_swapping_u_and_v(b):
    rep = bipartite_spread_condition(b)
    mirror = bipartite_spread_condition(
        DegreeBounds(c1=b.d1, c2=b.d2, d1=b.c1, d2=b.c2, n=b.m, m=b.n)
    )
    assert mirror.applicable == rep.applicable
    assert mirror.holds == rep.holds
    assert mirror.lhs == rep.lhs and mirror.rhs == rep.rhs
    if rep.applicable:
        assert mirror.rhs_candidates == rep.rhs_candidates[::-1]
    else:
        assert mirror.rhs_candidates is rep.rhs_candidates is None


def test_bipartite_condition_window():
    rep = bipartite_spread_condition(DegreeBounds(c1=0, c2=2, d1=1, d2=2, n=4, m=4))
    assert not rep.applicable and rep.verdict == "not applicable"
    rep = bipartite_spread_condition(DegreeBounds(c1=1, c2=4, d1=1, d2=2, n=4, m=4))
    assert not rep.applicable  # c2 = n


def test_half_regular_always_holds_when_applicable():
    for n in range(2, 9):
        for m in range(2, 9):
            for c in range(1, n):
                for d1 in range(1, m):
                    for d2 in range(d1, m):
                        rep = bipartite_spread_condition(
                            DegreeBounds(c1=c, c2=c, d1=d1, d2=d2, n=n, m=m)
                        )
                        assert rep.applicable and rep.holds


def test_directed_condition_worked_examples():
    # regular: lhs = 0, rhs = 2 + k(n-k-1) + 2k - n >= 0 for 1 <= k <= n-2
    for n in range(3, 12):
        for k in range(1, n - 1):
            rep = directed_spread_condition(DegreeBounds(c1=k, c2=k, d1=k, d2=k, n=n, m=n))
            assert rep.applicable
            assert rep.rhs == 2 + k * (n - k - 1) + 2 * k - n
            assert rep.lhs == 0 and rep.holds

    rep = directed_spread_condition(DegreeBounds(c1=3, c2=5, d1=3, d2=5, n=8, m=8))
    assert rep.lhs == 4 and rep.rhs == 8 and rep.holds

    rep = directed_spread_condition(DegreeBounds(c1=1, c2=6, d1=1, d2=6, n=8, m=8))
    assert rep.lhs == 25 and rep.rhs == 2 and not rep.holds


@st.composite
def _regular_digraph_shape(draw):
    n = draw(st.integers(2, 10**6))
    return n, draw(st.integers(1, n - 1))


@settings(max_examples=40, deadline=None)
@given(_regular_digraph_shape())
@example((2, 1))
@example((3, 2))
@example((10**6, 1))
@example((10**6, 10**6 - 1))
def test_directed_condition_holds_on_every_regular_digraph(shape):
    # d = n - 1 is the complete digraph, outside the worked examples' range
    n, d = shape
    rep = directed_spread_condition(bounds_of(DirectedDegreeBiSequence((d,) * n, (d,) * n)))
    assert rep.applicable and rep.holds
    assert rep.lhs == 0 and rep.rhs == 2 + d * (n - d - 1) + 2 * d - n


def test_directed_condition_window():
    rep = directed_spread_condition(DegreeBounds(c1=1, c2=8, d1=1, d2=6, n=8, m=8))
    assert not rep.applicable


def test_condition_arithmetic_is_integer():
    rep = bipartite_spread_condition(DegreeBounds(c1=1, c2=3, d1=2, d2=4, n=6, m=7))
    assert isinstance(rep.lhs, int) and isinstance(rep.rhs, int)
    assert all(isinstance(x, int) for x in rep.rhs_candidates)


def _shrunk(c1, c2, d1, d2):
    if c1 < c2:
        yield c1 + 1, c2, d1, d2
        yield c1, c2 - 1, d1, d2
    if d1 < d2:
        yield c1, c2, d1 + 1, d2
        yield c1, c2, d1, d2 - 1


def test_monotone_under_interval_shrinking_small():
    for n in range(2, 9):
        for m in range(2, 9):
            for c1 in range(1, n):
                for c2 in range(c1, n):
                    for d1 in range(1, m):
                        for d2 in range(d1, m):
                            rep = bipartite_spread_condition(
                                DegreeBounds(c1=c1, c2=c2, d1=d1, d2=d2, n=n, m=m)
                            )
                            if not rep.holds:
                                continue
                            for s in _shrunk(c1, c2, d1, d2):
                                srep = bipartite_spread_condition(
                                    DegreeBounds(*s, n=n, m=m)
                                )
                                assert srep.holds, (n, m, c1, c2, d1, d2, s)


# Frozen copies of the two spread evaluators as they stood before they were
# merged into one: every report field, reason strings and active branch
# included, must keep these values, because ``swapmc check`` prints them.
def _frozen_bipartite_spread_condition(b: DegreeBounds) -> ConditionReport:
    c1, c2, d1, d2, n, m = b.c1, b.c2, b.d1, b.d2, b.n, b.m
    lhs_factors = (c2 - c1 - 1, d2 - d1 - 1)
    lhs = lhs_factors[0] * lhs_factors[1]
    applicable = 0 < c1 <= c2 < n and 0 < d1 <= d2 < m
    if not applicable:
        return ConditionReport(
            name="bipartite-spread",
            bounds=b,
            applicable=False,
            holds=None,
            lhs=lhs,
            rhs=None,
            lhs_factors=lhs_factors,
            rhs_candidates=None,
            active_branch=None,
            reason=f"window violated: need 0 < c1 <= c2 < n={n} and 0 < d1 <= d2 < m={m}",
        )
    candidates = (c1 * (m - d2), d1 * (n - c2))
    rhs = max(candidates)
    return ConditionReport(
        name="bipartite-spread",
        bounds=b,
        applicable=True,
        holds=lhs <= rhs,
        lhs=lhs,
        rhs=rhs,
        lhs_factors=lhs_factors,
        rhs_candidates=candidates,
        active_branch=0 if candidates[0] >= candidates[1] else 1,
    )


def _frozen_directed_spread_condition(b: DegreeBounds) -> ConditionReport:
    c1, c2, d1, d2, n = b.c1, b.c2, b.d1, b.d2, b.n
    lhs_factors = (c2 - c1, d2 - d1)
    lhs = lhs_factors[0] * lhs_factors[1]
    applicable = 0 < c1 <= c2 < n and 0 < d1 <= d2 < n
    if not applicable:
        return ConditionReport(
            name="directed-spread",
            bounds=b,
            applicable=False,
            holds=None,
            lhs=lhs,
            rhs=None,
            lhs_factors=lhs_factors,
            rhs_candidates=None,
            active_branch=None,
            reason=f"window violated: need 0 < c1 <= c2 < n={n} and 0 < d1 <= d2 < n={n}",
        )
    candidates = (c1 * (n - d2 - 1) + d1 + c2, d1 * (n - c2 - 1) + c1 + d2)
    rhs = 2 + max(candidates) - n
    return ConditionReport(
        name="directed-spread",
        bounds=b,
        applicable=True,
        holds=lhs <= rhs,
        lhs=lhs,
        rhs=rhs,
        lhs_factors=lhs_factors,
        rhs_candidates=candidates,
        active_branch=0 if candidates[0] >= candidates[1] else 1,
    )


@pytest.fixture(scope="module")
def bounds_grid():
    # every bound pair in 0..n+1 and 0..m+1, so both window edges and the
    # not-applicable reasons are reached; m != n is fed to both kinds
    return [
        DegreeBounds(c1=c1, c2=c2, d1=d1, d2=d2, n=n, m=m)
        for n in range(1, 9)
        for m in range(1, 9)
        for c1 in range(n + 2)
        for c2 in range(c1, n + 2)
        for d1 in range(m + 2)
        for d2 in range(d1, m + 2)
    ]


@pytest.mark.parametrize(
    "evaluator, frozen",
    [
        (bipartite_spread_condition, _frozen_bipartite_spread_condition),
        (directed_spread_condition, _frozen_directed_spread_condition),
    ],
    ids=["bipartite", "directed"],
)
def test_spread_conditions_match_frozen_copy_on_full_grid(bounds_grid, evaluator, frozen):
    assert len(bounds_grid) == 46656
    reports = [evaluator(b) for b in bounds_grid]
    expected = [frozen(b) for b in bounds_grid]
    # dataclass equality compares every field, reason and active_branch included
    mismatched = [want for rep, want in zip(reports, expected) if rep != want]
    assert not mismatched, mismatched[:3]
    assert {rep.active_branch for rep in reports} == {None, 0, 1}


def test_er_window_bipartite_examples():
    rep = erdos_renyi_window("bipartite", 1000, 0.5, m=1000)
    lo, hi = rep.windows[0]
    assert math.isclose(lo, 3 * math.sqrt((math.log(1000) + 0.5 * math.log(2)) / 1000))
    assert abs(lo - 0.2556) < 5e-4
    assert abs(hi - 0.7444) < 5e-4
    assert rep.holds

    rep = erdos_renyi_window("bipartite", 100, 0.5, m=100)
    assert rep.windows[0][0] > 0.5  # lower endpoint ~0.667
    assert abs(rep.windows[0][0] - 0.667) < 2e-3
    assert not rep.holds


def test_er_window_directed_example():
    rep = erdos_renyi_window("directed", 1000, 0.5)
    lo, hi = rep.windows[0]
    assert abs(lo - 0.3188) < 1e-3
    assert abs(hi - 0.6812) < 1e-3
    assert rep.holds


def test_er_window_orientations_are_ored():
    # asymmetric classes: one orientation can fail while the other holds
    rep = erdos_renyi_window("bipartite", 4000, 0.35, m=400)
    assert rep.inside[0] != rep.inside[1]
    assert rep.holds


def test_er_window_validation():
    with pytest.raises(ValueError):
        erdos_renyi_window("bipartite", 10, 0.0)
    with pytest.raises(ValueError):
        erdos_renyi_window("tripartite", 10, 0.5)


def test_greenhill_sfragara_on_regular_digraphs_holds_iff_16d_le_n():
    for n in range(2, 70):
        for d in range(1, n):
            rep = greenhill_sfragara_directed(DirectedDegreeBiSequence((d,) * n, (d,) * n))
            assert rep.applicable
            assert rep.holds == (16 * d <= n), (n, d)
            assert rep.lhs == 16 * d * d and rep.rhs == n * d


def test_greenhill_sfragara_uses_the_largest_in_or_out_degree():
    rep = greenhill_sfragara_directed(DirectedDegreeBiSequence((1,) * 17, (1,) * 17))
    assert rep.holds and rep.lhs == 16 and rep.rhs == 17
    out_heavy = DirectedDegreeBiSequence((2,) + (1,) * 15 + (0,), (1,) * 17)
    rep = greenhill_sfragara_directed(out_heavy)
    assert rep.lhs == 64 and rep.rhs == 17 and rep.holds is False
    in_heavy = DirectedDegreeBiSequence((1,) * 17, (2,) + (1,) * 15 + (0,))
    assert greenhill_sfragara_directed(in_heavy).lhs == 64


def test_greenhill_sfragara_window():
    rep = greenhill_sfragara_directed(DirectedDegreeBiSequence((0, 0), (0, 0)))
    assert not rep.applicable and rep.holds is None and rep.verdict == "not applicable"


@pytest.mark.parametrize(
    "args, message",
    [
        (("bipartite", 1, 0.5), "need n, m >= 2"),
        (("bipartite", 4, 0.5, 1), "need n, m >= 2"),
        (("directed", 4, 0.5, 5), "directed window has a single class size"),
        (("directed", 1, 0.5), "need n >= 2"),
    ],
    ids=["bipartite-n", "bipartite-m", "directed-two-sizes", "directed-n"],
)
def test_erdos_renyi_window_size_checks(args, message):
    with pytest.raises(ValueError) as info:
        erdos_renyi_window(*args)
    assert str(info.value) == message


def test_erdos_renyi_window_bipartite_m_defaults_to_n():
    assert erdos_renyi_window("bipartite", 40, 0.5) == erdos_renyi_window("bipartite", 40, 0.5, 40)
    assert erdos_renyi_window("bipartite", 40, 0.5).m == 40
