import itertools

import pytest

from swapmc import (
    BipartiteDegreeSequence,
    DegreeBounds,
    DirectedDegreeBiSequence,
    bounds_of,
    enumerate_realizations,
    is_bipartite_graphic,
    is_directed_graphic,
    kleitman_wang_arcs,
)


def test_sequence_validation():
    seq = BipartiteDegreeSequence((2, 1, 1), (2, 1, 1))
    assert seq.n == 3 and seq.m == 3 and seq.edge_count == 4
    with pytest.raises(ValueError):
        BipartiteDegreeSequence((2,), (1, 1, 1))  # sum mismatch
    with pytest.raises(ValueError):
        BipartiteDegreeSequence((-1, 1), (0, 0))
    with pytest.raises(ValueError):
        BipartiteDegreeSequence((), ())
    with pytest.raises(ValueError):
        DirectedDegreeBiSequence((1, 1), (1, 1, 0))  # length mismatch
    with pytest.raises(ValueError):
        DirectedDegreeBiSequence((2, 0), (1, 0))  # sum mismatch


def test_bipartite_graphic_examples():
    assert is_bipartite_graphic(BipartiteDegreeSequence((2, 1, 1), (2, 1, 1)))
    # single v-vertex cannot absorb degree 2
    assert not is_bipartite_graphic(BipartiteDegreeSequence((2,), (2,)))
    assert is_bipartite_graphic(BipartiteDegreeSequence((1, 1), (1, 1)))


def test_bipartite_graphic_agrees_with_enumeration():
    seq = BipartiteDegreeSequence((2, 1, 1), (2, 1, 1))
    assert len(enumerate_realizations(seq)) > 0


def test_directed_graphic_examples():
    assert is_directed_graphic(DirectedDegreeBiSequence((1, 1, 1), (1, 1, 1)))
    assert not is_directed_graphic(DirectedDegreeBiSequence((2, 0), (0, 2)))
    assert is_directed_graphic(DirectedDegreeBiSequence((0, 0, 0), (0, 0, 0)))


def test_kleitman_wang_arcs_realize_the_profile():
    d = DirectedDegreeBiSequence((2, 1, 1), (1, 2, 1))
    arcs = kleitman_wang_arcs(d)
    assert arcs is not None
    assert len(set(arcs)) == len(arcs)
    out = [0] * d.n
    ind = [0] * d.n
    for i, j in arcs:
        assert i != j
        out[i] += 1
        ind[j] += 1
    assert tuple(out) == d.out_degrees and tuple(ind) == d.in_degrees


def test_bounds_of_orientation():
    seq = BipartiteDegreeSequence((2, 1, 1), (2, 2, 0))
    b = bounds_of(seq)
    # [c1, c2] bounds the V-degrees, [d1, d2] the U-degrees
    assert (b.c1, b.c2) == (0, 2)
    assert (b.d1, b.d2) == (1, 2)
    assert (b.n, b.m) == (3, 3)

    reg = bounds_of(BipartiteDegreeSequence((2, 2), (2, 2)))
    assert (reg.c1, reg.c2, reg.d1, reg.d2) == (2, 2, 2, 2)

    tri = bounds_of(DirectedDegreeBiSequence((1, 1, 1), (1, 1, 1)))
    assert (tri.c1, tri.c2, tri.d1, tri.d2) == (1, 1, 1, 1)
    assert tri.n == tri.m == 3

    with pytest.raises(TypeError, match="unsupported sequence type: tuple"):
        bounds_of(((1, 1), (1, 1)))


def test_bounds_attained_and_cover():
    seq = BipartiteDegreeSequence((3, 1, 2, 2), (2, 2, 2, 2))
    b = bounds_of(seq)
    assert all(b.d1 <= d <= b.d2 for d in seq.u_degrees)
    assert all(b.c1 <= d <= b.c2 for d in seq.v_degrees)
    assert b.d1 in seq.u_degrees and b.d2 in seq.u_degrees
    assert b.c1 in seq.v_degrees and b.c2 in seq.v_degrees


def test_degree_bounds_invariants():
    with pytest.raises(ValueError):
        DegreeBounds(c1=2, c2=1, d1=0, d2=0, n=3, m=3)


def test_bipartite_graphicality_matches_counting_oracle():
    # representatives (sorted degree tuples) with n,m <= 5 and degrees <= 4;
    # graphicality must coincide with a non-empty realization count
    from swapmc import count_realizations

    for n in range(1, 6):
        for m in range(1, 6):
            for u in itertools.combinations_with_replacement(range(min(4, m) + 1), n):
                for v in itertools.combinations_with_replacement(
                    range(min(4, n) + 1), m
                ):
                    if sum(u) != sum(v):
                        continue
                    seq = BipartiteDegreeSequence(u, v)
                    assert is_bipartite_graphic(seq) == (count_realizations(seq) > 0)


def _brute_directed_profiles(n):
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    seen = set()
    for bits in itertools.product((0, 1), repeat=len(cells)):
        out = [0] * n
        ind = [0] * n
        for (i, j), e in zip(cells, bits):
            if e:
                out[i] += 1
                ind[j] += 1
        seen.add((tuple(out), tuple(ind)))
    return seen


@pytest.mark.parametrize("n", [2, 3])
def test_directed_graphicality_matches_brute_force_small(n):
    profiles = _brute_directed_profiles(n)
    for out in itertools.product(range(n), repeat=n):
        for ind in itertools.product(range(n), repeat=n):
            if sum(out) != sum(ind):
                continue
            d = DirectedDegreeBiSequence(out, ind)
            assert is_directed_graphic(d) == ((out, ind) in profiles)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: BipartiteDegreeSequence((1.5, 1), (1, 1.5)),
            "u_degrees must contain integers",
        ),
        (
            lambda: DegreeBounds(c1=1, c2=1, d1=1, d2=1, n=0, m=2),
            "class sizes must be positive",
        ),
    ],
    ids=["non-integer-degree", "empty-class"],
)
def test_degrees_argument_checks(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
