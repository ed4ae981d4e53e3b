import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapmc import (
    AuxiliaryMatrix,
    BadPositionReport,
    BipartiteDegreeSequence,
    BipartiteRealization,
    CanonicalPath,
    Cycle,
    CycleDecomposition,
    DirectedDegreeBiSequence,
    DirectedRealization,
    RepairReport,
    SwapMove,
    auxiliary_matrix,
    bounds_of,
    build_canonical_path,
    construct_bipartite,
    construct_directed,
    cornerstone,
    decompose,
    enumerate_realizations,
    hamming_distance,
    milestones,
    repair_to_realization,
    step_bipartite,
    step_directed,
    sweep,
    to_bipartite_representation,
    verify_bad_positions,
    verify_repairs,
)
from swapmc.errors import RepairError
from swapmc.paths import (
    _BLOCK_CELLS,
    PathSegment,
    _check_compatible,
    _direct_exchanges,
    _find_detour,
    _repair,
)

DIAG3 = tuple((i, i) for i in range(3))
DIAG = lambda n: tuple((i, i) for i in range(n))


def _matchings_22():
    seq = BipartiteDegreeSequence((1, 1), (1, 1))
    a = BipartiteRealization(seq, [[1, 0], [0, 1]])
    b = BipartiteRealization(seq, [[0, 1], [1, 0]])
    return a, b


def _triangle_reps():
    seq = BipartiteDegreeSequence((1, 1, 1), (1, 1, 1))
    fwd = BipartiteRealization(seq, [[0, 1, 0], [0, 0, 1], [1, 0, 0]], DIAG3)
    bwd = BipartiteRealization(seq, [[0, 0, 1], [1, 0, 0], [0, 1, 0]], DIAG3)
    return fwd, bwd


def _randomized_pair(seq, forbidden, seed, steps=300):
    rng = np.random.default_rng(seed)
    step = step_directed if forbidden else step_bipartite
    x = construct_bipartite(seq, forbidden)
    for _ in range(steps):
        x, _ = step(x, rng, inplace=True)
    y = x.copy()
    for _ in range(steps):
        y, _ = step(y, rng, inplace=True)
    return x, y


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def test_decompose_identical_is_empty():
    a, _ = _matchings_22()
    assert decompose(a, a).cycles == ()


def test_decompose_two_matchings_single_c4():
    a, b = _matchings_22()
    dec = decompose(a, b)
    assert len(dec.cycles) == 1
    assert dec.cycles[0].ell == 2
    assert set(dec.cycles[0].chords()) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_decompose_triangle_c6_opposite_pairs_forbidden():
    x, y = _triangle_reps()
    dec = decompose(x, y)
    assert len(dec.cycles) == 1
    cyc = dec.cycles[0]
    assert cyc.ell == 3
    # the six difference chords avoid the diagonal entirely
    assert all(u != v for u, v in cyc.chords())
    # X-labelled chords are exactly the edges of x
    assert set(cyc.x_chords()) == set(x.edges())
    assert set(cyc.y_chords()) == set(y.edges())


def test_decompose_partitions_difference_and_alternates():
    seq = BipartiteDegreeSequence((2, 3, 2, 3, 2), (3, 2, 3, 2, 2))
    for seed in range(20):
        x, y = _randomized_pair(seq, (), seed)
        dec = decompose(x, y)
        nabla = {
            (int(u), int(v)) for u, v in zip(*np.nonzero(x.matrix != y.matrix))
        }
        chords = [c for cyc in dec.cycles for c in cyc.chords()]
        assert len(chords) == len(set(chords))
        assert set(chords) == nabla
        for cyc in dec.cycles:
            assert set(cyc.x_chords()) <= set(x.edges())
            assert set(cyc.y_chords()) <= set(y.edges())
            assert len(set(cyc.us)) == cyc.ell and len(set(cyc.vs)) == cyc.ell
            assert cyc.first_is_x


def test_decompose_deterministic():
    seq = BipartiteDegreeSequence((2, 2, 2, 1), (2, 2, 2, 1))
    x, y = _randomized_pair(seq, (), 3)
    assert decompose(x, y) == decompose(x, y)


# ---------------------------------------------------------------------------
# milestones
# ---------------------------------------------------------------------------


def test_milestones_single_cycle():
    a, b = _matchings_22()
    miles = milestones(a, b, decompose(a, b))
    assert len(miles) == 2
    assert miles[0] == a and miles[1] == b


def test_milestones_two_cycles():
    seq = BipartiteDegreeSequence((1, 1, 1, 1), (1, 1, 1, 1))
    x = BipartiteRealization(seq, np.eye(4, dtype=np.uint8))
    ym = np.zeros((4, 4), dtype=np.uint8)
    ym[0, 1] = ym[1, 0] = ym[2, 3] = ym[3, 2] = 1
    y = BipartiteRealization(seq, ym)
    dec = decompose(x, y)
    assert len(dec.cycles) == 2
    miles = milestones(x, y, dec)
    assert len(miles) == 3
    miles[1].validate()
    assert miles[0] == x and miles[2] == y


def test_milestones_empty():
    a, _ = _matchings_22()
    assert milestones(a, a, decompose(a, a)) == [a]


# ---------------------------------------------------------------------------
# cornerstone
# ---------------------------------------------------------------------------


def test_cornerstone_tie_break_lowest_index():
    a, b = _matchings_22()
    cyc = decompose(a, b).cycles[0]
    assert cornerstone(a, cyc) == 0


def test_cornerstone_minimal_row_sum():
    seq = BipartiteDegreeSequence((2, 1, 1), (2, 1, 1))
    mat = np.array([[1, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=np.uint8)
    r = BipartiteRealization(seq, mat)
    from swapmc import Cycle

    cyc = Cycle(us=(0, 1, 2), vs=(0, 1, 2), first_is_x=True)
    # row sums over the full 3x3 submatrix: (2, 1, 1) -> row 1 wins
    assert cornerstone(r, cyc) == 1


def test_cornerstone_triangle_symmetry():
    x, y = _triangle_reps()
    cyc = decompose(x, y).cycles[0]
    assert cornerstone(x, cyc) == min(cyc.us)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_c4_cycle_single_swap():
    a, b = _matchings_22()
    res = sweep(a, b, decompose(a, b).cycles[0])
    assert len(res.moves) == 1 and res.moves[0].kind == "c4"
    assert res.states[-1] == b


def test_sweep_triangle_is_one_c6():
    x, y = _triangle_reps()
    res = sweep(x, y, decompose(x, y).cycles[0])
    assert [m.kind for m in res.moves] == ["c6"]
    assert res.states[-1] == y
    assert res.intermediate == [False]


def test_sweep_unforbidden_cycle_cost_is_ell_minus_one():
    # build a pair whose difference is a single 10-chord cycle (ell = 5)
    seq = BipartiteDegreeSequence((1,) * 5, (1,) * 5)
    x = BipartiteRealization(seq, np.eye(5, dtype=np.uint8))
    ym = np.zeros((5, 5), dtype=np.uint8)
    for i in range(5):
        ym[i, (i + 1) % 5] = 1
    y = BipartiteRealization(seq, ym)
    dec = decompose(x, y)
    assert len(dec.cycles) == 1 and dec.cycles[0].ell == 5
    res = sweep(x, y, dec.cycles[0])
    assert len(res.moves) == 4
    assert res.states[-1] == y


def test_sweep_8x8_long_cycle_and_random_replay():
    # a single 16-chord cycle costs exactly 7 swaps
    seq = BipartiteDegreeSequence((1,) * 8, (1,) * 8)
    x = BipartiteRealization(seq, np.eye(8, dtype=np.uint8))
    ym = np.zeros((8, 8), dtype=np.uint8)
    for i in range(8):
        ym[i, (i + 1) % 8] = 1
    y = BipartiteRealization(seq, ym)
    dec = decompose(x, y)
    assert len(dec.cycles) == 1 and dec.cycles[0].ell == 8
    res = sweep(x, y, dec.cycles[0])
    assert len(res.moves) == 7
    assert res.states[-1] == y

    # randomized 8+8 instances: replaying the path's moves reaches Y and the
    # end state of every sweep equals the direct set-difference target
    seq = BipartiteDegreeSequence((2, 3, 2, 3, 2, 2, 3, 3), (3, 2, 3, 2, 3, 3, 2, 2))
    for seed in range(5):
        x, y = _randomized_pair(seq, (), seed)
        path = build_canonical_path(x, y)
        z = x.copy()
        for mv in path.moves:
            z = z.apply_move(mv)
        assert set(z.edges()) == set(y.edges())
        for seg in path.segments:
            assert seg.move_count == seg.ell - 1


def test_sweep_rejects_wrong_cycle():
    a, b = _matchings_22()
    seq4 = BipartiteDegreeSequence((1, 1, 1, 1), (1, 1, 1, 1))
    x = BipartiteRealization(seq4, np.eye(4, dtype=np.uint8))
    ym = np.zeros((4, 4), dtype=np.uint8)
    ym[0, 1] = ym[1, 0] = ym[2, 3] = ym[3, 2] = 1
    y = BipartiteRealization(seq4, ym)
    cycles = decompose(x, y).cycles
    with pytest.raises(ValueError):
        sweep(x, y, cycles[0])  # difference is two cycles, not one


def test_sweep_every_state_valid_and_moves_legal():
    seq = BipartiteDegreeSequence((2, 2, 3, 2, 3), (3, 2, 3, 2, 2))
    for seed in range(10):
        x, y = _randomized_pair(seq, (), seed)
        for k, cyc in enumerate(decompose(x, y).cycles):
            miles = milestones(x, y, decompose(x, y))
            res = sweep(miles[k], miles[k + 1], cyc)
            z = miles[k]
            for mv in res.moves:
                z = z.apply_move(mv)  # raises if illegal
                z.validate()
            assert z == miles[k + 1]


# ---------------------------------------------------------------------------
# auxiliary matrices
# ---------------------------------------------------------------------------


def test_auxiliary_cancellation():
    x, y = _randomized_pair(BipartiteDegreeSequence((2, 1, 1), (2, 1, 1)), (), 0)
    aux = auxiliary_matrix(x, y, x)
    assert np.array_equal(aux.matrix, y.matrix.astype(np.int16))


def test_auxiliary_entry_cases():
    # one position per entry value: 2 (in X and Y, not Z), -1 (only in Z),
    # 1 and 0 in their variants, and a star via the forbidden pair
    seq = BipartiteDegreeSequence((1, 1, 1), (1, 1, 1))
    forb = ((2, 0),)
    x = BipartiteRealization(seq, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], forb)
    y = BipartiteRealization(seq, [[1, 0, 0], [0, 0, 1], [0, 1, 0]], forb)
    z = BipartiteRealization(seq, [[0, 1, 0], [1, 0, 0], [0, 0, 1]], forb)
    aux = auxiliary_matrix(x, y, z)
    aux.validate()
    expected = np.array([[2, -1, 0], [-1, 1, 1], [0, 1, 0]], dtype=np.int16)
    assert np.array_equal(aux.matrix, expected)
    assert aux.is_star(2, 0)
    twos, ones = aux.bad_positions()
    assert twos == [(0, 0)]
    assert set(ones) == {(0, 1), (1, 0)}
    assert str(aux) == " 2 -1  0\n-1  1  1\n *  1  0"


def test_auxiliary_margins_along_paths():
    seq = BipartiteDegreeSequence((2, 2, 2, 1), (2, 2, 2, 1))
    for seed in range(15):
        x, y = _randomized_pair(seq, (), seed)
        path = build_canonical_path(x, y)
        for z in path.states:
            aux = auxiliary_matrix(x, y, z)
            aux.validate()  # includes margin equality with M_X


def test_auxiliary_rejects_bad_entries():
    seq = BipartiteDegreeSequence((1, 1), (1, 1))
    with pytest.raises(ValueError):
        AuxiliaryMatrix(seq, [[3, -2], [-2, 3]])


# ---------------------------------------------------------------------------
# canonical paths end to end
# ---------------------------------------------------------------------------


def test_path_replay_and_milestone_anchors():
    seq = BipartiteDegreeSequence((2, 3, 2, 3, 2, 2), (2, 3, 2, 3, 2, 2))
    for seed in range(10):
        x, y = _randomized_pair(seq, (), seed)
        path = build_canonical_path(x, y)
        z = x.copy()
        for mv in path.moves:
            z = z.apply_move(mv)
        assert z == y
        dec = decompose(x, y)
        miles = milestones(x, y, dec)
        for anchor, h in zip(path.milestone_indices, miles):
            assert path.states[anchor] == h
        for seg in path.segments:
            assert seg.move_count == seg.ell - 1  # no forbidden matching


def test_path_directed_move_bound():
    seq = BipartiteDegreeSequence((2, 3, 2, 3, 2, 2), (2, 3, 2, 3, 2, 2))
    for seed in range(10):
        x, y = _randomized_pair(seq, DIAG(6), seed)
        path = build_canonical_path(x, y)
        z = x.copy()
        for mv in path.moves:
            z = z.apply_move(mv)
        assert z == y
        for seg in path.segments:
            assert seg.move_count <= 2 * seg.ell


def test_path_trivial():
    a, _ = _matchings_22()
    path = build_canonical_path(a, a)
    assert path.moves == [] and path.states == [a]
    rep = verify_bad_positions(path, a, a)
    assert rep.ok and rep.max_twos_direct == 0


# ---------------------------------------------------------------------------
# bad positions
# ---------------------------------------------------------------------------


def test_bad_positions_single_c4_path():
    a, b = _matchings_22()
    path = build_canonical_path(a, b)
    rep = verify_bad_positions(path, a, b)
    assert rep.ok
    assert rep.max_twos_direct <= 1 and rep.max_minus_ones_direct <= 1


def test_bad_positions_randomized():
    seq = BipartiteDegreeSequence((2, 3, 2, 3, 2, 2), (2, 3, 2, 3, 2, 2))
    for seed in range(25):
        x, y = _randomized_pair(seq, (), seed)
        path = build_canonical_path(x, y)
        rep = verify_bad_positions(path, x, y)
        assert rep.ok
        assert rep.max_twos_direct <= 2 and rep.max_minus_ones_direct <= 1


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------


def test_repair_identity_when_already_binary():
    x, y = _matchings_22()
    aux = auxiliary_matrix(x, y, y)  # equals M_X
    res = repair_to_realization(aux)
    assert res.switches == [] and res.distance == 0
    assert res.realization == x


def test_repair_frozen_two_and_minus_one():
    # frozen 6x6 instance recorded from an actual sweep: the traversed state
    # carries one 2 and one -1 simultaneously and repairs in two switches
    seq = BipartiteDegreeSequence((3, 2, 4, 4, 4, 4), (4, 3, 3, 4, 4, 3))
    x = BipartiteRealization(
        seq,
        [
            [1, 0, 0, 0, 1, 1],
            [1, 0, 0, 0, 0, 1],
            [0, 1, 1, 1, 1, 0],
            [1, 0, 1, 1, 1, 0],
            [0, 1, 1, 1, 1, 0],
            [1, 1, 0, 1, 0, 1],
        ],
    )
    y = BipartiteRealization(
        seq,
        [
            [0, 1, 0, 1, 1, 0],
            [0, 0, 0, 0, 1, 1],
            [1, 1, 0, 1, 0, 1],
            [1, 1, 1, 0, 1, 0],
            [1, 0, 1, 1, 0, 1],
            [1, 0, 1, 1, 1, 0],
        ],
    )
    path = build_canonical_path(x, y)
    aux = auxiliary_matrix(x, y, path.states[4])
    twos, ones = aux.bad_positions()
    assert twos == [(1, 5)] and ones == [(1, 1)]
    seg = path.segment_of(4)
    res = repair_to_realization(aux, seg.norm_us, seg.norm_vs, seg.corner)
    assert len(res.switches) == 2
    assert res.distance == 6
    res.realization.validate()


def test_repair_two_entry_search():
    # hand-built auxiliary with a single 2 in the cornerstone row
    seq = BipartiteDegreeSequence((2, 1, 1), (2, 1, 1))
    M = np.array([[2, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=np.int16)
    aux = AuxiliaryMatrix(seq, M)
    res = repair_to_realization(aux, (0, 1, 2), (0, 1, 2), corner=0)
    assert len(res.switches) == 1
    assert res.distance == 4
    res.realization.validate()


def test_repair_minus_one_direct_switch():
    seq = BipartiteDegreeSequence((1, 1, 1), (1, 1, 1))
    M = np.array([[-1, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=np.int16)
    aux = AuxiliaryMatrix(seq, M)
    res = repair_to_realization(aux)
    assert len(res.switches) == 1
    assert res.distance == 4
    res.realization.validate()


def test_repair_minus_one_detour():
    # direct exchange blocked: all U' x V' entries are 1, so the two-switch
    # detour through U''/V'' must fire
    seq = BipartiteDegreeSequence((0, 2, 2, 2), (0, 2, 2, 2))
    M = np.array(
        [
            [-1, 1, 0, 0],
            [1, 1, 0, 0],
            [0, 0, 1, 1],
            [0, 0, 1, 1],
        ],
        dtype=np.int16,
    )
    aux = AuxiliaryMatrix(seq, M)
    res = repair_to_realization(aux)
    assert len(res.switches) == 2
    assert res.distance <= 8
    res.realization.validate()


def test_repair_eliminates_two_2_entries():
    # both 2s sit in the cornerstone row; each needs its own switch
    seq = BipartiteDegreeSequence((4, 2, 2, 2), (2, 2, 3, 3))
    M = np.array(
        [
            [2, 2, 0, 0],
            [0, 0, 1, 1],
            [0, 0, 1, 1],
            [0, 0, 1, 1],
        ],
        dtype=np.int16,
    )
    aux = AuxiliaryMatrix(seq, M)
    twos = [(0, 0), (0, 1)]
    assert aux.bad_positions() == (twos, [])
    res = repair_to_realization(aux, (0, 1, 2, 3), (0, 1, 2, 3), corner=0)
    assert len(res.switches) == 2
    assert res.distance == 8
    # the 2-cells each switch lowers (see the SwapMove sign convention)
    lowered = []
    for mv in res.switches:
        (r1, r2), (c1, c2) = mv.us, mv.vs
        down = {(r1, c1), (r2, c2)} if mv.sign < 0 else {(r1, c2), (r2, c1)}
        lowered.append(sorted(down & set(twos)))
    assert sorted(lowered) == [[twos[0]], [twos[1]]]
    assert set(np.unique(res.realization.matrix).tolist()) <= {0, 1}
    assert tuple(res.realization.matrix.sum(axis=1).tolist()) == seq.u_degrees
    assert tuple(res.realization.matrix.sum(axis=0).tolist()) == seq.v_degrees
    res.realization.validate()


def test_repair_two_star_donor_fallback():
    # first donor row with a 0 under the 2 is blocked by stars in every
    # comparable column; the search must fall through to the next donor
    seq = BipartiteDegreeSequence((1, 1, 3, 3), (3, 2, 2, 1))
    forb = ((0, 2), (1, 3))
    M = np.array(
        [
            [2, 0, 0, -1],
            [0, 0, 1, 0],
            [0, 1, 1, 1],
            [1, 1, 0, 1],
        ],
        dtype=np.int16,
    )
    aux = AuxiliaryMatrix(seq, M, forb)
    res = repair_to_realization(aux, (0, 1, 2, 3), (0, 1, 2, 3), corner=0)
    assert len(res.switches) == 2
    assert res.distance == 4  # the two switches overlap on two cells
    res.realization.validate()
    assert all(not res.realization.has_edge(u, v) for u, v in forb)
    # the blocked donor is row 1: columns 2 and 3 are starred in one of the
    # two rows and columns 0/1 do not exceed the cornerstone row
    assert M[1, 0] == 0 and aux.is_star(0, 2) and aux.is_star(1, 3)


def test_repair_requires_cornerstone_for_twos():
    seq = BipartiteDegreeSequence((2, 1, 1), (2, 1, 1))
    M = np.array([[2, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=np.int16)
    aux = AuxiliaryMatrix(seq, M)
    with pytest.raises(ValueError):
        repair_to_realization(aux)


def test_repair_reports_unrepairable():
    # -1 whose unit rows/columns leave no exchangeable 0 anywhere: neither the
    # direct switch nor the detour applies, which must surface as RepairError
    seq = BipartiteDegreeSequence((0, 2), (0, 2))
    M = np.array([[-1, 1], [1, 1]], dtype=np.int16)
    aux = AuxiliaryMatrix(seq, M)
    with pytest.raises(RepairError):
        repair_to_realization(aux)

    # a 2 whose column offers no donor row
    seq2 = BipartiteDegreeSequence((2, 0), (2, 0))
    M2 = np.array([[2, 0], [0, 0]], dtype=np.int16)
    aux2 = AuxiliaryMatrix(seq2, M2)
    with pytest.raises(RepairError):
        repair_to_realization(aux2, (0, 1), (0, 1), corner=0)


def test_repair_cross_checked_by_switch_search():
    # exhaustive 2-switch BFS over margin-preserving switches must agree
    # that the crafted detour instance is repairable in exactly 2 switches
    M0 = np.array(
        [
            [-1, 1, 0, 0],
            [1, 1, 0, 0],
            [0, 0, 1, 1],
            [0, 0, 1, 1],
        ],
        dtype=np.int16,
    )

    def binary(m):
        return bool(np.isin(m, (0, 1)).all())

    def all_switches(m):
        for r1, r2 in itertools.combinations(range(4), 2):
            for c1, c2 in itertools.combinations(range(4), 2):
                for sign in (1, -1):
                    m2 = m.copy()
                    m2[r1, c1] += sign
                    m2[r2, c2] += sign
                    m2[r1, c2] -= sign
                    m2[r2, c1] -= sign
                    if np.isin(m2, (-1, 0, 1, 2)).all():
                        yield m2

    assert not binary(M0)
    assert not any(binary(m) for m in all_switches(M0))
    assert any(
        binary(m2) for m in all_switches(M0) for m2 in all_switches(m)
    )


def test_verify_repairs_randomized_bipartite():
    seq = BipartiteDegreeSequence((2, 3, 2, 3, 2, 2), (2, 3, 2, 3, 2, 2))
    for seed in range(15):
        x, y = _randomized_pair(seq, (), seed)
        path = build_canonical_path(x, y)
        rep = verify_repairs(path, x, y, bounds_of(seq))
        assert rep.ok
        assert rep.max_switches <= 4
        assert rep.max_distance_direct <= 16


def test_verify_repairs_randomized_directed():
    seq = BipartiteDegreeSequence((2, 3, 2, 3, 2, 2), (2, 3, 2, 3, 2, 2))
    for seed in range(15):
        x, y = _randomized_pair(seq, DIAG(6), seed)
        path = build_canonical_path(x, y)
        rep = verify_repairs(path, x, y, bounds_of(seq))
        assert rep.ok
        assert rep.max_switches <= 4
        assert rep.max_distance_direct <= 16
        assert rep.max_distance_intermediate <= 20


def test_hamming_via_path_states():
    # two realizations one c4 apart have distance 4; one c6 apart, 6
    a, b = _matchings_22()
    assert hamming_distance(a, b) == 4
    x, y = _triangle_reps()
    assert hamming_distance(x, y) == 6


# ---------------------------------------------------------------------------
# derived path facts and the one-matrix repair audit
# ---------------------------------------------------------------------------


def _segment_of_scan(path, state_index):
    """Linear-scan reference: the first segment whose range holds the index."""
    for seg in path.segments:
        if seg.first_state <= state_index <= seg.last_state:
            return seg
    return None


def _verify_repairs_two_pass(path, x, y, bounds=None):
    """Reference audit that builds every state's auxiliary matrix twice."""
    report = RepairReport()
    for idx, z in enumerate(path.states):
        seg = _segment_of_scan(path, idx)
        rows = seg.norm_us if seg else ()
        cols = seg.norm_vs if seg else ()
        corner = seg.corner if seg else None
        target = path.states[idx + 1] if path.intermediate[idx] else z
        try:
            res = repair_to_realization(
                auxiliary_matrix(x, y, target), rows, cols, corner, bounds
            )
        except RepairError:
            report.failures.append(idx)
            continue
        report.max_switches = max(report.max_switches, len(res.switches))
        dist = hamming_distance(auxiliary_matrix(x, y, z), res.realization)
        if path.intermediate[idx]:
            report.max_distance_intermediate = max(
                report.max_distance_intermediate, dist
            )
        else:
            report.max_distance_direct = max(report.max_distance_direct, dist)
    return report


_SEQ6 = BipartiteDegreeSequence((2, 3, 2, 3, 2, 2), (2, 3, 2, 3, 2, 2))


def _relabelled_pair(seq, forbidden, seed):
    """Two constructions on randomly relabelled rows and columns, mapped
    back; a forbidden diagonal is relabelled by one permutation, so it stays."""
    rng = np.random.default_rng(seed)
    pair = []
    for _ in range(2):
        rows = rng.permutation(seq.n)
        cols = rows if forbidden else rng.permutation(seq.m)
        relabelled = BipartiteDegreeSequence(
            tuple(seq.u_degrees[p] for p in rows), tuple(seq.v_degrees[p] for p in cols)
        )
        M = np.empty((seq.n, seq.m), dtype=np.uint8)
        M[np.ix_(rows, cols)] = construct_bipartite(relabelled, forbidden).matrix
        pair.append(BipartiteRealization(seq, M, forbidden))
    return pair


def _random_paths(
    count=12, sequences=((_SEQ6, ()), (_SEQ6, DIAG(6))), pair=_randomized_pair
):
    for seq, forbidden in sequences:
        for seed in range(count):
            x, y = pair(seq, forbidden, seed)
            yield x, y, build_canonical_path(x, y)


def test_segment_of_matches_linear_scan():
    a, b = _matchings_22()
    cases = list(_random_paths()) + [(a, a, build_canonical_path(a, a))]
    boundaries = 0
    for _, _, path in cases:
        n_states = len(path.states)
        for i in range(-1, n_states + 1):
            assert path.segment_of(i) is _segment_of_scan(path, i)
        boundaries += len(path.segments) - 1
        for seg in path.segments:
            assert path.segment_of(seg.last_state) is seg
        assert path.segment_of(-1) is None
        assert path.segment_of(n_states) is None
    assert boundaries > 0  # some paths cross a milestone inside
    assert build_canonical_path(a, a).segment_of(0) is None


def test_verify_repairs_matches_two_pass_audit():
    intermediates = 0
    for x, y, path in _random_paths():
        bounds = bounds_of(x.seq)
        assert verify_repairs(path, x, y, bounds) == _verify_repairs_two_pass(
            path, x, y, bounds
        )
        intermediates += sum(path.intermediate)
    assert intermediates > 0  # the double-step branch is exercised


def test_milestones_and_move_counts_are_derived_from_states():
    for x, y, path in _random_paths(6):
        miles = milestones(x, y, decompose(x, y))
        anchors = [0]
        for k, seg in enumerate(path.segments):
            res = sweep(miles[k], miles[k + 1], seg.cycle, seg.corner)
            assert seg.move_count == len(res.moves)
            assert path.moves[seg.first_state : seg.last_state] == res.moves
            anchors.append(anchors[-1] + len(res.moves))
        assert path.milestone_indices == anchors
        assert [path.states[i] for i in anchors] == miles
        assert sum(seg.move_count for seg in path.segments) == len(path.moves)


# ---------------------------------------------------------------------------
# block audits against per-state references
# ---------------------------------------------------------------------------


def _verify_bad_positions_per_state(path, x, y):
    """Reference audit that builds one auxiliary matrix per state."""
    report = BadPositionReport()
    counts = []
    for z in path.states:
        twos, ones = auxiliary_matrix(x, y, z).bad_positions()
        counts.append((len(twos), len(ones)))
    for idx, (n2, n1) in enumerate(counts):
        if path.intermediate[idx]:
            report.max_twos_intermediate = max(report.max_twos_intermediate, n2)
            report.max_minus_ones_intermediate = max(
                report.max_minus_ones_intermediate, n1
            )
            nxt2, nxt1 = counts[idx + 1]
            if not (n2 <= 2 and n1 <= 1) and not (nxt2 <= 2 and nxt1 <= 1):
                report.violations.append(idx)
        else:
            report.max_twos_direct = max(report.max_twos_direct, n2)
            report.max_minus_ones_direct = max(report.max_minus_ones_direct, n1)
            if not (n2 <= 2 and n1 <= 1):
                report.violations.append(idx)
    return report


def _audits_match_references(path, x, y):
    """Both block audits equal their per-state references; returns them."""
    bounds = bounds_of(x.seq)
    bad = verify_bad_positions(path, x, y)
    rep = verify_repairs(path, x, y, bounds)
    assert bad == _verify_bad_positions_per_state(path, x, y)
    assert rep == _verify_repairs_two_pass(path, x, y, bounds)
    return bad, rep


def _repaired_states(path, x, y):
    """Indices whose own auxiliary matrix holds a bad entry."""
    return [
        i
        for i, z in enumerate(path.states)
        if any(auxiliary_matrix(x, y, z).bad_positions())
    ]


def _permuted_directed_pair(n, d, perm):
    seq = DirectedDegreeBiSequence((d,) * n, (d,) * n)
    x = to_bipartite_representation(construct_directed(seq))
    y = BipartiteRealization(x.seq, x.matrix[np.ix_(perm, perm)], x.forbidden)
    return x, y


def _regular_60x60_pair():
    seq = BipartiteDegreeSequence((10,) * 60, (10,) * 60)
    x = construct_bipartite(seq)
    rows = [(7 * i + 3) % 60 for i in range(60)]
    cols = [(13 * i + 5) % 60 for i in range(60)]
    return x, BipartiteRealization(seq, x.matrix[np.ix_(rows, cols)])


def test_block_audits_match_references_on_random_pairs():
    repaired = {False: 0, True: 0}
    intermediates = 0
    for x, y, path in _random_paths():
        _audits_match_references(path, x, y)
        repaired[bool(x.forbidden)] += len(_repaired_states(path, x, y))
        intermediates += sum(path.intermediate)
    assert repaired[False] > 0 and repaired[True] > 0
    assert intermediates > 0


def _block_states(x):
    """States an audit block owns at x's shape."""
    return max(1, _BLOCK_CELLS // x.matrix.size)


def _digraph_pair(n, d, seed):
    return _permuted_directed_pair(n, d, np.random.default_rng(seed).permutation(n).tolist())


@pytest.mark.parametrize("n, d, seed", [(60, 3, 16), (30, 5, 100)])
def test_block_audits_match_references_across_the_block_overlap(n, d, seed):
    # a digraph against a relabelling of itself whose path has one double-step
    # intermediate at a block's last owned index, B - 1; it completes at
    # index B, which its block holds only as the overlap state
    x, y = _digraph_pair(n, d, seed)
    path = build_canonical_path(x, y)
    B = _block_states(x)
    assert len(path.states) > B + 1
    at_overlap = [i for i, mid in enumerate(path.intermediate) if mid and i % B == B - 1]
    assert at_overlap == [B - 1]
    assert B in _repaired_states(path, x, y)  # the completion needs a repair
    _, rep = _audits_match_references(path, x, y)
    assert rep.ok and rep.max_distance_intermediate > 0


def _unrepairable_directed_pair():
    # out (3, 3, 2, 2, 1), in (3, 3, 2, 1, 2) fails the directed spread
    # condition, and state 2 of this pair's path has a -1 that neither the
    # direct exchange nor the detour removes
    seq = DirectedDegreeBiSequence((3, 3, 2, 2, 1), (3, 3, 2, 1, 2))
    x = [[0, 1, 0, 1, 1], [1, 0, 1, 0, 1], [1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [1, 0, 0, 0, 0]]
    y = [[0, 1, 1, 0, 1], [1, 0, 1, 1, 0], [1, 0, 0, 0, 1], [1, 1, 0, 0, 0], [0, 1, 0, 0, 0]]
    return seq, x, y


def test_block_audits_match_references_outside_the_spread_condition():
    from swapmc import DirectedRealization, directed_spread_condition

    seq, xm, ym = _unrepairable_directed_pair()
    assert directed_spread_condition(bounds_of(seq)).holds is False
    x = to_bipartite_representation(DirectedRealization(seq, xm))
    y = to_bipartite_representation(DirectedRealization(seq, ym))
    path = build_canonical_path(x, y)
    bad, rep = _audits_match_references(path, x, y)
    assert bad.ok
    assert rep.failures == [2]


def test_block_audits_match_references_on_the_60x60_regular_shape():
    x, y = _regular_60x60_pair()
    path = build_canonical_path(x, y)
    assert len(path.states) > 10 * _block_states(x)
    assert _repaired_states(path, x, y)
    bad, rep = _audits_match_references(path, x, y)
    assert bad.ok and rep.ok


_NONREGULAR_30 = BipartiteDegreeSequence(*((6,) * 10 + (4,) * 10 + (2,) * 10,) * 2)


@pytest.mark.parametrize(
    "pair",
    [_regular_60x60_pair, lambda: _relabelled_pair(_NONREGULAR_30, (), 0)],
    ids=["60x60-regular", "30x30-non-regular"],
)
def test_block_audits_memory_stays_one_block(pair):
    # a block holds at most _BLOCK_CELLS owned cells at every shape (18 states
    # at 60x60, 72 at 30x30); stacking the whole 60x60 path (about 2.7 MiB of
    # int16) instead of one block would show
    import tracemalloc

    x, y = pair()
    path = build_canonical_path(x, y)
    assert len(path.states) > _block_states(x) + 1  # a full block and its overlap
    bounds = bounds_of(x.seq)
    audits = (
        lambda: verify_bad_positions(path, x, y),
        lambda: verify_repairs(path, x, y, bounds),
    )
    for audit in audits:
        audit()  # one-time set-up stays out
        tracemalloc.start()
        try:
            audit()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024


# ---------------------------------------------------------------------------
# the batched direct exchanges against the switch repair, target by target
# ---------------------------------------------------------------------------


def _lone_minus_one(aux):
    twos, ones = aux.bad_positions()
    return not twos and len(ones) == 1


def _batch_against_repair(path, x, y):
    """Checks each block's batch against ``repair_to_realization`` on every
    state holding a bad entry: a decided target has the reference's one
    switch and repaired matrix, and a lone -1 left out of the batch takes
    the detour or fails.  Returns how many targets the batch decided."""
    star = x._stars()
    decided = 0
    for start, A in _aux_blocks_full(path, x, y):
        counts = (A.view(np.uint16) > 1).sum(axis=(1, 2)).tolist()
        bad = [t for t, count in enumerate(counts) if count]
        direct = _direct_exchanges(A, [t for t in bad if counts[t] == 1], star)
        for t in bad:
            aux = auxiliary_matrix(x, y, path.states[start + t])
            if t in direct:
                assert _lone_minus_one(aux)
                repaired, (us, vs) = direct[t]
                ref = repair_to_realization(aux)
                assert ref.switches == [SwapMove.switch(us, vs, sign=1)]
                assert np.array_equal(repaired, ref.realization.matrix)
                decided += 1
            elif _lone_minus_one(aux):
                try:
                    assert len(repair_to_realization(aux).switches) == 2
                except RepairError:
                    pass
    return decided


def _digraph_30_pair():
    return _digraph_pair(30, 5, 30)


def test_direct_exchanges_match_the_switch_repair():
    cases = list(_random_paths())
    for x, y in (_regular_60x60_pair(), _digraph_30_pair()):
        cases.append((x, y, build_canonical_path(x, y)))
    decided = {False: 0, True: 0}
    for x, y, path in cases:
        decided[bool(x.forbidden)] += _batch_against_repair(path, x, y)
    assert decided[False] > 0 and decided[True] > 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), restricted=st.booleans())
def test_direct_exchanges_match_the_switch_repair_on_seeded_pairs(seed, restricted):
    seq = BipartiteDegreeSequence((2, 3, 2, 3, 2, 2), (2, 3, 2, 3, 2, 2))
    x, y = _randomized_pair(seq, DIAG(6) if restricted else (), seed)
    path = build_canonical_path(x, y)
    _batch_against_repair(path, x, y)
    bounds = bounds_of(seq)
    assert verify_repairs(path, x, y, bounds) == _verify_repairs_two_pass(
        path, x, y, bounds
    )


def _constructed_paths():
    """Paths through every realization without a 2-entry of two small
    restricted sequences, once as direct states and once with every state
    but the last a double-step intermediate, so that each state is repaired
    as the completion of the one before; the audits do not replay moves."""
    seq, xm, ym = _unrepairable_directed_pair()
    x, y = (to_bipartite_representation(DirectedRealization(seq, m)) for m in (xm, ym))
    pairs = [(x, y)]
    seq5 = BipartiteDegreeSequence((3, 2, 2, 1, 1), (3, 2, 2, 1, 1))
    rs = enumerate_realizations(seq5, DIAG(5))
    pairs.append((rs[5], rs[16]))
    for x, y in pairs:
        zs = enumerate_realizations(x.seq, x.forbidden)
        zs = [z for z in zs if not auxiliary_matrix(x, y, z).bad_positions()[0]]
        for mids in (False, True):
            states = [x, *zs, y]
            inter = [mids] * (len(states) - 1) + [False]
            yield x, y, CanonicalPath(states, [], inter, [])


def test_verify_repairs_matches_two_pass_on_constructed_blocks():
    kinds = set()
    for x, y, path in _constructed_paths():
        _batch_against_repair(path, x, y)
        bounds = bounds_of(x.seq)
        rep = verify_repairs(path, x, y, bounds)
        assert rep == _verify_repairs_two_pass(path, x, y, bounds)
        assert rep.failures
        for z in path.states:
            aux = auxiliary_matrix(x, y, z)
            ones = aux.bad_positions()[1]
            if len(ones) > 1:
                kinds.add("two -1s")
            elif ones:
                try:
                    kinds.add(len(repair_to_realization(aux).switches))
                except RepairError:
                    kinds.add("fails")
    # the direct exchange, the detour, two -1s and a failed repair
    assert kinds == {1, 2, "two -1s", "fails"}


def _find_detour_prefiltered(M, star, u0, v0, u_prime, v_prime):
    """``_find_detour`` as it was with row and column pre-filters: a second
    row or column had to hold an unstarred 0 against V' or U' first."""
    n, m = M.shape
    u_second = [
        u
        for u in range(n)
        if u not in u_prime
        and u != u0
        and any(not star[u, v] and M[u, v] == 0 for v in v_prime)
    ]
    v_second = [
        v
        for v in range(m)
        if v not in v_prime
        and v != v0
        and any(not star[u, v] and M[u, v] == 0 for u in u_prime)
    ]
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


def test_find_detour_matches_the_prefiltered_copy():
    # No seeded path-audit pair reaches the detour, so it is drawn here:
    # entries -1..2, mostly 0 and 1 as on a path, with random stars, and U',
    # V' either as _repair derives them around a -1 at (u0, v0) or as
    # arbitrary index lists.  A detour needs a row and a column outside
    # U' + u0 and V' + v0, so the shapes start at 4.
    found = []
    entry = st.sampled_from((0, 1, 0, 1, 0, 1, -1, 2))
    starred = st.sampled_from((False,) * 5 + (True,))

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data())
    def check(data):
        n, m = data.draw(st.integers(4, 8)), data.draw(st.integers(4, 8))
        M = np.array(data.draw(st.lists(entry, min_size=n * m, max_size=n * m)))
        M = M.astype(np.int16).reshape(n, m)
        star = np.array(data.draw(st.lists(starred, min_size=n * m, max_size=n * m)))
        star = star.reshape(n, m)
        u0, v0 = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, m - 1))
        if data.draw(st.booleans()):
            M[u0, v0], star[u0, v0] = -1, False
            u_prime = np.flatnonzero(~star[:, v0] & (M[:, v0] == 1)).tolist()
            v_prime = np.flatnonzero(~star[u0] & (M[u0] == 1)).tolist()
        else:
            u_prime = data.draw(st.lists(st.integers(0, n - 1), unique=True))
            v_prime = data.draw(st.lists(st.integers(0, m - 1), unique=True))
        quad = _find_detour(M, star, u0, v0, u_prime, v_prime)
        assert quad == _find_detour_prefiltered(M, star, u0, v0, u_prime, v_prime)
        found.append(quad is not None)

    check()
    assert sum(found) >= 10


def test_verify_repairs_refuses_a_state_the_batch_cannot_repair():
    # an unvalidated state with an entry of 2 where X and Y have none puts a
    # -2 beside a lone -1: the batch takes no state with two bad entries, and
    # the switch repair refuses it
    x, y, path = next(_random_paths())
    z = path.states[1]
    u0, v0, c, d = 0, 0, 5, 3
    A = auxiliary_matrix(x, y, z).matrix
    assert np.argwhere(A == -1).tolist() == [[u0, v0]] and not (A == 2).any()
    assert A[c, d] == A[u0, d] == A[c, v0] == 0 and z.matrix[u0, d] == z.matrix[c, v0] == 1
    M = z.matrix.copy()
    M[u0, v0] += 1
    M[c, d] += 1
    M[u0, d] -= 1
    M[c, v0] -= 1
    path.states[1] = BipartiteRealization(x.seq, M, validate=False)
    for audit in (verify_repairs, _verify_repairs_two_pass):
        with pytest.raises(ValueError, match="0 or 1"):
            audit(path, x, y)


def test_block_audits_refuse_a_foreign_state():
    x, y, path = next(_random_paths())
    assert all(z.seq is x.seq and z.forbidden is x.forbidden for z in path.states)
    z = path.states[1]
    hole = tuple(np.argwhere(z.matrix == 0)[0].tolist())
    path.states[1] = BipartiteRealization(z.seq, z.matrix, [hole])
    for audit in (verify_bad_positions, verify_repairs):
        with pytest.raises(ValueError, match="share degrees"):
            audit(path, x, y)


# ---------------------------------------------------------------------------
# the audits against frozen copies of their full-matrix reductions
# ---------------------------------------------------------------------------


def _aux_blocks_full(path, x, y):
    """The audits' block reader as it was, on the live audits' blocks:
    ``(start, A)`` with ``A[k] = M_X + M_Y - M_Z`` (int16) for the path
    states ``Z = G_{start+k}``, ``k`` up to ``_block_states(x)`` inclusive,
    in one reused buffer.  The repair audit checks a whole block's margins
    before it repairs any state, so the block bounds decide which error a
    path with two faults raises."""
    _check_compatible(x, y)
    if path.states[0] != x or path.states[-1] != y:
        raise ValueError("the path does not join the audited pair")
    base = x.matrix.astype(np.int16) + y.matrix
    block = _block_states(x)
    states = path.states
    buf = np.empty((min(block + 1, len(states)), *base.shape), dtype=np.int16)
    for start in range(0, len(states), block):
        chunk = states[start : start + block + 1]
        for z in chunk[:block]:
            if z.seq is not x.seq or z.forbidden is not x.forbidden:
                _check_compatible(x, z)
        A = buf[: len(chunk)]
        np.subtract(base, np.stack([z.matrix for z in chunk]), out=A)
        yield start, A


def _verify_bad_positions_full(path, x, y):
    """``verify_bad_positions`` as it was, with each state's 2- and -1-counts
    reduced over its full auxiliary matrix."""
    twos, minus = [], []
    for _, A in _aux_blocks_full(path, x, y):
        A = A[: _block_states(x)]
        twos.append((A == 2).sum(axis=(1, 2)))
        minus.append((A == -1).sum(axis=(1, 2)))
    n2, n1 = np.concatenate(twos), np.concatenate(minus)
    inter = np.array(path.intermediate, dtype=bool)
    within = (n2 <= 2) & (n1 <= 1)
    completed = inter & np.append(within[1:], False)
    return BadPositionReport(
        max_twos_direct=int(n2[~inter].max(initial=0)),
        max_minus_ones_direct=int(n1[~inter].max(initial=0)),
        max_twos_intermediate=int(n2[inter].max(initial=0)),
        max_minus_ones_intermediate=int(n1[inter].max(initial=0)),
        violations=np.flatnonzero(~within & ~completed).tolist(),
    )


def _verify_repairs_full(path, x, y, bounds=None):
    """``verify_repairs`` as it was, with the margins, the starred cells and
    the bad entries reduced over every state's full auxiliary matrix."""
    report = RepairReport()
    star = x._stars()
    u_deg, v_deg = np.array(x.seq.u_degrees), np.array(x.seq.v_degrees)
    inter = path.intermediate
    for start, A in _aux_blocks_full(path, x, y):
        if (
            (A.sum(axis=2) != u_deg).any()
            or (A.sum(axis=1) != v_deg).any()
            or A[:, star].any()
        ):
            raise ValueError("auxiliary margins or starred cells differ from X's")
        nbad = (A.view(np.uint16) > 1).sum(axis=(1, 2)).tolist()
        ks = range(min(_block_states(x), len(A)))
        ts = [k + 1 if inter[start + k] else k for k in ks]
        direct = _direct_exchanges(A, sorted({t for t in ts if nbad[t] == 1}), star)
        for k, t in zip(ks, ts):
            idx = start + k
            mid = t != k
            if t in direct:
                report.max_switches = max(report.max_switches, 1)
                dist = int(np.count_nonzero(A[k] != direct[t][0]))
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
                continue
            if mid:
                report.max_distance_intermediate = max(
                    report.max_distance_intermediate, dist
                )
            else:
                report.max_distance_direct = max(report.max_distance_direct, dist)
    return report


def _outcome(audit, *args):
    """The audit's report, or the type and message of the error it raises."""
    try:
        return audit(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _audits_match_frozen_copies(path, x, y):
    bounds = bounds_of(x.seq)
    assert _outcome(verify_bad_positions, path, x, y) == _outcome(
        _verify_bad_positions_full, path, x, y
    )
    assert _outcome(verify_repairs, path, x, y, bounds) == _outcome(
        _verify_repairs_full, path, x, y, bounds
    )


# path-audit's three sequences, the digraph in its bipartite representation
_AUDIT_SEQUENCES = (
    (BipartiteDegreeSequence((10,) * 60, (10,) * 60), ()),
    (BipartiteDegreeSequence((5,) * 30, (5,) * 30), DIAG(30)),
    (_NONREGULAR_30, ()),
)


def test_audits_match_frozen_copies_on_the_path_audit_sequences():
    blocks = intermediates = repaired = 0
    for x, y, path in _random_paths(2, _AUDIT_SEQUENCES, _relabelled_pair):
        _audits_match_frozen_copies(path, x, y)
        blocks += -(-len(path.states) // _block_states(x))
        intermediates += sum(path.intermediate)
        repaired += len(_repaired_states(path, x, y))
    assert blocks > 20 and intermediates > 0 and repaired > 0


def test_audits_match_frozen_copies_on_constructed_paths():
    for x, y, path in _constructed_paths():
        _audits_match_frozen_copies(path, x, y)


def test_audits_match_frozen_copies_on_block_boundary_lengths():
    # prefixes of digraph paths, B states per block, so that the last block
    # holds one state, two, a full block, or a full block and its overlap
    # state; the 30x30 path is shorter than 2B + 1 states
    for x, y in (_digraph_30_pair(), _digraph_pair(60, 3, 16)):
        full = build_canonical_path(x, y)
        B = _block_states(x)
        assert len(full.states) > (B + 2 if x.n == 30 else 2 * B + 2)
        for length in (B - 1, B, B + 1, B + 2, 2 * B + 1, 2 * B + 2):
            if length > len(full.states):
                break
            end = full.states[length - 1]
            inter = full.intermediate[: length - 1] + [False]
            moves = full.moves[: length - 1]
            path = CanonicalPath(full.states[:length], moves, inter, full.segments)
            _audits_match_frozen_copies(path, x, end)


_SMALL_SEQUENCES = (
    (BipartiteDegreeSequence((2, 2, 2, 2), (2, 2, 2, 2)), ()),
    (BipartiteDegreeSequence((3, 2, 2, 1, 1), (3, 2, 2, 1, 1)), DIAG(5)),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_audits_match_frozen_copies_on_drawn_state_sequences(data):
    # realizations in any order, any double-step flags, and one unvalidated
    # entry of 2: set alone (a margin moves), or by a switch with sign +1
    # on a 1 (the margins stay)
    seq, forbidden = data.draw(st.sampled_from(_SMALL_SEQUENCES))
    zs = enumerate_realizations(seq, forbidden)
    pick = st.integers(0, len(zs) - 1)
    x, y = zs[data.draw(pick)], zs[data.draw(pick)]
    if data.draw(st.booleans()):  # no 2-entry, so that the repairs run
        zs = [z for z in zs if not auxiliary_matrix(x, y, z).bad_positions()[0]]
    picks = data.draw(st.lists(st.integers(0, len(zs) - 1), max_size=38))
    states = [z.copy() for z in (x, *(zs[i] for i in picks), y)]
    at = data.draw(st.integers(0, len(states) - 1))
    M = states[at].matrix
    u0, v0 = data.draw(st.sampled_from(np.argwhere(M == 1).tolist()))
    M[u0, v0] = 2
    if data.draw(st.booleans()):
        corners = [
            (c, d)
            for c, d in np.argwhere(M == 0).tolist()
            if c != u0 and d != v0 and M[u0, d] == M[c, v0] == 1
        ]
        if corners:
            c, d = data.draw(st.sampled_from(corners))
            M[c, d] = 1
            M[u0, d] = M[c, v0] = 0
    states[at] = BipartiteRealization(seq, M, forbidden, validate=False)
    inter = data.draw(
        st.lists(st.booleans(), min_size=len(states) - 1, max_size=len(states) - 1)
    )
    path = CanonicalPath(states, [], inter + [False], [])
    _audits_match_frozen_copies(path, states[0], states[-1])


def test_audits_match_frozen_copies_when_a_margin_breach_follows_a_repair():
    # 19 states of 4x4 2-regular joining x to itself: state 15 is another
    # realization, whose 2-entries need a cycle context to be repaired, and
    # state 17 has a 2 set alone at (0, 2), off x's margins.  All 19 states
    # share one block, so the margin guard refuses the path before any
    # repair runs.
    seq = BipartiteDegreeSequence((2,) * 4, (2,) * 4)
    zs = enumerate_realizations(seq)
    x = next(z for z in zs if z.matrix[0, 2] == 1)
    states = [x.copy() for _ in range(19)]
    states[15] = next(z for z in zs if z != x).copy()
    M = x.matrix.copy()
    M[0, 2] = 2
    states[17] = BipartiteRealization(seq, M, validate=False)
    path = CanonicalPath(states, [], [False] * 19, [])
    assert _block_states(x) >= 19
    with pytest.raises(ValueError, match="auxiliary margins or starred cells differ"):
        verify_repairs(path, x, x, bounds_of(seq))
    _audits_match_frozen_copies(path, x, x)


_B30 = _BLOCK_CELLS // (30 * 30)  # states per block at 30x30


@pytest.mark.parametrize("where", [1, _B30 - 1, _B30, _B30 + 1, -2])
@pytest.mark.parametrize("breach", ["rows", "columns", "star"])
def test_verify_repairs_refuses_a_state_off_the_margins_or_stars(where, breach):
    # The state is left unvalidated.  A 1 moved along its column moves two
    # row margins only, one moved along its row two column margins only, and
    # a switch through a starred cell keeps every margin.
    x, y = _digraph_30_pair()
    path = build_canonical_path(x, y)
    assert len(path.states) > _B30 + 2
    z = path.states[where]
    M = z.matrix.copy()
    free = ~x._stars()
    u, v = np.argwhere(M == 1)[0]
    if breach == "rows":
        w = np.flatnonzero((M[:, v] == 0) & free[:, v])[0]
        M[u, v], M[w, v] = 0, 1
    elif breach == "columns":
        w = np.flatnonzero((M[u] == 0) & free[u])[0]
        M[u, v], M[u, w] = 0, 1
    else:
        # a switch on rows u, c and columns u, d, with (u, u) starred
        u, c, d = next(
            (u, c, d)
            for u, c, d in itertools.permutations(range(x.n), 3)
            if M[c, u] == M[u, d] == 1 and M[c, d] == 0
        )
        M[u, u] = M[c, d] = 1
        M[u, d] = M[c, u] = 0
    path.states[where] = z._with_matrix(M)
    with pytest.raises(ValueError, match="auxiliary margins or starred cells"):
        verify_repairs(path, x, y)
    _audits_match_frozen_copies(path, x, y)


@pytest.mark.parametrize("breach", ["margins", "star"])
def test_verify_repairs_checks_the_first_state_in_full(breach):
    # Every state, X and Y among them, gets the same edit on cells that no
    # move touches, so no change between states shows it; only the full
    # check of G_0, whose auxiliary matrix is Y's, does.  The edit is an
    # extra 1 (two margins move), or a switch through a starred cell (the
    # margins stay).
    x, y = _digraph_30_pair()
    path = build_canonical_path(x, y)
    stack = np.stack([z.matrix for z in path.states])
    ones, zeros = (stack == 1).all(axis=0), (stack == 0).all(axis=0)
    star = x._stars()
    if breach == "margins":
        edit = {tuple(np.argwhere(zeros & ~star)[0]): 1}
    else:
        u, c, d = next(
            (u, c, d)
            for u, c, d in itertools.permutations(range(x.n), 3)
            if zeros[u, u] and ones[c, u] and ones[u, d] and zeros[c, d]
        )
        edit = {(u, u): 1, (c, d): 1, (u, d): 0, (c, u): 0}
    for i, z in enumerate(path.states):
        M = z.matrix.copy()
        for cell, value in edit.items():
            M[cell] = value
        path.states[i] = z._with_matrix(M)
    x, y = path.states[0], path.states[-1]
    with pytest.raises(ValueError, match="auxiliary margins or starred cells"):
        verify_repairs(path, x, y)
    _audits_match_frozen_copies(path, x, y)


# ---------------------------------------------------------------------------
# the one-walk builder against the three-pass reference
# ---------------------------------------------------------------------------


def _decompose_with_labels(x, y):
    """Reference decomposition: the circuit walk with explicit X/Y labels,
    split by the labelled splitter below."""
    x_adj = [[] for _ in range(x.n)]
    for u, v in zip(*np.nonzero((x.matrix == 1) & (y.matrix == 0))):
        x_adj[u].append(int(v))
    y_adj = [[] for _ in range(x.m)]
    for v, u in zip(*np.nonzero(((y.matrix == 1) & (x.matrix == 0)).T)):
        y_adj[v].append(int(u))
    x_ptr, y_ptr = [0] * x.n, [0] * x.m
    cycles = []
    for start in range(x.n):
        while x_ptr[start] < len(x_adj[start]):
            verts, labels = [("u", start)], []
            u = start
            while True:
                v = x_adj[u][x_ptr[u]]
                x_ptr[u] += 1
                verts.append(("v", v))
                labels.append("X")
                u2 = y_adj[v][y_ptr[v]]
                y_ptr[v] += 1
                labels.append("Y")
                if u2 == start and x_ptr[start] == len(x_adj[start]):
                    break
                verts.append(("u", u2))
                u = u2
            cycles.extend(_split_labelled_circuit(verts, labels))
    return CycleDecomposition(tuple(cycles))


def _split_labelled_circuit(verts, labels):
    """Frozen copy of the labelled circuit splitter."""
    cycles = []
    stack = [verts[0]]
    in_labels = [None]  # label of the chord into stack[i]
    pos = {verts[0]: 0}
    L = len(labels)
    for t in range(L):
        w = verts[(t + 1) % L]
        lab = labels[t]
        if w in pos:
            s = pos[w]
            cyc_verts = stack[s:]
            cyc_labels = in_labels[s + 1 :] + [lab]
            for vv in stack[s + 1 :]:
                del pos[vv]
            del stack[s + 1 :]
            del in_labels[s + 1 :]
            cycles.append(_make_labelled_cycle(cyc_verts, cyc_labels))
        else:
            stack.append(w)
            in_labels.append(lab)
            pos[w] = len(stack) - 1
    return cycles


def _make_labelled_cycle(verts, labels):
    """Frozen copy: rotate to a row first, label from the first chord."""
    if verts[0][0] == "v":
        verts = verts[1:] + verts[:1]
        labels = labels[1:] + labels[:1]
    us = tuple(idx for side, idx in verts[0::2])
    vs = tuple(idx for side, idx in verts[1::2])
    return Cycle(us=us, vs=vs, first_is_x=labels[0] == "X")


def _build_canonical_path_three_pass(x, y):
    """Reference builder: every milestone first, then one public sweep per
    milestone pair, anchored at the auxiliary matrix's cornerstone."""
    dec = decompose(x, y)
    miles = milestones(x, y, dec)
    path = CanonicalPath(states=[x.copy()], moves=[], intermediate=[False], segments=[])
    for k, cyc in enumerate(dec.cycles):
        corner = cornerstone(auxiliary_matrix(x, y, miles[k]), cyc)
        res = sweep(miles[k], miles[k + 1], cyc, corner)
        first = len(path.states) - 1
        path.states.extend(res.states)
        path.moves.extend(res.moves)
        path.intermediate.extend(res.intermediate)
        path.segments.append(
            PathSegment(cyc, corner, res.norm_us, res.norm_vs, first, len(path.states) - 1)
        )
    return path


def _reference_instances():
    seq6 = BipartiteDegreeSequence((2, 3, 2, 3, 2, 2), (2, 3, 2, 3, 2, 2))
    seq7 = BipartiteDegreeSequence((1,) * 7, (1,) * 7)
    for seq, forbidden in ((seq6, ()), (seq6, DIAG(6)), (seq7, DIAG(7))):
        for seed in range(16):
            yield _randomized_pair(seq, forbidden, seed)


def _larger_instances():
    """Relabelled pairs of three larger shapes: 20x20 4-regular, the 30-vertex
    5-regular digraph in its bipartite representation and a non-regular
    30x30 sequence."""
    digraph = BipartiteDegreeSequence((5,) * 30, (5,) * 30)
    twenty = BipartiteDegreeSequence((4,) * 20, (4,) * 20)
    for seq, forbidden in ((twenty, ()), (digraph, DIAG(30)), (_NONREGULAR_30, ())):
        for seed in range(4):
            yield _relabelled_pair(seq, forbidden, seed)


def test_decompose_matches_the_labelled_reference():
    seq5x7 = BipartiteDegreeSequence((3, 2, 3, 2, 2), (2, 2, 1, 2, 2, 2, 1))
    seq6x4 = BipartiteDegreeSequence((2, 1, 2, 1, 2, 2), (3, 2, 3, 2))
    general = ((0, 2), (1, 0), (3, 3), (4, 1))  # partial and off the diagonal
    more = [(seq5x7, ()), (seq6x4, ()), (seq6x4, general), (seq5x7, ((0, 6), (2, 0), (4, 3)))]
    pairs = itertools.chain(
        _reference_instances(),
        (_randomized_pair(seq, forbidden, seed) for seq, forbidden in more for seed in range(16)),
        _larger_instances(),
    )
    cycles = 0
    for x, y in pairs:
        dec = decompose(x, y)
        assert dec == _decompose_with_labels(x, y)
        cycles += len(dec.cycles)
    assert cycles > 0


def _least_rows(aux, cycle):
    """The cycle's rows of least submatrix row sum in ``aux``, stars excluded."""
    cols = sorted(set(cycle.vs))
    sums = {
        u: sum(int(aux.matrix[u, v]) for v in cols if not aux.is_star(u, v))
        for u in sorted(set(cycle.us))
    }
    return [u for u, total in sums.items() if total == min(sums.values())]


def test_build_matches_the_three_pass_reference():
    # the three-pass reference takes each cornerstone from a fresh
    # auxiliary_matrix of its milestone, the builder from its running one
    kinds = set()
    intermediates = 0
    larger = {"cycles": 0, "ties": 0, "not lowest": 0}
    cases = [(x, y, False) for x, y in _reference_instances()]
    cases += [(x, y, True) for x, y in _larger_instances()]
    for x, y, is_larger in cases:
        path = build_canonical_path(x, y)
        ref = _build_canonical_path_three_pass(x, y)
        assert [seg.cycle for seg in path.segments] == [seg.cycle for seg in ref.segments]
        assert path.moves == ref.moves
        assert path.intermediate == ref.intermediate
        assert path.segments == ref.segments  # corners, norm_us/norm_vs, bounds
        assert path.states == ref.states
        kinds.update(mv.kind for mv in path.moves)
        intermediates += sum(path.intermediate)
        for seg in path.segments if is_larger else ():
            least = _least_rows(auxiliary_matrix(x, y, path.states[seg.first_state]), seg.cycle)
            assert seg.corner == least[0]
            larger["cycles"] += 1
            larger["ties"] += len(least) > 1
            larger["not lowest"] += seg.corner != min(seg.cycle.us)
    assert kinds == {"c4", "c6"}
    assert intermediates > 0  # double-steps occur
    assert larger["cycles"] >= 200 and larger["ties"] > 0 and larger["not lowest"] > 0


# ---------------------------------------------------------------------------
# audits refuse a pair the path does not join
# ---------------------------------------------------------------------------


def test_audits_reject_a_path_built_on_another_pair():
    seq = BipartiteDegreeSequence((2,) * 4, (2,) * 4)
    x = BipartiteRealization(seq, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]])
    y = BipartiteRealization(seq, [[0, 0, 1, 1], [1, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 0]])
    w = BipartiteRealization(seq, [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]])
    path = build_canonical_path(x, y)
    assert verify_bad_positions(path, x, y).ok and verify_repairs(path, x, y).ok
    with pytest.raises(ValueError, match="does not join"):
        verify_bad_positions(path, x, w)
    with pytest.raises(ValueError, match="does not join"):
        verify_repairs(path, x, w)
    with pytest.raises(ValueError, match="does not join"):
        verify_repairs(path, w, y)


_MALFORMED = {
    "no-states": "has 0 states",
    "flag-short": r"has \d+ states, \d+ double-step flags",
    "last-intermediate": "intermediate without completion",
}


@pytest.mark.parametrize("audit", [verify_bad_positions, verify_repairs], ids=["bad", "repair"])
@pytest.mark.parametrize("malformed", list(_MALFORMED))
def test_audits_refuse_a_malformed_path(audit, malformed):
    x, y, path = next(_random_paths())
    assert len(path.states) > 2
    if malformed == "no-states":
        path = CanonicalPath([], [], [], [])
    elif malformed == "flag-short":
        path.intermediate.pop()
    else:
        path.intermediate[-1] = True
    with pytest.raises(ValueError, match=_MALFORMED[malformed]):
        audit(path, x, y)


# ---------------------------------------------------------------------------
# auxiliary matrices take the forbidden set in any order
# ---------------------------------------------------------------------------


def test_auxiliary_matrix_sorts_an_unsorted_forbidden_set():
    seq = BipartiteDegreeSequence((1, 1, 1), (1, 1, 1))
    M = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    unsorted = AuxiliaryMatrix(seq, M, [(1, 1), (0, 0), (2, 2)])
    ordered = AuxiliaryMatrix(seq, M, DIAG3)
    assert unsorted.forbidden == ordered.forbidden == DIAG3
    got, want = repair_to_realization(unsorted), repair_to_realization(ordered)
    assert got.realization == want.realization
    assert got.switches == want.switches == []
    assert got.distance == want.distance == 0


def _permutation(*rows):
    return BipartiteRealization(
        BipartiteDegreeSequence((1, 1, 1), (1, 1, 1)), np.eye(3, dtype=np.uint8)[list(rows)]
    )


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: milestones(
                _permutation(0, 1, 2),
                _permutation(1, 0, 2),
                decompose(_permutation(0, 1, 2), _permutation(0, 2, 1)),
            ),
            ValueError,
            "decomposition does not connect the two realizations",
        ),
        (
            lambda: repair_to_realization(
                AuxiliaryMatrix(
                    BipartiteDegreeSequence((1, 2, 1), (2, 1, 1)),
                    [[0, 0, 1], [2, 0, 0], [0, 1, 0]],
                ),
                (0, 1, 2),
                (0, 1, 2),
                corner=0,
            ),
            RepairError,
            "2-entry at (1,0) outside the cornerstone row 0",
        ),
    ],
    ids=["milestones-of-another-pair", "two-entry-off-the-cornerstone-row"],
)
def test_paths_argument_checks(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_canonical_path_length_counts_its_moves():
    path = build_canonical_path(_permutation(0, 1, 2), _permutation(1, 2, 0))
    assert path.length == len(path.moves) == len(path.states) - 1 > 0
