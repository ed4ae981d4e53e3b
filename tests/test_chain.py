import hashlib

import numpy as np
import pytest

from swapmc import (
    BipartiteDegreeSequence,
    BipartiteRealization,
    ChainConfig,
    DirectedDegreeBiSequence,
    construct_bipartite,
    construct_directed,
    derive_chain_seeds,
    sample,
    step_bipartite,
    step_directed,
    to_bipartite_representation,
)

DIAG3 = tuple((i, i) for i in range(3))


def _matching_22():
    seq = BipartiteDegreeSequence((1, 1), (1, 1))
    return BipartiteRealization(seq, [[1, 0], [0, 1]])


def _triangle_rep():
    return to_bipartite_representation(
        construct_directed(DirectedDegreeBiSequence((1, 1, 1), (1, 1, 1)))
    )


def test_step_outcome_invariant_and_stats():
    r = _matching_22()
    rng = np.random.default_rng(3)
    for _ in range(500):
        r, out = step_bipartite(r, rng, inplace=True)
        assert out.moved == (out.reason in ("applied_c4", "applied_c6"))
        assert (out.move is not None) == out.moved


def test_bipartite_move_frequency_2x2():
    # the 2x2 matching always has exactly one legal swap; the kernel moves
    # with probability 1/2 * 1/(C(2,2-choose)... = 1/2 exactly
    r = _matching_22()
    rng = np.random.default_rng(11)
    steps = 100_000
    moved = 0
    for _ in range(steps):
        r, out = step_bipartite(r, rng, inplace=True)
        moved += out.moved
    assert abs(moved / steps - 0.5) < 0.01


def test_directed_c6_frequency_triangle():
    r = _triangle_rep()
    rng = np.random.default_rng(12)
    steps = 100_000
    c6 = 0
    for _ in range(steps):
        r, out = step_directed(r, rng, inplace=True)
        c6 += out.reason == "applied_c6"
    assert abs(c6 / steps - 0.25) < 0.01


def test_directed_laziness_frequency():
    r = _triangle_rep()
    rng = np.random.default_rng(13)
    steps = 50_000
    lazy = sum(
        step_directed(r, rng, inplace=True)[1].reason == "lazy" for _ in range(steps)
    )
    assert abs(lazy / steps - 0.5) < 0.012


def test_all_edges_quadruple_is_illegal_proposal():
    seq = BipartiteDegreeSequence((2, 2), (2, 2))
    r = BipartiteRealization(seq, [[1, 1], [1, 1]])
    rng = np.random.default_rng(0)
    reasons = set()
    for _ in range(50):
        r, out = step_bipartite(r, rng, inplace=True)
        reasons.add(out.reason)
    assert reasons == {"lazy", "proposal_illegal"}


def test_c6_branch_needs_three_per_class():
    # n=2 restricted instance: branch (c) proposal mass becomes rejection
    d = DirectedDegreeBiSequence((1, 1), (1, 1))
    r = to_bipartite_representation(construct_directed(d))
    rng = np.random.default_rng(5)
    reasons = set()
    for _ in range(400):
        r, out = step_directed(r, rng, inplace=True)
        reasons.add(out.reason)
    assert "applied_c6" not in reasons
    assert "proposal_illegal" in reasons


def test_kernel_preconditions():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        step_bipartite(_triangle_rep(), rng)  # forbidden set present
    with pytest.raises(ValueError):
        step_directed(_matching_22(), rng)  # no forbidden set
    seq = BipartiteDegreeSequence((1,), (1,))
    tiny = BipartiteRealization(seq, [[1]])
    with pytest.raises(ValueError):
        step_bipartite(tiny, rng)


def test_sample_determinism():
    seq = BipartiteDegreeSequence((1, 1), (1, 1))
    cfg = ChainConfig(seed=1, samples=2, burn_in=0, thinning=1)
    a = sample(seq, (), cfg)
    b = sample(seq, (), cfg)
    assert len(a.realizations) == 2
    assert all(x == y for x, y in zip(a.realizations, b.realizations))
    assert a.stats.as_dict() == b.stats.as_dict()


def test_sample_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(seed=1, samples=0)
    with pytest.raises(ValueError):
        ChainConfig(seed=1, samples=1, thinning=0)
    with pytest.raises(ValueError):
        ChainConfig(seed=-1, samples=1)
    with pytest.raises(ValueError):
        ChainConfig(seed=1, samples=1, chain_kind="metropolis")


def test_sample_emitted_states_are_valid():
    seq = BipartiteDegreeSequence((2, 1, 1), (2, 1, 1))
    cfg = ChainConfig(seed=9, samples=20, burn_in=50, thinning=3)
    for r in sample(seq, (), cfg).realizations:
        r.validate()


def test_sample_directed_route():
    d = DirectedDegreeBiSequence((1, 1, 1), (1, 1, 1))
    cfg = ChainConfig(seed=2, samples=5, burn_in=10, thinning=5, chain_kind="directed")
    res = sample(d, (), cfg)
    for r in res.realizations:
        assert r.forbidden == DIAG3
        r.validate()
    assert res.stats.steps == 10 + 4 * 5


def test_sample_kind_mismatch_errors():
    d = DirectedDegreeBiSequence((1, 1, 1), (1, 1, 1))
    with pytest.raises(ValueError):
        sample(d, (), ChainConfig(seed=0, samples=1, chain_kind="bipartite"))
    seq = BipartiteDegreeSequence((1, 1), (1, 1))
    with pytest.raises(ValueError):
        sample(seq, (), ChainConfig(seed=0, samples=1, chain_kind="directed"))


def test_restricted_kernel_with_general_matching():
    # the restricted kernel accepts any forbidden partial matching, not just
    # the diagonal of a digraph representation
    seq = BipartiteDegreeSequence((2, 2, 1, 1), (2, 2, 1, 1))
    forbidden = ((0, 3), (2, 1))
    cfg = ChainConfig(seed=4, samples=30, burn_in=100, thinning=2, chain_kind="directed")
    res = sample(seq, forbidden, cfg)
    for r in res.realizations:
        r.validate()
        assert r.forbidden == forbidden
        assert all(not r.has_edge(u, v) for u, v in forbidden)


def test_non_lazy_doubles_move_rate():
    r = _triangle_rep()
    rng = np.random.default_rng(21)
    steps = 50_000
    c6 = 0
    for _ in range(steps):
        r, out = step_directed(r, rng, lazy=False, inplace=True)
        c6 += out.reason == "applied_c6"
    assert abs(c6 / steps - 0.5) < 0.012


def test_one_step_frequencies_match_exact_kernel():
    # dual-route check: hold the state fixed, simulate single steps, and
    # compare landing frequencies with the exact kernel row (which is built
    # from state differences, never from the proposal code)
    from swapmc import exact_transition_matrix

    seq = BipartiteDegreeSequence((2, 1, 1), (2, 1, 1))
    kernel = exact_transition_matrix(seq)
    s0 = 0
    start = kernel.states[s0]
    index = {s.key(): i for i, s in enumerate(kernel.states)}
    rng = np.random.default_rng(17)
    trials = 100_000
    counts = np.zeros(kernel.size)
    for _ in range(trials):
        nxt, _ = step_bipartite(start, rng)
        counts[index[nxt.key()]] += 1
    assert np.abs(counts / trials - kernel.matrix[s0]).max() < 0.006

    # restricted kernel with both move kinds (n = 4, diagonal forbidden)
    seq4 = BipartiteDegreeSequence((2, 1, 1, 1), (1, 2, 1, 1))
    diag4 = tuple((i, i) for i in range(4))
    kernel = exact_transition_matrix(seq4, diag4, "directed")
    assert kernel.size == 7
    start = kernel.states[0]
    index = {s.key(): i for i, s in enumerate(kernel.states)}
    rng = np.random.default_rng(18)
    trials = 200_000
    counts = np.zeros(kernel.size)
    for _ in range(trials):
        nxt, _ = step_directed(start, rng)
        counts[index[nxt.key()]] += 1
    assert np.abs(counts / trials - kernel.matrix[0]).max() < 0.004


def test_derive_chain_seeds():
    seeds = derive_chain_seeds(123, 4)
    assert seeds == derive_chain_seeds(123, 4)
    assert len(set(seeds)) == 4
    assert all(isinstance(s, int) and s >= 0 for s in seeds)


def _stream_instance(name):
    if name == "bipartite":
        seq = BipartiteDegreeSequence((3, 2, 2, 1, 1), (2, 2, 2, 2, 1))
        return construct_bipartite(seq), step_bipartite
    if name == "directed":
        d = DirectedDegreeBiSequence((2, 1, 1, 1), (1, 2, 1, 1))
        return to_bipartite_representation(construct_directed(d)), step_directed
    d = DirectedDegreeBiSequence((1, 1), (1, 1))  # c6 branch always rejects
    return to_bipartite_representation(construct_directed(d)), step_directed


def _stream_digest(name, lazy, steps=4000):
    r, step = _stream_instance(name)
    rng = np.random.default_rng(2024)
    h = hashlib.sha256()
    for _ in range(steps):
        r, out = step(r, rng, lazy=lazy, inplace=True)
        h.update(r.key())
        h.update(out.reason.encode())
    return h.hexdigest()


STREAM_DIGESTS = {
    ("bipartite", True): "62a9f368f32b2e2f29c1e54c31f2c17d8b5ee9da6c477e7b533940d6ad6bff6b",
    ("bipartite", False): "b12c3fe649d107dea7efc5359c6b752812208e5dfd50bf2c96488c42f02b7b75",
    ("directed", True): "599af6e129eea5c6b85b88fa0d6a2fec9a7b66046a4b15af3d2d707b784a2bfa",
    ("directed", False): "ed531758a7fa24cfa37a92c728b93e1ef4f015a5b38de9fe163c9295f165e75c",
    ("restricted-2", True): "d0c71fbf98bb6e70d462a51e26523042da88cd021ff3d4b20ca2163957ce31b9",
    ("restricted-2", False): "a66d7f804d576c39da19579674cea30b9dee5ef613896662f44a19ee8ab54cb3",
}


@pytest.mark.parametrize("name, lazy", sorted(STREAM_DIGESTS))
def test_kernel_stream_is_pinned(name, lazy):
    # the state and outcome sequence of a fixed-seed run is part of the RNG
    # stream contract in swapmc.chain; it must not change across refactors
    assert _stream_digest(name, lazy) == STREAM_DIGESTS[name, lazy]


SAMPLE_STATS = {
    "steps": 75,
    "lazy": 40,
    "proposal_illegal": 24,
    "applied_c4": 11,
    "applied_c6": 0,
}
SAMPLE_DIGEST = "8358b755fba891bc213bfd544ece2fa575c91b7fcecde1954abafd6aa7d48928"


def test_sample_stream_is_pinned():
    # burn-in, then one state per thinning gap, all on one RNG stream
    seq = BipartiteDegreeSequence((3, 2, 2, 1, 1), (2, 2, 2, 2, 1))
    cfg = ChainConfig(seed=10, samples=6, burn_in=25, thinning=10)
    res = sample(seq, (), cfg)
    h = hashlib.sha256(b"".join(r.key() for r in res.realizations)).hexdigest()
    assert res.stats.as_dict() == SAMPLE_STATS
    assert h == SAMPLE_DIGEST
