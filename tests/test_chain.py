import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from swapmc import chain

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


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"samples": 2.0}, "samples"),
        ({"burn_in": 10.5}, "burn_in"),
        ({"thinning": "3"}, "thinning"),
        ({"seed": 1.0}, "seed"),
        ({"lazy": "no"}, "lazy"),
        ({"lazy": 0}, "lazy"),
    ],
)
def test_sample_config_rejects_non_integer_fields(fields, name):
    # a float count used to fail as a TypeError inside sample(), and a
    # string lazy flag in the block core's decoder
    with pytest.raises(ValueError, match=name):
        ChainConfig(**{"seed": 1, "samples": 1, **fields})


def test_sample_config_takes_numpy_integers():
    # numpy integers reached PCG64.advance, which raised OverflowError
    cfg = ChainConfig(seed=np.uint64(3), samples=np.int64(2), burn_in=np.int32(30))
    assert cfg == ChainConfig(seed=3, samples=2, burn_in=30)
    assert type(cfg.burn_in) is int
    seq = BipartiteDegreeSequence((2, 1, 1), (2, 1, 1))
    res = sample(seq, (), cfg)
    keys, stats = _per_step_sample(seq, cfg, np.random.default_rng(3))
    assert [r.key() for r in res.realizations] == keys
    assert res.stats.as_dict() == stats


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


@pytest.mark.parametrize(
    "seq, forbidden, kind, message",
    [
        (
            DirectedDegreeBiSequence((1, 1, 1), (1, 1, 1)),
            (),
            "bipartite",
            "directed bi-sequences require chain_kind='directed'",
        ),
        (
            BipartiteDegreeSequence((1, 1, 1), (1, 1, 1)),
            DIAG3,
            "bipartite",
            "bipartite kernel requires an empty forbidden set",
        ),
        (
            BipartiteDegreeSequence((1, 1, 1), (1, 1, 1)),
            (),
            "directed",
            "restricted kernel requires a forbidden matching",
        ),
    ],
    ids=["directed-seq-on-bipartite", "bipartite-with-matching", "restricted-without"],
)
def test_sample_rejects_a_kernel_that_does_not_fit_the_input(seq, forbidden, kind, message):
    cfg = ChainConfig(seed=0, samples=1, burn_in=0, chain_kind=kind)
    with pytest.raises(ValueError, match=message):
        sample(seq, forbidden, cfg)


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


# ---------------------------------------------------------------------------
# The block core behind sample(), checked against the per-step kernel
# ---------------------------------------------------------------------------


def _per_step_sample(seq, cfg, rng):
    """sample() written as a loop over the reference kernel ``_step``."""
    r = chain.initial_state(seq, (), cfg.chain_kind)
    stats = chain.ChainStats()
    burn = cfg.burn_in if cfg.burn_in is not None else chain.default_burn_in(r)
    keys = []
    for k in range(cfg.samples):
        for _ in range(cfg.thinning if k else burn):
            r, out = chain._step(r, rng, cfg.lazy, True, cfg.chain_kind == "directed")
            stats.record(out)
        keys.append(r.key())
    return keys, stats.as_dict()


@st.composite
def chain_runs(draw):
    """Margins of a random 0/1 matrix (loop-free when directed) and a run."""
    kind = draw(st.sampled_from(chain.CHAIN_KINDS))
    n = draw(st.integers(2, 7))
    m = n if kind == "directed" else draw(st.integers(2, 7))
    cells = draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))
    M = np.array(cells, dtype=np.int64).reshape(n, m)
    if kind == "directed":
        np.fill_diagonal(M, 0)
        seq = DirectedDegreeBiSequence(tuple(M.sum(axis=1)), tuple(M.sum(axis=0)))
    else:
        seq = BipartiteDegreeSequence(tuple(M.sum(axis=1)), tuple(M.sum(axis=0)))
    x = chain._CROSSOVER  # burn-ins and gaps on both sides of it
    cfg = ChainConfig(
        seed=draw(st.integers(0, 2**32)),
        samples=draw(st.integers(1, 8)),
        burn_in=draw(st.one_of(st.integers(0, 2 * x), st.integers(0, 600))),
        thinning=draw(st.integers(1, 4 * x)),
        chain_kind=kind,
        lazy=draw(st.booleans()),
    )
    # a few scalar draws first, which may leave half a word buffered
    return seq, cfg, draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None, database=None)
@given(chain_runs())
@example(  # the directed triangle: every c6 proposal is applied
    (
        DirectedDegreeBiSequence((1, 1, 1), (1, 1, 1)),
        ChainConfig(seed=1, samples=4, burn_in=50, thinning=5, chain_kind="directed"),
        1,
    )
)
@example(
    (
        DirectedDegreeBiSequence((2, 2, 2, 2, 1, 1), (2, 2, 1, 2, 2, 1)),
        ChainConfig(seed=2, samples=6, thinning=10, chain_kind="directed", lazy=False),
        0,
    )
)
@example(  # a per-step burn-in, then gaps in the block core
    (
        BipartiteDegreeSequence((3, 2, 2, 1, 1), (2, 2, 2, 2, 1)),
        ChainConfig(seed=3, samples=5, burn_in=chain._CROSSOVER - 1, thinning=chain._CROSSOVER),
        1,
    )
)
@example(  # a burn-in in the block core, then per-step gaps
    (
        DirectedDegreeBiSequence((2, 2, 1, 1), (1, 1, 2, 2)),
        ChainConfig(
            seed=4,
            samples=5,
            burn_in=chain._CROSSOVER,
            thinning=chain._CROSSOVER - 1,
            chain_kind="directed",
        ),
        1,
    )
)
def test_sample_block_core_matches_per_step_kernel(case):
    seq, cfg, pre = case
    rng_core, rng_ref = np.random.default_rng(cfg.seed), np.random.default_rng(cfg.seed)
    for rng in (rng_core, rng_ref):
        rng.integers(0, 5, size=pre)
    res = sample(seq, (), cfg, rng=rng_core)
    keys, stats = _per_step_sample(seq, cfg, rng_ref)
    assert [r.key() for r in res.realizations] == keys
    assert res.stats.as_dict() == stats
    assert rng_core.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("seed", [7, 8, 9])
@pytest.mark.parametrize("pre", [0, 1])
def test_raw_draws_match_numpy_call_for_call(seed, pre):
    # 2**31 + 1 and 3 * 2**30 reject a quarter to a half of their first
    # Lemire draws; k == 1 draws nothing
    ks = [1, 2, 3, 200, 2**31 + 1, 3 * 2**30, None]  # None: random()
    schedule = np.random.default_rng(99).choice(len(ks), size=3000).tolist()
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    rng.integers(0, 9, size=pre)
    ref.integers(0, 9, size=pre)
    draws = _ScalarDraws(rng.bit_generator)
    for c in schedule:
        k = ks[c]
        if k is None:
            assert draws.random() == ref.random()
        else:
            assert draws.integers(0, k) == ref.integers(0, k)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.random() == ref.random() and rng.integers(0, 7) == ref.integers(0, 7)


def test_sample_other_generators_take_the_per_step_loop(monkeypatch):
    def no_block_core(*args):
        raise AssertionError("the block core needs PCG64")

    monkeypatch.setattr(chain, "_Session", no_block_core)
    d = DirectedDegreeBiSequence((2, 1, 1, 1), (1, 2, 1, 1))
    cfg = ChainConfig(seed=3, samples=5, burn_in=200, thinning=13, chain_kind="directed")
    res = sample(d, (), cfg, rng=np.random.Generator(np.random.MT19937(3)))
    ref = np.random.Generator(np.random.MT19937(3))
    keys, stats = _per_step_sample(d, cfg, ref)
    assert [r.key() for r in res.realizations] == keys
    assert res.stats.as_dict() == stats


class _CountedBits:
    """A bit generator wrapper that counts the raw words drawn through it."""

    def __init__(self, bg):
        self.bg, self.raw = bg, 0

    state = property(lambda self: self.bg.state, lambda self, v: setattr(self.bg, "state", v))

    def random_raw(self, size):
        self.raw += size
        return self.bg.random_raw(size)

    def advance(self, delta):
        self.bg.advance(delta)


@pytest.mark.parametrize(
    "burn_in, thinning, decoders",
    [
        (1, 1, 0),  # no block core's set-up for a one-step burn-in
        (chain._CROSSOVER - 1, chain._CROSSOVER - 1, 0),
        (chain._CROSSOVER, chain._CROSSOVER - 1, 1),  # the burn-in only
        (chain._CROSSOVER - 1, chain._CROSSOVER, 1),  # the gaps only
        (chain._CROSSOVER, chain._CROSSOVER, 1),
        (1000, 500, 1),
    ],
)
def test_sample_opens_one_session_and_decodes_only_long_segments(
    burn_in, thinning, decoders, monkeypatch
):
    sessions, built = [], []

    class Counted(chain._Session):
        def __init__(self, *args):
            super().__init__(*args)
            self.bg = _CountedBits(self.bg)
            sessions.append(self.bg)

    class CountedDecoder(chain._Decoder):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(chain, "_Session", Counted)
    monkeypatch.setattr(chain, "_Decoder", CountedDecoder)
    seq = BipartiteDegreeSequence((3, 2, 2, 1, 1), (2, 2, 2, 2, 1))
    cfg = ChainConfig(seed=6, samples=4, burn_in=burn_in, thinning=thinning)
    for calls in (1, 2):
        res = sample(seq, (), cfg)
        assert len(sessions) == calls
        assert len(built) == calls * decoders
        assert (sessions[-1].raw > 0) == bool(decoders)
    keys, stats = _per_step_sample(seq, cfg, np.random.default_rng(6))
    assert [r.key() for r in res.realizations] == keys
    assert res.stats.as_dict() == stats


@pytest.mark.parametrize(
    "cfg",
    [
        ChainConfig(seed=5, samples=1, burn_in=20_000),
        ChainConfig(seed=5, samples=5, burn_in=2000, thinning=3000),
    ],
    ids=["burn-in", "gaps"],
)
def test_sample_block_core_memory_matches_per_step_loop(cfg):
    # drawing the whole run's random words at once, or keeping each gap's
    # words, would show here
    import tracemalloc

    seq = BipartiteDegreeSequence((10,) * 200, (10,) * 200)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    warm = ChainConfig(seed=5, samples=1, burn_in=10)  # one-time set-up stays out
    sample(seq, (), warm)
    _per_step_sample(seq, warm, np.random.default_rng(5))
    core = peak(lambda: sample(seq, (), cfg))
    loop = peak(lambda: _per_step_sample(seq, cfg, np.random.default_rng(5)))
    assert core <= loop + 256 * 1024


@pytest.mark.parametrize(
    "seq, cfg, pre",
    [
        (  # n = m = 2: below(1) draws nothing, so each proposal flips the half buffer
            BipartiteDegreeSequence((1, 1), (1, 1)),
            ChainConfig(seed=4, samples=5, burn_in=3000, thinning=7),
            1,
        ),
        (
            BipartiteDegreeSequence((3, 2), (1, 1, 1, 1, 1)),
            ChainConfig(seed=5, samples=5, burn_in=3000, thinning=7, lazy=False),
            0,
        ),
        (  # c6 triples at n = m = 3 end in a below(1)
            DirectedDegreeBiSequence((1, 1, 1), (1, 1, 1)),
            ChainConfig(seed=6, samples=5, burn_in=3000, thinning=7, chain_kind="directed"),
            1,
        ),
        (
            DirectedDegreeBiSequence((2, 1, 1), (1, 1, 2)),
            ChainConfig(seed=7, samples=5, burn_in=2999, chain_kind="directed", lazy=False),
            3,
        ),
        (  # long gaps: one session from the burn-in to the last sample
            DirectedDegreeBiSequence((1, 1, 1), (1, 1, 1)),
            ChainConfig(seed=8, samples=6, burn_in=3000, thinning=701, chain_kind="directed"),
            1,
        ),
        (
            BipartiteDegreeSequence((1, 1), (1, 1)),
            ChainConfig(seed=9, samples=6, burn_in=3000, thinning=700, lazy=False),
            0,
        ),
    ],
    ids=[
        "bipartite-2x2",
        "bipartite-2x5",
        "directed-3x3",
        "directed-3x3-busy",
        "directed-3x3-gaps",
        "bipartite-2x2-gaps",
    ],
)
def test_sample_block_core_matches_per_step_kernel_on_small_classes(seq, cfg, pre):
    rng_core, rng_ref = np.random.default_rng(cfg.seed), np.random.default_rng(cfg.seed)
    for rng in (rng_core, rng_ref):
        rng.integers(0, 5, size=pre)
    res = sample(seq, (), cfg, rng=rng_core)
    keys, stats = _per_step_sample(seq, cfg, rng_ref)
    assert [r.key() for r in res.realizations] == keys
    assert res.stats.as_dict() == stats
    assert rng_core.bit_generator.state == rng_ref.bit_generator.state


# ---------------------------------------------------------------------------
# The block decoder on constructed words, checked against the scalar draws
# ---------------------------------------------------------------------------


class _Served:
    """A bit generator stand-in that serves given raw words, in order."""

    def __init__(self, words, has=0, half=0):
        self.words = np.asarray(words, np.uint64)
        self._state = {"pos": 0, "has_uint32": has, "uinteger": half}

    @property
    def state(self):
        return dict(self._state)

    @state.setter
    def state(self, value):
        self._state = dict(value)

    def random_raw(self, size):
        pos = self._state["pos"]
        assert pos + size <= len(self.words), "the test served too few words"
        self._state["pos"] = pos + size
        return self.words[pos : pos + size].copy()

    def advance(self, delta):
        self._state["pos"] += delta


class _ScalarDraws:
    """numpy's scalar ``random()`` and ``integers(0, k)`` on ``bit_generator``,
    rebuilt from its raw words, one at a time, for ``1 <= k <= 2**32``.

    ``random()`` is ``(w >> 11) * 2**-53`` for a fresh word ``w``.
    ``integers(0, k)`` is 0 without a draw when ``k == 1``, otherwise
    Lemire's method on 32-bit halves: the buffered half of the bit
    generator's ``state`` when it has one, else the low half of a fresh word,
    whose high half it buffers.  Also the generator the block core falls
    back to."""

    def __init__(self, bg):
        self.bit_generator = bg

    def _word(self):
        return int(self.bit_generator.random_raw(1)[0])

    def _half(self):
        bg = self.bit_generator
        state = bg.state
        if state["has_uint32"]:
            half = state["uinteger"]  # numpy leaves the used half in place
            state["has_uint32"] = 0
        else:
            w = self._word()
            state = bg.state
            half = w & 0xFFFFFFFF
            state["has_uint32"], state["uinteger"] = 1, w >> 32
        bg.state = state
        return half

    def random(self):
        return (self._word() >> 11) * 2**-53

    def integers(self, low, high):
        k = high - low
        if k == 1:
            return low
        while True:
            p = self._half() * k
            # numpy computes the rejection bound only when the low word is below k
            if (p & 0xFFFFFFFF) >= k or (p & 0xFFFFFFFF) >= (2**32 - k) % k:
                return low + (p >> 32)


def _constructed_words(seed, size, zeros=0.02):
    """Random words with some halves set to zero; a zero half is a Lemire
    rejection for every bound that is not a power of two."""
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 2**64, size=size, dtype=np.uint64, endpoint=False)
    words[rng.random(size) < zeros] &= np.uint64(0xFFFFFFFF00000000)
    words[rng.random(size) < zeros] &= np.uint64(0x00000000FFFFFFFF)
    return words


# (n, m, kind): 2 and 3 per class give k = 1 draws, 6 and 7 bounds that reject
DECODE_CASES = [
    ((1, 1), (1, 1), "bipartite"),
    ((3, 2), (1, 1, 1, 1, 1), "bipartite"),
    ((2, 2, 1, 1, 1, 1), (2, 2, 1, 1, 1, 1, 0), "bipartite"),
    ((1, 1), (1, 1), "directed"),
    ((1, 1, 1), (1, 1, 1), "directed"),
    ((2, 2, 2, 1, 1, 1), (1, 2, 2, 2, 1, 1), "directed"),
]


def _decode_instance(rows, cols, kind):
    if kind == "directed":
        r = to_bipartite_representation(construct_directed(DirectedDegreeBiSequence(rows, cols)))
    else:
        r = construct_bipartite(BipartiteDegreeSequence(rows, cols))
    return r, kind == "directed"


@pytest.mark.parametrize("lazy", [True, False])
@pytest.mark.parametrize("has", [0, 1])
@pytest.mark.parametrize("rows, cols, kind", DECODE_CASES)
def test_decode_matches_scalar_draws_on_constructed_words(rows, cols, kind, has, lazy):
    r, c6 = _decode_instance(rows, cols, kind)
    n, m = r.n, r.m
    dec = chain._Decoder(r, lazy, c6)
    rejected = False
    for seed, steps in [(0, 0), (1, 1), (2, 10_000), (3, 37)]:
        words = _constructed_words(seed, 300, zeros=0.1)
        half = 0xDEADBEEF
        done, used, has_out, half_out, kinds, draws = dec.decode(words, has, half, steps)
        planned = min(steps, len(words) // dec.most)
        assert done <= planned and len(kinds) == done
        rejected |= 0 < done < planned  # stopped in the middle of the block
        bg = _Served(words, has, half)
        ref = _ScalarDraws(bg)
        rows_seen = []
        for t in range(done):
            x = ref.random() if lazy or c6 else 1.0
            if lazy and x < 0.5:
                kind_t, ks = 0, ()
            elif not c6 or x < (0.75 if lazy else 0.5):
                kind_t, ks = 1, (n, n - 1, m, m - 1)
            elif n < 3 or m < 3:
                kind_t, ks = 3, ()
            else:
                kind_t, ks = 2, (n, n - 1, n - 2, m, m - 1, m - 2)
            assert kinds[t] == kind_t
            if ks:
                rows_seen.append([ref.integers(0, k) for k in ks] + [0] * (6 - len(ks)))
        assert draws.tolist() == rows_seen
        assert bg.state == {"pos": used, "has_uint32": has_out, "uinteger": half_out}
    if any(k & (k - 1) for k in (n, n - 1, m, m - 1)):
        assert rejected, "no Lemire rejection stopped a block"


def _session_against_loop(r, c6, lazy, segments, words, has):
    """Runs ``segments`` in one session on ``words`` and through ``_loop`` over
    their scalar draws, comparing the states and statistics at every
    segment's end and the bit generators after closing.  Returns whether a
    segment left words for the next one, the steps whose draws met a Lemire
    rejection, and how many steps of block-core segments (at least
    ``_CROSSOVER`` steps) the session ran through ``_step``."""
    core, ref = r.copy(), r.copy()
    bg_core, bg_ref = _Served(words, has, 12345), _Served(words, has, 12345)
    stats_core, stats_ref = chain.ChainStats(), chain.ChainStats()
    rejected = set()

    class Counting(_ScalarDraws):
        def halves(self):
            state = self.bit_generator.state
            return 2 * state["pos"] - state["has_uint32"]

        def integers(self, low, high):
            before = self.halves()
            value = super().integers(low, high)
            if self.halves() - before > 1:
                rejected.add(stats_ref.steps)
            return value

    rng_core = _ScalarDraws(bg_core)
    fallback = 0
    long = False
    step = chain._step

    def counted(r, rng, *args):
        nonlocal fallback
        fallback += rng is rng_core and long
        return step(r, rng, *args)

    draws = Counting(bg_ref)
    session = chain._Session(core, rng_core, lazy, c6, stats_core)
    carried, decoders = False, {None}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chain, "_step", counted)
        try:
            for i, steps in enumerate(segments):
                long = steps >= chain._CROSSOVER
                session.run(steps)
                chain._loop(ref, draws, steps, lazy, c6, stats_ref)
                assert core.key() == ref.key()
                assert stats_core.as_dict() == stats_ref.as_dict()
                left = session.words is not None and len(session.words) > 0
                carried |= i + 1 < len(segments) and left
                decoders.add(session.dec)
        finally:
            session.close()
    assert bg_core.state == bg_ref.state
    assert len(decoders) <= 2  # one decoder, however often the words reopen
    return carried, rejected, fallback


@pytest.mark.parametrize("block", [7, 64, 2048])
@pytest.mark.parametrize("has", [0, 1])
@pytest.mark.parametrize("rows, cols, kind", DECODE_CASES)
def test_block_core_matches_scalar_draws_on_constructed_words(
    rows, cols, kind, has, block, monkeypatch
):
    # small blocks make proposals span two blocks; zero halves make Lemire
    # rejections in the middle of blocks
    monkeypatch.setattr(chain, "_BLOCK", block)
    r, c6 = _decode_instance(rows, cols, kind)
    n, m = r.n, r.m
    fallback = 0
    for lazy in (True, False):
        for steps in (0, 1, 2, 500):
            words = _constructed_words(steps + block, 2500, zeros=0.05)
            fallback += _session_against_loop(r, c6, lazy, [steps], words, has)[2]
    if any(k & (k - 1) for k in (n, n - 1, m, m - 1)):
        assert fallback > 0, "no rejected step ran through _step"


@pytest.mark.parametrize("block", [7, 64, 2048])
@pytest.mark.parametrize("has", [0, 1])
@pytest.mark.parametrize("rows, cols, kind", DECODE_CASES)
def test_block_core_segments_match_scalar_draws_on_constructed_words(
    rows, cols, kind, has, block, monkeypatch
):
    # one session runs a burn-in and four gaps, as sample() does
    monkeypatch.setattr(chain, "_BLOCK", block)
    r, c6 = _decode_instance(rows, cols, kind)
    n, m = r.n, r.m
    carried = rejected_at_boundary = False
    fallback = 0
    for lazy in (True, False):
        for gap in (1, 2, 150):
            segments = [500] + [gap] * 4
            words = _constructed_words(gap + block + has, 6000, zeros=0.1)
            left, rejected, stepped = _session_against_loop(r, c6, lazy, segments, words, has)
            carried |= left
            fallback += stepped
            # a segment's first step, which may start on carried words
            rejected_at_boundary |= bool(rejected & set(np.cumsum(segments[:-1]).tolist()))
    assert carried, "no segment left words for the next one"
    if any(k & (k - 1) for k in (n, n - 1, m, m - 1)):
        assert rejected_at_boundary, "no Lemire rejection at a segment's first step"
        assert fallback > 0, "no rejected step ran through _step"


# ---------------------------------------------------------------------------
# The reference kernel's one-step law against the exact kernel, every state
# ---------------------------------------------------------------------------


def _chi2_quantile(df, z):
    """Wilson-Hilferty approximation of the chi-square quantile at normal score z."""
    a = 2.0 / (9.0 * df)
    return df * (1.0 - a + z * a**0.5) ** 3


@pytest.mark.parametrize(
    "seq, forbidden, kind, size",
    [
        (BipartiteDegreeSequence((2,) * 4, (2,) * 4), (), "bipartite", 90),
        (
            BipartiteDegreeSequence((2, 1, 1, 1, 1), (1, 2, 1, 1, 1)),
            tuple((i, i) for i in range(5)),
            "directed",
            48,
        ),
    ],
    ids=["bipartite-4x4-2-regular", "directed-5"],
)
def test_one_step_law_chi_square_from_every_state(seq, forbidden, kind, size):
    from swapmc import exact_transition_matrix

    kernel = exact_transition_matrix(seq, forbidden, kind)
    assert kernel.size == size
    index = {s.key(): i for i, s in enumerate(kernel.states)}
    step = step_directed if kind == "directed" else step_bipartite
    rng = np.random.default_rng(2026)
    trials = 2000
    total = df_total = 0.0
    for s0, start in enumerate(kernel.states):
        counts = np.zeros(kernel.size)
        for _ in range(trials):
            counts[index[step(start, rng)[0].key()]] += 1
        expected = trials * kernel.matrix[s0]
        support = expected > 0
        assert counts[~support].sum() == 0, "landed where the exact kernel cannot go"
        assert expected[support].min() >= 5  # the chi-square approximation holds
        stat = float((((counts - expected) ** 2)[support] / expected[support]).sum())
        df = int(support.sum()) - 1
        assert stat <= _chi2_quantile(df, 4.75), (s0, stat, df)  # about 1e-6 each
        total += stat
        df_total += df
    assert total <= _chi2_quantile(df_total, 3.72)  # about 1e-4 pooled
