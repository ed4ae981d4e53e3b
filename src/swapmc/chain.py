"""Lazy swap Markov chains on realization sets, and a sampling driver.

Two kernels are provided.  The *bipartite* kernel acts on unrestricted
bipartite realizations: with probability 1/2 it holds, otherwise it draws an
unordered vertex pair from each class and performs the unique alternating
c4-swap on those four vertices when one exists.  The one-step probability to
any neighbour is therefore ``1 / (2 C(n,2) C(m,2))``.

The *restricted* (directed) kernel acts on realizations carrying a forbidden
partial matching, e.g. the diagonal of a digraph's bipartite representation:
it holds with probability 1/2, proposes a c4-swap from a 2+2 vertex draw with
probability 1/4, and with the remaining 1/4 draws 3+3 vertices, checks that
they pair into three forbidden positions, and performs the c6-swap when the
induced hexagon alternates.  One-step probabilities are
``1/4 / (C(n,2) C(m,2))`` to a c4-neighbour and ``1/4 / (C(n,3) C(m,3))`` to
a c6-neighbour.  Both kernels are symmetric, so the uniform distribution on
the realization set is stationary.

One implementation serves both kernels: the bipartite kernel is the
restricted one without its c6 branch, which is how the directed case reduces
to the bipartite technique (a loop-free digraph is a bipartite realization
whose diagonal is forbidden).

RNG stream contract (bit-reproducibility): every step consumes, in order,

* one ``rng.random()`` draw deciding the branch (omitted when ``lazy`` is
  disabled for the bipartite kernel);
* for a c4 proposal, four ``rng.integers`` draws selecting the unordered row
  pair and column pair (i, then j over the remaining indices, per class);
* for a c6 proposal, six ``rng.integers`` draws selecting unordered triples.

Any generator with ``random`` / ``integers`` works; the package uses
``numpy.random.default_rng`` (PCG64) and derives independent per-chain
streams with ``numpy.random.SeedSequence(seed).spawn``.

:func:`sample` consumes this same stream.  When its generator is a
``numpy.random.Generator`` on ``PCG64``, the burn-in runs through a block
core that draws raw 64-bit words in blocks, rebuilds numpy's ``random()``
and ``integers(0, k)`` from them, and then rewinds the generator past the
words it used.  States, statistics and the generator's final state are
bit-identical to the per-step functions, which stay as the reference.
Other generators take the per-step path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .degrees import DirectedDegreeBiSequence
from .realization import (
    BipartiteRealization,
    SwapMove,
    _restricted_form,
    construct_bipartite,
    try_c4_swap,
    try_c6_swap,
)

__all__ = [
    "ChainConfig",
    "StepOutcome",
    "ChainStats",
    "SampleResult",
    "step_bipartite",
    "step_directed",
    "sample",
    "derive_chain_seeds",
]

CHAIN_KINDS = ("bipartite", "directed")


@dataclass(frozen=True)
class ChainConfig:
    """Sampling parameters.

    ``burn_in=None`` selects the default heuristic ``10 * |E| * max(n, m)``.
    This is NOT a rigorous mixing bound -- the chains are known to mix in
    polynomial time under the degree-spread conditions of
    :mod:`swapmc.conditions`, but no usable constants exist; calibrate with
    :func:`swapmc.oracle.tv_curve` on small instances when in doubt.
    """

    seed: int
    samples: int
    burn_in: int | None = None
    thinning: int = 1
    chain_kind: str = "bipartite"
    lazy: bool = True

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        if self.burn_in is not None and self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.chain_kind not in CHAIN_KINDS:
            raise ValueError(f"chain_kind must be one of {CHAIN_KINDS}")


@dataclass(frozen=True)
class StepOutcome:
    moved: bool
    move: SwapMove | None
    reason: str  # "lazy" | "proposal_illegal" | "applied_c4" | "applied_c6"


# Shared by every holding or rejected step; the dataclass is frozen.
_LAZY = StepOutcome(False, None, "lazy")
_REJECTED = StepOutcome(False, None, "proposal_illegal")


@dataclass
class ChainStats:
    """Acceptance statistics accumulated over chain steps."""

    steps: int = 0
    lazy: int = 0
    illegal: int = 0
    applied_c4: int = 0
    applied_c6: int = 0

    def record(self, outcome: StepOutcome) -> None:
        self.steps += 1
        if outcome.reason == "lazy":
            self.lazy += 1
        elif outcome.reason == "proposal_illegal":
            self.illegal += 1
        elif outcome.reason == "applied_c4":
            self.applied_c4 += 1
        else:
            self.applied_c6 += 1

    def as_dict(self) -> dict:
        return {
            "steps": self.steps,
            "lazy": self.lazy,
            "proposal_illegal": self.illegal,
            "applied_c4": self.applied_c4,
            "applied_c6": self.applied_c6,
        }


def _draw_pair(rng, n: int) -> tuple[int, int]:
    """Uniform unordered pair of distinct indices in range(n); two draws."""
    i = int(rng.integers(0, n))
    j = int(rng.integers(0, n - 1))
    if j >= i:
        j += 1
    return i, j


def _draw_triple(rng, n: int) -> tuple[int, int, int]:
    """Uniform unordered triple of distinct indices in range(n); three draws."""
    i, j = _draw_pair(rng, n)
    a, b = (i, j) if i < j else (j, i)
    k = int(rng.integers(0, n - 2))
    if k >= a:
        k += 1
    if k >= b:
        k += 1
    return i, j, k


def _check_kernel(r: BipartiteRealization, c6: bool) -> None:
    kind = "restricted" if c6 else "bipartite"
    if bool(r.forbidden) != c6:
        need = "a forbidden matching" if c6 else "an empty forbidden set"
        raise ValueError(f"{kind} kernel requires {need}")
    if r.n < 2 or r.m < 2:
        raise ValueError(f"{kind} kernel needs at least two vertices per class")


def _step(r: BipartiteRealization, rng, lazy: bool, inplace: bool, c6: bool):
    """The kernel behind both public step functions.

    ``c6`` selects the restricted kernel, whose non-holding mass is split
    evenly between a c4 and a c6 branch; without it every non-holding step
    proposes a c4-swap and no branch uniform is drawn when ``lazy`` is off.
    """
    _check_kernel(r, c6)
    x = rng.random() if lazy or c6 else 1.0
    if lazy and x < 0.5:
        return r, _LAZY
    if not c6 or x < (0.75 if lazy else 0.5):
        u1, u2 = _draw_pair(rng, r.n)
        v1, v2 = _draw_pair(rng, r.m)
        mv = try_c4_swap(r, u1, u2, v1, v2)
        reason = "applied_c4"
    elif r.n < 3 or r.m < 3:
        mv = None
    else:
        mv = try_c6_swap(r, _draw_triple(rng, r.n), _draw_triple(rng, r.m))
        reason = "applied_c6"
    if mv is None:
        return r, _REJECTED
    return r.apply_move(mv, inplace=inplace), StepOutcome(True, mv, reason)


def step_bipartite(
    r: BipartiteRealization, rng, *, lazy: bool = True, inplace: bool = False
) -> tuple[BipartiteRealization, StepOutcome]:
    """One step of the bipartite kernel; requires an empty forbidden set."""
    return _step(r, rng, lazy, inplace, c6=False)


def step_directed(
    r: BipartiteRealization, rng, *, lazy: bool = True, inplace: bool = False
) -> tuple[BipartiteRealization, StepOutcome]:
    """One step of the restricted kernel (c4 + c6 branches).

    ``r`` must carry a non-empty forbidden partial matching -- the diagonal
    when it represents a digraph.  With fewer than three vertices per class
    the c6 branch keeps its proposal mass but always rejects.
    """
    return _step(r, rng, lazy, inplace, c6=True)


_BLOCK = 2048  # most raw words drawn at once by the block core
_LOW = 0xFFFFFFFF


def _raw_draws(bg, budget: int):
    """numpy's scalar draws on a ``PCG64`` bit generator, rebuilt from raw words.

    Returns ``(word, below, close)``.  ``word()`` is the fresh 64-bit word
    that ``Generator.random()`` consumes; that call returns
    ``(word() >> 11) * 2**-53``.  ``below(k)`` equals
    ``Generator.integers(0, k)`` for ``1 <= k <= 2**32``: 0 without a draw
    when ``k == 1``, otherwise Lemire's method on 32-bit halves taken
    through PCG64's one-half buffer, the low half first and the high half
    kept for the next call.  Words come from ``random_raw`` in blocks of at
    most ``_BLOCK``, sized to the ``budget`` of words the caller expects to
    use.  ``close()`` rewinds ``bg`` past the words actually used and
    restores the half buffer, so its ``state`` is what the scalar calls
    would have left; call it once, in a ``finally``.
    """
    snap = bg.state
    has, half = snap["has_uint32"], snap["uinteger"]
    words: list[int] = []
    pos = drawn = 0

    def refill() -> None:
        nonlocal words, pos, drawn
        size = min(_BLOCK, max(budget - drawn, 8))
        words = bg.random_raw(size).tolist()
        drawn += size
        pos = 0

    def word() -> int:
        nonlocal pos
        if pos == len(words):
            refill()
        pos += 1
        return words[pos - 1]

    def below(k: int) -> int:
        nonlocal has, half, pos
        if k == 1:
            return 0
        while True:
            if has:
                has = 0
                p = half * k
            else:
                if pos == len(words):  # word(), inlined on the hot path
                    refill()
                w = words[pos]
                pos += 1
                half, has = w >> 32, 1
                p = (w & _LOW) * k
            # numpy computes the rejection bound only when the low word is below k
            if (p & _LOW) >= k or (p & _LOW) >= (0x100000000 - k) % k:
                return p >> 32

    def close() -> None:
        bg.state = snap
        bg.advance(drawn - len(words) + pos)
        state = bg.state
        state["has_uint32"], state["uinteger"] = has, half
        bg.state = state

    return word, below, close


def _run(r: BipartiteRealization, rng, steps: int, lazy: bool, c6: bool, stats) -> None:
    """``steps`` kernel steps on ``r`` in place: the block core of :func:`sample`.

    It consumes exactly the documented stream of ``rng``, a
    ``numpy.random.Generator`` on ``PCG64``, so ``r``, ``stats`` and the
    generator's state end as ``steps`` calls of :func:`_step` leave them.
    The state is the matrix's own bytes and the forbidden partners a list;
    outcomes are counted in local ints, and no move object is built.
    """
    if not steps:
        return
    _check_kernel(r, c6)
    n, m = r.n, r.m
    fu = [-1] * n  # forbidden partner column of each row
    for u, v in r.forbidden:
        fu[u] = v
    branch = lazy or c6
    # Words per step: the branch word, then two for a c4 proposal's four
    # 32-bit draws or three for a c6 proposal's six.
    word, below, close = _raw_draws(rng.bit_generator, steps * (2 + branch + c6))
    # The branch uniform (w >> 11) * 2**-53 is below 0.5 exactly when
    # w < 2**63, and below 0.75 exactly when w < 3 * 2**62.
    hold = 1 << 63 if lazy else 0
    c4_below = (3 << 62 if lazy else 1 << 63) if c6 else 1 << 64
    no_c6 = n < 3 or m < 3

    def triple(k):
        i = below(k)
        j = below(k - 1)
        j += j >= i
        lo, hi = (i, j) if i < j else (j, i)
        x = below(k - 2)
        x += x >= lo
        return i, j, x + (x >= hi)

    held = illegal = c4 = c6_moves = 0
    try:
        with memoryview(r.matrix).cast("B") as M:
            for _ in range(steps):
                w = word() if branch else 0
                if w < hold:
                    held += 1
                elif w < c4_below:
                    i = below(n)
                    i2 = below(n - 1)
                    i2 += i2 >= i
                    j = below(m)
                    j2 = below(m - 1)
                    j2 += j2 >= j
                    p, q = i * m, i2 * m
                    a, b, c, d = M[p + j], M[q + j2], M[p + j2], M[q + j]
                    if a != b or c != d or a == c:
                        illegal += 1  # not alternating
                    elif fu[i] == (j2 if a else j) or fu[i2] == (j if a else j2):
                        illegal += 1  # an inserted edge would be forbidden
                    else:
                        M[p + j] = M[q + j2] = c
                        M[p + j2] = M[q + j] = a
                        c4 += 1
                elif no_c6:
                    illegal += 1
                else:
                    x, y, z = triple(n)
                    vs = triple(m)
                    px, py, pz = fu[x], fu[y], fu[z]
                    if px < 0 or py < 0 or pz < 0 or {px, py, pz} != set(vs):
                        illegal += 1
                        continue
                    # Hexagon x, pz, y, px, z, py: it alternates when the cells
                    # (x,pz), (y,px), (z,py) agree and the other three hold the
                    # opposite value.  Reordering x, y, z at most swaps the two
                    # triples, so the drawn order serves as well as the sorted.
                    X, Y, Z = x * m, y * m, z * m
                    a, b = M[X + pz], M[Y + pz]
                    if a == M[Y + px] == M[Z + py] != b == M[Z + px] == M[X + py]:
                        M[X + pz] = M[Y + px] = M[Z + py] = b
                        M[Y + pz] = M[Z + px] = M[X + py] = a
                        c6_moves += 1
                    else:
                        illegal += 1
    finally:
        close()
        stats.lazy += held
        stats.illegal += illegal
        stats.applied_c4 += c4
        stats.applied_c6 += c6_moves
        stats.steps += held + illegal + c4 + c6_moves


def _loop(r: BipartiteRealization, rng, steps: int, lazy: bool, c6: bool, stats) -> None:
    """The per-step reference for :func:`_run`, for any generator."""
    for _ in range(steps):
        _, out = _step(r, rng, lazy, True, c6)
        stats.record(out)


@dataclass
class SampleResult:
    realizations: list = field(default_factory=list)
    stats: ChainStats = field(default_factory=ChainStats)


def default_burn_in(r: BipartiteRealization) -> int:
    return 10 * int(r.matrix.sum()) * max(r.n, r.m)


def initial_state(seq, forbidden=(), chain_kind: str = "bipartite"):
    """Deterministic starting realization for a sampling run."""
    if isinstance(seq, DirectedDegreeBiSequence):
        if chain_kind != "directed":
            raise ValueError("directed bi-sequences require chain_kind='directed'")
        seq, forbidden = _restricted_form(seq)
    r = construct_bipartite(seq, forbidden)
    if chain_kind == "bipartite" and r.forbidden:
        raise ValueError("bipartite kernel requires an empty forbidden set")
    if chain_kind == "directed" and not r.forbidden:
        raise ValueError("restricted kernel requires a forbidden matching")
    return r


def sample(seq, forbidden=(), config: ChainConfig | None = None, rng=None) -> SampleResult:
    """Run one chain: burn in, then emit states separated by thinning steps.

    The first retained state is the one reached right after burn-in, so
    ``burn_in=0`` emits the deterministic initial realization first.
    Identical configs produce bit-identical output.  ``rng`` overrides the
    generator derived from ``config.seed`` (used for multi-chain runs).
    With a ``numpy.random.Generator`` on ``PCG64`` the burn-in runs through
    the block core :func:`_run`; thinning gaps, and every step under any
    other generator, run the per-step loop.  Both consume the same stream.
    """
    if config is None:
        raise ValueError("a ChainConfig is required")
    r = initial_state(seq, forbidden, config.chain_kind)
    c6 = config.chain_kind == "directed"
    if rng is None:
        rng = np.random.default_rng(config.seed)
    block = type(rng) is np.random.Generator and type(rng.bit_generator) is np.random.PCG64
    stats = ChainStats()
    result = SampleResult(stats=stats)
    burn = config.burn_in if config.burn_in is not None else default_burn_in(r)
    (_run if block else _loop)(r, rng, burn, config.lazy, c6, stats)
    result.realizations.append(r.copy())
    # A block-core call costs about three steps of set-up, so a gap of 1
    # (the default) would be slower through it.  Longer gaps would gain, but
    # on the benchmark's short-gap workload the faster emit rate reads as
    # peak-RSS growth (ROADMAP item 1), so they stay here for now.
    for _ in range(config.samples - 1):
        _loop(r, rng, config.thinning, config.lazy, c6, stats)
        result.realizations.append(r.copy())
    return result


def derive_chain_seeds(seed: int, count: int) -> list[int]:
    """Deterministic per-chain seeds for independent parallel chains.

    Chain ``i`` receives the 64-bit state generated by the ``i``-th child of
    ``numpy.random.SeedSequence(seed)``, so streams are independent and the
    derivation is part of the reproducibility contract.
    """
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(child.generate_state(1, dtype=np.uint64)[0]) for child in children]
