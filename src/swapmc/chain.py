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


def _step(r: BipartiteRealization, rng, lazy: bool, inplace: bool, c6: bool):
    """The kernel behind both public step functions.

    ``c6`` selects the restricted kernel, whose non-holding mass is split
    evenly between a c4 and a c6 branch; without it every non-holding step
    proposes a c4-swap and no branch uniform is drawn when ``lazy`` is off.
    """
    kind = "restricted" if c6 else "bipartite"
    if bool(r.forbidden) != c6:
        need = "a forbidden matching" if c6 else "an empty forbidden set"
        raise ValueError(f"{kind} kernel requires {need}")
    if r.n < 2 or r.m < 2:
        raise ValueError(f"{kind} kernel needs at least two vertices per class")
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
    """
    if config is None:
        raise ValueError("a ChainConfig is required")
    r = initial_state(seq, forbidden, config.chain_kind)
    step = step_directed if config.chain_kind == "directed" else step_bipartite
    if rng is None:
        rng = np.random.default_rng(config.seed)
    stats = ChainStats()
    result = SampleResult(stats=stats)
    burn = config.burn_in if config.burn_in is not None else default_burn_in(r)
    for k in range(config.samples):
        for _ in range(config.thinning if k else burn):
            r, out = step(r, rng, lazy=config.lazy, inplace=True)
            stats.record(out)
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
