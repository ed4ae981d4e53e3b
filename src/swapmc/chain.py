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
``numpy.random.Generator`` on ``PCG64``, the burn-in and the thinning gaps
run as segments of one session.  A segment of at least ``_CROSSOVER``
steps runs in the block core, which draws raw 64-bit words in blocks and
decodes each block with numpy.  ``random()`` reads one word, and
``integers(0, k)`` is Lemire's bounded-integer method on a 32-bit half
(Lemire, "Fast random integer generation in an interval", ACM TOMACS
2019), a multiply and a compare that run as well on a whole array of
halves.  Python then walks the block's branch words to class each step,
reading how far each step advances from a byte table, and checks and
applies the proposals in step order.  Words a segment leaves unused start
the next one.  Shorter segments, where the block core's fixed costs
outweigh the saving, and the rare step whose draws meet a Lemire
rejection take one route: the session rewinds the generator past the
words it used and runs those steps through the per-step functions on
numpy's own draws.  States, statistics and the generator's final state are
bit-identical to the per-step functions, which stay as the reference.
Other generators take the per-step path.

Every chain starts from :func:`initial_state`, which builds the
deterministic start realization once per sequence and forbidden matching,
keeps the last one built, and hands each call its own copy: the K chains
of one run, or of repeated runs on one sequence, pay for one construction.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .realization import (
    BipartiteRealization,
    SwapMove,
    _fit_kernel,
    _kernel_form,
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
    :func:`swapmc.oracle.tv_curve` on small instances when in doubt.  On
    an n x n d-regular sequence the default gives about ``10 * d**3``
    expected swap proposals, whatever n is, so it under-mixes large sparse
    sequences: on 200 x 200 3-regular it keeps 41-46 % of the start
    state's edges, where a uniform sample keeps 1.5 %.  Set ``burn_in``
    yourself on large sparse sequences.
    The integer fields take anything ``operator.index`` accepts and store
    it as an ``int``, and ``lazy`` must be a ``bool``; anything else is a
    ``ValueError``.
    """

    seed: int
    samples: int
    burn_in: int | None = None
    thinning: int = 1
    chain_kind: str = "bipartite"
    lazy: bool = True

    def __post_init__(self):
        # stored as Python ints: PCG64.advance, say, rejects numpy integers
        names = ("seed", "samples", "thinning") + (() if self.burn_in is None else ("burn_in",))
        try:
            for name in names:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
        except TypeError as exc:
            raise ValueError(f"{name} must be an integer") from exc
        if not isinstance(self.lazy, bool):
            raise ValueError("lazy must be True or False")
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
    _fit_kernel(r.forbidden, c6)
    if r.n < 2 or r.m < 2:
        kind = "restricted" if c6 else "bipartite"
        raise ValueError(f"{kind} kernel needs at least two vertices per class")


def _kernel_step(
    r: BipartiteRealization, rng, lazy: bool, inplace: bool, c6: bool, n: int, m: int
):
    """One kernel step on ``r``, already checked to fit the kernel, whose
    shape ``n`` x ``m`` the caller reads once.

    ``c6`` selects the restricted kernel, whose non-holding mass is split
    evenly between a c4 and a c6 branch; without it every non-holding step
    proposes a c4-swap and no branch uniform is drawn when ``lazy`` is off.
    """
    x = rng.random() if lazy or c6 else 1.0
    if lazy and x < 0.5:
        return r, _LAZY
    if not c6 or x < (0.75 if lazy else 0.5):
        u1, u2 = _draw_pair(rng, n)
        v1, v2 = _draw_pair(rng, m)
        mv = try_c4_swap(r, u1, u2, v1, v2)
        reason = "applied_c4"
    elif n < 3 or m < 3:
        mv = None
    else:
        mv = try_c6_swap(r, _draw_triple(rng, n), _draw_triple(rng, m))
        reason = "applied_c6"
    if mv is None:
        return r, _REJECTED
    return r.apply_move(mv, inplace=inplace), StepOutcome(True, mv, reason)


def _step(r: BipartiteRealization, rng, lazy: bool, inplace: bool, c6: bool):
    """The kernel behind both public step functions: the check, then one step."""
    _check_kernel(r, c6)
    return _kernel_step(r, rng, lazy, inplace, c6, r.n, r.m)


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


_BLOCK = 2048  # most raw words the block core holds at once
# A session runs segments of fewer steps on the per-step loop.  A session's
# set-up, or a pass's fixed numpy cost in an open one, matched about 16-20
# per-step steps of the bipartite kernel and 28-32 of the restricted one
# (200x200 10-regular and a 6-vertex digraph, 2-core x86-64).
_CROSSOVER = 24
_LOW = 0xFFFFFFFF


def _triples(d):
    """Each row of three draws as ``_draw_triple`` turns them into a triple."""
    x, y, z = d.T
    y = y + (y >= x)
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    z = z + (z >= lo)
    return x, y, z + (z >= hi)


class _Decoder:
    """Decodes blocks of raw words into whole kernel steps on one state.

    A step's class is 0 when it holds, 1 when it proposes a c4-swap, 2 when
    it proposes a c6-swap, and 3 when it takes the c6 branch with fewer than
    three vertices in a class, which draws nothing and rejects.  A draw
    with ``k == 1`` takes no half, so with two or three vertices in a class
    a proposal takes an odd number of halves and the half buffer flips.
    """

    def __init__(self, r: BipartiteRealization, lazy: bool, c6: bool):
        n, m = r.n, r.m
        self.m, self.c6 = m, c6
        self.branch = b = int(lazy or c6)
        # The branch uniform (w >> 11) * 2**-53 is below 0.5 exactly when
        # w < 2**63, and below 0.75 exactly when w < 3 * 2**62.
        self.hold = 1 << 63 if lazy else 0
        self.c4_below = (3 << 62 if lazy else 1 << 63) if c6 else None
        self.c6_class = 2 if n >= 3 and m >= 3 else 3
        # Per class and draw column: the bound k of its integers(0, k) draw,
        # in stream order (0 where no half is taken), the offset of its half
        # among the proposal's, and numpy's Lemire rejection threshold
        # (2**32 - k) % k.  A zero bound decodes to 0 and never rejects.
        bound = np.zeros((4, 6), np.int64)
        bound[1, :4] = n, n - 1, m, m - 1
        bound[2] = n, n - 1, n - 2, m, m - 1, m - 2
        bound[bound == 1] = 0
        drawn = bound > 0
        self.bound = bound.astype(np.uint64)
        self.offset = np.maximum(np.cumsum(drawn, axis=1) - 1, 0)
        self.thr = np.where(drawn, (2**32 - bound) % np.maximum(bound, 1), 0).astype(np.uint64)
        self.halves = drawn.sum(axis=1)
        # A step of a class with h halves, from half-buffer flag f, uses b
        # branch words (none when every step proposes) and (h - f + 1) // 2
        # more, and leaves the flag (h - f) % 2.  The walk's state is
        # 2 * word position + flag.  With two or more vertices per class a
        # step advances it by 0 to 9 (1 to 9 for a class a step can take),
        # so the walk reads the increments as bytes.
        step = [
            [(b + (h - f + 1) // 2, (h - f) % 2) if h else (b, f) for f in (0, 1)]
            for h in self.halves.tolist()
        ]
        self.inc = np.array(
            [[2 * w + g - f for f, (w, g) in enumerate(row)] for row in step], np.uint8
        )
        possible = ([0] if lazy else []) + [1] + ([self.c6_class] if c6 else [])
        self.most = max(step[c][f][0] for c in possible for f in (0, 1))
        # (i, i2, j, j2) -> flat cells (i,j), (i2,j2) twice, (i,j2), (i2,j) twice
        self.c4_cells = np.array(
            [[m, 0, 0, m, 0, 0], [0, m, m, 0, m, m], [1, 0, 0, 0, 1, 1], [0, 1, 1, 1, 0, 0]]
        )
        self.fu = np.array(r._fu)
        self.forbidden = r._stars().ravel()

    def decode(self, words, has: int, half: int, steps: int):
        """The draws of up to ``steps`` whole steps read from ``words``.

        ``has`` and ``half`` are the half buffer before the first word.  The
        steps decoded are the first ``min(steps, len(words) // most)``, which
        fit in ``words`` whatever their classes, up to the first step whose
        draws meet a Lemire rejection.  Returns ``(steps, used, has, half,
        kinds, draws)``: the steps decoded, the words they used, the half
        buffer after them, each step's class, and one row of ``integers(0, k)``
        values per proposal in step order, zero-padded to six.
        """
        todo = min(steps, len(words) // self.most)
        # The class of the step that would read each word as its branch
        # word; all 1 when every step proposes a c4-swap (hold is then 0)
        cls = (words >= np.uint64(self.hold)).astype(np.intp)
        if self.c4_below is not None:
            cls[words >= np.uint64(self.c4_below)] = self.c6_class
        inc = self.inc.take(cls, axis=0).tobytes()
        s = has  # see __init__
        states = np.fromiter([has] + [s := s + inc[s] for _ in range(todo)], np.intp, todo + 1)
        first = states[:-1] >> 1  # each step's first word
        kinds = cls[first]
        used, end = int(states[-1]) >> 1, int(states[-1]) & 1
        ints = words[:used]
        if self.branch:
            keep = np.ones(used, bool)
            keep[first] = False
            ints = ints[keep]
        # Every half the integer draws take, in order, from the buffered one on
        S = np.empty(has + 2 * len(ints), np.uint64)
        S[:has] = half
        S[has:] = ints.astype("<u8", copy=False).view("<u4")  # low half first
        pk = kinds[(kinds == 1) | (kinds == 2)]
        hk = self.halves[pk]
        starts = np.cumsum(hk) - hk
        p = S[starts[:, None] + self.offset.take(pk, axis=0)] * self.bound.take(pk, axis=0)
        taken = len(S)
        bad = (p & _LOW) < self.thr.take(pk, axis=0)
        if bad.any():  # stop before the first step whose draws meet a rejection
            j = int(bad.any(axis=1).argmax())
            todo = int(np.flatnonzero((kinds == 1) | (kinds == 2))[j])
            used, end = int(states[todo]) >> 1, int(states[todo]) & 1
            kinds, p = kinds[:todo], p[:j]
            taken = int(starts[j]) + end
        # numpy keeps the last high half drawn even once it is used
        half = int(S[taken - 1]) if taken else half
        return todo, used, end, half, kinds, (p >> 32).astype(np.intp)

    def moves(self, pk, draws):
        """The proposals as rows ``(x0, x1, x2, y0, y1, y2, tag)``, in step order.

        ``pk`` holds the proposals' classes.  A move is legal when the flat
        cells ``x`` agree, the cells ``y`` agree and differ from them, and no
        cell that would become an edge is forbidden: bit 0 of ``tag`` marks
        a forbidden cell among ``x``, bit 1 one among ``y``, and bit 2 a c6
        move.  A c4 move repeats its second cell of each kind.  A c6
        proposal whose row triple does not pair with its column triple
        through forbidden cells has no row.
        """
        items = np.zeros((len(pk), 7), np.intp)
        c4 = pk == 1
        d = draws[c4, :4]
        d[:, 1::2] += d[:, 1::2] >= d[:, ::2]  # the second of each pair skips the first
        items[c4, :6] = d @ self.c4_cells
        if not self.c6:
            return items
        x, y, z = _triples(draws[~c4, :3])
        vs = np.column_stack(_triples(draws[~c4, 3:]))
        px, py, pz = self.fu[x], self.fu[y], self.fu[z]
        # Distinct rows have distinct partners, so the triples pair when every
        # partner is a drawn column; a missing partner, -1, never is
        partners = np.column_stack((px, py, pz))
        paired = (partners[:, :, None] == vs[:, None, :]).any(axis=2).all(axis=1)
        # Hexagon x, pz, y, px, z, py: it alternates when the cells
        # (x,pz), (y,px), (z,py) agree and the other three hold the
        # opposite value.  Reordering x, y, z at most swaps the two
        # triples, so the drawn order serves as well as the sorted.
        m = self.m
        X, Y, Z = x * m, y * m, z * m
        items[~c4, :6] = np.column_stack((X + pz, Y + px, Z + py, Y + pz, Z + px, X + py))
        items[~c4, 6] = 4
        keep = c4.copy()
        keep[~c4] = paired
        items = items[keep]
        f = self.forbidden[items[:, :6]]
        items[:, 6] |= f[:, :3].any(axis=1) | f[:, 3:].any(axis=1) << 1
        return items


_ALTERNATING = np.array([0, 0, 0, 1, 1, 1], np.uint8)


def _play(M, flat, dec: _Decoder, kinds, draws, stats: ChainStats) -> None:
    """Decoded steps on the state bytes ``M``, in step order; counts into ``stats``.

    ``flat`` is a numpy view of the same bytes.  A proposal can move the
    state only if it is legal on the state as the block found it, or shares
    a cell with a proposal that can; every other one is illegal, so only
    these run the check and update in step order.
    """
    items = dec.moves(kinds[(kinds == 1) | (kinds == 2)], draws)
    cells = items[:, :6]
    v = flat[cells]
    live = ((v ^ v[:, :1]) == _ALTERNATING).all(axis=1) & ((items[:, 6] >> v[:, 0]) & 1 == 0)
    if live.any():
        near = np.zeros(len(flat), bool)
        while True:
            near[cells[live]] = True
            grown = near[cells].any(axis=1)
            if (grown == live).all():
                break
            live = grown
    c4 = c6 = 0
    for x0, x1, x2, y0, y1, y2, tag in items[live].tolist():
        a, b = M[x0], M[y0]
        if a == M[x1] == M[x2] != b == M[y1] == M[y2] and not (tag >> a) & 1:
            M[x0] = M[x1] = M[x2] = b
            M[y0] = M[y1] = M[y2] = a
            if tag & 4:
                c6 += 1
            else:
                c4 += 1
    held = int(np.count_nonzero(kinds == 0))
    stats.steps += len(kinds)
    stats.lazy += held
    stats.illegal += len(kinds) - held - c4 - c6
    stats.applied_c4 += c4
    stats.applied_c6 += c6


class _Session:
    """Kernel steps on ``r`` in place, in segments: the block core of :func:`sample`.

    It consumes exactly the documented stream of ``rng``, a
    ``numpy.random.Generator`` on ``PCG64``, so after any segments ``r``,
    ``stats`` and, once the session is closed, the generator's state are
    what as many calls of :func:`_step` leave, and the caller may read or
    copy ``r`` between segments.  A segment of at least ``_CROSSOVER``
    steps runs in block passes on raw words drawn from the bit generator
    ``bg``: ``words`` are those drawn and not used yet, ``used`` counts
    the others, and ``has`` and ``half`` mirror PCG64's one-half buffer,
    which ``integers(0, k)`` fills with the high half of a word and
    empties before it draws the next.  A shorter segment, or a step whose
    draws meet a Lemire rejection, rewinds ``bg`` past the used words,
    drops the others and runs through :func:`_loop` on numpy's own draws.
    The first block pass checks the kernel and builds the :class:`_Decoder`
    and a ``memoryview`` of the matrix, so a session that runs no block
    pass does nothing :func:`_loop` would not.  :meth:`close` rewinds the
    generator; call it once, in a ``finally``.
    """

    def __init__(self, r: BipartiteRealization, rng, lazy: bool, c6: bool, stats):
        self.r, self.rng, self.lazy, self.c6, self.stats = r, rng, lazy, c6, stats
        self.bg, self.dec, self.snap, self.words = rng.bit_generator, None, None, None

    def _open(self) -> None:
        if self.dec is None:
            _check_kernel(self.r, self.c6)
            self.dec = _Decoder(self.r, self.lazy, self.c6)
            self.flat = self.r.matrix.reshape(-1)
            self.M = memoryview(self.r.matrix).cast("B")
        self.snap = self.bg.state
        self.has, self.half = self.snap["has_uint32"], self.snap["uinteger"]
        self.words, self.used = np.empty(0, np.uint64), 0

    def _per_step(self, steps: int) -> None:
        """Rewinds the generator past the words used, then :func:`_loop`."""
        if self.snap is not None:
            bg = self.bg
            bg.state = self.snap
            bg.advance(self.used)
            state = bg.state
            state["has_uint32"], state["uinteger"] = self.has, self.half
            bg.state = state
            self.snap = self.words = None
        _loop(self.r, self.rng, steps, self.lazy, self.c6, self.stats)

    def run(self, steps: int) -> None:
        """The next ``steps`` kernel steps.

        Each block pass tops the unused raw words up to at most ``_BLOCK``,
        enough for the segment's remaining steps, and runs three stages.  A
        Python walk over the branch words classes every step and finds
        where its integer draws start, reading each step's advance from a
        byte table; one set of numpy Lemire steps turns the halves of the
        other words into every proposal's cells; and the legality check and
        update run on the matrix's own bytes, in step order, for the
        proposals that can move the state (see :func:`_play`).
        A pass ends at the segment's end, and the words it leaves unused
        start the next pass, in this segment or the next, so a step never
        spans two passes.  A step whose draws meet a Lemire rejection, with
        odds below ``k / 2**32`` per draw, ends the pass and runs alone
        through :func:`_loop`; the next pass draws fresh words.
        """
        # Several short gaps could share one decoded block as well, which
        # would speed up the benchmark's dir-small-emit (gaps of 10 steps).
        # That waits for the fix of ROADMAP item 1: the workload keeps every
        # emitted key until its run ends (perfbench/workloads.py,
        # DirSmallEmit.check), so its peak_rss_mb grows with the ops a run
        # completes: about 42.0 MiB plus 32 KiB per op (a fit over twenty
        # 20 s runs of 165-384 ops, 2-core x86-64), so a faster op reads as
        # growth against the metric's 5 % bound.
        if steps < _CROSSOVER:
            return self._per_step(steps)
        while steps:
            if self.snap is None:
                self._open()
            dec = self.dec
            want = min(steps * dec.most, _BLOCK)
            if len(self.words) < want:
                fresh = self.bg.random_raw(want - len(self.words))
                self.words = np.concatenate((self.words, fresh))
            todo = min(steps, len(self.words) // dec.most)
            done, used, self.has, self.half, kinds, draws = dec.decode(
                self.words, self.has, self.half, todo
            )
            self.words, self.used = self.words[used:], self.used + used
            _play(self.M, self.flat, dec, kinds, draws, self.stats)
            if done < todo:  # the next step meets a Lemire rejection
                self._per_step(1)
                done += 1
            steps -= done

    def close(self) -> None:
        try:
            self._per_step(0)  # the rewind alone
        finally:
            if self.dec is not None:
                self.M.release()


def _loop(r: BipartiteRealization, rng, steps: int, lazy: bool, c6: bool, stats) -> None:
    """The per-step reference for :class:`_Session`, for any generator.

    A step changes neither the shape of ``r`` nor its forbidden matching,
    so the kernel is checked, and the shape read, once before the first
    step; a segment of no steps checks nothing.
    """
    if not steps:
        return
    _check_kernel(r, c6)
    n, m, record = r.n, r.m, stats.record
    for _ in range(steps):
        _, out = _kernel_step(r, rng, lazy, True, c6, n, m)
        record(out)


@dataclass
class SampleResult:
    realizations: list = field(default_factory=list)
    stats: ChainStats = field(default_factory=ChainStats)


def default_burn_in(r: BipartiteRealization) -> int:
    return 10 * int(r.matrix.sum()) * max(r.n, r.m)


# The last start state built, keyed by its sequence and canonical forbidden
# matching; initial_state only ever copies it
_start = functools.lru_cache(maxsize=1)(construct_bipartite)


def initial_state(seq, forbidden=(), chain_kind: str = "bipartite"):
    """Deterministic starting realization for a sampling run.

    A directed bi-sequence runs on its bipartite representation, so its
    ``forbidden`` must be empty or exactly the diagonal.  The input and the
    kernel are checked on every call.  The realization itself is built once
    per sequence and forbidden matching, which also decide the kernel: the
    last one built stays in memory (``n * m`` bytes) until a call on
    another sequence replaces it, and each call gets a fresh copy of it, so
    K chains on one sequence pay for one construction.
    """
    return _start(*_kernel_form(seq, forbidden, chain_kind)).copy()


def sample(seq, forbidden=(), config: ChainConfig | None = None, rng=None) -> SampleResult:
    """Run one chain: burn in, then emit states separated by thinning steps.

    The first retained state is the one reached right after burn-in, so
    ``burn_in=0`` emits the deterministic initial realization first.  That
    realization comes from :func:`initial_state`, which checks the input
    and the kernel on every call but builds the start state once per
    sequence and forbidden matching.
    Identical configs produce bit-identical output.  ``rng`` is for a
    caller's own generator and overrides the one derived from
    ``config.seed``.  With a ``numpy.random.Generator`` on ``PCG64``, one
    :class:`_Session` runs the burn-in and every thinning gap, and the state
    is copied at each segment's end: segments of at least ``_CROSSOVER``
    steps run through the block core, shorter ones on the per-step loop.
    Any other generator runs one step at a time on the per-step loop.  Both
    consume the same stream and give the same states.
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
    core = _Session(r, rng, config.lazy, c6, stats) if block else None
    try:
        for steps in [burn] + [config.thinning] * (config.samples - 1):
            if core is None:
                _loop(r, rng, steps, config.lazy, c6, stats)
            else:
                core.run(steps)
            result.realizations.append(r.copy())
    finally:
        if core is not None:
            core.close()
    return result


def derive_chain_seeds(seed: int, count: int) -> list[int]:
    """Deterministic per-chain seeds for independent parallel chains.

    Chain ``i`` receives the 64-bit state generated by the ``i``-th child of
    ``numpy.random.SeedSequence(seed)``, so streams are independent and the
    derivation is part of the reproducibility contract.  ``seed`` and
    ``count`` take anything ``operator.index`` accepts and must be at least
    0; anything else is a ``ValueError``, for ``seed`` the one
    :class:`ChainConfig` raises.
    """
    seed = ChainConfig(seed=seed, samples=1).seed  # ChainConfig's checks and messages
    try:
        count = operator.index(count)
    except TypeError as exc:
        raise ValueError("count must be an integer") from exc
    if count < 0:
        raise ValueError("count must be >= 0")
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(child.generate_state(1, dtype=np.uint64)[0]) for child in children]
