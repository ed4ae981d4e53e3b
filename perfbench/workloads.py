"""The four swapmc benchmark workloads.

A workload builds all of its inputs from the workload seed (``generate``),
runs one op at a time through the public ``swapmc`` API or
``swapmc.cli.main`` (``run``), and checks every output (``check``), which
also returns the op's digest and the work it did.  ``run_traced`` is the
same op with spans around the calls into each module; ``instrument`` puts
the recording wrappers in place for a traced phase.  README.md next to this
file says why each workload exists and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from collections import Counter

import numpy as np

import swapmc
import swapmc.chain
import swapmc.cli
import swapmc.oracle
from swapmc import (
    BipartiteDegreeSequence,
    BipartiteRealization,
    ChainConfig,
    ChainStats,
    DirectedDegreeBiSequence,
    DirectedRealization,
    SampleResult,
    bounds_of,
    build_canonical_path,
    construct_bipartite,
    construct_directed,
    count_realizations,
    derive_chain_seeds,
    enumerate_realizations,
    exact_transition_matrix,
    format_sequence,
    is_bipartite_graphic,
    is_directed_graphic,
    sample,
    step_bipartite,
    step_directed,
    swap_graph_connected,
    to_bipartite_representation,
    try_c4_swap,
    try_c6_swap,
    tv_from_kernel,
    verify_bad_positions,
    verify_repairs,
)

# Calls timed in one block for realization.try_c4_us / try_c6_us / copy_us.
BLOCK = 20_000


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def sub_seed(seed: int, *path: int) -> int:
    """A 32-bit seed derived from the workload seed and an index path."""
    return int(np.random.SeedSequence((seed, *path)).generate_state(1)[0])


def matrix_problems(M, rows, cols, forbidden=()) -> list[str]:
    """Margins, 0/1 entries and empty forbidden cells, checked independently
    of the package's own validation."""
    M = np.asarray(M)
    if M.shape != (len(rows), len(cols)):
        return [f"matrix shape {M.shape} != {(len(rows), len(cols))}"]
    problems = []
    if not np.isin(M, (0, 1)).all():
        problems.append("entries outside {0, 1}")
    if tuple(M.sum(axis=1).tolist()) != tuple(rows):
        problems.append("row sums differ from the prescribed degrees")
    if tuple(M.sum(axis=0).tolist()) != tuple(cols):
        problems.append("column sums differ from the prescribed degrees")
    if any(M[u, v] for u, v in forbidden):
        problems.append("edge on a forbidden cell")
    return problems


def graphic(tracer, seq) -> None:
    with tracer.span("degrees.graphic"):
        ok = (
            is_directed_graphic(seq)
            if isinstance(seq, DirectedDegreeBiSequence)
            else is_bipartite_graphic(seq)
        )
    if not ok:
        raise ValueError(f"generated sequence is not graphic: {seq}")


def constructed(tracer, seq, forbidden=()) -> BipartiteRealization:
    """The package's deterministic starting realization (bipartite form)."""
    with tracer.span("realization.construct"):
        if isinstance(seq, DirectedDegreeBiSequence):
            return to_bipartite_representation(construct_directed(seq))
        return construct_bipartite(seq, forbidden)


def traced_sample(tracer, seq, forbidden, config: ChainConfig) -> SampleResult:
    """``swapmc.sample`` rebuilt from public calls, with a span per phase.

    It makes the same calls in the same order on the same RNG stream as
    ``sample``; the runner compares the digests of the traced and untraced
    runs of every op, so a divergence counts as a failed op.  Spans cover
    blocks of steps (a whole burn-in, one thinning gap), never one step.
    """
    r = constructed(tracer, seq, forbidden)
    step = step_directed if config.chain_kind == "directed" else step_bipartite
    rng = np.random.default_rng(config.seed)
    stats = ChainStats()
    burn = config.burn_in
    if burn is None:
        burn = swapmc.chain.default_burn_in(r)
    with tracer.span("chain.burn_in"):
        for _ in range(burn):
            r, out = step(r, rng, lazy=config.lazy, inplace=True)
            stats.record(out)
    result = SampleResult(stats=stats)
    for k in range(config.samples):
        if k:
            with tracer.span("chain.thin"):
                for _ in range(config.thinning):
                    r, out = step(r, rng, lazy=config.lazy, inplace=True)
                    stats.record(out)
        with tracer.span("realization.copy"):
            result.realizations.append(r.copy())
    tracer.count("chain.steps", stats.steps)
    tracer.count("chain.lazy", stats.lazy)
    tracer.count("chain.applied_c4", stats.applied_c4)
    tracer.count("chain.applied_c6", stats.applied_c6)
    return result


def count_proposals(tracer) -> None:
    """Count the chain kernels' calls into the proposal checks."""
    tracer.wrap(swapmc.chain, "try_c4_swap", count="chain.proposals_c4")
    tracer.wrap(swapmc.chain, "try_c6_swap", count="chain.proposals_c6")


def _pairs(rng, n: int, size: int):
    """Uniform unordered pairs of distinct indices, as the kernels draw them."""
    i = rng.integers(0, n, size)
    j = rng.integers(0, n - 1, size)
    j += j >= i
    return i, j


def _triples(rng, n: int, size: int):
    i, j = _pairs(rng, n, size)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    k = rng.integers(0, n - 2, size)
    k += k >= lo
    k += k >= hi
    return i, j, k


def realization_blocks(tracer, r: BipartiteRealization, seed: int, c6: bool) -> None:
    """Time blocks of state copies and of proposal checks on a state the
    workload's chain reached, with proposals drawn from the kernel's own
    proposal distribution.  Blocks run in one thread, outside any op, so
    no other chain competes for the interpreter lock."""
    with tracer.span("realization.copy_block"):
        for _ in range(BLOCK):
            r.copy()
    tracer.count("realization.copy_calls", BLOCK)
    rng = np.random.default_rng(seed)
    us = _pairs(rng, r.n, BLOCK)
    vs = _pairs(rng, r.m, BLOCK)
    props = list(zip(*(a.tolist() for a in (*us, *vs))))
    with tracer.span("realization.try_c4"):
        for a, b, c, d in props:
            try_c4_swap(r, a, b, c, d)
    tracer.count("realization.try_c4_calls", len(props))
    if not c6:
        return
    us = list(zip(*(a.tolist() for a in _triples(rng, r.n, BLOCK))))
    vs = list(zip(*(a.tolist() for a in _triples(rng, r.m, BLOCK))))
    with tracer.span("realization.try_c6"):
        for a, b in zip(us, vs):
            try_c6_swap(r, a, b)
    tracer.count("realization.try_c6_calls", len(us))


class Workload:
    name = ""
    round_size = 1  # ops in one round; a run times whole rounds only

    def generate(self, seed: int, tracer, workdir: str) -> dict:
        raise NotImplementedError

    def key(self, inputs: dict, i: int):
        """Identity of op ``i``'s input; equal keys must give equal digests."""
        return i % self.round_size

    def warmup(self, inputs: dict) -> None:
        """One untimed round, so that first-call costs stay out of the timing."""
        for i in range(self.round_size):
            self.run(inputs, i)

    def run(self, inputs: dict, i: int):
        raise NotImplementedError

    def instrument(self, tracer) -> None:
        """Install the recording wrappers used by ``run_traced``."""

    def run_traced(self, inputs: dict, i: int, tracer):
        raise NotImplementedError

    def check(self, inputs: dict, i: int, out) -> dict:
        """``problems`` (empty when correct), ``digest``, ``items`` and the
        workload's own counts for op ``i``."""
        raise NotImplementedError

    def finish(self, inputs: dict, records: list[dict]) -> list[str]:
        """Checks over the whole run; problems fail every op of the run."""
        return []

    def layer_block(self, inputs: dict, tracer) -> None:
        """Per-layer timing blocks that need no op (traced runs only)."""


# ---------------------------------------------------------------------------
# bip-sparse-burnin
# ---------------------------------------------------------------------------


class BipSparseBurnin(Workload):
    name = "bip-sparse-burnin"
    SIDE, DEGREE = 200, 10
    BURN_IN, SAMPLES, THINNING = 10_000, 3, 500
    round_size = 8  # chains, each an op with its own derived seed

    def generate(self, seed, tracer, workdir):
        seq = BipartiteDegreeSequence((self.DEGREE,) * self.SIDE, (self.DEGREE,) * self.SIDE)
        graphic(tracer, seq)
        constructed(tracer, seq)  # the start state sample() builds, timed for set-up
        configs = [
            ChainConfig(
                seed=s,
                samples=self.SAMPLES,
                burn_in=self.BURN_IN,
                thinning=self.THINNING,
            )
            for s in derive_chain_seeds(seed, self.round_size)
        ]
        return {"seed": seed, "seq": seq, "configs": configs}

    def run(self, inputs, i):
        return sample(inputs["seq"], (), inputs["configs"][i % self.round_size])

    def instrument(self, tracer):
        count_proposals(tracer)

    def run_traced(self, inputs, i, tracer):
        with tracer.op(i, "op"), tracer.span("chain.sample"):
            return traced_sample(
                tracer, inputs["seq"], (), inputs["configs"][i % self.round_size]
            )

    def check(self, inputs, i, out):
        seq = inputs["seq"]
        problems = []
        if len(out.realizations) != self.SAMPLES:
            problems.append(f"{len(out.realizations)} samples, expected {self.SAMPLES}")
        for r in out.realizations:
            problems += matrix_problems(r.matrix, seq.u_degrees, seq.v_degrees)
        st = out.stats
        expected = self.BURN_IN + (self.SAMPLES - 1) * self.THINNING
        if st.steps != expected or st.lazy + st.illegal + st.applied_c4 != st.steps:
            problems.append(f"inconsistent chain statistics {st.as_dict()}")
        if st.applied_c6:
            problems.append("c6 move in the bipartite kernel")
        return {
            "problems": problems,
            "digest": digest(*(r.key() for r in out.realizations), st.as_dict()),
            "items": st.steps,
            "steps": st.steps,
        }

    def layer_block(self, inputs, tracer):
        reached = sample(inputs["seq"], (), inputs["configs"][0]).realizations[-1]
        realization_blocks(tracer, reached, sub_seed(inputs["seed"], 1), c6=False)


# ---------------------------------------------------------------------------
# dir-small-emit
# ---------------------------------------------------------------------------


class DirSmallEmit(Workload):
    name = "dir-small-emit"
    OUT = (2, 2, 2, 2, 1, 1)
    IN = (2, 2, 1, 2, 2, 1)
    REALIZATIONS = 1519
    CHAINS, THINNING, COUNT = 2, 10, 200
    # Worst-case TV to uniform after the default burn-in of 600 steps, over
    # every start state, from the exact kernel of this instance (0.04465);
    # a vertex relabelling is an isomorphism, so it holds for every seed.
    BURN_IN_TV = 0.045
    # The pooled TV may exceed the burn-in bias by this many noise levels.
    NOISE_LEVELS = 2.0
    round_size = 1

    @classmethod
    def sequence(cls, seed: int) -> DirectedDegreeBiSequence:
        """The bi-sequence with its vertices relabelled by the seed."""
        perm = np.random.default_rng(sub_seed(seed, 0)).permutation(len(cls.OUT))
        return DirectedDegreeBiSequence(
            tuple(cls.OUT[p] for p in perm), tuple(cls.IN[p] for p in perm)
        )

    def generate(self, seed, tracer, workdir):
        seq = self.sequence(seed)
        graphic(tracer, seq)
        constructed(tracer, seq)
        path = os.path.join(workdir, f"{self.name}-{seed}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_sequence(seq))
        return {"seed": seed, "seq": seq, "path": path}

    def key(self, inputs, i):
        return i

    def argv(self, inputs, i):
        return [
            "sample",
            inputs["path"],
            "--seed",
            str(sub_seed(inputs["seed"], 1, i)),
            "--chains",
            str(self.CHAINS),
            "--thin",
            str(self.THINNING),
            "--count",
            str(self.COUNT),
            "--format",
            "json",
        ]

    def run(self, inputs, i):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = swapmc.cli.main(self.argv(inputs, i))
        return code, out.getvalue(), err.getvalue()

    def instrument(self, tracer):
        count_proposals(tracer)
        tracer.wrap(swapmc.cli, "load_sequence", span="io.load")
        tracer.wrap(swapmc.cli, "from_bipartite_representation", span="realization.from_rep")
        tracer.wrap(swapmc.cli, "realization_to_json", span="io.format")

        def chain_sample(seq, forbidden, config):
            with tracer.span("chain.sample"):
                return traced_sample(tracer, seq, forbidden, config)

        tracer.replace(swapmc.cli, "sample", chain_sample)

    def run_traced(self, inputs, i, tracer):
        with tracer.op(i, "cli.main"):
            return self.run(inputs, i)

    def check(self, inputs, i, out):
        code, stdout, stderr = out
        seq = inputs["seq"]
        problems = [] if code == 0 else [f"exit code {code}"]
        lines = stdout.splitlines()
        expected = [(c, k) for c in range(1, self.CHAINS + 1) for k in range(1, self.COUNT + 1)]
        if len(lines) != len(expected):
            problems.append(f"{len(lines)} samples, expected {len(expected)}")
        keys = []
        for line, (c, k) in zip(lines, expected):
            try:
                doc = json.loads(line)
                M = np.zeros((seq.n, seq.n), dtype=np.uint8)
                arcs = [(a - 1, b - 1) for a, b in doc["arcs"]]
                for a, b in arcs:
                    M[a, b] = 1
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"unparsable sample line: {exc}")
                continue
            if (doc.get("chain"), doc.get("sample")) != (c, k):
                problems.append("samples out of order")
            if (tuple(doc["out_degrees"]), tuple(doc["in_degrees"])) != (
                seq.out_degrees,
                seq.in_degrees,
            ):
                problems.append("sample carries other degrees than the input")
            if len(set(arcs)) != len(arcs):
                problems.append("repeated arc")
            diagonal = [(v, v) for v in range(seq.n)]
            problems += matrix_problems(M, seq.out_degrees, seq.in_degrees, diagonal)
            keys.append(M.tobytes())
        steps = 0
        burn = 10 * sum(seq.out_degrees) * seq.n
        for line in stderr.splitlines():
            try:
                st = json.loads(line)
            except ValueError:
                problems.append(f"unexpected stderr line {line!r}")
                continue
            parts = st["lazy"] + st["proposal_illegal"] + st["applied_c4"] + st["applied_c6"]
            if st["steps"] != burn + (self.COUNT - 1) * self.THINNING or parts != st["steps"]:
                problems.append(f"inconsistent chain statistics {st}")
            steps += st["steps"]
        return {
            "problems": problems,
            "digest": digest(stdout, stderr),
            "items": len(lines),
            "samples": len(lines),
            "steps": steps,
            "keys": keys,
        }

    def finish(self, inputs, records):
        """Pooled empirical TV to uniform over the enumerated realizations.

        Samples of one chain are correlated, so the noise level is measured
        rather than assumed: the ops are independent chains, and the TV
        between the pools of even and of odd ops is about twice the noise in
        the TV of the whole pool.  A sampler whose output is not uniform
        exceeds the burn-in bias plus a few such noise levels.
        """
        seq = inputs["seq"]
        bip = BipartiteDegreeSequence(seq.out_degrees, seq.in_degrees)
        states = [r.key() for r in enumerate_realizations(bip, [(v, v) for v in range(seq.n)])]
        if len(states) != self.REALIZATIONS:
            return [f"{len(states)} realizations enumerated, expected {self.REALIZATIONS}"]
        halves = (Counter(), Counter())
        for rec in records:
            halves[rec["index"] % 2].update(rec.get("keys", ()))
        pooled = halves[0] + halves[1]
        if set(pooled) - set(states):
            return ["sample outside the realization set"]
        if not halves[0] or not halves[1]:
            return ["too few ops for the pooled TV check"]
        tv = tv_distance(pooled, {s: 1 for s in states})
        noise = tv_distance(halves[0], halves[1]) / 2
        threshold = self.BURN_IN_TV + self.NOISE_LEVELS * noise
        inputs["tv"] = (tv, threshold, sum(pooled.values()))
        if tv > threshold:
            return [f"pooled TV {tv:.4f} exceeds {threshold:.4f}"]
        return []

    def layer_block(self, inputs, tracer):
        config = ChainConfig(seed=sub_seed(inputs["seed"], 2), samples=1, chain_kind="directed")
        reached = sample(inputs["seq"], (), config).realizations[-1]
        realization_blocks(tracer, reached, sub_seed(inputs["seed"], 3), c6=True)


def tv_distance(p: Counter, q: Counter) -> float:
    """Total-variation distance between two count vectors, normalised."""
    sp, sq = sum(p.values()), sum(q.values())
    return 0.5 * sum(abs(p[k] / sp - q[k] / sq) for k in set(p) | set(q))


# ---------------------------------------------------------------------------
# oracle-exact
# ---------------------------------------------------------------------------


class OracleExact(Workload):
    name = "oracle-exact"
    HORIZON = 2
    round_size = 2

    def generate(self, seed, tracer, workdir):
        bip = BipartiteDegreeSequence((2,) * 5, (2,) * 5)
        dseq = DirSmallEmit.sequence(seed)
        for seq in (bip, dseq):
            graphic(tracer, seq)
            constructed(tracer, seq)
        diagonal = tuple((v, v) for v in range(dseq.n))
        instances = [
            (bip, (), "bipartite", "c4"),
            (BipartiteDegreeSequence(dseq.out_degrees, dseq.in_degrees), diagonal, "directed", "c4+c6"),
        ]
        return {"seed": seed, "instances": instances, "counts": {}}

    def run(self, inputs, i):
        seq, forbidden, kind, moves = inputs["instances"][i % self.round_size]
        kernel = exact_transition_matrix(seq, forbidden, kind)
        connected = swap_graph_connected(seq, forbidden, moves)
        return kernel, connected, tv_from_kernel(kernel, self.HORIZON)

    def instrument(self, tracer):
        tracer.wrap(swapmc.oracle, "enumerate_realizations", span="oracle.enumerate")

    def run_traced(self, inputs, i, tracer):
        seq, forbidden, kind, moves = inputs["instances"][i % self.round_size]
        with tracer.op(i, "op"):
            with tracer.span("oracle.kernel"):
                kernel = exact_transition_matrix(seq, forbidden, kind)
            with tracer.span("oracle.connected"):
                connected = swap_graph_connected(seq, forbidden, moves)
            with tracer.span("oracle.tv"):
                tv = tv_from_kernel(kernel, self.HORIZON)
        return kernel, connected, tv

    def check(self, inputs, i, out):
        kernel, connected, tv = out
        seq, forbidden, _, _ = inputs["instances"][i % self.round_size]
        slot = i % self.round_size
        if slot not in inputs["counts"]:
            inputs["counts"][slot] = count_realizations(seq, forbidden)
        P, N = kernel.matrix, kernel.size
        problems = []
        if N != inputs["counts"][slot]:
            problems.append(f"{N} states, count_realizations gives {inputs['counts'][slot]}")
        if N and float(np.abs(P.sum(axis=1) - 1.0).max()) > 1e-12:
            problems.append("row sums differ from 1")
        if N and float(np.abs(P - P.T).max()) > 1e-12:
            problems.append("kernel is not symmetric")
        if len(tv) != self.HORIZON + 1 or abs(tv[0] - (1 - 1 / N)) > 1e-12:
            problems.append("TV[0] differs from 1 - 1/N")
        if any(b > a + 1e-12 for a, b in zip(tv, tv[1:])):
            problems.append("TV curve increases")
        if tuple(connected) != (True, 1):
            problems.append(f"move graph not connected: {connected}")
        return {
            "problems": problems,
            "digest": digest(P.tobytes(), tv, tuple(connected)),
            "items": N,
            "states": N,
            "nnz_ratio": float(np.count_nonzero(P)) / (N * N) if N else 0.0,
        }


# ---------------------------------------------------------------------------
# path-audit
# ---------------------------------------------------------------------------


def _unpermute(M, rows, cols):
    out = np.empty_like(M)
    out[np.ix_(rows, cols)] = M
    return out


def scrambled(tracer, seq, rng) -> BipartiteRealization:
    """The package's construction on randomly relabelled vertices, mapped
    back: a cheap seeded realization other than the canonical one.  A
    digraph is relabelled by one vertex permutation, so it stays loop-free."""
    if isinstance(seq, DirectedDegreeBiSequence):
        perm = rng.permutation(seq.n)
        relabelled = DirectedDegreeBiSequence(
            tuple(seq.out_degrees[p] for p in perm), tuple(seq.in_degrees[p] for p in perm)
        )
        M = _unpermute(constructed(tracer, relabelled).matrix, perm, perm)
        return to_bipartite_representation(DirectedRealization(seq, M))
    rows, cols = rng.permutation(seq.n), rng.permutation(seq.m)
    relabelled = BipartiteDegreeSequence(
        tuple(seq.u_degrees[p] for p in rows), tuple(seq.v_degrees[p] for p in cols)
    )
    return BipartiteRealization(seq, _unpermute(constructed(tracer, relabelled).matrix, rows, cols))


class PathAudit(Workload):
    name = "path-audit"
    # One round: a 60x60 10-regular pair, a 30-vertex 5-regular digraph pair
    # (bipartite representation) and a pair of a non-regular 30x30 sequence
    # that meets the spread condition and needs two-switch repairs.
    SEQUENCES = (
        BipartiteDegreeSequence((10,) * 60, (10,) * 60),
        DirectedDegreeBiSequence((5,) * 30, (5,) * 30),
        BipartiteDegreeSequence((6,) * 10 + (4,) * 10 + (2,) * 10, (6,) * 10 + (4,) * 10 + (2,) * 10),
    )
    POOL_ROUNDS = 32
    round_size = 3

    def generate(self, seed, tracer, workdir):
        for seq in self.SEQUENCES:
            graphic(tracer, seq)
        pairs = []
        for r in range(self.POOL_ROUNDS):
            for k, seq in enumerate(self.SEQUENCES):
                rng = np.random.default_rng(sub_seed(seed, r, k))
                pairs.append((scrambled(tracer, seq, rng), scrambled(tracer, seq, rng)))
        return {"seed": seed, "pairs": pairs}

    def key(self, inputs, i):
        return i % len(inputs["pairs"])

    def run(self, inputs, i):
        x, y = inputs["pairs"][self.key(inputs, i)]
        path = build_canonical_path(x, y)
        return path, verify_bad_positions(path, x, y), verify_repairs(path, x, y, bounds_of(x.seq))

    def run_traced(self, inputs, i, tracer):
        x, y = inputs["pairs"][self.key(inputs, i)]
        with tracer.op(i, "op"):
            with tracer.span("paths.build"):
                path = build_canonical_path(x, y)
            with tracer.span("paths.bad_audit"):
                bad = verify_bad_positions(path, x, y)
            with tracer.span("paths.repair_audit"):
                rep = verify_repairs(path, x, y, bounds_of(x.seq))
        return path, bad, rep

    def check(self, inputs, i, out):
        path, bad, rep = out
        x, y = inputs["pairs"][self.key(inputs, i)]
        problems = []
        if not (bad.ok and rep.ok):
            problems.append(f"audit failed: bad={bad.violations} repair={rep.failures}")
        if bad.max_twos_direct > 2 or bad.max_minus_ones_direct > 1:
            problems.append("bad-entry bound exceeded")
        if rep.max_switches > 4:
            problems.append(f"{rep.max_switches} repair switches")
        if rep.max_distance_direct > 16 or rep.max_distance_intermediate > 20:
            problems.append("repair distance bound exceeded")
        if path.states[0] != x or path.states[-1] != y:
            problems.append("path does not join the pair")
        if len(path.states) != len(path.moves) + 1:
            problems.append("path states and moves disagree")
        moves = [(m.kind, m.us, m.vs, m.sign) for m in path.moves]
        return {
            "problems": problems,
            "digest": digest(moves),
            "items": len(path.states),
            "path_states": len(path.states),
            "segments": len(path.segments),
            "repair_switches": rep.max_switches,
        }


WORKLOADS = {
    wl.name: wl
    for wl in (BipSparseBurnin, DirSmallEmit, OracleExact, PathAudit)
}
