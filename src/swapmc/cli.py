"""Command-line interface.

Subcommands: ``check`` (graphicality, degree bounds, mixing conditions),
``sample`` (run the swap chain), ``enumerate`` (exhaustive realization
listing), ``diagnose`` (exact kernel diagnostics and TV curve), and ``path``
(canonical path between two realization files with verification report).

Exit codes: 0 success, 1 infeasible input or failed verdict, 2 usage/parse
error, 3 exhaustive budget exceeded.  Failures print one machine-readable
``error: <category>: <detail>`` line on stderr.  Directed degree files are
auto-detected by their ``out:``/``in:`` headers and routed through the
bipartite representation internally; all output is translated back to arcs.
All randomness is seeded (``--seed`` is mandatory for ``sample``) and every
run with identical inputs and flags is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .chain import ChainConfig, derive_chain_seeds, sample
from .conditions import (
    bipartite_spread_condition,
    directed_spread_condition,
    erdos_renyi_window,
    greenhill_sfragara_directed,
)
from .degrees import (
    DirectedDegreeBiSequence,
    bounds_of,
    is_bipartite_graphic,
    is_directed_graphic,
)
from .errors import (
    BudgetExceededError,
    FormatError,
    InfeasibleSequenceError,
    RepairError,
)
from .io import _text_lines, load_realization, load_sequence, realization_to_json
from .oracle import (
    POSITION_BUDGET,
    STATE_BUDGET,
    _components,
    enumerate_realizations,
    exact_transition_matrix,
    tv_from_kernel,
)
from .paths import build_canonical_path, verify_bad_positions, verify_repairs
from .realization import (
    DirectedRealization,
    _restricted_form,
    from_bipartite_representation,
    to_bipartite_representation,
)

__all__ = ["main"]


def _err(category: str, detail) -> None:
    print(f"error: {category}: {detail}", file=sys.stderr)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    seq = load_sequence(args.seqfile)
    directed = isinstance(seq, DirectedDegreeBiSequence)
    print(f"kind: {'directed' if directed else 'bipartite'}")
    print(f"n: {seq.n}")
    if directed:
        graphic = is_directed_graphic(seq)
    else:
        print(f"m: {seq.m}")
        graphic = is_bipartite_graphic(seq)
    print(f"graphic: {'yes' if graphic else 'no'}")
    if not graphic:
        _err("infeasible", "sequence admits no simple realization")
        return 1
    b = bounds_of(seq)
    print(f"bounds: c1={b.c1} c2={b.c2} d1={b.d1} d2={b.d2} n={b.n} m={b.m}")
    rep = directed_spread_condition(b) if directed else bipartite_spread_condition(b)
    if rep.applicable:
        branch = f"candidate{rep.active_branch + 1}"
        print(
            f"spread-condition: verdict={rep.verdict} lhs={rep.lhs} rhs={rep.rhs} "
            f"candidates={rep.rhs_candidates[0]},{rep.rhs_candidates[1]} active={branch}"
        )
    else:
        print(f"spread-condition: verdict=not-applicable ({rep.reason})")
    if directed:
        gs = greenhill_sfragara_directed(seq)
        verdict = gs.verdict.replace(" ", "-")
        print(f"greenhill-sfragara: verdict={verdict} 16*d_max^2={gs.lhs} m={gs.rhs}")
        p = seq.arc_count / (seq.n * (seq.n - 1)) if seq.n > 1 else 0.0
    else:
        p = seq.edge_count / (seq.n * seq.m)
    if not 0.0 < p < 1.0:
        print(f"er-window: skipped (empirical edge density p={_fmt(p)})")
    elif min(b.n, b.m) < 2:
        print("er-window: skipped (a class has fewer than two vertices)")
    else:
        er = erdos_renyi_window(
            "directed" if directed else "bipartite", seq.n, p, m=None if directed else seq.m
        )
        wtxt = " ".join(
            f"window{k + 1}=[{_fmt(lo)},{_fmt(hi)}]:{'inside' if ok else 'outside'}"
            for k, ((lo, hi), ok) in enumerate(zip(er.windows, er.inside))
        )
        print(f"er-window: p={_fmt(p)} {wtxt} verdict={er.verdict}")
    if rep.applicable and not rep.holds:
        _err("verdict", "degree-spread condition fails")
        return 1
    return 0


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def _emit_sample(real, fmt: str, chain_idx: int, k: int, directed: bool) -> str:
    if directed:
        real = from_bipartite_representation(real)
    if fmt == "json":
        doc = realization_to_json(real)
        doc["chain"] = chain_idx
        doc["sample"] = k
        return json.dumps(doc, sort_keys=True)
    return "\n".join([f"# chain {chain_idx} sample {k}", *_text_lines(real, fmt)])


def cmd_sample(args) -> int:
    seq = load_sequence(args.seqfile)
    directed = isinstance(seq, DirectedDegreeBiSequence)
    kind = "directed" if directed else "bipartite"
    try:
        if args.chains < 1:
            raise ValueError("chains must be >= 1")
        seeds = [args.seed] if args.chains == 1 else derive_chain_seeds(args.seed, args.chains)
        configs = [
            ChainConfig(
                seed=s,
                samples=args.count,
                burn_in=args.burn_in,
                thinning=args.thin,
                chain_kind=kind,
                lazy=not args.no_lazy,
            )
            for s in seeds
        ]
    except ValueError as exc:
        _err("config", exc)
        return 2
    summaries = []
    for chain_idx, cfg in enumerate(configs, start=1):
        result = sample(seq, (), cfg)
        for k, state in enumerate(result.realizations, start=1):
            print(_emit_sample(state, args.format, chain_idx, k, directed))
        summaries.append({"chain": chain_idx, **result.stats.as_dict()})
        del result, state  # drop this chain's samples before the next chain runs
    for summary in summaries:
        print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def cmd_enumerate(args) -> int:
    seq = load_sequence(args.seqfile)
    directed = isinstance(seq, DirectedDegreeBiSequence)
    bip, forbidden = _restricted_form(seq)
    reals = enumerate_realizations(bip, forbidden, position_budget=args.budget)
    print(f"realizations: {len(reals)}")
    sep = "->" if directed else ":"  # arc i->j is edge (i, j) of the representation
    for r in reals:
        print(" ".join(f"{u + 1}{sep}{v + 1}" for u, v in r.edges()) or "(empty)")
    return 0


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def cmd_diagnose(args) -> int:
    if args.horizon < 0:
        raise ValueError("horizon must be >= 0")
    seq = load_sequence(args.seqfile)
    directed = isinstance(seq, DirectedDegreeBiSequence)
    bip, forbidden = _restricted_form(seq)
    kind = "directed" if directed else "bipartite"
    kernel = exact_transition_matrix(bip, forbidden, kind, state_budget=args.budget)
    N = kernel.size
    print(f"states: {N}")
    if not N:
        _err("infeasible", "sequence admits no simple realization")
        return 1
    ok4, comp4 = _components(N, kernel.c4_pairs)
    print(f"connected-c4: {'yes' if ok4 else 'no'} components={comp4}")
    if directed:
        ok6, comp6 = _components(N, kernel.c4_pairs, kernel.c6_pairs)
        print(f"connected-f-swaps: {'yes' if ok6 else 'no'} components={comp6}")
    P = kernel.matrix
    sym = float(np.abs(P - P.T).max())
    rows = float(np.abs(P.sum(axis=1) - 1.0).max())
    uni = float(np.abs(np.full(N, 1.0 / N) @ P - 1.0 / N).max())
    print(f"symmetry-residual: {_fmt(sym)}")
    print(f"row-sum-residual: {_fmt(rows)}")
    print(f"uniform-residual: {_fmt(uni)}")
    print("step,tv")
    for t, tv in enumerate(tv_from_kernel(kernel, args.horizon)):
        print(f"{t},{_fmt(tv)}")
    connected = ok6 if directed else ok4
    return 0 if connected else 1


# ---------------------------------------------------------------------------
# path
# ---------------------------------------------------------------------------


def _move_line(i: int, mv) -> str:
    return f"move {i}: {mv.kind.upper()} " + " ".join(str(x + 1) for x in mv.us + mv.vs)


def cmd_path(args) -> int:
    a = load_realization(args.real_a)
    b = load_realization(args.real_b)
    directed = isinstance(a, DirectedRealization)
    if directed != isinstance(b, DirectedRealization):
        _err("parse", "cannot mix directed and bipartite realization files")
        return 2
    if directed:
        a = to_bipartite_representation(a)
        b = to_bipartite_representation(b)
    try:
        path = build_canonical_path(a, b)
    except ValueError as exc:
        _err("parse", exc)
        return 2
    for i, mv in enumerate(path.moves, start=1):
        print(_move_line(i, mv))
    print("milestones: " + " ".join(str(i) for i in path.milestone_indices))
    for k, seg in enumerate(path.segments, start=1):
        print(f"cycle {k}: ell={seg.ell} moves={seg.move_count}")
    bad = verify_bad_positions(path, a, b)
    print(f"max-two-count: {bad.max_twos_direct}")
    print(f"max-minus-one-count: {bad.max_minus_ones_direct}")
    rep = verify_repairs(path, a, b)
    print(f"max-repair-switches: {rep.max_switches}")
    print(
        "max-repair-distance: "
        f"{max(rep.max_distance_direct, rep.max_distance_intermediate)}"
    )
    if not bad.ok or not rep.ok:
        _err(
            "verdict",
            f"verification failed (bad-entry violations={bad.violations}, "
            f"repair failures={rep.failures})",
        )
        print("verdict: failed")
        return 1
    print("verdict: ok")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapmc",
        description="Swap-chain sampling and diagnostics for degree-constrained graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="graphicality, degree bounds, mixing conditions")
    p.add_argument("seqfile")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sample", help="sample realizations with the swap chain")
    p.add_argument("seqfile")
    p.add_argument("--seed", type=int, required=True, help="RNG seed (mandatory)")
    p.add_argument("--burn-in", type=int, default=None, dest="burn_in")
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--format", choices=("edges", "matrix", "json"), default="edges")
    p.add_argument(
        "--no-lazy",
        action="store_true",
        help="drop the holding probability (waives the aperiodicity guarantee)",
    )
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("enumerate", help="list all realizations exhaustively")
    p.add_argument("seqfile")
    p.add_argument(
        "--budget", type=int, default=POSITION_BUDGET, help="most grid positions n*m (default 36)"
    )
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("diagnose", help="exact kernel diagnostics and TV curve")
    p.add_argument("seqfile")
    p.add_argument("--horizon", type=int, default=50)
    p.add_argument(
        "--budget", type=int, default=STATE_BUDGET, help="most realizations (default 5000)"
    )
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("path", help="canonical path between two realizations")
    p.add_argument("real_a")
    p.add_argument("real_b")
    p.set_defaults(func=cmd_path)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        _err("parse", exc)
        return 2
    except InfeasibleSequenceError as exc:
        _err("infeasible", exc)
        return 1
    except BudgetExceededError as exc:
        _err("budget", exc)
        return 3
    except RepairError as exc:
        _err("repair", exc)
        return 1
    except OSError as exc:
        _err("io", exc)
        return 2
    except ValueError as exc:
        _err("invalid", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
