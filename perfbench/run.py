"""swapmc benchmark: one workload per process, closed loop, checked outputs.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/``.  One
caller issues ops serially (a closed loop) in whole rounds until ``--seconds``
have passed, checks every output, and prints a readable report followed by
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones, taken from spans recorded around the calls
into each module and written to ``perfbench-out/``.  ``--workload all`` runs
every workload, each in a fresh process.  README.md next to this file
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench-out"
SETUP_REPEATS = 7  # fresh interpreters per run; setup_s is their median
REF_S = 0.015  # nominal duration of the speed reference; see SpeedReference
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> int:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    cap = nproc()
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        cap = min(cap, int(current)) if current.isdigit() and int(current) > 0 else cap
    for var in BLAS_VARS:
        os.environ[var] = str(cap)
    return cap


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ``beyond`` ops above it.

    With n ops that is the (beyond+1)-th largest value, the nearest-rank
    percentile 100*(n-beyond)/n.  Below 2*beyond+1 ops that percentile would
    not lie above the median; the upper quartile (n//4 ops beyond) stands in,
    since a maximum of a few long ops follows single outliers.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = beyond if n > 2 * beyond else n // 4
    return ordered[n - k - 1], 100.0 * (n - k) / n


def failed_count(records) -> int:
    return sum(1 for rec in records if rec["problems"])


def round_times(times, size: int) -> list[float]:
    return [sum(times[k : k + size]) for k in range(0, len(times) - size + 1, size)]


# ---------------------------------------------------------------------------
# host speed reference
# ---------------------------------------------------------------------------


class SpeedReference:
    """A fixed piece of work, independent of swapmc, timed next to every op.

    The CPU speed of a shared host drifts by tens of percent over tens of
    seconds, and it moves every op in a run together.  The reference mixes
    what the ops spend their time on (interpreted integer arithmetic, numpy
    scalar draws and element reads, dict updates), so the host's speed moves
    it in step with them.  It calls no BLAS: a threaded product leaves its
    worker spinning on the other core and slows whatever runs next, the op
    included.  Op timings are scaled by ``REF_S / reference time``: seconds
    on a host where the reference takes ``REF_S``.  A change to swapmc moves
    the op and not the reference.
    """

    def __init__(self):
        import numpy as np

        self._rng = np.random.default_rng(0)
        self._cells = np.zeros((50, 50), dtype=np.uint8)

    def work(self) -> int:
        total = 0
        for i in range(30_000):
            total += i * i
        rng, cells = self._rng, self._cells
        for _ in range(1_500):
            i, j = int(rng.integers(0, 50)), int(rng.integers(0, 49))
            total += int(cells[i, j]) + int(cells[j, i])
        table = {}
        for i in range(20_000):
            table[i & 255] = i
        return total

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0


def scaled(records) -> list[float]:
    """Op times scaled to the reference speed, using the mean of the
    reference timings taken just before and just after each op."""
    return [rec["seconds"] * REF_S / rec["ref_s"] for rec in records]


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


def measure(wl, inputs, reference, *, seconds=None, n_ops=None, tracer=None) -> list[dict]:
    """Serial ops in whole rounds: at least two, then until ``seconds`` have
    passed or ``n_ops`` ops ran.  Only the op itself is timed; its output is
    checked and dropped before the next op starts.  The speed reference is
    timed before every op and once after the last."""
    records = []
    refs = []
    start = time.perf_counter()
    i = 0
    while True:
        refs.append(reference())
        if i % wl.round_size == 0 and i >= 2 * wl.round_size:
            if n_ops is not None and i >= n_ops:
                break
            if seconds is not None and time.perf_counter() - start >= seconds:
                break
        elapsed = None
        t0 = time.perf_counter()
        try:
            out = wl.run(inputs, i) if tracer is None else wl.run_traced(inputs, i, tracer)
            elapsed = time.perf_counter() - t0
            rec = wl.check(inputs, i, out)
            del out
        except Exception as exc:  # one broken op must not end the run
            if elapsed is None:
                elapsed = time.perf_counter() - t0
            traceback.print_exc()
            rec = {"problems": [f"raised {exc!r}"], "digest": None, "items": 0}
        rec.update(index=i, seconds=elapsed)
        records.append(rec)
        i += 1
    for k, rec in enumerate(records):
        rec["ref_s"] = (refs[k] + refs[k + 1]) / 2
    return records


def check_determinism(wl, inputs, records) -> None:
    """Ops on equal inputs must give equal digests; when no input repeated
    in the run, op 0 is run once more, untimed, to compare."""
    seen = {}
    repeated = False
    for rec in records:
        if rec["digest"] is None:
            continue
        key = wl.key(inputs, rec["index"])
        if key in seen:
            repeated = True
            if seen[key] != rec["digest"]:
                rec["problems"].append("digest differs from an earlier op on the same input")
        else:
            seen[key] = rec["digest"]
    if not repeated and records[0]["digest"] is not None:
        try:
            again = wl.check(inputs, 0, wl.run(inputs, 0))["digest"]
        except Exception as exc:  # counted against op 0 like any other failure
            traceback.print_exc()
            again = repr(exc)
        if again != records[0]["digest"]:
            records[0]["problems"].append("op 0 gave another digest when run again")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(wl, records, probes) -> dict:
    times = scaled(records)
    busy = sum(times)
    tail_s, _ = tail(times)
    return {
        "setup_s": statistics.median(p["setup_s"] * REF_S / p["ref_s"] for p in probes),
        "wall_s": statistics.median(round_times(times, wl.round_size)),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_s,
        "items_per_s": sum(rec["items"] for rec in records) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def workload_rates(records) -> dict:
    """Per-workload throughputs (chain steps, emitted samples, audited path
    states per second of scaled op time), where the workload has them."""
    busy = sum(scaled(records))
    out = {}
    for key, name in (
        ("steps", "steps_per_s"),
        ("samples", "samples_per_s"),
        ("path_states", "audited_states_per_s"),
    ):
        if any(key in rec for rec in records):
            out[name] = sum(rec.get(key, 0) for rec in records) / busy
    return out


def layer_metrics(tracer, records, untraced, probes) -> dict:
    by = tracer.by_name()
    counts = tracer.counts
    n = len(records)

    def total(name, field="total_s"):
        return by.get(name, {}).get(field, 0.0)

    def spans(name):
        return by.get(name, {}).get("spans", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    def mean_of(key):
        values = [rec[key] for rec in records if key in rec]
        return statistics.fmean(values) if values else 0.0

    def probe(key):
        return statistics.median(p[key] for p in probes)

    return {
        "chain.step_us": 1e6 * ratio(tracer.busy("chain.burn_in", "chain.thin"), counts["chain.steps"]),
        "chain.burn_in_s": ratio(tracer.busy("chain.burn_in"), n),
        "chain.thin_s": ratio(tracer.busy("chain.thin"), n),
        "chain.lazy_ratio": ratio(counts["chain.lazy"], counts["chain.steps"]),
        "chain.accept_c4_ratio": ratio(counts["chain.applied_c4"], counts["chain.proposals_c4"]),
        "chain.accept_c6_ratio": ratio(counts["chain.applied_c6"], counts["chain.proposals_c6"]),
        "realization.try_c4_us": 1e6
        * ratio(total("realization.try_c4"), counts["realization.try_c4_calls"]),
        "realization.try_c6_us": 1e6
        * ratio(total("realization.try_c6"), counts["realization.try_c6_calls"]),
        "realization.copy_us": 1e6
        * ratio(total("realization.copy_block"), counts["realization.copy_calls"]),
        "realization.from_rep_us": 1e6
        * ratio(total("realization.from_rep"), spans("realization.from_rep")),
        "io.format_s": ratio(total("io.format"), n),
        "cli.self_s": ratio(total("cli.main", "self_s"), n),
        "import_s": probe("import_s"),
        "degrees.graphic_s": probe("degrees.graphic_s"),
        "realization.construct_s": probe("realization.construct_s"),
        "oracle.enumerate_s": ratio(total("oracle.enumerate"), n),
        "oracle.neighbors_s": ratio(total("oracle.kernel", "self_s"), n),
        "oracle.connected_s": ratio(total("oracle.connected", "self_s"), n),
        "oracle.tv_s": ratio(total("oracle.tv"), n),
        "oracle.states": mean_of("states"),
        "oracle.kernel_nnz_ratio": mean_of("nnz_ratio"),
        "paths.build_s": ratio(total("paths.build"), n),
        "paths.bad_audit_s": ratio(total("paths.bad_audit"), n),
        "paths.repair_audit_s": ratio(total("paths.repair_audit"), n),
        "paths.path_states": mean_of("path_states"),
        "paths.segments": mean_of("segments"),
        "paths.repair_switches_max": max((rec.get("repair_switches", 0) for rec in records), default=0),
        "trace.overhead_s": statistics.fmean(scaled(records))
        - statistics.fmean(scaled(untraced)),
    }


# ---------------------------------------------------------------------------
# set-up probes and tags
# ---------------------------------------------------------------------------


def setup_probe(name: str, seed: int) -> int:
    """Import swapmc and generate the inputs in this fresh interpreter."""
    t0 = time.perf_counter()
    import swapmc  # noqa: F401

    import_s = time.perf_counter() - t0
    import workloads

    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        workloads.WORKLOADS[name]().generate(seed, tracer, workdir)
        setup_s = time.perf_counter() - t0
    by = tracer.by_name()
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "import_s": import_s,
                "degrees.graphic_s": by["degrees.graphic"]["total_s"],
                "realization.construct_s": by["realization.construct"]["total_s"],
            }
        )
    )
    return 0


def run_probes(name: str, seed: int, reference) -> list[dict]:
    """Set-up probes in fresh interpreters, scaled like ops.

    Which core of a shared host runs slower changes within seconds, so this
    process and its probes share one core while the probes run, and each
    probe is scaled by the reference timed on that core just before and
    just after it.
    """
    cpus = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {min(cpus)})
        pinned = True
    except OSError:  # pinning refused: the probes still run, less steadily
        pinned = False
    try:
        probes = []
        for _ in range(SETUP_REPEATS):
            before = statistics.median(reference() for _ in range(3))
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                 "--workload", name, "--seed", str(seed)],
                capture_output=True, text=True, timeout=120, cwd=ROOT,
            )
            after = statistics.median(reference() for _ in range(3))
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
            probe["ref_s"] = (before + after) / 2
            probes.append(probe)
        return probes
    finally:
        if pinned:
            os.sched_setaffinity(0, cpus)


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_tags(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ[BLAS_VARS[0]]),
        "commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def declared_metrics(trace: int) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    import workloads

    units = declared_metrics(trace)
    wl = workloads.WORKLOADS[name]()
    reference = SpeedReference()
    probes = run_probes(name, seed, reference)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        inputs = wl.generate(seed, Tracer(), workdir)
        wl.warmup(inputs)
        if not trace:
            records = measure(wl, inputs, reference, seconds=seconds)
            check_determinism(wl, inputs, records)
            values = end_to_end(wl, records, probes)
            attempted = records
        else:
            untraced = measure(wl, inputs, reference, seconds=seconds / 2)
            tracer = Tracer()
            wl.instrument(tracer)
            try:
                records = measure(wl, inputs, reference, n_ops=len(untraced), tracer=tracer)
            finally:
                tracer.unwrap()
            wl.layer_block(inputs, tracer)
            attempted = untraced + records
            check_determinism(wl, inputs, attempted)
            values = layer_metrics(tracer, records, untraced, probes)
        run_problems = wl.finish(inputs, attempted)
    failed = len(attempted) if run_problems else failed_count(attempted)
    tags = machine_tags(seed)

    times = [rec["seconds"] for rec in records]
    tail_s, pct = tail(times)
    print(f"# swapmc benchmark: workload={name} seed={seed} seconds={seconds} trace={trace}")
    print("# machine: " + json.dumps(tags, sort_keys=True))
    print(
        f"# ops={len(records)} rounds={len(times) // wl.round_size} "
        f"(round = {wl.round_size} ops) tail=p{pct:.1f} ({round(len(times) * (1 - pct / 100))} ops beyond)"
    )
    print(
        f"# as measured: op p50 {statistics.median(times):.6g} s, tail {tail_s:.6g} s; "
        f"speed reference median {statistics.median(r['ref_s'] for r in records):.6g} s "
        f"(timings below are scaled to {REF_S} s)"
    )
    for rec in attempted:
        for problem in rec["problems"]:
            print(f"# FAILED op {rec['index']}: {problem}")
    for problem in run_problems:
        print(f"# FAILED run: {problem}")
    if "tv" in inputs:
        tv, threshold, pooled = inputs["tv"]
        print(f"# pooled TV to uniform {tv:.4f} over {pooled} samples (threshold {threshold:.4f})")
    print(f"# failed_ratio={failed / len(attempted):.6g} ({failed} of {len(attempted)} ops)")
    if not trace:
        for metric, value in workload_rates(records).items():
            print(f"{metric:28s} {value:14.6g} 1/s     ({len(records)} ops)")
    else:
        print(f"# tracing overhead {values['trace.overhead_s']:.6g} s per op "
              f"({len(records)} traced vs {len(untraced)} untraced ops)")
        for span, agg in sorted(tracer.by_name().items()):
            print(f"# span {span:26s} n={agg['spans']:<7d} total={agg['total_s']:.6g}s "
                  f"self={agg['self_s']:.6g}s")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{name}-{seed}.json", {"workload": name, **tags})
    for metric, unit in units.items():
        print(f"{metric:28s} {values[metric]:14.6g} {unit:7s} ({len(records)} ops)")
    result = {
        "correct": failed == 0,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(names, seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own fresh process; one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "swapmc" / "__init__.py").is_file():
        print(f"error: no swapmc package under {SRC}; run from a swapmc checkout",
              file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    if args.setup_probe:  # before anything imports swapmc
        return setup_probe(args.workload, args.seed)
    import workloads

    names = list(workloads.WORKLOADS)
    if args.workload != "all" and args.workload not in names:
        parser.error(f"--workload must be 'all' or one of {names}")
    if args.workload == "all":
        return run_all(names, args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
