"""Tests of the benchmark's own logic: tail percentile, self time, failure
counting, and that each workload's check rejects a corrupted output."""

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, covered, self_times  # noqa: E402


# ---------------------------------------------------------------------------
# tail percentile
# ---------------------------------------------------------------------------


def test_tail_leaves_ten_ops_beyond():
    values = list(range(1, 101))  # 100 ops
    assert run.tail(values) == (90, 90.0)
    value, pct = run.tail(list(range(1, 22)))  # 21 ops: the 11th has 10 above
    assert value == 11 and pct == pytest.approx(100 * 11 / 21)


def test_tail_falls_back_to_upper_quartile_when_the_rule_would_not_pass_the_median():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail([float(v) for v in range(20)]) == (14.0, 75.0)
    assert run.tail([float(v) for v in range(10)]) == (7.0, 80.0)


def test_tail_ignores_input_order():
    rng = np.random.default_rng(0)
    values = rng.random(57).tolist()
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 47 / 57)


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def test_covered_merges_overlaps():
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([]) == 0


def test_self_time_nested_and_overlapping_children():
    spans = [
        Span(1, None, 0, "op", 0.0, 10.0),
        Span(2, 1, 0, "a", 1.0, 4.0),
        Span(3, 1, 0, "b", 3.0, 6.0),  # overlaps a: [1, 6] is covered once
        Span(4, 2, 0, "a.inner", 2.0, 3.0),  # nested in a, not a child of op
        Span(5, 1, 0, "late", 9.0, 12.0),  # outlives op: only [9, 10] counts
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10 - 5 - 1)
    assert selfs[2] == pytest.approx(3 - 1)
    assert selfs[3] == pytest.approx(3)
    assert selfs[5] == pytest.approx(3)


def test_spans_from_worker_threads_hang_below_the_op():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def worker():
        with tracer.span("chain.sample"):
            barrier.wait(timeout=10)

    with tracer.op(0, "cli.main"):
        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
    root = next(sp for sp in tracer.spans if sp.name == "cli.main")
    children = [sp for sp in tracer.spans if sp.name == "chain.sample"]
    assert all(sp.parent == root.sid and sp.op == 0 for sp in children)
    union = covered((sp.start, sp.end) for sp in children)
    by = tracer.by_name()
    assert by["cli.main"]["self_s"] == pytest.approx(root.duration - union)
    assert tracer.busy("chain.sample") == pytest.approx(union)


def test_wrap_records_and_unwrap_restores():
    import types

    mod = types.SimpleNamespace(f=lambda x: x + 1)
    original = mod.f
    tracer = Tracer()
    tracer.wrap(mod, "f", span="m.f", count="m.calls")
    assert mod.f(1) == 2 and mod.f(2) == 3
    tracer.unwrap()
    assert mod.f is original
    assert tracer.counts["m.calls"] == 2 and tracer.by_name()["m.f"]["spans"] == 2


# ---------------------------------------------------------------------------
# failure counting, on small copies of the real workloads
# ---------------------------------------------------------------------------


class SmallBip(workloads.BipSparseBurnin):
    SIDE, DEGREE = 8, 3
    BURN_IN, SAMPLES, THINNING = 200, 3, 20
    round_size = 2


class Corrupting(SmallBip):
    """Flips one cell of one emitted realization of op ``bad``."""

    bad = 3

    def run(self, inputs, i):
        out = super().run(inputs, i)
        if i == self.bad:
            out.realizations[1].matrix[0, 0] ^= 1
        return out


def _records(wl, n_ops=6):
    inputs = wl.generate(5, Tracer(), ".")
    records = run.measure(wl, inputs, lambda: run.REF_S, n_ops=n_ops)
    run.check_determinism(wl, inputs, records)
    return records


def test_clean_run_has_no_failures():
    records = _records(SmallBip())
    assert len(records) == 6 and run.failed_count(records) == 0
    assert run.scaled(records) == pytest.approx([rec["seconds"] for rec in records])


def test_scaling_follows_the_reference_around_each_op():
    refs = iter([0.01, 0.03, 0.015])  # before op 0, before op 1, after op 1
    wl = SmallBip()
    wl.round_size = 1
    inputs = wl.generate(5, Tracer(), ".")
    records = run.measure(wl, inputs, lambda: next(refs), n_ops=2)
    assert [rec["ref_s"] for rec in records] == pytest.approx([0.02, 0.0225])
    assert run.scaled(records)[0] == pytest.approx(records[0]["seconds"] * run.REF_S / 0.02)


def test_corrupted_output_counts_as_failed():
    records = _records(Corrupting())
    assert run.failed_count(records) == 1
    assert records[3]["problems"]


def test_raising_op_counts_as_failed():
    class Raising(SmallBip):
        def run(self, inputs, i):
            if i == 2:
                raise RuntimeError("boom")
            return super().run(inputs, i)

    records = _records(Raising())
    assert run.failed_count(records) == 1 and records[2]["digest"] is None


def test_changed_output_on_repeated_input_fails_determinism():
    class Drifting(SmallBip):
        def check(self, inputs, i, out):
            rec = super().check(inputs, i, out)
            rec["digest"] += str(i)  # every op looks different from its twin
            return rec

    records = _records(Drifting())
    assert run.failed_count(records) == 4  # the second round repeats the first


def test_cli_sample_check_rejects_a_dropped_arc(tmp_path):
    class SmallEmit(workloads.DirSmallEmit):
        COUNT = 4

    wl = SmallEmit()
    inputs = wl.generate(3, Tracer(), str(tmp_path))
    code, stdout, stderr = wl.run(inputs, 0)
    assert wl.check(inputs, 0, (code, stdout, stderr))["problems"] == []
    lines = stdout.splitlines()
    doc = workloads.json.loads(lines[1])
    doc["arcs"] = doc["arcs"][1:]
    lines[1] = workloads.json.dumps(doc)
    bad = wl.check(inputs, 0, (code, "\n".join(lines) + "\n", stderr))
    assert bad["problems"]


def test_pooled_tv_rejects_a_stuck_sampler(tmp_path):
    wl = workloads.DirSmallEmit()
    inputs = wl.generate(3, Tracer(), str(tmp_path))
    bip = workloads.BipartiteDegreeSequence(inputs["seq"].out_degrees, inputs["seq"].in_degrees)
    one = workloads.construct_bipartite(bip, [(v, v) for v in range(bip.n)]).key()
    stuck = [{"index": i, "keys": [one] * 100} for i in range(4)]
    assert wl.finish(inputs, stuck)


def test_oracle_check_rejects_an_increasing_tv_curve():
    class TinyOracle(workloads.OracleExact):
        def generate(self, seed, tracer, workdir):
            seq = workloads.BipartiteDegreeSequence((2, 1, 1), (2, 1, 1))
            return {"seed": seed, "instances": [(seq, (), "bipartite", "c4")] * 2, "counts": {}}

    wl = TinyOracle()
    inputs = wl.generate(0, Tracer(), ".")
    kernel, connected, tv = wl.run(inputs, 0)
    assert wl.check(inputs, 0, (kernel, connected, tv))["problems"] == []
    tv[2] = tv[1] + 0.1
    assert wl.check(inputs, 0, (kernel, connected, tv))["problems"]


def test_path_check_rejects_a_failed_repair_audit():
    class SmallPaths(workloads.PathAudit):
        SEQUENCES = (workloads.BipartiteDegreeSequence((2,) * 5, (2,) * 5),)
        POOL_ROUNDS = 2
        round_size = 1

    wl = SmallPaths()
    inputs = wl.generate(0, Tracer(), ".")
    path, bad, rep = wl.run(inputs, 0)
    assert wl.check(inputs, 0, (path, bad, rep))["problems"] == []
    rep.failures.append(1)
    assert wl.check(inputs, 0, (path, bad, rep))["problems"]


def test_inputs_depend_only_on_the_seed():
    wl = workloads.PathAudit()
    a = wl.generate(9, Tracer(), ".")["pairs"]
    b = wl.generate(9, Tracer(), ".")["pairs"]
    c = wl.generate(10, Tracer(), ".")["pairs"]
    assert all(x1 == x2 and y1 == y2 for (x1, y1), (x2, y2) in zip(a, b))
    assert any(x1 != x2 for (x1, _), (x2, _) in zip(a, c))
