import hashlib
import json
import weakref

import pytest

import swapmc.cli
from swapmc.chain import sample
from swapmc.cli import main

TRIANGLE = "out: 1 1 1\nin: 1 1 1\n"
K22 = "U: 1 1\nV: 1 1\n"


@pytest.fixture
def triangle_file(tmp_path):
    p = tmp_path / "triangle.deg"
    p.write_text(TRIANGLE)
    return str(p)


@pytest.fixture
def k22_file(tmp_path):
    p = tmp_path / "k22.deg"
    p.write_text(K22)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_triangle(capsys, triangle_file):
    code, out, err = run(capsys, "check", triangle_file)
    assert code == 0
    assert "kind: directed" in out
    assert "graphic: yes" in out
    assert "lhs=0" in out and "verdict=holds" in out


def test_check_infeasible_exit_code(capsys, tmp_path):
    p = tmp_path / "bad.deg"
    p.write_text("out: 2 2 0\nin: 0 2 2\n")
    code, out, err = run(capsys, "check", str(p))
    assert code == 1
    assert "graphic: no" in out
    assert err.startswith("error: infeasible:")


def test_check_failing_condition(capsys, tmp_path):
    p = tmp_path / "wide.deg"
    # v-degrees spread 1..5 on 6+6: spread condition fails
    p.write_text("U: 5 4 3 2 1 1\nV: 5 4 3 2 1 1\n")
    code, out, err = run(capsys, "check", str(p))
    assert code == 1
    assert "verdict=fails" in out
    assert "error: verdict:" in err


@pytest.mark.parametrize("d, verdict", [(1, "holds"), (2, "fails")])
def test_check_prints_greenhill_sfragara_verdict(capsys, tmp_path, d, verdict):
    # d-regular on 16 vertices: 16 d_max^2 = 16 d^2 against m = 16 d
    p = tmp_path / "regular.deg"
    p.write_text(f"out: {' '.join([str(d)] * 16)}\nin: {' '.join([str(d)] * 16)}\n")
    code, out, err = run(capsys, "check", str(p))
    # the spread condition holds on every regular digraph and alone sets the exit code
    assert code == 0 and err == ""
    assert "spread-condition: verdict=holds" in out
    line = f"greenhill-sfragara: verdict={verdict} 16*d_max^2={16 * d * d} m={16 * d}\n"
    assert line in out
    assert out.index("spread-condition:") < out.index(line) < out.index("er-window:")


def test_check_prints_no_greenhill_sfragara_line_for_bipartite(capsys, k22_file):
    code, out, err = run(capsys, "check", k22_file)
    assert "greenhill-sfragara" not in out


@pytest.mark.parametrize(
    "text, line",
    [
        ("U: 1\nV: 1 0\n", "er-window: skipped (a class has fewer than two vertices)"),
        ("U: 1 0\nV: 1\n", "er-window: skipped (a class has fewer than two vertices)"),
        ("out: 0\nin: 0\n", "er-window: skipped (empirical edge density p=0)"),
    ],
    ids=["one-u-vertex", "one-v-vertex", "one-vertex-digraph"],
)
def test_check_skips_er_window_on_a_one_vertex_class(capsys, tmp_path, text, line):
    p = tmp_path / "one.deg"
    p.write_text(text)
    code, out, err = run(capsys, "check", str(p))
    # the spread window needs two vertices per class, so its verdict sets exit 0
    assert code == 0 and err == ""
    assert "spread-condition: verdict=not-applicable" in out
    assert out.endswith(line + "\n")


def test_parse_error_exit_code(capsys, tmp_path):
    p = tmp_path / "broken.deg"
    p.write_text("U: 2\nV: 1 1 1\n")
    code, out, err = run(capsys, "check", str(p))
    assert code == 2
    assert err.startswith("error: parse:")


def test_check_rejects_non_integer_json_degrees(capsys, tmp_path):
    p = tmp_path / "float.json"
    p.write_text(json.dumps({"u_degrees": [1.7, True], "v_degrees": [1, 1]}))
    code, out, err = run(capsys, "check", str(p))
    assert code == 2
    assert out == ""
    assert err == "error: parse: u_degrees: expected whitespace-separated integers\n"


def test_missing_file_exit_code(capsys):
    code, out, err = run(capsys, "check", "/nonexistent/xyz.deg")
    assert code == 2
    assert err.startswith("error: io:")


def test_sample_deterministic(capsys, k22_file):
    args = ("sample", k22_file, "--seed", "7", "--count", "3")
    code1, out1, err1 = run(capsys, *args)
    code2, out2, err2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert err1 == err2
    assert out1.count("# chain 1 sample") == 3


def test_sample_directed_emits_arcs(capsys, triangle_file):
    code, out, err = run(
        capsys, "sample", triangle_file, "--seed", "3", "--count", "2", "--burn-in", "5"
    )
    assert code == 0
    assert "->" in out
    stats = json.loads(err.strip().splitlines()[-1])
    assert stats["steps"] == 5 + 1


def test_sample_json_format(capsys, triangle_file):
    code, out, _ = run(
        capsys,
        "sample",
        triangle_file,
        "--seed",
        "1",
        "--count",
        "2",
        "--format",
        "json",
        "--burn-in",
        "0",
    )
    assert code == 0
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert len(docs) == 2
    assert docs[0]["out_degrees"] == [1, 1, 1]
    assert len(docs[0]["arcs"]) == 3


def test_sample_matrix_format(capsys, k22_file):
    code, out, _ = run(
        capsys,
        "sample",
        k22_file,
        "--seed",
        "1",
        "--count",
        "1",
        "--format",
        "matrix",
        "--burn-in",
        "0",
    )
    assert code == 0
    assert out == "# chain 1 sample 1\n1 0\n0 1\n"


@pytest.mark.parametrize(
    "fmt, expected",
    [
        (
            "edges",
            "# chain 1 sample 1\n1 -> 2\n2 -> 3\n3 -> 1\n"
            "# chain 1 sample 2\n1 -> 3\n2 -> 1\n3 -> 2\n",
        ),
        (
            "matrix",
            "# chain 1 sample 1\n0 1 0\n0 0 1\n1 0 0\n"
            "# chain 1 sample 2\n0 0 1\n1 0 0\n0 1 0\n",
        ),
    ],
)
def test_sample_digraph_text_formats(capsys, triangle_file, fmt, expected):
    args = ("--seed", "0", "--count", "2", "--thin", "3", "--burn-in", "4", "--format", fmt)
    code, out, err = run(capsys, "sample", triangle_file, *args)
    assert code == 0
    assert out == expected
    assert err == (
        '{"applied_c4": 0, "applied_c6": 2, "chain": 1, "lazy": 2, '
        '"proposal_illegal": 3, "steps": 7}\n'
    )


def test_sample_prints_each_chain_before_the_next_one_runs(capsys, monkeypatch, k22_file):
    args = ("sample", k22_file, "--seed", "5", "--count", "2", "--chains", "3")
    _, expected_out, expected_err = run(capsys, *args)
    chunks, matrices = [], []

    def recorded(*a):
        chunks.append(capsys.readouterr().out)  # what was printed since the last chain began
        assert all(ref() is None for ref in matrices)  # no earlier chain's samples are kept
        result = sample(*a)
        matrices.extend(weakref.ref(r.matrix) for r in result.realizations)
        return result

    monkeypatch.setattr(swapmc.cli, "sample", recorded)
    assert main(list(args)) == 0
    out, err = capsys.readouterr()
    assert [c.count("# chain") for c in chunks] == [0, 2, 2]
    assert "".join(chunks) + out == expected_out
    assert err == expected_err


# The bytes of `swapmc sample` on dir-small-emit's seed-0 sequence (the
# benchmark's digraph relabelled by seed 0): SHA-256 of stdout, a NUL, stderr.
DIR_SMALL_EMIT_0 = "out: 1 1 2 2 2 2\nin: 2 1 1 2 2 2\n"
DIR_SAMPLE_DIGESTS = {
    "json": "9f61e4e667b8cf13e7f0924076beaa6d5165613cb720ea403a2d0af890975f55",
    "edges": "34e63fee556156f80cfb43615f1b7085650ffb646082e02e4ee67a1109fa8054",
    "matrix": "dcddbadcf5e987ec9138a9f1b656f3a92f80ecc8fdfda0ae0505f3f4f35e6b56",
}


@pytest.mark.parametrize("fmt", sorted(DIR_SAMPLE_DIGESTS))
def test_sample_digraph_bytes_are_pinned(capsys, tmp_path, fmt):
    p = tmp_path / "dse.deg"
    p.write_text(DIR_SMALL_EMIT_0)
    argv = ["--seed", "0", "--chains", "2", "--thin", "10", "--count", "25", "--format", fmt]
    code, out, err = run(capsys, "sample", str(p), *argv)
    assert code == 0 and len(err.splitlines()) == 2
    assert hashlib.sha256(f"{out}\0{err}".encode()).hexdigest() == DIR_SAMPLE_DIGESTS[fmt]


def test_sample_multi_chain_ordered(capsys, k22_file):
    args = ("sample", k22_file, "--seed", "5", "--count", "2", "--chains", "3")
    code1, out1, err1 = run(capsys, *args)
    code2, out2, err2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2 and err1 == err2
    for c in (1, 2, 3):
        assert f"# chain {c} sample 1" in out1
    stats = [json.loads(line) for line in err1.strip().splitlines()]
    assert [s["chain"] for s in stats] == [1, 2, 3]


def test_sample_bad_config(capsys, k22_file):
    code, out, err = run(capsys, "sample", k22_file, "--seed", "1", "--count", "0")
    assert code == 2
    assert err.startswith("error: config:")


def test_sample_bad_seed_reads_the_same_for_one_and_two_chains(capsys, k22_file):
    # two chains used to print numpy's "expected non-negative integer"
    for chains in ("1", "2"):
        code, out, err = run(capsys, "sample", k22_file, "--seed", "-1", "--chains", chains)
        assert (code, out) == (2, "")
        assert err == "error: config: seed must be a non-negative integer\n"


@pytest.mark.parametrize("chains", ["0", "-1"])
def test_sample_rejects_chain_counts_below_one(capsys, k22_file, chains):
    code, out, err = run(capsys, "sample", k22_file, "--seed", "1", "--chains", chains)
    assert code == 2
    assert out == ""
    assert err.startswith("error: config:")


def test_sample_kernel_too_small(capsys, tmp_path):
    p = tmp_path / "one.deg"
    p.write_text("U: 1\nV: 1\n")
    code, out, err = run(capsys, "sample", str(p), "--seed", "1")
    assert code == 2
    assert err == "error: invalid: bipartite kernel needs at least two vertices per class\n"


def test_sample_zero_steps_on_a_one_by_one_sequence(capsys, tmp_path):
    # no kernel step runs, so the kernel's two-vertex check never fires
    p = tmp_path / "one.deg"
    p.write_text("U: 1\nV: 1\n")
    code, out, err = run(capsys, "sample", str(p), "--seed", "1", "--burn-in", "0", "--count", "1")
    assert code == 0
    assert out == "# chain 1 sample 1\n1 1\n"
    assert json.loads(err)["steps"] == 0


def test_sample_infeasible(capsys, tmp_path):
    p = tmp_path / "inf.deg"
    p.write_text("out: 2 2 0\nin: 0 2 2\n")
    code, out, err = run(capsys, "sample", str(p), "--seed", "1")
    assert code == 1
    assert err.startswith("error: infeasible:")


def test_enumerate_triangle(capsys, triangle_file):
    code, out, _ = run(capsys, "enumerate", triangle_file)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "realizations: 2"
    assert len(lines) == 3


def test_enumerate_rejects_forbidden_line_in_degree_file(capsys, tmp_path):
    # parsed and dropped, the line let enumerate list 1:1 2:2, on the "forbidden" cells
    p = tmp_path / "forbidden.deg"
    p.write_text("U: 1 1\nV: 1 1\nforbidden: 1:1 2:2\n")
    code, out, err = run(capsys, "enumerate", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse:") and "forbidden" in err


def test_enumerate_rejects_unknown_json_key(capsys, tmp_path):
    p = tmp_path / "forbidden.json"
    p.write_text(json.dumps({"u_degrees": [1, 1], "v_degrees": [1, 1], "forbidden": [[1, 1]]}))
    code, out, err = run(capsys, "enumerate", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse:") and "'forbidden'" in err


def test_enumerate_digraph_bytes(capsys, tmp_path):
    p = tmp_path / "four.deg"
    p.write_text("out: 2 1 1 0\nin: 1 1 1 1\n")
    code, out, _ = run(capsys, "enumerate", str(p))
    assert code == 0
    assert out == (
        "realizations: 4\n"
        "1->3 1->4 2->1 3->2\n"
        "1->2 1->4 2->3 3->1\n"
        "1->2 1->3 2->4 3->1\n"
        "1->2 1->3 2->1 3->4\n"
    )
    p.write_text("out: 2 2 2 2 1 1\nin: 2 2 1 2 2 1\n")
    code, out, _ = run(capsys, "enumerate", str(p))
    assert code == 0 and out.startswith("realizations: 1519\n")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "afd9765d8cd6a0d2afe585f086ff9127ad5bd552de60711a50095b7717154942"


def test_enumerate_budget_exit(capsys, tmp_path):
    p = tmp_path / "big.deg"
    p.write_text("U: " + " ".join(["1"] * 7) + "\nV: " + " ".join(["1"] * 7) + "\n")
    code, out, err = run(capsys, "enumerate", str(p))
    assert code == 3
    assert err.startswith("error: budget:")


def test_diagnose_enumerates_once(capsys, monkeypatch, tmp_path):
    import swapmc.oracle

    p = tmp_path / "dse.deg"
    p.write_text("out: 2 2 2 2 1 1\nin: 2 2 1 2 2 1\n")
    calls = []
    StateSpace = swapmc.oracle.StateSpace

    def counted(*args, **kwargs):
        calls.append(args)
        return StateSpace(*args, **kwargs)

    monkeypatch.setattr(swapmc.oracle, "StateSpace", counted)
    code, out, _ = run(capsys, "diagnose", str(p), "--horizon", "3")
    assert code == 0
    assert len(calls) == 1
    assert "states: 1519" in out
    assert "connected-c4: yes components=1" in out
    assert "connected-f-swaps: yes components=1" in out


def test_diagnose_triangle(capsys, triangle_file):
    code, out, _ = run(capsys, "diagnose", triangle_file, "--horizon", "3")
    assert code == 0
    assert "states: 2" in out
    assert "connected-c4: no components=2" in out
    assert "connected-f-swaps: yes components=1" in out
    assert "symmetry-residual: 0" in out
    assert "step,tv" in out
    assert "0,0.5" in out and "1,0.25" in out


def test_diagnose_state_budget_exit(capsys, triangle_file):
    code, out, err = run(capsys, "diagnose", triangle_file, "--budget", "1")
    assert code == 3
    assert out == ""
    assert err == "error: budget: 2 states exceed the budget of 1\n"


def test_diagnose_negative_horizon_prints_nothing(capsys, monkeypatch, triangle_file):
    import swapmc.cli

    def no_kernel(*args, **kwargs):
        raise AssertionError("the kernel was built for a negative horizon")

    monkeypatch.setattr(swapmc.cli, "exact_transition_matrix", no_kernel)
    code, out, err = run(capsys, "diagnose", triangle_file, "--horizon", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: invalid: horizon must be >= 0\n"


def test_diagnose_infeasible_exit_code(capsys, tmp_path):
    p = tmp_path / "bad.deg"
    p.write_text("out: 2 2 0\nin: 0 2 2\n")
    code, out, err = run(capsys, "diagnose", str(p))
    assert code == 1
    assert out == "states: 0\n"
    assert err == "error: infeasible: sequence admits no simple realization\n"


@pytest.mark.parametrize(
    "text, expected",
    [
        (
            "U: 2 2 2 2\nV: 2 2 2 2\n",
            "states: 90\n"
            "connected-c4: yes components=1\n"
            "symmetry-residual: 0\n"
            "row-sum-residual: 2.22044604925e-16\n"
            "uniform-residual: 3.46944695195e-18\n"
            "step,tv\n"
            "0,0.988888888889\n"
            "1,0.855555555556\n"
            "2,0.833179012346\n"
            "3,0.796334876543\n",
        ),
        # dir-small-emit's digraph for seed 0
        (
            "out: 1 1 2 2 2 2\nin: 2 1 1 2 2 2\n",
            "states: 1519\n"
            "connected-c4: yes components=1\n"
            "connected-f-swaps: yes components=1\n"
            "symmetry-residual: 0\n"
            "row-sum-residual: 4.4408920985e-16\n"
            "uniform-residual: 8.67361737988e-19\n"
            "step,tv\n"
            "0,0.999341672153\n"
            "1,0.988841754444\n"
            "2,0.988518143996\n"
            "3,0.987948448514\n",
        ),
    ],
    ids=["4x4-2-regular", "dir-small-emit-seed-0"],
)
def test_diagnose_prints_the_same_bytes_past_the_triangle(capsys, tmp_path, text, expected):
    p = tmp_path / "seq.deg"
    p.write_text(text)
    code, out, err = run(capsys, "diagnose", str(p), "--horizon", "3")
    assert code == 0
    assert out == expected
    assert err == ""


def test_path_triangle(capsys, tmp_path):
    a = tmp_path / "a.graph"
    b = tmp_path / "b.graph"
    a.write_text(TRIANGLE + "1 -> 2\n2 -> 3\n3 -> 1\n")
    b.write_text(TRIANGLE + "1 -> 3\n2 -> 1\n3 -> 2\n")
    code, out, _ = run(capsys, "path", str(a), str(b))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "move 1: C6 1 3 2 2 1 3"
    assert "milestones: 0 1" in out
    assert "max-two-count: 0" in out
    assert "max-minus-one-count: 0" in out
    assert "verdict: ok" in out


def test_path_mismatched_inputs(capsys, tmp_path):
    a = tmp_path / "a.graph"
    b = tmp_path / "b.graph"
    a.write_text(TRIANGLE + "1 -> 2\n2 -> 3\n3 -> 1\n")
    b.write_text("out: 1 1 0\nin: 0 1 1\n1 -> 2\n2 -> 3\n")
    code, out, err = run(capsys, "path", str(a), str(b))
    assert code == 2
    assert err.startswith("error: parse:")


@pytest.mark.parametrize("first", ["directed", "bipartite"])
def test_path_refuses_a_directed_and_a_bipartite_file(capsys, tmp_path, first):
    files = {
        "directed": TRIANGLE + "1 -> 2\n2 -> 3\n3 -> 1\n",
        "bipartite": K22 + "1 1\n2 2\n",
    }
    paths = []
    for kind in sorted(files, key=lambda kind: kind != first):
        paths.append(tmp_path / f"{kind}.graph")
        paths[-1].write_text(files[kind])
    code, out, err = run(capsys, "path", *map(str, paths))
    message = "error: parse: cannot mix directed and bipartite realization files\n"
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize(
    "text, good, message",
    [
        (
            "U: 1 1\nV: 1 1\nforbidden: 1:1\n1 1\n2 2\n",
            "U: 1 1\nV: 1 1\nforbidden: 1:1\n1 2\n2 1\n",
            "incidence entry on forbidden position (1,1)",
        ),
        (
            "out: 1 1\nin: 1 1\n1 -> 1\n2 -> 2\n",
            "out: 1 1\nin: 1 1\n1 -> 2\n2 -> 1\n",
            "adjacency entry on forbidden position (1,1)",
        ),
        (
            "U: 1 1\nV: 1 1\nforbidden: 3:1\n1 1\n2 2\n",
            "U: 1 1\nV: 1 1\n1 2\n2 1\n",
            "forbidden position (3,1) outside 2x2 grid",
        ),
    ],
    ids=["incidence", "adjacency", "outside"],
)
def test_path_parse_errors_name_cells_from_1(capsys, tmp_path, text, good, message):
    bad, fine = tmp_path / "bad.graph", tmp_path / "good.graph"
    bad.write_text(text)
    fine.write_text(good)
    for argv in ((bad, fine), (fine, bad)):
        code, out, err = run(capsys, "path", *map(str, argv))
        assert (code, out, err) == (2, "", f"error: parse: {message}\n")


def test_path_reproducible(capsys, tmp_path):
    a = tmp_path / "a.graph"
    b = tmp_path / "b.graph"
    a.write_text("U: 1 1\nV: 1 1\n1 1\n2 2\n")
    b.write_text("U: 1 1\nV: 1 1\n1 2\n2 1\n")
    code1, out1, _ = run(capsys, "path", str(a), str(b))
    code2, out2, _ = run(capsys, "path", str(a), str(b))
    assert code1 == code2 == 0
    assert out1 == out2
    assert "move 1: C4" in out1


SIX = "out: 2 3 2 3 2 2\nin: 2 3 2 3 2 2\n"


def _arcs(text):
    return "".join(arc.replace("->", " -> ") + "\n" for arc in text.split())


def test_path_report_bytes_multi_cycle_directed(capsys, tmp_path):
    from swapmc import build_canonical_path, load_realization, to_bipartite_representation

    a = tmp_path / "a.graph"
    b = tmp_path / "b.graph"
    a.write_text(SIX + _arcs("1->4 1->6 2->4 2->5 2->6 3->1 3->2 4->2 4->3 4->5 5->1 5->3 6->2 6->4"))
    b.write_text(SIX + _arcs("1->3 1->5 2->1 2->3 2->4 3->4 3->6 4->1 4->2 4->5 5->2 5->6 6->2 6->4"))
    x, y = (to_bipartite_representation(load_realization(str(p))) for p in (a, b))
    path = build_canonical_path(x, y)
    assert len(path.segments) == 3 and sum(path.intermediate) == 2  # double-steps
    code, out, err = run(capsys, "path", str(a), str(b))
    assert code == 0 and err == ""
    assert out == (
        "move 1: C4 2 3 5 1\n"
        "move 2: C4 1 3 4 5\n"
        "move 3: C4 1 3 6 2\n"
        "move 4: C4 1 5 2 3\n"
        "move 5: C4 4 5 3 1\n"
        "move 6: C4 2 5 6 3\n"
        "milestones: 0 2 5 6\n"
        "cycle 1: ell=3 moves=2\n"
        "cycle 2: ell=4 moves=3\n"
        "cycle 3: ell=2 moves=1\n"
        "max-two-count: 0\n"
        "max-minus-one-count: 1\n"
        "max-repair-switches: 1\n"
        "max-repair-distance: 4\n"
        "verdict: ok\n"
    )


def test_path_report_bytes_direct_exchange_after_a_double_step(capsys, tmp_path):
    from swapmc import (
        auxiliary_matrix,
        build_canonical_path,
        load_realization,
        repair_to_realization,
        to_bipartite_representation,
    )

    header = "out: 3 3 2 2 2 2\nin: 3 3 2 2 2 2\n"
    a = tmp_path / "a.graph"
    b = tmp_path / "b.graph"
    a.write_text(header + _arcs("1->2 1->3 1->5 2->1 2->4 2->6 3->1 3->4 4->1 4->6 5->2 5->3 6->2 6->5"))
    b.write_text(header + _arcs("1->2 1->4 1->5 2->3 2->4 2->6 3->1 3->6 4->1 4->2 5->2 5->3 6->1 6->5"))
    x, y = (to_bipartite_representation(load_realization(str(p))) for p in (a, b))
    path = build_canonical_path(x, y)
    # lone -1 targets that one direct exchange repairs, one of them the
    # completion of the path's double-step
    direct = []
    for i, z in enumerate(path.states):
        aux = auxiliary_matrix(x, y, z)
        twos, ones = aux.bad_positions()
        if not twos and len(ones) == 1:
            assert len(repair_to_realization(aux).switches) == 1
            direct.append(i)
    assert sum(path.intermediate) == 1
    assert len(direct) == 2
    assert any(path.intermediate[i - 1] for i in direct)
    code, out, err = run(capsys, "path", str(a), str(b))
    assert code == 0 and err == ""
    assert out == (
        "move 1: C4 3 6 4 2\n"
        "move 2: C4 4 3 6 2\n"
        "move 3: C4 6 1 4 3\n"
        "move 4: C4 6 2 3 1\n"
        "milestones: 0 4\n"
        "cycle 1: ell=5 moves=4\n"
        "max-two-count: 0\n"
        "max-minus-one-count: 1\n"
        "max-repair-switches: 1\n"
        "max-repair-distance: 8\n"
        "verdict: ok\n"
    )


def test_path_failed_repair_exit_code(capsys, tmp_path):
    # the sequence fails the directed spread condition, and the -1 of the
    # path's state 2 admits neither the direct exchange nor the detour
    header = "out: 3 3 2 2 1\nin: 3 3 2 1 2\n"
    a = tmp_path / "a.graph"
    b = tmp_path / "b.graph"
    a.write_text(header + _arcs("1->2 1->4 1->5 2->1 2->3 2->5 3->1 3->2 4->2 4->3 5->1"))
    b.write_text(header + _arcs("1->2 1->3 1->5 2->1 2->3 2->4 3->1 3->5 4->1 4->2 5->2"))
    code, out, err = run(capsys, "path", str(a), str(b))
    assert code == 1
    assert out.endswith("max-repair-switches: 1\nmax-repair-distance: 4\nverdict: failed\n")
    assert err == (
        "error: verdict: verification failed "
        "(bad-entry violations=[], repair failures=[2])\n"
    )


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample"])  # missing positional and --seed
    assert exc.value.code == 2
