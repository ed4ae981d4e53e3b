import json

import pytest

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


def test_parse_error_exit_code(capsys, tmp_path):
    p = tmp_path / "broken.deg"
    p.write_text("U: 2\nV: 1 1 1\n")
    code, out, err = run(capsys, "check", str(p))
    assert code == 2
    assert err.startswith("error: parse:")


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
    lines = out.strip().splitlines()
    assert lines[0] == "# chain 1 sample 1"
    assert lines[1] in ("1 0", "0 1")


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
    enumerate_realizations = swapmc.oracle.enumerate_realizations

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_realizations(*args, **kwargs)

    monkeypatch.setattr(swapmc.oracle, "enumerate_realizations", counted)
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


def test_diagnose_infeasible_exit_code(capsys, tmp_path):
    p = tmp_path / "bad.deg"
    p.write_text("out: 2 2 0\nin: 0 2 2\n")
    code, out, err = run(capsys, "diagnose", str(p))
    assert code == 1
    assert out == "states: 0\n"
    assert err == "error: infeasible: sequence admits no simple realization\n"


def test_path_triangle(capsys, tmp_path):
    a = tmp_path / "a.graph"
    b = tmp_path / "b.graph"
    a.write_text(TRIANGLE + "1 -> 2\n2 -> 3\n3 -> 1\n")
    b.write_text(TRIANGLE + "1 -> 3\n2 -> 1\n3 -> 2\n")
    code, out, _ = run(capsys, "path", str(a), str(b))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("move 1: C6")
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


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample"])  # missing positional and --seed
    assert exc.value.code == 2
