import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from weightlab import build_space, cli, save
from weightlab.cli import main

E = np.e


@pytest.fixture
def two_point_doc(tmp_path):
    space = build_space(np.array([[0.0, 1.0], [1.0, 0.0]]), "explicit-matrix",
                        [0.5, 0.5])
    path = tmp_path / "two.json"
    save(space, {"w": np.array([1.0, E])}, path)
    return str(path)


class TestGen:
    def test_grid_smoke(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["gen", "--kind", "grid", "--n", "16", "--seed", "1",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "n=16" in text and "doubling=" in text

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["gen", "--kind", "random-points", "--n", "12",
                         "--seed", "9", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_snowflake_from_base(self, tmp_path, two_point_doc):
        out = tmp_path / "s.json"
        assert main(["gen", "--kind", "snowflake", "--eps", "0.5",
                     "--base", two_point_doc, "--seed", "0",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["distances"][0][1] == 1.0

    def test_snowflake_without_base_is_exit_2(self, tmp_path):
        assert main(["gen", "--kind", "snowflake", "--seed", "0",
                     "--out", str(tmp_path / "x.json")]) == 2

    def test_gen_with_weight_then_analyze(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["gen", "--kind", "tree", "--n", "10", "--seed", "3",
                     "--weight-family", "uniform-log", "--out", str(out)]) == 0
        assert main(["analyze", "--input", str(out), "--weight", "w"]) == 0


class TestAnalyze:
    def test_worked_example_table(self, two_point_doc, tmp_path, capsys):
        prefix = str(tmp_path / "out")
        assert main(["analyze", "--input", two_point_doc, "--weight", "w",
                     "--p", "2", "--s", "2", "--out-prefix", prefix]) == 0
        rows = json.loads(open(prefix + ".json").read())
        table = {r["quantity"]: r["value"] for r in rows}
        expected = {
            "ap(p=2)": 1.27154, "a1": 1.85914, "ainf": 1.12763,
            "rhs(s=2)": 1.10162, "rhinf": 1.46212,
            "bmo(log w)": 0.5, "blo(log w)": 0.5, "buo(log w)": 0.5,
        }
        for key, val in expected.items():
            assert table[key] == pytest.approx(val, abs=1e-5)
        assert table["doubling"] == 2.0
        assert table["annular(alpha=1,r_min=2)"] == pytest.approx(1.0, abs=1e-12)
        csv_text = open(prefix + ".csv").read()
        assert "quantity" in csv_text and "a1" in csv_text

    def test_constant_weight(self, tmp_path, capsys):
        space = build_space(np.array([0.0, 1.0, 2.0]), "euclidean", np.full(3, 1 / 3))
        doc = tmp_path / "c.json"
        save(space, {"w": np.full(3, 2.0)}, doc)
        assert main(["analyze", "--input", str(doc)]) == 0
        out = capsys.readouterr().out
        assert "a1" in out

    def test_missing_weight_is_exit_2(self, two_point_doc):
        assert main(["analyze", "--input", two_point_doc,
                     "--weight", "nope"]) == 2

    def test_dedupe_flag_changes_ball_count(self, two_point_doc, tmp_path):
        counts = {}
        for flag, label in ((["--dedupe-balls"], "dedup"), ([], "all")):
            prefix = str(tmp_path / label)
            assert main(["analyze", "--input", two_point_doc,
                         "--out-prefix", prefix] + flag) == 0
            rows = json.loads(open(prefix + ".json").read())
            counts[label] = {r["quantity"]: r["value"] for r in rows}["balls"]
        assert counts == {"dedup": 3, "all": 4}

    def test_parse_error_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["analyze", "--input", str(bad)]) == 2

    def test_ball_count_reads_the_index(self, two_point_doc, tmp_path, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("enumerate_balls runs only under --dedupe-balls")

        monkeypatch.setattr(cli, "enumerate_balls", unreachable)
        prefix = str(tmp_path / "out")
        assert main(["analyze", "--input", two_point_doc, "--out-prefix", prefix]) == 0
        rows = json.loads(open(prefix + ".json").read())
        assert {r["quantity"]: r["value"] for r in rows}["balls"] == 4


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "grid", "--n", "-1", "--seed", "0"],
    ["analyze", "--r-min", "nan"],
])
def test_bad_value_is_an_input_error(argv, two_point_doc, tmp_path, capsys):
    argv = argv + (["--out", str(tmp_path / "x.json")] if argv[0] == "gen"
                   else ["--input", two_point_doc])
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv, env", [
    (["verify", "--tolerance", "nan"], None),
    (["verify", "--tolerance", "-1"], None),
    (["verify"], "abc"),
], ids=["tolerance-nan", "tolerance-negative", "env-not-a-number"])
def test_bad_tolerance_is_an_input_error(argv, env, two_point_doc, monkeypatch, capsys):
    # a NaN or negative tolerance would report every hard check as FAIL
    if env is not None:
        monkeypatch.setenv("WEIGHTLAB_TOLERANCE", env)
    assert main(argv + ["--input", two_point_doc]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["bench", "--repeats", "0", "--sizes", "16"],
    ["bench", "--sizes", "abc"],
    ["verify", "--random", "--seed", "1", "--max-n", "1"],
    ["verify", "--random", "--seed", "1", "--count", "0"],
    ["verify", "--random", "--seed", "1", "--count", "-3"],
    ["factor", "--p", "nan"],
    ["factor", "--s", "inf"],
    ["verify", "--random", "--seed", "1", "--count", "1", "--p", "nan"],
    ["verify", "--random", "--seed", "1", "--count", "1", "--s", "nan"],
    ["verify", "--random", "--seed", "1", "--count", "1", "--p", "inf"],
    ["verify", "--random", "--seed", "1", "--count", "1", "--s", "inf"],
    ["analyze", "--p", "inf"],
], ids=["bench-repeats-0", "bench-sizes-not-int", "verify-max-n-1", "verify-count-0",
        "verify-count-negative", "factor-p-nan", "factor-s-inf",
        "verify-p-nan", "verify-s-nan", "verify-p-inf", "verify-s-inf", "analyze-p-inf"])
def test_bad_option_is_an_input_error(argv, two_point_doc, capsys):
    if argv[0] in ("factor", "analyze"):
        argv = argv + ["--input", two_point_doc]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("entries", [[0.0, 1.0], [-1.0, 2.0]], ids=["zero", "negative"])
@pytest.mark.parametrize("command", ["analyze", "verify", "factor"])
def test_nonpositive_document_weight_is_an_input_error(command, entries, tmp_path, capsys):
    space = build_space(np.array([[0.0, 1.0], [1.0, 0.0]]), "explicit-matrix",
                        [0.5, 0.5])
    path = tmp_path / "bad.json"
    save(space, {"w": np.array(entries)}, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would end as an internal error
        assert main([command, "--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: weight 'w'") and err.count("\n") == 1


class TestVerify:
    def test_random_batch_passes(self, tmp_path, capsys):
        rep = tmp_path / "rep.jsonl"
        summ = tmp_path / "sum.csv"
        assert main(["verify", "--random", "--seed", "42", "--count", "4",
                     "--max-n", "24", "--report", str(rep),
                     "--summary", str(summ)]) == 0
        lines = rep.read_text().splitlines()
        assert lines and all(json.loads(ln)["verdict"] in
                             ("pass", "soft-report") for ln in lines)
        assert summ.read_text().startswith("id,inputs,lhs,rhs,margin")

    def test_document_mode(self, two_point_doc):
        assert main(["verify", "--input", two_point_doc, "--weight", "w"]) == 0

    def test_jsonl_schema(self, two_point_doc, tmp_path):
        rep = tmp_path / "rep.jsonl"
        assert main(["verify", "--input", two_point_doc,
                     "--report", str(rep)]) == 0
        required = {"id", "inputs", "lhs", "rhs", "margin", "verdict", "witness"}
        for ln in rep.read_text().splitlines():
            assert required <= set(json.loads(ln))

    def test_self_test_inverts_to_exit_1(self, two_point_doc):
        assert main(["verify", "--input", two_point_doc, "--self-test"]) == 1

    def test_random_without_seed_is_exit_2(self):
        assert main(["verify", "--random", "--count", "2"]) == 2

    def test_missing_input_is_exit_2(self):
        assert main(["verify"]) == 2

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for rep in (a, b):
            assert main(["verify", "--random", "--seed", "5", "--count", "2",
                         "--max-n", "16", "--report", str(rep)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFactor:
    def test_worked_example(self, two_point_doc, tmp_path, capsys):
        out = tmp_path / "pair.json"
        assert main(["factor", "--input", two_point_doc, "--weight", "w",
                     "--p", "2", "--s", "2", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        w1 = np.array(payload["w1"])
        w2 = np.array(payload["w2"])
        assert w1 * w2 == pytest.approx([1.0, E], rel=1e-12)
        assert payload["certificates"]["a1_v1"] >= 1.0 - 1e-12
        verdicts = {r["verdict"] for r in payload["verification"]}
        assert verdicts == {"pass"}

    def test_p_out_of_range_is_exit_2(self, two_point_doc):
        assert main(["factor", "--input", two_point_doc, "--p", "1"]) == 2

    def test_grid_reaches_the_optimum_certified(self, tmp_path, capsys):
        # the 36-point grid's optimum is 2.7431845257910, by a dense barrier
        # over every ball; the search's model holds a few of the balls
        grid, out = str(tmp_path / "g36.json"), tmp_path / "pair.json"
        assert main(["gen", "--kind", "grid", "--n", "36", "--seed", "1",
                     "--weight-family", "uniform-log", "--out", grid]) == 0
        assert main(["factor", "--input", grid, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        objective = max(payload["certificates"]["a1_v1"], payload["certificates"]["a1_v2"])
        assert payload["lower_bound"] <= objective <= 2.743186
        assert objective - payload["lower_bound"] <= 1e-5 * objective
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary.startswith(f"objective={objective:.9g} "
                                  f"lower_bound={payload['lower_bound']:.9g} ")

    def test_missing_weight_is_exit_2(self, two_point_doc):
        assert main(["factor", "--input", two_point_doc,
                     "--weight", "nope"]) == 2


class TestBench:
    def test_small_sizes(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "64,100", "--repeats", "1",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("n,kernel,seconds")
        assert "maximal" in text and "ball_enumeration" in text
        assert "suite_core" in text
        # set-up splits into generating the space and building its index
        kernels = [line.split(",")[:2] for line in text.splitlines()[1:]]
        for n in ("64", "100"):
            assert [k for m, k in kernels if m == n][:2] == ["generate", "ball_enumeration"]
        assert "gate: fast vs naive" in capsys.readouterr().out

    def test_empty_sizes_header_only(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "", "--out", str(out)]) == 0
        assert out.read_text() == "n,kernel,seconds\n"

    def test_module_entry_point(self, tmp_path):
        # `python -m weightlab` runs the CLI from a checkout, without installing
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-m", "weightlab", "bench", "--sizes", ""],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert "gate: fast vs naive" in done.stdout


class TestToleranceOverride:
    def test_env_var(self, two_point_doc, monkeypatch):
        monkeypatch.setenv("WEIGHTLAB_TOLERANCE", "1e-6")
        assert main(["verify", "--input", two_point_doc]) == 0

    def test_flag(self, two_point_doc):
        assert main(["verify", "--input", two_point_doc,
                     "--tolerance", "1e-7"]) == 0
