from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qghz
from oracles import reparse_qasm
from qghz.cli import _path_json, main, parse_queries
from qghz.paths import ConnectionPath


def run_cli(*argv) -> int:
    return main(list(argv))


def read_json(path: Path):
    return json.loads(path.read_text())


class TestRank:
    def test_qx4_prints_ranks_and_root(self, capsys):
        assert run_cli("rank", "--map", "qx4") == 0
        out = capsys.readouterr().out
        assert "q0: rank 3" in out
        assert "root: q0" in out

    def test_qx5_json_output(self, capsys):
        assert run_cli("rank", "--map", "qx5", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["ranks"]) == 16
        assert payload["root"] == 4

    def test_missing_map_file_is_io_error(self, capsys):
        assert run_cli("rank", "--map", "missing.json") == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_map_content_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"num_qubits": 2, "edges": [[0, 0]]}')
        assert run_cli("rank", "--map", str(bad)) == 1
        assert "self-loop" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b'{"name": null, "num_qubits": 2, "edges": [[0, 1]]}',
                                         b'{"name": ["a"], "num_qubits": 2, "edges": [[0, 1]]}', b"\x80abc"])
    def test_bad_map_document_is_one_error_line(self, tmp_path, capsys, content):
        bad, out = tmp_path / "bad.json", tmp_path / "run"
        bad.write_bytes(content)
        assert run_cli("compile", "--map", str(bad), "--experiment", "ghz", "-n", "2", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


class TestCompile:
    def test_ghz_qx5_full_width(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("compile", "--map", "qx5", "--experiment", "ghz", "-n", "16", "--out", str(out)) == 0
        width, creg, ops = reparse_qasm((out / "circuit.qasm").read_text())
        assert width == 16 and creg == 16
        assert sum(1 for op in ops if op[0] == "cx") == 15
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "compile"
        assert manifest["map_name"] == "qx5"
        assert manifest["output_paths"] == ["circuit.qasm"]

    def test_envariance_qx4_structure(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("compile", "--map", "qx4", "--experiment", "envariance", "-n", "5", "--out", str(out)) == 0
        _, creg, ops = reparse_qasm((out / "circuit.qasm").read_text())
        assert creg == 5
        assert sum(1 for op in ops if op[0] == "x") == 5
        assert sum(1 for op in ops if op[0] == "measure") == 5

    def test_parity_zero_pattern_has_no_cnots(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(
            "compile", "--map", "qx4", "--experiment", "parity", "-n", "3",
            "--pattern", "00", "--out", str(out),
        ) == 0
        assert "effective a: 000" in capsys.readouterr().out
        _, _, ops = reparse_qasm((out / "circuit.qasm").read_text())
        assert all(op[0] != "cx" for op in ops)

    def test_pattern_rejected_for_non_parity(self, tmp_path, capsys):
        code = run_cli(
            "compile", "--map", "qx4", "--experiment", "ghz", "-n", "3",
            "--pattern", "11", "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert "pattern" in capsys.readouterr().err

    def test_parity_requires_pattern(self, tmp_path):
        assert run_cli(
            "compile", "--map", "qx4", "--experiment", "parity", "-n", "3",
            "--out", str(tmp_path / "x"),
        ) == 1

    def test_too_many_qubits_is_validation_error(self, tmp_path, capsys):
        code = run_cli("compile", "--map", "qx4", "--experiment", "ghz", "-n", "6", "--out", str(tmp_path / "x"))
        assert code == 1

    def test_dump_flags(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(
            "compile", "--map", "qx4", "--experiment", "ghz", "-n", "3",
            "--out", str(out), "--dump-path", "--dump-circuit",
        ) == 0
        path_doc = read_json(out / "path.json")
        assert path_doc["root"] == 0
        assert len(path_doc["pairs"]) == 2
        circuit_doc = read_json(out / "circuit.json")
        assert circuit_doc["width"] == 5
        assert {g["kind"] for g in circuit_doc["gates"]} <= {"h", "x", "cnot", "measure"}


class TestEnvariance:
    def test_run_writes_results_and_fidelity(self, tmp_path, capsys):
        out = tmp_path / "env"
        code = run_cli(
            "envariance", "--map", "qx4", "-n", "3",
            "--shots", "2048", "--reps", "4", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        results = read_json(out / "results.json")
        assert results["experiment"] == "envariance"
        assert len(results["histograms"]) == 4
        assert all(sum(h.values()) == 2048 for h in results["histograms"])
        assert set(results["averaged_histogram"]) <= {"000", "111"}
        assert results["b_mean"] >= 0.999
        assert results["seed"] == 7
        rows = list(csv.reader((out / "results.csv").read_text().splitlines()))
        assert rows[0] == ["repetition", "b"]
        assert len(rows) == 5
        assert "B = " in capsys.readouterr().out

    def test_defaults_match_protocol(self):
        from qghz.cli import build_parser

        args = build_parser().parse_args(["envariance", "--map", "qx4", "-n", "2", "--out", "x"])
        assert args.shots == 8192
        assert args.reps == 10

    def test_byte_identical_reruns(self, tmp_path):
        args = ["envariance", "--map", "qx4", "-n", "2", "--shots", "512", "--reps", "3", "--seed", "5"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out", str(out_a)) == 0
        assert run_cli(*args, "--out", str(out_b)) == 0
        for name in ("manifest.json", "results.json", "results.csv", "circuit.qasm"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestParity:
    def test_curve_files(self, tmp_path):
        out = tmp_path / "parity"
        code = run_cli(
            "parity", "--map", "qx4", "-n", "3", "--pattern", "11",
            "--queries", "1:8", "--reps", "100", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        rows = list(csv.reader((out / "results.csv").read_text().splitlines()))
        assert rows[0] == ["N", "p_err", "repetitions"]
        assert [int(r[0]) for r in rows[1:]] == [1, 2, 4, 8]
        assert all(r[2] == "100" for r in rows[1:])
        results = read_json(out / "results.json")
        assert results["effective_a"] == "111"
        manifest = read_json(out / "manifest.json")
        assert manifest["parameters"]["queries"] == [1, 2, 4, 8]

    def test_zero_pattern_never_errs(self, tmp_path):
        out = tmp_path / "parity"
        code = run_cli(
            "parity", "--map", "qx4", "-n", "3", "--pattern", "00",
            "--queries", "1,2,5", "--reps", "50", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        results = read_json(out / "results.json")
        assert all(point["p_err"] == 0.0 for point in results["p_err"])

    @pytest.mark.parametrize("command", ["parity", "compile"])
    def test_qubit_budget_names_the_result_qubit(self, command, tmp_path, capsys):
        # qx5 has 16 qubits: 16 query qubits plus the result qubit need 17.
        out = tmp_path / "x"
        extra = ["--queries", "4"] if command == "parity" else ["--experiment", "parity"]
        assert run_cli(command, "--map", "qx5", "-n", "16", "--pattern", "11", *extra, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == ("error: parity with n = 16 needs n + 1 = 17 qubits (the query qubits plus the "
                       "result qubit); map qx5 has 16\n")
        assert not out.exists()

    def test_eta_out_of_range(self, tmp_path, capsys):
        code = run_cli(
            "parity", "--map", "qx4", "-n", "2", "--pattern", "11",
            "--eta", "0.6", "--queries", "4", "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert "eta" in capsys.readouterr().err

    def test_default_repetitions(self):
        from qghz.cli import build_parser

        args = build_parser().parse_args(
            ["parity", "--map", "qx4", "-n", "2", "--pattern", "11", "--queries", "4", "--out", "x"]
        )
        assert args.reps == 200

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "parity", "--map", "qx5", "-n", "4", "--pattern", "10",
            "--eta", "0.1", "--queries", "1:16", "--reps", "60", "--seed", "11",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out", str(out_a)) == 0
        assert run_cli(*args, "--out", str(out_b)) == 0
        for name in ("manifest.json", "results.json", "results.csv", "circuit.qasm"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_cross_check_small_n(self, tmp_path, capsys):
        for map_name, n in (("qx4", "2"), ("qx5", "15")):
            out = tmp_path / f"parity-{map_name}"
            code = run_cli(
                "parity", "--map", map_name, "-n", n, "--pattern", "11",
                "--queries", "4", "--reps", "20", "--seed", "2", "--out", str(out),
                "--cross-check",
            )
            assert code == 0
            results = read_json(out / "results.json")
            assert results["cross_check_tv"] < 0.02
            assert "cross-check TV" in capsys.readouterr().out

    def test_cross_check_ranks_the_map_once(self, tmp_path, monkeypatch):
        calls = []
        ranks = qghz.paths._ranks
        monkeypatch.setattr(qghz.paths, "_ranks", lambda cmap: calls.append(cmap.name) or ranks(cmap))
        assert run_cli(
            "parity", "--map", "qx5", "-n", "4", "--pattern", "10", "--queries", "4",
            "--reps", "10", "--cross-check", "--out", str(tmp_path / "parity"),
        ) == 0
        assert calls == ["qx5"]


class TestParseQueries:
    def test_geometric_range(self):
        assert parse_queries("1:64", "geometric", 1) == [1, 2, 4, 8, 16, 32, 64]

    def test_geometric_range_caps_at_end(self):
        assert parse_queries("3:20", "geometric", 1) == [3, 6, 12, 20]

    def test_linear_range(self):
        assert parse_queries("2:6", "linear", 2) == [2, 4, 6]

    def test_comma_list_and_single(self):
        assert parse_queries("1,5,10", "geometric", 1) == [1, 5, 10]
        assert parse_queries("7", "geometric", 1) == [7]

    @pytest.mark.parametrize("step", [0, -1])
    def test_rejects_non_positive_step(self, step):
        from qghz.cli import UsageError

        with pytest.raises(UsageError, match="--step"):
            parse_queries("1:8", "linear", step)

    @pytest.mark.parametrize("step", ["0", "-1"])
    def test_non_positive_step_is_one_error_line(self, step, tmp_path, capsys):
        code = run_cli(
            "parity", "--map", "qx4", "-n", "2", "--pattern", "11", "--queries", "1:8",
            "--sweep", "linear", "--step", step, "--out", str(tmp_path / "x"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --step") and err.count("\n") == 1

    @pytest.mark.parametrize("spec", ["{over}", "1,{over}", "{over}:{over}", "1:{over}"])
    def test_rejects_counts_above_limit(self, spec):
        from qghz.cli import MAX_QUERIES, UsageError

        with pytest.raises(UsageError, match=f"at most {MAX_QUERIES}"):
            parse_queries(spec.format(over=MAX_QUERIES + 1), "linear", 1)

    def test_accepts_counts_at_limit(self):
        from qghz.cli import MAX_QUERIES

        assert parse_queries(str(MAX_QUERIES), "geometric", 1) == [MAX_QUERIES]
        assert parse_queries(f"{MAX_QUERIES // 2}:{MAX_QUERIES}", "geometric", 1) == [MAX_QUERIES // 2, MAX_QUERIES]

    def test_count_above_limit_is_one_error_line(self, tmp_path, capsys):
        from qghz.cli import MAX_QUERIES

        out = tmp_path / "x"
        code = run_cli(
            "parity", "--map", "qx4", "-n", "2", "--pattern", "11", "--queries", f"1:{MAX_QUERIES + 1}",
            "--sweep", "linear", "--out", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: query counts must be at most") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["1:2:3", "", "x", "1,,2"])
    def test_malformed_spec_is_one_error_line(self, spec, tmp_path, capsys):
        out = tmp_path / "x"
        code = run_cli("parity", "--map", "qx4", "-n", "2", "--pattern", "11", "--queries", spec, "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: --queries takes integer counts as 'N', 'N,M,...' or 'START:END', got {spec!r}\n"
        assert not out.exists()

    def test_rejects_bad_ranges(self):
        from qghz.cli import UsageError

        with pytest.raises(UsageError):
            parse_queries("8:2", "geometric", 1)
        with pytest.raises(UsageError):
            parse_queries("0,3", "geometric", 1)


class TestRunBounds:
    """--reps, --shots and --seed are checked before the map is even loaded."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the run started work before checking its bounds")

        monkeypatch.setattr("qghz.cli.resolve_map", fail)
        monkeypatch.setattr("qghz.analysis.child_seed_words", fail)

    @pytest.mark.parametrize("command", [
        ["envariance", "--map", "qx5", "-n", "3"],
        ["parity", "--map", "qx5", "-n", "3", "--pattern", "11", "--queries", "4", "--cross-check"],
    ])
    @pytest.mark.parametrize("over", [False, True])
    def test_reps_out_of_range_is_one_error_line(self, command, over, no_work, tmp_path, capsys):
        from qghz.cli import MAX_REPS

        reps = MAX_REPS + 1 if over else 0
        out = tmp_path / "x"
        assert run_cli(*command, "--reps", str(reps), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == f"error: --reps must lie in [1, {MAX_REPS}], got {reps}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["envariance", "--map", "qx5", "-n", "3"],
        ["parity", "--map", "qx5", "-n", "3", "--pattern", "11", "--queries", "4", "--cross-check"],
    ])
    def test_negative_seed_is_one_error_line(self, command, no_work, tmp_path, capsys):
        out = tmp_path / "x"
        assert run_cli(*command, "--seed", "-1", "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: --seed must be non-negative, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("over", [False, True])
    def test_shots_out_of_range_is_one_error_line(self, over, no_work, tmp_path, capsys):
        from qghz.cli import MAX_SHOTS

        shots = MAX_SHOTS + 1 if over else 0
        out = tmp_path / "x"
        assert run_cli("envariance", "--map", "qx5", "-n", "3", "--shots", str(shots), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == f"error: --shots must lie in [1, {MAX_SHOTS}], got {shots}\n"
        assert not out.exists()


@pytest.mark.parametrize("pairs", [(), ((1, 0),), ((5, 12), (1108, 5), (0, 1108), (7, 0))])
def test_path_json_equals_json_dumps(pairs):
    path = ConnectionPath(root=pairs[0][1] if pairs else 4, pairs=pairs)
    payload = {"root": path.root, "pairs": [list(p) for p in path.pairs]}
    assert _path_json(path) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_usage_error_exits_one(capsys):
    assert run_cli("compile", "--map", "qx4") == 1  # missing required flags
    assert capsys.readouterr().err


class TestSharedParser:
    """main reuses one parser; no call may leave state behind for the next."""

    def test_good_call_after_usage_error(self, tmp_path, capsys):
        assert run_cli("envariance", "--map", "qx4", "--bogus") == 1
        assert capsys.readouterr().err.startswith("error: ")
        out = tmp_path / "env"
        assert run_cli("envariance", "--map", "qx4", "-n", "2", "--reps", "2", "--out", str(out)) == 0
        assert read_json(out / "results.json")["repetitions"] == 2

    def test_cross_check_flag_does_not_carry_over(self, tmp_path):
        args = ["parity", "--map", "qx4", "-n", "2", "--pattern", "11", "--queries", "4", "--reps", "5"]
        assert run_cli(*args, "--cross-check", "--out", str(tmp_path / "a")) == 0
        assert "cross_check_tv" in read_json(tmp_path / "a" / "results.json")
        assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
        assert "cross_check_tv" not in read_json(tmp_path / "b" / "results.json")


def rank_in_subprocess(map_text: str, tmp_path) -> subprocess.CompletedProcess:
    """``qghz rank`` on a map file holding ``map_text``, run as its own process."""
    path = tmp_path / "map.json"
    path.write_text(map_text)
    # The child imports the same qghz as this process, installed or not.
    src = str(Path(qghz.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "qghz.cli", "rank", "--map", str(path)],
        capture_output=True, text=True, env=env,
    )


def test_oversized_map_is_one_error_line(tmp_path):
    from qghz.coupling import MAX_MAP_QUBITS

    result = rank_in_subprocess(json.dumps({"num_qubits": MAX_MAP_QUBITS + 1, "edges": []}), tmp_path)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: num_qubits") and result.stderr.count("\n") == 1


def test_deeply_nested_map_is_one_error_line(tmp_path):
    result = rank_in_subprocess("[" * 100_000, tmp_path)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: map document nests too deeply") and result.stderr.count("\n") == 1


QX5_RUNS = {
    "compile ghz": ["compile", "--experiment", "ghz"],
    "compile envariance": ["compile", "--experiment", "envariance"],
    "compile parity": ["compile", "--experiment", "parity", "--pattern", "11"],
    "envariance": ["envariance", "--shots", "64", "--reps", "2"],
    "parity": ["parity", "--pattern", "10", "--queries", "1,4", "--reps", "5"],
}


@settings(max_examples=60, deadline=None)
@given(run=st.sampled_from(sorted(QX5_RUNS)), n=st.integers(-3, 40))
def test_any_width_on_qx5_exits_zero_or_one_error_line(run, n):
    """Every experiment on qx5 (16 qubits) at any -n runs, or fails on one line naming -n."""
    command, *rest = QX5_RUNS[run]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = run_cli(command, "--map", "qx5", "-n", str(n), *rest, "--out", str(Path(tmp) / "run"))
    err = err.getvalue()
    needed = n + 1 if run.endswith("parity") else n
    lowest = 2 if run == "envariance" else 1
    if lowest <= n and needed <= 16:
        assert code == 0, err
    if code != 0:
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    if n < lowest or needed > 16:
        assert f"-n {n}" in err or f"n = {n}" in err, err


class TestWideMap:
    """The simulator cap counts the qubits a circuit touches, not the map size."""

    @pytest.fixture
    def line25(self, tmp_path):
        path = tmp_path / "line25.json"
        path.write_text(json.dumps({"num_qubits": 25, "edges": [[i, i + 1] for i in range(24)]}))
        return str(path)

    def test_envariance(self, line25, tmp_path):
        out = tmp_path / "env"
        assert run_cli("envariance", "--map", line25, "-n", "3", "--reps", "2", "--out", str(out)) == 0
        results = read_json(out / "results.json")
        assert all(set(h) <= {"000", "111"} for h in results["histograms"])
        assert reparse_qasm((out / "circuit.qasm").read_text())[0] == 25

    def test_parity_cross_check(self, line25, tmp_path):
        out = tmp_path / "parity"
        assert run_cli(
            "parity", "--map", line25, "-n", "3", "--pattern", "11", "--queries", "4",
            "--reps", "10", "--cross-check", "--out", str(out),
        ) == 0
        assert read_json(out / "results.json")["cross_check_tv"] < 0.02

    def test_cross_check_at_twenty_query_qubits(self, line25, tmp_path):
        # 21 involved qubits; the simulator caps the support dimension (here 1), not the width.
        out = tmp_path / "parity"
        assert run_cli(
            "parity", "--map", line25, "-n", "20", "--pattern", "11", "--queries", "4",
            "--cross-check", "--out", str(out),
        ) == 0
        assert read_json(out / "results.json")["cross_check_tv"] < 0.02

    def test_envariance_on_300_qubit_line(self, tmp_path):
        path = tmp_path / "line300.json"
        path.write_text(json.dumps({"num_qubits": 300, "edges": [[i, i + 1] for i in range(299)]}))
        out = tmp_path / "env"
        assert run_cli("envariance", "--map", str(path), "-n", "300", "--shots", "1000", "--reps", "2",
                       "--out", str(out)) == 0
        histograms = read_json(out / "results.json")["histograms"]
        assert len(histograms) == 2
        assert all(set(h) <= {"0" * 300, "1" * 300} for h in histograms)

    def test_envariance_over_involved_qubit_limit_is_one_error_line(self, tmp_path, capsys):
        from qghz.simulator import MAX_INVOLVED_QUBITS

        n = MAX_INVOLVED_QUBITS + 1
        path = tmp_path / "line.json"
        path.write_text(json.dumps({"num_qubits": n, "edges": [[i, i + 1] for i in range(n - 1)]}))
        out = tmp_path / "env"
        assert run_cli("envariance", "--map", str(path), "-n", str(n), "--reps", "1", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: circuit involves {n} qubits") and err.count("\n") == 1
        assert "MAX_INVOLVED_QUBITS" in err
        assert not out.exists()
