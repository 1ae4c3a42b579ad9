"""CLI surface: instance files, report formats, exit codes, bench output."""

import json

import pytest

import treeiso.cli as cli
from conftest import DEMO_PATH
from treeiso.cli import (
    EXIT_CERTIFICATE,
    EXIT_INSTANCE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    ProblemFile,
    emit_json,
    load_problem_file,
    main,
)
from treeiso.solver import solve
from treeiso.tree import INF


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(tmp_path, obj, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def quad(y, w=1.0):
    return {"type": "quadratic", "y": y, "w": w}


def long_chain_instance(n):
    return {
        "nodes": [{"id": v, "loss": quad(float(v % 4))} for v in range(1, n + 1)],
        "edges": [
            {"from": v, "to": v + 1, "lambda": 1.0, "mu": 1.0}
            for v in range(1, n)
        ],
    }


class TestSolveCommand:
    def test_demo_json_report(self, capsys):
        code, out, err = run_cli(capsys, "solve", str(DEMO_PATH))
        assert code == EXIT_OK and err == ""
        report = json.loads(out)
        assert report["x"] == {"1": 3.0, "2": 3.0, "3": 3.0, "4": 4.0, "5": 1.0}
        assert report["z"] == [
            {"from": 1, "to": 2, "value": -1.0},
            {"from": 1, "to": 3, "value": 0.0},
            {"from": 3, "to": 4, "value": 4.0},
            {"from": 3, "to": 5, "value": -3.0},
        ]
        assert report["objective"] == pytest.approx(20.75, abs=1e-10)
        assert report["kkt_residual"] <= 1e-8
        stats = report["stats"]
        assert stats["inner_iters_total"] == 5
        assert stats["equilibrium_calls"] == 2
        assert [s["node"] for s in stats["steps"]] == [2, 3, 4, 5]
        assert [s["branch"] for s in stats["steps"]] == ["down", "down", "up", "down"]
        assert [s["iterations"] for s in stats["steps"]] == [1, 0, 2, 2]
        assert [s["t"] for s in stats["steps"]] == [-1.0, 0.0, 4.0, -3.0]

    def test_repeat_runs_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "solve", str(DEMO_PATH))
        _, second, _ = run_cli(capsys, "solve", str(DEMO_PATH))
        assert first == second

    def test_table_report(self, capsys):
        code, out, _ = run_cli(capsys, "solve", str(DEMO_PATH), "--table")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert "x[1] = 3" in lines[0]
        assert any(line.startswith("z[1 -> 2] = -1") for line in lines)
        assert any(line.startswith("objective    = 20.75") for line in lines)
        assert any(line.startswith("kkt_residual") for line in lines)
        assert any("equilibrium calls = 2" in line for line in lines)

    def test_oracle_check_agrees(self, capsys):
        code, out, err = run_cli(capsys, "solve", str(DEMO_PATH), "--oracle-check")
        assert code == EXIT_OK and err == ""
        assert json.loads(out)["x"]["1"] == 3.0

    def test_oracle_check_disagreement_is_certificate_failure(
        self, capsys, monkeypatch
    ):
        def shifted(problem, tol=1e-8):
            x, z, _ = solve(problem)
            return {v: value + 1.0 for v, value in x.items()}, z, {}

        monkeypatch.setattr(cli, "enumerate_optimum", shifted)
        code, _, err = run_cli(capsys, "solve", str(DEMO_PATH), "--oracle-check")
        assert code == EXIT_CERTIFICATE
        assert "disagree" in err

    def test_oracle_check_skipped_above_cap(self, capsys, tmp_path):
        path = write_instance(tmp_path, long_chain_instance(14))
        code, out, err = run_cli(capsys, "solve", path, "--oracle-check")
        assert code == EXIT_OK
        assert "cross-check skipped" in err
        assert json.loads(out)["kkt_residual"] <= 1e-8

    def test_single_node_instance(self, capsys, tmp_path):
        path = write_instance(
            tmp_path, {"nodes": [{"id": 9, "loss": quad(5.0, w=2.0)}], "edges": []}
        )
        code, out, _ = run_cli(capsys, "solve", path)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["x"] == {"9": 5.0}
        assert report["z"] == []
        assert report["objective"] == 0.0
        assert report["kkt_residual"] == 0.0
        assert report["stats"]["steps"] == []

    def test_string_ids_supported(self, capsys, tmp_path):
        obj = {
            "nodes": [
                {"id": "a", "loss": quad(0.0)},
                {"id": "b", "loss": quad(10.0)},
            ],
            "edges": [{"from": "a", "to": "b", "lambda": 4.0, "mu": 0.0}],
        }
        path = write_instance(tmp_path, obj)
        code, out, _ = run_cli(capsys, "solve", path)
        assert code == EXIT_OK
        report = json.loads(out)
        # min x_a^2 + (x_b - 10)^2 + 4 max(x_a - x_b, 0): already ordered.
        assert report["x"] == {"a": 0.0, "b": 10.0}
        assert report["z"] == [{"from": "a", "to": "b", "value": 0.0}]

    def test_flipped_edge_reported_in_file_orientation(self, capsys, tmp_path):
        obj = {
            "nodes": [
                {"id": 1, "loss": quad(0.0)},
                {"id": 2, "loss": quad(10.0)},
            ],
            "edges": [{"from": 2, "to": 1, "lambda": 4.0, "mu": 0.0}],
            "root": 1,
        }
        path = write_instance(tmp_path, obj)
        code, out, _ = run_cli(capsys, "solve", path)
        assert code == EXIT_OK
        report = json.loads(out)
        # min x_1^2/2 + (x_2 - 10)^2/2 + 4 max(x_2 - x_1, 0) -> (4, 6).
        assert report["x"]["1"] == pytest.approx(4.0, abs=1e-9)
        assert report["x"]["2"] == pytest.approx(6.0, abs=1e-9)
        row = report["z"][0]
        assert (row["from"], row["to"]) == (2, 1)
        assert row["value"] == pytest.approx(-4.0, abs=1e-9)
        assert report["objective"] == pytest.approx(24.0, abs=1e-9)
        assert report["kkt_residual"] <= 1e-8

    def test_custom_tolerance_threads_through(self, capsys):
        code, _, _ = run_cli(capsys, "solve", str(DEMO_PATH), "--tol", "1e-10")
        assert code == EXIT_OK


class TestOracleCommand:
    def test_demo_report_with_pattern(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", str(DEMO_PATH))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["x"] == {"1": 3.0, "2": 3.0, "3": 3.0, "4": 4.0, "5": 1.0}
        assert report["pattern"] == [
            {"from": 1, "to": 2, "relation": "="},
            {"from": 1, "to": 3, "relation": "="},
            {"from": 3, "to": 4, "relation": "<"},
            {"from": 3, "to": 5, "relation": ">"},
        ]

    def test_pattern_uses_file_orientation(self, capsys, tmp_path):
        obj = {
            "nodes": [
                {"id": 1, "loss": quad(0.0)},
                {"id": 2, "loss": quad(10.0)},
            ],
            "edges": [{"from": 2, "to": 1, "lambda": 4.0, "mu": 0.0}],
            "root": 1,
        }
        path = write_instance(tmp_path, obj)
        code, out, _ = run_cli(capsys, "oracle", path)
        assert code == EXIT_OK
        report = json.loads(out)
        # x_2 = 6 > x_1 = 4, stated on the file's (2, 1) edge.
        assert report["pattern"] == [{"from": 2, "to": 1, "relation": ">"}]

    def test_edge_cap_is_internal_error(self, capsys, tmp_path):
        path = write_instance(tmp_path, long_chain_instance(14))
        code, _, err = run_cli(capsys, "oracle", path)
        assert code == EXIT_INTERNAL
        assert "13" in err


class TestInstanceErrors:
    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "solve", str(tmp_path / "absent.json"))
        assert code == EXIT_USAGE
        assert "absent.json" in err

    def test_json_syntax_error_reports_location(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"nodes": [', encoding="utf-8")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == EXIT_USAGE
        assert "line 1 column" in err

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda o: o["nodes"].append({"id": 1, "loss": quad(0.0)}),
             "duplicate id"),
            # The report keys x by the id's text, so 1 and "1" would collide.
            (lambda o: o["nodes"].append({"id": "1", "loss": quad(0.0)}),
             "duplicate id '1'"),
            (lambda o: o["edges"].append(
                {"from": 1, "to": 99, "lambda": 1.0, "mu": 1.0}),
             "unknown id"),
            (lambda o: o["edges"].pop(), "edges"),
            (lambda o: o["edges"][0].update({"lambda": -1.0}), "out of range"),
            (lambda o: o["edges"][0].update({"lambda": float("nan")}),
             "out of range"),
            (lambda o: o["nodes"][0].update({"loss": {"type": "cubic"}}),
             "nodes[0].loss"),
            (lambda o: o["nodes"][0].update({"loss": quad(1.0, w=0.0)}),
             "nodes[0].loss"),
            (lambda o: o.update({"root": 77}), "unknown id"),
            # True == 1 and 2.0 == 2, so these would match integer ids.
            (lambda o: o["edges"][0].update({"from": True}),
             "edges[0].from: expected an integer or string"),
            (lambda o: o["edges"][0].update({"to": 2.0}),
             "edges[0].to: expected an integer or string"),
            (lambda o: o.update({"root": True}),
             "root: expected an integer or string"),
            (lambda o: o.update({"extra": 1}), "unknown field"),
        ],
    )
    def test_schema_violations(self, capsys, tmp_path, mutate, fragment):
        obj = {
            "nodes": [
                {"id": 1, "loss": quad(1.0)},
                {"id": 2, "loss": quad(2.0)},
                {"id": 3, "loss": quad(3.0)},
            ],
            "edges": [
                {"from": 1, "to": 2, "lambda": 1.0, "mu": 1.0},
                {"from": 1, "to": 3, "lambda": 1.0, "mu": 1.0},
            ],
        }
        mutate(obj)
        path = write_instance(tmp_path, obj)
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == EXIT_INSTANCE
        assert fragment in err

    def test_cycle_rejected(self, capsys, tmp_path):
        obj = {
            "nodes": [
                {"id": 1, "loss": quad(1.0)},
                {"id": 2, "loss": quad(2.0)},
                {"id": 3, "loss": quad(3.0)},
                {"id": 4, "loss": quad(4.0)},
            ],
            "edges": [
                {"from": 1, "to": 2, "lambda": 1.0, "mu": 1.0},
                {"from": 2, "to": 3, "lambda": 1.0, "mu": 1.0},
                {"from": 3, "to": 1, "lambda": 1.0, "mu": 1.0},
            ],
            "root": 4,
        }
        path = write_instance(tmp_path, obj)
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == EXIT_INSTANCE

    def test_infeasible_hard_constraints(self, capsys, tmp_path):
        # x_1 = x_2 forced from both sides with incompatible anchors is
        # still solvable; true infeasibility cannot arise on a tree, so
        # conflicting hard walls collapse to equality instead of an error.
        obj = {
            "nodes": [
                {"id": 1, "loss": quad(0.0)},
                {"id": 2, "loss": quad(10.0)},
            ],
            "edges": [{"from": 1, "to": 2, "lambda": "inf", "mu": "inf"}],
        }
        path = write_instance(tmp_path, obj)
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["x"]["1"] == pytest.approx(5.0, abs=1e-9)
        assert report["x"]["2"] == pytest.approx(5.0, abs=1e-9)


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_missing_path(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["solve"])
        assert info.value.code == 2

    def test_json_and_table_conflict(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["solve", str(DEMO_PATH), "--json", "--table"])
        assert info.value.code == 2

    def test_bench_rejects_nonpositive_n(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--n", "0")
        assert code == EXIT_USAGE
        assert "--n" in err

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    @pytest.mark.parametrize("command", [["solve", str(DEMO_PATH)], ["bench"]])
    def test_bad_tolerance_is_usage_error(self, capsys, command, tol):
        with pytest.raises(SystemExit) as info:
            main(command + ["--tol", tol])
        assert info.value.code == EXIT_USAGE
        assert "--tol" in capsys.readouterr().err

    def test_oracle_takes_no_tolerance(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["oracle", str(DEMO_PATH), "--tol", "nan"])
        assert info.value.code == EXIT_USAGE


class TestBenchCommand:
    def test_csv_shape_and_self_verification(self, capsys):
        code, out, err = run_cli(
            capsys, "bench", "--shape", "chain", "--n", "40", "--seed", "3",
            "--reps", "3", "--loss", "mixed",
        )
        assert code == EXIT_OK and err == ""
        lines = out.strip().splitlines()
        assert lines[0] == "n,shape,wall_time_ms,inner_iters_total,kkt_residual"
        assert len(lines) == 4
        for line in lines[1:]:
            n, shape, ms, iters, residual = line.split(",")
            assert n == "40" and shape == "chain"
            assert float(ms) >= 0.0
            assert int(iters) >= 0
            assert float(residual) <= 1e-8

    def test_isotonic_chain_needs_no_inner_iterations(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--shape", "chain", "--n", "1000", "--seed", "1",
            "--isotonic",
        )
        assert code == EXIT_OK
        row = out.strip().splitlines()[1].split(",")
        assert row[3] == "0"

    def test_random_shape_reps(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--shape", "random", "--n", "120", "--seed", "7",
            "--reps", "5",
        )
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 6


class TestProblemFileRoundTrip:
    """A parsed file keeps what it declared: ids, edges, weights and root."""

    def test_demo_round_trip(self):
        with open(DEMO_PATH, encoding="utf-8") as handle:
            obj = json.load(handle)
        pf = load_problem_file(str(DEMO_PATH))
        assert pf.ids == [entry["id"] for entry in obj["nodes"]]
        assert [(f, t) for f, t, _, _ in pf.edges] == [
            (entry["from"], entry["to"]) for entry in obj["edges"]
        ]
        assert pf.root is None

    def test_infinite_weights_round_trip(self):
        pf = load_problem_file(str(DEMO_PATH))
        assert pf.edges[0][2:] == (INF, 0.0)
        assert pf.edges[1][2:] == (0.0, INF)

    def test_root_preserved(self, tmp_path):
        obj = {
            "nodes": [
                {"id": 1, "loss": quad(0.0)},
                {"id": 2, "loss": quad(1.0)},
            ],
            "edges": [{"from": 2, "to": 1, "lambda": 1.0, "mu": 1.0}],
            "root": 1,
        }
        pf = ProblemFile.from_json(obj)
        assert pf.root == 1
        assert pf.build()[2] == 1

    def test_emit_json_is_valid_json(self):
        payload = {"a": [1.0, INF, -INF, 0.5], "b": "text", "c": None, "d": True}
        parsed = json.loads(emit_json(payload))
        assert parsed["a"] == [1.0, "inf", "-inf", 0.5]
        assert parsed["b"] == "text"
        assert parsed["c"] is None and parsed["d"] is True
