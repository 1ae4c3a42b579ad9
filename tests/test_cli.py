"""CLI surface: instance files, report formats, exit codes, bench output."""

import contextlib
import gc
import io
import json
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import treeiso.cli as cli
import treeiso.solver
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
from treeiso.api import build_problem
from treeiso.solver import Solver
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
            x, z, _ = Solver(problem).solve()
            return {v: value + 1.0 for v, value in x.items()}, z, {}

        monkeypatch.setattr(cli, "enumerate_optimum", shifted)
        code, _, err = run_cli(capsys, "solve", str(DEMO_PATH), "--oracle-check")
        assert code == EXIT_CERTIFICATE
        assert "disagree" in err

    def test_oracle_check_on_relabelled_file(self, capsys, tmp_path):
        # String ids, the root listed third and two edges pointing at it:
        # the file's dense labels differ from the solver's, which the
        # oracle shares, so comparing under the wrong labels would disagree.
        obj = {
            "nodes": [
                {"id": "c", "loss": quad(9.0)},
                {"id": "a", "loss": quad(6.0, w=2.0)},
                {"id": "hub", "loss": {"type": "quartic", "a": 1.0, "b": 0.25,
                                       "c": -4.0}},
                {"id": "b", "loss": quad(-2.0)},
                {"id": "d", "loss": quad(-5.0, w=0.5)},
            ],
            "edges": [
                {"from": "a", "to": "hub", "lambda": 1.0, "mu": "inf"},
                {"from": "hub", "to": "b", "lambda": 0.5, "mu": 2.0},
                {"from": "d", "to": "hub", "lambda": "inf", "mu": 0.0},
                {"from": "c", "to": "a", "lambda": 0.5, "mu": 0.5},
            ],
            "root": "hub",
        }
        path = write_instance(tmp_path, obj)
        tree, losses, root = load_problem_file(path).build()
        label = build_problem(tree, losses, root).arb.original_label
        assert label[1:] != list(range(1, len(label)))
        code, out, err = run_cli(capsys, "solve", path, "--oracle-check")
        assert code == EXIT_OK and err == ""
        report = json.loads(out)
        assert [s["node"] for s in report["stats"]["steps"]] == [
            "a", "b", "d", "c"]
        code, out, _ = run_cli(capsys, "oracle", path)
        assert code == EXIT_OK
        oracle_x = json.loads(out)["x"]
        assert len(set(oracle_x.values())) == 5
        assert report["x"] == pytest.approx(oracle_x, abs=1e-6)

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

    def test_default_root_is_first_listed_node_among_sources(self, capsys, tmp_path):
        # b and a both lack an incoming edge; b is listed first, so it is
        # the root and only c and a are attached, in that order.
        obj = {
            "nodes": [{"id": "b", "loss": quad(1.0)},
                      {"id": "a", "loss": quad(5.0)},
                      {"id": "c", "loss": quad(3.0)}],
            "edges": [{"from": "a", "to": "c", "lambda": 1.0, "mu": 1.0},
                      {"from": "b", "to": "c", "lambda": 1.0, "mu": 1.0}],
        }
        code, out, _ = run_cli(capsys, "solve", write_instance(tmp_path, obj))
        assert code == EXIT_OK
        report = json.loads(out)
        assert [s["node"] for s in report["stats"]["steps"]] == ["c", "a"]
        assert report["x"] == {"b": 2.0, "a": 4.0, "c": 3.0}

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

    def test_table_writes_unprintable_ids_as_json_strings(self, capsys, tmp_path):
        # Written as it is, the newline would end the row and start a
        # forged one, "x[b] = 9] = ...".
        odd = "a\nx[b] = 9"
        path = write_instance(tmp_path, {
            "nodes": [{"id": odd, "loss": quad(1.0)}, {"id": 2, "loss": quad(2.0)}],
            "edges": [{"from": odd, "to": 2, "lambda": 1.0, "mu": 1.0}],
        })
        code, out, _ = run_cli(capsys, "solve", path, "--table")
        assert code == EXIT_OK
        rows = out.splitlines()
        assert [r for r in rows if r.startswith("x[") and "x[b]" in r] == [
            'x["a\\nx[b] = 9"] = 1.5']
        assert [r for r in rows if r.startswith("z[")] == [
            'z["a\\nx[b] = 9" -> 2] = 0.5']
        assert sum(r.startswith("x[") for r in rows) == 2

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

    def test_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"nodes": [{"id": "caf\u00e9"}]}'.encode("latin-1"))
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == EXIT_USAGE
        assert "latin1.json" in err

    # 401 digits: a valid JSON integer that no float can hold.
    @pytest.mark.parametrize("command", ["solve", "oracle"])
    @pytest.mark.parametrize("mutate, fragment", [
        (lambda o: o["edges"][0].update({"lambda": 10 ** 400}),
         "edges[0].lambda: weight 1000"),
        (lambda o: o["nodes"][1]["loss"].update({"y": -(10 ** 400)}),
         "nodes[1].loss: quadratic target y must be finite"),
    ], ids=["weight", "loss"])
    def test_integer_beyond_float_range(self, capsys, tmp_path, command, mutate, fragment):
        obj = {
            "nodes": [{"id": 1, "loss": quad(1.0)}, {"id": 2, "loss": quad(2.0)}],
            "edges": [{"from": 1, "to": 2, "lambda": 1.0, "mu": 1.0}],
        }
        mutate(obj)
        code, _, err = run_cli(capsys, command, write_instance(tmp_path, obj))
        assert code == EXIT_INSTANCE
        assert fragment in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no limit on the digits of an int literal")
    def test_integer_literal_over_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"nodes": [{"id": 1, "loss": {"type": "quadratic", '
                        '"y": %s, "w": 1.0}}], "edges": []}'
                        % ("9" * (sys.get_int_max_str_digits() + 1)),
                        encoding="utf-8")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == EXIT_USAGE
        assert err.startswith("error: %s: " % path)

    def test_json_nested_too_deeply(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000, encoding="utf-8")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == EXIT_USAGE
        assert "deep.json: JSON nested too deeply" in err

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
            # float() would take all of these, or crash on them.
            (lambda o: o["nodes"][0]["loss"].update({"y": None}),
             "nodes[0].loss: quadratic target y must be a real number"),
            (lambda o: o["nodes"][0]["loss"].update({"y": "abc"}),
             "nodes[0].loss: quadratic target y must be a real number"),
            (lambda o: o["nodes"][0]["loss"].update({"y": "4"}),
             "nodes[0].loss: quadratic target y must be a real number"),
            (lambda o: o["nodes"][1]["loss"].update({"w": [1]}),
             "nodes[1].loss: quadratic weight w must be a real number"),
            (lambda o: o["nodes"][1]["loss"].update({"w": True}),
             "nodes[1].loss: quadratic weight w must be a real number"),
            (lambda o: o["nodes"][2].update(
                {"loss": {"type": "quartic", "a": 1.0, "b": 0.0, "c": " 2 "}}),
             "nodes[2].loss: linear coefficient c must be a real number"),
            # Entries past the first, so that the index in the message is
            # the entry's own.
            (lambda o: o["nodes"].__setitem__(1, 2), "nodes[1]: expected an object"),
            (lambda o: o["edges"].__setitem__(1, [1, 3]),
             "edges[1]: expected an object"),
            (lambda o: o["nodes"][2].pop("id"), "nodes[2]: missing id"),
            (lambda o: o["nodes"][1].pop("loss"), "nodes[1]: missing loss"),
            (lambda o: o["edges"][1].pop("mu"), "edges[1]: missing mu"),
            (lambda o: o["nodes"][2].update({"weight": 1, "note": ""}),
             "nodes[2]: unknown field note, weight"),
            (lambda o: o["edges"][1].update({"note": ""}),
             "edges[1]: unknown field note"),
            (lambda o: o["nodes"][1].update({"id": 2.5}),
             "nodes[1].id: expected an integer or string"),
            (lambda o: o["nodes"][2].update({"id": False}),
             "nodes[2].id: expected an integer or string"),
            (lambda o: o["nodes"][1].update({"loss": [2.0]}),
             "nodes[1].loss: loss must be an object, got [2.0]"),
            # A loss object takes only its own type's fields.
            (lambda o: o["nodes"][1]["loss"].update({"wieght": 5.0}),
             "nodes[1].loss: unknown field wieght"),
            (lambda o: o["nodes"][2].update(
                {"loss": {"type": "quartic", "a": 1.0, "b": 0.0, "c": 2.0, "y": 1.0}}),
             "nodes[2].loss: unknown field y"),
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

    @pytest.mark.parametrize("ids, pairs, root, message", [
        ([10, 20, 30], [(10, 20), (30, 30)], None, "edges[1]: self-loop at id 30"),
        (["x", "y", "z", "w"], [("x", "y"), ("z", "w"), ("w", "z")], None,
         "edges[2]: duplicate edge between ids 'w' and 'z'"),
        ([10, 20, 30, 40], [(10, 20), (20, 30), (30, 10)], None,
         "graph is disconnected (cycle elsewhere); unreachable ids [10, 20, 30]"),
        (["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "a")], "d",
         "graph is disconnected (cycle elsewhere); unreachable ids ['a', 'b', 'c']"),
    ], ids=["self-loop", "duplicate", "cycle", "cycle-string-ids"])
    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_bad_tree_named_by_file_ids(self, capsys, tmp_path, command, ids,
                                        pairs, root, message):
        obj = {
            "nodes": [{"id": v, "loss": quad(float(k))} for k, v in enumerate(ids)],
            "edges": [{"from": f, "to": t, "lambda": 1.0, "mu": 1.0}
                      for f, t in pairs],
        }
        if root is not None:
            obj["root"] = root
        path = write_instance(tmp_path, obj)
        code, out, err = run_cli(capsys, command, str(path))
        assert code == EXIT_INSTANCE and out == ""
        assert err == "error: invalid instance: %s\n" % message

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

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "1e999"])
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

    @pytest.mark.parametrize("extra", [
        ("--shape", "star", "--loss", "mixed"),
        ("--shape", "chain", "--loss", "mixed"),
        ("--shape", "star"),
        (),
    ])
    def test_isotonic_takes_only_a_quadratic_chain(self, capsys, extra):
        code, out, err = run_cli(capsys, "bench", "--n", "50", "--isotonic", *extra)
        assert code == EXIT_USAGE and out == ""
        assert "--isotonic" in err

    def test_random_shape_reps(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--shape", "random", "--n", "120", "--seed", "7",
            "--reps", "5",
        )
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 6

    def test_nan_residual_fails_verification(self, capsys, monkeypatch):
        # The solver's gate is the only check; a NaN residual never passes it.
        monkeypatch.setattr(treeiso.solver, "kkt_residual", lambda *args: float("nan"))
        code, _, err = run_cli(capsys, "bench", "--n", "5")
        assert code == EXIT_CERTIFICATE
        assert "certification failed: final residual nan" in err


@contextlib.contextmanager
def collector(enabled):
    """Run the body with the cyclic collector on or off, restoring it after."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


class TestCollectorPause:
    """`main` pauses the cyclic collector for the command and restores it
    on every way out: a return with any exit code, an exception and an
    argparse exit."""

    @pytest.mark.parametrize("argv", [
        ["solve", str(DEMO_PATH)],
        ["oracle", str(DEMO_PATH)],
        ["bench", "--n", "30", "--reps", "2"],
    ])
    def test_restored_after_success(self, capsys, argv):
        with collector(True):
            assert run_cli(capsys, *argv)[0] == EXIT_OK
            assert gc.isenabled()

    def test_restored_after_each_failure_code(self, capsys, tmp_path, monkeypatch):
        bad = dict(long_chain_instance(3), extra=1)
        cases = [
            (["solve", str(tmp_path / "absent.json")], EXIT_USAGE),
            (["solve", write_instance(tmp_path, bad, "bad.json")], EXIT_INSTANCE),
            (["oracle", write_instance(tmp_path, long_chain_instance(14))],
             EXIT_INTERNAL),
        ]
        with collector(True):
            for argv, code in cases:
                assert run_cli(capsys, *argv)[0] == code
                assert gc.isenabled(), argv
            monkeypatch.setattr(treeiso.solver, "kkt_residual",
                                lambda *args: float("nan"))
            assert run_cli(capsys, "bench", "--n", "5")[0] == EXIT_CERTIFICATE
            assert gc.isenabled()

    def test_restored_after_an_unexpected_exception(self, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_solve", broken)
        with collector(True):
            with pytest.raises(RuntimeError, match="boom"):
                main(["solve", str(DEMO_PATH)])
            assert gc.isenabled()

    def test_restored_after_a_usage_exit(self, capsys):
        with collector(True):
            with pytest.raises(SystemExit):
                main(["solve", str(DEMO_PATH), "--json", "--table"])
            assert gc.isenabled()

    def test_left_off_for_a_caller_that_paused_it(self, capsys):
        with collector(False):
            assert run_cli(capsys, "solve", str(DEMO_PATH))[0] == EXIT_OK
            assert not gc.isenabled()

    def test_paused_while_the_command_runs(self, capsys, monkeypatch):
        seen = []
        original = cli.solve_tree

        def observed(*args, **kwargs):
            seen.append(gc.isenabled())
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_tree", observed)
        with collector(True):
            assert run_cli(capsys, "solve", str(DEMO_PATH))[0] == EXIT_OK
            assert run_cli(capsys, "bench", "--n", "20", "--reps", "2")[0] == EXIT_OK
        assert seen == [False] * 3


@pytest.mark.parametrize("argv, calls", [
    (["solve", str(DEMO_PATH)], 1),
    (["solve", str(DEMO_PATH), "--table"], 1),
    (["bench", "--n", "30", "--reps", "3"], 3),
])
def test_one_certificate_per_answer(capsys, monkeypatch, argv, calls):
    """The report and the CSV carry the gate's residual; none is recomputed."""
    seen = []
    original = treeiso.solver.kkt_residual

    def counted(*args):
        seen.append(args)
        return original(*args)

    for module in (treeiso.solver, cli):
        monkeypatch.setattr(module, "kkt_residual", counted)
    code, _, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert len(seen) == calls


class TestProblemFileRoundTrip:
    """A parsed file keeps what it declared: ids, edges, weights and root,
    in dense labels whose file ids `pf.ids[k - 1]` gives."""

    def test_demo_round_trip(self):
        with open(DEMO_PATH, encoding="utf-8") as handle:
            obj = json.load(handle)
        pf = load_problem_file(str(DEMO_PATH))
        assert pf.ids == [entry["id"] for entry in obj["nodes"]]
        assert [(pf.ids[f - 1], pf.ids[t - 1]) for f, t, _, _ in pf.edges] == [
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
        assert pf.ids[pf.root - 1] == 1
        assert pf.build()[2] == pf.root

    def test_string_ids_relabelled_in_file_order(self):
        obj = {
            "nodes": [
                {"id": "leaf", "loss": quad(0.0)},
                {"id": "top", "loss": quad(1.0)},
                {"id": "mid", "loss": quad(2.0, w=3.0)},
            ],
            "edges": [
                {"from": "mid", "to": "top", "lambda": 1.0, "mu": "inf"},
                {"from": "mid", "to": "leaf", "lambda": 0.5, "mu": 2},
            ],
            "root": "top",
        }
        pf = ProblemFile.from_json(obj)
        assert pf.ids == ["leaf", "top", "mid"]
        assert pf.edges == [(3, 2, 1.0, INF), (3, 1, 0.5, 2)]
        assert pf.root == 2
        assert [(pf.ids[f - 1], pf.ids[t - 1]) for f, t, _, _ in pf.edges] == [
            ("mid", "top"), ("mid", "leaf")]
        tree, losses, root = pf.build()
        assert tree.edges == ((3, 2, 1.0, INF), (3, 1, 0.5, 2.0))
        assert losses is pf.losses and sorted(losses) == [1, 2, 3]
        assert (losses[3].w, losses[3].y) == (3.0, 2.0)
        assert root == 2

    def test_emit_json_is_valid_json(self):
        report = cli.Report(["a", 2], [2], [1], [1.0, INF], [-INF], 0.5, 0.0,
                            stats=(3, 1, [2], ["up"], [2], [0.25]))
        parsed = json.loads(emit_json(report))
        assert list(parsed) == ["x", "z", "objective", "kkt_residual", "stats"]
        assert parsed["x"] == {"a": 1.0, "2": "inf"}
        assert parsed["z"] == [{"from": 2, "to": "a", "value": "-inf"}]
        assert parsed["stats"] == {"inner_iters_total": 3, "equilibrium_calls": 1, "steps": [
            {"node": 2, "branch": "up", "iterations": 2, "t": 0.25}]}


def reference_emit(obj) -> str:
    """The recursive emitter the report format was first defined by."""
    if isinstance(obj, dict):
        return "{%s}" % ", ".join(
            "%s: %s" % (json.dumps(str(k)), reference_emit(v)) for k, v in obj.items()
        )
    if isinstance(obj, (list, tuple)):
        return "[%s]" % ", ".join(reference_emit(v) for v in obj)
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return cli.format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise AssertionError("unsupported %r" % (obj,))


def nested_report(report) -> dict:
    """The report as the nested dict it serializes, value by value."""
    ids = report.ids
    ends = [(ids[f - 1], ids[t - 1]) for f, t in zip(report.tails, report.heads)]
    out = {
        "x": {str(node_id): value for node_id, value in zip(ids, report.x)},
        "z": [{"from": f, "to": t, "value": value}
              for (f, t), value in zip(ends, report.z)],
        "objective": report.objective,
        "kkt_residual": report.residual,
    }
    if report.stats is not None:
        inner, equilibrium, nodes, branches, iterations, ts = report.stats
        out["stats"] = {
            "inner_iters_total": inner,
            "equilibrium_calls": equilibrium,
            "steps": [{"node": ids[v - 1], "branch": b, "iterations": i, "t": t}
                      for v, b, i, t in zip(nodes, branches, iterations, ts)],
        }
    if report.relations is not None:
        out["pattern"] = [{"from": f, "to": t, "relation": r}
                          for (f, t), r in zip(ends, report.relations)]
    return out


def reference_table(obj: dict) -> str:
    """The `--table` report of a nested report, line by line."""
    def table_id(node_id):
        text = str(node_id)
        return text if text.isprintable() else json.dumps(text)

    lines = ["x[%s] = %.12g" % (table_id(k), v) for k, v in obj["x"].items()]
    lines += ["z[%s -> %s] = %.12g" % (table_id(row["from"]), table_id(row["to"]),
                                       row["value"]) for row in obj["z"]]
    lines.append("objective    = %.12g" % obj["objective"])
    lines.append("kkt_residual = %.3e" % obj["kkt_residual"])
    if "stats" in obj:
        lines.append("inner iterations = %d, equilibrium calls = %d"
                     % (obj["stats"]["inner_iters_total"], obj["stats"]["equilibrium_calls"]))
    return "".join(line + "\n" for line in lines)


def table_text(report) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._print_report(report, True)
    return out.getvalue()


# Strings a `%` template or a JSON escape could get wrong; ints the loader
# accepts beyond 64 bits.  Ids must differ in their text, as the loader asks.
_ID_TEXTS = st.one_of(
    st.sampled_from(['q"uote', "back\\slash", "%", "%s", "%(x)s", "%%d", "bell\x07",
                     "new\nline", "caf\u00e9", "\u2603", "\U0001f600", ""]),
    st.text(max_size=4),
)
_IDS = st.one_of(_ID_TEXTS, st.integers(), st.sampled_from([-1, 0, 2 ** 70, -(2 ** 70)]))
_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [INF, -INF, float("nan"), -0.0, 5e-324, -5e-324, 1e308, -1e308]))
_COUNTS = st.one_of(st.integers(0, 50), st.just(2 ** 70))


@st.composite
def _reports(draw):
    ids = draw(st.lists(_IDS, min_size=1, max_size=6, unique_by=str))
    n = len(ids)
    tails, heads = [], []
    for c in range(2, n + 1):
        p = draw(st.integers(1, c - 1))
        f, t = (p, c) if draw(st.booleans()) else (c, p)
        tails.append(f)
        heads.append(t)
    floats = st.lists(_FLOATS, min_size=n, max_size=n)
    x, z = draw(floats), draw(floats)[:n - 1]
    stats = relations = None
    kind = draw(st.sampled_from(["solve", "oracle", "plain"]))
    if kind == "solve":
        m = draw(st.integers(0, n))
        stats = (draw(_COUNTS), draw(_COUNTS),
                 draw(st.lists(st.integers(1, n), min_size=m, max_size=m)),
                 draw(st.lists(st.sampled_from(["flat", "down", "up"]), min_size=m, max_size=m)),
                 draw(st.lists(_COUNTS, min_size=m, max_size=m)),
                 draw(st.lists(_FLOATS, min_size=m, max_size=m)))
    elif kind == "oracle":
        relations = draw(st.lists(st.sampled_from(["<", "=", ">"]),
                                  min_size=n - 1, max_size=n - 1))
    return cli.Report(ids, tails, heads, x, z, draw(_FLOATS), draw(_FLOATS), stats, relations)


_ONE_NODE = cli.Report(["solo"], [], [], [1.0], [], 0.0, 0.0)
_NAN = float("nan")


@pytest.mark.parametrize("report", [
    # Ids that need JSON escapes, and floats at the ends of the range.
    cli.Report(['q"\\\x07\t', "caf\u00e9", "1"], [1, 3], [2, 1],
               [0.1, -0.0, 1e308], [5e-324, -1e308], 1.5, 0.0),
    # A column with an infinity is written value by value, NaN included.
    cli.Report(["a", "b", "c", "d"], [1, 2, 3], [2, 3, 4],
               [INF, -INF, _NAN, 5e-324], [-1.5, _NAN, 0.0], INF, -INF),
    # Int ids beyond 64 bits and negative, among strings.
    cli.Report([2 ** 70, -3, 0, "\u2603"], [1, 2, 4], [2, 3, 1],
               [1.0, 2.0, 3.0, 4.0], [0.25, 0.5, 0.75], 0.0, 1e-12),
    # Ids that a `%` row template must not read as conversions.
    cli.Report(["%s", "%(x)s", "%", "%%d"], [1, 2, 3], [2, 3, 1],
               [0.5, 1.5, 2.5, 3.5], [INF, 1.0, -INF], -0.0, _NAN,
               relations=["<", "=", ">"]),
    _ONE_NODE,
    _ONE_NODE._replace(stats=(0, 0, [], [], [], [])),
    _ONE_NODE._replace(relations=[]),
    # Stats with counts beyond 64 bits and t columns with and without inf.
    cli.Report(["r", 7, "leaf"], [1, 3], [2, 2], [1.0, 1.0, 1.0], [0.0, 0.0], 2.0, 0.0,
               stats=(2 ** 70, 3, [2, 3], ["up", "flat"], [0, 2 ** 70], [INF, -0.0])),
    cli.Report(["r", "s"], [2], [1], [1.0, 2.0], [0.5], 2.0, 0.0,
               stats=(4, 1, [2, 1, 2], ["down", "flat", "up"], [1, 2, 3],
                      [0.1, 5e-324, -1e308])),
    # Only z holds an infinity; x goes through the bulk conversion.
    cli.Report(["a", "b"], [1], [2], [-0.0, _NAN], [-INF], 1.0, 1.0,
               relations=["<"]),
    # Ids that differ only in their non-ASCII or trailing text.
    cli.Report(["a", "a ", "\u00e9", "\U0001f600"], [1, 1, 1], [2, 3, 4],
               [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0], 0.0, 0.0,
               relations=["=", "=", "="]),
    # A declared edge can run from a child to its parent.
    cli.Report([10, 20, 30], [2, 3], [1, 1], [3.0, 2.0, 1.0], [1e-300, 1e300], 6.0, 0.0,
               stats=(1, 1, [2], ["down"], [1], [0.5])),
    # Values that the table's `%.12g` and the JSON's `%.17g` round differently.
    cli.Report(["p", "q"], [1], [2], [0.1 + 0.2, 1 / 3], [2 / 3], 1e-7, 123456789.123456789),
])
def test_emit_json_matches_reference(report):
    obj = nested_report(report)
    assert emit_json(report) == reference_emit(obj)
    assert table_text(report) == reference_table(obj)



@settings(max_examples=300, deadline=None)
@given(_reports())
@example(_ONE_NODE._replace(stats=(0, 0, [], [], [], [])))
@example(_ONE_NODE._replace(relations=[]))
@example(_ONE_NODE)
def test_report_writers_match_value_by_value_references(report):
    obj = nested_report(report)
    assert emit_json(report) == reference_emit(obj)
    assert table_text(report) == reference_table(obj)
