"""Golden digests: solver and CLI outputs pinned bit for bit.

A refactor must leave every digest here unchanged.  A change that means to
alter outputs updates the digests and says why in CHANGES.md.

Each solve digest covers x, z, the StepRecord fields named in
`STEP_FIELDS` and final_residual, with floats written as float.hex().
The instances use only quadratic and quartic losses: their arithmetic
never goes through float sum(), whose rounding changed in Python 3.12.
A quadratic digest pins IEEE basic operations alone.  A mixed one (and
the escaped-ids report, which has quartic nodes) also depends on the
platform's libm: `poly_inverse` roots a cubic through `math.asinh` and
`math.sinh`, which CPython takes from the C library.  The values below
were the same under CPython 3.10 to 3.13 on x86-64 Linux with glibc
2.36; another libm may round those two functions differently.

The oracle is pinned by its sign patterns, which are discrete, and by the
demo's `treeiso oracle` output.  Its x on other instances moves with the
rounding of every pooled inverse, so it is not pinned.

The benchmark's library workloads are pinned on their own generator's
instances (`perfbench/gen.py`, loaded from its file and never changed
here), so that a change which keeps the digests above but alters the
benchmark's solves shows up here.

The CLI's report bytes are pinned beyond the demo too: a long sorted hard
chain, a random tree whose ids mix integers with strings that need JSON
escapes, the oracle's report on a small instance with string ids, and a
one-node file, whose z, steps and pattern are empty, in both formats.
"""

import functools
import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from conftest import DEMO_PATH
from treeiso.api import build_problem, random_problem
from treeiso.cli import main
from treeiso.loss import QuarticQuadratic, WeightedQuadratic
from treeiso.oracle import enumerate_optimum
from treeiso.solver import Solver
from treeiso.tree import DirectedTree

N = 40

# The StepRecord fields a solve digest encodes, named so that a field added
# to StepRecord leaves the digests as they are.
STEP_FIELDS = ("node", "branch", "iterations", "iteration_cap", "equilibrium_calls",
               "t_star", "attach_derivative", "t_path")

SOLVE_DIGESTS = {
    ("random", "quadratic", 1): "d9fda402868c7c2a",
    ("random", "quadratic", 2): "e2ec30f464d041c8",
    ("random", "mixed", 1): "50411e8b3d95ad5b",
    ("random", "mixed", 2): "53b194a05b6edc10",
    ("star", "quadratic", 1): "d8a68c33ed42f54a",
    ("star", "quadratic", 2): "2ea24ccc54e7b563",
    ("star", "mixed", 1): "9861b63df4cf02f2",
    ("star", "mixed", 2): "7c590bf879493903",
    ("chain", "quadratic", 1): "7d4b17a8c924110c",
    ("chain", "quadratic", 2): "c18b76967f6744b1",
    ("chain", "mixed", 1): "105f11ac580dc9fd",
    ("chain", "mixed", 2): "70d81ae88ec7aebb",
}

# The step structure of the same solves, apart from the float bits: per
# StepRecord (node, branch, iterations, iteration_cap, equilibrium_calls).
# A change of summation order may move the digests above, never these.
STEP_SHAPE_DIGESTS = {
    ("random", "quadratic", 1): "4f74a82609c3080f",
    ("random", "quadratic", 2): "09146c45c1956d81",
    ("random", "mixed", 1): "4b5429616697a848",
    ("random", "mixed", 2): "edc0dc384ddf823f",
    ("star", "quadratic", 1): "fae6c633be6c2b64",
    ("star", "quadratic", 2): "8f1036d711b2b85a",
    ("star", "mixed", 1): "99d0990ad3b927c4",
    ("star", "mixed", 2): "59e132637fa58b42",
    ("chain", "quadratic", 1): "765ddda99730c170",
    ("chain", "quadratic", 2): "20b183b5dde336d8",
    ("chain", "mixed", 1): "01ee037972c9fa57",
    ("chain", "mixed", 2): "fc7aef9c4a09a936",
}

# Instances 0-2 of seed 1 of each library workload in perfbench/gen.py.
GEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
BENCH_SEED = 1
BENCH_DIGESTS = {
    ("random-quadratic", 0): "f4f1ca8f1646c5b1",
    ("random-quadratic", 1): "ceb63c18e0c0df63",
    ("random-quadratic", 2): "afd8b7a109faab84",
    ("star-quadratic", 0): "386cdb38fd21f921",
    ("star-quadratic", 1): "83990405d222f04e",
    ("star-quadratic", 2): "287939835fa30a43",
    ("star-mixed", 0): "bd55cbbc4ff04ec0",
    ("star-mixed", 1): "7fe0c71796a64680",
    ("star-mixed", 2): "9cbbf75bf5b46852",
}

DEMO_SOLVE_JSON_DIGEST = "d2aac72c9f3ab8a6"

# enumerate_optimum's sign patterns on the SOLVE_DIGESTS instances at n = 8.
ORACLE_N = 8
ORACLE_PATTERNS_DIGEST = "defdb619946a307d"
DEMO_ORACLE_STDOUT_DIGEST = "7f24ee5d5c56d082"

# `treeiso solve` stdout on generated instance files (see the builders below).
CHAIN_FILE_N = 2000
CHAIN_SOLVE_JSON_DIGEST = "84cf1089c2900001"
CHAIN_SOLVE_TABLE_DIGEST = "6fadb5a32696fb5d"
MIXED_IDS_N = 300
MIXED_IDS_SOLVE_JSON_DIGEST = "d4007db99a7f87f6"
MIXED_IDS_SOLVE_TABLE_DIGEST = "959fcb9df7b208bc"
STRING_IDS_ORACLE_STDOUT_DIGEST = "700a9af358db247d"
STRING_IDS_ORACLE_TABLE_DIGEST = "42237e49e85caf54"
DEMO_ORACLE_TABLE_DIGEST = "c30fca25a2a6bd90"

ONE_NODE_INSTANCE = {
    "nodes": [{"id": "solo", "loss": {"type": "quadratic", "y": 1.0, "w": 1.0}}],
    "edges": [],
}
ONE_NODE_DIGESTS = {
    ("solve",): "1401f7e98409df5f",
    ("solve", "--table"): "00464457e457990d",
    ("oracle",): "88e928b895b7a9d6",
    ("oracle", "--table"): "1f27634cfef1bea6",
}

# A quote, a backslash, a non-ASCII letter, a control character and a tab.
ESCAPED_NAMES = ('say "hi"', "back\\slash", "caf\u00e9", "bell\x07", "tab\tstop")
FILE_WEIGHTS = (0.0, 0.5, 2.0, "inf")


def encode(value) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return "(%s)" % ",".join(encode(v) for v in value)
    return repr(value)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def problem_digest(problem) -> str:
    x, z, stats = Solver(problem).solve()
    lines = ["x %d %s" % (v, encode(x[v])) for v in sorted(x)]
    lines += ["z %d %d %s" % (i, j, encode(z[(i, j)])) for i, j in sorted(z)]
    for rec in stats.steps:
        lines.append(" ".join(encode(getattr(rec, name)) for name in STEP_FIELDS))
    lines.append("residual %s" % encode(stats.final_residual))
    return digest(lines)


def solve_digest(shape: str, loss_kind: str, seed: int) -> str:
    tree, losses = random_problem(shape, N, seed, loss_kind)
    return problem_digest(build_problem(tree, losses))


@pytest.mark.parametrize("shape, loss_kind, seed", sorted(SOLVE_DIGESTS))
def test_solve_digest(shape, loss_kind, seed):
    assert solve_digest(shape, loss_kind, seed) == SOLVE_DIGESTS[(shape, loss_kind, seed)]


@functools.lru_cache(maxsize=None)
def load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks the module up
    spec.loader.exec_module(module)
    return module


def bench_problem(workload: str, index: int):
    """Instance `index` of a library workload, built as the benchmark builds it."""
    gen = load_gen()
    inst = gen.generate(gen.WORKLOADS[workload], BENCH_SEED, index)
    losses = {v: (WeightedQuadratic(*params[1:]) if params[0] == "quadratic"
                  else QuarticQuadratic(*params[1:]))
              for v, params in enumerate(inst.losses, start=1)}
    return build_problem(DirectedTree(inst.n, inst.edges), losses)


@pytest.mark.parametrize("workload, index", sorted(BENCH_DIGESTS))
def test_bench_instance_digest(workload, index):
    assert problem_digest(bench_problem(workload, index)) == BENCH_DIGESTS[(workload, index)]


def step_shape_digest(shape: str, loss_kind: str, seed: int) -> str:
    tree, losses = random_problem(shape, N, seed, loss_kind)
    _, _, stats = Solver(build_problem(tree, losses)).solve()
    return digest(["%d %s %d %d %d" % (rec.node, rec.branch, rec.iterations,
                                       rec.iteration_cap, rec.equilibrium_calls)
                   for rec in stats.steps])


@pytest.mark.parametrize("shape, loss_kind, seed", sorted(STEP_SHAPE_DIGESTS))
def test_step_shape_digest(shape, loss_kind, seed):
    assert (step_shape_digest(shape, loss_kind, seed)
            == STEP_SHAPE_DIGESTS[(shape, loss_kind, seed)])


def test_demo_solve_json_digest(capsys):
    assert main(["solve", str(DEMO_PATH)]) == 0
    assert digest([capsys.readouterr().out]) == DEMO_SOLVE_JSON_DIGEST


def test_oracle_patterns_digest():
    lines = []
    for shape, loss_kind, seed in sorted(SOLVE_DIGESTS):
        tree, losses = random_problem(shape, ORACLE_N, seed, loss_kind)
        _, _, pattern = enumerate_optimum(build_problem(tree, losses))
        lines += ["%s %s %d %d %d %d" % (shape, loss_kind, seed, i, j, pattern[(i, j)])
                  for i, j in sorted(pattern)]
    assert digest(lines) == ORACLE_PATTERNS_DIGEST


def test_demo_oracle_stdout_digest(capsys):
    assert main(["oracle", str(DEMO_PATH)]) == 0
    assert digest([capsys.readouterr().out]) == DEMO_ORACLE_STDOUT_DIGEST


def test_demo_oracle_table_digest(capsys):
    assert main(["oracle", str(DEMO_PATH), "--table"]) == 0
    assert digest([capsys.readouterr().out]) == DEMO_ORACLE_TABLE_DIGEST


def write_instance(tmp_path, obj) -> str:
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def sorted_chain_instance(n: int) -> dict:
    """The `--isotonic` chain of `random_problem`, as an instance file."""
    tree, losses = random_problem("chain", n, 5, isotonic=True)
    return {
        "nodes": [{"id": v, "loss": {"type": "quadratic", "y": losses[v].y,
                                     "w": losses[v].w}}
                  for v in range(1, n + 1)],
        "edges": [{"from": i, "to": j, "lambda": "inf", "mu": mu}
                  for i, j, _, mu in tree.edges],
    }


def escaped_ids_instance(n: int, seed: int, quartic_share: float) -> dict:
    """A random tree; every third id is a string that needs escaping.

    Edges take either orientation and weights from {0, 0.5, 2, "inf"}; node
    7 (when present) has the target -0.0, and the root is a string id.
    """
    rng = random.Random(seed)
    ids = [v if v % 3 else "%s %d" % (ESCAPED_NAMES[v % len(ESCAPED_NAMES)], v)
           for v in range(1, n + 1)]
    nodes = []
    for v, oid in enumerate(ids, start=1):
        if v == 7:
            loss = {"type": "quadratic", "y": -0.0, "w": 1.0}
        elif rng.random() < quartic_share:
            loss = {"type": "quartic", "a": rng.uniform(0.5, 2.0),
                    "b": rng.uniform(0.0, 1.0), "c": rng.uniform(-5.0, 5.0)}
        else:
            loss = {"type": "quadratic", "y": rng.uniform(0.0, 10.0),
                    "w": rng.uniform(0.5, 3.0)}
        nodes.append({"id": oid, "loss": loss})
    edges = []
    for child in range(2, n + 1):
        parent = rng.randint(1, child - 1)
        tail, head = (child, parent) if rng.random() < 0.5 else (parent, child)
        edges.append({"from": ids[tail - 1], "to": ids[head - 1],
                      "lambda": rng.choice(FILE_WEIGHTS),
                      "mu": rng.choice(FILE_WEIGHTS)})
    return {"nodes": nodes, "edges": edges, "root": ids[2]}


def cli_stdout_digest(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return digest([capsys.readouterr().out])


@pytest.mark.parametrize("flag, expected", [
    ("--json", CHAIN_SOLVE_JSON_DIGEST),
    ("--table", CHAIN_SOLVE_TABLE_DIGEST),
])
def test_sorted_chain_solve_digest(capsys, tmp_path, flag, expected):
    path = write_instance(tmp_path, sorted_chain_instance(CHAIN_FILE_N))
    assert cli_stdout_digest(capsys, "solve", path, flag) == expected


def test_escaped_ids_solve_json_digest(capsys, tmp_path):
    path = write_instance(tmp_path, escaped_ids_instance(MIXED_IDS_N, 11, 0.2))
    assert cli_stdout_digest(capsys, "solve", path) == MIXED_IDS_SOLVE_JSON_DIGEST


def test_escaped_ids_solve_table_digest(capsys, tmp_path):
    path = write_instance(tmp_path, escaped_ids_instance(MIXED_IDS_N, 11, 0.2))
    assert cli_stdout_digest(capsys, "solve", path, "--table") == MIXED_IDS_SOLVE_TABLE_DIGEST


def test_string_ids_oracle_stdout_digest(capsys, tmp_path):
    path = write_instance(tmp_path, escaped_ids_instance(8, 4, 0.0))
    assert cli_stdout_digest(capsys, "oracle", path) == STRING_IDS_ORACLE_STDOUT_DIGEST


def test_string_ids_oracle_table_digest(capsys, tmp_path):
    path = write_instance(tmp_path, escaped_ids_instance(8, 4, 0.0))
    assert cli_stdout_digest(capsys, "oracle", path, "--table") == STRING_IDS_ORACLE_TABLE_DIGEST


@pytest.mark.parametrize("argv", sorted(ONE_NODE_DIGESTS))
def test_one_node_report_digest(capsys, tmp_path, argv):
    path = write_instance(tmp_path, ONE_NODE_INSTANCE)
    command, flags = argv[0], argv[1:]
    assert cli_stdout_digest(capsys, command, path, *flags) == ONE_NODE_DIGESTS[argv]
