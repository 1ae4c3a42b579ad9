"""The benchmark's only point of contact with the program under test.

Every program name the benchmark uses is resolved by `entry`, at call
time, from the `treeiso` package in the checkout's `src/`.  When the
program's API changes, this file is the one to update; the flows below
spell out exactly which public calls each kind of workload times.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import sys

MODULES = ("tree", "loss", "solver", "oracle", "cli")


class ProgramMissing(Exception):
    """The checkout holds no importable program."""


def load(root: str):
    """Import treeiso and its modules from `root`/src and return the package."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "treeiso", "__init__.py")):
        raise ProgramMissing("no treeiso package under %s" % src)
    sys.path.insert(0, src)
    package = importlib.import_module("treeiso")
    if not os.path.abspath(package.__file__).startswith(src + os.sep):
        raise ProgramMissing("imported treeiso from %s, not from %s"
                             % (package.__file__, src))
    for name in MODULES:
        importlib.import_module("treeiso." + name)
    return package


def entry(name: str):
    """Resolve "module.attr" or "module.Class.attr" inside treeiso."""
    module, _, path = name.partition(".")
    obj = sys.modules["treeiso." + module]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


# -- inputs, built through the program's constructors -------------------------


def build_library_input(inst):
    """(DirectedTree, losses by node id) for a generated instance."""
    losses = {}
    for v, params in enumerate(inst.losses, start=1):
        if params[0] == "quadratic":
            losses[v] = entry("loss.WeightedQuadratic")(params[1], params[2])
        else:
            losses[v] = entry("loss.QuarticQuadratic")(*params[1:])
    return entry("tree.DirectedTree")(inst.n, inst.edges), losses


# -- the timed flows ------------------------------------------------------------


def solve_library(tree, losses):
    """normalize -> Problem -> Solver.solve (with its certificate gate) -> map_back.

    Returns x and z in the caller's orientation, plus the solve stats.
    """
    arb = entry("tree.normalize")(tree, None)
    label = arb.original_label
    problem = entry("solver.Problem")(
        arb, [losses[label[k]] for k in range(1, tree.node_count + 1)]
    )
    x, z, stats = entry("solver.Solver")(problem).solve()
    x_out, z_out = entry("tree.map_back")(arb, x, z)
    return x_out, z_out, stats


def solve_cli(path: str):
    """`treeiso solve PATH` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry("cli.main")(["solve", path])
        except SystemExit as exc:
            code = exc.code
    return code, out, err


# -- reference, never timed -------------------------------------------------------


def pava(values):
    return entry("oracle.pava")(values)
