"""Command line front end.

Subcommands: `solve` runs the recursive solver on a JSON instance file,
`oracle` runs the brute-force enumeration instead, and `bench` times the
solver on generated instances and prints CSV.  Reported duals are mapped
back to the orientation the file declared, and the certificate residual
in every report is recomputed on that original orientation.

Exit codes: 0 success; 2 unreadable file, JSON syntax error or bad usage;
3 instance violates the format's invariants; 4 certification or
cross-check failure; 5 internal failure or an out-of-scope request
(oracle size cap).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Dict, List, Optional, Tuple

from .errors import (
    CertificateError,
    ContractViolationError,
    InternalInvariantError,
    MalformedInstanceError,
)
from .loss import Loss, QuarticQuadratic, WeightedQuadratic, loss_from_json
from .oracle import MAX_ORACLE_EDGES, enumerate_optimum
from .solver import (
    DEFAULT_TOL,
    SIGN_NAME,
    Problem,
    Solver,
    kkt_residual_edges,
    objective_value_edges,
)
from .tree import INF, Arborescence, DirectedTree, map_back, normalize

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INSTANCE = 3
EXIT_CERTIFICATE = 4
EXIT_INTERNAL = 5

_WEIGHT_CHOICES = (0.0, 0.5, 2.0, INF)


class _CliError(Exception):
    """Load-time failure carrying its exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# -- instance files ----------------------------------------------------------


def _parse_weight(raw, where: str) -> float:
    if raw == "inf":
        return INF
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise MalformedInstanceError(
            '%s: expected a number or "inf", got %r' % (where, raw)
        )
    value = float(raw)
    if value != value or value < 0.0:
        raise MalformedInstanceError("%s: weight %r out of range" % (where, raw))
    return value


def _check_id(value, where: str):
    """Ids are integers or strings; `True in losses` would match the id 1."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise MalformedInstanceError("%s: expected an integer or string" % where)


def _require_keys(obj: dict, required, optional, where: str):
    missing = [k for k in required if k not in obj]
    if missing:
        raise MalformedInstanceError("%s: missing %s" % (where, ", ".join(missing)))
    extra = [k for k in obj if k not in required and k not in optional]
    if extra:
        raise MalformedInstanceError(
            "%s: unknown field %s" % (where, ", ".join(sorted(extra)))
        )


class ProblemFile:
    """Parsed instance: node ids with losses, weighted edges, optional root.

    Ids are kept exactly as the file declared them; `dense_ids` maps them
    to the dense 1..n labels the tree layer requires, in file order.
    """

    def __init__(self, ids, losses, edges, root=None):
        self.ids = list(ids)
        self.dense_ids = {oid: k + 1 for k, oid in enumerate(self.ids)}
        self.losses = dict(losses)
        self.edges = list(edges)
        self.root = root

    @classmethod
    def from_json(cls, obj) -> "ProblemFile":
        if not isinstance(obj, dict):
            raise MalformedInstanceError("top level must be an object")
        _require_keys(obj, ("nodes", "edges"), ("root",), "instance")
        nodes = obj["nodes"]
        edges = obj["edges"]
        if not isinstance(nodes, list) or not nodes:
            raise MalformedInstanceError("nodes: expected a nonempty array")
        if not isinstance(edges, list):
            raise MalformedInstanceError("edges: expected an array")
        ids: List = []
        losses: Dict = {}
        keys = set()  # the report keys ids by their text, so 1 and "1" collide
        for k, entry in enumerate(nodes):
            where = "nodes[%d]" % k
            if not isinstance(entry, dict):
                raise MalformedInstanceError("%s: expected an object" % where)
            _require_keys(entry, ("id", "loss"), (), where)
            node_id = entry["id"]
            _check_id(node_id, where + ".id")
            if str(node_id) in keys:
                raise MalformedInstanceError("%s.id: duplicate id %r" % (where, node_id))
            keys.add(str(node_id))
            try:
                losses[node_id] = loss_from_json(entry["loss"])
            except MalformedInstanceError as exc:
                raise MalformedInstanceError("%s.loss: %s" % (where, exc)) from None
            ids.append(node_id)
        parsed_edges: List[Tuple] = []
        for k, entry in enumerate(edges):
            where = "edges[%d]" % k
            if not isinstance(entry, dict):
                raise MalformedInstanceError("%s: expected an object" % where)
            _require_keys(entry, ("from", "to", "lambda", "mu"), (), where)
            tail, head = entry["from"], entry["to"]
            for end, name in ((tail, "from"), (head, "to")):
                _check_id(end, "%s.%s" % (where, name))
                if end not in losses:
                    raise MalformedInstanceError(
                        "%s.%s: unknown id %r" % (where, name, end)
                    )
            lam = _parse_weight(entry["lambda"], where + ".lambda")
            mu = _parse_weight(entry["mu"], where + ".mu")
            parsed_edges.append((tail, head, lam, mu))
        root = obj.get("root")
        if root is not None:
            _check_id(root, "root")
            if root not in losses:
                raise MalformedInstanceError("root: unknown id %r" % (root,))
        return cls(ids, losses, parsed_edges, root)

    def build(self):
        """Dense relabelling: (DirectedTree, losses by dense id, dense root)."""
        dense = self.dense_ids
        tree = DirectedTree(
            len(self.ids),
            [(dense[f], dense[t], lam, mu) for f, t, lam, mu in self.edges],
        )
        losses = {dense[oid]: self.losses[oid] for oid in self.ids}
        root = dense[self.root] if self.root is not None else None
        return tree, losses, root


def load_problem_file(path: str) -> ProblemFile:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _CliError(EXIT_USAGE, "%s: %s" % (path, exc.strerror or exc))
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliError(
            EXIT_USAGE,
            "%s: line %d column %d: %s" % (path, exc.lineno, exc.colno, exc.msg),
        )
    return ProblemFile.from_json(obj)


def build_problem(tree: DirectedTree, losses: Dict[int, Loss],
                  root: Optional[int] = None) -> Problem:
    """Normalize a tree and order the losses to match its labels."""
    arb = normalize(tree, root)
    ordered = [losses[arb.original_label[k]] for k in range(1, tree.node_count + 1)]
    return Problem(arb, ordered)


# -- reports -----------------------------------------------------------------


def format_float(value: float) -> str:
    if value == INF:
        return '"inf"'
    if value == -INF:
        return '"-inf"'
    return format(value, ".17g")


def emit_json(obj) -> str:
    """Serialize with deterministic float formatting (17 significant digits)."""
    if isinstance(obj, dict):
        inner = ", ".join(
            "%s: %s" % (json.dumps(str(k)), emit_json(v)) for k, v in obj.items()
        )
        return "{%s}" % inner
    if isinstance(obj, (list, tuple)):
        return "[%s]" % ", ".join(emit_json(v) for v in obj)
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise ContractViolationError("cannot serialize %r" % (obj,))


def solution_report(pf: ProblemFile, tree: DirectedTree, losses: Dict[int, Loss],
                    arb: Arborescence, x_norm, z_norm) -> dict:
    """Map a normalized pair back to file ids and re-certify it there.

    `tree` and `losses` are the dense-labelled instance `pf.build` returned.
    """
    dense_ids = pf.dense_ids
    x_dense, z_dense = map_back(arb, x_norm, z_norm)
    x_out = {str(oid): x_dense[dense_ids[oid]] for oid in pf.ids}
    z_out = [
        {"from": f, "to": t, "value": z_dense[(dense_ids[f], dense_ids[t])]}
        for f, t, _, _ in pf.edges
    ]
    loss_of = losses.__getitem__
    return {
        "x": x_out,
        "z": z_out,
        "objective": objective_value_edges(tree.edges, loss_of, x_dense),
        "kkt_residual": kkt_residual_edges(tree.edges, loss_of, x_dense, z_dense),
    }


def _print_report(report: dict, as_table: bool):
    if not as_table:
        print(emit_json(report))
        return
    for key, value in report["x"].items():
        print("x[%s] = %.12g" % (key, value))
    for row in report["z"]:
        print("z[%s -> %s] = %.12g" % (row["from"], row["to"], row["value"]))
    print("objective    = %.12g" % report["objective"])
    print("kkt_residual = %.3e" % report["kkt_residual"])
    if "stats" in report:
        stats = report["stats"]
        print("inner iterations = %d, equilibrium calls = %d"
              % (stats["inner_iters_total"], stats["equilibrium_calls"]))


# -- commands ----------------------------------------------------------------


def cmd_solve(args) -> int:
    pf = load_problem_file(args.path)
    tree, losses, root = pf.build()
    problem = build_problem(tree, losses, root)
    solver = Solver(problem, tol=args.tol)
    x, z, stats = solver.solve()
    if args.oracle_check:
        if len(pf.edges) > MAX_ORACLE_EDGES:
            print(
                "note: %d edges exceeds the oracle cap of %d, cross-check skipped"
                % (len(pf.edges), MAX_ORACLE_EDGES),
                file=sys.stderr,
            )
        else:
            x_ref, _, _ = enumerate_optimum(problem, tol=args.tol)
            gap = max(abs(x[v] - x_ref[v]) for v in x)
            if gap > 1e-6:
                raise CertificateError(
                    "solver and enumeration disagree: max |dx| = %.3e" % gap
                )
    report = solution_report(pf, tree, losses, problem.arb, x, z)
    label = problem.arb.original_label
    report["stats"] = {
        "inner_iters_total": stats.inner_iters_total,
        "equilibrium_calls": stats.equilibrium_total,
        "steps": [
            {
                "node": pf.ids[label[rec.node] - 1],
                "branch": rec.branch,
                "iterations": rec.iterations,
                "t": rec.t_star,
            }
            for rec in stats.steps
        ],
    }
    _print_report(report, args.table)
    return EXIT_OK


def cmd_oracle(args) -> int:
    pf = load_problem_file(args.path)
    tree, losses, root = pf.build()
    problem = build_problem(tree, losses, root)
    x, z, pattern = enumerate_optimum(problem)
    report = solution_report(pf, tree, losses, problem.arb, x, z)
    # Signs flip with the edge, as duals do.
    _, relations = map_back(problem.arb, x, pattern)
    dense_ids = pf.dense_ids
    report["pattern"] = [
        {
            "from": f,
            "to": t,
            "relation": SIGN_NAME[relations[(dense_ids[f], dense_ids[t])]],
        }
        for f, t, _, _ in pf.edges
    ]
    _print_report(report, args.table)
    return EXIT_OK


def random_problem(shape: str, n: int, seed: int, loss_kind: str = "quadratic",
                   isotonic: bool = False):
    """Deterministic random instance: (DirectedTree, losses by node id).

    Shapes: chain (1 - 2 - ... - n), star (all nodes hang off node 1) and
    random (uniform parent, orientation flipped with probability one half).
    Weights are drawn from {0, 0.5, 2, inf} uniformly; targets from
    U[0, 10].  With `isotonic` the targets are sorted ascending and every
    edge gets (lambda, mu) = (inf, 0): a hard nondecreasing chain.
    """
    if n < 1:
        raise ContractViolationError("n must be at least 1")
    rng = random.Random(seed)
    edges = []
    for child in range(2, n + 1):
        if shape == "chain":
            parent = child - 1
        elif shape == "star":
            parent = 1
        elif shape == "random":
            parent = rng.randint(1, child - 1)
        else:
            raise ContractViolationError("unknown shape %r" % (shape,))
        lam = rng.choice(_WEIGHT_CHOICES)
        mu = rng.choice(_WEIGHT_CHOICES)
        if shape == "random" and rng.random() < 0.5:
            edges.append((child, parent, lam, mu))
        else:
            edges.append((parent, child, lam, mu))
    losses: Dict[int, Loss] = {}
    for v in range(1, n + 1):
        if loss_kind == "mixed" and rng.random() < 0.3:
            losses[v] = QuarticQuadratic(
                rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0), rng.uniform(-5.0, 5.0)
            )
        elif loss_kind in ("mixed", "quadratic"):
            losses[v] = WeightedQuadratic(rng.uniform(0.5, 3.0), rng.uniform(0.0, 10.0))
        else:
            raise ContractViolationError("unknown loss kind %r" % (loss_kind,))
    if isotonic:
        targets = sorted(rng.uniform(0.0, 10.0) for _ in range(n))
        losses = {v: WeightedQuadratic(1.0, targets[v - 1]) for v in range(1, n + 1)}
        edges = [(i, i + 1, INF, 0.0) for i in range(1, n)]
    return DirectedTree(n, edges), losses


def cmd_bench(args) -> int:
    if args.n < 1:
        print("error: --n must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.reps < 1:
        print("error: --reps must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    rows = []
    for rep in range(args.reps):
        seed = args.seed + rep
        tree, losses = random_problem(
            args.shape, args.n, seed, args.loss, isotonic=args.isotonic
        )
        problem = build_problem(tree, losses)
        started = time.perf_counter()
        x, z, stats = Solver(problem, tol=args.tol).solve()
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        x_orig, z_orig = map_back(problem.arb, x, z)
        residual = kkt_residual_edges(
            tree.edges, lambda v: losses[v], x_orig, z_orig
        )
        if residual > args.tol:
            print(
                "error: seed %d failed verification: residual %.3e" % (seed, residual),
                file=sys.stderr,
            )
            return EXIT_CERTIFICATE
        rows.append((args.n, args.shape, elapsed_ms,
                     stats.inner_iters_total, residual))
    print("n,shape,wall_time_ms,inner_iters_total,kkt_residual")
    for n, shape, ms, iters, residual in rows:
        print("%d,%s,%.3f,%d,%.3e" % (n, shape, ms, iters, residual))
    return EXIT_OK


# -- entry point ---------------------------------------------------------------


def _tolerance(raw: str) -> float:
    """argparse type for --tol: a nonnegative number (NaN certifies nothing)."""
    value = float(raw)
    if not value >= 0.0:
        raise argparse.ArgumentTypeError("must be a nonnegative number, got %r" % raw)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeiso",
        description="Convex separable optimization with ordering penalties on a tree.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("path", help="instance JSON file")
    p_solve.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                         help="certificate gate (default %(default)g)")
    group = p_solve.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="JSON report (default)")
    group.add_argument("--table", action="store_true", help="human-readable report")
    p_solve.add_argument("--oracle-check", action="store_true",
                         help="cross-check against enumeration (small instances)")
    p_solve.set_defaults(func=cmd_solve)

    p_oracle = sub.add_parser("oracle", help="solve by brute-force enumeration")
    p_oracle.add_argument("path", help="instance JSON file")
    p_oracle.add_argument("--table", action="store_true",
                          help="human-readable report")
    p_oracle.set_defaults(func=cmd_oracle)

    p_bench = sub.add_parser("bench", help="time the solver on generated instances")
    p_bench.add_argument("--shape", choices=("chain", "star", "random"),
                         default="random")
    p_bench.add_argument("--n", type=int, default=100)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--loss", choices=("quadratic", "mixed"),
                         default="quadratic")
    p_bench.add_argument("--reps", type=int, default=1)
    p_bench.add_argument("--isotonic", action="store_true",
                         help="chain with sorted targets and hard ordering")
    p_bench.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except MalformedInstanceError as exc:
        print("error: invalid instance: %s" % exc, file=sys.stderr)
        return EXIT_INSTANCE
    except CertificateError as exc:
        print("error: certification failed: %s" % exc, file=sys.stderr)
        return EXIT_CERTIFICATE
    except (InternalInvariantError, ContractViolationError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
