"""Command line front end.

Subcommands: `solve` runs the recursive solver on a JSON instance file,
`oracle` runs the brute-force enumeration instead, and `bench` times the
solver on generated instances and prints CSV.  `solve` and `oracle` put
their pair into one report of columns by the file's nodes and declared
edges, in the file's orientation, which the JSON writer and the `--table`
writer both read.  The certificate residual in every report is the one
computed in solver labels, by the solver's gate for `solve` and `bench`:
`map_back` only relabels nodes and flips the sign of a flipped edge's
dual, which keeps the residual up to the order in which each node's
incident duals are summed.

Exit codes: 0 success; 2 unreadable file (not UTF-8, or nested too
deeply), JSON syntax error, an over-long integer literal or bad usage;
3 instance violates the format's invariants; 4 certification or
cross-check failure; 5 internal failure or an out-of-scope request
(oracle size cap).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from .api import build_problem, random_problem, solve_tree
from .errors import (
    CertificateError,
    ContractViolationError,
    InternalInvariantError,
    MalformedInstanceError,
)
from .loss import Loss, loss_from_json
from .oracle import MAX_ORACLE_EDGES, enumerate_optimum
from .solver import DEFAULT_TOL, SIGN_NAME, kkt_residual, objective_value
from .tree import INF, DirectedTree, check_weight, map_back

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INSTANCE = 3
EXIT_CERTIFICATE = 4
EXIT_INTERNAL = 5


class _CliError(Exception):
    """Load-time failure carrying its exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# -- instance files ----------------------------------------------------------


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


# A well-formed entry passes one test on its exact type and key set; only
# an entry that fails it is taken through the checks that word the error.
_ID_TYPES = (int, str)
_NODE_FIELDS = ("id", "loss")
_EDGE_FIELDS = ("from", "to", "lambda", "mu")
_NODE_KEYS = frozenset(_NODE_FIELDS)
_EDGE_KEYS = frozenset(_EDGE_FIELDS)


def _check_node(entry, where: str):
    if not isinstance(entry, dict):
        raise MalformedInstanceError("%s: expected an object" % where)
    _require_keys(entry, _NODE_FIELDS, (), where)
    _check_id(entry["id"], where + ".id")


def _check_edge(entry, where: str, label: dict):
    if not isinstance(entry, dict):
        raise MalformedInstanceError("%s: expected an object" % where)
    _require_keys(entry, _EDGE_FIELDS, (), where)
    for name in ("from", "to"):
        end = entry[name]
        _check_id(end, "%s.%s" % (where, name))
        if end not in label:
            raise MalformedInstanceError("%s.%s: unknown id %r" % (where, name, end))


class ProblemFile:
    """Parsed instance in dense labels: node k is the file's k-th node.

    `ids[k - 1]` is the id the file declared for node k.  `losses` maps
    each node 1..n to its loss, `edges` holds (from, to, lambda, mu) with
    both ends as node labels, and `root` is a node label or None.  The file
    is relabelled once, as it is read, so `build` passes all of these on.
    """

    def __init__(self, ids, losses, edges, root=None):
        self.ids = ids
        self.losses = losses
        self.edges = edges
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
        label: Dict = {}  # the file's id -> its node label
        losses: Dict[int, Loss] = {}
        keys = set()  # the report keys ids by their text, so 1 and "1" collide
        for k, entry in enumerate(nodes):
            if not (type(entry) is dict and entry.keys() == _NODE_KEYS
                    and type(entry["id"]) in _ID_TYPES):
                _check_node(entry, "nodes[%d]" % k)
            node_id = entry["id"]
            text = str(node_id)
            if text in keys:
                raise MalformedInstanceError(
                    "nodes[%d].id: duplicate id %r" % (k, node_id))
            keys.add(text)
            try:
                losses[k + 1] = loss_from_json(entry["loss"])
            except MalformedInstanceError as exc:
                raise MalformedInstanceError("nodes[%d].loss: %s" % (k, exc)) from None
            label[node_id] = k + 1
            ids.append(node_id)
        parsed_edges: List[Tuple] = []
        for k, entry in enumerate(edges):
            if not (type(entry) is dict and entry.keys() == _EDGE_KEYS
                    and type(entry["from"]) in _ID_TYPES
                    and type(entry["to"]) in _ID_TYPES
                    and entry["from"] in label and entry["to"] in label):
                _check_edge(entry, "edges[%d]" % k, label)
            # The file's "inf" is infinity; `DirectedTree` checks every weight.
            lam, mu = entry["lambda"], entry["mu"]
            parsed_edges.append((label[entry["from"]], label[entry["to"]],
                                 INF if lam == "inf" else lam,
                                 INF if mu == "inf" else mu))
        root = obj.get("root")
        if root is not None:
            _check_id(root, "root")
            if root not in label:
                raise MalformedInstanceError("root: unknown id %r" % (root,))
            root = label[root]
        return cls(ids, losses, parsed_edges, root)

    def build(self):
        """(DirectedTree, losses by node, root) for the solver's front end.

        An edge the tree rejects is reported by its index and the file's ids.
        """
        try:
            tree = DirectedTree(len(self.ids), self.edges)
        except MalformedInstanceError:
            ids = self.ids
            pairs = set()
            for k, (f, t, lam, mu) in enumerate(self.edges):
                if f == t:
                    raise MalformedInstanceError(
                        "edges[%d]: self-loop at id %r" % (k, ids[f - 1])) from None
                if frozenset((f, t)) in pairs:
                    raise MalformedInstanceError(
                        "edges[%d]: duplicate edge between ids %r and %r"
                        % (k, ids[f - 1], ids[t - 1])) from None
                pairs.add(frozenset((f, t)))
                for name, value in (("lambda", lam), ("mu", mu)):
                    try:
                        check_weight(value, name, (f, t))
                    except MalformedInstanceError:
                        raise MalformedInstanceError(
                            'edges[%d].%s: weight %r out of range: expected a '
                            'nonnegative number or "inf"' % (k, name, value)
                        ) from None
            raise
        return tree, self.losses, self.root

    def in_file_ids(self, exc: MalformedInstanceError) -> MalformedInstanceError:
        """`normalize`'s disconnection error naming the file's ids, or exc."""
        if not hasattr(exc, "unreachable"):
            return exc
        return MalformedInstanceError(
            "graph is disconnected (cycle elsewhere); unreachable ids %s"
            % [self.ids[v - 1] for v in exc.unreachable])


def load_problem_file(path: str) -> ProblemFile:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(EXIT_USAGE, "%s: %s" % (path, getattr(exc, "strerror", None) or exc))
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliError(
            EXIT_USAGE,
            "%s: line %d column %d: %s" % (path, exc.lineno, exc.colno, exc.msg),
        )
    except RecursionError:
        raise _CliError(EXIT_USAGE, "%s: JSON nested too deeply" % path)
    except ValueError as exc:  # an integer literal over int's digit limit
        raise _CliError(EXIT_USAGE, "%s: %s" % (path, exc))
    return ProblemFile.from_json(obj)


# -- reports -----------------------------------------------------------------


def format_float(value: float) -> str:
    if value == INF:
        return '"inf"'
    if value == -INF:
        return '"-inf"'
    return format(value, ".17g")


# What `json.dumps` writes for a str with its default ensure_ascii.
_encode_str = json.encoder.encode_basestring_ascii


class Report(NamedTuple):
    """A pair as columns: node k's id and x at k - 1, each declared edge's
    from and to labels and z in file order; `solve`'s stats (inner_iters_total,
    equilibrium_calls, then node label, branch, iterations and t columns per
    step) or `oracle`'s relation per declared edge."""

    ids: list
    tails: list
    heads: list
    x: list
    z: list
    objective: float
    residual: float
    stats: Optional[tuple] = None
    relations: Optional[list] = None


def _floats(values):
    """A `%` conversion and its arguments for a float column: `%.17g` in C,
    or `format_float` value by value when the column holds an infinity."""
    if INF in values or -INF in values:
        return "%s", map(format_float, values)
    return "%.17g", values


def _rows(template: str, *columns) -> str:
    return ", ".join(map(template.__mod__, zip(*columns)))


def emit_json(report: Report) -> str:
    """Serialize with deterministic float formatting (17 significant digits).

    Keys come in a fixed order: x, z, objective, kkt_residual, then stats or
    pattern.  Infinities are written as the strings "inf" and "-inf"; an id
    is its JSON string when it is a str and its digits when it is an int,
    and x's keys are the ids' text.  Strings are ASCII-escaped as
    `json.dumps` escapes them, and items are separated by ", " and ": ".
    Each array's objects are written through one row template.
    """
    texts = [_encode_str(i) if type(i) is str else str(i) for i in report.ids]
    tails = [texts[f - 1] for f in report.tails]
    heads = [texts[t - 1] for t in report.heads]
    conversion, x = _floats(report.x)
    parts = ['{"x": {%s}' % _rows("%s: " + conversion,
                                  map(_encode_str, map(str, report.ids)), x)]
    conversion, z = _floats(report.z)
    parts.append('"z": [%s]' % _rows(
        '{"from": %s, "to": %s, "value": ' + conversion + "}", tails, heads, z))
    parts.append('"objective": ' + format_float(report.objective))
    parts.append('"kkt_residual": ' + format_float(report.residual))
    if report.stats is not None:
        inner, equilibrium, nodes, branches, iterations, ts = report.stats
        conversion, ts = _floats(ts)
        steps = _rows('{"node": %s, "branch": %s, "iterations": %d, "t": '
                      + conversion + "}", [texts[v - 1] for v in nodes],
                      map(_encode_str, branches), iterations, ts)
        parts.append('"stats": {"inner_iters_total": %d, "equilibrium_calls": %d, '
                     '"steps": [%s]}' % (inner, equilibrium, steps))
    if report.relations is not None:
        parts.append('"pattern": [%s]' % _rows(
            '{"from": %s, "to": %s, "relation": %s}', tails, heads,
            map(_encode_str, report.relations)))
    return ", ".join(parts) + "}"


def solution_report(pf: ProblemFile, tree: DirectedTree, losses: Dict[int, Loss],
                    x, z, residual: float, stats=None, relations=None) -> Report:
    """A pair's columns by the file's nodes and declared edges, and its objective.

    `tree` and `losses` are the dense-labelled instance `pf.build` returned,
    (x, z) is a pair in its labels and orientation, and `residual` is its
    `kkt_residual` as computed in solver labels (`map_back` keeps it).
    `solve` passes its `SolveStats`, `oracle` its signs by declared edge.
    """
    tails = [f for f, _, _, _ in pf.edges]
    heads = [t for _, t, _, _ in pf.edges]
    if stats is not None:
        steps = stats.steps
        iterations = [rec.iterations for rec in steps]
        stats = (sum(iterations), stats.equilibrium_total,
                 [rec.node for rec in steps], [rec.branch for rec in steps],
                 iterations, [rec.t_star for rec in steps])
    if relations is not None:
        relations = [SIGN_NAME[relations[edge]] for edge in zip(tails, heads)]
    return Report(pf.ids, tails, heads, list(map(x.__getitem__, range(1, len(pf.ids) + 1))),
                  list(map(z.__getitem__, zip(tails, heads))),
                  objective_value(tree.edges, losses.__getitem__, x), residual,
                  stats, relations)


def _table_id(node_id) -> str:
    """An id as a table row writes it: its text, or its JSON string when
    the text holds a character that does not print (a newline in it could
    forge a row)."""
    text = str(node_id)
    return text if text.isprintable() else _encode_str(text)


def _print_report(report: Report, as_table: bool):
    if not as_table:
        print(emit_json(report))
        return
    ids = report.ids
    for node_id, value in zip(ids, report.x):
        print("x[%s] = %.12g" % (_table_id(node_id), value))
    for f, t, value in zip(report.tails, report.heads, report.z):
        print("z[%s -> %s] = %.12g"
              % (_table_id(ids[f - 1]), _table_id(ids[t - 1]), value))
    print("objective    = %.12g" % report.objective)
    print("kkt_residual = %.3e" % report.residual)
    if report.stats is not None:
        print("inner iterations = %d, equilibrium calls = %d" % report.stats[:2])


# -- commands ----------------------------------------------------------------


def cmd_solve(args) -> int:
    pf = load_problem_file(args.path)
    tree, losses, root = pf.build()
    try:
        x, z, stats = solve_tree(tree, losses, root, args.tol)
    except MalformedInstanceError as exc:
        raise pf.in_file_ids(exc) from None
    if args.oracle_check:
        if len(pf.edges) > MAX_ORACLE_EDGES:
            print("note: %d edges exceeds the oracle cap of %d, cross-check skipped"
                  % (len(pf.edges), MAX_ORACLE_EDGES), file=sys.stderr)
        else:
            problem = build_problem(tree, losses, root)
            x_ref, z_ref, _ = enumerate_optimum(problem, tol=args.tol)
            x_ref, _ = map_back(problem.arb, x_ref, z_ref)
            gap = max(abs(x[v] - x_ref[v]) for v in x)
            if gap > 1e-6:
                raise CertificateError(
                    "solver and enumeration disagree: max |dx| = %.3e" % gap
                )
    _print_report(solution_report(pf, tree, losses, x, z, stats.final_residual,
                                  stats=stats), args.table)
    return EXIT_OK


def cmd_oracle(args) -> int:
    pf = load_problem_file(args.path)
    tree, losses, root = pf.build()
    try:
        problem = build_problem(tree, losses, root)
    except MalformedInstanceError as exc:
        raise pf.in_file_ids(exc) from None
    x_norm, z_norm, pattern = enumerate_optimum(problem)
    x, z = map_back(problem.arb, x_norm, z_norm)
    residual = kkt_residual(problem.weighted_edges(), problem.loss_of, x_norm, z_norm)
    # Signs flip with the edge, as duals do.
    _, relations = map_back(problem.arb, x_norm, pattern)
    _print_report(solution_report(pf, tree, losses, x, z, residual,
                                  relations=relations), args.table)
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.n < 1:
        print("error: --n must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.reps < 1:
        print("error: --reps must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.isotonic and (args.shape, args.loss) != ("chain", "quadratic"):
        print("error: --isotonic needs --shape chain and --loss quadratic",
              file=sys.stderr)
        return EXIT_USAGE
    rows = []
    for rep in range(args.reps):
        seed = args.seed + rep
        tree, losses = random_problem(
            args.shape, args.n, seed, args.loss, isotonic=args.isotonic
        )
        started = time.perf_counter()
        _, _, stats = solve_tree(tree, losses, tol=args.tol)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        rows.append((args.n, args.shape, elapsed_ms,
                     stats.inner_iters_total, stats.final_residual))
    print("n,shape,wall_time_ms,inner_iters_total,kkt_residual")
    for n, shape, ms, iters, residual in rows:
        print("%d,%s,%.3f,%d,%.3e" % (n, shape, ms, iters, residual))
    return EXIT_OK


# -- entry point ---------------------------------------------------------------


def _tolerance(raw: str) -> float:
    """argparse type for --tol: a finite nonnegative number (NaN certifies
    nothing, and infinity anything)."""
    value = float(raw)
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError("must be a finite nonnegative number, got %r" % raw)
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
    # A command's objects die with it, so the cyclic collector only costs
    # time here; it is paused for the run and restored as it was found.
    collecting = gc.isenabled()
    gc.disable()
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
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
