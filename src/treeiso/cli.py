"""Command line front end.

Subcommands: `solve` runs the recursive solver on a JSON instance file,
`oracle` runs the brute-force enumeration instead, and `bench` times the
solver on generated instances and prints CSV.  Reported duals are mapped
back to the orientation the file declared.  The certificate residual in
every report is the one computed in solver labels, by the solver's gate
for `solve` and `bench`: `map_back` only relabels nodes and flips the
sign of a flipped edge's dual, which keeps the residual up to the order
in which each node's incident duals are summed.

Exit codes: 0 success; 2 unreadable file (not UTF-8, or nested too
deeply), JSON syntax error, an over-long integer literal or bad usage;
3 instance violates the format's invariants; 4 certification or
cross-check failure; 5 internal failure or an out-of-scope request
(oracle size cap).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import chain
from operator import itemgetter
from typing import Dict, List, Tuple

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


def _emit_other(value) -> str:
    """A value whose exact type `_WRITERS` lacks: every value in a report
    has an exact built-in type, so anything else is refused."""
    raise ContractViolationError("cannot serialize %r" % (value,))


def _emit_value(value) -> str:
    return (_WRITERS.get(type(value)) or _emit_other)(value)


def _column(values):
    """A `%` conversion and its arguments for a run of values.

    A finite float run is written by `%.17g` and an int run by `%d`, in C;
    a str run is encoded once per distinct string; any other run passes
    each value's text to `%s`.  Types are tested exactly, so a bool is not
    an int and a subclass reaches `_emit_other`.
    """
    types = set(map(type, values))
    if len(types) == 1:
        kind = types.pop()
        if kind is float and INF not in values and -INF not in values:
            return "%.17g", values
        if kind is int:
            return "%d", values
        if kind is str:
            codes = {text: _encode_str(text) for text in set(values)}
            return "%s", map(codes.__getitem__, values)
    return "%s", map(_emit_value, values)


def _emit_dict(obj: dict) -> str:
    conversion, args = _column(obj.values())
    return "{%s}" % ", ".join(map(("%s: " + conversion).__mod__,
                                  zip(map(_encode_str, map(str, obj)), args)))


def _emit_rows(rows, keys: list) -> str:
    """Dicts that all hold the same str keys in the same order, through one
    row template whose conversions are their columns'."""
    if not keys:
        return ", ".join(["{}"] * len(rows))
    columns = [_column(list(map(itemgetter(key), rows))) for key in keys]
    template = "{%s}" % ", ".join([
        "%s: %s" % (_encode_str(key).replace("%", "%%"), conversion)
        for key, (conversion, _) in zip(keys, columns)
    ])
    return ", ".join(map(template.__mod__, zip(*[args for _, args in columns])))


def _emit_list(obj) -> str:
    # Rows share the first row's keys in its order, each an exact str: 1,
    # True and 1.0 are equal keys whose texts differ.
    if obj and type(obj[0]) is dict and set(map(type, obj)) == {dict}:
        keys = list(obj[0])
        flat = list(chain.from_iterable(obj))
        if flat == keys * len(obj) and set(map(type, flat)) <= {str}:
            return "[%s]" % _emit_rows(obj, keys)
    conversion, args = _column(obj)
    if conversion != "%s":
        args = map(conversion.__mod__, args)
    return "[%s]" % ", ".join(args)


_WRITERS = {
    dict: _emit_dict,
    list: _emit_list,
    tuple: _emit_list,
    float: format_float,
    int: str,
    str: _encode_str,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def emit_json(obj) -> str:
    """Serialize with deterministic float formatting (17 significant digits).

    Infinities are written as the strings "inf" and "-inf"; keys and
    strings are ASCII-escaped as `json.dumps` escapes them, and items are
    separated by ", " and ": ".

    Values of one exact type are written in bulk, with the bytes a value
    by value writer gives: a dict's values and a list's items as one
    column, and a list of dicts with the same str keys in the same order
    as rows of one template, one column per key.  A column of finite
    floats goes through `%.17g` and one of ints through `%d`; a str column
    is encoded once per distinct string; any other column is written
    value by value.
    """
    return _emit_value(obj)


def solution_report(pf: ProblemFile, tree: DirectedTree, losses: Dict[int, Loss],
                    x, z, residual: float) -> dict:
    """Key a pair by file ids, with its objective and certificate residual.

    `tree` and `losses` are the dense-labelled instance `pf.build` returned,
    (x, z) is a pair in its labels and orientation, and `residual` is its
    `kkt_residual` as computed in solver labels (`map_back` keeps it).
    """
    ids = pf.ids
    x_out = {str(oid): x[k] for k, oid in enumerate(ids, 1)}
    z_out = [
        {"from": ids[f - 1], "to": ids[t - 1], "value": z[(f, t)]}
        for f, t, _, _ in pf.edges
    ]
    return {
        "x": x_out,
        "z": z_out,
        "objective": objective_value(tree.edges, losses.__getitem__, x),
        "kkt_residual": residual,
    }


def _table_id(node_id) -> str:
    """An id as a table row writes it: its text, or its JSON string when
    the text holds a character that does not print (a newline in it could
    forge a row)."""
    text = str(node_id)
    return text if text.isprintable() else _encode_str(text)


def _print_report(report: dict, as_table: bool):
    if not as_table:
        print(emit_json(report))
        return
    for key, value in report["x"].items():
        print("x[%s] = %.12g" % (_table_id(key), value))
    for row in report["z"]:
        print("z[%s -> %s] = %.12g"
              % (_table_id(row["from"]), _table_id(row["to"]), row["value"]))
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
    try:
        x, z, stats = solve_tree(tree, losses, root, args.tol)
    except MalformedInstanceError as exc:
        raise pf.in_file_ids(exc) from None
    if args.oracle_check:
        if len(pf.edges) > MAX_ORACLE_EDGES:
            print(
                "note: %d edges exceeds the oracle cap of %d, cross-check skipped"
                % (len(pf.edges), MAX_ORACLE_EDGES),
                file=sys.stderr,
            )
        else:
            problem = build_problem(tree, losses, root)
            x_ref, z_ref, _ = enumerate_optimum(problem, tol=args.tol)
            x_ref, _ = map_back(problem.arb, x_ref, z_ref)
            gap = max(abs(x[v] - x_ref[v]) for v in x)
            if gap > 1e-6:
                raise CertificateError(
                    "solver and enumeration disagree: max |dx| = %.3e" % gap
                )
    report = solution_report(pf, tree, losses, x, z, stats.final_residual)
    report["stats"] = {
        "inner_iters_total": stats.inner_iters_total,
        "equilibrium_calls": stats.equilibrium_total,
        "steps": [
            {
                "node": pf.ids[rec.node - 1],
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
    try:
        problem = build_problem(tree, losses, root)
    except MalformedInstanceError as exc:
        raise pf.in_file_ids(exc) from None
    x_norm, z_norm, pattern = enumerate_optimum(problem)
    x, z = map_back(problem.arb, x_norm, z_norm)
    residual = kkt_residual(problem.weighted_edges(), problem.loss_of, x_norm, z_norm)
    report = solution_report(pf, tree, losses, x, z, residual)
    # Signs flip with the edge, as duals do.
    _, relations = map_back(problem.arb, x_norm, pattern)
    ids = pf.ids
    report["pattern"] = [
        {
            "from": ids[f - 1],
            "to": ids[t - 1],
            "relation": SIGN_NAME[relations[(f, t)]],
        }
        for f, t, _, _ in pf.edges
    ]
    _print_report(report, args.table)
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
