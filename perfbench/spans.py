"""Spans around the program's layers, recorded from outside the program.

`install` replaces each named function or method with a wrapper that
records a span: name, start, end, parent span and instance id.  A
module-level function is replaced in every treeiso namespace that binds it
(the solver calls `build_initial_active_set`, `equilibrium_t`,
`solve_increasing`, `decompose` and `kkt_residual` through its own
globals, and the CLI calls `normalize` and `map_back` through its own), and
a method is replaced on its class.  A name the program no longer defines is
skipped and its metrics are reported as absent, so a refactor that renames
or folds a function leaves the benchmark running.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

ROOT = "bench.solve"
_MISSING = object()


class Tracer:
    def __init__(self):
        self.stack = []              # open frames: [span id, name, child seconds]
        self.spans = []              # kept spans: (id, name, start, end, parent, instance)
        self.keep = True
        self.instance = -1
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.absent = set()          # metric prefixes whose source is gone
        self._next_id = 0

    def _run(self, name, fn, args, kwargs):
        stack = self.stack
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][0] if stack else None
        frame = [span_id, name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.self_s[name] += duration - frame[2]
            if stack:
                stack[-1][2] += duration
            if self.keep:
                self.spans.append((span_id, name, start, end, parent, self.instance))

    def root(self, instance, fn, *args):
        """Run fn as the root span of one instance; returns (result, seconds)."""
        self.instance = instance
        start = time.perf_counter()
        result = self._run(ROOT, fn, args, {})
        return result, time.perf_counter() - start

    def wrap(self, name, fn, after=None, collapse=False):
        """A wrapper recording a span per call, then calling after(result)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if collapse and self.stack and self.stack[-1][1] == name:
                return fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            result = self._run(name, fn, args, kwargs)
            if after is not None:
                try:
                    after(self, result)
                except (AttributeError, TypeError, ValueError):
                    self.absent.update(HOOK_METRICS[after.__name__])
            return result

        return wrapper

    def count_fun_evals(self, name, fn):
        """Span around a root solve that also counts evaluations of its function."""

        def solve(fun, *args, **kwargs):
            def counted(v):
                self.counts[name + ".fun_evals"] += 1
                return fun(v)

            return fn(counted, *args, **kwargs)

        return self.wrap(name, functools.wraps(fn)(solve))

    def take_counts(self):
        counts, self.counts = dict(self.counts), defaultdict(int)
        return counts

    def write(self, path, t0):
        """Write the kept spans as JSON lines, times in microseconds from t0."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, instance in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name,
                    "start_us": round((start - t0) * 1e6, 3),
                    "end_us": round((end - t0) * 1e6, 3),
                    "parent": parent, "instance": instance,
                }) + "\n")


# -- what the counts hooks read from results ---------------------------------------


def solver_extend(tracer, result):
    record = result[2]
    tracer.counts["solver.inner_iters"] += record.iterations
    tracer.counts["solver.branch." + record.branch] += 1


def solver_active_set(tracer, result):
    tracer.counts["solver.active_set.edges"] += len(result.signs)


def solver_component_view(tracer, view):
    tracer.counts["solver.component_view.nodes"] += len(view.nodes)
    tracer.counts["solver.component_view.boundary_edges"] += (
        len(view.boundary_out) + len(view.boundary_in))


def cli_report_bytes(tracer, text):
    tracer.counts["cli.report_bytes"] += len(text.encode("utf-8"))


# Metrics each hook feeds (a trailing dot names a prefix); they are
# reported absent when the hook cannot read what it expects.
HOOK_METRICS = {
    "solver_extend": ("solver.inner_iters", "solver.branch."),
    "solver_active_set": ("solver.active_set.edges",),
    "solver_component_view": ("solver.component_view.nodes",
                              "solver.component_view.boundary_edges"),
    "cli_report_bytes": ("cli.report_bytes",),
}

# (span name, "module.attr" or "module.Class.attr", kind, hook)
TARGETS = (
    ("cli.main", "cli.main", "span", None),
    ("cli.load", "cli.load_problem_file", "span", None),
    ("cli.build", "cli.ProblemFile.build", "span", None),
    ("cli.build", "cli.build_problem", "span", None),
    ("cli.report", "cli.solution_report", "span", None),
    ("cli.emit", "cli.emit_json", "collapse", cli_report_bytes),
    ("tree.normalize", "tree.normalize", "span", None),
    ("tree.decompose", "tree.decompose", "span", None),
    ("tree.map_back", "tree.map_back", "span", None),
    ("solver.init", "solver.Solver.__init__", "span", None),
    ("solver.solve", "solver.Solver.solve", "span", None),
    ("solver.extend", "solver.Solver.extend", "span", solver_extend),
    ("solver.active_set", "solver.build_initial_active_set", "span", solver_active_set),
    ("solver.component_view", "solver.Solver.build_component_view", "span",
     solver_component_view),
    ("solver.thresholds", "solver.Solver.thresholds_minus", "span", None),
    ("solver.thresholds", "solver.Solver.thresholds_plus", "span", None),
    ("solver.step", "solver.Solver.step_minus", "span", None),
    ("solver.step", "solver.Solver.step_plus", "span", None),
    ("solver.certificate", "solver.kkt_residual", "span", None),
    ("loss.group_build", "loss.LossGroup.__init__", "span", None),
    ("loss.group_derivative", "loss.LossGroup.derivative", "span", None),
    ("loss.equilibrium", "loss.equilibrium_t", "span", None),
    ("loss.root_solve", "loss.solve_increasing", "fun_evals", None),
)

SPAN_NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))
LAYERS = ("cli", "tree", "solver", "loss", "bench")

# Counts the hooks and the root-solve wrapper add, besides "<span>.calls".
COUNTS = (
    "cli.report_bytes", "solver.inner_iters", "solver.branch.flat",
    "solver.branch.down", "solver.branch.up", "solver.active_set.edges",
    "solver.component_view.nodes", "solver.component_view.boundary_edges",
    "loss.root_solve.fun_evals",
)


def _namespaces():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "treeiso" or k.startswith("treeiso."))]


def install(tracer):
    """Wrap every target that exists; returns the span names found nowhere."""
    found = set()
    for span, target, kind, hook in TARGETS:
        module, _, path = target.partition(".")
        owner = sys.modules.get("treeiso." + module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        is_class = bool(outer)
        if owner is None:
            continue
        original = (vars(owner).get(attr, _MISSING) if is_class
                    else getattr(owner, attr, _MISSING))
        if original is _MISSING or not callable(original):
            continue
        if kind == "fun_evals":
            wrapper = tracer.count_fun_evals(span, original)
        else:
            wrapper = tracer.wrap(span, original, hook, collapse=kind == "collapse")
        if is_class:
            setattr(owner, attr, wrapper)
        else:
            for namespace in _namespaces():
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)
        found.add(span)
    missing = [s for s in SPAN_NAMES if s not in found]
    for span, _, _, hook in TARGETS:
        if span in missing:
            tracer.absent.add(span + ".")
            if hook is not None:
                tracer.absent.update(HOOK_METRICS[hook.__name__])
    return missing


def is_absent(metric: str, absent) -> bool:
    """True when the metric comes from a span or hook that is gone."""
    return any(metric == p or (p.endswith(".") and metric.startswith(p))
               for p in absent)


def layer_of(span: str) -> str:
    return "bench" if span == ROOT else span.split(".", 1)[0]
