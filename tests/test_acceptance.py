"""Acceptance gate: nine graded checks covering the worked example, a
200-instance oracle sweep, certificate quality, search-effort bounds and
the isotonic-chain baseline.  Each test records a PASS/FAIL line that the
terminal summary prints after the run.
"""

import time

import pytest

from conftest import DEMO_X, DEMO_Z, make_demo_problem, prefix_problem
from treeiso.oracle import enumerate_optimum, pava
from treeiso.solver import Solver
from treeiso.tree import INF

MS = 1000.0


class _Criterion:
    """Records exactly one PASS/FAIL line for the terminal summary."""

    def __init__(self, log, number, name):
        self.log = log
        self.number = number
        self.name = name
        self.logged = False

    def record(self, ok, detail=""):
        self.log.append((self.number, self.name, bool(ok), detail))
        self.logged = True
        assert ok, "[%d] %s: %s" % (self.number, self.name, detail)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None and not self.logged:
            self.log.append(
                (self.number, self.name, False, "raised %s" % exc_type.__name__)
            )
        return False


def attachment_bounds(problem, node):
    return problem.arb.lam[node], problem.arb.mu[node]


def test_worked_example_with_intermediates(acceptance_log):
    with _Criterion(acceptance_log, 1, "worked example with intermediate pairs") as c:
        problem = make_demo_problem()
        x, z, _ = Solver(problem).solve()
        dev = max(
            max(abs(x[v] - DEMO_X[v]) for v in DEMO_X),
            max(abs(z[e] - DEMO_Z[e]) for e in DEMO_Z),
        )
        ok = dev <= 1e-8

        expected_pairs = [
            ({1: 3.0, 2: 3.0}, {(1, 2): -1.0}),
            ({1: 3.0, 2: 3.0, 3: 2.0}, {(1, 2): -1.0, (1, 3): 0.0}),
            (
                {1: 4.0, 2: 4.0, 3: 4.0, 4: 4.0},
                {(1, 2): -2.0, (1, 3): 2.0, (3, 4): 4.0},
            ),
        ]
        # The pair after node m is added solves the prefix problem on 1..m.
        for m, (want_x, want_z) in enumerate(expected_pairs, start=2):
            got_x, got_z, _ = Solver(prefix_problem(problem, m)).solve()
            ok = ok and all(
                abs(got_x[v] - want_x[v]) <= 1e-8 for v in want_x
            ) and all(abs(got_z[e] - want_z[e]) <= 1e-8 for e in want_z)

        best = INF
        for _ in range(5):
            started = time.perf_counter()
            Solver(make_demo_problem()).solve()
            best = min(best, time.perf_counter() - started)
        ok = ok and best * MS < 10.0
        c.record(ok, "max dev %.2e, best of 5 runs %.2f ms" % (dev, best * MS))


def test_agreement_with_enumeration_oracle(acceptance_log, corpus):
    with _Criterion(acceptance_log, 2, "agreement with enumeration oracle") as c:
        worst = 0.0
        total = sum(entry.elapsed for entry in corpus)
        started = time.perf_counter()
        for entry in corpus:
            x_ref, _, _ = enumerate_optimum(entry.problem)
            gap = max(abs(entry.x[v] - x_ref[v]) for v in x_ref)
            worst = max(worst, gap)
        total += time.perf_counter() - started
        ok = worst <= 1e-6 and total < 60.0
        c.record(
            ok,
            "%d instances, max |dx| %.2e, %.1f s total" % (len(corpus), worst, total),
        )


def test_every_solve_is_certified(acceptance_log, corpus, chain_corpus):
    with _Criterion(acceptance_log, 3, "certificate residual within gate") as c:
        residuals = [entry.stats.final_residual for entry in corpus]
        residuals += [entry.stats.final_residual for entry in chain_corpus]
        _, _, demo_stats = Solver(make_demo_problem()).solve()
        residuals.append(demo_stats.final_residual)
        worst = max(residuals)
        c.record(
            worst <= 1e-8,
            "%d solves, max residual %.2e" % (len(residuals), worst),
        )


def test_inner_iteration_bound(acceptance_log, corpus):
    with _Criterion(acceptance_log, 4, "inner iterations within linear cap") as c:
        checked = 0
        violations = 0
        tightest = ""
        best_ratio = -1.0
        for entry in corpus:
            for rec in entry.stats.steps:
                checked += 1
                if rec.iterations > rec.iteration_cap:
                    violations += 1
                ratio = rec.iterations / rec.iteration_cap
                if ratio > best_ratio:
                    best_ratio = ratio
                    tightest = "%d/%d" % (rec.iterations, rec.iteration_cap)
        c.record(
            checked > 0 and violations == 0,
            "%d extensions, tightest %s" % (checked, tightest),
        )


def test_single_equilibrium_call(acceptance_log, corpus):
    with _Criterion(acceptance_log, 5, "at most one equilibrium call per step") as c:
        checked = 0
        worst = 0
        for entry in corpus:
            for rec in entry.stats.steps:
                checked += 1
                worst = max(worst, rec.equilibrium_calls)
        c.record(
            checked > 0 and worst <= 1,
            "%d extensions, max calls %d" % (checked, worst),
        )


def test_step_sign_property(acceptance_log, corpus):
    with _Criterion(acceptance_log, 6, "edge dual opposes attachment slope") as c:
        checked = 0
        worst = -INF
        for entry in corpus:
            for rec in entry.stats.steps:
                checked += 1
                worst = max(worst, rec.t_star * rec.attach_derivative)
        c.record(
            checked > 0 and worst <= 1e-12,
            "%d extensions, max product %.2e" % (checked, worst),
        )


def test_isotonic_chains_match_pooled_fit(acceptance_log, chain_corpus):
    with _Criterion(acceptance_log, 7, "isotonic chains match pooled fit") as c:
        worst = 0.0
        slowest = 0.0
        for entry in chain_corpus:
            fitted = pava(entry.targets, weights=entry.weights)
            gap = max(
                abs(entry.x[i + 1] - want) for i, want in enumerate(fitted)
            )
            worst = max(worst, gap)
            slowest = max(slowest, entry.elapsed)
        ok = worst <= 1e-8 and slowest < 2.0
        c.record(
            ok,
            "%d chains, max dev %.2e, slowest %.3f s"
            % (len(chain_corpus), worst, slowest),
        )


def test_no_equality_reentry(acceptance_log, corpus):
    with _Criterion(acceptance_log, 8, "no equality re-entry during a search") as c:
        # The guard is wired into every migration; a violation aborts the
        # solve.  All corpus entries were produced with validation on, so
        # their existence certifies zero re-entries.  Re-solve a slice here
        # so the criterion does not rest on fixture caching alone.
        for entry in corpus[:20]:
            Solver(entry.problem).solve(validate=True)
        c.record(
            len(corpus) > 0,
            "%d validated solves, guard armed, zero re-entries" % len(corpus),
        )


def test_monotone_confined_t_path(acceptance_log, corpus):
    with _Criterion(acceptance_log, 9, "monotone t-path confined to its box") as c:
        checked = 0
        violations = 0
        for entry in corpus:
            for rec in entry.stats.steps:
                checked += 1
                path = rec.t_path
                lam, mu = attachment_bounds(entry.problem, rec.node)
                slack = [1e-12 * (1.0 + abs(t)) for t in path]
                if not path or path[0] != 0.0:
                    violations += 1
                elif rec.branch == "down":
                    if any(b > a + s for a, b, s in zip(path, path[1:], slack)):
                        violations += 1
                    elif any(t > s or t < -lam - s for t, s in zip(path, slack)):
                        violations += 1
                elif rec.branch == "up":
                    if any(b < a - s for a, b, s in zip(path, path[1:], slack)):
                        violations += 1
                    elif any(t < -s or t > mu + s for t, s in zip(path, slack)):
                        violations += 1
                else:
                    if any(t != 0.0 for t in path):
                        violations += 1
        c.record(
            checked > 0 and violations == 0,
            "%d extensions, %d violations" % (checked, violations),
        )
