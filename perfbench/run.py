"""treeiso benchmark: end-to-end solve metrics and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--out FILE]

Run from the root of a checkout; the program is imported from its `src/`.
Each workload is a closed loop with one client: one process and one
thread solve the workload's seeded instances back to back, round-robin,
for S seconds.  Every answer is checked outside the timed region, against
an independent flow-system residual and, on `isotonic-cli`, against the
PAVA reference.  Solve times are scaled to a reference machine speed by a
calibration kernel run around each solve (see README.md).

With --trace 0 the last line of standard output is a JSON object carrying
the end-to-end metrics named in BENCHMARK.json; with --trace 1 it carries
the per-layer metrics of a traced run over a fixed subset of the same
instances.  The line before it records the environment, the instance
counts, the percentile behind `solve_ms_tail` and any absent metrics.
`--workload all` runs every workload untraced and traced, each in its own
process, and prints one table.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc

import gen
import program
import spans
import verify

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 5          # set-up is repeated and its median reported
CAL_ITERS = 30000       # iterations of the speed-calibration kernel
CAL_REF_S = 0.0042      # kernel time that defines reference speed
UNTRACED_PASSES = 2     # the traced run's untraced reference, for the overhead
MAX_SECONDS = 60        # a run measures at most this long, whatever is asked
CHILD_TIMEOUT_S = 175   # for --workload all


# -- set-up ------------------------------------------------------------------------


class Case:
    """One generated instance and the input the program receives for it."""

    def __init__(self, inst, payload):
        self.inst = inst
        self.payload = payload       # (tree, losses) or an instance file path
        self.reference = None        # PAVA fit, computed on first check


class Runner:
    """Builds, solves and checks the instances of one workload."""

    def __init__(self, workload, seed, workdir):
        self.w = workload
        self.seed = seed
        self.workdir = workdir

    def build(self, count):
        cases = []
        for k in range(count):
            inst = gen.generate(self.w, self.seed, k)
            if self.w.via == "cli":
                path = os.path.join(self.workdir, "instance-%d.json" % k)
                with open(path, "w", encoding="utf-8") as out:
                    out.write(gen.instance_json(inst))
                cases.append(Case(inst, path))
            else:
                cases.append(Case(inst, program.build_library_input(inst)))
        return cases

    def solve(self, case):
        if self.w.via == "cli":
            return program.solve_cli(case.payload)
        return program.solve_library(*case.payload)

    def answer(self, case, out):
        """(x, reason): x in file orientation, reason "" when the answer passes."""
        if self.w.via == "cli":
            code, stdout, stderr = out
            if code != 0:
                return None, "exit code %r: %s" % (code, stderr.getvalue().strip())
            try:
                x, z = verify.parse_report(stdout.getvalue())
            except (ValueError, KeyError, TypeError) as exc:
                return None, "unreadable report: %s" % (exc,)
        else:
            x, z, _ = out
        reason = verify.certify(case.inst, x, z)
        if not reason and self.w.shape == "isotonic":
            if case.reference is None:
                case.reference = program.pava([p[2] for p in case.inst.losses])
            reason = verify.agrees_with(case.reference, x)
        return x, reason


def set_up(runner, count):
    """Build the inputs SETUP_REPS times; returns (cases, median build seconds)."""
    times = []
    for _ in range(SETUP_REPS):
        cases = None        # release the previous build before timing the next
        start = time.perf_counter()
        cases = runner.build(count)
        times.append(time.perf_counter() - start)
    return cases, statistics.median(times)


# -- untraced run -------------------------------------------------------------------


def timed_solve(runner, case):
    gc.collect()
    start = time.perf_counter()
    out = runner.solve(case)
    return out, time.perf_counter() - start


def calibrate():
    """Seconds the fixed pure-Python calibration kernel takes right now."""
    start = time.perf_counter()
    table, total = {}, 0.0
    for i in range(CAL_ITERS):
        table[i & 511] = i * 0.5
        total += table[i & 511]
    return time.perf_counter() - start


def run_untraced(runner, cases, seconds):
    """Round-robin solves.

    Returns (reference-speed times, wall times, calibrations, certified
    nodes, failures, attempted).  Each certified solve is bracketed by runs
    of the calibration kernel, and its time is scaled by CAL_REF_S over
    their mean: the machine's speed drifts by tens of percent within
    seconds, and the kernel slows down with it (see README.md).
    """
    scaled, raw, calibrations, failures = [], [], [], []
    nodes = attempted = 0
    start = time.perf_counter()
    before = calibrate()
    while attempted == 0 or time.perf_counter() - start < seconds:
        case = cases[attempted % len(cases)]
        attempted += 1
        try:
            out, elapsed = timed_solve(runner, case)
        except Exception as exc:  # an instance that raised is counted and skipped
            failures.append("%s: %s" % (type(exc).__name__, exc))
            continue
        after = calibrate()
        _, reason = runner.answer(case, out)
        if reason:
            failures.append(reason)
        else:
            scaled.append(elapsed * CAL_REF_S / (0.5 * (before + after)))
            raw.append(elapsed)
            calibrations.append(after)
            nodes += case.inst.n
        before = after
    return scaled, raw, calibrations, nodes, failures, attempted


def tail(samples):
    """(value, percentile): the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0
    return ordered[count - 11], 100.0 * (count - 10) / count


def end_to_end(runner, cases, seconds, setup_s):
    """The end-to-end metrics, with solve times at reference speed."""
    samples, raw, calibrations, nodes, failures, attempted = run_untraced(
        runner, cases, seconds)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "certified_share": len(samples) / attempted,
    }
    info = {}
    if samples:
        value, pct = tail(samples)
        metrics["solve_ms_p50"] = statistics.median(samples) * 1e3
        metrics["solve_ms_tail"] = value * 1e3
        metrics["nodes_per_s"] = nodes / sum(samples)
        info["tail"] = {"percentile": round(pct, 2), "samples": len(samples)}
        info["wall"] = {"solve_ms_p50": statistics.median(raw) * 1e3,
                        "calibration_ms_p50": statistics.median(calibrations) * 1e3,
                        "calibration_ref_ms": CAL_REF_S * 1e3}
    return metrics, attempted, failures, info


# -- traced run ---------------------------------------------------------------------


def run_traced(runner, cases, seconds, spans_path):
    """Untraced reference passes, one tracemalloc'd solve, then traced passes."""
    subset = cases[:runner.w.traced]
    failures = []
    reference_x, untraced = [], []
    for repeat in range(UNTRACED_PASSES):
        for case in subset:
            try:
                out, elapsed = timed_solve(runner, case)
            except Exception as exc:  # counted; traced x is then compared to None
                failures.append("untraced: %s: %s" % (type(exc).__name__, exc))
                if repeat == 0:
                    reference_x.append(None)
                continue
            untraced.append(elapsed)
            if repeat == 0:
                x, reason = runner.answer(case, out)
                if reason:
                    failures.append("untraced: " + reason)
                reference_x.append(x)

    gc.collect()
    tracemalloc.start()
    try:
        runner.solve(subset[0])
        peak_alloc = tracemalloc.get_traced_memory()[1]
    except Exception:  # already counted by the untraced pass
        peak_alloc = None
    finally:
        tracemalloc.stop()

    tracer = spans.Tracer()
    missing = spans.install(tracer)
    passes, traced, attempted = [], [], 0
    trace_t0 = time.perf_counter()
    while not passes or time.perf_counter() - trace_t0 < seconds:
        for k, case in enumerate(subset):
            gc.collect()
            attempted += 1
            tracer.keep = not passes and k == 0     # spans of one solve are written out
            try:
                out, elapsed = tracer.root(k, runner.solve, case)
            except Exception as exc:  # counted like an untraced failure
                failures.append("traced: %s: %s" % (type(exc).__name__, exc))
                continue
            traced.append(elapsed)
            x, reason = runner.answer(case, out)
            if reason:
                failures.append("traced: " + reason)
            elif x != reference_x[k]:
                failures.append("traced x differs from untraced x on instance %d" % k)
        passes.append(tracer.take_counts())
    tracer.write(spans_path, trace_t0)

    counts = passes[0]
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[name + ".self_ms"] = tracer.self_s.get(name, 0.0) / len(passes) * 1e3
        metrics[name + ".calls"] = counts.get(name + ".calls", 0)
    for name in spans.COUNTS:
        metrics[name] = counts.get(name, 0)
    total = sum(tracer.self_s.values())
    for layer in spans.LAYERS:
        part = sum(v for k, v in tracer.self_s.items() if spans.layer_of(k) == layer)
        metrics["share." + layer] = 100.0 * part / total
    if peak_alloc is not None:
        metrics["solver.peak_alloc_kib"] = peak_alloc / 1024.0
    if traced and untraced:
        metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)

    checks = wrapping_checks(metrics, passes, subset, tracer.absent)
    failures.extend("check failed: " + name for name, ok in checks.items() if ok is False)
    info = {"traced_instances": len(subset), "passes": len(passes),
            "missing_spans": missing, "checks": checks,
            "spans_kept": len(tracer.spans),
            "dominant": dominant(runner.w.predicted, tracer.self_s, metrics)}
    return metrics, attempted, failures, info, tracer.absent


def dominant(predicted, self_s, metrics):
    """The measured dominant layer and span, against the workload's prediction.

    A predicted layer holds when it has the largest share; predicted spans
    hold when their summed self time exceeds that of every other span.
    """
    layer = max(spans.LAYERS, key=lambda name: metrics["share." + name])
    own = {k: v for k, v in self_s.items() if k != spans.ROOT}
    top = max(own, key=own.get)
    if predicted in spans.LAYERS:
        holds = layer == predicted
    else:
        group = predicted.split("+")
        total = sum(own.get(name, 0.0) for name in group)
        holds = all(total > v for k, v in own.items() if k not in group)
    return {"predicted": predicted, "layer": layer, "span": top, "holds": holds}


def wrapping_checks(metrics, passes, subset, absent):
    """Benchmark-local checks of the wrapping; None marks a skipped check."""

    def known(*names):
        return not any(spans.is_absent(n, absent) for n in names)

    checks = {"counts_repeat_across_passes": all(p == passes[0] for p in passes)}
    checks["step_calls_equal_inner_iters"] = (
        metrics["solver.step.calls"] == metrics["solver.inner_iters"]
        if known("solver.step.calls", "solver.inner_iters") else None)
    checks["extend_calls_equal_n_minus_1"] = (
        metrics["solver.extend.calls"] == sum(c.inst.n - 1 for c in subset)
        if known("solver.extend.calls") else None)
    return checks


# -- reporting ------------------------------------------------------------------------


def environment(root, workload, seed):
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "treeiso")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(root),
        "src_sha256": digest.hexdigest()[:16],
        "workload": workload.name, "seed": seed, "n": workload.n,
    }


def git_commit(root):
    """HEAD's commit when the checkout is a git work tree, else "unknown"."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def select(metrics, declared, absent):
    """The declared metrics with their units; absent ones are left out."""
    out, gone = {}, []
    for spec in declared:
        name = spec["name"]
        if spans.is_absent(name, absent) or name not in metrics:
            gone.append(name)
            continue
        out[name] = {"value": metrics[name], "unit": spec["unit"]}
    return out, gone


def run_one(args, root, declared):
    workload = gen.WORKLOADS[args.workload]
    seconds = min(args.seconds, MAX_SECONDS)
    start = time.perf_counter()
    program.load(root)
    import_s = time.perf_counter() - start
    outdir = os.path.join(HERE, "out")
    workdir = os.path.join(outdir, "%s-%d-%d" % (workload.name, args.seed, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(workload, args.seed, workdir)
        count = workload.traced if args.trace else workload.pool
        cases, build_s = set_up(runner, count)
        info = {"env": environment(root, workload, args.seed), "seconds": seconds,
                "instances": {"pool": len(cases)},
                "setup": {"import_s": import_s, "build_s_median": build_s,
                          "repeats": SETUP_REPS}}
        absent = set()
        if args.trace:
            spans_path = os.path.join(outdir, "spans-%s-seed%d.jsonl"
                                      % (workload.name, args.seed))
            metrics, attempted, failures, extra, absent = run_traced(
                runner, cases, seconds, spans_path)
            info["spans_file"] = os.path.relpath(spans_path, root)
        else:
            metrics, attempted, failures, extra = end_to_end(
                runner, cases, seconds, import_s + build_s)
        info["instances"]["solved"] = attempted
        info.update(extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    chosen, gone = select(metrics, declared, absent)
    info["absent_metrics"] = gone
    info["failures"] = failures[:10]
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": chosen}))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in a child process."""
    results = {}
    for name in gen.WORKLOADS:
        results[name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                sys.stderr.write(done.stderr)
                print("%s --trace %d failed with exit code %d"
                      % (name, trace, done.returncode), file=sys.stderr)
                return 1
            results[name]["traced" if trace else "untraced"] = {
                "info": json.loads(lines[-2]), "result": json.loads(lines[-1])}
    for name, runs in results.items():
        print("== %s" % name)
        for kind in ("untraced", "traced"):
            result = runs[kind]["result"]
            print("  %s: correct=%s attempted=%d failed=%d"
                  % (kind, result["correct"], result["attempted"], result["failed"]))
            for metric, entry in result["metrics"].items():
                print("    %-40s %16.6g %s" % (metric, entry["value"], entry["unit"]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(results, out, indent=1, sort_keys=True)
            out.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(gen.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write results here")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
            bench = json.load(handle)
    except (OSError, ValueError) as exc:
        print("error: cannot read BENCHMARK.json: %s" % exc, file=sys.stderr)
        return 2
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    try:
        return run_one(args, root, declared)
    except program.ProgramMissing as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
