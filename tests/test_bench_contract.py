"""The benchmark still reads everything it expects from the program.

`perfbench/spans.py` wraps program functions by name and reports a span
whose targets are all gone as absent, so a rename would silently empty a
per-layer metric.  The first test reads the table without installing any
wrapper; the second runs a short traced benchmark and checks it as the CI
smoke step does, which also catches a hook that can no longer read a
result (say, a renamed `ComponentView` field).
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SPANS_PATH = REPO / "perfbench" / "spans.py"
_MISSING = object()


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(target):
    """The callable `install` would wrap for a target, or None."""
    module, _, path = target.partition(".")
    owner = importlib.import_module("treeiso." + module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    original = (vars(owner).get(attr, _MISSING) if outer
                else getattr(owner, attr, _MISSING))
    if original is _MISSING or not callable(original):
        return None
    return original


def test_every_span_has_a_target():
    spans = load_spans()
    found = {span for span, target, _, _ in spans.TARGETS if resolve(target)}
    missing = [span for span in spans.SPAN_NAMES if span not in found]
    assert missing == []


def test_traced_smoke_run_is_complete():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "star-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=REPO, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.strip()]
    info, result = lines[-2], lines[-1]
    assert result["correct"] is True, info["failures"]
    assert info["absent_metrics"] == []
    assert info["checks"]
    assert [k for k, ok in info["checks"].items() if ok is not True] == []
