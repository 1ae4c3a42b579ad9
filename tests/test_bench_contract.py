"""The benchmark's span table still names functions the program defines.

`perfbench/spans.py` wraps program functions by name and reports a span
whose targets are all gone as absent, so a rename would silently empty a
per-layer metric.  This reads the table without installing any wrapper.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
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

