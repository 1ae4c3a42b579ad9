"""The source holds no function, method or class that nothing in it names.

Each definition in `src/treeiso/*.py` must be referenced somewhere in
`src/`: by name, as an attribute, or as an imported name.  Dunder methods
are called by Python itself and are exempt.  A definition only tests or
the benchmark reach is dead weight in the program, so it fails here.
"""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "treeiso"

# Wrapped by the benchmark's span table (perfbench/spans.py) for the
# loss.group_build and loss.group_derivative spans; it goes with them.
ALLOWED = {"LossGroup"}


def definitions_and_references():
    defined, referenced = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, "%s:%d" % (path.name, node.lineno))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return defined, referenced


def test_every_definition_is_referenced():
    defined, referenced = definitions_and_references()
    unused = {
        name: where for name, where in defined.items()
        if name not in referenced
        and not (name.startswith("__") and name.endswith("__"))
    }
    assert sorted(set(unused) - ALLOWED) == [], unused
    assert set(unused) >= ALLOWED, "an allowlisted name is referenced or gone"



class TieRuleReads(ast.NodeVisitor):
    """Where EQ_RTOL is read: the innermost enclosing function, else the file."""

    def __init__(self, where):
        self.where, self.found = where, []

    def visit_FunctionDef(self, node):
        outer, self.where = self.where, node.name
        self.generic_visit(node)
        self.where = outer

    def visit_Name(self, node):
        if node.id == "EQ_RTOL" and isinstance(node.ctx, ast.Load):
            self.found.append(self.where)

    def visit_Attribute(self, node):
        if node.attr == "EQ_RTOL":
            self.found.append(self.where)
        self.generic_visit(node)


def test_tie_rule_is_read_only_in_values_equal():
    # `values_equal` is the one tie rule; every other equality decision in
    # the program calls it instead of reading EQ_RTOL itself.
    readers = []
    for path in sorted(SRC.glob("*.py")):
        reads = TieRuleReads(path.name)
        reads.visit(ast.parse(path.read_text(encoding="utf-8")))
        readers += reads.found
    assert readers == ["values_equal"], readers


def test_slotted_classes_are_slotted_down_to_object():
    # `__slots__` saves the instance `__dict__` only when every base
    # declares `__slots__` too; one base without it (say, an interface
    # class) gives every instance a `__dict__` and a weak reference slot.
    checked, unslotted = set(), {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__main__":
            continue
        name = "treeiso" if path.stem == "__init__" else "treeiso." + path.stem
        module = importlib.import_module(name)
        for cls in vars(module).values():
            if not (isinstance(cls, type) and cls.__module__ == name
                    and "__slots__" in vars(cls)):
                continue
            checked.add(cls.__qualname__)
            bases = [base.__qualname__ for base in cls.__mro__
                     if base.__module__ != "builtins" and "__slots__" not in vars(base)]
            if bases or any("__dict__" in vars(base) for base in cls.__mro__):
                unslotted[cls.__qualname__] = bases
    assert checked >= {"WeightedQuadratic", "QuarticQuadratic", "DirectedTree"}, checked
    assert unslotted == {}, unslotted
