"""Each sampling law, stepsize policy and problem recipe answers for
itself: no module dispatches on the kinds of a union with ``isinstance``.
A class's own ``__eq__`` may test its operand's class."""

import ast
from pathlib import Path

from kaczlab.problems import RECIPE_KINDS
from kaczlab.sampling import SAMPLING_KINDS
from kaczlab.stepsize import STEPSIZE_KINDS

SRC = Path(__file__).resolve().parents[1] / "src" / "kaczlab"
KIND_CLASSES = {cls.__name__ for kinds in (SAMPLING_KINDS, STEPSIZE_KINDS, RECIPE_KINDS)
                for cls in kinds.values()}


def _class_names(node: ast.AST) -> list[str]:
    """The class names in isinstance's second argument: a name, a dotted
    name, or a tuple or ``|`` union of them."""
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _class_names(elt)]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _class_names(node.left) + _class_names(node.right)
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    return []


def dispatch_sites(path: Path) -> list[str]:
    """Every ``isinstance(_, C)`` in ``path`` with C a registered kind,
    outside C's own ``__eq__``, as ``file:line C``."""
    sites = []

    def visit(node, cls, func):
        if isinstance(node, ast.ClassDef):
            cls, func = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            func = getattr(node, "name", "<lambda>")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2):
            for name in _class_names(node.args[1]):
                if name in KIND_CLASSES and (cls, func) != (name, "__eq__"):
                    sites.append(f"{path.name}:{node.lineno} {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, cls, func)

    visit(ast.parse(path.read_text(), str(path)), None, None)
    return sites


def test_no_isinstance_dispatch_over_kind_unions():
    sites = [site for path in sorted(SRC.glob("*.py")) for site in dispatch_sites(path)]
    assert sites == []


def test_guard_sees_every_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "class Partition:\n"
        "    def __eq__(self, other):\n"
        "        return isinstance(other, Partition)\n"
        "class UniformSubset:\n"
        "    def __eq__(self, other):\n"
        "        return isinstance(other, Partition)\n"
        "def f(x):\n"
        "    return (isinstance(x, sampling.Partition), isinstance(x, (int, Adaptive)),\n"
        "            isinstance(x, CoherentRows | str), isinstance(x, dict))\n"
    )
    assert dispatch_sites(path) == ["probe.py:6 Partition", "probe.py:8 Partition",
                                    "probe.py:8 Adaptive", "probe.py:9 CoherentRows"]
