"""Each sampling law, stepsize policy and problem recipe answers for
itself: no module dispatches on the kinds of a union with ``isinstance``.
Equality and hashing come from ``@dataclass``: no class writes ``__eq__``
or ``__hash__``, and a dataclass with an array field passes ``eq=False``
(a generated ``__eq__`` over arrays raises)."""

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
    """Every ``isinstance(_, C)`` in ``path`` with C a registered kind, as
    ``file:line C``."""
    return [f"{path.name}:{node.lineno} {name}"
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            for name in _class_names(node.args[1]) if name in KIND_CLASSES]


def _names_ndarray(annotation: ast.AST) -> bool:
    """Whether a field annotation mentions ``ndarray`` (``np.ndarray``, a
    bare name, a union or a string)."""
    return any((isinstance(node, ast.Name) and node.id == "ndarray")
               or (isinstance(node, ast.Attribute) and node.attr == "ndarray")
               or (isinstance(node, ast.Constant) and "ndarray" in str(node.value))
               for node in ast.walk(annotation))


def _dataclass_eq(decorator: ast.AST) -> bool | None:
    """None unless ``decorator`` is ``dataclass`` (bare, dotted or called);
    else whether it leaves ``eq`` on."""
    call = decorator if isinstance(decorator, ast.Call) else None
    target = call.func if call else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    if name != "dataclass":
        return None
    return not any(kw.arg == "eq" and isinstance(kw.value, ast.Constant) and kw.value.value is False
                   for kw in (call.keywords if call else []))


def equality_sites(path: Path) -> list[str]:
    """Every class in ``path`` that writes ``__eq__`` or ``__hash__``, and
    every dataclass with an ``ndarray`` field that leaves ``eq`` on, as
    ``file:line Class what``."""
    sites = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name in (
                    "__eq__", "__hash__"):
                sites.append(f"{path.name}:{item.lineno} {node.name} {item.name}")
        if any(_dataclass_eq(d) for d in node.decorator_list) and any(
                isinstance(item, ast.AnnAssign) and _names_ndarray(item.annotation)
                for item in node.body):
            sites.append(f"{path.name}:{node.lineno} {node.name} eq over arrays")
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
    assert dispatch_sites(path) == ["probe.py:3 Partition", "probe.py:6 Partition",
                                    "probe.py:8 Partition", "probe.py:8 Adaptive",
                                    "probe.py:9 CoherentRows"]


def test_equality_comes_from_the_dataclass():
    sites = [site for path in sorted(SRC.glob("*.py")) for site in equality_sites(path)]
    assert sites == []


def test_equality_guard_sees_every_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "class A:\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "    def __hash__(self):\n"
        "        return 0\n"
        "@dataclass\n"
        "class B:\n"
        "    x: np.ndarray\n"
        "@dataclass(frozen=True)\n"
        "class C:\n"
        "    x: int\n"
        "    y: ndarray | None = None\n"
        "@dataclasses.dataclass(frozen=True, eq=True)\n"
        "class D:\n"
        "    x: 'np.ndarray'\n"
        "@dataclass(frozen=True, eq=False)\n"
        "class E:\n"
        "    x: np.ndarray\n"
        "@dataclass(frozen=True)\n"
        "class F:\n"
        "    x: tuple[float, ...]\n"
    )
    assert equality_sites(path) == ["probe.py:4 A __eq__", "probe.py:6 A __hash__",
                                    "probe.py:9 B eq over arrays", "probe.py:12 C eq over arrays",
                                    "probe.py:16 D eq over arrays"]
