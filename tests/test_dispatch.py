"""Each sampling law, stepsize policy, problem recipe and weight scheme
answers for itself: no module dispatches on the kinds of a union with
``isinstance``, nor compares another object's ``kind`` with a string.
Equality and hashing come from ``@dataclass``: no class writes ``__eq__``
or ``__hash__``, and a dataclass with an array field passes ``eq=False``
(a generated ``__eq__`` over arrays raises).  One module, ``sampling``,
names the numpy generator internals whose streams the bits replay."""

import ast
import tokenize
from pathlib import Path

from kaczlab.problems import RECIPE_KINDS
from kaczlab.sampling import SAMPLING_KINDS
from kaczlab.stepsize import STEPSIZE_KINDS

SRC = Path(__file__).resolve().parents[1] / "src" / "kaczlab"
KIND_CLASSES = {cls.__name__ for kinds in (SAMPLING_KINDS, STEPSIZE_KINDS, RECIPE_KINDS)
                for cls in kinds.values()}
# numpy's seeding and bit-generator internals, which numpy does not promise
# to keep stream for stream across versions.
STREAM_NAMES = {"SeedSequence", "ISeedSequence", "PCG64", "bit_generator", "random_raw"}


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


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a name or a chain of attributes on one, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        owner = _dotted(node.value)
        return None if owner is None else f"{owner}.{node.attr}"
    return None


def _is_string(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def kind_test_sites(path: Path) -> list[str]:
    """Every test of ``X.kind`` against strings in ``path``, X anything but
    ``self``, as ``file:line X.kind``: ``==`` or ``!=`` with a string,
    either operand first, or ``in`` / ``not in`` a tuple, list or set of
    strings (``in`` one string is a substring test, as of a dtype's kind)."""
    sites = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, a, b in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)) and (_is_string(a) or _is_string(b)):
                tested = [a, b]
            elif (isinstance(op, (ast.In, ast.NotIn))
                  and isinstance(b, (ast.Tuple, ast.List, ast.Set))
                  and b.elts and all(map(_is_string, b.elts))):
                tested = [a]
            else:
                continue
            for name in map(_dotted, tested):
                if name is not None and name.endswith(".kind") and name != "self.kind":
                    sites.append(f"{path.name}:{node.lineno} {name}")
    return sites


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


def stream_sites(path: Path) -> list[str]:
    """Every name of STREAM_NAMES in ``path``'s code (docstrings, strings
    and comments left out), as ``file:line name``."""
    with path.open("rb") as fh:
        return [f"{path.name}:{tok.start[0]} {tok.string}" for tok in tokenize.tokenize(fh.readline)
                if tok.type == tokenize.NAME and tok.string in STREAM_NAMES]


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


def test_no_kind_tests_outside_the_kind():
    sites = [site for path in sorted(SRC.glob("*.py")) for site in kind_test_sites(path)]
    assert sites == []


def test_kind_guard_sees_every_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "class WeightScheme:\n"
        "    def realized(self, J):\n"
        "        return self.kind == 'uniform' or 'explicit' != self.kind\n"
        "def f(config, spec, x):\n"
        "    a = config.weights.kind == 'uniform'\n"
        "    b = 'partition' != spec.kind\n"
        "    c = spec.kind in ('uniform', 'partition')\n"
        "    d = x.kind == x.other or x.kind == 3 or x.kinds == 'a' or x.dtype.kind in 'iu'\n"
        "    return 0 < x.kind != 'basic'\n"
    )
    assert kind_test_sites(path) == ["probe.py:5 config.weights.kind", "probe.py:6 spec.kind",
                                     "probe.py:7 spec.kind", "probe.py:9 x.kind"]


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


def test_only_sampling_replays_numpy_streams():
    sites = [site for path in sorted(SRC.glob("*.py")) if path.name != "sampling.py"
             for site in stream_sites(path)]
    assert sites == []


def test_stream_guard_sees_every_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        '"""Seeds go through SeedSequence and PCG64."""\n'
        "import numpy as np\n"
        "from numpy.random.bit_generator import ISeedSequence\n"
        "from numpy.random import PCG64 as Bits\n"
        "def f(rng, seed):\n"
        "    # rng.bit_generator.random_raw draws raw words\n"
        "    words = rng.bit_generator.random_raw(4)\n"
        "    return np.random.SeedSequence(seed), 'PCG64', words\n"
    )
    assert stream_sites(path) == ["probe.py:3 bit_generator", "probe.py:3 ISeedSequence",
                                  "probe.py:4 PCG64", "probe.py:7 bit_generator",
                                  "probe.py:7 random_raw", "probe.py:8 SeedSequence"]
