"""Golden diff report: which golden hashes a change to ``src`` moves, and by
how much.

Runs every case of ``tests/test_golden.py`` twice, each time in its own
subprocess: once on the ``src`` of a base git revision and once on the
working tree's ``src`` (or on a second revision's).  Both runs use the
working tree's ``tests/test_golden.py``, so the cases are the test file's
own: each test function is called with each of its parameter sets.  While a
case runs, the report records what its hash covers: the columns of every
trace (residual, dist_sq, alpha, final_x), every Monte-Carlo statistic,
every generated system (A, b, planted solution), and the numbers of every
CSV or JSON document the hash reads.

For each case it prints the hash before and after and, when the hash
changed, the largest relative difference |new - old| / max(|new|, |old|)
of each column that changed, with its largest absolute difference.  It
asserts nothing: the hashes in the test file stay the gate.

    python tools/golden_diff.py                    # HEAD against the working tree
    python tools/golden_diff.py --base REV [--head REV]
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import inspect
import io
import itertools
import json
import os
import pickle
import subprocess
import sys
import tarfile
import tempfile
import traceback
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# Recording, in the subprocess
# ---------------------------------------------------------------------------

def _text_columns(text: str) -> dict[str, np.ndarray]:
    """The numbers of a JSON or CSV document, by JSON path or CSV header."""
    try:
        doc = json.loads(text)
    except ValueError:
        rows = list(csv.reader(io.StringIO(text)))
        columns = {}
        for j, name in enumerate(rows[0] if rows else []):
            values = [_number(row[j]) if j < len(row) else None for row in rows[1:]]
            if any(v is not None for v in values):
                columns[name] = np.array(
                    [np.nan if v is None else v for v in values])
        return columns
    columns: dict[str, list[float]] = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for value in node:
                walk(value, f"{path}[]")
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            columns.setdefault(path, []).append(float(node))

    walk(doc, "")
    return {key: np.array(values) for key, values in columns.items()}


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def record_cases(out: Path) -> None:
    """Run every test_golden case on the kaczlab found on sys.path and
    pickle, per case, its hash and recorded columns to ``out``."""
    import pytest
    import test_golden as tg

    current: dict = {}

    def add(prefix: str, columns: dict) -> None:
        n = sum(key.startswith(prefix) for key in current["columns"])
        tag = f"{prefix}{n}." if n else prefix
        for key, value in columns.items():
            current["columns"][tag + key] = np.asarray(value)

    def wrap(fn, prefix, columns_of):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            add(prefix, columns_of(result))
            return result
        return wrapper

    def trace_columns(trace):
        return {"residual": trace.residual, "dist_sq": trace.dist_sq,
                "alpha": trace.alpha[1:], "final_x": trace.final_x}

    def mc_columns(mc):
        return {name: value for name, value in vars(mc).items()
                if isinstance(value, np.ndarray) and value.dtype.kind in "fi"}

    def system_columns(system):
        return {"A": system.A, "b": system.b, "planted": system.planted_solution}

    def digest(*parts):
        for i, part in enumerate(parts):
            if isinstance(part, bytes):
                try:
                    part = part.decode()
                except UnicodeDecodeError:
                    continue
            if isinstance(part, str):
                add(f"doc{i}:", _text_columns(part))
        current["digest"] = real_digest(*parts)
        return current["digest"]

    real_digest = tg._digest
    tg._digest = digest
    tg.run_solver = wrap(tg.run_solver, "trace:", trace_columns)
    tg.run_monte_carlo = wrap(tg.run_monte_carlo, "mc:", mc_columns)
    tg.generate_problem = wrap(tg.generate_problem, "system:", system_columns)

    results = {}
    for name, fn in sorted(vars(tg).items()):
        if not (name.startswith("test_") and callable(fn)):
            continue
        marks = [m for m in getattr(fn, "pytestmark", []) if m.name == "parametrize"]
        axes = []
        for mark in marks:
            names = [s.strip() for s in mark.args[0].split(",")]
            axes.append([dict(zip(names, v if len(names) > 1 else (v,))) for v in mark.args[1]])
        for combo in itertools.product(*axes):
            params = {k: v for d in combo for k, v in d.items()}
            case = name + (f"[{'-'.join(map(str, params.values()))}]" if params else "")
            current = {"digest": None, "columns": {}, "error": None}
            with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp, \
                    contextlib.redirect_stdout(io.StringIO()):
                fixtures = {"tmp_path": Path(tmp), "monkeypatch": mp, "capsys": None}
                wanted = [p for p in inspect.signature(fn).parameters if p not in params]
                try:
                    fn(**params, **{p: fixtures[p] for p in wanted})
                except AssertionError:
                    pass  # the hash in the test file is checked by the tests, not here
                except Exception:
                    current["error"] = traceback.format_exc(limit=3)
            results[case] = current
    out.write_bytes(pickle.dumps(results))


# ---------------------------------------------------------------------------
# Comparing, in the parent process
# ---------------------------------------------------------------------------

def _src_of(rev: str | None, into: Path) -> Path:
    """The working tree's src for ``rev`` None, else ``rev``'s, unpacked."""
    if rev is None:
        return REPO / "src"
    tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into / "src"


def _run(src: Path, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(REPO / "tests")]))
    subprocess.run([sys.executable, __file__, "--record", str(out)], check=True, env=env)
    return pickle.loads(out.read_bytes())


def differences(old: np.ndarray, new: np.ndarray) -> tuple[float, float]:
    """The largest |new - old| / max(|new|, |old|) over the entries, and the
    largest |new - old|; equal entries (NaN too) count 0, and a change of
    shape or of finiteness counts inf."""
    old, new = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    if old.shape != new.shape:
        return np.inf, np.inf
    same = (old == new) | (np.isnan(old) & np.isnan(new))
    if same.all():
        return 0.0, 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        absolute = np.nan_to_num(np.abs(new - old), nan=np.inf)
        relative = np.nan_to_num(absolute / np.maximum(np.abs(old), np.abs(new)), nan=np.inf)
    return float(relative[~same].max()), float(absolute[~same].max())


def report(old: dict, new: dict) -> None:
    changed = 0
    for case in sorted(old.keys() | new.keys()):
        a, b = old.get(case), new.get(case)
        if a is None or b is None:
            print(f"{case}: only in the {'head' if a is None else 'base'} run")
            continue
        for side, r in (("base", a), ("head", b)):
            if r["error"]:
                print(f"{case}: {side} run failed\n{r['error']}")
        if a["digest"] == b["digest"]:
            print(f"{case}: {a['digest']} unchanged")
            continue
        changed += 1
        print(f"{case}: {a['digest']} -> {b['digest']}")
        equal = 0
        for column in sorted(a["columns"].keys() | b["columns"].keys()):
            if column not in a["columns"] or column not in b["columns"]:
                print(f"    {column}: only in the {'base' if column in a['columns'] else 'head'} run")
                continue
            relative, absolute = differences(a["columns"][column], b["columns"][column])
            if relative == 0.0:
                equal += 1
            else:
                print(f"    {column}: {relative:.2e} (absolute {absolute:.2e})")
        print(f"    ({equal} columns equal)")
    print(f"{changed} of {len(old.keys() | new.keys())} hashes changed")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision of the base src (HEAD)")
    parser.add_argument("--head", default=None,
                        help="git revision of the changed src (default: the working tree)")
    parser.add_argument("--record", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record:
        record_cases(args.record)
        return
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "base").mkdir(), (tmp / "head").mkdir()
        old = _run(_src_of(args.base, tmp / "base"), tmp / "base.pkl")
        new = _run(_src_of(args.head, tmp / "head"), tmp / "head.pkl")
    report(old, new)


if __name__ == "__main__":
    main()
