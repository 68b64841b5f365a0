"""Benchmark pairs: the benchmark of two git revisions, run in alternating
pairs and written as a BENCH file.

Unpacks the committed tree of a base and a head revision (``git
archive``), then for each workload runs each tree's own
``perfbench/run.py --workload W --seed SEED --seconds S --trace 0`` in a
subprocess, the two sides alternating: the base first in even pairs, the
head first in odd ones.  Before each pair both trees are renamed to names
of one length, cycling through ``PATH_LENGTHS`` characters: where malloc
places the arrays follows the process's earlier allocations down to the
length of the tree's path, and the rotation spreads that placement over
both sides instead of handing one side the lucky offset in every pair.
It writes a JSON file with the keys of the committed ``BENCH_*.json``
files: per workload and end-to-end metric the medians over the pairs, the
pairs the head wins (ties count for neither), the interquartile range of
each side's runs, the benchmark's bound on that spread (``iqr_bound``: the
metric's declared ``bound`` times the base's median; a side over it is
reported on stderr) and every run in pair order; failed and attempted
operations, with the failed share (failed over attempted, the share the
benchmark compares) and the operations per round (attempted over the
rounds of each report: runs last a fixed time, so the raw sums follow the
host's speed), output digests, source line counts, each pair's path length
and the machine facts ``perfbench/machine.py`` reports.  ``peak_rss_mb``
also gives each side's median per path length (``by_path_length``), so
that a move of a megabyte or two can be told from placement.  ``claimed`` is
left null, for the author to fill in.  It asserts nothing.

With ``--ladder`` it also times ``kaczlab solve`` and ``kaczlab
experiment`` (the fixed small plan ``EXPERIMENT_PLAN``) on each rung of the
size ladder (``LADDER``: 20x20 tau=1, 200x50 tau=8, 2000x500 tau=8 and
tau=64) in the same alternating pairs, one BLAS thread, and writes a
``ladder`` section: per rung and command the median wall times of the whole
command (interpreter start-up included), the pairs the head wins, each
side's IQR and its bound (that of ``time_to_solution_s``), every run, and each side's exit codes, and ``solve``'s status
lines or the sha256 of ``experiment``'s ``summary.json``.

    python tools/bench_pairs.py --base REV --head REV [--pairs N] [--seconds S]
                                [--workload W ...] [--seed SEED] [--ladder]
                                [--out PATH]

The default output is ``BENCH_<n>.json`` at the root of the repository,
n one more than the highest there.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
REPORT_PREFIX = "perfbench-report "
# The lengths of the trees' directory names, one per pair in turn.
PATH_LENGTHS = (1, 3, 5, 9)
# The declared metric whose bound the ladder's wall times take.
LADDER_BOUND_METRIC = "time_to_solution_s"

# The size ladder: each rung's recipe, sampling, and the ``kaczlab solve``
# arguments it adds to SOLVE_ARGS.  The 20x20 system does not reach the
# default tolerance, so its solve runs a fixed 20,000 iterations; the others
# run to the tolerance.
SOLVE_ARGS = ["solve", "--seed", "1", "--method", "rbk", "--stepsize", "constant-extrapolated",
              "--max-iters", "100000"]
LADDER = {
    "20x20-tau1": ("gaussian:20x20", "uniform:1", ["--max-iters", "20000", "--residual-tol", "0"]),
    "200x50-tau8": ("gaussian:200x50", "uniform:8", []),
    "2000x500-tau8": ("gaussian:2000x500", "uniform:8", []),
    "2000x500-tau64": ("gaussian:2000x500", "uniform:64", []),
}
# The ``kaczlab experiment`` plan of every rung, given the rung's recipe and
# sampling: a fixed 200 steps of 4 trials, the system of ``solve``'s seed.
EXPERIMENT_PLAN = {
    "recipe_seed": 1, "trials": 4,
    "configs": [{"name": "rbk-constant-extrapolated", "method": "rbk",
                 "stepsize": {"kind": "constant-extrapolated"},
                 "max_iters": 200, "residual_tol": 0.0, "seed": 1}],
}
CLI_MAIN = "import sys; from kaczlab.cli import main; sys.exit(main())"


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _unpack(rev: str, into: Path) -> Path:
    """``rev``'s committed tree, unpacked under ``into``."""
    tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into


def _rotate(trees: dict[str, Path], pair: int) -> None:
    """Rename each side's tree to the side's first letter, repeated to the
    pair's length in ``PATH_LENGTHS``."""
    length = PATH_LENGTHS[pair % len(PATH_LENGTHS)]
    for side, tree in trees.items():
        trees[side] = tree.rename(tree.with_name(side[0] * length))


def _source_lines(tree: Path) -> int:
    return sum(len(path.read_text().splitlines())
               for path in sorted((tree / "src" / "kaczlab").glob("*.py")))


def _run(tree: Path, command: list[str]) -> tuple[dict, dict]:
    """One benchmark run in ``tree``: its report and its result line."""
    done = subprocess.run([sys.executable, *command], cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} in {tree} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    report = next(json.loads(line[len(REPORT_PREFIX):]) for line in lines
                  if line.startswith(REPORT_PREFIX))
    return report, json.loads(lines[-1])


def _cli(tree: Path, args: list[str], cwd: Path) -> tuple[float, subprocess.CompletedProcess]:
    """One ``kaczlab`` command of ``tree``'s source, run in ``cwd`` at one
    BLAS thread: its wall time and result."""
    env = {k: v for k, v in os.environ.items() if k != "KACZLAB_SEED"}
    env |= {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = str(tree / "src")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", CLI_MAIN, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    return time.perf_counter() - start, done


def _solve(tree: Path, args: list[str]) -> tuple[float, int, str]:
    """One ``kaczlab solve`` run: its wall time, exit code and last output
    line.  Exit 2 (max-iters) is a result."""
    wall, done = _cli(tree, args, tree)
    if done.returncode not in (0, 2):
        raise RuntimeError(f"kaczlab {' '.join(args)} in {tree} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return wall, done.returncode, done.stdout.strip().splitlines()[-1]


def _experiment(tree: Path, plan: dict) -> tuple[float, int, str]:
    """One ``kaczlab experiment`` run of ``plan`` in a new directory: its
    wall time, exit code and the sha256 of its ``summary.json``."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "plan.json").write_text(json.dumps(plan))
        wall, done = _cli(tree, ["experiment", "plan.json", "--outdir", "out"], Path(tmp))
        summary = Path(tmp, "out", "summary.json")
        digest = (hashlib.sha256(summary.read_bytes()).hexdigest() if summary.exists()
                  else "no summary.json")
    return wall, done.returncode, digest


def _ladder(trees: dict[str, Path], pairs: int, bound: float) -> dict:
    """Every rung of ``LADDER``, ``solve`` and ``experiment``, timed in
    alternating base/head pairs; ``bound`` is the relative bound on each
    side's IQR."""
    out = {}
    for rung, (recipe, sampling, extra) in LADDER.items():
        args = ["--recipe", recipe, "--sampling", sampling, *extra]
        plan = EXPERIMENT_PLAN | {"recipe": recipe, "configs": [
            config | {"sampling": sampling} for config in EXPERIMENT_PLAN["configs"]]}
        commands = {
            "solve": ("kaczlab " + " ".join(SOLVE_ARGS + args), "status_lines",
                      lambda tree: _solve(tree, SOLVE_ARGS + args)),
            "experiment": ("kaczlab experiment plan.json --outdir out", "summary_digests",
                           lambda tree: _experiment(tree, plan)),
        }
        out[rung] = {}
        for name, (command, result, run) in commands.items():
            runs = {"base": [], "head": []}
            for i in range(pairs):
                _rotate(trees, i)
                for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                    runs[side].append(run(trees[side]))
                    print(f"ladder {rung} {name} pair {i + 1}/{pairs} {side}: "
                          f"{runs[side][-1][0]:.3f} s", file=sys.stderr)
            base, head = ([wall for wall, _, _ in runs[side]] for side in ("base", "head"))
            parent, change = statistics.median(base), statistics.median(head)
            out[rung][name] = {
                "command": command,
                **({"plan": plan} if name == "experiment" else {}),
                "unit": "s", "better": "lower",
                "parent": round(parent, 4), "change": round(change, 4),
                "change_wins": sum(h < b for b, h in zip(base, head)),
                "parent_iqr": round(_iqr(base), 4), "change_iqr": round(_iqr(head), 4),
                "iqr_bound": round(bound * parent, 4),
                "relative_change": round((change - parent) / parent, 4),
                "parent_runs": [round(v, 4) for v in base],
                "change_runs": [round(v, 4) for v in head],
                "exit_codes": {key: _one_or_all([code for _, code, _ in runs[s]])
                               for key, s in (("parent", "base"), ("change", "head"))},
                result: {key: _one_or_all([line for _, _, line in runs[s]])
                         for key, s in (("parent", "base"), ("change", "head"))},
            }
            _check_spread(f"ladder {rung} {name}", out[rung][name])
    return out


def _iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def _check_spread(label: str, entry: dict) -> None:
    """Report on stderr each side whose runs spread wider than the bound."""
    for side in ("parent", "change"):
        if entry[f"{side}_iqr"] > entry["iqr_bound"]:
            print(f"{label}: the {side}'s runs spread too widely to tell: IQR "
                  f"{entry[f'{side}_iqr']:.6g} exceeds {entry['iqr_bound']:.6g}", file=sys.stderr)


def _path_lengths(pairs: int) -> list[int]:
    """The path length of each pair in turn (``_rotate``)."""
    return [PATH_LENGTHS[i % len(PATH_LENGTHS)] for i in range(pairs)]


def _metrics(workload: str, declared: list[dict], runs: dict[str, list[dict]]) -> dict:
    lengths = _path_lengths(len(runs["base"]))
    out = {}
    for metric in declared:
        name, better = metric["name"], metric["better"]
        base, head = ([r["metrics"][name]["value"] for r in runs[side]] for side in ("base", "head"))
        wins = sum((h < b) if better == "lower" else (h > b) for b, h in zip(base, head))
        parent, change = statistics.median(base), statistics.median(head)
        out[name] = {
            "unit": metric["unit"], "better": better,
            "parent": round(parent, 6), "change": round(change, 6),
            "change_wins": wins, "parent_iqr": round(_iqr(base), 6),
            "change_iqr": round(_iqr(head), 6), "iqr_bound": round(metric["bound"] * parent, 6),
            "relative_change": round((change - parent) / parent, 4),
            "parent_runs": [round(v, 6) for v in base], "change_runs": [round(v, 6) for v in head],
        }
        if name == "peak_rss_mb":
            out[name]["by_path_length"] = {
                str(length): {key: round(statistics.median(
                    v for v, at in zip(values, lengths) if at == length), 6)
                    for key, values in (("parent", base), ("change", head))}
                for length in sorted(set(lengths))}
        _check_spread(f"{workload} {name}", out[name])
    return out


def _one_or_all(values: list):
    distinct = sorted(set(values))
    return distinct[0] if len(distinct) == 1 else distinct


def bench(base: str, head: str, pairs: int, seconds: float, workloads: list[str],
          seed: int, ladder: bool = False) -> dict:
    commits = {"base": _git("rev-parse", base), "head": _git("rev-parse", head)}
    command = ["perfbench/run.py", "--workload", "W", "--seed", str(seed),
               "--seconds", f"{seconds:g}", "--trace", "0"]
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: _unpack(commits[side], Path(tmp) / side) for side in commits}
        declared = json.loads((trees["head"] / "BENCHMARK.json").read_text())["end_to_end"]
        lines = {side: _source_lines(tree) for side, tree in trees.items()}
        results, machine = {}, None
        for workload in workloads:
            argv = [workload if a == "W" else a for a in command]
            reports, runs = {"base": [], "head": []}, {"base": [], "head": []}
            for i in range(pairs):
                _rotate(trees, i)
                for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                    report, result = _run(trees[side], argv)
                    reports[side].append(report)
                    runs[side].append(result)
                    machine = machine or report["machine"]
                    print(f"{workload} pair {i + 1}/{pairs} {side}: "
                          + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                          file=sys.stderr)
            sides = {"parent": "base", "change": "head"}
            failed = {key: sum(r["failed"] for r in runs[s]) for key, s in sides.items()}
            attempted = {key: sum(r["attempted"] for r in runs[s]) for key, s in sides.items()}
            rounds = {key: sum(sum(r["rounds"].values()) for r in reports[s])
                      for key, s in sides.items()}
            results[workload] = {
                "pairs": pairs,
                "failed_ops": failed,
                "attempted_ops": attempted,
                "failed_share": {key: failed[key] / attempted[key] for key in sides},
                "ops_per_round": {key: round(attempted[key] / rounds[key], 4) for key in sides},
                "output_digest": {key: _one_or_all([r["digest"] if isinstance(r["digest"], str)
                                                    else json.dumps(r["digest"])
                                                    for r in reports[s]])
                                  for key, s in sides.items()},
                "all_correct": {key: all(r["correct"] for r in runs[s]) for key, s in sides.items()},
                "metrics": _metrics(workload, declared, runs),
            }
        rungs = (_ladder(trees, pairs, next(m["bound"] for m in declared
                                            if m["name"] == LADDER_BOUND_METRIC))
                 if ladder else None)
    equal = [w for w, r in results.items()
             if r["output_digest"]["parent"] == r["output_digest"]["change"]]
    doc = {
        "change": _git("log", "-1", "--format=%s", commits["head"]),
        "parent_commit": commits["base"],
        "change_commit": commits["head"],
        "command": "python3 " + " ".join(command),
        "method": (f"{pairs} alternating parent/change pairs per workload (parent first in even "
                   "pairs), each side in its own checkout (git archive of the parent commit and "
                   "of the change's commit), run by tools/bench_pairs.py; before each pair both "
                   "checkouts are renamed to directory names of one length, cycling through "
                   f"{', '.join(map(str, PATH_LENGTHS))} characters (path_lengths: the length "
                   "of each pair in turn), so that the placement of arrays, which follows the "
                   "path's length, is spread over both sides; medians over the pairs; "
                   "change_wins counts pairs where the change is better; parent_iqr and "
                   "change_iqr are the interquartile ranges of each side's runs, iqr_bound "
                   "the declared bound times the parent's median (the ladder's: that of "
                   f"{LADDER_BOUND_METRIC}); parent_runs/change_runs list every run in pair "
                   "order"),
        "path_lengths": _path_lengths(pairs),
        "claimed": None,
        "digests": (f"Output digests equal the parent's on {', '.join(equal) or 'no workload'}; "
                    f"they differ on {', '.join(w for w in results if w not in equal) or 'none'}."),
        "source_lines": {"parent": lines["base"], "change": lines["head"],
                         "net": lines["head"] - lines["base"],
                         "counted_by": "cat src/kaczlab/*.py | wc -l"},
        "machine": machine,
        "workloads": results,
    }
    if rungs is not None:
        doc["ladder"] = rungs
    return doc


def _next_bench_path() -> Path:
    numbers = [int(m.group(1)) for p in REPO.glob("BENCH_*.json")
               if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return REPO / f"BENCH_{max(numbers, default=0) + 1}.json"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the parent")
    parser.add_argument("--head", required=True, help="git revision of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0, help="run length of each side")
    parser.add_argument("--workload", action="append",
                        help="workload to run, repeatable (default: every one BENCHMARK.json lists)")
    parser.add_argument("--seed", type=int, default=1, help="the benchmark's input seed")
    parser.add_argument("--ladder", action="store_true",
                        help="also time kaczlab solve and experiment on each rung of the "
                             "size ladder")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default: the next BENCH_<n>.json in the repository)")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.seconds <= 0:
        parser.error("--pairs must be at least 2 (for the quartiles) and --seconds positive")
    workloads = args.workload or [w["name"] for w in
                                  json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]
    out = args.out or _next_bench_path()
    doc = bench(args.base, args.head, args.pairs, args.seconds, workloads, args.seed, args.ladder)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
