"""kaczlab benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc-small --seed 1 --seconds 30 --trace 0

Runs rounds of one workload (see ``workloads.py``) until ``--seconds`` have
passed (at least three; one of each kind with ``--trace 1``), each on the
same inputs built from ``--seed``.
kaczlab is imported from the checkout's ``src/``; without it the benchmark
exits with code 2 and prints no result.  BLAS runs single-threaded (set
before numpy loads).

``--trace 0`` reports the end-to-end metrics.  Every round sets up the
same way and makes the same solver calls.  The host's speed changes in
phases that outlast a run, so each set-up and call is timed relative to a
reference loop run beside it and rescaled to that loop's nominal time
(see ``reference.py``); the set-up time and each call's time are the
median of these adjusted times over the rounds.

    setup_s             set-up before the first solver iteration:
                        problem generation, spectra,
                        lambda_max^block, conditioning reports, configs.  In
                        experiment-large, the command's time outside its
                        run_monte_carlo calls.
    iters_per_s         solver iterations of a round per second of its
                        solver-call time
    time_to_solution_s  mean time of one solver call: run_solver to the
                        default tolerance (solve-large), run_monte_carlo
                        (mc-small, experiment-large)
    peak_rss_mb         peak resident memory of the process

In mc-small and experiment-large the iteration counts are fixed (no
stopping tolerance), so time_to_solution_s there is iters_per_s rescaled:
calls / (iterations x iters_per_s).  Only in solve-large, where each solve
stops at the tolerance, do the two measure different things.

The report line also gives, ungated: ``unadjusted``, the same three times
from the median wall times with no reference; ``reference``, the median
time of the reference loop in the run, which shows how fast the host ran;
``wall_s``, the median wall time of a round without the reference loop
runs (in experiment-large, of the whole ``kaczlab experiment`` command);
and ``fail_frac``, failed over attempted operations.  setup_s plus the
solver calls cover a round; fail_frac is 0 when all is well.

``--trace 1`` alternates untraced and traced rounds, with no reference
loop, and reports the per-layer metrics of the traced round with the
median wall time, named ``<module>.<function>.<stat>`` (see ``spans.py``),
plus
``trace.overhead_s``: the fastest traced minus the fastest untraced round
wall time.

An operation (one run_monte_carlo call in mc-small, one solve in
solve-large, one config in experiment-large) fails on an exception or a
failed check.  ``correct`` also requires every round to produce the same
output digest, and in a traced run the spans of every traced round to nest
(see ``spans.py``).

The line before the result is ``perfbench-report`` and a JSON object with
the per-round values, failed operations, output digest, machine facts and
the full per-layer table.  Result, report and the first traced round's
spans go to ``.perfbench/`` in the checkout.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
MIN_ROUNDS = 3
# Single-threaded BLAS: a baseline that does not depend on how busy the
# host keeps the other cores.  On a shared two-core host, two threads made
# solve-large about 1.6 times faster but widened the spread of its
# iteration rate across seeds from 8% to 13%.
BLAS_THREADS = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def import_kaczlab():
    """Import kaczlab from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "kaczlab" / "__init__.py").is_file():
        raise ImportError(f"no kaczlab package under {src}")
    sys.path.insert(0, str(src))
    import kaczlab
    import kaczlab.cli  # noqa: F401  (the tracer wraps names in every kaczlab module)

    if Path(kaczlab.__file__).resolve().parent != (src / "kaczlab").resolve():
        raise ImportError(f"kaczlab was imported from {kaczlab.__file__}, not {src}")


def measure(run_round, reference, seed: int, seconds: float, tracer, workdir: Path):
    """Run rounds until ``seconds`` have passed.  With a tracer, rounds
    alternate untraced and traced, run no reference loop, and each traced
    round yields a layer table; the first traced round's spans are saved."""
    untraced, traced, tables = [], [], []
    if tracer is not None:
        reference = None
    start = time.perf_counter()
    while True:
        untraced.append(run_round(seed, workdir, reference))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            tracer.open_root()
            try:
                traced.append(run_round(seed, workdir))
            finally:
                tracer.close_root()
                tracer.uninstall()
            tables.append(tracer.layer_stats())
            if len(tables) == 1:
                tracer.save(workdir / "spans.npz")
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (tracer is not None or len(untraced) >= MIN_ROUNDS):
            return untraced, traced, tables


def end_to_end(rounds, nominal_s: float | None) -> dict:
    """The timed metrics from the median over rounds of each section's
    time, relative to its reference time and rescaled to ``nominal_s``
    (unadjusted wall times with ``None``).  Every round repeats the same
    set-up and calls."""
    def median(times, refs):
        if nominal_s is None:
            return statistics.median(times)
        return statistics.median(t / r for t, r in zip(times, refs)) * nominal_s

    call_s = [median(times, refs) for times, refs in
              zip(zip(*(r.call_s for r in rounds)), zip(*(r.call_ref_s for r in rounds)))]
    return {
        "setup_s": median([r.setup_s for r in rounds], [r.setup_ref_s for r in rounds]),
        "iters_per_s": rounds[0].iterations / sum(call_s),
        "time_to_solution_s": statistics.fmean(call_s),
    }


def per_layer(untraced, traced, tables) -> dict:
    # One whole table, so its self times still sum to its wall time.
    walls = [t["trace.wall_s"] for t in tables]
    stats = dict(tables[walls.index(statistics.median_low(walls))])
    stats["trace.overhead_s"] = min(r.wall_s for r in traced) - min(r.wall_s for r in untraced)
    return stats


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    # Inputs come from --seed only.
    os.environ.pop("KACZLAB_SEED", None)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        import_kaczlab()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from machine import machine_facts
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / tag
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None

    run_round, reference = WORKLOADS[args.workload]
    untraced, traced, tables = measure(run_round, reference, args.seed, args.seconds,
                                       tracer, workdir)
    rounds = untraced + traced
    ops = [op for r in rounds for op in r.ops]
    failed_ops = [dataclasses.asdict(op) for op in ops if not op.ok]
    digests = sorted({r.digest for r in rounds})
    correct = not failed_ops and len(digests) == 1
    ungated = {}
    if args.trace:
        values = per_layer(untraced, traced, tables)
        correct = correct and all(t["trace.nested"] for t in tables)
        declared = spec["per_layer"]
    elif all(r.call_s for r in untraced):
        values = end_to_end(untraced, reference.nominal_s)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        declared = spec["end_to_end"]
        ungated["unadjusted"] = end_to_end(untraced, None)
        ungated["reference"] = {
            "name": reference.name,
            "nominal_s": reference.nominal_s,
            "median_s": statistics.median([r.setup_ref_s for r in untraced]
                                          + [x for r in untraced for x in r.call_ref_s]),
        }
    else:
        print(f"error: a round completed no solver call: {failed_ops[:3]}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: no value for declared metrics {missing}", file=sys.stderr)
        return 1

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": {"untraced": len(untraced), "traced": len(traced)},
        "per_round": {
            field: [getattr(r, field) for r in untraced]
            for field in ("setup_s", "setup_ref_s", "wall_s", "iterations")
        } | {"call_s": [r.call_s for r in untraced],
             "call_ref_s": [r.call_ref_s for r in untraced]},
        "ungated": ungated | {
            "wall_s": {"value": statistics.median(r.wall_s for r in untraced), "unit": "s"},
            "fail_frac": {"value": len(failed_ops) / len(ops), "unit": "ratio"},
        },
        "failed_ops": failed_ops,
        "ops_first_round": [dataclasses.asdict(op) for op in untraced[0].ops],
        "digest": digests[0] if len(digests) == 1 else digests,
        "digest_consistent": len(digests) == 1,
        "absent_layers": tracer.absent if tracer else [],
        "all_values": values,
        "machine": machine_facts(ROOT, BLAS_THREADS),
    }
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed_ops),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    (workdir / "report.json").write_text(json.dumps(report, indent=2))
    (workdir / "result.json").write_text(json.dumps(result, indent=2))
    del report["ops_first_round"]  # kept in the file only
    print("perfbench-report " + json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
