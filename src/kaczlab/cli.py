"""Command-line harness: build test systems, run solver configurations,
compare empirical decay against predicted rates, and emit machine-readable
outputs.

Subcommands: ``solve``, ``analyze``, ``experiment``, ``paving``.  ``solve
--config`` files, plan entries and ``solve``'s flags (made into a plan
entry) are one document schema, read by ``config_from_dict``.  The
environment variable ``KACZLAB_SEED`` overrides the configured solver seed
everywhere it is used: block draws, paving, sampled lambda_max^block.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import mmio
from .analysis import build_conditioning_report, check_budget, paving_quality, predict_rates
from .errors import KaczlabError
from .kernels import METHODS
from .linalg import LinearSystem, normalize_rows
from .problems import generate_problem, parse_recipe, recipe_from_dict
from .sampling import (
    PARTITION_PROBS,
    SAMPLING_FORMS,
    build_random_paving,
    build_sampling,
    paving_to_json,
)
from .solver import (
    CONVERGED,
    DIVERGED,
    MAX_ITERS,
    STALLED,
    config_from_dict,
    number_field,
    pad_to,
    run_monte_carlo,
    run_solver,
)
from .stepsize import STEPSIZE_KINDS, WEIGHT_KINDS, weights_from_dict

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MAX_ITERS = 2
EXIT_STALLED = 3
EXIT_DIVERGED = 4

_STATUS_EXIT = {CONVERGED: EXIT_OK, MAX_ITERS: EXIT_MAX_ITERS, STALLED: EXIT_STALLED,
                DIVERGED: EXIT_DIVERGED}


def _env_seed(seed):
    """``KACZLAB_SEED`` when set and not empty, else ``seed``."""
    env = os.environ.get("KACZLAB_SEED")
    if not env:
        return seed
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"KACZLAB_SEED must be an integer, got {env!r}") from None


def _with_env_seed(doc):
    """``doc`` with ``KACZLAB_SEED``, when set, as its seed."""
    return doc | {"seed": _env_seed(doc.get("seed", 0))} if isinstance(doc, dict) else doc


def _load_system(args) -> LinearSystem:
    if args.recipe:
        recipe_seed = args.recipe_seed if args.recipe_seed is not None else args.seed
        return generate_problem(parse_recipe(args.recipe, seed=recipe_seed))
    if not (args.matrix and args.rhs):
        raise KaczlabError("provide either --recipe or --matrix/--rhs")
    A = mmio.read_matrix(args.matrix)
    b = mmio.read_vector(args.rhs)
    system = LinearSystem(A, b)
    if args.normalize:
        system, _ = normalize_rows(system)
    return system


def _plan_entry(args) -> dict:
    """The experiment-plan entry that ``solve``'s flags describe."""
    fields = {f.name for f in dataclasses.fields(STEPSIZE_KINDS[args.stepsize])}
    flags = {"alpha": args.alpha, "delta": args.delta}
    return {
        "method": args.method,
        "sampling": args.sampling,
        "partition_probs": args.partition_probs,
        "weights": args.weights,
        "stepsize": {"kind": args.stepsize} | {k: v for k, v in flags.items() if k in fields},
        "max_iters": args.max_iters,
        "residual_tol": args.residual_tol,
        "seed": args.seed,
        "diagnostics": args.diagnostics,
    }


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    system = _load_system(args)
    doc = json.loads(Path(args.config).read_text()) if args.config else _plan_entry(args)
    config = config_from_dict(_with_env_seed(doc), system, args.budget)
    trace = run_solver(config, system)
    if args.out:
        trace.to_csv(args.out)
    if args.json_out:
        trace.to_json(args.json_out)
    print(f"{trace.status}: k={trace.iterations} residual={trace.residual[-1]:.6e}")
    return _STATUS_EXIT[trace.status]


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    system = _load_system(args)
    seed = _env_seed(args.seed)
    spec = build_sampling(args.sampling, system, seed, probs=args.partition_probs)
    weights = weights_from_dict({"kind": args.weights}, spec, system)
    report = build_conditioning_report(system, spec, budget=args.budget, seed=seed)
    rates = predict_rates(report, weights, args.delta, spec.mean_block_size())

    doc = {"conditioning": report.to_dict(), "rates": rates.to_dict()}
    rows = [
        ("lambda_max_block", f"{report.lambda_max_block:.6g} ({report.lambda_max_block_mode})"),
        ("lambda_min_nz(W)", f"{report.lambda_min_nz_W:.6g}"),
        ("||A||^2", f"{report.spectral_sq:.6g}"),
        ("||A||_F^2", f"{report.frobenius_sq:.6g}"),
        ("lambda_min/max(AA^T)", f"{report.lambda_min_AAt:.6g} / {report.lambda_max_AAt:.6g}"),
        ("rate (constant stepsize)", f"{rates.rate_constant_stepsize:.6g}"),
        ("rate (adaptive)", f"{rates.rate_adaptive:.6g}"),
        ("rate (basic baseline)", f"{rates.rate_basic:.6g}"),
        ("chebyshev factor", f"{rates.cheb_factor:.6g}"),
        ("speedup vs basic", f"{rates.speedup_vs_basic:.6g}"),
        ("row diversity ok", str(rates.diversity_ok)),
    ]
    if args.paving:
        pav = build_random_paving(seed, system.m, args.paving)
        quality = paving_quality(system, pav)
        doc["paving_quality"] = quality.to_dict()
        rows.append(
            (
                "paving quality",
                f"lambda_max_block={quality.lambda_max_block:.6g} "
                f"bound={quality.bound:.6g} satisfied={quality.satisfied}",
            )
        )
    width = max(len(k) for k, _ in rows)
    for key, val in rows:
        print(f"{key:<{width}}  {val}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# paving
# ---------------------------------------------------------------------------

def cmd_paving(args) -> int:
    paving = build_random_paving(_env_seed(args.seed), args.rows, args.blocks)
    text = paving_to_json(paving)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def _entry_names(configs) -> list[str]:
    """Each plan entry's CSV name: its ``name`` or ``config<index>``, a
    plain file name that no other entry has."""
    if not isinstance(configs, list) or not all(isinstance(doc, dict) for doc in configs):
        raise ValueError(f"configs must be a JSON list of objects, got {configs!r}")
    names = [doc.get("name", f"config{idx}") for idx, doc in enumerate(configs)]
    for idx, name in enumerate(names):
        if not isinstance(name, str) or Path(name).name != name or name in names[:idx]:
            raise ValueError(f"name must be a plain file name used once, got {name!r}")
    return names


def cmd_experiment(args) -> int:
    plan = json.loads(Path(args.plan).read_text())
    if not isinstance(plan, dict):
        raise ValueError(f"an experiment plan must be a JSON object, got {plan!r}")
    names = _entry_names(plan["configs"])
    recipe = plan["recipe"]
    if isinstance(recipe, str):
        recipe = parse_recipe(recipe, seed=number_field(plan, "recipe_seed", int, 0))
    else:
        recipe = recipe_from_dict(recipe)
    system = generate_problem(recipe)
    trials = number_field(plan, "trials", int, 1)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    budget = number_field(plan, "budget", int, 1000)
    check_budget(budget)
    outputs = plan.get("outputs", {})
    outdir = args.outdir or (outputs.get("dir", ".") if isinstance(outputs, dict) else None)
    if not isinstance(outdir, str):
        raise ValueError(f"outputs must be a JSON object with a string dir, got {outputs!r}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    summary = {"trials": trials, "configs": []}
    for name, doc in zip(names, plan["configs"]):
        config = config_from_dict(_with_env_seed(doc) | {"diagnostics": True}, system, budget)

        def rates(delta):
            # The report is built only if the policy's factor calls this.
            report = build_conditioning_report(system, config.sampling, budget, config.seed)
            return predict_rates(report, config.weights, delta, config.sampling.mean_block_size())
        factor = config.stepsize.theory_factor(system, rates)
        if trials == 1:
            trace = run_solver(config, system)
            mean = pad_to(trace.dist_sq, config.max_iters + 1)
            stderr = np.zeros(mean.size)
            hits = [trace.iterations if trace.status == CONVERGED else -1]
        else:
            mc = run_monte_carlo(config, system, trials)
            mean, stderr = mc.mean_dist_sq, mc.stderr_dist_sq
            hits = mc.hit_iteration.tolist()
        theory = mean[0] * factor ** np.arange(mean.size)
        csv_path = outdir / f"{name}.csv"
        with open(csv_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["k", "empirical_mean_dist_sq", "stderr", "theory_bound"])
            for k in range(mean.size):
                w.writerow([k, f"{mean[k]:.17g}", f"{stderr[k]:.17g}", f"{theory[k]:.17g}"])
        violations = int(np.sum(mean > theory * 1.1 + 3.0 * stderr))
        hit = [h for h in hits if h >= 0]
        summary["configs"].append(
            {
                "name": name,
                "csv": str(csv_path),
                "theory_factor": factor,
                "bound_violations": violations,
                "hit_fraction": len(hit) / len(hits),
                "median_iters_to_tol": float(np.median(hit)) if hit else None,
            }
        )
        print(f"{name}: factor={factor:.6g} violations={violations}")
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# Explicit weights need per-row values, which only a JSON config carries.
_WEIGHT_CHOICES = [kind for kind in WEIGHT_KINDS if kind != "explicit"]


def _add_system_args(p: argparse.ArgumentParser) -> None:
    """The flags ``solve`` and ``analyze`` share."""
    p.add_argument("--recipe", help="synthetic system, e.g. gaussian:50x20")
    p.add_argument("--recipe-seed", type=int, default=None,
                   help="generator seed (defaults to --seed)")
    p.add_argument("--matrix", help="MatrixMarket file for A")
    p.add_argument("--rhs", help="one-value-per-line text file for b")
    p.add_argument("--normalize", action="store_true", help="row-normalize the loaded system")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sampling", default="uniform:1", help=SAMPLING_FORMS)
    p.add_argument("--partition-probs", default="uniform", choices=PARTITION_PROBS)
    p.add_argument("--weights", default="uniform", choices=_WEIGHT_CHOICES)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--budget", type=int, default=1000,
                   help="sampled supports for lambda_max^block estimates")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kaczlab",
                                     description="Randomized block Kaczmarz toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one solver configuration")
    _add_system_args(p)
    p.add_argument("--config", help="JSON file in the plan-entry schema (overrides flags)")
    p.add_argument("--method", default="rbk", choices=METHODS)
    p.add_argument("--stepsize", default="classic", choices=list(STEPSIZE_KINDS))
    p.add_argument("--alpha", type=float, default=1.0, help="classic stepsize")
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--residual-tol", type=float, default=None)
    p.add_argument("--diagnostics", action="store_true",
                   help="record distance to the solution set per iteration")
    p.add_argument("--out", help="trace CSV path")
    p.add_argument("--json-out", help="trace JSON path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("analyze", help="conditioning report and rate predictions")
    _add_system_args(p)
    p.add_argument("--paving", type=int, default=None,
                   help="also check a seeded random paving with this many blocks")
    p.add_argument("--out", help="report JSON path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("experiment", help="run a Monte-Carlo experiment plan")
    p.add_argument("plan", help="experiment plan JSON")
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("paving", help="emit a random paving as JSON")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_paving)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KaczlabError, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
