"""Command-line harness: build test systems, run solver configurations,
compare empirical decay against predicted rates, and emit machine-readable
outputs.

Subcommands: ``solve``, ``analyze``, ``experiment``, ``paving``.  The
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
from .analysis import (
    block_lambda_max,
    build_conditioning_report,
    paving_quality,
    predict_rates,
)
from .errors import ConfigMismatchError, KaczlabError
from .linalg import RANK_TOL, LinearSystem, normalize_rows
from .problems import generate_problem, parse_recipe, recipe_from_dict
from .sampling import (
    SamplingSpec,
    UniformSubset,
    build_random_paving,
    frobenius_partition,
    full_batch,
    partition_spec,
    paving_to_json,
    sampling_from_dict,
)
from .solver import (
    CONVERGED,
    MAX_ITERS,
    STALLED,
    SolverConfig,
    config_from_dict,
    pad_to,
    run_monte_carlo,
    run_solver,
)
from .stepsize import (
    STEPSIZE_KINDS,
    WEIGHT_KINDS,
    Adaptive,
    ChebyshevPD,
    ClassicConstant,
    ExtrapolatedConstant,
    stepsize_from_dict,
    weights_from_dict,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MAX_ITERS = 2
EXIT_STALLED = 3

_STATUS_EXIT = {CONVERGED: EXIT_OK, MAX_ITERS: EXIT_MAX_ITERS, STALLED: EXIT_STALLED}


def _env_seed(seed: int) -> int:
    env = os.environ.get("KACZLAB_SEED")
    return int(env) if env else seed


def _load_system(args) -> LinearSystem:
    if getattr(args, "recipe", None):
        recipe_seed = args.recipe_seed if args.recipe_seed is not None else args.seed
        return generate_problem(parse_recipe(args.recipe, seed=recipe_seed))
    if not (getattr(args, "matrix", None) and getattr(args, "rhs", None)):
        raise KaczlabError("provide either --recipe or --matrix/--rhs")
    A = mmio.read_matrix(args.matrix)
    b = mmio.read_vector(args.rhs)
    system = LinearSystem(A, b)
    if getattr(args, "normalize", False):
        system, _ = normalize_rows(system)
    return system


def build_sampling(text: str, system: LinearSystem, seed: int, probs: str = "uniform") -> SamplingSpec:
    """Parse ``uniform:T``, ``partition:S`` (contiguous blocks of about S
    rows), ``paving:L`` (seeded random paving into L blocks), or ``full``."""
    m = system.m
    kind, _, param = text.partition(":")
    if kind == "uniform":
        return UniformSubset(m, int(param))
    if kind == "partition":
        size = int(param)
        if size < 1 or size > m:
            raise KaczlabError(f"partition block size {size} out of range")
        groups = np.array_split(np.arange(m), max(1, round(m / size)))
        blocks = [tuple(int(i) for i in g) for g in groups]
    elif kind == "paving":
        blocks = build_random_paving(seed, m, int(param)).blocks
    elif kind == "full":
        return full_batch(m)
    else:
        raise KaczlabError(f"unknown sampling spec {text!r}")
    if probs == "frobenius":
        return frobenius_partition(system, blocks)
    return partition_spec(blocks)


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
    }


def _positive_lambda_min(system: LinearSystem) -> float:
    gram = system.gram_spectrum
    if gram.lambda_min <= RANK_TOL * gram.lambda_max:
        raise ConfigMismatchError(
            "chebyshev-pd requires lambda_min(A A^T) > 0; use chebyshev-singular"
        )
    return gram.lambda_min


def _resolve_config(doc: dict, system: LinearSystem, budget: int, diagnostics: bool) -> SolverConfig:
    """Build the SolverConfig of an experiment-plan entry (``solve``'s flags
    become one too).

    The sampling is a ``build_sampling`` string or a JSON dict, the weights
    a weight kind name.  Stepsize fields the entry leaves out are derived
    from the system, computing only what the policy's kind needs.
    ``KACZLAB_SEED`` overrides the entry's seed.
    """
    seed = _env_seed(int(doc.get("seed", 0)))
    sampling = doc["sampling"]
    if isinstance(sampling, str):
        spec = build_sampling(sampling, system, seed, probs=doc.get("partition_probs", "uniform"))
    else:
        spec = sampling_from_dict(sampling)
    max_iters = int(doc["max_iters"])
    derived = {
        "lambda_max_block": lambda: block_lambda_max(system, spec, budget=budget, seed=seed)[0],
        "lambda_min": lambda: _positive_lambda_min(system),
        "lambda_max": lambda: system.gram_spectrum.lambda_max,
        "m": lambda: system.m,
        "horizon": lambda: max_iters,
    }
    step = doc["stepsize"]
    if isinstance(step, dict) and step.get("kind") in STEPSIZE_KINDS:
        fields = dataclasses.fields(STEPSIZE_KINDS[step["kind"]])
        step = step | {f.name: derived[f.name]() for f in fields
                       if f.name in derived and f.name not in step}
    return SolverConfig(
        method=doc["method"],
        sampling=spec,
        weights=weights_from_dict({"kind": doc.get("weights", "uniform")}, spec, system),
        stepsize=stepsize_from_dict(step),
        max_iters=max_iters,
        residual_tol=doc.get("residual_tol"),
        seed=seed,
        diagnostics=diagnostics,
    )


def _typical_block_size(spec: SamplingSpec) -> float:
    if isinstance(spec, UniformSubset):
        return float(spec.tau)
    sizes = [len(blk) for blk in spec.blocks]
    return float(sizes[0]) if len(set(sizes)) == 1 else float(np.mean(sizes))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    system = _load_system(args)
    if args.config:
        doc = json.loads(Path(args.config).read_text())
        doc["seed"] = _env_seed(int(doc.get("seed", 0)))
        config = config_from_dict(doc, system)
    else:
        config = _resolve_config(_plan_entry(args), system, args.budget, args.diagnostics)
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
    rates = predict_rates(report, weights, args.delta, _typical_block_size(spec))

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

def _theory_factor(config: SolverConfig, system: LinearSystem, budget: int) -> float:
    """Per-iteration contraction factor of the theorem matching the config;
    1.0 when no theorem applies.  Chebyshev rows use the squared factor of
    the weak (expected-iterate) criterion and are informational only."""
    policy = config.stepsize
    report = build_conditioning_report(system, config.sampling, budget=budget, seed=config.seed)
    rates = predict_rates(report, config.weights, getattr(policy, "delta", 1.0),
                          _typical_block_size(config.sampling))
    if isinstance(policy, ClassicConstant):
        a = policy.alpha
        return 1.0 - a * (2.0 - a) * report.lambda_min_nz_AAt / report.frobenius_sq
    if isinstance(policy, ExtrapolatedConstant):
        return rates.rate_constant_stepsize
    if isinstance(policy, Adaptive):
        return rates.rate_adaptive
    if isinstance(policy, ChebyshevPD):
        return rates.cheb_factor**2
    return 1.0


def cmd_experiment(args) -> int:
    plan = json.loads(Path(args.plan).read_text())
    recipe = plan["recipe"]
    if isinstance(recipe, str):
        recipe = parse_recipe(recipe, seed=int(plan.get("recipe_seed", 0)))
    else:
        recipe = recipe_from_dict(recipe)
    system = generate_problem(recipe)
    trials = int(plan.get("trials", 1))
    outdir = Path(args.outdir or plan.get("outputs", {}).get("dir", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    budget = int(plan.get("budget", 1000))

    summary = {"trials": trials, "configs": []}
    for idx, doc in enumerate(plan["configs"]):
        name = doc.get("name", f"config{idx}")
        config = _resolve_config(doc, system, budget, diagnostics=True)
        factor = _theory_factor(config, system, budget)
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

def _add_system_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--recipe", help="synthetic system, e.g. gaussian:50x20")
    p.add_argument("--recipe-seed", type=int, default=None,
                   help="generator seed (defaults to --seed)")
    p.add_argument("--matrix", help="MatrixMarket file for A")
    p.add_argument("--rhs", help="one-value-per-line text file for b")
    p.add_argument("--normalize", action="store_true", help="row-normalize the loaded system")
    p.add_argument("--seed", type=int, default=0)


# Explicit weights need per-row values, which only a JSON config carries.
_WEIGHT_CHOICES = [kind for kind in WEIGHT_KINDS if kind != "explicit"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kaczlab",
                                     description="Randomized block Kaczmarz toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one solver configuration")
    _add_system_args(p)
    p.add_argument("--config", help="JSON file mirroring SolverConfig (overrides flags)")
    p.add_argument("--method", default="rbk", choices=["basic", "rbk", "block-projection"])
    p.add_argument("--sampling", default="uniform:1",
                   help="uniform:T | partition:S | paving:L | full")
    p.add_argument("--partition-probs", default="uniform", choices=["uniform", "frobenius"])
    p.add_argument("--weights", default="uniform", choices=_WEIGHT_CHOICES)
    p.add_argument("--stepsize", default="classic", choices=list(STEPSIZE_KINDS))
    p.add_argument("--alpha", type=float, default=1.0, help="classic stepsize")
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--residual-tol", type=float, default=None)
    p.add_argument("--budget", type=int, default=1000,
                   help="sampled supports for lambda_max^block estimates")
    p.add_argument("--diagnostics", action="store_true",
                   help="record distance to the solution set per iteration")
    p.add_argument("--out", help="trace CSV path")
    p.add_argument("--json-out", help="trace JSON path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("analyze", help="conditioning report and rate predictions")
    _add_system_args(p)
    p.add_argument("--sampling", default="uniform:1")
    p.add_argument("--partition-probs", default="uniform", choices=["uniform", "frobenius"])
    p.add_argument("--weights", default="uniform", choices=_WEIGHT_CHOICES)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--budget", type=int, default=1000)
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
