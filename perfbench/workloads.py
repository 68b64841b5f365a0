"""The three benchmark workloads.  Each function runs one round: it builds
its inputs from the workload seed, sets up, runs its solver calls through
kaczlab's public API or CLI entry point, checks every result, and returns
the round's timings, counts, check outcomes and an output digest.

All kaczlab names are looked up on the package at call time, so a traced
round sees the wrapped functions.

Each workload names the reference loop its times are taken relative to
(see ``reference.py``): the one with the same bottleneck.  A round given no
reference (traced runs) runs no reference loop.

mc-small
    Monte-Carlo rate verification on small systems, the shape that
    dominates the acceptance suite: almost all Python and numpy dispatch.
    Ops: criterion 06's 20x20 Chebyshev horizons 1..40 (tau = 1), criterion
    01's 50x20 basic Kaczmarz, and 50x20 uniform 3-subsets with the constant
    extrapolated stepsize, whose lambda_max^block comes from exact
    enumeration of C(50, 3) supports.
solve-large
    Single solves to the default tolerance on a 2000x500 Gaussian system
    with uniform 8- and 64-subsets: the full residual, the draw from 2000
    rows and the per-row kernel dominate.  Subsets of 2000 rows practically
    never repeat, so per-block caches get no reuse here.  A round solves
    one system, once per tau, so a run's time to solution rests on one
    random iteration count per tau (they vary by about 5% between seeds);
    the median over runs on several seeds averages over systems and
    sampling streams, while more systems per round would leave fewer
    rounds to take the median over.
experiment-large
    ``kaczlab experiment`` on gaussian:2000x500 with three configs: the
    conditioning reports, pseudoinverse diagnostics, adaptive steps and
    block-projection least squares, over partition blocks that recur.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import tempfile
import time
from pathlib import Path

import numpy as np

import kaczlab
from reference import BLAS, DISPATCH, Sections

clock = time.perf_counter

MC_TRIALS = 50
MC_HORIZONS = range(1, 41)
MC_ITERS = 200

SOLVE_TAUS = (8, 64)
SOLVE_BUDGET = 500
SOLVE_MAX_ITERS = 100_000

EXP_TRIALS = 3
EXP_ITERS = 200
EXP_BUDGET = 500


def subseed(seed: int, *tags: int) -> int:
    """A 32-bit input seed derived from the workload seed and a tag path."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


@dataclasses.dataclass
class Op:
    name: str
    ok: bool
    detail: str


@dataclasses.dataclass
class Round:
    setup_s: float = 0.0
    setup_ref_s: float = math.nan  # reference time beside the set-up
    wall_s: float = 0.0  # of the round, without the reference loop runs
    call_s: list = dataclasses.field(default_factory=list)  # wall time per solver call
    call_ref_s: list = dataclasses.field(default_factory=list)  # reference time beside each
    iterations: int = 0
    ops: list = dataclasses.field(default_factory=list)
    digest: str = ""

    def failed(self, name: str, exc: Exception):
        self.ops.append(Op(name, False, f"{type(exc).__name__}: {exc}"))


def _mc_op(out: Round, sections: Sections, h, name, config, system, check):
    """One run_monte_carlo call, timed; ``check`` returns (ok, detail,
    bytes to digest)."""
    start = clock()
    try:
        mc = kaczlab.run_monte_carlo(config, system, MC_TRIALS)
        elapsed, ref = sections.end(start)
        ok, detail, data = check(mc)
    except Exception as exc:  # a failed operation, counted and reported
        out.failed(name, exc)
        return
    out.call_s.append(elapsed)
    out.call_ref_s.append(ref)
    out.iterations += MC_TRIALS * config.max_iters
    out.ops.append(Op(name, ok, detail))
    h.update(data)


def _rate_check(rate: float):
    """Criteria 01/02: mean dist^2 <= 1.1 * bound + 3 stderr at every k."""
    def check(mc):
        bound = mc.mean_dist_sq[0] * rate ** np.arange(mc.mean_dist_sq.size)
        ratio = float(np.max(mc.mean_dist_sq / (1.1 * bound + 3.0 * mc.stderr_dist_sq)))
        return ratio <= 1.0, f"worst ratio {ratio:.4f}", mc.mean_dist_sq.tobytes()
    return check


def mc_small(seed: int, workdir: Path, reference=None) -> Round:
    out, h = Round(), hashlib.sha256()
    sections = Sections(reference)
    t0 = clock()

    # Criterion 06's system: near-identity 20x20 rows, sampled one at a time.
    rng = np.random.default_rng(subseed(seed, 6))
    n = 20
    A = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    A /= np.linalg.norm(A, axis=1)[:, None]
    A /= np.linalg.norm(A, axis=1)[:, None]
    x_star = rng.standard_normal(n)
    cheb = kaczlab.LinearSystem(A, A @ x_star, planted_solution=x_star, normalized=True)
    gram = kaczlab.sym_eigenvalues(cheb.A @ cheb.A.T)
    u, ell = math.sqrt(gram.lambda_max / n), math.sqrt(gram.lambda_min / n)
    rho = (u - ell) / (u + ell)
    single = kaczlab.UniformSubset(n, 1)
    cheb_configs = [
        kaczlab.SolverConfig(
            "rbk", single, kaczlab.uniform_weights(single),
            kaczlab.ChebyshevPD(horizon=k, lambda_min=gram.lambda_min,
                                lambda_max=gram.lambda_max, m=n),
            max_iters=k, residual_tol=0.0, seed=subseed(seed, 600, k), trace_level="iterates",
        )
        for k in MC_HORIZONS
    ]

    # Criterion 01's shape: basic Kaczmarz on 50x20.
    basic_sys = kaczlab.generate_problem(kaczlab.GaussianNormalized(50, 20, seed=subseed(seed, 1)))
    basic_spec = kaczlab.UniformSubset(50, 1)
    basic_w = kaczlab.uniform_weights(basic_spec)
    basic_report = kaczlab.build_conditioning_report(basic_sys, basic_spec)
    basic_rate = kaczlab.predict_rates(basic_report, basic_w, 1.0, 1).rate_basic
    basic_config = kaczlab.SolverConfig(
        "basic", basic_spec, basic_w, kaczlab.ClassicConstant(1.0),
        max_iters=MC_ITERS, residual_tol=0.0, seed=subseed(seed, 101), diagnostics=True,
    )

    # Uniform 3-subsets of 50 rows with the constant extrapolated stepsize.
    ext_sys = kaczlab.generate_problem(kaczlab.GaussianNormalized(50, 20, seed=subseed(seed, 2)))
    ext_spec = kaczlab.UniformSubset(50, 3)
    ext_w = kaczlab.uniform_weights(ext_spec)
    ext_report = kaczlab.build_conditioning_report(ext_sys, ext_spec)
    ext_rate = kaczlab.predict_rates(ext_report, ext_w, 1.0, 3).rate_constant_stepsize
    ext_config = kaczlab.SolverConfig(
        "rbk", ext_spec, ext_w, kaczlab.ExtrapolatedConstant(ext_report.lambda_max_block),
        max_iters=MC_ITERS, residual_tol=0.0, seed=subseed(seed, 202), diagnostics=True,
    )
    out.setup_s, out.setup_ref_s = sections.end(t0)

    r0 = float(np.linalg.norm(cheb.b))
    abs_A = np.abs(cheb.A)
    for k, config in zip(MC_HORIZONS, cheb_configs):
        def cheb_check(mc, k=k):
            # Criterion 06: ||mean residual|| <= 2 rho^k ||b|| + 4 stderr.  The
            # summary keeps per-coordinate iterate stderrs only, so the
            # residual stderr is bounded above by |A| times them.
            mean_x = mc.mean_iterate[-1]
            mean_res = float(np.linalg.norm(cheb.A @ mean_x - cheb.b))
            stderr = float(np.linalg.norm(abs_A @ mc.stderr_iterate[-1]))
            ratio = mean_res / (2.0 * rho**k * r0 + 4.0 * stderr)
            return ratio <= 1.0, f"ratio {ratio:.4f}", mean_x.tobytes()
        _mc_op(out, sections, h, f"chebyshev-h{k}", config, cheb, cheb_check)
    _mc_op(out, sections, h, "basic-50x20", basic_config, basic_sys, _rate_check(basic_rate))
    exact = ext_report.lambda_max_block_mode == "exact-enumeration"
    ext_check = _rate_check(ext_rate)

    def ext_check_exact(mc):
        ok, detail, data = ext_check(mc)
        return ok and exact, f"{detail}, {ext_report.lambda_max_block_mode}", data
    _mc_op(out, sections, h, "extrapolated-50x20-tau3", ext_config, ext_sys, ext_check_exact)

    out.wall_s = clock() - t0 - sections.spent_s()
    out.digest = h.hexdigest()
    return out


def solve_large(seed: int, workdir: Path, reference=None) -> Round:
    out, h = Round(), hashlib.sha256()
    sections = Sections(reference)
    t0 = clock()
    system = kaczlab.generate_problem(kaczlab.GaussianNormalized(2000, 500, seed=subseed(seed, 1)))
    configs = []
    for tau in SOLVE_TAUS:
        spec = kaczlab.UniformSubset(system.m, tau)
        lam, _ = kaczlab.block_lambda_max(system, spec, budget=SOLVE_BUDGET,
                                          seed=subseed(seed, 2, tau))
        configs.append((tau, kaczlab.SolverConfig(
            "rbk", spec, kaczlab.uniform_weights(spec),
            kaczlab.ExtrapolatedConstant(lambda_max_block=lam), max_iters=SOLVE_MAX_ITERS,
            seed=subseed(seed, 3, tau),
        )))
    out.setup_s, out.setup_ref_s = sections.end(t0)

    # Full column rank: the planted solution is the unique solution.
    x_star = system.planted_solution
    err_tol = 1e-5 * (1.0 + float(np.linalg.norm(x_star)))
    for tau, config in configs:
        name = f"tau{tau}"
        start = clock()
        try:
            trace = kaczlab.run_solver(config, system)
            elapsed, ref = sections.end(start)
            k = trace.events[-1].k
            err = float(np.linalg.norm(trace.final_x - x_star))
        except Exception as exc:  # a failed operation, counted and reported
            out.failed(name, exc)
            continue
        out.call_s.append(elapsed)
        out.call_ref_s.append(ref)
        out.iterations += k
        ok = trace.status == "converged" and err <= err_tol
        out.ops.append(Op(name, ok, f"{trace.status} k={k} |x-x*|={err:.3e}"))
        h.update(f"{trace.status} {k}".encode())
        h.update(trace.final_x.tobytes())

    out.wall_s = clock() - t0 - sections.spent_s()
    out.digest = h.hexdigest()
    return out


EXP_CONFIGS = (
    {"name": "rbk-constant-uniform8", "method": "rbk", "sampling": "uniform:8",
     "stepsize": {"kind": "constant-extrapolated"}},
    {"name": "rbk-adaptive-partition8", "method": "rbk", "sampling": "partition:8",
     "stepsize": {"kind": "adaptive"}},
    {"name": "blockproj-classic-partition64", "method": "block-projection",
     "sampling": "partition:64", "stepsize": {"kind": "classic", "alpha": 1.0}},
)


@contextlib.contextmanager
def _time_calls(module, attr: str, out: Round, sections: Sections):
    """Time each call of ``module.attr`` into ``out.call_s`` and count its
    iterations (trials x max_iters) while the block runs."""
    original = getattr(module, attr)

    def timed(config, system, trials, *args, **kwargs):
        start = clock()
        result = original(config, system, trials, *args, **kwargs)
        elapsed, ref = sections.end(start)
        out.call_s.append(elapsed)
        out.call_ref_s.append(ref)
        out.iterations += trials * config.max_iters
        return result

    setattr(module, attr, timed)
    try:
        yield
    finally:
        setattr(module, attr, original)


def experiment_large(seed: int, workdir: Path, reference=None) -> Round:
    out, h = Round(), hashlib.sha256()
    configs = [dict(doc, max_iters=EXP_ITERS, residual_tol=0.0, seed=subseed(seed, 4, i))
               for i, doc in enumerate(EXP_CONFIGS)]
    plan = {"recipe": "gaussian:2000x500", "recipe_seed": subseed(seed, 1),
            "trials": EXP_TRIALS, "budget": EXP_BUDGET, "configs": configs}
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        plan_path, outdir = Path(tmp) / "plan.json", Path(tmp) / "out"
        plan_path.write_text(json.dumps(plan))
        argv = ["experiment", str(plan_path), "--outdir", str(outdir)]
        sections = Sections(reference)
        t0 = clock()
        try:
            with _time_calls(kaczlab.cli, "run_monte_carlo", out, sections), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = kaczlab.cli.main(argv)
        except Exception as exc:  # every config of the command fails
            code = f"{type(exc).__name__}: {exc}"
        out.wall_s = clock() - t0 - sections.spent_s()
        # The set-up is spread over the command, so its reference time is
        # the median of the round's reference runs.
        out.setup_s = out.wall_s - sum(out.call_s)
        out.setup_ref_s = sections.median_ref_s()

        try:
            if code != 0:
                raise RuntimeError(f"exit {code}")
            summary = json.loads((outdir / "summary.json").read_text())
            by_name = {c["name"]: c for c in summary["configs"]}
        except (RuntimeError, OSError, ValueError, KeyError) as exc:
            for doc in configs:
                out.failed(doc["name"], exc)
            return out
        for doc in configs:
            try:
                entry = by_name[doc["name"]]
                csv_bytes = Path(entry["csv"]).read_bytes()
                violations = entry["bound_violations"]
            except (KeyError, OSError) as exc:
                out.failed(doc["name"], exc)
                continue
            rows = sum(1 for _ in csv.reader(io.StringIO(csv_bytes.decode()))) - 1
            ok = violations == 0 and rows == EXP_ITERS + 1
            out.ops.append(Op(doc["name"], ok, f"violations={violations} csv rows={rows}"))
            h.update(json.dumps({k: v for k, v in entry.items() if k != "csv"},
                                sort_keys=True).encode())
            h.update(csv_bytes)
    out.digest = h.hexdigest()
    return out


# Each workload with the reference loop that has its bottleneck.
WORKLOADS = {
    "mc-small": (mc_small, DISPATCH),
    "solve-large": (solve_large, BLAS),
    "experiment-large": (experiment_large, BLAS),
}
