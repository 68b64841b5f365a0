"""Golden traces: the bit-reproducibility contract, frozen as hashes.

Each hash covers the exact bits of a run for a fixed (config, seed) pair:
the status, and per event k, alpha, skipped, the residual norm and dist^2,
plus the final iterate.  A refactor must leave every hash unchanged; an
intended change to the bits updates the hash here and is logged in
CHANGES.md.  The systems are at most 50x20, so BLAS threading never
enters.
"""

import hashlib
import json

import numpy as np
import pytest

from kaczlab.cli import main
from kaczlab.linalg import LinearSystem, sym_eigenvalues
from kaczlab.problems import generate_problem, parse_recipe
from kaczlab.sampling import UniformSubset, build_random_paving, partition_spec
from kaczlab.solver import (
    BASIC,
    BLOCK_PROJECTION,
    FULL_ITERATES,
    RBK,
    SolverConfig,
    run_monte_carlo,
    run_solver,
)
from kaczlab.stepsize import (
    Adaptive,
    ChebyshevPD,
    ChebyshevSingular,
    ClassicConstant,
    ExtrapolatedConstant,
    row_norm_sq_weights,
    uniform_weights,
)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def _opt(v):
    return None if v is None else float(v)


def trace_digest(trace) -> str:
    events = [
        (e.k, _opt(e.alpha), e.skipped, float(e.residual_norm), _opt(e.dist_sq))
        for e in trace.events
    ]
    return _digest(trace.status, events, trace.final_x.tobytes())


def _scaled_system(m, n, seed, planted=True):
    """Gaussian rows with norms spread over [0.5, 2]; consistent."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    A *= rng.uniform(0.5, 2.0, size=m)[:, None] / np.linalg.norm(A, axis=1)[:, None]
    x = rng.standard_normal(n)
    return LinearSystem(A, A @ x, planted_solution=x if planted else None)


TALL = _scaled_system(50, 20, seed=1)  # A A^T singular
WIDE = _scaled_system(10, 20, seed=2, planted=False)  # A A^T positive definite
TALL_GRAM = sym_eigenvalues(TALL.A @ TALL.A.T)
WIDE_GRAM = sym_eigenvalues(WIDE.A @ WIDE.A.T)

SPECS = {
    BASIC: UniformSubset(50, 1),
    RBK: UniformSubset(50, 3),
    BLOCK_PROJECTION: partition_spec([range(i, i + 5) for i in range(0, 50, 5)]),
}


def _policy(kind, method, horizon):
    if kind == "classic":
        return ClassicConstant(1.0 if method == BLOCK_PROJECTION else 1.5)
    if kind == "constant-extrapolated":
        return ExtrapolatedConstant({BASIC: 1.0, RBK: 2.5, BLOCK_PROJECTION: 4.0}[method], 0.5)
    if kind == "adaptive":
        return Adaptive(0.8)
    if kind == "chebyshev-pd":
        return ChebyshevPD(horizon, WIDE_GRAM.lambda_min, WIDE_GRAM.lambda_max, WIDE.m)
    return ChebyshevSingular(horizon, TALL_GRAM.lambda_max, TALL.m)


def _solver_case(method, kind):
    horizon = 12
    if kind == "chebyshev-pd":
        system = WIDE
        spec = {BASIC: UniformSubset(10, 1), RBK: UniformSubset(10, 10)}.get(
            method, partition_spec([range(10)])
        )
    else:
        system, spec = TALL, SPECS[method]
    weights = row_norm_sq_weights(spec, system) if method == RBK else uniform_weights(spec)
    config = SolverConfig(
        method, spec, weights, _policy(kind, method, horizon),
        max_iters=horizon if kind.startswith("chebyshev") else 60,
        residual_tol=0.0, seed=17, diagnostics=kind != "classic",
    )
    return config, system


SOLVER_GOLDEN = {
    (BASIC, "classic"): "3306ae4293478742",
    (BASIC, "constant-extrapolated"): "d01057d1f9dd0b9b",
    (BASIC, "adaptive"): "1b0f04c75cd94852",
    (BASIC, "chebyshev-pd"): "d460df374dd4ca02",
    (BASIC, "chebyshev-singular"): "6e14fab100503d2f",
    (RBK, "classic"): "116e5f530f81cea3",
    (RBK, "constant-extrapolated"): "ae3ca41e3a639e07",
    (RBK, "adaptive"): "9429196caa90c98a",
    (RBK, "chebyshev-pd"): "c24dc6c9ef842a81",
    (RBK, "chebyshev-singular"): "ca7993698cba4380",
    (BLOCK_PROJECTION, "classic"): "14b6289230fea343",
    (BLOCK_PROJECTION, "constant-extrapolated"): "84f5b1b12c130538",
    (BLOCK_PROJECTION, "chebyshev-pd"): "b1bbdfbce1b7d525",
    (BLOCK_PROJECTION, "chebyshev-singular"): "c4fa64e78f04a0df",
}


@pytest.mark.parametrize("method,kind", sorted(SOLVER_GOLDEN))
def test_run_solver_golden(method, kind):
    config, system = _solver_case(method, kind)
    trace = run_solver(config, system)
    assert np.isfinite(trace.final_x).all()
    assert trace_digest(trace) == SOLVER_GOLDEN[method, kind]


def test_run_monte_carlo_golden():
    spec = UniformSubset(10, 2)
    config = SolverConfig(
        RBK, spec, uniform_weights(spec), Adaptive(), max_iters=25,
        residual_tol=0.0, seed=5, trace_level=FULL_ITERATES, diagnostics=True,
    )
    mc = run_monte_carlo(config, WIDE, trials=4)
    digest = _digest(
        mc.mean_dist_sq.tobytes(), mc.stderr_dist_sq.tobytes(), mc.mean_iterate.tobytes(),
        mc.stderr_iterate.tobytes(), mc.mean_residual_norm.tobytes(), mc.hit_iteration.tobytes(),
    )
    assert digest == "9810642c2967bf60"


def test_run_monte_carlo_padded_golden():
    # residual_tol > 0: trials stop at different k (or never), so every
    # series is padded with its terminal value before averaging.
    spec = UniformSubset(10, 2)
    config = SolverConfig(
        RBK, spec, uniform_weights(spec), Adaptive(0.9), max_iters=40,
        residual_tol=0.1, seed=11, trace_level=FULL_ITERATES, diagnostics=True,
    )
    mc = run_monte_carlo(config, WIDE, trials=5)
    assert sorted(set(mc.hit_iteration.tolist())) == [-1, 31, 34, 40]
    digest = _digest(
        mc.mean_dist_sq.tobytes(), mc.stderr_dist_sq.tobytes(), mc.mean_iterate.tobytes(),
        mc.stderr_iterate.tobytes(), mc.mean_residual_norm.tobytes(), mc.hit_iteration.tobytes(),
    )
    assert digest == "3db890cc875a9ed8"


def test_trace_json_golden(tmp_path):
    # Rows 2 and 3 only touch coordinates the solution leaves at zero, so
    # their block is satisfied at x0 = 0 for the whole run and every draw of
    # it is a skipped adaptive step.
    A = np.array([[1.0, 0.5, 0.0, 0.0], [0.3, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 0.2], [0.0, 0.0, 0.4, 1.0]])
    x_star = np.array([1.0, -2.0, 0.0, 0.0])
    system = LinearSystem(A, A @ x_star, planted_solution=x_star)
    spec = partition_spec([(0, 1), (2, 3)])
    config = SolverConfig(
        RBK, spec, uniform_weights(spec), Adaptive(0.8), max_iters=12,
        residual_tol=0.0, seed=3, trace_level=FULL_ITERATES, diagnostics=True,
    )
    trace = run_solver(config, system)
    assert any(e.skipped for e in trace.events)
    trace.to_json(tmp_path / "trace.json")
    assert _digest((tmp_path / "trace.json").read_bytes()) == "ebfffbd49eb2b761"


def _one_column_system():
    rng = np.random.default_rng(9)
    A = rng.uniform(0.5, 2.0, size=(12, 1)) * rng.choice([-1.0, 1.0], size=(12, 1))
    return LinearSystem(A, A @ np.array([0.7]), planted_solution=np.array([0.7]))


def _wide_block_case(name):
    """Blocks of 8 rows and more, where a sum over a block's rows is longer
    than numpy's pairwise-summation unroll, and a one-column system."""
    system, spec, policy, weights = {
        "adaptive-tau12": (TALL, UniformSubset(50, 12), Adaptive(0.8), "rownormsq"),
        "constant-tau16": (TALL, UniformSubset(50, 16), ExtrapolatedConstant(6.0, 0.5), "rownormsq"),
        "adaptive-paving-9-8": (TALL, build_random_paving(5, 50, 6).to_spec(), Adaptive(), "uniform"),
        "one-column-tau9": (_one_column_system(), UniformSubset(12, 9), ClassicConstant(1.5), "uniform"),
        "one-column-adaptive": (_one_column_system(), UniformSubset(12, 9), Adaptive(0.9), "rownormsq"),
    }[name]
    scheme = row_norm_sq_weights(spec, system) if weights == "rownormsq" else uniform_weights(spec)
    config = SolverConfig(RBK, spec, scheme, policy, max_iters=40, residual_tol=0.0, seed=23,
                          diagnostics=True)
    return config, system


WIDE_BLOCK_GOLDEN = {
    "adaptive-tau12": "baf0ecb7f94cfff4",
    "constant-tau16": "72a90f64ee13a833",
    "adaptive-paving-9-8": "7c6b7e506e0d8c4f",
    "one-column-tau9": "265b66c22b5381f7",
    "one-column-adaptive": "b9e57d0bdcc4efef",
}


@pytest.mark.parametrize("name", sorted(WIDE_BLOCK_GOLDEN))
def test_wide_block_golden(name):
    config, system = _wide_block_case(name)
    assert trace_digest(run_solver(config, system)) == WIDE_BLOCK_GOLDEN[name]


def test_run_monte_carlo_wide_block_golden():
    config, system = _wide_block_case("adaptive-tau12")
    mc = run_monte_carlo(config, system, trials=3)
    digest = _digest(mc.mean_dist_sq.tobytes(), mc.stderr_dist_sq.tobytes(),
                     mc.mean_residual_norm.tobytes(), mc.hit_iteration.tobytes())
    assert digest == "3e4fe3b60293ce3c"


EXPERIMENT_PLANS = {
    "tall": {
        "recipe": "gaussian:30x12",
        "recipe_seed": 3,
        "trials": 3,
        "budget": 50,
        "configs": [
            {"name": "constant", "method": "rbk", "sampling": "uniform:3",
             "stepsize": {"kind": "constant-extrapolated", "delta": 0.5},
             "max_iters": 30, "residual_tol": 0.0, "seed": 4},
            {"name": "adaptive", "method": "rbk", "sampling": "paving:5",
             "weights": "rownormsq", "stepsize": {"kind": "adaptive"},
             "max_iters": 30, "residual_tol": 0.0, "seed": 5},
            {"name": "blockproj", "method": "block-projection", "sampling": "partition:6",
             "partition_probs": "frobenius", "stepsize": {"kind": "classic", "alpha": 1.0},
             "max_iters": 30, "seed": 6},
            {"name": "singular", "method": "rbk", "sampling": "full",
             "stepsize": {"kind": "chebyshev-singular"}, "max_iters": 10, "seed": 7},
        ],
    },
    "wide": {
        "recipe": "gaussian:10x20",
        "recipe_seed": 8,
        "trials": 1,
        "configs": [
            {"name": "pd", "method": "rbk", "sampling": {"kind": "uniform", "m": 10, "tau": 10},
             "stepsize": {"kind": "chebyshev-pd"}, "max_iters": 8, "residual_tol": 0.0},
            {"name": "basic", "method": "basic", "sampling": "uniform:1",
             "stepsize": {"kind": "classic", "alpha": 1.2}, "max_iters": 20,
             "residual_tol": 0.0, "seed": 9},
        ],
    },
    # One trial that stops before max_iters: its CSV rows are padded.
    "padded": {
        "recipe": "gaussian:12x5",
        "recipe_seed": 13,
        "trials": 1,
        "configs": [
            {"name": "adaptive", "method": "rbk", "sampling": "uniform:3",
             "stepsize": {"kind": "adaptive"}, "max_iters": 200, "residual_tol": 1e-6,
             "seed": 2},
            {"name": "basic", "method": "basic", "sampling": "uniform:1",
             "stepsize": {"kind": "classic", "alpha": 1.0}, "max_iters": 300,
             "residual_tol": 1e-4, "seed": 3},
        ],
    },
}

EXPERIMENT_GOLDEN = {
    "tall": "b6e630971c236ef7",
    "wide": "072f23d827f3461c",
    "padded": "1f4a91d08c64cec6",
}


@pytest.mark.parametrize("plan_name", sorted(EXPERIMENT_PLANS))
def test_experiment_golden(plan_name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("KACZLAB_SEED", raising=False)
    plan = EXPERIMENT_PLANS[plan_name]
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    outdir = tmp_path / "out"
    assert main(["experiment", str(tmp_path / "plan.json"), "--outdir", str(outdir)]) == 0
    summary = json.loads((outdir / "summary.json").read_text())
    entries = [{k: v for k, v in c.items() if k != "csv"} for c in summary["configs"]]
    csvs = [(outdir / f"{c['name']}.csv").read_bytes() for c in plan["configs"]]
    assert _digest(json.dumps(entries), *csvs) == EXPERIMENT_GOLDEN[plan_name]


SOLVE_FLAGS = {
    "classic": ["--method", "basic", "--sampling", "uniform:1", "--alpha", "1.3"],
    "constant-extrapolated": ["--sampling", "uniform:12", "--budget", "30", "--delta", "0.7"],
    "adaptive": ["--sampling", "partition:5", "--weights", "rownormsq"],
    "chebyshev-pd": ["--recipe", "gaussian:12x20", "--sampling", "full", "--max-iters", "9"],
    "chebyshev-singular": ["--method", "block-projection", "--sampling", "paving:4",
                           "--max-iters", "9"],
}

SOLVE_GOLDEN = {
    "classic": "f10eec9d78313ba3",
    "constant-extrapolated": "0f12494892697e07",
    "adaptive": "ec871833a7629001",
    "chebyshev-pd": "6fbb84163dac001c",
    "chebyshev-singular": "f1081773fdbd8772",
}


@pytest.mark.parametrize("kind", sorted(SOLVE_FLAGS))
def test_solve_cli_golden(kind, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("KACZLAB_SEED", raising=False)
    out = tmp_path / "trace.csv"
    flags = ["--recipe", "gaussian:40x16", "--max-iters", "40", "--residual-tol", "0",
             "--seed", "21", "--diagnostics", *SOLVE_FLAGS[kind]]
    # argparse keeps the last occurrence of a repeated flag.
    main(["solve", "--stepsize", kind, *flags, "--out", str(out)])
    assert _digest(out.read_bytes()) == SOLVE_GOLDEN[kind]


# ``analyze``'s report JSON on one sampled system: a Monte-Carlo
# lambda_max^block, a frobenius-weighted partition and a paving check.
ANALYZE_FLAGS = {
    "sampled-uniform": ["--sampling", "uniform:8"],
    "partition-frobenius": ["--sampling", "partition:3", "--partition-probs", "frobenius"],
    "paving": ["--paving", "3"],
}

ANALYZE_GOLDEN = {
    "sampled-uniform": "d5625798e4d51930",
    "partition-frobenius": "4ace99a4dc3d6c72",
    "paving": "c54df090175c0ce3",
}


@pytest.mark.parametrize("case", sorted(ANALYZE_FLAGS))
def test_analyze_cli_golden(case, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("KACZLAB_SEED", raising=False)
    out = tmp_path / "report.json"
    assert main(["analyze", "--recipe", "gaussian:40x4", *ANALYZE_FLAGS[case],
                 "--out", str(out)]) == 0
    assert _digest(out.read_bytes()) == ANALYZE_GOLDEN[case]


# One instance of each recipe kind, coherent at two coherences: the bits of
# A, b and the planted solution.
RECIPE_GOLDEN = {
    "gaussian:30x12": "d4dfd4c41b40d701",
    "rank-deficient:30x20:10": "34a553262bbd1a18",
    "coherent:40x10:0.4": "8c2967d09ecdf5bd",
    "coherent:40x10:1.0": "6fc2b9b98517767c",
    "orthoblocks:32x24:8": "503fad365f1efb49",
}


@pytest.mark.parametrize("recipe", sorted(RECIPE_GOLDEN))
def test_recipe_golden(recipe):
    system = generate_problem(parse_recipe(recipe, seed=29))
    digest = _digest(system.A.tobytes(), system.b.tobytes(), system.planted_solution.tobytes())
    assert digest == RECIPE_GOLDEN[recipe]
