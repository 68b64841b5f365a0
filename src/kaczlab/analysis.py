"""Stochastic conditioning and rate prediction.

The two quantities driving every linear rate are the worst-case block
conditioning lambda_max^block and the smallest nonzero eigenvalue of the
expected normalized Gram matrix W.  This module computes both, plus the
theoretical contraction factors, the paving-quality verdict, and the
row-diversity condition.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import MissingSpectrumError, NotNormalizedError
from .linalg import LinearSystem, sym_eigenvalues
from .sampling import EXACT_ENUMERATION, MONTE_CARLO, PARTITION_MAX, Paving, SamplingSpec

if TYPE_CHECKING:
    from .stepsize import WeightScheme


# The rows of one stacked eigensolve's supports take at most this many
# bytes (at least one support a stack).  Bounds the stack's memory.
SUPPORT_CHUNK_BYTES = 1 << 18


def _supports_lambda_max(system: LinearSystem, supports, tau: int) -> float:
    """The largest lambda_max(A_J^T diag(1/||a_i||^2) A_J) over ``supports``,
    an iterable of tau-row index sequences, via the smaller Gram.  One
    stacked ``eigvalsh`` per chunk of supports; each value has the bits of
    a one-support call."""
    chunk = max(1, SUPPORT_CHUNK_BYTES // (tau * system.n * system.A.itemsize))
    supports = iter(supports)
    val = -math.inf
    while J := list(itertools.islice(supports, chunk)):
        J = np.array(J)
        B = system.A[J]
        B /= np.sqrt(system.row_norms_sq[J])[..., None]
        Bt = B.transpose(0, 2, 1)
        G = B @ Bt if tau <= system.n else Bt @ B
        val = max(val, float(np.linalg.eigvalsh(G)[:, -1].max()))
    return val


def block_lambda_max(
    system: LinearSystem,
    spec: SamplingSpec,
    budget: int = 1000,
    seed: int = 0,
) -> tuple[float, str]:
    """Worst-case largest eigenvalue of the normalized block Gram over the
    sampleable supports.

    The spec's ``support_groups`` give the supports and the mode:
    PARTITION_MAX for partitions, EXACT_ENUMERATION for uniform specs with
    C(m, tau) under the cap, else MONTE_CARLO, the maximum over ``budget``
    sampled supports (a lower bound).  A zero row raises ZeroRowError.
    The system's cache keeps the latest (value, mode), so a config's
    stepsize and its conditioning report share one evaluation while a
    loop over many specs holds one spec's arrays, not all of them.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1 sampled support, got {budget}")
    system.check_nonzero_rows()

    def build():
        groups, mode = spec.support_groups(budget, seed)
        return max(_supports_lambda_max(system, supports, size) for size, supports in groups), mode
    return system.cached(("block_lambda_max", spec, budget, seed), build)


def build_W(system: LinearSystem, spec: SamplingSpec) -> np.ndarray:
    """W = A^T diag(p_i / ||a_i||^2) A, the expectation of the normalized
    block Gram under the sampling law.  A system with a zero row raises
    ZeroRowError."""
    system.check_nonzero_rows()
    p = spec.membership_probabilities()
    scaled = system.A * (p / system.row_norms_sq)[:, None]
    W = system.A.T @ scaled
    return 0.5 * (W + W.T)


@dataclass(frozen=True, eq=False)
class ConditioningReport:
    """Spectral inputs for the rate formulas, all derived from one system
    and one sampling spec."""

    rows: int
    cols: int
    lambda_max_block: float
    lambda_max_block_mode: str
    lambda_max_block_samples: int | None
    W: np.ndarray
    lambda_min_nz_W: float
    spectral_sq: float  # ||A||^2
    frobenius_sq: float  # ||A||_F^2
    lambda_min_AAt: float
    lambda_max_AAt: float
    lambda_min_nz_AAt: float

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["W"] = self.W.tolist()
        return doc


def build_conditioning_report(
    system: LinearSystem,
    spec: SamplingSpec,
    budget: int = 1000,
    seed: int = 0,
) -> ConditioningReport:
    lam_block, mode = block_lambda_max(system, spec, budget, seed)
    W = build_W(system, spec)
    spec_W = sym_eigenvalues(W)
    gram = system.gram_spectrum
    return ConditioningReport(
        rows=system.m,
        cols=system.n,
        lambda_max_block=lam_block,
        lambda_max_block_mode=mode,
        lambda_max_block_samples=budget if mode == MONTE_CARLO else None,
        W=W,
        lambda_min_nz_W=spec_W.lambda_min_nz,
        spectral_sq=gram.lambda_max,
        frobenius_sq=float(np.sum(system.row_norms_sq)),
        lambda_min_AAt=max(gram.lambda_min, 0.0),
        lambda_max_AAt=gram.lambda_max,
        lambda_min_nz_AAt=gram.lambda_min_nz,
    )


def check_delta(delta: float) -> None:
    """ValueError unless 0 < delta <= 1 (so NaN too): the margin of the
    factor 2 - delta in every extrapolated stepsize and rate formula."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")


@dataclass(frozen=True)
class RatePrediction:
    """Theoretical per-iteration contraction factors (upper bounds on the
    expected decay) and derived diagnostics."""

    rate_constant_stepsize: float
    rate_adaptive: float
    rate_basic: float
    rate_paving: float
    cheb_factor: float
    speedup_vs_basic: float
    diversity_ok: bool
    optimistic: bool  # True when lambda_max_block is only an estimate

    def to_dict(self) -> dict:
        return asdict(self)


def predict_rates(
    report: ConditioningReport,
    weights: WeightScheme,
    delta: float,
    tau: int,
) -> RatePrediction:
    """Contraction factors by direct substitution of the report values.

    ``rate_basic`` is the single-row baseline 1 - lmin_nz(A^T A)/||A||_F^2;
    ``cheb_factor`` is (sqrt(u) - sqrt(l)) / (sqrt(u) + sqrt(l)) on the
    spectrum of A A^T and degrades to 1 when lambda_min = 0.
    """
    check_delta(delta)
    needed = (
        report.lambda_max_block,
        report.lambda_min_nz_W,
        report.spectral_sq,
        report.frobenius_sq,
        report.lambda_max_AAt,
    )
    if any(not np.isfinite(v) for v in needed) or report.lambda_max_block <= 0:
        raise MissingSpectrumError("conditioning report is incomplete")
    wmin, wmax, lb = weights.omega_min, weights.omega_max, report.lambda_max_block
    m = report.rows
    log_term = 6.0 * math.log(1.0 + m)
    sq_u = math.sqrt(report.lambda_max_AAt)
    sq_l = math.sqrt(max(report.lambda_min_AAt, 0.0))
    return RatePrediction(
        rate_constant_stepsize=1.0 - (2.0 - delta) * wmin**2 * report.lambda_min_nz_W / (wmax**2 * lb),
        rate_adaptive=1.0 - delta * (2.0 - delta) * wmin * report.lambda_min_nz_W / (wmax * lb),
        rate_basic=1.0 - report.lambda_min_nz_AAt / report.frobenius_sq,
        rate_paving=1.0 - report.lambda_min_nz_AAt / (log_term * report.spectral_sq),
        cheb_factor=(sq_u - sq_l) / (sq_u + sq_l),
        speedup_vs_basic=tau / lb,
        diversity_ok=report.spectral_sq < m / log_term,
        optimistic=report.lambda_max_block_mode == MONTE_CARLO,
    )


@dataclass(frozen=True)
class PavingQuality:
    lambda_max_block: float
    bound: float  # 6 ln(1 + m)
    satisfied: bool
    bound_log2: float  # alternative reading of the log base, for reference

    def to_dict(self) -> dict:
        return asdict(self)


def paving_quality(system: LinearSystem, paving: Paving) -> PavingQuality:
    """Check lambda_max^block <= 6 ln(1 + m) for a paving of a normalized
    system.  The log2 variant is reported alongside for reference."""
    norms = np.sqrt(system.row_norms_sq)
    if np.max(np.abs(norms - 1.0)) > 1e-12:
        raise NotNormalizedError("paving quality is defined for unit-norm rows")
    lam, _ = block_lambda_max(system, paving.to_spec())
    m = system.m
    bound = 6.0 * math.log(1.0 + m)
    return PavingQuality(
        lambda_max_block=lam,
        bound=bound,
        satisfied=lam <= bound,
        bound_log2=6.0 * math.log2(1.0 + m),
    )
