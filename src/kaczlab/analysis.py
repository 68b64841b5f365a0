"""Stochastic conditioning and rate prediction.

The two quantities driving every linear rate are the worst-case block
conditioning lambda_max^block and the smallest nonzero eigenvalue of the
expected normalized Gram matrix W.  This module computes both, plus the
theoretical contraction factors, the paving-quality verdict, and the
row-diversity condition.
"""

from __future__ import annotations

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

# The largest Gram order k whose Cholesky certificate (``_certified_below``)
# is trusted: (k + 1)^2 2^-53 stays under its 1e-9 relative margin.
CERTIFIED_GRAM_SIZE = 2000


def _certified_below(G: np.ndarray, c: float) -> bool:
    """Whether a Cholesky factorization of c I - G succeeds, with a finite
    diagonal, for every Gram of the stack G (k x k each, k at most
    CERTIFIED_GRAM_SIZE).

    A factorization that succeeds in floating point is exact for
    c I - G + E with |E| <= gamma_{k+1} |R^T| |R| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 10.3), so c I - G + E
    is positive definite and lambda_max(G) < c (1 + (k + 1)^2 u), u = 2^-53.
    A failed factorization proves nothing; neither does a NaN, which
    OpenBLAS's factorization carries through instead of failing on."""
    k = G.shape[-1]
    if not c > -math.inf or k > CERTIFIED_GRAM_SIZE:
        return False
    try:
        R = np.linalg.cholesky(c * np.eye(k) - G)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(R.diagonal(axis1=1, axis2=2)).all())


def _supports_lambda_max(system: LinearSystem, stacks, tau: int) -> float:
    """The largest lambda_max(A_J^T diag(1/||a_i||^2) A_J) over the supports
    J of ``stacks``, an iterable of (count, tau) row index arrays, via the
    smaller Gram.  One stacked ``eigvalsh`` per chunk of supports at most;
    each value has the bits of a one-support call, so the maximum does not
    depend on which supports are left out below.

    A support's largest absolute Gram row sum (Gershgorin) bounds its
    lambda_max, so a chunk of several supports drops those whose bound,
    widened by a 1e-9 relative margin for the rounding of the sums and of
    the eigensolver, is below the largest value so far, val.  The chunk's
    other supports are left out when a Cholesky factorization certifies
    them all below val / (1 + 1e-9) (``_certified_below``): for Grams of
    order k = min(tau, n) <= CERTIFIED_GRAM_SIZE, that proves lambda_max
    below val by a relative (k + 1)^2 u under the margin, room for the
    eigensolver's own rounding, so none of them could raise the maximum.
    Otherwise all of them are solved: a tie or a NaN is always solved."""
    chunk = max(1, SUPPORT_CHUNK_BYTES // (tau * system.n * system.A.itemsize))
    val = -math.inf
    for supports in stacks:
        for start in range(0, len(supports), chunk):
            J = supports[start:start + chunk]
            B = system.A[J]
            B /= np.sqrt(system.row_norms_sq[J])[..., None]
            Bt = B.transpose(0, 2, 1)
            G = B @ Bt if tau <= system.n else Bt @ B
            if len(G) > 1:
                live = ~(np.abs(G).sum(axis=2).max(axis=1) * (1.0 + 1e-9) < val)
                if not live.all():
                    G = G[live]
            if len(G) and not _certified_below(G, val / (1.0 + 1e-9)):
                val = max(val, float(np.linalg.eigvalsh(G)[:, -1].max()))
    return val


def check_budget(budget: int) -> None:
    """ValueError unless ``budget``, the sampled supports of a Monte-Carlo
    lambda_max^block, is at least 1."""
    if budget < 1:
        raise ValueError(f"budget must be at least 1 sampled support, got {budget}")


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
    check_budget(budget)
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
    """The report of ``system`` under ``spec``.  W and its spectrum depend
    on the law only through the membership probabilities, so the system's
    cache keeps the latest W by their bytes: laws that give every row the
    same probability share one W, read-only."""
    lam_block, mode = block_lambda_max(system, spec, budget, seed)

    def build():
        W = build_W(system, spec)
        W.flags.writeable = False
        return W, sym_eigenvalues(W)
    W, spec_W = system.cached(("W", spec.membership_probabilities().tobytes()), build)
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
        frobenius_sq=system.frobenius_sq,
        lambda_min_AAt=max(gram.lambda_min, 0.0),
        lambda_max_AAt=gram.lambda_max,
        lambda_min_nz_AAt=gram.lambda_min_nz,
    )


def check_delta(delta: float) -> None:
    """ValueError unless 0 < delta <= 1 (so NaN too): the margin of the
    factor 2 - delta in every extrapolated stepsize and rate formula."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")


def chebyshev_factor(lambda_min: float, lambda_max: float) -> float:
    """(sqrt(u) - sqrt(l)) / (sqrt(u) + sqrt(l)) for a spectrum of A A^T in
    [l, u] = [max(lambda_min, 0), lambda_max]: 1 when lambda_min <= 0."""
    sq_u, sq_l = math.sqrt(lambda_max), math.sqrt(max(lambda_min, 0.0))
    return (sq_u - sq_l) / (sq_u + sq_l)


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
    ``cheb_factor`` is ``chebyshev_factor`` of the spectrum of A A^T.
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
    return RatePrediction(
        rate_constant_stepsize=1.0 - (2.0 - delta) * wmin**2 * report.lambda_min_nz_W / (wmax**2 * lb),
        rate_adaptive=1.0 - delta * (2.0 - delta) * wmin * report.lambda_min_nz_W / (wmax * lb),
        rate_basic=1.0 - report.lambda_min_nz_AAt / report.frobenius_sq,
        rate_paving=1.0 - report.lambda_min_nz_AAt / (log_term * report.spectral_sq),
        cheb_factor=chebyshev_factor(report.lambda_min_AAt, report.lambda_max_AAt),
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
