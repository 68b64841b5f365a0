"""Stepsize policies and the Chebyshev polynomial toolkit.

Five policies are provided: the classic relaxation alpha in (0,2), the
extrapolated constant stepsize driven by the block conditioning parameter,
the adaptive stepsize computed from the drawn block's residuals, and two
Chebyshev root schedules (positive-definite and singular spectra).
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BadIntervalError,
    BadSpectrumError,
    ConfigMismatchError,
    NonPositiveConditioningError,
)
from .analysis import chebyshev_factor, check_delta
from .kernels import adaptive_steps
from .kinds import Kind, from_kind_dict, number, number_field, registry
from .linalg import LinearSystem, check_row_norms
from .sampling import SamplingSpec


# ---------------------------------------------------------------------------
# Chebyshev polynomials
# ---------------------------------------------------------------------------

def chebyshev_eval(k: int, x):
    """T_k(x) by the three-term recurrence, elementwise on arrays.

    T_0 = 1, T_1(x) = x, T_{k+1}(x) = 2 x T_k(x) - T_{k-1}(x).
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    t_prev = np.ones_like(x)
    if k == 0:
        return float(t_prev) if t_prev.ndim == 0 else t_prev
    t_cur = x.copy()
    for _ in range(k - 1):
        t_prev, t_cur = t_cur, 2.0 * x * t_cur - t_prev
    return float(t_cur) if t_cur.ndim == 0 else t_cur


def chebyshev_roots(k: int) -> np.ndarray:
    """The k roots cos((2i-1) pi / (2k)), i = 1..k, in descending order."""
    if k < 1:
        raise ValueError("degree must be at least 1")
    i = np.arange(1, k + 1)
    return np.cos((2 * i - 1) * np.pi / (2 * k))


def min_deviation_bound(ell: float, u: float, k: int) -> float:
    """Smallest possible max |P| over [ell, u] among degree-k polynomials
    with P(0) = 1, i.e. 1 / T_k((u+ell)/(u-ell)).

    Evaluated through the hyperbolic-cosine form so large degrees do not
    overflow.  Always <= 2 ((sqrt(u)-sqrt(ell)) / (sqrt(u)+sqrt(ell)))^k.
    """
    if k == 0:
        return 1.0
    if not (0.0 < ell < u):
        raise BadIntervalError(f"need 0 < ell < u, got ell={ell}, u={u}")
    x0 = (u + ell) / (u - ell)
    t = float(np.arccosh(x0))
    e = np.exp(-k * t)
    return float(2.0 * e / (1.0 + e * e))


# ---------------------------------------------------------------------------
# Weight schemes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightScheme:
    """Per-block weights: positive, renormalized to sum to 1 over each
    drawn block.  ``omega_min``/``omega_max`` bound every weight that can
    be realized under the sampling spec the scheme was built for; the rate
    formulas consume those bounds.
    """

    kind: str  # "uniform" | "rownormsq" | "explicit"
    omega_min: float
    omega_max: float
    base: tuple[float, ...] | None = None  # per-row base weights (kind="explicit")

    def __post_init__(self):
        if self.base is not None:
            base = np.array(self.base, dtype=float)
            object.__setattr__(self, "base", tuple(base.tolist()))
            vars(self)["_base"] = base

    def realized(self, system: LinearSystem, J: np.ndarray) -> np.ndarray:
        """Weights for the rows of block J, in the order of J; for a stack of
        equal-size blocks (..., tau), per block."""
        J = np.asarray(J)
        if self.kind == "uniform":
            return np.full(J.shape, 1.0 / J.shape[-1])
        if self.kind == "rownormsq":
            w = system.row_norms_sq[J]
        else:
            w = self._base[J]
        return w / w.sum(axis=-1, keepdims=True)

    def step_weights(self, system: LinearSystem, J: np.ndarray) -> np.ndarray | float | None:
        """The weights the averaged kernels take for the blocks J (..., tau):
        None for weight 1 on one-row blocks (every block of the basic
        method), whose realized weight is exactly 1.0; the scalar 1/tau
        standing for uniform weights; else ``realized``."""
        tau = J.shape[-1]
        if tau == 1:
            return None
        if self.kind == "uniform":
            return 1.0 / tau
        return self.realized(system, J)

    def to_dict(self) -> dict:
        return {"kind": self.kind} | ({} if self.base is None else {"values": list(self.base)})


def uniform_weights(spec: SamplingSpec) -> WeightScheme:
    """omega_i = 1/|J|."""
    lo, hi = spec.weight_bounds(np.ones(spec.m))
    return WeightScheme("uniform", lo, hi)


def row_norm_sq_weights(spec: SamplingSpec, system: LinearSystem) -> WeightScheme:
    """omega_i = ||a_i||^2 / sum_{j in J} ||a_j||^2.  A system with a zero
    row raises ZeroRowError."""
    system.check_nonzero_rows()
    lo, hi = spec.weight_bounds(system.row_norms_sq)
    return WeightScheme("rownormsq", lo, hi)


def explicit_weights(values, spec: SamplingSpec) -> WeightScheme:
    """One base weight per row, each read by ``kinds.number``."""
    values = np.array([number(v, "values", float) for v in values])
    if values.size != spec.m or not np.all((values > 0) & (values < math.inf)):
        raise ValueError("explicit weight values must be positive and finite, one per row")
    lo, hi = spec.weight_bounds(values)
    return WeightScheme("explicit", lo, hi, base=values)


# Each weight kind's factory, called as (spec, system, **its JSON fields).
WEIGHT_KINDS = {
    "uniform": lambda spec, system: uniform_weights(spec),
    "rownormsq": row_norm_sq_weights,
    "explicit": lambda spec, system, values: explicit_weights(values, spec),
}


def weights_from_dict(doc: dict, spec: SamplingSpec, system: LinearSystem) -> WeightScheme:
    """The weight bounds depend on the sampling spec and the system."""
    return from_kind_dict(WEIGHT_KINDS, doc, "weight", spec, system)


# ---------------------------------------------------------------------------
# Constant and adaptive extrapolated stepsizes
# ---------------------------------------------------------------------------

def constant_extrapolated_alpha(
    weights: WeightScheme, lambda_max_block: float, delta: float = 1.0
) -> float:
    """alpha = (2 - delta) omega_min / (omega_max^2 lambda_max_block).

    With uniform weights 1/tau this is (2 - delta) tau / lambda_max_block,
    i.e. an extrapolated stepsize whenever the blocks are well conditioned.
    """
    if not 0.0 < lambda_max_block < math.inf:
        raise NonPositiveConditioningError(f"lambda_max_block={lambda_max_block}")
    check_delta(delta)
    return (2.0 - delta) * weights.omega_min / (weights.omega_max**2 * lambda_max_block)


@dataclass(frozen=True, eq=False)
class AdaptiveStep:
    """One adaptive stepsize evaluation: alpha = (2 - delta) * L along the
    already-computed update direction."""

    alpha: float
    L: float
    direction: np.ndarray


def adaptive_alpha(
    block_rows: np.ndarray,
    residuals: np.ndarray,
    weights: np.ndarray,
    delta: float = 1.0,
) -> AdaptiveStep | None:
    """Adaptive extrapolated stepsize for one drawn block.

    With omega_bar_i = omega_i / ||a_i||^2 and direction
    d = sum_i omega_bar_i r_i a_i, returns L = (sum_i omega_bar_i r_i^2) /
    ||d||^2 and alpha = (2 - delta) L.  Returns ``None`` (skip: no step can
    make progress) when all residuals vanish or ||d||^2 < DIRECTION_EPS
    (:mod:`kaczlab.kernels`).  A zero row raises :class:`ZeroRowError` with
    its position in the block.
    """
    check_delta(delta)
    block_rows = np.array(block_rows, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if not np.any(residuals):
        return None
    norms = np.vecdot(block_rows, block_rows)
    check_row_norms(norms)
    L, d, moved = adaptive_steps(block_rows, residuals, weights, norms)
    if not moved:
        return None
    return AdaptiveStep(alpha=(2.0 - delta) * float(L), L=float(L), direction=d)


# ---------------------------------------------------------------------------
# Chebyshev schedules
# ---------------------------------------------------------------------------

def _check_permutation(kappa, k: int) -> np.ndarray:
    """``kappa`` as an int array; a non-integer entry is refused, not truncated."""
    kappa = np.asarray(kappa)
    if kappa.dtype.kind not in "iu" or sorted(kappa.tolist()) != list(range(k)):
        raise ValueError(f"kappa must be a permutation of 0..{k - 1}, got {kappa.tolist()!r}")
    return kappa.astype(int)


def identity_permutation(k: int) -> np.ndarray:
    return np.arange(k)


def random_permutation(k: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).permutation(k)


@lru_cache(maxsize=512)
def _bit_reversal(k: int) -> tuple[int, ...]:
    p = 1
    while p < k:
        p *= 2
    seq = [0]
    while len(seq) < p:
        seq = [2 * s for s in seq] + [2 * s + 1 for s in seq]
    return tuple(s for s in seq if s < k)


def stable_permutation(k: int) -> np.ndarray:
    """Bit-reversal visiting order for a horizon-k root schedule.

    Monotone orderings apply all the large stepsizes in one stretch, so
    rounding noise injected mid-sweep is amplified exponentially in the
    horizon (the classic instability of root-form Chebyshev iteration).
    Bit-reversal interleaves damping of the two spectrum ends and keeps
    intermediate iterates the same size as the data.
    """
    if k < 1:
        raise ValueError("horizon must be at least 1")
    return np.asarray(_bit_reversal(k), dtype=int)


@dataclass(frozen=True, eq=False)
class ChebyshevSchedule:
    """A horizon-k stepsize schedule plus the spectral interval
    [ell, u] of (1/m) A A^T it was designed for."""

    alphas: np.ndarray
    ell: float
    u: float
    kappa: np.ndarray

    @property
    def horizon(self) -> int:
        return self.alphas.size

    def to_json(self) -> str:
        return json.dumps(
            {
                "alphas": self.alphas.tolist(),
                "ell": self.ell,
                "u": self.u,
                "kappa": self.kappa.tolist(),
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ChebyshevSchedule":
        """``to_json``'s inverse; every number is read by ``kinds.number``."""
        doc = json.loads(text)
        alphas = [number(a, "alphas", float) for a in doc["alphas"]]
        return cls(
            alphas=np.array(alphas, dtype=float),
            ell=number_field(doc, "ell", float),
            u=number_field(doc, "u", float),
            kappa=_check_permutation(doc["kappa"], len(alphas)),
        )


def chebyshev_schedule_pd(
    lambda_min: float, lambda_max: float, m: int, k: int, kappa
) -> ChebyshevSchedule:
    """Stepsizes alpha_j = 2m / ((lmax + lmin) + (lmax - lmin) cos((2 kappa(j)+1) pi / 2k))
    for a spectrum of A A^T inside [lambda_min, lambda_max], lambda_min > 0.

    The reciprocals 1/alpha_j enumerate the roots of the degree-k Chebyshev
    polynomial mapped onto [lambda_min/m, lambda_max/m]; kappa fixes the
    visiting order.
    """
    if not 0.0 < lambda_min <= lambda_max < math.inf:
        raise BadSpectrumError(
            f"need 0 < lambda_min <= lambda_max < inf, got {lambda_min}, {lambda_max}")
    if k < 1:
        raise ValueError("horizon must be at least 1")
    kappa = _check_permutation(kappa, k)
    cos = np.cos((2 * kappa + 1) * np.pi / (2 * k))
    alphas = 2.0 * m / ((lambda_max + lambda_min) + (lambda_max - lambda_min) * cos)
    return ChebyshevSchedule(alphas=alphas, ell=lambda_min / m, u=lambda_max / m, kappa=kappa)


def chebyshev_schedule_singular(lambda_max: float, m: int, k: int, kappa) -> ChebyshevSchedule:
    """Stepsizes for a singular spectrum (lambda_min(A A^T) = 0), built from
    the degree-(k+1) Chebyshev roots with the root closest to -1 pinned at
    the origin of the interval [0, lambda_max/m]."""
    if not 0.0 < lambda_max < math.inf:
        raise BadSpectrumError(f"need 0 < lambda_max < inf, got {lambda_max}")
    if k < 1:
        raise ValueError("horizon must be at least 1")
    kappa = _check_permutation(kappa, k)
    r = np.cos((2 * k + 1) * np.pi / (2 * (k + 1)))
    cos = np.cos((2 * kappa + 1) * np.pi / (2 * (k + 1)))
    alphas = m * (1.0 - r) / (lambda_max * (cos - r))
    return ChebyshevSchedule(alphas=alphas, ell=0.0, u=lambda_max / m, kappa=kappa)


# ---------------------------------------------------------------------------
# Stepsize policies (immutable solver parameters)
#
# ``stepsizes(weights, max_iters)`` gives the stepsize of every iteration of
# a run, or None when each one is computed from the drawn block.
# ``theory_factor(system, rates)`` gives the per-iteration factor of the
# policy's theorem for the system; 1.0 when no theorem applies.
# ``rates(delta)`` is the ``RatePrediction`` of the run's conditioning
# report, which only the constant and adaptive factors call: the classic
# and Chebyshev-PD ones read the spectrum of A A^T, the Chebyshev-singular
# one nothing.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassicConstant(Kind):
    """Fixed relaxation alpha in (0, 2)."""

    kind = "classic"
    alpha: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"classic stepsize must lie in (0, 2), got {self.alpha}")

    def stepsizes(self, weights: WeightScheme, max_iters: int) -> np.ndarray:
        return np.broadcast_to(self.alpha, max_iters)

    def theory_factor(self, system: LinearSystem, rates: Callable) -> float:
        """1 - alpha (2 - alpha) lambda_min_nz(A A^T) / ||A||_F^2 (Needell-Tropp)."""
        a = self.alpha
        return 1.0 - a * (2.0 - a) * system.gram_spectrum.lambda_min_nz / system.frobenius_sq


@dataclass(frozen=True)
class ExtrapolatedConstant(Kind):
    """alpha = (2 - delta) omega_min / (omega_max^2 lambda_max_block)."""

    kind = "constant-extrapolated"
    lambda_max_block: float
    delta: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.lambda_max_block < math.inf:
            raise NonPositiveConditioningError(f"lambda_max_block={self.lambda_max_block}")
        check_delta(self.delta)

    def stepsizes(self, weights: WeightScheme, max_iters: int) -> np.ndarray:
        alpha = constant_extrapolated_alpha(weights, self.lambda_max_block, self.delta)
        return np.broadcast_to(alpha, max_iters)

    def theory_factor(self, system: LinearSystem, rates: Callable) -> float:
        return rates(self.delta).rate_constant_stepsize


@dataclass(frozen=True)
class Adaptive(Kind):
    """alpha_k = (2 - delta) L_k with L_k computed from the drawn block."""

    kind = "adaptive"
    delta: float = 1.0

    def __post_init__(self):
        check_delta(self.delta)

    def stepsizes(self, weights: WeightScheme, max_iters: int) -> None:
        return None

    def theory_factor(self, system: LinearSystem, rates: Callable) -> float:
        return rates(self.delta).rate_adaptive


class _RootSchedule(Kind):
    """A fixed-horizon Chebyshev root schedule; subclasses build it from
    their spectrum with ``_schedule(kappa)``, which checks the spectrum, the
    horizon and kappa.  A policy builds its schedule once, on construction,
    so a bad one is refused there and every run reuses its stepsizes.

    ``kappa=None`` selects the numerically stable bit-reversal ordering;
    pass an explicit permutation (e.g. ``identity_permutation(k)``) to
    override.
    """

    def __post_init__(self):
        schedule = self.schedule()
        if self.kappa is not None:
            object.__setattr__(self, "kappa", tuple(schedule.kappa.tolist()))
        # Every run shares these stepsizes: a read-only view, like ClassicConstant's.
        object.__setattr__(self, "_alphas", np.broadcast_to(schedule.alphas, self.horizon))

    def schedule(self) -> ChebyshevSchedule:
        kappa = stable_permutation(self.horizon) if self.kappa is None else self.kappa
        return self._schedule(kappa)

    def stepsizes(self, weights: WeightScheme, max_iters: int) -> np.ndarray:
        if max_iters != self.horizon:
            raise ConfigMismatchError(
                f"Chebyshev schedule has horizon {self.horizon} but max_iters={max_iters}"
            )
        return self._alphas


@dataclass(frozen=True)
class ChebyshevPD(_RootSchedule):
    """Chebyshev schedule for lambda_min(A A^T) > 0."""

    kind = "chebyshev-pd"
    horizon: int
    lambda_min: float
    lambda_max: float
    m: int
    kappa: tuple[int, ...] | None = None

    def _schedule(self, kappa) -> ChebyshevSchedule:
        return chebyshev_schedule_pd(self.lambda_min, self.lambda_max, self.m, self.horizon, kappa)

    def theory_factor(self, system: LinearSystem, rates: Callable) -> float:
        """The squared Chebyshev factor of the weak (expected-iterate)
        criterion: informational only."""
        gram = system.gram_spectrum
        return chebyshev_factor(gram.lambda_min, gram.lambda_max)**2


@dataclass(frozen=True)
class ChebyshevSingular(_RootSchedule):
    """Chebyshev schedule for lambda_min(A A^T) = 0 (rank-deficient A A^T)."""

    kind = "chebyshev-singular"
    horizon: int
    lambda_max: float
    m: int
    kappa: tuple[int, ...] | None = None

    def _schedule(self, kappa) -> ChebyshevSchedule:
        return chebyshev_schedule_singular(self.lambda_max, self.m, self.horizon, kappa)

    def theory_factor(self, system: LinearSystem, rates: Callable) -> float:
        return 1.0


StepsizePolicy = ClassicConstant | ExtrapolatedConstant | Adaptive | ChebyshevPD | ChebyshevSingular
STEPSIZE_KINDS = registry(ClassicConstant, ExtrapolatedConstant, Adaptive, ChebyshevPD, ChebyshevSingular)


def stepsize_from_dict(doc: dict) -> StepsizePolicy:
    return from_kind_dict(STEPSIZE_KINDS, doc, "stepsize")
