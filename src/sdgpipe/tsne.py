"""Exact t-SNE with dense O(N^2) affinities and the analytic gradient.

High-dimensional similarities are Gaussian conditionals

    p_{j|i} = exp(-||x_i - x_j||^2 / (2 sigma_i^2)) / sum_{k != i} exp(...)

with sigma_i calibrated per point so that 2^H(P_i) matches the requested
perplexity (H in bits). Joint affinities are the symmetrized average
p_ij = (p_{j|i} + p_{i|j}) / (2N). Low-dimensional similarities use the
Student-t kernel with one degree of freedom,

    q_ij = (1 + ||y_i - y_j||^2)^-1 / sum_{k != l} (1 + ||y_k - y_l||^2)^-1,

and the map minimizes KL(P || Q) by gradient descent with momentum and
early exaggeration. No tree approximations; every pair is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from sdgpipe.errors import CalibrationFailedError, ShapeMismatchError

# Affinities below this are lifted to keep log terms finite.
P_FLOOR = 1e-12

PERPLEXITY_TOL = 1e-5
MAX_CALIBRATION_STEPS = 100


@dataclass(frozen=True)
class AffinityMatrix:
    """Symmetric joint affinities P (zero diagonal) and per-point sigmas."""

    P: np.ndarray
    sigmas: np.ndarray
    perplexity: float


@dataclass(frozen=True)
class GradientSchedule:
    """Optimizer settings; the defaults are the ones used throughout."""

    iterations: int = 1000
    learning_rate: float = 200.0
    momentum_early: float = 0.5
    momentum_late: float = 0.8
    momentum_switch: int = 250
    exaggeration: float = 12.0
    exaggeration_until: int = 250
    record_every: int = 50
    init_scale: float = 1e-4

    def validate(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.exaggeration < 1.0:
            raise ValueError("exaggeration must be >= 1")
        if self.init_scale <= 0:
            raise ValueError("init_scale must be positive")


@dataclass(frozen=True)
class Embedding:
    """Final map coordinates plus the recorded KL trace."""

    Y: np.ndarray
    seed: int
    kl_history: tuple[tuple[int, float], ...] = field(default_factory=tuple)

    @property
    def final_kl(self) -> float:
        return self.kl_history[-1][1] if self.kl_history else math.nan


def _row_affinities(sq_dists: np.ndarray, beta: float) -> tuple[np.ndarray, float]:
    """Conditional affinities and perplexity for one row at precision beta.

    beta = 1 / (2 sigma^2). Distances are shifted by their minimum before
    exponentiating, which cancels in the normalized row but keeps the sum
    well above underflow for any beta.
    """
    shifted = sq_dists - sq_dists.min()
    weights = np.exp(-shifted * beta)
    total = weights.sum()
    p = weights / total
    # Entropy in nats: H = ln(total) + beta * E[shifted distance].
    entropy = math.log(total) + beta * float(np.dot(p, shifted))
    return p, math.exp(entropy)


def calibrate_sigma(
    sq_dists: np.ndarray,
    perplexity: float,
    tol: float = PERPLEXITY_TOL,
    max_steps: int = MAX_CALIBRATION_STEPS,
) -> tuple[float, np.ndarray]:
    """Binary-search the Gaussian bandwidth for one point.

    sq_dists holds the squared distances to the other N-1 points. Returns
    (sigma, conditional row) with |2^H - perplexity| <= tol, or raises
    CalibrationFailedError when the target is unreachable (outside
    (1, N-1]) or the search does not converge within max_steps.
    """
    sq_dists = np.asarray(sq_dists, dtype=float)
    n_others = sq_dists.size
    if n_others < 1 or not np.all(np.isfinite(sq_dists)):
        raise CalibrationFailedError("need at least one finite neighbor distance")
    # Perplexity ranges over (1, n_others]: beta -> inf concentrates all mass
    # on the nearest neighbor(s), beta -> 0 spreads it uniformly.
    if sq_dists.max() == sq_dists.min():
        if abs(n_others - perplexity) <= tol:
            return 1.0, np.full(n_others, 1.0 / n_others)
        raise CalibrationFailedError(
            f"all neighbors equidistant; perplexity fixed at {n_others}, "
            f"target {perplexity} unreachable"
        )
    beta = 1.0
    lo = 0.0
    hi = math.inf
    for _ in range(max_steps):
        p, perp = _row_affinities(sq_dists, beta)
        if abs(perp - perplexity) <= tol:
            return math.sqrt(0.5 / beta), p
        if perp > perplexity:
            # Too diffuse; tighten the kernel.
            lo = beta
            beta = beta * 2.0 if hi == math.inf else 0.5 * (beta + hi)
        else:
            hi = beta
            beta = 0.5 * (beta + lo)
    raise CalibrationFailedError(
        f"no bandwidth reached perplexity {perplexity} within "
        f"{max_steps} bisection steps (tol {tol})"
    )


def joint_affinities(X: np.ndarray, perplexity: float) -> AffinityMatrix:
    """Calibrated, symmetrized, floored joint affinity matrix for rows of X."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 4:
        raise ValueError("need a 2-d array with at least 4 rows")
    n = X.shape[0]
    sq = cdist(X, X, metric="sqeuclidean")
    conditional = np.zeros((n, n))
    sigmas = np.empty(n)
    others = np.arange(n)
    for i in range(n):
        mask = others != i
        try:
            sigma, row = calibrate_sigma(sq[i, mask], perplexity)
        except CalibrationFailedError as exc:
            raise CalibrationFailedError(f"point {i}: {exc}") from None
        sigmas[i] = sigma
        conditional[i, mask] = row
    P = (conditional + conditional.T) / (2.0 * n)
    # Floor, renormalize, floor again: the first floor adds at most
    # n^2 * P_FLOOR of mass, renormalizing removes it, and the second pass
    # re-lifts entries that dipped below the floor by only that mass squared,
    # so the sum stays within 1e-9 of one while every entry stays >= P_FLOOR.
    P = np.maximum(P, P_FLOOR)
    np.fill_diagonal(P, 0.0)
    P /= P.sum()
    P = np.maximum(P, P_FLOOR)
    np.fill_diagonal(P, 0.0)
    return AffinityMatrix(P=P, sigmas=sigmas, perplexity=float(perplexity))


def _student_t(Y: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Write Q for map points Y into q and return the kernel (see q_matrix)."""
    kernel = cdist(Y, Y, metric="sqeuclidean")
    np.add(kernel, 1.0, out=kernel)
    np.reciprocal(kernel, out=kernel)
    np.fill_diagonal(kernel, 0.0)
    np.divide(kernel, kernel.sum(), out=q)
    return kernel


def _gradient(target: np.ndarray, Y: np.ndarray, q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradient of KL(target || Q) with respect to the map points:

        dC/dy_i = 4 sum_j (p_ij - q_ij) (y_i - y_j) (1 + ||y_i - y_j||^2)^-1

    q and w are n x n scratch buffers; Q is left in q.
    """
    kernel = _student_t(Y, q)
    np.subtract(target, q, out=w)
    np.multiply(w, kernel, out=w)
    return 4.0 * (w.sum(axis=1)[:, None] * Y - np.einsum("ij,jk->ik", w, Y, optimize=False))


def q_matrix(Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Student-t similarities for map points.

    Returns (Q, kernel) where kernel is the unnormalized (1 + d^2)^-1 with a
    zero diagonal and Q sums to one over ordered pairs.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] < 2:
        raise ValueError("need a 2-d array with at least 2 rows")
    Q = np.empty((Y.shape[0], Y.shape[0]))
    return Q, _student_t(Y, Q)


def kl_divergence(P: np.ndarray, Q: np.ndarray) -> float:
    """KL(P || Q) over off-diagonal entries, with both sides floored."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if P.shape != Q.shape:
        raise ShapeMismatchError(f"P {P.shape} vs Q {Q.shape}")
    ratio = np.maximum(P, P_FLOOR) / np.maximum(Q, P_FLOOR)
    # Diagonal of P is zero, so those terms vanish regardless of ratio.
    return float(np.sum(P * np.log(ratio)))


def kl_gradient(P: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Analytic gradient of KL(P || Q) with respect to the map points."""
    P = np.asarray(P, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if P.shape != (Y.shape[0], Y.shape[0]):
        raise ShapeMismatchError(f"P {P.shape} does not pair with Y {Y.shape}")
    return _gradient(P, Y, np.empty_like(P), np.empty_like(P))


def run(
    X: np.ndarray,
    perplexity: float,
    n_components: int = 2,
    seed: int = 0,
    schedule: GradientSchedule | None = None,
) -> Embedding:
    """Embed rows of X by exact t-SNE.

    The map starts from seeded Gaussian noise (scale from the schedule),
    early iterations exaggerate P, and momentum steps up after the switch
    iteration. The KL against the unexaggerated P is recorded every
    record_every iterations and at the last one.
    """
    schedule = schedule or GradientSchedule()
    schedule.validate()
    if n_components not in (2, 3):
        raise ValueError("n_components must be 2 or 3")
    X = np.asarray(X, dtype=float)
    affinity = joint_affinities(X, perplexity)
    P = affinity.P
    n = P.shape[0]
    exaggerated = P * schedule.exaggeration

    rng = np.random.default_rng(seed)
    # Fortran order keeps the einsum contraction on its fast stride path.
    # Every step reuses the two n x n buffers for Q and the gradient weights
    # (a fresh pair per step page-faults in every time), and the KL of a
    # recorded step is read off the Q that the next step leaves in q.
    Y = np.asfortranarray(rng.normal(0.0, schedule.init_scale, size=(n, n_components)))
    velocity = np.zeros_like(Y)
    q = np.empty_like(P)
    w = np.empty_like(P)
    history: list[tuple[int, float]] = []

    for step in range(1, schedule.iterations + 1):
        target = exaggerated if step <= schedule.exaggeration_until else P
        grad = _gradient(target, Y, q, w)
        if step > 1 and (step - 1) % schedule.record_every == 0:
            history.append((step - 1, kl_divergence(P, q)))
        momentum = (
            schedule.momentum_early
            if step < schedule.momentum_switch
            else schedule.momentum_late
        )
        velocity *= momentum
        grad *= schedule.learning_rate
        velocity -= grad
        Y += velocity
        Y -= Y.mean(axis=0)

    history.append((schedule.iterations, kl_divergence(P, q_matrix(Y)[0])))
    return Embedding(Y=Y, seed=seed, kl_history=tuple(history))
