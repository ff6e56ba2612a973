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

Each gradient sweeps fixed blocks of BLOCK_ROWS map rows in two passes. The
first writes the blocks' kernel rows (1 + d^2)^-1; one serial sum over the
whole kernel then gives the normalizer Z. The second turns each block into
its gradient weights (p_ij - q_ij)(1 + d^2)^-1, their row sums and their
contraction with the map. Every block row is computed as the full-matrix
call would compute it, so the gradient is bitwise the same however the
blocks are shared out. From PARALLEL_MIN_ROWS rows on, `embed` splits the
blocks of each pass over one thread per usable CPU; smaller maps run
serially, where threads cost more than they save.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from sdgpipe.errors import CalibrationFailedError, ShapeMismatchError

# Affinities below this are lifted to keep log terms finite.
P_FLOOR = 1e-12

PERPLEXITY_TOL = 1e-5
MAX_CALIBRATION_STEPS = 100

# Rows per block of the gradient sweep.
BLOCK_ROWS = 128
# Maps with fewer rows run the sweep serially. On a 2-CPU Linux VM two
# workers were slower than one up to about 400 rows (0.83 against 0.72 ms
# per gradient at 276) and faster from about 420 (3.0 against 4.1 ms at 690).
PARALLEL_MIN_ROWS = 448

# Applies a function of a row-block slice to every block of the map.
Sweep = Callable[[Callable[[slice], None]], None]


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


def _blocks(n: int) -> list[slice]:
    """Fixed row blocks of an n-row map; they do not depend on the pool."""
    return [slice(start, min(start + BLOCK_ROWS, n)) for start in range(0, n, BLOCK_ROWS)]


def _pool_size(n_blocks: int) -> int:
    """Worker threads for a sweep over n_blocks blocks: one per usable CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not provided on every platform
        cpus = os.cpu_count() or 1
    return min(cpus, n_blocks)


def _in_order(blocks: list[slice]) -> Sweep:
    """Sweep that applies work to the given row blocks in order, in the
    calling thread."""

    def sweep(work: Callable[[slice], None]) -> None:
        for rows in blocks:
            work(rows)

    return sweep


@contextmanager
def _pooled(n: int, workers: int) -> Iterator[Sweep]:
    """Sweep that splits the row blocks of an n-row map over `workers` threads.

    Each worker takes one contiguous run of blocks per sweep, because a task
    per block costs more than the arithmetic of a small block. The calling
    thread is one of the workers: handing its run to the pool and waiting
    would only add a thread switch per sweep.
    """
    blocks = _blocks(n)
    if workers <= 1:
        yield _in_order(blocks)
        return
    first, *rest = [
        _in_order(blocks[k * len(blocks) // workers:(k + 1) * len(blocks) // workers])
        for k in range(workers)
    ]
    with ThreadPoolExecutor(workers - 1) as pool:

        def sweep(work: Callable[[slice], None]) -> None:
            pending = [pool.submit(run, work) for run in rest]
            try:
                first(work)
            finally:
                # The workers write into the caller's buffers, so return or
                # raise only once all have finished; result() re-raises a
                # worker's exception.
                for future in pending:
                    future.result()

        yield sweep


def _student_t(Y: np.ndarray, kernel: np.ndarray, sweep: Sweep) -> float:
    """Write the Student-t kernel of map points Y into kernel; return its sum Z.

    Row blocks of kernel are computed independently, and Z is one serial sum
    over the whole buffer, so the result does not depend on the pool.
    """
    Yc = np.ascontiguousarray(Y)  # cdist is slower on Fortran order

    def rows_of(rows: slice) -> None:
        block = kernel[rows]
        cdist(Yc[rows], Yc, metric="sqeuclidean", out=block)
        np.add(block, 1.0, out=block)
        np.reciprocal(block, out=block)
        np.fill_diagonal(block[:, rows], 0.0)

    sweep(rows_of)
    return float(kernel.sum())


def _gradient(
    target: np.ndarray,
    Y: np.ndarray,
    kernel: np.ndarray,
    w: np.ndarray,
    sweep: Sweep,
) -> tuple[np.ndarray, float]:
    """Gradient of KL(target || Q) with respect to the map points:

        dC/dy_i = 4 sum_j (p_ij - q_ij) (y_i - y_j) (1 + ||y_i - y_j||^2)^-1

    kernel and w are n x n scratch buffers. Returns (gradient, Z) and leaves
    the kernel in kernel, so Q = kernel / Z.
    """
    Z = _student_t(Y, kernel, sweep)
    row_sums = np.empty(Y.shape[0])
    contraction = np.empty(Y.shape)

    def rows_of(rows: slice) -> None:
        block = w[rows]
        np.divide(kernel[rows], Z, out=block)
        np.subtract(target[rows], block, out=block)
        np.multiply(block, kernel[rows], out=block)
        row_sums[rows] = block.sum(axis=1)
        contraction[rows] = np.einsum("ij,jk->ik", block, Y, optimize=False)

    sweep(rows_of)
    return 4.0 * (row_sums[:, None] * Y - contraction), Z


def q_matrix(Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Student-t similarities for map points.

    Returns (Q, kernel) where kernel is the unnormalized (1 + d^2)^-1 with a
    zero diagonal and Q sums to one over ordered pairs.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] < 2:
        raise ValueError("need a 2-d array with at least 2 rows")
    kernel = np.empty((Y.shape[0], Y.shape[0]))
    return kernel / _student_t(Y, kernel, _in_order(_blocks(Y.shape[0]))), kernel


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
    return _gradient(P, Y, np.empty_like(P), np.empty_like(P), _in_order(_blocks(Y.shape[0])))[0]


def embed(
    affinity: AffinityMatrix,
    n_components: int = 2,
    seed: int = 0,
    schedule: GradientSchedule | None = None,
) -> Embedding:
    """Optimize a map for calibrated joint affinities by exact t-SNE.

    The map starts from seeded Gaussian noise (scale from the schedule),
    early iterations exaggerate P, and momentum steps up after the switch
    iteration. The KL against the unexaggerated P is recorded every
    record_every iterations and at the last one.
    """
    schedule = schedule or GradientSchedule()
    schedule.validate()
    if n_components not in (2, 3):
        raise ValueError("n_components must be 2 or 3")
    P = affinity.P
    n = P.shape[0]
    exaggerated = P * schedule.exaggeration

    rng = np.random.default_rng(seed)
    # Fortran order keeps the einsum contraction on its fast stride path.
    # Every step reuses the two n x n buffers for the kernel and the gradient
    # weights (a fresh pair per step page-faults in every time), and the KL
    # of a recorded step is read off the kernel that the next step leaves.
    Y = np.asfortranarray(rng.normal(0.0, schedule.init_scale, size=(n, n_components)))
    velocity = np.zeros_like(Y)
    kernel = np.empty_like(P)
    w = np.empty_like(P)
    history: list[tuple[int, float]] = []
    workers = _pool_size(len(_blocks(n))) if n >= PARALLEL_MIN_ROWS else 1

    with _pooled(n, workers) as sweep:
        for step in range(1, schedule.iterations + 1):
            target = exaggerated if step <= schedule.exaggeration_until else P
            grad, Z = _gradient(target, Y, kernel, w, sweep)
            if step > 1 and (step - 1) % schedule.record_every == 0:
                history.append((step - 1, kl_divergence(P, kernel / Z)))
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


def run(
    X: np.ndarray,
    perplexity: float,
    n_components: int = 2,
    seed: int = 0,
    schedule: GradientSchedule | None = None,
) -> Embedding:
    """Embed rows of X by exact t-SNE: calibrate the affinities, then embed."""
    return embed(joint_affinities(X, perplexity), n_components, seed, schedule)
