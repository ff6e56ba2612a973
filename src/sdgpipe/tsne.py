"""Exact t-SNE with dense O(N^2) affinities and the analytic gradient.

High-dimensional similarities are Gaussian conditionals

    p_{j|i} = exp(-||x_i - x_j||^2 / (2 sigma_i^2)) / sum_{k != i} exp(...)

with sigma_i calibrated per point so that 2^H(P_i) matches the requested
perplexity (H in bits). Joint affinities are the symmetrized average
p_ij = (p_{j|i} + p_{i|j}) / (2N). Low-dimensional similarities use the
Student-t kernel with one degree of freedom,

    q_ij = (1 + ||y_i - y_j||^2)^-1 / sum_{k != l} (1 + ||y_k - y_l||^2)^-1,

and a 2-d map minimizes KL(P || Q) by gradient descent with momentum and
early exaggeration. No tree approximations; every pair is computed. The
optimizer schedule is fixed by the module constants ITERATIONS through
INIT_SCALE; `run` and `embed` take only the iteration count, the seed and
the learning rate.

All n x n work walks fixed blocks of BLOCK_ROWS rows, each row computed as
a one-point or whole-matrix call would compute it, so results are bitwise
the same however the blocks are shared out. Calibration bisects a block's
bandwidths together, one exp over the block, while each row's perplexity
stays a scalar. Each gradient sweeps the map's blocks twice: the first pass
writes the kernel rows (1 + d^2)^-1, and one serial sum over them gives the
normalizer Z; the second forms each block's weights (a p_ij - q_ij)
(1 + d^2)^-1, with the exaggeration a as a scalar, their row sums and their
contraction with the map, after summing the block's KL terms on a recorded
step (the partials are added in row order). From PARALLEL_MIN_ROWS rows on,
`embed` splits the blocks of each pass over one thread per usable CPU;
smaller maps run serially, where threads cost more than they save.

Memory: `embed` holds two n x n arrays, P and the kernel (Z must be one
serial sum over the whole kernel to stay bitwise fixed), plus one
2 x BLOCK_ROWS x n scratch per worker, allocated once per call. Calibration
holds P, into whose rows each block's distances are written, and at most
two block-sized arrays more.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from sdgpipe.errors import CalibrationFailedError, ShapeMismatchError

# Affinities below this are lifted to keep log terms finite.
P_FLOOR = 1e-12

PERPLEXITY_TOL = 1e-5
MAX_CALIBRATION_STEPS = 100

# Rows per block of the sweeps.
BLOCK_ROWS = 64
# Maps with fewer rows run the sweep serially. On a 2-CPU Linux VM two
# workers were slower than one up to about 400 rows (0.83 against 0.72 ms
# per gradient at 276) and faster from about 420 (3.0 against 4.1 ms at 690).
PARALLEL_MIN_ROWS = 448

# The optimizer schedule of exact t-SNE (van der Maaten, JMLR 2014).
ITERATIONS = 1000
LEARNING_RATE = 200.0
MOMENTUM_EARLY = 0.5
MOMENTUM_LATE = 0.8
MOMENTUM_SWITCH = 250
EXAGGERATION = 12.0
EXAGGERATION_UNTIL = 250
RECORD_EVERY = 50
INIT_SCALE = 1e-4


def check_settings(perplexity: float | None = None, iterations: int | None = None,
                   seed: int | None = None, learning_rate: float | None = None) -> None:
    """Raise ValueError for the first of the given settings that breaks its rule."""
    if perplexity is not None and not 1 < perplexity < math.inf:  # NaN fails every comparison
        raise ValueError("perplexity must be finite and exceed 1")
    if iterations is not None and iterations < 1:
        raise ValueError("iterations must be >= 1")
    if seed is not None and seed < 0:
        raise ValueError("seed must be >= 0")
    if learning_rate is not None and not 0 < learning_rate < math.inf:
        raise ValueError("learning_rate must be finite and positive")


# Work on one row block of the map, given its worker's scratch.
Work = Callable[[slice, np.ndarray], None]
# Applies work to every row block of the map.
Sweep = Callable[[Work], None]


@dataclass(frozen=True)
class AffinityMatrix:
    """Symmetric joint affinities P (zero diagonal) and per-point sigmas."""

    P: np.ndarray
    sigmas: np.ndarray


@dataclass(frozen=True)
class Embedding:
    """Final map coordinates plus the recorded KL trace."""

    Y: np.ndarray
    kl_history: tuple[tuple[int, float], ...] = field(default_factory=tuple)

    @property
    def final_kl(self) -> float:
        return self.kl_history[-1][1] if self.kl_history else math.nan


def _calibrate(sq: np.ndarray, first: int, perplexity: float) -> tuple[np.ndarray, tuple | None]:
    """calibrate_sigma for the points first, first + 1, ... at once.

    Row r of sq holds point first + r's squared distances to all n points,
    zero to itself; it is overwritten with the point's conditional row.
    Returns the sigmas and (row, reason) for the lowest failing row, or None.
    """
    b, n = sq.shape
    off = np.arange(n) != np.arange(first, first + b)[:, None]
    shifted = sq[off].reshape(b, n - 1)
    # An empty, NaN or infinite row has a non-finite minimum or maximum.
    lows, highs = shifted.min(axis=1, initial=math.inf), shifted.max(axis=1, initial=-math.inf)
    finite = np.isfinite(lows) & np.isfinite(highs)
    sigmas = np.ones(b)  # the sigma of an equidistant row
    failed = {r: "need at least one finite neighbor distance" for r in np.flatnonzero(~finite)}
    # Perplexity ranges over (1, n-1]: beta -> inf concentrates all mass on
    # the nearest neighbor(s), beta -> 0 spreads it uniformly.
    flat = np.flatnonzero(finite & (highs == lows))
    sq[flat] = off[flat] / (n - 1)
    if abs(n - 1 - perplexity) > PERPLEXITY_TOL:
        failed.update(dict.fromkeys(flat, f"all neighbors equidistant; perplexity fixed at "
                      f"{n - 1}, target {perplexity} unreachable"))
    rows = np.flatnonzero(finite & (highs > lows))
    if perplexity > n - 1 + PERPLEXITY_TOL:
        failed.update(dict.fromkeys(rows, f"perplexity {perplexity} exceeds n - 1 = {n - 1}"))
        rows = rows[:0]
    # Shifting by the minimum cancels in the normalized row but keeps the sum
    # well above underflow for any beta.
    shifted = shifted[rows]
    shifted -= lows[rows, None]
    beta, lo, hi = np.ones(rows.size), np.zeros(rows.size), np.full(rows.size, math.inf)
    for _ in range(MAX_CALIBRATION_STEPS):
        if not rows.size:
            break
        p = -shifted
        p *= beta[:, None]
        np.exp(p, out=p)
        totals = p.sum(axis=1)
        p /= totals[:, None]
        # Entropy in nats, H = ln(total) + beta * E[shifted distance]. The
        # expectations are one batched dot, bitwise each row's np.dot; log and
        # exp go one row at a time, as numpy's may round differently from
        # math's, and one ulp can flip a comparison.
        means = np.matmul(p[:, None, :], shifted[:, :, None])[:, 0, 0]
        perp = np.array([math.exp(math.log(total) + b_r * mean) for total, b_r, mean
                         in zip(totals.tolist(), beta.tolist(), means.tolist())])
        done = abs(perp - perplexity) <= PERPLEXITY_TOL
        sigmas[rows[done]] = np.sqrt(0.5 / beta[done])
        for r, p_r in zip(rows[done], p[done]):
            sq[r, off[r]] = p_r
        del p  # so at most two block arrays live next to P
        # A too diffuse row needs a tighter kernel: beta is a lower bound.
        # Double beta until it has an upper bound, then bisect.
        diffuse = perp > perplexity
        lo = np.where(diffuse, beta, lo)
        hi = np.where(diffuse, hi, beta)
        beta = np.where(hi == math.inf, 2.0 * beta, 0.5 * (lo + hi))
        if done.any():
            rows, shifted, beta, lo, hi = (a[~done] for a in (rows, shifted, beta, lo, hi))
    failed.update(dict.fromkeys(rows, f"no bandwidth reached perplexity {perplexity} within "
                  f"{MAX_CALIBRATION_STEPS} bisection steps (tol {PERPLEXITY_TOL})"))
    return sigmas, min(failed.items(), default=None)


def calibrate_sigma(sq_dists: np.ndarray, perplexity: float) -> tuple[float, np.ndarray]:
    """Binary-search the Gaussian bandwidth for one point.

    sq_dists holds the squared distances to the other N-1 points. Returns
    (sigma, conditional row) with |2^H - perplexity| <= PERPLEXITY_TOL, or
    raises CalibrationFailedError when the target is unreachable (outside
    (1, N-1]) or the search does not converge within MAX_CALIBRATION_STEPS.
    """
    # The one-row block, with the point itself in column 0.
    row = np.concatenate(([0.0], np.asarray(sq_dists, dtype=float)))[None]
    sigmas, failure = _calibrate(row, 0, perplexity)
    if failure:
        raise CalibrationFailedError(failure[1])
    return float(sigmas[0]), row[0, 1:]


def joint_affinities(X: np.ndarray, perplexity: float) -> AffinityMatrix:
    """Calibrated, symmetrized, floored joint affinity matrix for rows of X.

    P is the only n x n array: one cdist call writes each block's squared
    distances into its rows (bitwise those rows of the full cdist), they are
    calibrated into conditionals there, then symmetrized and floored.
    """
    from scipy.spatial.distance import cdist  # see dbscan._checked_distances

    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 4:
        raise ValueError("need a 2-d array with at least 4 rows")
    n = X.shape[0]
    P = np.empty((n, n))
    sigmas = np.empty(n)
    blocks = _blocks(n)
    for rows in blocks:
        cdist(X[rows], X, metric="sqeuclidean", out=P[rows])
        sigmas[rows], failure = _calibrate(P[rows], rows.start, perplexity)
        if failure:
            raise CalibrationFailedError(f"point {rows.start + failure[0]}: {failure[1]}")
    # p_ij = (p_{j|i} + p_{i|j}) / 2n, written over both (i, j) and (j, i).
    # Addition commutes bitwise, so P is exactly symmetric.
    for k, rows in enumerate(blocks):
        for cols in blocks[k:]:
            pair = P[rows, cols] + P[cols, rows].T
            pair /= 2.0 * n
            P[rows, cols] = pair
            P[cols, rows] = pair.T
    # Floor, renormalize, floor again: the first floor adds at most
    # n^2 * P_FLOOR of mass, renormalizing removes it, and the second pass
    # re-lifts entries that dipped below the floor by only that mass squared,
    # so the sum stays within 1e-9 of one while every entry stays >= P_FLOOR.
    np.maximum(P, P_FLOOR, out=P)
    np.fill_diagonal(P, 0.0)
    P /= P.sum()
    np.maximum(P, P_FLOOR, out=P)
    np.fill_diagonal(P, 0.0)
    return AffinityMatrix(P=P, sigmas=sigmas)


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


def _in_order(blocks: list[slice], n: int) -> Sweep:
    """Sweep that applies work to the given row blocks of an n-row map in
    order, in the calling thread, with a 2 x BLOCK_ROWS x n scratch of its
    own: two contiguous block x n buffers side by side."""
    scratch = np.empty((2, BLOCK_ROWS, n))

    def sweep(work: Work) -> None:
        for rows in blocks:
            work(rows, scratch)

    return sweep


@contextmanager
def _pooled(n: int, workers: int) -> Iterator[Sweep]:
    """Sweep that splits the row blocks of an n-row map over `workers` threads.

    Each worker takes one contiguous run of blocks per sweep, because a task
    per block costs more than the arithmetic of a small block, and each run
    owns its scratch for as long as the sweep is open. The calling thread is
    one of the workers: handing its run to the pool and waiting would only
    add a thread switch per sweep.
    """
    blocks = _blocks(n)
    if workers <= 1:
        yield _in_order(blocks, n)
        return
    first, *rest = [
        _in_order(blocks[k * len(blocks) // workers:(k + 1) * len(blocks) // workers], n)
        for k in range(workers)
    ]
    with ThreadPoolExecutor(workers - 1) as pool:

        def sweep(work: Work) -> None:
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
    from scipy.spatial.distance import cdist  # see dbscan._checked_distances

    Yc = np.ascontiguousarray(Y)  # cdist is slower on Fortran order

    def rows_of(rows: slice, _scratch: np.ndarray) -> None:
        block = kernel[rows]
        cdist(Yc[rows], Yc, metric="sqeuclidean", out=block)
        np.add(block, 1.0, out=block)
        np.reciprocal(block, out=block)

    sweep(rows_of)
    np.fill_diagonal(kernel, 0.0)  # one call, not one per block
    return float(kernel.sum())


def _gradient(
    P: np.ndarray,
    scale: float,
    Y: np.ndarray,
    kernel: np.ndarray,
    sweep: Sweep,
    record_kl: bool = False,
) -> tuple[np.ndarray, float | None]:
    """Gradient of KL(scale * P || Q) with respect to the map points:

        dC/dy_i = 4 sum_j (scale p_ij - q_ij) (y_i - y_j) (1 + ||y_i - y_j||^2)^-1

    kernel is an n x n buffer and is left holding the kernel; the weights are
    formed a block at a time in the sweep's scratch. With record_kl, the
    KL(P || Q) of the unexaggerated P is returned too, else None.
    """
    Z = _student_t(Y, kernel, sweep)
    row_sums = np.empty(Y.shape[0])
    contraction = np.empty(Y.shape)
    partials = np.empty(math.ceil(Y.shape[0] / BLOCK_ROWS))

    def rows_of(rows: slice, scratch: np.ndarray) -> None:
        target, weights = scratch[:, :rows.stop - rows.start]
        if record_kl:
            np.maximum(P[rows], P_FLOOR, out=target)
            np.divide(kernel[rows], Z, out=weights)
            np.maximum(weights, P_FLOOR, out=weights)
            np.divide(target, weights, out=weights)
            np.log(weights, out=weights)
            np.multiply(P[rows], weights, out=weights)
            partials[rows.start // BLOCK_ROWS] = weights.sum()
        # x * 1.0 == x, so the unexaggerated steps read P itself.
        target = P[rows] if scale == 1.0 else np.multiply(P[rows], scale, out=target)
        np.divide(kernel[rows], Z, out=weights)
        np.subtract(target, weights, out=weights)
        np.multiply(weights, kernel[rows], out=weights)
        weights.sum(axis=1, out=row_sums[rows])
        np.einsum("ij,jk->ik", weights, Y, out=contraction[rows], optimize=False)

    sweep(rows_of)
    kl = sum(partials.tolist()) if record_kl else None
    return 4.0 * (row_sums[:, None] * Y - contraction), kl


def q_matrix(Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Student-t similarities for map points.

    Returns (Q, kernel) where kernel is the unnormalized (1 + d^2)^-1 with a
    zero diagonal and Q sums to one over ordered pairs.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] < 2:
        raise ValueError("need a 2-d array with at least 2 rows")
    n = Y.shape[0]
    kernel = np.empty((n, n))
    return kernel / _student_t(Y, kernel, _in_order(_blocks(n), n)), kernel


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
    n = Y.shape[0]
    return _gradient(P, 1.0, Y, np.empty_like(P), _in_order(_blocks(n), n))[0]


def embed(
    affinity: AffinityMatrix,
    iterations: int = ITERATIONS,
    seed: int = 0,
    learning_rate: float = LEARNING_RATE,
) -> Embedding:
    """Optimize a 2-d map for calibrated joint affinities by exact t-SNE.

    The map starts from seeded Gaussian noise of scale INIT_SCALE, P is
    exaggerated by EXAGGERATION up to step EXAGGERATION_UNTIL, and momentum
    steps from MOMENTUM_EARLY to MOMENTUM_LATE at MOMENTUM_SWITCH. The KL
    against the unexaggerated P is recorded every RECORD_EVERY iterations and
    at the last one.
    """
    check_settings(iterations=iterations, seed=seed, learning_rate=learning_rate)
    P = affinity.P
    n = P.shape[0]

    rng = np.random.default_rng(seed)
    # Fortran order keeps the einsum contraction on its fast stride path.
    # Every step reuses one n x n kernel buffer (a fresh one per step
    # page-faults in every time). The KL of the map a step leaves is summed
    # in the next step's sweep, so one more sweep gives the final KL.
    Y = np.asfortranarray(rng.normal(0.0, INIT_SCALE, size=(n, 2)))
    velocity = np.zeros_like(Y)
    kernel = np.empty_like(P)
    history: list[tuple[int, float]] = []
    workers = _pool_size(len(_blocks(n))) if n >= PARALLEL_MIN_ROWS else 1

    with _pooled(n, workers) as sweep:
        for step in range(1, iterations + 1):
            scale = EXAGGERATION if step <= EXAGGERATION_UNTIL else 1.0
            recorded = step > 1 and (step - 1) % RECORD_EVERY == 0
            grad, kl = _gradient(P, scale, Y, kernel, sweep, recorded)
            if recorded:
                history.append((step - 1, kl))
            velocity *= MOMENTUM_EARLY if step < MOMENTUM_SWITCH else MOMENTUM_LATE
            grad *= learning_rate
            velocity -= grad
            Y += velocity
            Y -= Y.mean(axis=0)
        history.append((iterations, _gradient(P, 1.0, Y, kernel, sweep, True)[1]))

    return Embedding(Y=Y, kl_history=tuple(history))


def run(
    X: np.ndarray,
    perplexity: float,
    iterations: int = ITERATIONS,
    seed: int = 0,
    learning_rate: float = LEARNING_RATE,
) -> Embedding:
    """Embed rows of X in 2-d by exact t-SNE: calibrate the affinities, then embed."""
    check_settings(perplexity, iterations, seed, learning_rate)  # before calibrating
    return embed(joint_affinities(X, perplexity), iterations, seed, learning_rate)
