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

All n x n work walks blocks of at most BLOCK_ROWS rows, each row computed
as a one-point or whole-matrix call would compute it, so results are bitwise
the same however the rows are shared out. Calibration bisects a block's
bandwidths together, one exp over the block, while each row's perplexity
stays a scalar. Each gradient makes two sweeps over the map. The first
writes the kernel (1 + d^2)^-1, and its sum is the normalizer Z; the second
forms the weights (a p_ij - q_ij) (1 + d^2)^-1, with the exaggeration a as a
scalar, their row sums and their contraction with the map, after summing a
block's KL terms on a recorded step (the partials are added in row order).

From PARALLEL_MIN_ROWS rows on, `embed` shares each sweep out over worker
processes, one per usable CPU rounded down to a power of two, forked once
per call where `os.fork` exists; smaller maps, and platforms without fork,
run serially in-process. numpy sums an array as a pairwise tree, and each
worker owns one subtree ("leaf") of that tree over the flattened kernel: it
writes those entries, sums them, and forms the weights of the same rows.
The parent joins the leaf sums in tree order, which gives the bits of one
sum over the whole kernel, and updates the map. Pools of 1, 2 and 4 workers
are checked to give the same bits.

Memory: `embed` holds two n x n arrays, P and the kernel. The kernel, the
map and the per-row results live in shared memory; P is inherited and never
written. Each process has one 2 x BLOCK_ROWS x n scratch of its own, its
first row the buffer of a row that two leaves split. Calibration holds P,
into whose rows each block's distances are written, and at most two
block-sized arrays more.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
from collections.abc import Callable, Iterator
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
# Maps with fewer rows run serially. On a 2-CPU Linux VM, `embed` alone
# with 400 iterations on two worker processes against one, 10 interleaved
# pairs:
#   rows   pairs won   median serial -> pooled
#   100     0/10       0.045 -> 0.061 s
#   160     1/10       0.083 -> 0.095 s
#   200     8/10       0.116 -> 0.110 s
#   256    10/10       0.171 -> 0.144 s
#   276    10/10       0.223 -> 0.174 s
#   448    10/10       0.525 -> 0.362 s
# But a whole 276-row `sdgpipe all` in a process that had already run many
# (the benchmark's fixture op, 72 MB RSS) took 0.36-0.41 s pooled against
# 0.29-0.30 s serial: the fork and the copy-on-write faults after it cost
# such a process more than the map saves. So pooling starts above it.
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
    """Workers for a map of n_blocks row blocks: one per usable CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not provided on every platform
        cpus = os.cpu_count() or 1
    return min(cpus, n_blocks)


def _pairwise(lo: int, hi: int, depth: int, leaf: Callable[[int, int], float]) -> float:
    """The sum of items lo..hi as numpy's pairwise summation adds it, cut
    `depth` levels down its tree: leaf(lo, hi) gives each range left there.

    numpy halves a range of more than 128 items at a multiple of 8 below the
    middle and adds the two halves' sums; it sums up to 128 items in one
    unrolled loop. The leaves are visited left to right.
    """
    if depth and hi - lo > 128:
        half = (hi - lo) // 2
        half -= half % 8
        return (_pairwise(lo, lo + half, depth - 1, leaf)
                + _pairwise(lo + half, hi, depth - 1, leaf))
    return leaf(lo, hi)


def _shared(shape: tuple[int, ...], order: str = "C") -> np.ndarray:
    """A float array in anonymous shared memory: the pages that a worker
    forked after this call writes are the pages its parent reads."""
    return np.ndarray(shape, buffer=mmap.mmap(-1, 8 * math.prod(shape)), order=order)


def _student_t(Y: np.ndarray, kernel: np.ndarray, lo: int = 0, hi: int | None = None,
               edge: np.ndarray | None = None) -> float:
    """Write the Student-t kernel of map points Y, entries lo..hi of it
    flattened (all by default), into kernel with a zero diagonal; return
    their sum.

    Whole rows are computed a block at a time in place. A row that the range
    holds only part of is computed in edge, a 1 x n buffer, and only that
    part is copied, so no entry outside the range is ever written. The sum is
    one numpy sum over the range.
    """
    from scipy.spatial.distance import cdist  # see dbscan._checked_distances

    n = Y.shape[0]
    hi = n * n if hi is None else hi
    Yc = np.ascontiguousarray(Y)  # cdist is slower on Fortran order
    flat = kernel.reshape(-1)

    def rows_of(rows: slice, out: np.ndarray) -> None:
        cdist(Yc[rows], Yc, metric="sqeuclidean", out=out)
        np.add(out, 1.0, out=out)
        np.reciprocal(out, out=out)

    whole = range(-(-lo // n), hi // n)
    for start in whole[::BLOCK_ROWS]:
        rows = slice(start, min(start + BLOCK_ROWS, whole.stop))
        rows_of(rows, kernel[rows])
    for row in {lo // n, (hi - 1) // n}:  # the first and the last row in range
        first, last = max(lo, row * n), min(hi, row * n + n)
        if last - first < n:
            rows_of(slice(row, row + 1), edge)
            flat[first:last] = edge[0, first - row * n:last - row * n]
    flat[lo + -lo % (n + 1):hi:n + 1] = 0.0  # the diagonal entries in range
    return float(flat[lo:hi].sum())


# What a sweep asks of each worker.
_KERNEL, _WEIGHTS, _WEIGHTS_AND_KL = range(3)
_MESSAGE = struct.Struct("=bdd")  # the sweep, Z and the exaggeration
_DONE = b"\0"
# POSIX's least PIPE_BUF: a reply no longer than this arrives in one read.
_REPLY_BYTES = 512


class _Pool:
    """One embed's map and gradient buffers, in memory that forked workers
    share, and the share of each sweep that each worker takes.

    Worker k owns leaf k of numpy's summation tree over the flattened kernel
    (`depth` levels down, so 2^depth workers): it writes those entries and
    sums them, and the parent joins the leaf sums in tree order into Z, the
    bits of kernel.sum(). Worker k then forms the gradient weights of the
    rows that start in its leaf; on a recorded step those boundaries move to
    the nearest block, so each KL partial is still one block's sum. Worker 0
    is the parent.
    """

    def __init__(self, P: np.ndarray, Y: np.ndarray, workers: int) -> None:
        n = P.shape[0]
        self.P = P  # inherited, and never written after the fork
        self.Y = _shared(Y.shape, "F" if np.isfortran(Y) else "C")  # einsum rounds by layout
        self.Y[...] = Y
        self.kernel = _shared((n, n))
        self.row_sums = _shared((n,))
        self.contraction = _shared(Y.shape)
        self.partials = _shared((math.ceil(n / BLOCK_ROWS),))
        self.depth = workers.bit_length() - 1
        self.leaves: list[tuple[int, int]] = []
        _pairwise(0, n * n, self.depth, lambda lo, hi: self.leaves.append((lo, hi)) or 0.0)
        self.leaf_sums = _shared((len(self.leaves),))
        cuts = [lo // n for lo, _ in self.leaves[1:]]
        blocks = [min(n, (cut + BLOCK_ROWS // 2) // BLOCK_ROWS * BLOCK_ROWS) for cut in cuts]
        self.bounds = {False: [0, *cuts, n], True: [0, *blocks, n]}
        # Two contiguous block x n buffers side by side; a forked worker
        # writes its own copy.
        self.scratch = np.empty((2, BLOCK_ROWS, n))
        self.pipes: list[tuple[int, int]] = []  # (command, reply) fds per forked worker

    def gradient(self, scale: float, record_kl: bool = False) -> tuple[np.ndarray, float | None]:
        """Gradient of KL(scale * P || Q) with respect to the map points:

            dC/dy_i = 4 sum_j (scale p_ij - q_ij) (y_i - y_j) (1 + ||y_i - y_j||^2)^-1

        The kernel buffer is left holding the kernel. With record_kl, the
        KL(P || Q) of the unexaggerated P is returned too, else None.
        """
        self._sweep(_KERNEL, 0.0, scale)
        sums = iter(self.leaf_sums.tolist())
        Z = _pairwise(0, self.kernel.size, self.depth, lambda lo, hi: next(sums))
        self._sweep(_WEIGHTS_AND_KL if record_kl else _WEIGHTS, Z, scale)
        kl = sum(self.partials.tolist()) if record_kl else None
        return 4.0 * (self.row_sums[:, None] * self.Y - self.contraction), kl

    def _sweep(self, task: int, Z: float, scale: float) -> None:
        message = _MESSAGE.pack(task, Z, scale)
        for command, _ in self.pipes:
            os.write(command, message)
        try:
            self._share(0, task, Z, scale)
        finally:
            # The workers write into the parent's buffers, so return or
            # raise only once each has replied.
            replies = [os.read(reply, _REPLY_BYTES) for _, reply in self.pipes]
        failures = [r.decode(errors="replace") or "worker exited" for r in replies if r != _DONE]
        if failures:
            raise RuntimeError(f"t-SNE worker failed: {'; '.join(failures)}")

    def _share(self, k: int, task: int, Z: float, scale: float) -> None:
        """Worker k's part of one sweep."""
        if task == _KERNEL:
            self.leaf_sums[k] = _student_t(self.Y, self.kernel, *self.leaves[k], self.scratch[0, :1])
            return
        P, kernel, record_kl = self.P, self.kernel, task == _WEIGHTS_AND_KL
        bounds = self.bounds[record_kl]
        for start in range(bounds[k], bounds[k + 1], BLOCK_ROWS):
            rows = slice(start, min(start + BLOCK_ROWS, bounds[k + 1]))
            target, weights = self.scratch[:, :rows.stop - start]
            if record_kl:
                np.maximum(P[rows], P_FLOOR, out=target)
                np.divide(kernel[rows], Z, out=weights)
                np.maximum(weights, P_FLOOR, out=weights)
                np.divide(target, weights, out=weights)
                np.log(weights, out=weights)
                np.multiply(P[rows], weights, out=weights)
                self.partials[start // BLOCK_ROWS] = weights.sum()
            # x * 1.0 == x, so the unexaggerated steps read P itself.
            target = P[rows] if scale == 1.0 else np.multiply(P[rows], scale, out=target)
            np.divide(kernel[rows], Z, out=weights)
            np.subtract(target, weights, out=weights)
            np.multiply(weights, kernel[rows], out=weights)
            weights.sum(axis=1, out=self.row_sums[rows])
            np.einsum("ij,jk->ik", weights, self.Y, out=self.contraction[rows], optimize=False)

    def _serve(self, k: int, command: int, reply: int) -> None:
        """Worker k's loop in its forked process: one reply per sweep, the
        failure's text if it raised. It leaves when its command pipe closes."""
        try:
            for fd in (fd for pipe in self.pipes for fd in pipe):
                os.close(fd)  # else an earlier worker never sees its pipe close
            while message := os.read(command, _MESSAGE.size):
                try:
                    self._share(k, *_MESSAGE.unpack(message))
                    done = _DONE
                except Exception as exc:
                    done = f"{type(exc).__name__}: {exc}".encode()[:_REPLY_BYTES]
                os.write(reply, done)
        finally:
            os._exit(0)


@contextmanager
def _pooled(P: np.ndarray, Y: np.ndarray, workers: int) -> Iterator[_Pool]:
    """A _Pool for the map Y under affinities P, with the largest power of
    two <= workers of them (fewer on a kernel too small to split, one where
    os.fork is missing), of which all but the calling process are forked
    here. No worker and no pipe outlives the block."""
    pool = _Pool(P, Y, workers if hasattr(os, "fork") else 1)
    pids = []
    try:
        for k in range(1, len(pool.leaves)):
            (command, to_worker), (from_worker, reply) = os.pipe(), os.pipe()
            pool.pipes.append((to_worker, from_worker))
            try:
                pid = os.fork()
                if pid == 0:
                    pool._serve(k, command, reply)
            finally:
                os.close(command)
                os.close(reply)
            pids.append(pid)
        yield pool
    finally:
        for fds in pool.pipes:
            for fd in fds:
                os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)


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
    return kernel / _student_t(Y, kernel), kernel


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
    with _pooled(P, Y, 1) as pool:
        return pool.gradient(1.0)[0]


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
    # Every step reuses the pool's one n x n kernel buffer (a fresh one per
    # step page-faults in every time). The KL of the map a step leaves is
    # summed in the next step's sweep, so one more sweep gives the final KL.
    start = np.asfortranarray(rng.normal(0.0, INIT_SCALE, size=(n, 2)))
    history: list[tuple[int, float]] = []
    workers = _pool_size(len(_blocks(n))) if n >= PARALLEL_MIN_ROWS else 1

    with _pooled(P, start, workers) as pool:
        Y = pool.Y  # updated in place, where the workers read it
        velocity = np.zeros_like(Y)
        for step in range(1, iterations + 1):
            scale = EXAGGERATION if step <= EXAGGERATION_UNTIL else 1.0
            recorded = step > 1 and (step - 1) % RECORD_EVERY == 0
            grad, kl = pool.gradient(scale, recorded)
            if recorded:
                history.append((step - 1, kl))
            velocity *= MOMENTUM_EARLY if step < MOMENTUM_SWITCH else MOMENTUM_LATE
            grad *= learning_rate
            velocity -= grad
            Y += velocity
            Y -= Y.mean(axis=0)
        history.append((iterations, pool.gradient(1.0, True)[1]))

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
