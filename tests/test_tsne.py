import hashlib
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from sdgpipe import artifacts, tsne
from sdgpipe.errors import CalibrationFailedError, ShapeMismatchError
from sdgpipe.panel import write_panel_csv
from sdgpipe.pipeline import PipelineConfig, numeric_path, run_stage
from sdgpipe.synthetic import synthetic_panel

from conftest import BLOB_LEARNING_RATE, two_blobs
from sdgpipe.tsne import (
    BLOCK_ROWS,
    MAX_CALIBRATION_STEPS,
    P_FLOOR,
    PERPLEXITY_TOL,
    Embedding,
    calibrate_sigma,
    embed,
    joint_affinities,
    kl_divergence,
    kl_gradient,
    q_matrix,
    run,
)


def plain_row(sq_dists, sigma):
    """Conditional affinities from the textbook formula.

    Shifting by the minimum distance cancels in the quotient but keeps the
    exponentials representable at small sigma.
    """
    d = np.asarray(sq_dists, dtype=float)
    w = np.exp(-(d - d.min()) / (2.0 * sigma**2))
    return w / w.sum()


def plain_perplexity(sq_dists, sigma):
    p = plain_row(sq_dists, sigma)
    nz = p[p > 0]  # 0 * log2(0) -> 0 by convention
    h_bits = -np.sum(nz * np.log2(nz))
    return 2.0**h_bits


class TestCalibrateSigma:
    @given(st.integers(0, 2**32 - 1), st.floats(2.0, 15.0))
    @settings(max_examples=40)
    def test_meets_tolerance_by_independent_recomputation(self, seed, target):
        rng = np.random.default_rng(seed)
        d = rng.uniform(0.1, 20.0, size=20)
        sigma, p = calibrate_sigma(d, target)
        assert sigma > 0
        assert plain_perplexity(d, sigma) == pytest.approx(target, abs=1e-5)
        assert np.allclose(p, plain_row(d, sigma), atol=1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_uniform_distances_hit_uniform_row(self):
        d = np.full(9, 4.0)
        sigma, p = calibrate_sigma(d, 9.0)
        assert sigma > 0
        assert np.allclose(p, 1.0 / 9.0)

    def test_uniform_distances_other_target_fails(self):
        with pytest.raises(CalibrationFailedError):
            calibrate_sigma(np.full(9, 4.0), 5.0)

    def test_target_at_or_above_n_fails(self):
        d = np.random.default_rng(0).uniform(1, 5, size=10)
        with pytest.raises(CalibrationFailedError):
            calibrate_sigma(d, 10.0 + 1e-3)

    def test_no_neighbors_fails(self):
        with pytest.raises(CalibrationFailedError, match="^need at least one finite"):
            calibrate_sigma(np.array([]), 2.0)

    def test_target_below_one_fails(self):
        # perplexity = 2^entropy >= 1 for every bandwidth
        d = np.random.default_rng(1).uniform(1, 5, size=10)
        with pytest.raises(CalibrationFailedError):
            calibrate_sigma(d, 0.9)


class TestJointAffinities:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_invariants(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 20))
        X = rng.normal(size=(n, 3))
        aff = joint_affinities(X, perplexity=min(5.0, n - 2))
        P = aff.P
        assert P.shape == (n, n)
        assert np.array_equal(P, P.T)
        assert np.all(np.diag(P) == 0.0)
        off = ~np.eye(n, dtype=bool)
        assert np.all(P[off] >= P_FLOOR)
        assert abs(P.sum() - 1.0) <= 1e-9
        assert np.all(aff.sigmas > 0)

    def test_matches_direct_construction(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(6, 2))
        aff = joint_affinities(X, perplexity=3.0)
        n = X.shape[0]
        cond = np.zeros((n, n))
        for i in range(n):
            d = np.array([np.sum((X[i] - X[j]) ** 2) for j in range(n) if j != i])
            row = plain_row(d, aff.sigmas[i])
            cond[i, [j for j in range(n) if j != i]] = row
        expected = (cond + cond.T) / (2 * n)
        off = ~np.eye(n, dtype=bool)
        # the floor only lifts entries below 1e-12; here all are far above it
        assert np.allclose(aff.P[off], expected[off] / expected.sum(), atol=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            joint_affinities(np.zeros((3, 2)), 2.0)


def reference_row(sq_dists, beta):
    """One row of the per-point search at precision beta: (p, perplexity)."""
    shifted = sq_dists - sq_dists.min()
    weights = np.exp(-shifted * beta)
    total = weights.sum()
    p = weights / total
    return p, math.exp(math.log(total) + beta * float(np.dot(p, shifted)))


def reference_sigma(sq_dists, perplexity):
    """The per-point bandwidth search that block calibration must reproduce."""
    n_others = sq_dists.size
    if n_others < 1 or not np.all(np.isfinite(sq_dists)):
        raise CalibrationFailedError("need at least one finite neighbor distance")
    if sq_dists.max() == sq_dists.min():
        if abs(n_others - perplexity) <= PERPLEXITY_TOL:
            return 1.0, np.full(n_others, 1.0 / n_others)
        raise CalibrationFailedError(
            f"all neighbors equidistant; perplexity fixed at {n_others}, "
            f"target {perplexity} unreachable"
        )
    if perplexity > n_others + PERPLEXITY_TOL:
        raise CalibrationFailedError(f"perplexity {perplexity} exceeds n - 1 = {n_others}")
    beta, lo, hi = 1.0, 0.0, math.inf
    for _ in range(MAX_CALIBRATION_STEPS):
        p, perp = reference_row(sq_dists, beta)
        if abs(perp - perplexity) <= PERPLEXITY_TOL:
            return math.sqrt(0.5 / beta), p
        if perp > perplexity:
            lo = beta
            beta = beta * 2.0 if hi == math.inf else 0.5 * (beta + hi)
        else:
            hi = beta
            beta = 0.5 * (beta + lo)
    raise CalibrationFailedError(
        f"no bandwidth reached perplexity {perplexity} within "
        f"{MAX_CALIBRATION_STEPS} bisection steps (tol {PERPLEXITY_TOL})"
    )


def reference_affinities(X, perplexity):
    """(P, sigmas) from one search per point, in point order."""
    n = X.shape[0]
    conditional = np.zeros((n, n))
    sigmas = np.empty(n)
    for i in range(n):
        mask = np.arange(n) != i
        try:
            sigmas[i], conditional[i, mask] = reference_sigma(
                cdist(X[i:i + 1], X, metric="sqeuclidean")[0, mask], perplexity)
        except CalibrationFailedError as exc:
            raise CalibrationFailedError(f"point {i}: {exc}") from None
    P = (conditional + conditional.T) / (2.0 * n)
    np.maximum(P, P_FLOOR, out=P)
    np.fill_diagonal(P, 0.0)
    P /= P.sum()
    np.maximum(P, P_FLOOR, out=P)
    np.fill_diagonal(P, 0.0)
    return P, sigmas


def assert_calibrates_as_reference(X, perplexity):
    try:
        P, sigmas = reference_affinities(X, perplexity)
    except CalibrationFailedError as exc:
        with pytest.raises(CalibrationFailedError) as got:
            joint_affinities(X, perplexity)
        assert str(got.value) == str(exc)
        return
    aff = joint_affinities(X, perplexity)
    assert aff.P.tobytes() == P.tobytes()
    assert aff.sigmas.tobytes() == sigmas.tobytes()


# up to a little over two blocks, so rows of the second and third block are
# checked against their own searches
points = st.integers(4, 2 * BLOCK_ROWS + 12)


class TestBlockCalibration:
    """Each block row bisects as a lone point would, to the bit."""

    @given(st.integers(0, 2**32 - 1), points, st.integers(1, 12), st.floats(1.5, 60.0))
    @settings(max_examples=30)
    def test_mixed_scales(self, seed, n, dim, perplexity):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
        X *= 10.0 ** rng.uniform(-2, 2, size=dim)
        assert_calibrates_as_reference(X, perplexity)

    @given(st.integers(0, 2**32 - 1), points, st.integers(1, 8), st.floats(1.5, 30.0))
    @settings(max_examples=30)
    def test_duplicate_points(self, seed, n, distinct, perplexity):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(distinct, 3))[rng.integers(0, distinct, size=n)]
        assert_calibrates_as_reference(X, perplexity)

    @given(points, st.floats(0.01, 100.0))
    @settings(max_examples=20)
    def test_equidistant_points_at_perplexity_n_minus_one(self, n, side):
        X = side * np.eye(n)  # a regular simplex: every pair at 2 side^2
        assert_calibrates_as_reference(X, n - 1.0)
        aff = joint_affinities(X, n - 1.0)
        assert np.all(aff.sigmas == 1.0)

    @given(points, st.data())
    @settings(max_examples=20)
    def test_equidistant_row_among_others_fails_at_its_index(self, n, data):
        # the simplex's centre is equidistant from its vertices; scaling by
        # n keeps every squared distance an exact integer
        where = data.draw(st.integers(0, n))
        X = np.insert(n * np.eye(n), where, np.ones(n), axis=0)
        perplexity = data.draw(st.floats(1.5, n - 0.5))
        with pytest.raises(CalibrationFailedError, match=rf"^point {where}: all neighbors"):
            joint_affinities(X, perplexity)
        assert_calibrates_as_reference(X, perplexity)

    @pytest.mark.parametrize("bad", [0, BLOCK_ROWS + 5])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_point(self, bad, value):
        X = np.random.default_rng(bad).normal(size=(2 * BLOCK_ROWS, 3))
        X[bad, 1] = value
        with pytest.raises(CalibrationFailedError, match="^point 0: need at least one finite"):
            joint_affinities(X, 10.0)
        assert_calibrates_as_reference(X, 10.0)

    # perplexity lies in (1, n - 1] for every bandwidth: a target below is
    # bisected in vain, one above fails before any bisection
    @pytest.mark.parametrize(("n", "perplexity", "message"), [
        (BLOCK_ROWS + 9, 0.9, "no bandwidth reached perplexity 0.9 within"),
        (12, 20.0, "perplexity 20.0 exceeds n - 1 = 11"),
    ], ids=["73-0.9", "12-20.0"])
    def test_unreachable_target(self, n, perplexity, message):
        X = np.random.default_rng(5).normal(size=(n, 2))
        with pytest.raises(CalibrationFailedError, match=f"^point 0: {re.escape(message)}"):
            joint_affinities(X, perplexity)
        assert_calibrates_as_reference(X, perplexity)


class TestBatchedDot:
    def test_equals_each_rows_dot(self):
        # _calibrate takes a block's expected distances from one matmul, and
        # reference_row takes each from np.dot: they must agree to the bit at
        # every block height and width a run meets
        rng = np.random.default_rng(0)
        for _ in range(300):
            rows, width = int(rng.integers(1, BLOCK_ROWS + 1)), int(rng.integers(1, 2500))
            p = rng.random((rows, width))
            p /= p.sum(axis=1, keepdims=True)
            shifted = rng.random((rows, width)) * 10.0 ** rng.uniform(-3, 3)
            batched = np.matmul(p[:, None, :], shifted[:, :, None])[:, 0, 0]
            per_row = np.array([np.dot(p_r, s_r) for p_r, s_r in zip(p, shifted)])
            assert batched.tobytes() == per_row.tobytes()


class TestQMatrix:
    def test_unit_square_hand_values(self):
        # corners of the unit square: 8 ordered side pairs at squared distance
        # 1 (kernel 1/2) and 4 diagonal pairs at 2 (kernel 1/3)
        Y = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        Q, kernel = q_matrix(Y)
        total = 8 * 0.5 + 4 * (1 / 3)
        assert kernel[0, 1] == pytest.approx(0.5)
        assert kernel[0, 2] == pytest.approx(1 / 3)
        assert Q[0, 1] == pytest.approx(0.5 / total)
        assert Q[0, 2] == pytest.approx((1 / 3) / total)
        assert Q.sum() == pytest.approx(1.0)
        assert np.all(np.diag(Q) == 0.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_symmetric_normalized(self, seed):
        rng = np.random.default_rng(seed)
        Y = rng.normal(size=(int(rng.integers(2, 15)), 2))
        Q, _ = q_matrix(Y)
        assert np.array_equal(Q, Q.T)
        assert Q.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(Q >= 0)


class TestKlDivergence:
    def test_zero_when_equal(self):
        Y = np.random.default_rng(0).normal(size=(5, 2))
        Q, _ = q_matrix(Y)
        assert kl_divergence(Q, Q) == 0.0

    def test_three_point_hand_sum(self):
        P = np.array([
            [0.0, 0.2, 0.1],
            [0.2, 0.0, 0.15],
            [0.1, 0.15, 0.0],
        ])
        P = P / P.sum()
        Y = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        Q, _ = q_matrix(Y)
        expected = 0.0
        for i in range(3):
            for j in range(3):
                if i != j:
                    expected += P[i, j] * math.log(P[i, j] / Q[i, j])
        assert kl_divergence(P, Q) == pytest.approx(expected, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        Y1 = rng.normal(size=(8, 2))
        Y2 = rng.normal(size=(8, 2))
        P, _ = q_matrix(Y1)
        Q, _ = q_matrix(Y2)
        assert kl_divergence(P, Q) >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            kl_divergence(np.zeros((3, 3)), np.zeros((4, 4)))


def fd_gradient(P, Y, h=1e-6):
    grad = np.zeros_like(Y)
    for i in range(Y.shape[0]):
        for d in range(Y.shape[1]):
            up = Y.copy()
            up[i, d] += h
            down = Y.copy()
            down[i, d] -= h
            c_up = kl_divergence(P, q_matrix(up)[0])
            c_down = kl_divergence(P, q_matrix(down)[0])
            grad[i, d] = (c_up - c_down) / (2 * h)
    return grad


class TestGradient:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15)
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(10, 4))
        P = joint_affinities(X, perplexity=4.0).P
        Y = rng.normal(size=(10, 2))
        analytic = kl_gradient(P, Y)
        numeric = fd_gradient(P, Y)
        rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        assert rel < 1e-4

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            kl_gradient(np.zeros((3, 3)), np.zeros((4, 2)))


def dense_gradient(P, Y):
    """The gradient as whole-matrix passes: the oracle of the blocked sweep."""
    kernel = cdist(Y, Y, metric="sqeuclidean")
    kernel += 1.0
    np.reciprocal(kernel, out=kernel)
    np.fill_diagonal(kernel, 0.0)
    w = (P - kernel / kernel.sum(axis=1).sum()) * kernel
    return 4.0 * (w.sum(axis=1)[:, None] * Y - np.einsum("ij,jk->ik", w, Y, optimize=False))


def random_affinities(rng, n):
    P = rng.random((n, n))
    P += P.T
    np.fill_diagonal(P, 0.0)
    return P / P.sum()


def child_failing(function):
    """function, but raising when called in a forked worker."""
    parent = os.getpid()

    def wrapper(*args):
        if os.getpid() != parent:
            raise RuntimeError("block failed")
        return function(*args)

    return wrapper


class TestBlockedSweep:
    @pytest.mark.parametrize("n", [4, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                   2 * BLOCK_ROWS - 1, 2 * BLOCK_ROWS, 2 * BLOCK_ROWS + 1,
                                   4 * BLOCK_ROWS + 3])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_bitwise_equal_to_dense_gradient(self, n, dim):
        rng = np.random.default_rng(n * 10 + dim)
        P = random_affinities(rng, n)
        for Y in (rng.normal(size=(n, dim)), np.asfortranarray(rng.normal(size=(n, dim)))):
            Q = q_matrix(Y)[0]
            dense_kl = kl_divergence(P, Q)
            # 1.0 * P == P; 12 is the default early exaggeration
            for scale in (1.0, 12.0):
                expected = dense_gradient(scale * P, Y)
                assert np.array_equal(kl_gradient(scale * P, Y), expected)
                kls = []
                for workers in (1, 2, 3, 4, 5):
                    with tsne._pooled(P, Y, workers) as pool:
                        grad, no_kl = pool.gradient(scale)
                        recorded, kl = pool.gradient(scale, record_kl=True)
                    assert np.array_equal(grad, expected)
                    assert np.array_equal(pool.kernel / pool.kernel.sum(axis=1).sum(), Q)
                    # summing the KL terms first leaves the step as it was
                    assert no_kl is None
                    assert np.array_equal(recorded, grad)
                    kls.append(kl)
                # the KL of the unexaggerated P, the same bits on every pool
                assert kls == [kls[0]] * 5
                assert abs(kls[0] - dense_kl) <= 1e-12 * abs(dense_kl)

    @pytest.mark.parametrize("workers", [3, 4])
    def test_repeated_gradients(self, workers):
        n = 2 * BLOCK_ROWS + 3
        rng = np.random.default_rng(11)
        P = random_affinities(rng, n)
        Y = rng.normal(size=(n, 2))
        expected = dense_gradient(P, Y)
        with tsne._pooled(P, Y, workers) as pool:
            assert len(pool.pipes) == workers - 1
            for _ in range(20):
                assert np.array_equal(pool.gradient(1.0)[0], expected)

    def test_worker_exception_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(tsne, "_student_t", child_failing(tsne._student_t))
        n = 3 * BLOCK_ROWS
        rng = np.random.default_rng(12)
        with tsne._pooled(random_affinities(rng, n), rng.normal(size=(n, 2)), 2) as pool:
            with pytest.raises(RuntimeError, match="block failed"):
                pool.gradient(1.0)


def blob_separated(Y, n_per):
    intra = max(
        np.linalg.norm(Y[i] - Y[j])
        for block in (range(n_per), range(n_per, 2 * n_per))
        for i in block
        for j in block
    )
    inter = min(
        np.linalg.norm(Y[i] - Y[j])
        for i in range(n_per)
        for j in range(n_per, 2 * n_per)
    )
    return intra < inter


class TestRun:
    def test_history_and_kl_decrease(self):
        X = two_blobs(0)
        emb = run(X, perplexity=10.0, iterations=600, seed=0,
                  learning_rate=BLOB_LEARNING_RATE)
        steps = [s for s, _ in emb.kl_history]
        assert steps == list(range(50, 650, 50))
        # KL against the plain P only settles after exaggeration lifts
        assert emb.final_kl < dict(emb.kl_history)[50]
        assert emb.Y.shape == (40, 2)
        assert isinstance(emb, Embedding)

    def test_blobs_separate(self):
        X = two_blobs(1)
        emb = run(X, perplexity=10.0, seed=1, learning_rate=BLOB_LEARNING_RATE)
        assert blob_separated(emb.Y, 20)

    def test_seed_reproducibility(self):
        X = two_blobs(2)
        a = run(X, perplexity=10.0, iterations=120, seed=9, learning_rate=20.0)
        b = run(X, perplexity=10.0, iterations=120, seed=9, learning_rate=20.0)
        assert np.array_equal(a.Y, b.Y)
        assert a.kl_history == b.kl_history
        c = run(X, perplexity=10.0, iterations=120, seed=10, learning_rate=20.0)
        assert not np.array_equal(a.Y, c.Y)

    def test_recorded_kl_is_kl_of_that_step(self):
        X = two_blobs(5)
        P = joint_affinities(X, perplexity=10.0).P
        emb = run(X, perplexity=10.0, iterations=120, seed=3, learning_rate=20.0)
        assert [s for s, _ in emb.kl_history] == [50, 100, 120]
        for step, kl in emb.kl_history:
            at_step = run(X, perplexity=10.0, iterations=step, seed=3, learning_rate=20.0)
            assert kl == kl_divergence(P, q_matrix(at_step.Y)[0])

    def test_blocked_kl_history_matches_dense_kl(self):
        # More rows than two tiles, so the KL's row sums are written by
        # tiles on more than one worker.
        X = two_blobs(9, n_per=BLOCK_ROWS + 1)
        aff = joint_affinities(X, perplexity=30.0)
        emb = embed(aff, iterations=60, seed=6)
        assert [s for s, _ in emb.kl_history] == [50, 60]
        for step, kl in emb.kl_history:
            at_step = embed(aff, iterations=step, seed=6)
            dense = kl_divergence(aff.P, q_matrix(at_step.Y)[0])
            assert abs(kl - dense) <= 1e-12 * abs(dense)

    def test_first_step_is_kl_gradient(self):
        X = two_blobs(6)
        P = joint_affinities(X, perplexity=10.0).P
        Y0 = np.random.default_rng(4).normal(0.0, tsne.INIT_SCALE, size=(40, 2))
        expected = Y0 - 20.0 * kl_gradient(tsne.EXAGGERATION * P, Y0)
        expected -= expected.mean(axis=0)
        Y1 = run(X, perplexity=10.0, iterations=1, seed=4, learning_rate=20.0).Y
        assert np.linalg.norm(Y1 - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_embed_of_calibrated_affinities_is_run(self):
        X = two_blobs(7)
        a = run(X, perplexity=10.0, iterations=80, seed=5, learning_rate=20.0)
        b = embed(joint_affinities(X, 10.0), iterations=80, seed=5, learning_rate=20.0)
        assert a.Y.tobytes() == b.Y.tobytes()
        assert a.kl_history == b.kl_history

    def test_pool_size_does_not_change_the_map(self, monkeypatch):
        # one worker per usable CPU, at most one per tile
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert tsne._pool_size(BLOCK_ROWS) == 1
        assert tsne._pool_size(BLOCK_ROWS + 1) == min(2, cpus)
        X = two_blobs(8, n_per=BLOCK_ROWS + 1)
        results = []
        for workers in (1, 2, 3, 4, 5):
            requested = []

            def pool_size(n, workers=workers):
                requested.append(n)
                return workers

            monkeypatch.setattr(tsne, "_pool_size", pool_size)
            emb = run(X, perplexity=30.0, iterations=60, seed=2)
            assert requested == [X.shape[0]]  # the pool is used
            results.append((emb.Y.tobytes(), emb.kl_history))
        assert [s for s, _ in results[0][1]] == [50, 60]
        assert results[1:] == [results[0]] * 4

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_no_worker_or_pipe_outlives_embed(self, monkeypatch):
        X = two_blobs(13, n_per=BLOCK_ROWS + 1)
        aff = joint_affinities(X, perplexity=30.0)
        monkeypatch.setattr(tsne, "_pool_size", lambda n: 4)
        fds = len(os.listdir("/proc/self/fd"))
        embed(aff, iterations=3, seed=0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(os.listdir("/proc/self/fd")) == fds
        monkeypatch.setattr(tsne, "_student_t", child_failing(tsne._student_t))
        with pytest.raises(RuntimeError, match="block failed"):
            embed(aff, iterations=3, seed=0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(os.listdir("/proc/self/fd")) == fds

    @pytest.mark.parametrize("kw", [dict(iterations=0), dict(learning_rate=-1.0),
                                    dict(learning_rate=math.nan), dict(learning_rate=math.inf)])
    def test_rejects_bad_schedule(self, kw, monkeypatch):
        monkeypatch.setattr(tsne, "joint_affinities", None)  # rejected before calibrating
        with pytest.raises(ValueError):
            run(two_blobs(4), perplexity=10.0, **kw)


def traced_peak(call):
    """Peak bytes that tracemalloc sees allocated while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """P and the kernel are the only n x n arrays; the rest is row scratch."""

    X = two_blobs(10, n_per=300)

    def test_embed_holds_one_n_by_n_array_beyond_p(self, monkeypatch):
        n = self.X.shape[0]
        aff = joint_affinities(self.X, perplexity=30.0)
        shared = []

        def counted(shape, order="C", allocate=tsne._shared):
            shared.append(math.prod(shape) * 8)
            return allocate(shape, order)

        monkeypatch.setattr(tsne, "_shared", counted)
        # 30 iterations record only the final KL
        private = traced_peak(lambda: embed(aff, iterations=30, seed=0))
        # tracemalloc does not see the shared kernel: one n x n buffer plus
        # the map, its contraction, and the kernel's and the KL's row sums
        assert n * n * 8 <= sum(shared) <= (n * n + 6 * n + 8) * 8
        assert private < 1.0 * n * n * 8

    def test_calibration_holds_one_n_by_n_array(self):
        n = self.X.shape[0]
        assert traced_peak(lambda: joint_affinities(self.X, perplexity=30.0)) < 1.5 * n * n * 8


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Recorded with numpy 2.4.6 on an x86-64 CPU with AVX-512. P and the sigmas
# are those of the per-point calibration; the embedding and the KL history
# are those of Z and the KL taken as one numpy sum over per-row sums.
RECORDED_NUMERIC_PATH = "cde99b915c52aaf02b45123d87f3a8915a8f276e89634877c1f6be8295a409b1"
PINNED_DIGESTS = {
    "fixture P": "ceb6480acef50c37418ec3512c824fee04d104000048e9c7df2120c5af5b0794",
    "fixture sigmas": "a96043b3ee7e2690ca92cb409b72bc2e71a4c30511ebd0a17eebc138c5c2f95d",
    "study P": "c8b38e0becd419aa4a3a7fe297af5fa835b28661841c714219b4b19dda21db7b",
    "study sigmas": "a4a72a46f0b637d6ac1e004a8590a064f88e353e8fe0a0446e16c0b8d6c454ea",
    artifacts.EMBEDDING: "020e42de36921a58d79a00ed010b7f6360a101a8a3467838f05fd8f147172e93",
    artifacts.KL_HISTORY: "27a0fa415fd656d49758af399fe8d9576d937e71c21bcd25cd84ef9e3b0280ca",
}


@pytest.fixture(scope="module")
def study_projection(tmp_path_factory):
    """PCA coordinates of the 690-row study panel."""
    base = tmp_path_factory.mktemp("study_projection")
    write_panel_csv(synthetic_panel(30, n_groups=6, seed=3), base / "panel.csv")
    config = PipelineConfig(panel=base / "panel.csv", out=base / "out")
    config.out.mkdir()
    for stage in ("ingest", "pca"):
        run_stage(stage, config)
    return artifacts.read_matrix(config.out / artifacts.PCA_PROJECTION, 2)[1]


class TestPinnedBytes:
    """The t-SNE layer's own output bytes, which no artifact digest covers."""

    @pytest.fixture(autouse=True)
    def recorded_numeric_path(self):
        if numeric_path() != RECORDED_NUMERIC_PATH:
            pytest.skip("numpy's exp and log round differently here than where the "
                        "digests were recorded (ROADMAP item 3)")

    def test_fixture_affinities(self, pipeline_run):
        _, X = artifacts.read_matrix(pipeline_run.out / artifacts.PCA_PROJECTION, 2)
        assert X.shape == (276, 10)
        aff = joint_affinities(X, pipeline_run.perplexity)
        assert sha256(aff.P.tobytes()) == PINNED_DIGESTS["fixture P"]
        assert sha256(aff.sigmas.tobytes()) == PINNED_DIGESTS["fixture sigmas"]

    def test_study_affinities(self, study_projection):
        assert study_projection.shape == (690, 10)
        aff = joint_affinities(study_projection, 50.0)
        assert sha256(aff.P.tobytes()) == PINNED_DIGESTS["study P"]
        assert sha256(aff.sigmas.tobytes()) == PINNED_DIGESTS["study sigmas"]

    @pytest.mark.parametrize("name", [artifacts.EMBEDDING, artifacts.KL_HISTORY])
    def test_demo_run(self, pipeline_run, name):
        assert sha256((pipeline_run.out / name).read_bytes()) == PINNED_DIGESTS[name]
