import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgpipe.errors import RankDeficientError, ShapeMismatchError
from sdgpipe.pca import fit, loadings, project, reconstruct


def oracle_eig(X):
    """Covariance spectrum via an explicit-loop covariance, eigh-decomposed."""
    X = np.asarray(X, dtype=float)
    n, m = X.shape
    mu = X.mean(axis=0)
    cov = np.zeros((m, m))
    for row in X:
        d = row - mu
        for i in range(m):
            for j in range(m):
                cov[i, j] += d[i] * d[j]
    cov /= n - 1
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1]
    return w[order], v[:, order], mu


class TestFitHandCases:
    def test_axis_aligned_spectrum(self):
        X = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        model = fit(X, 2)
        assert model.explained_variance == pytest.approx([8 / 3, 2 / 3])
        assert model.explained_variance_ratio == pytest.approx([0.8, 0.2])
        assert np.allclose(np.abs(model.components), np.eye(2))
        # sign convention makes the dominant entry positive
        assert model.components[0, 0] > 0
        assert model.components[1, 1] > 0
        coords = project(model, X)
        assert np.allclose(coords, X)

    def test_degenerate_pair_ordered_by_anchor(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        model = fit(X, 2)
        # equal eigenvalues: the component anchored on feature 0 comes first
        assert int(np.argmax(np.abs(model.components[0]))) == 0
        assert int(np.argmax(np.abs(model.components[1]))) == 1

    def test_degenerate_blocks_ordered_by_anchor(self):
        # +-3 on three features, +-2 on two and +-1 on one, the features
        # shuffled: a 3-wide degenerate block, a 2-wide one, then a single
        shuffled = [4, 0, 5, 2, 1, 3]
        scale = np.empty(6)
        scale[shuffled] = [3.0, 3.0, 3.0, 2.0, 2.0, 1.0]
        X = np.vstack([np.diag(scale), -np.diag(scale)])
        model = fit(X, 6)
        anchors = np.abs(model.components).argmax(axis=1)
        # blocks in descending eigenvalue order, anchors ascending inside each
        assert anchors.tolist() == [0, 4, 5, 1, 2, 3]
        assert np.all(model.components[np.arange(6), anchors] > 0)
        assert np.allclose(model.explained_variance, 2 * scale[anchors] ** 2 / 11)

    def test_projection_matches_oracle(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 6)) @ np.diag([5, 3, 2, 1, 0.5, 0.2])
        w, v, mu = oracle_eig(X)
        model = fit(X, 4)
        assert np.allclose(model.explained_variance, w[:4], rtol=1e-10)
        oracle_coords = (X - mu) @ v[:, :4]
        coords = project(model, X)
        # align oracle column signs to the fitted convention
        for j in range(4):
            anchor = np.argmax(np.abs(v[:, j]))
            if v[anchor, j] < 0:
                oracle_coords[:, j] *= -1
        assert np.allclose(coords, oracle_coords, atol=1e-8)


class TestFitProperties:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(10, 40))
    @settings(max_examples=30)
    def test_orthonormal_descending_ratios(self, seed, m, n):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, m)) * rng.uniform(0.5, 4.0, size=m)
        k = min(m, 3)
        model = fit(X, k)
        gram = model.components @ model.components.T
        assert np.allclose(gram, np.eye(k), atol=1e-10)
        ev = model.explained_variance
        assert all(ev[i] >= ev[i + 1] - 1e-12 for i in range(k - 1))
        assert (model.explained_variance_ratio >= 0).all()
        assert model.explained_variance_ratio.sum() <= 1.0 + 1e-12
        total = np.var(X, axis=0, ddof=1).sum()
        assert model.explained_variance_ratio == pytest.approx(ev / total)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_full_rank_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(12, 4))
        model = fit(X, 4)
        back = reconstruct(model, project(model, X))
        assert np.allclose(back, X, atol=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_sign_convention(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(25, 5))
        model = fit(X, 5)
        for component in model.components:
            assert component[np.argmax(np.abs(component))] > 0


class TestFitErrors:
    def test_rank_deficient(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(20, 2))
        X = np.hstack([base, base[:, :1] + base[:, 1:]])  # rank 2 in 3 columns
        with pytest.raises(RankDeficientError):
            fit(X, 3)

    def test_k_bounds(self):
        X = np.random.default_rng(1).normal(size=(10, 4))
        with pytest.raises(ShapeMismatchError):
            fit(X, 0)
        with pytest.raises(ShapeMismatchError):
            fit(X, 5)

    def test_too_few_observations(self):
        X = np.random.default_rng(2).normal(size=(3, 4))
        with pytest.raises(RankDeficientError):
            fit(X, 3)

    def test_project_feature_mismatch(self):
        X = np.random.default_rng(3).normal(size=(10, 4))
        model = fit(X, 2)
        with pytest.raises(ShapeMismatchError):
            project(model, np.zeros((5, 3)))


class TestLoadings:
    def test_scaled_by_sqrt_eigenvalue(self):
        X = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        model = fit(X, 2)
        vectors = loadings(model)
        assert vectors.shape == (2, 2)
        assert vectors[0, 0] == pytest.approx(np.sqrt(8 / 3))
        assert vectors[1, 1] == pytest.approx(np.sqrt(2 / 3))
        assert vectors[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_needs_two_components(self):
        X = np.random.default_rng(4).normal(size=(10, 3))
        model = fit(X, 1)
        with pytest.raises(ShapeMismatchError):
            loadings(model)
