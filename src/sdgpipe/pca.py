"""Principal component analysis via eigendecomposition of the covariance.

Components come back in descending eigenvalue order with a deterministic
sign: the entry of largest magnitude in each component is positive. Ties in
eigenvalue (gap below 1e-12) are broken by the feature index of that largest
entry, so reordering-degenerate inputs still produce one canonical model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sdgpipe.errors import RankDeficientError, ShapeMismatchError

# Eigenvalue gaps below this are treated as degenerate for ordering.
_DEGENERACY_GAP = 1e-12


@dataclass(frozen=True)
class PcaModel:
    """Fitted basis: components is (k, n_features) with orthonormal rows."""

    components: np.ndarray
    explained_variance: np.ndarray
    explained_variance_ratio: np.ndarray
    center: np.ndarray

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    @property
    def n_features(self) -> int:
        return self.components.shape[1]


def fit(X: np.ndarray, k: int) -> PcaModel:
    """Fit a k-component model to rows of X.

    Covariance uses the n-1 denominator. Requires 1 <= k <= n_features and
    more observations than components; raises RankDeficientError when the
    covariance has fewer than k numerically nonzero eigenvalues.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-d array, got shape {X.shape}")
    n, m = X.shape
    if not 1 <= k <= m:
        raise ShapeMismatchError(f"k={k} not in [1, {m}]")
    if n <= k:
        raise RankDeficientError(f"{n} observations cannot support {k} components")
    center = X.mean(axis=0)
    centered = X - center
    # einsum instead of GEMM keeps the contraction single threaded, which the
    # byte-identical artifact guarantee depends on.
    cov = np.einsum("ni,nj->ij", centered, centered, optimize=False) / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    eigvecs = eigvecs[:, order].T  # rows are components now

    total = float(eigvals.sum())
    rank = int(np.count_nonzero(eigvals > eigvals[0] * 1e-12)) if eigvals[0] > 0 else 0
    if rank < k:
        raise RankDeficientError(f"covariance rank {rank} < requested k={k}")

    # Canonical sign first, then a stable re-order inside each degenerate
    # block by the feature index of each component's largest-magnitude
    # entry. block[i] is the first component of the block holding i; the
    # eigenvalues inside a block agree to 1e-12 and are kept as they are.
    anchors = np.abs(eigvecs).argmax(axis=1)
    signed = eigvecs * np.where(eigvecs[np.arange(m), anchors] < 0, -1.0, 1.0)[:, None]
    block = np.zeros(m, dtype=int)
    for i in range(1, m):
        gap = eigvals[block[i - 1]] - eigvals[i]
        block[i] = i if gap >= _DEGENERACY_GAP else block[i - 1]
    components = signed[np.lexsort((anchors, block))]

    ratios = eigvals / total if total > 0 else np.zeros_like(eigvals)
    return PcaModel(
        components=components[:k].copy(),
        explained_variance=eigvals[:k].copy(),
        explained_variance_ratio=ratios[:k].copy(),
        center=center,
    )


def project(model: PcaModel, X: np.ndarray) -> np.ndarray:
    """Coordinates of rows of X in the fitted basis, shape (n, k)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.n_features:
        raise ShapeMismatchError(
            f"X has {X.shape[1]} features, model expects {model.n_features}"
        )
    centered = X - model.center
    return np.einsum("ni,ki->nk", centered, model.components, optimize=False)


def reconstruct(model: PcaModel, coords: np.ndarray) -> np.ndarray:
    """Map k-dimensional coordinates back into the original feature space."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if coords.shape[1] != model.n_components:
        raise ShapeMismatchError(
            f"coords have {coords.shape[1]} columns, model has {model.n_components}"
        )
    return np.einsum("nk,ki->ni", coords, model.components, optimize=False) + model.center


def loadings(model: PcaModel) -> np.ndarray:
    """Biplot vectors: component g entries scaled by sqrt(eigenvalue), (m, 2)."""
    if model.n_components < 2:
        raise ShapeMismatchError("loadings need at least two fitted components")
    scale = np.sqrt(model.explained_variance[:2])
    return (model.components[:2] * scale[:, None]).T
