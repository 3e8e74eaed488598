"""Exact reference kernels and gram-based ridge regression.

These are the ground-truth computations the random-feature pipeline is
checked against: closed-form kernel values, dense gram matrices, and the
dual-form ridge solve alpha = (K + lambda*n*I)^{-1} y.
"""
from __future__ import annotations

import numpy as np

from .features import DESIGNER_FINITE_RANK, FeatureMap, MemoryBudgetError, feature_matrix
from .features import sample_feature_map

GRAM_N_CAP = 5000
PSD_TOL = 1e-10  # eigenvalues >= -PSD_TOL * trace accepted as numerical zero


class ExactKernel:
    """Symmetric positive semidefinite kernel with exact (or reference) values."""

    input_dim: int

    def gram(self, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
        """K(X, Y) over the rows of X and Y; K(X, X) when Y is None."""
        X = self._check_rows(X)
        return self._pairwise(X, X if Y is None else self._check_rows(Y))

    def _pairwise(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_rows(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"expected n x {self.input_dim} matrix, got {X.shape}")
        if X.shape[0] > GRAM_N_CAP:
            raise MemoryBudgetError(f"gram capped at n <= {GRAM_N_CAP}, got n = {X.shape[0]}")
        return X


class GaussianKernel(ExactKernel):
    """k(x, y) = exp(-||x - y||^2 / (2 sigma^2))."""

    def __init__(self, input_dim: int, bandwidth: float = 1.0):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.input_dim = input_dim
        self.bandwidth = float(bandwidth)

    def _pairwise(self, X, Y):
        sq = (
            np.sum(X**2, axis=1)[:, None]
            + np.sum(Y**2, axis=1)[None, :]
            - 2.0 * X @ Y.T
        )
        return np.exp(-np.maximum(sq, 0.0) / (2.0 * self.bandwidth**2))


class MonteCarloKernel(ExactKernel):
    """The kernel K_M = <z(x), z(y)> of a feature map; with a high sample
    count it serves as a sampled reference kernel."""

    def __init__(self, feature_map: FeatureMap):
        self.input_dim = feature_map.input_dim
        self.feature_map = feature_map

    def _pairwise(self, X, Y):
        # Y is X when gram was given no Y, so X is embedded once
        ZX = feature_matrix(self.feature_map, X)
        return ZX @ (ZX if Y is X else feature_matrix(self.feature_map, Y)).T


class DesignerKernel(MonteCarloKernel):
    """Finite-rank kernel sum_j mu_j e_j(x) e_j(y) on X = [0,1]: the Gram of the
    designer map with these eigenvalues, exact because the map has finite rank.
    The eigenvalues follow the map's rule: finite, positive, non-increasing."""

    def __init__(self, eigenvalues: np.ndarray):
        params = {"eigenvalues": eigenvalues}
        super().__init__(sample_feature_map(DESIGNER_FINITE_RANK, 1, np.size(eigenvalues), params, 0))


def check_psd(gram: np.ndarray) -> bool:
    eigs = np.linalg.eigvalsh(gram)
    return bool(eigs.min() >= -PSD_TOL * max(np.trace(gram), 1.0))


def krr_gram_fit(
    kernel: ExactKernel, X: np.ndarray, y: np.ndarray, lam: float
) -> np.ndarray:
    """Dual ridge coefficients alpha = (K + lambda*n*I)^{-1} y."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    n = X.shape[0]
    if y.size != n:
        raise ValueError("X and y length mismatch")
    return np.linalg.solve(kernel.gram(X) + lam * n * np.eye(n), y)


def krr_predict(
    kernel: ExactKernel, X_train: np.ndarray, alpha: np.ndarray, X_test: np.ndarray
) -> np.ndarray:
    """Evaluate x -> sum_i alpha_i k(x_i, x)."""
    return kernel.gram(np.asarray(X_test, dtype=float), np.asarray(X_train, dtype=float)) @ alpha
