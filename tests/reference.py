"""Reference quantities that only the tests check the library against.

The Gaussian kernel that gaussian_rff maps sample, a PSD check for gram
matrices, and the empirical N_M(lambda) / N_inf(lambda) effective-dimension
ratio of Rudi & Rosasco 2017. GaussianKernel has the gram(X, Y=None) that
specrf.krr_gram_fit and specrf.krr_predict take.
"""
from __future__ import annotations

import math

import numpy as np

from specrf.diagnostics import effective_dimension
from specrf.features import feature_matrix

PSD_TOL = 1e-10  # eigenvalues >= -PSD_TOL * trace accepted as numerical zero
DEFAULT_DELTA = 0.1
EFFDIM_INDETERMINATE = 1e-6


class GaussianKernel:
    """k(x, y) = exp(-||x - y||^2 / (2 sigma^2))."""

    def __init__(self, input_dim: int, bandwidth: float = 1.0):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.input_dim = input_dim
        self.bandwidth = float(bandwidth)

    def gram(self, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
        """K(X, Y) over the rows of X and Y; K(X, X) when Y is None."""
        X = self._check_rows(X)
        Y = X if Y is None else self._check_rows(Y)
        sq = (
            np.sum(X**2, axis=1)[:, None]
            + np.sum(Y**2, axis=1)[None, :]
            - 2.0 * X @ Y.T
        )
        return np.exp(-np.maximum(sq, 0.0) / (2.0 * self.bandwidth**2))

    def _check_rows(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"expected n x {self.input_dim} matrix, got {X.shape}")
        return X


def check_psd(gram: np.ndarray) -> bool:
    eigs = np.linalg.eigvalsh(gram)
    return bool(eigs.min() >= -PSD_TOL * max(np.trace(gram), 1.0))


def effective_dimension_comparison(map_random, kernel_ref, X_probe: np.ndarray, lam: float) -> dict:
    """Empirical N_M(lam) vs N_inf(lam) from probe-set spectra, with the
    monitored ratio threshold 4(1 + 2 log(2/delta)) at delta = DEFAULT_DELTA."""
    X_probe = np.asarray(X_probe, dtype=float)
    n = X_probe.shape[0]
    if n < 500:
        raise ValueError("probe set must have at least 500 points")
    if not 0.0 < lam <= 1.0:
        raise ValueError("lam must lie in (0, 1]")
    Z = feature_matrix(map_random, X_probe)
    eigs_m = np.maximum(np.linalg.eigvalsh(Z.T @ Z / n), 0.0)
    eigs_ref = np.maximum(np.linalg.eigvalsh(kernel_ref.gram(X_probe)) / n, 0.0)
    n_m = effective_dimension(eigs_m, lam)
    n_ref = effective_dimension(eigs_ref, lam)
    threshold = 4.0 * (1.0 + 2.0 * math.log(2.0 / DEFAULT_DELTA))
    indeterminate = n_ref < EFFDIM_INDETERMINATE or n_m < EFFDIM_INDETERMINATE
    ratio = None if indeterminate else n_m / n_ref
    status = "indeterminate" if indeterminate else "flagged" if ratio > threshold else "ok"
    return {"N_M": n_m, "N_inf": n_ref, "ratio": ratio, "threshold": threshold, "status": status}
