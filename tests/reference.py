"""Reference quantities that only the tests check the library against.

The Gaussian kernel that gaussian_rff maps sample, their embedding through
np.cos that feature_matrix's half-angle tangent replaced, the designer map's
cosine basis through np.cos that the angle-addition tables of the designer
moments and series are checked against, the kernel <z(x), z(y)> of a feature
map, a PSD check for gram matrices, the empirical N_M(lambda) / N_inf(lambda)
effective-dimension ratio of Rudi & Rosasco 2017, the record-by-record CSV parser that
ingest_csv_dataset must agree with, the (momentum) gradient loop in R^D
that fit_iterative runs in a Krylov basis, and the tracemalloc peak of a call.
GaussianKernel and MonteCarloKernel have the gram(X, Y=None) that
specrf.krr_gram_fit and specrf.krr_predict take.
"""
from __future__ import annotations

import csv
import math
import os
import tracemalloc

import numpy as np

from specrf.diagnostics import effective_dimension
from specrf.features import feature_matrix, whole_number
from specrf.harness import _column, _undecodable_line, standardize_features

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


class MonteCarloKernel:
    """The kernel K_M(x, y) = <z(x), z(y)> of a feature map; with a high sample
    count it serves as a sampled reference kernel."""

    def __init__(self, feature_map):
        self.feature_map = feature_map

    def gram(self, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
        """K(X, Y) over the rows of X and Y; K(X, X), with X embedded once, when Y is None."""
        Z = [feature_matrix(self.feature_map, A) for A in ((X,) if Y is None else (X, Y))]
        return Z[0] @ Z[-1].T


def rff_embedding_cos(feature_map, X: np.ndarray) -> np.ndarray:
    """sqrt(2/M) cos(X W^T + b) of a Gaussian RFF map through np.cos, as
    feature_matrix computed it before it took cos from tan of the half angle."""
    proj = X @ feature_map.frequencies.T
    proj += feature_map.phases
    np.cos(proj, out=proj)
    proj *= 1.0 / np.sqrt(feature_map.num_samples) * np.sqrt(2.0)
    return proj


def designer_basis(num_funcs: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal cosine basis on L^2([0,1]) through np.cos, as an n x num_funcs
    array: e_1 = 1, e_j = sqrt(2) cos((j-1) pi x)."""
    x = np.atleast_1d(np.asarray(x, dtype=float)).reshape(-1)
    out = np.outer(x, np.arange(num_funcs))
    out *= np.pi
    np.cos(out, out=out)
    out *= np.sqrt(2.0)
    out[:, 0] = 1.0
    return out


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


def scan_csv_dataset(
    path: str,
    label_col: int = 0,
    delimiter: str = ",",
    has_header: bool = False,
    max_rows: int | None = None,
    feature_cols: list[int] | None = None,
    standardize: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """ingest_csv_dataset as a csv scan of every record, with float() on each cell:
    the same (X, y) to the byte, or the same exception and text, on every file,
    except that it returns a label-only file's X with no columns, keeps a repeated
    feature column twice and lets a csv.Error escape."""
    if not isinstance(path, (str, os.PathLike)):
        raise ValueError(f"path must be a file name, not {path!r}")
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise ValueError(f"delimiter must be a one-character string, not {delimiter!r}")
    for name, flag in (("has_header", has_header), ("standardize", standardize)):
        if not isinstance(flag, bool):
            raise ValueError(f"{name} must be true or false, not {flag!r}")
    if max_rows is not None:
        max_rows = whole_number(max_rows, "max_rows")
    if feature_cols is not None and not (isinstance(feature_cols, list) and feature_cols):
        raise ValueError(f"feature_cols must be null or a nonempty list, not {feature_cols!r}")
    rows: list[list[float]] = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            start = 1  # the line the record being read starts on
            for index, record in enumerate(reader):
                lineno, start = start, reader.line_num + 1
                if has_header and index == 0:
                    continue
                if not record or all(cell.strip() == "" for cell in record):
                    continue
                try:
                    row = [float(cell) for cell in record]
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: non-numeric cell ({exc})") from exc
                if not all(map(math.isfinite, row)):
                    cell = next(c for c, v in zip(record, row) if not math.isfinite(v))
                    raise ValueError(f"{path}:{lineno}: non-finite cell {cell.strip()!r}")
                rows.append(row)
                if max_rows is not None and len(rows) >= max_rows:
                    break
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}:{_undecodable_line(path)}: not UTF-8 text ({exc.reason})") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: inconsistent column counts {sorted(widths)}")
    data = np.asarray(rows, dtype=float)
    label_col = _column(label_col, data.shape[1], "label_col", "label column")
    y = data[:, label_col]
    X = np.delete(data, label_col % data.shape[1], axis=1)
    if feature_cols is not None:
        cols = [_column(col, X.shape[1], "feature_cols entry", "feature column") for col in feature_cols]
        X = X[:, cols]
    if standardize:
        X, _ = standardize_features(X)
    return X, y


def iterate_in_parameter_space(moments, filt, iterations: int, snapshots=()):
    """fit_iterative's T-step (momentum) gradient loop run on Sigma_hat itself, one
    D x D product a step: (theta_T, the loss before the first step and after each,
    {t: theta_t for t in snapshots})."""
    sigma, s, yy = moments.sigma, moments.s, moments.yy
    alpha, beta = filt.alpha, filt.beta
    theta_prev = np.zeros_like(s)
    theta = np.zeros_like(s)
    sigma_theta = np.zeros_like(s)  # Sigma @ theta, shared by a step's loss and the next gradient
    losses = [yy]
    taken = {}
    for t in range(1, iterations + 1):
        theta_next = theta - alpha * (sigma_theta - s) + beta * (theta - theta_prev)
        theta_prev, theta = theta, theta_next
        sigma_theta = sigma @ theta
        losses.append(float(theta @ sigma_theta - 2.0 * theta @ s + yy))
        if t in snapshots:
            taken[t] = theta.copy()
    return theta, np.asarray(losses), taken


def traced_peak(fn):
    """fn() and the peak bytes traced while it ran; tracemalloc counts numpy's data buffers."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
