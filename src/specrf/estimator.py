"""Random-feature estimator: spectral and iterative fitting paths.

Both paths realize theta = phi_lambda(Sigma_hat) s_hat with
Sigma_hat = Z^T Z / n and s_hat = Z^T y / n, and read the data only through
the Moments record that assemble_empirical_operators returns. The data is
embedded ROW_BLOCK rows at a time, so a fit or a prediction holds
O(ROW_BLOCK * D + D^2) floats however many rows it reads. The spectral
path applies the filter to Sigma_hat directly (one linear solve for
Tikhonov, an eigendecomposition for the others), the iterative path runs
(momentum) gradient descent whose T-step polynomial is the same filter.
"""
from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import features
from .features import FeatureMap, MemoryBudgetError, feature_matrix, real_number, sample_feature_map
from .filters import IterativeFilter, SpectralFilter, make_filter

# rows embedded at a time by the moments and by predict. Blocks of 2048 to
# 8192 rows assembled the moments equally fast within noise on a 2-vCPU host
# (NTK n = 20000, D = 1152; RFF n = 5000, D = 1414), and a block bounds the
# embedding's memory at ROW_BLOCK * D floats.
ROW_BLOCK = 4096
DIVERGENCE_FACTOR = 1e3
MODEL_FORMAT = 1  # written by save_model; load_model reads only this format


class DivergenceError(RuntimeError):
    """Training loss blew up; the step size is unstable for this problem."""


@dataclass
class RfModel:
    map: FeatureMap
    theta: np.ndarray
    filter: SpectralFilter
    lam: float
    iterations: int | None
    fit_path: str  # "spectral" | "iterative"
    train_fingerprint: dict
    losses: np.ndarray | None = field(default=None, repr=False)
    snapshots: dict | None = field(default=None, repr=False)


@dataclass(frozen=True)
class Moments:
    """All a fit reads of its data: Sigma_hat = Z^T Z / n, s_hat = Z^T y / n,
    yy = mean y^2, and a fingerprint holding n, the map seed and a data hash."""

    sigma: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)
    yy: float
    fingerprint: dict


def _embedded_blocks(feature_map: FeatureMap, X: np.ndarray):
    """Yield (rows, Z[rows]) over consecutive ROW_BLOCK-row slices of X.

    An X with no rows or not 2-d goes to feature_matrix whole, which returns
    an empty embedding or rejects its shape.
    """
    n = X.shape[0] if X.ndim == 2 else 0
    for start in range(0, max(n, 1), ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        yield rows, feature_matrix(feature_map, X[rows] if n else X)


def assemble_empirical_operators(
    feature_map: FeatureMap, X: np.ndarray, y: np.ndarray
) -> Moments:
    """Validate, embed, reduce and hash the data; the one place a fit reads it.

    Non-finite data, and a non-finite Sigma_hat or s_hat (an embedding that
    overflows), are rejected here, so both fit paths reject them. Z^T Z and
    Z^T y are summed over row blocks (numpy sends Zb.T @ Zb to syrk) and
    divided by n once.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    X = np.asarray(X, dtype=float)
    if X.shape[0] < 1:
        raise ValueError("need at least one sample")
    if y.size != X.shape[0]:
        raise ValueError("X and y length mismatch")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("training data contains NaN or inf values")
    dim = feature_map.embedding_dim
    if dim * dim * 8 > features.DEFAULT_MEMORY_BUDGET:
        raise MemoryBudgetError(f"covariance of dimension {dim} exceeds memory budget")
    blocks = ((Zb.T @ Zb, Zb.T @ y[rows]) for rows, Zb in _embedded_blocks(feature_map, X))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        gram, zy = next(blocks)
        for gram_b, zy_b in blocks:
            gram += gram_b
            zy += zy_b
    n = X.shape[0]
    gram /= n
    zy /= n
    if not (np.isfinite(gram).all() and np.isfinite(zy).all()):
        raise ValueError(f"{feature_map.kind} map embeds the data to a non-finite Sigma_hat or s_hat")
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(X).tobytes())
    h.update(np.ascontiguousarray(y).tobytes())
    fingerprint = {"n": n, "map_seed": int(feature_map.seed), "data_sha256": h.hexdigest()}
    return Moments(gram, zy, float(np.mean(y**2)), fingerprint)


def fit_spectral(
    feature_map: FeatureMap,
    X: np.ndarray,
    y: np.ndarray,
    filt: SpectralFilter,
    lam: float | None = None,
    iterations: int | None = None,
) -> RfModel:
    """Fit theta = phi(Sigma_hat) s_hat through filt.apply: one linear solve
    for Tikhonov, an eigendecomposition of Sigma_hat for the other filters.
    model.losses holds the training loss at theta = 0 and at the fitted theta."""
    lam, iterations = filt.resolve(lam, iterations)
    moments = assemble_empirical_operators(feature_map, X, y)
    theta = filt.apply(moments.sigma, moments.s, lam, iterations)
    s, yy = moments.s, moments.yy
    return RfModel(
        map=feature_map, theta=theta, filter=filt, lam=lam, iterations=iterations,
        fit_path="spectral", train_fingerprint=moments.fingerprint,
        losses=np.array([yy, theta @ (moments.sigma @ theta) - 2.0 * theta @ s + yy]),
    )


def fit_iterative(
    feature_map: FeatureMap,
    X: np.ndarray,
    y: np.ndarray,
    filt: IterativeFilter,
    iterations: int,
    snapshots: tuple[int, ...] = (),
) -> RfModel:
    """Run the parameter-space (momentum) gradient iteration for T steps.

    model.losses holds the training loss before the first step and after
    each step. `snapshots` asks for copies of theta after the listed
    iteration counts; they are returned in model.snapshots keyed by T.
    """
    if not filt.iterative:
        raise ValueError("fit_iterative requires a Landweber or Heavyball filter")
    lam, iterations = filt.resolve(iterations=iterations)
    moments = assemble_empirical_operators(feature_map, X, y)
    sigma, s, yy = moments.sigma, moments.s, moments.yy

    # stability precheck: trace bounds the spectral norm
    alpha = filt.alpha
    bound = float(np.trace(sigma))
    if alpha * bound >= 2.0:
        # trace is loose; fall back to the exact top eigenvalue
        bound = float(np.linalg.eigvalsh(sigma)[-1])
        if alpha * bound >= 2.0:
            raise DivergenceError(
                f"step size {alpha} unstable: alpha * ||Sigma|| = {alpha * bound:.3g} >= 2"
            )

    beta = filt.beta
    theta_prev = np.zeros_like(s)
    theta = np.zeros_like(s)
    sigma_theta = np.zeros_like(s)  # Sigma @ theta, shared by a step's loss and the next gradient
    losses = [yy]
    wanted = {int(T) for T in snapshots}
    taken: dict[int, np.ndarray] = {}
    initial_loss = max(yy, 1e-300)
    for t in range(1, iterations + 1):
        theta_next = theta - alpha * (sigma_theta - s) + beta * (theta - theta_prev)
        theta_prev, theta = theta, theta_next
        sigma_theta = sigma @ theta
        loss = float(theta @ sigma_theta - 2.0 * theta @ s + yy)
        if loss > DIVERGENCE_FACTOR * initial_loss:
            raise DivergenceError(f"training loss diverged at iteration {t}")
        losses.append(loss)
        if t in wanted:
            taken[t] = theta.copy()
    return RfModel(
        map=feature_map, theta=theta, filter=filt, lam=lam,
        iterations=iterations, fit_path="iterative", train_fingerprint=moments.fingerprint,
        losses=np.asarray(losses), snapshots=taken if snapshots else None,
    )


def predict(model: RfModel, X: np.ndarray) -> np.ndarray:
    """Z @ theta, embedding X ROW_BLOCK rows at a time; a D x k theta gives n x k."""
    X = np.asarray(X, dtype=float)
    return np.concatenate([Zb @ model.theta for _, Zb in _embedded_blocks(model.map, X)])


def mse(model: RfModel, X: np.ndarray, y: np.ndarray) -> float:
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size == 0:
        raise ValueError("empty test set")
    return float(np.mean((predict(model, X) - y) ** 2))


def save_model(model: RfModel, path: str) -> None:
    payload = {
        "format": MODEL_FORMAT,
        "map": model.map.descriptor(),
        "filter": model.filter.descriptor(),
        "lam": model.lam,
        "iterations": model.iterations,
        "fit_path": model.fit_path,
        "theta_b64": base64.b64encode(
            np.ascontiguousarray(model.theta, dtype="<f8").tobytes()
        ).decode("ascii"),
        "train_fingerprint": model.train_fingerprint,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)


def load_model(path: str) -> RfModel:
    """The model save_model wrote to `path`; a ValueError prefixed with `path`
    names an unknown or missing format, a missing key or a bad value."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "format" not in payload:
        raise ValueError(f"{path}: model file has no format")
    if payload["format"] != MODEL_FORMAT:
        raise ValueError(f"{path}: unknown model format {payload['format']!r}, expected {MODEL_FORMAT}")
    keys = ("map", "filter", "lam", "iterations", "fit_path", "theta_b64", "train_fingerprint")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise ValueError(f"{path}: model file is missing keys: {', '.join(missing)}")
    feature_map = sample_feature_map(**payload["map"])
    filt = make_filter(**payload["filter"])
    try:
        lam, iterations = filt.resolve(real_number(payload["lam"], "lam"), payload["iterations"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if payload["fit_path"] not in ("spectral", "iterative"):
        raise ValueError(f"{path}: fit_path must be spectral or iterative, not {payload['fit_path']!r}")
    theta = np.frombuffer(base64.b64decode(payload["theta_b64"]), dtype="<f8").copy()
    dim = feature_map.embedding_dim
    if theta.size != dim:
        raise ValueError(f"model theta has {theta.size} entries, its map's embedding_dim is {dim}")
    return RfModel(
        map=feature_map, theta=theta, filter=filt, lam=lam,
        iterations=iterations, fit_path=payload["fit_path"],
        train_fingerprint=payload["train_fingerprint"],
    )
