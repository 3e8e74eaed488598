"""Random-feature estimator: spectral and iterative fitting paths.

Both paths realize theta = phi_lambda(Sigma_hat) s_hat with
Sigma_hat = Z^T Z / n and s_hat = Z^T y / n; the spectral path filters the
eigenvalues of Sigma_hat, the iterative path runs (momentum) gradient
descent whose T-step polynomial is the same filter.
"""
from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import features
from .features import FeatureMap, MemoryBudgetError, feature_matrix, sample_feature_map
from .filters import IterativeFilter, SpectralFilter, make_filter

EIG_DIM_CAP = 4096
DIVERGENCE_FACTOR = 1e3


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


def _data_fingerprint(X: np.ndarray, y: np.ndarray, map_seed: int) -> dict:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(X, dtype=float).tobytes())
    h.update(np.ascontiguousarray(y, dtype=float).tobytes())
    return {"n": int(X.shape[0]), "map_seed": int(map_seed), "data_sha256": h.hexdigest()}


def assemble_empirical_operators(
    feature_map: FeatureMap, X: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Return (Sigma_hat, s_hat) = (Z^T Z / n, Z^T y / n).

    Every fit reads its data here, so non-finite data is rejected here.
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
    Z = feature_matrix(feature_map, X)
    n = X.shape[0]
    return Z.T @ Z / n, Z.T @ y / n


def fit_spectral(
    feature_map: FeatureMap,
    X: np.ndarray,
    y: np.ndarray,
    filt: SpectralFilter,
    lam: float | None = None,
    iterations: int | None = None,
) -> RfModel:
    """Fit via eigendecomposition of the empirical covariance."""
    lam, iterations = filt.resolve(lam, iterations)
    if feature_map.embedding_dim > EIG_DIM_CAP:
        raise ValueError(
            f"embedding dimension {feature_map.embedding_dim} exceeds eigensolver cap {EIG_DIM_CAP}"
        )
    sigma, sy = assemble_empirical_operators(feature_map, X, y)
    evals, evecs = np.linalg.eigh(sigma)
    evals = np.maximum(evals, 0.0)  # round-off can leave tiny negatives
    if iterations is None:
        phi = filt.value(evals, lam)
    else:
        phi = filt.value_at_iterations(evals, iterations)
    theta = evecs @ (phi * (evecs.T @ sy))
    return RfModel(
        map=feature_map,
        theta=theta,
        filter=filt,
        lam=lam,
        iterations=iterations,
        fit_path="spectral",
        train_fingerprint=_data_fingerprint(np.asarray(X, float), np.asarray(y, float), feature_map.seed),
    )


def fit_iterative(
    feature_map: FeatureMap,
    X: np.ndarray,
    y: np.ndarray,
    filt: IterativeFilter,
    iterations: int,
    record_loss: bool = False,
    snapshots: tuple[int, ...] = (),
) -> RfModel:
    """Run the parameter-space (momentum) gradient iteration for T steps.

    `snapshots` asks for copies of theta after the listed iteration counts;
    they are returned in model.snapshots keyed by T.
    """
    if not isinstance(filt, IterativeFilter):
        raise ValueError("fit_iterative requires a Landweber or Heavyball filter")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    sigma, sy = assemble_empirical_operators(feature_map, X, y)
    y = np.asarray(y, dtype=float).reshape(-1)
    mean_y_sq = float(np.mean(y**2))

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

    beta = getattr(filt, "beta", 0.0)
    theta_prev = np.zeros_like(sy)
    theta = np.zeros_like(sy)
    losses = [mean_y_sq] if record_loss else None
    wanted = {int(T) for T in snapshots}
    taken: dict[int, np.ndarray] = {}
    initial_loss = max(mean_y_sq, 1e-300)
    for t in range(1, iterations + 1):
        grad = sigma @ theta - sy
        theta_next = theta - alpha * grad + beta * (theta - theta_prev)
        theta_prev, theta = theta, theta_next
        loss = float(theta @ (sigma @ theta) - 2.0 * theta @ sy + mean_y_sq)
        if loss > DIVERGENCE_FACTOR * initial_loss:
            raise DivergenceError(f"training loss diverged at iteration {t}")
        if record_loss:
            losses.append(loss)
        if t in wanted:
            taken[t] = theta.copy()
    return RfModel(
        map=feature_map,
        theta=theta,
        filter=filt,
        lam=filt.lambda_for_iterations(iterations),
        iterations=iterations,
        fit_path="iterative",
        train_fingerprint=_data_fingerprint(np.asarray(X, float), y, feature_map.seed),
        losses=np.asarray(losses) if record_loss else None,
        snapshots=taken if snapshots else None,
    )


def predict(model: RfModel, X: np.ndarray, theta: np.ndarray | None = None) -> np.ndarray:
    theta = model.theta if theta is None else theta
    return feature_matrix(model.map, np.asarray(X, dtype=float)) @ theta


def mse(model: RfModel, X: np.ndarray, y: np.ndarray, theta: np.ndarray | None = None) -> float:
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size == 0:
        raise ValueError("empty test set")
    return float(np.mean((predict(model, X, theta=theta) - y) ** 2))


def save_model(model: RfModel, path: str) -> None:
    payload = {
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
    with open(path) as fh:
        payload = json.load(fh)
    feature_map = sample_feature_map(**payload["map"])
    filt = make_filter(**payload["filter"])
    theta = np.frombuffer(base64.b64decode(payload["theta_b64"]), dtype="<f8").copy()
    return RfModel(
        map=feature_map,
        theta=theta,
        filter=filt,
        lam=payload["lam"],
        iterations=payload["iterations"],
        fit_path=payload["fit_path"],
        train_fingerprint=payload["train_fingerprint"],
    )
