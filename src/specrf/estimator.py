"""Random-feature estimator: spectral and iterative fitting paths.

Both paths realize theta = phi_lambda(Sigma_hat) s_hat with
Sigma_hat = Z^T Z / n and s_hat = Z^T y / n, and read the data only through
the Moments record that assemble_empirical_operators returns. It names no
map kind: it reads the data ROW_BLOCK rows at a time, adds up each block's
features.moment_statistics, divides the sums by n once and turns the means
into Sigma_hat and s_hat once with features.moments_from_means, which holds
each map's moment algebra (the identity for an embedded map, Toeplitz plus
Hankel for the designer cosine sums, the blocks of L for the NTK factor). So
a fit or a prediction holds O(ROW_BLOCK * D + D^2) floats however many rows
it reads. The filter picks the path: an iterative filter, given lambda or T,
runs fit_iterative and any other filter fit_spectral, which applies the filter
to Sigma_hat directly: one linear solve for Tikhonov, an eigendecomposition for
the others (for an iterative filter, the reference fit_iterative is checked
against). fit_iterative runs (momentum) gradient descent, whose T-step
polynomial is the filter. From theta = 0 the t-th iterate lies in the Krylov
space K_t = span(s_hat, ..., Sigma_hat^(t-1) s_hat), so Lanczos (Saad 1992)
builds an orthonormal basis V of K_k and the same T steps run on the k x k
tridiagonal H = V Sigma_hat V^T and ||s_hat|| e_1. Lanczos stops at
k = min(T, D), or once the next coupling is at rounding level against the
trace of Sigma_hat (a Gaussian RFF Sigma_hat closes at k of about 20): k
products with Sigma_hat and about 4 D k^2 flops, where an eigendecomposition
costs O(D^3).
"""
from __future__ import annotations

import base64
import hashlib
import json
import re
from dataclasses import dataclass, field

import numpy as np

from . import features
from .features import (
    FeatureMap,
    MemoryBudgetError,
    call_checked,
    check_input,
    check_keys,
    check_object,
    feature_matrix,
    real_number,
    sample_feature_map,
    whole_number,
)
from .filters import DivergenceError, IterativeFilter, SpectralFilter, make_filter

# rows read at a time by the moments and by predict. Blocks of 2048 to
# 8192 rows assembled the moments equally fast within noise on a 2-vCPU host
# (NTK n = 20000, D = 1152; RFF n = 5000, D = 1414), and a block bounds the
# embedding's memory at ROW_BLOCK * D floats (a designer block's cosine tables
# at ROW_BLOCK * 2(2A + B), a relu or identity NTK block's factor at
# ROW_BLOCK * (d+1)M).
ROW_BLOCK = 4096
MODEL_FORMAT = 1  # written by save_model; load_model reads only this format


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


def assemble_empirical_operators(
    feature_map: FeatureMap, X: np.ndarray, y: np.ndarray
) -> Moments:
    """Validate, reduce and hash the data; the one place a fit reads it.

    Each ROW_BLOCK-row block gives the map's features.moment_statistics; their
    sums are divided by n once and turned into Sigma_hat and s_hat once, by
    features.moments_from_means. Non-finite data, and a non-finite Sigma_hat or
    s_hat (data whose moments overflow), are rejected here, so both fit paths
    reject them.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    X = check_input(feature_map, X)
    if X.shape[0] < 1:
        raise ValueError("need at least one sample")
    if y.size != X.shape[0]:
        raise ValueError("X and y length mismatch")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("training data contains NaN or inf values")
    dim = feature_map.embedding_dim
    if dim * dim * 8 > features.DEFAULT_MEMORY_BUDGET:
        raise MemoryBudgetError(f"covariance of dimension {dim} exceeds memory budget")
    n = X.shape[0]
    rows = (slice(start, start + ROW_BLOCK) for start in range(0, n, ROW_BLOCK))
    blocks = (features.moment_statistics(feature_map, X[r], y[r]) for r in rows)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        stats = next(blocks)
        for block in blocks:
            for total, part in zip(stats, block):
                total += part
        for total in stats:
            total /= n
        gram, zy = features.moments_from_means(feature_map, stats)
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
    """Fit theta = phi(Sigma_hat) s_hat through filt.apply: one linear solve for
    Tikhonov, an eigendecomposition of Sigma_hat for the other filters; for an
    iterative filter, which no CLI or sweep fit runs here, the reference that
    fit_iterative is checked against. model.losses: the training loss at 0 and at theta."""
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
    iterations: int | None = None,
    snapshots: tuple[int, ...] = (),
    lam: float | None = None,
) -> RfModel:
    """Run the (momentum) gradient iteration for the T that filt.resolve(lam,
    iterations) gives, as in fit_spectral, on the projected problem (H, ||s_hat||
    e_1) of the Lanczos basis V: k <= min(T, D) products with Sigma_hat, each
    theta read as c @ V. A filter that is not iterative is rejected.
    model.losses holds the training loss before the first step and after each;
    `snapshots` asks for theta after the listed iteration counts, each an
    integer in [1, T], returned in model.snapshots keyed by T.
    """
    if not filt.iterative:
        raise ValueError(f"filter {filt.name} is not iterative and takes no iteration count")
    lam, iterations = filt.resolve(lam, iterations)
    wanted = {whole_number(T, "snapshot count") for T in snapshots}
    if wanted and max(wanted) > iterations:
        raise ValueError(f"snapshot count {max(wanted)} exceeds iterations = {iterations}")
    moments = assemble_empirical_operators(feature_map, X, y)
    sigma, s, yy = moments.sigma, moments.s, moments.yy

    bound = float(np.trace(sigma))  # >= ||Sigma_hat||, which is PSD
    try:  # the one stability rule, at the trace; eigvalsh only if the trace is loose
        filt.check_stable(bound)
    except DivergenceError:
        filt.check_stable(float(np.linalg.eigvalsh(sigma)[-1]))
    basis, diag, off = _lanczos(sigma, s, min(iterations, s.size), bound)

    def h_times(c):
        h_c = diag * c
        h_c[1:] += off * c[:-1]
        h_c[:-1] += off * c[1:]
        return h_c

    alpha, beta = filt.alpha, filt.beta
    s_proj = np.zeros_like(diag)
    s_proj[:1] = np.linalg.norm(s)
    c_prev = np.zeros_like(diag)
    c = np.zeros_like(diag)
    h_c = np.zeros_like(diag)  # H @ c, shared by a step's loss and the next gradient
    losses = [yy]
    taken: dict[int, np.ndarray] = {}
    for t in range(1, iterations + 1):
        c_next = c - alpha * (h_c - s_proj) + beta * (c - c_prev)
        c_prev, c = c, c_next
        h_c = h_times(c)
        losses.append(float(c @ h_c - 2.0 * c @ s_proj + yy))
        if t in wanted:
            taken[t] = c
    return RfModel(
        map=feature_map, theta=c @ basis, filter=filt, lam=lam,
        iterations=iterations, fit_path="iterative", train_fingerprint=moments.fingerprint,
        losses=np.asarray(losses),
        snapshots={t: c_t @ basis for t, c_t in taken.items()} if snapshots else None,
    )


def _lanczos(sigma: np.ndarray, s: np.ndarray, steps: int, bound: float):
    """Lanczos on Sigma from s / ||s||, with full reorthogonalisation (classical
    Gram-Schmidt, twice): the rows of an orthonormal basis V of the Krylov space
    K_k(Sigma, s), and the diagonal and off-diagonal of the tridiagonal V Sigma
    V^T. It takes k = `steps` steps, or stops after fewer once the next coupling
    is at most eps * bound (bound >= ||Sigma||), where K_k is invariant up to
    rounding. An s of 0 spans no basis (k = 0)."""
    rounding = np.finfo(float).eps * bound
    # doubled as it fills, as K usually closes far below `steps`: a basis allocated at
    # full size raised the peak RSS of a two-worker heatmap by 1.3 MB
    basis = np.empty((min(steps, 32), s.size))
    diag, off = [], []
    w, coupling = s, float(np.linalg.norm(s))
    k = 0
    while k < steps and coupling > (rounding if k else 0.0):
        if k:
            off.append(coupling)
        if k == len(basis):
            basis = np.concatenate([basis, np.empty((min(k, steps - k), s.size))])
        basis[k] = w / coupling
        w = sigma @ basis[k]
        done = basis[: k + 1]
        proj = done @ w
        w -= proj @ done
        again = done @ w  # the second pass keeps V orthonormal to rounding
        w -= again @ done
        diag.append(proj[k] + again[k])
        coupling = float(np.linalg.norm(w))
        k += 1
    return basis[:k], np.array(diag), np.array(off)


def predict(model: RfModel, X: np.ndarray) -> np.ndarray:
    """Z @ theta, embedding X ROW_BLOCK rows at a time; a D x k theta gives n x k.

    An X with no rows or not 2-d goes to feature_matrix whole, which returns
    an empty embedding or rejects its shape.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0] if X.ndim == 2 else 0
    blocks = [X[start : start + ROW_BLOCK] for start in range(0, n, ROW_BLOCK)] or [X]
    return np.concatenate([feature_matrix(model.map, Xb) @ model.theta for Xb in blocks])


def mse(model: RfModel, X: np.ndarray, y: np.ndarray):
    """Mean squared error of predict(model, X) against y: a float for a 1-d theta,
    and the k column errors as an array for a D x k theta."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size == 0:
        raise ValueError("empty test set")
    pred = predict(model, X)
    if pred.shape[0] != y.size:
        raise ValueError("X and y length mismatch")
    if pred.ndim == 1:
        return float(np.mean((pred - y) ** 2))
    return np.mean((pred - y[:, None]) ** 2, axis=0)


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
    """The model save_model wrote to `path`. Every way the file can fail to be one
    (not JSON, an unknown or missing format, a missing key, a value its map, its
    filter or this function rejects) is a ValueError prefixed with `path`."""
    try:
        with open(path) as fh:
            return _decode_model(json.load(fh))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _decode_model(payload) -> RfModel:
    if not isinstance(payload, dict) or "format" not in payload:
        raise ValueError("model file has no format")
    if type(payload["format"]) is not int or payload["format"] != MODEL_FORMAT:  # not 1.0 or true
        raise ValueError(f"unknown model format {payload['format']!r}, expected {MODEL_FORMAT}")
    keys = ("map", "filter", "lam", "iterations", "fit_path", "theta_b64", "train_fingerprint")
    check_keys(payload, "model file", ("format", *keys), (), "load_model")
    feature_map = call_checked(sample_feature_map, payload["map"], "model map")
    filt = make_filter(**check_object(payload["filter"], "model filter"))
    lam, iterations = filt.resolve(real_number(payload["lam"], "lam"), payload["iterations"])
    if payload["fit_path"] not in ("spectral", "iterative"):
        raise ValueError(f"fit_path must be spectral or iterative, not {payload['fit_path']!r}")
    try:
        raw = base64.b64decode(payload["theta_b64"], validate=True)
        theta = np.frombuffer(raw, dtype="<f8").copy()
    except (TypeError, ValueError):  # not a string, not base64, or not whole float64s
        raise ValueError("model theta_b64 is not the base64 of float64 values") from None
    dim = feature_map.embedding_dim
    if theta.size != dim:
        raise ValueError(f"model theta has {theta.size} entries, its map's embedding_dim is {dim}")
    if not np.isfinite(theta).all():
        raise ValueError("model theta has NaN or inf entries")
    fingerprint = payload["train_fingerprint"]
    where = "model train_fingerprint"
    check_keys(fingerprint, where, ("n", "map_seed", "data_sha256"), (), "load_model")
    whole_number(fingerprint["n"], f"{where} n")
    map_seed = whole_number(fingerprint["map_seed"], f"{where} map_seed", least=0)
    if map_seed != feature_map.seed:
        raise ValueError(f"{where} map_seed {map_seed} is not the map's seed {feature_map.seed}")
    sha = fingerprint["data_sha256"]
    if not (isinstance(sha, str) and re.fullmatch("[0-9a-f]{64}", sha)):
        raise ValueError(f"{where} data_sha256 must be 64 hex digits, not {sha!r}")
    return RfModel(
        map=feature_map, theta=theta, filter=filt, lam=lam,
        iterations=iterations, fit_path=payload["fit_path"], train_fingerprint=fingerprint,
    )
