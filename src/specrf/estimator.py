"""Random-feature estimator: spectral and iterative fitting paths.

Both paths realize theta = phi_lambda(Sigma_hat) s_hat with
Sigma_hat = Z^T Z / n and s_hat = Z^T y / n, and read the data only through
the Moments record that assemble_empirical_operators returns. It names no
map kind: it reads the data ROW_BLOCK rows at a time (FACTOR_BLOCK for a map
whose moments come from its factor, features.ntk_factored), adds up each block's
features.moment_statistics, divides the sums by n once and turns the means
into Sigma_hat and s_hat once with features.moments_from_means, which holds
each map's moment algebra (the identity for an embedded map, Toeplitz plus
Hankel for the designer cosine sums, the blocks of L for the NTK factor). A
map whose moments are its embedding's syrk (features.embedding_moments) with
n <= ROW_BLOCK + D keeps its n x D embedding Z instead, at most ROW_BLOCK * D
+ D^2 floats: Moments then serves a block of rows V as V Sigma_hat = (V Z^T) Z / n,
one pass over Z, and forms Sigma_hat, by the same block sums, only when it is
read. So a fit holds
O(ROW_BLOCK * D + D^2) floats however many rows it reads (a relu or identity
NTK fit streams one FACTOR_BLOCK x (d+1)M factor and two (d+1)M x (d+1)M Grams);
predict holds O(features.COS_CHUNK + n k) for a D x k theta. The filter picks
the path in one place, fit: an iterative filter, given lambda or T, runs
fit_iterative and any other fit_spectral (the CLI and the rate sweep call fit;
the heatmap calls fit_iterative, the one fit that takes snapshots). Both fits
hand their Moments to one moments-level solve, _solve, which reads nothing else:
one linear solve for Tikhonov, else the scalar phi through _filtered, one
eigendecomposition for all requested (lambda, T): of Sigma_hat in fit_spectral,
up to D = EIG_DIM_CAP, and of a Krylov projection in fit_iterative. fit_spectral
on an iterative filter, which fit never runs, is kept as the eigendecomposition
reference the Krylov path is checked against. An iterative filter's phi_T is a
polynomial of degree < T, so phi_T(Sigma_hat) s_hat lies in the Krylov space K_T
= span(s_hat, ..., Sigma_hat^(T-1) s_hat): Lanczos (Saad 1992) builds an
orthonormal basis V of K_k and the k x k tridiagonal H = V Sigma_hat V^T, and
theta_T = V^T phi_T(H) ||s_hat|| e_1 is exact while k = T or K_k is invariant.
Lanczos stops at k = min(T, D), or once the next coupling is at rounding level
against the trace of Sigma_hat (a Gaussian RFF Sigma_hat closes at k of about
20): k products with Sigma_hat, about 4 D k^2 flops and one k x k
eigendecomposition, where one of Sigma_hat costs O(D^3). A kept Z is read only by
passes (V Z^T) Z, 4 n D flops a row and no n D^2 syrk: a fit takes its T passes of
one row while they cost less than forming Sigma_hat, T <= ceil(D / SYRK_PARITY).
Past that, block Lanczos (Golub & Underwood 1977) multiplies up to BLOCK rows a
pass, as a pass of 16 rows costs about 3.4 of one row on a memory-bound Z. It starts
from s_hat and BLOCK - 1 evenly spaced rows of Z, which lie in the range of
Sigma_hat, less any of those rows within sqrt(eps) of the span of the rows before
it; a span that closes is invariant and holds s_hat, so theta_T is exact on it for
every T (the plateau heatmap's M = 1414 fits close after two passes, of 13 to 15
rows and then 10 to 12, against 18-19 single products). Ski rental: a span
that has not closed once its passes have multiplied BLOCK ceil(D / (6 SYRK_PARITY))
rows (about half a syrk) forms Sigma_hat and starts width-1 Lanczos over on it from
s_hat, so a fit that does not close pays about half a syrk more than forming
Sigma_hat first.
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
    call_checked,
    check_input,
    check_keys,
    check_object,
    feature_matrix,
    real_number,
    sample_feature_map,
    whole_number,
)
from .filters import DivergenceError, IterativeFilter, SpectralFilter, Tikhonov, make_filter

# rows read at a time by the moments (predict reads tiles of features.COS_CHUNK
# floats instead). Blocks of 2048 to 8192 rows assembled the moments equally fast
# within noise on a 2-vCPU host (NTK n = 20000, D = 1152; RFF n = 5000, D = 1414),
# and a block bounds the embedding's memory at ROW_BLOCK * D floats (a designer
# block's cosine tables at ROW_BLOCK * 2(2A + B)).
ROW_BLOCK = 4096
# rows read at a time by a relu or identity NTK map's moments (features.ntk_factored):
# a block holds its feature-major (d+1)M x FACTOR_BLOCK factor, two (d+1)M squared Grams
# (the block's and the running sum) and no n x M projection, 29.1 MiB under tracemalloc at
# d = 4, M = 192, where 4096-row blocks of a row-major factor peaked at 37.0 MiB. Against
# those, perfbench's fit_csv (n = 20000, two BLAS threads, 2-vCPU host) fell from 101.6 to
# 84.2 MB peak RSS in 10 of 10 pairs, with wall_s 0.533 -> 0.528 s (5 of 10, within noise).
FACTOR_BLOCK = ROW_BLOCK // 2
MODEL_FORMAT = 1  # written by save_model; load_model reads only this format
EIG_DIM_CAP = 4096  # the largest Sigma_hat that fit_spectral eigendecomposes
# forming Sigma_hat from a kept n x D embedding Z (a syrk, n D^2 flops) took as long as
# about D / SYRK_PARITY passes (V Z^T) Z of one row: D / 23 at D = 160, D / 28 at D = 283
# and D / 40 to D / 41 at D = 1152 and 1414, for n = ROW_BLOCK + D or 5000 (one OpenBLAS
# thread, 2-vCPU AVX2 host). So a fit takes its T passes of one row from Z only when T <=
# ceil(D / SYRK_PARITY), and block passes otherwise
SYRK_PARITY = 40
# rows a pass over a kept Z multiplies when T > ceil(D / SYRK_PARITY). A pass of 16 rows took
# as long as 3.4 passes of one row at D = 1414 (4 at D = 160), so half a syrk is about
# D / (6 SYRK_PARITY) passes of 16 rows: a span that has not closed once its passes have
# multiplied BLOCK ceil(D / (6 SYRK_PARITY)) rows forms Sigma_hat and starts over on it.
# The budget counts rows, not passes, so the narrow last pass of a span that closes (it
# adds no row) fits in it. With a whole syrk's passes, the fits that do not close were
# slower than with single products. Below the cut-off the block passes lost to single rows on a span that
# does not close (4x at T = 16, tanh NTK D = 1152) more than they won on one that does
# (2x at T = 16, Gaussian RFF D = 1414)
BLOCK = 16


@dataclass
class RfModel:
    map: FeatureMap
    theta: np.ndarray
    filter: SpectralFilter
    lam: float
    iterations: int | None
    fit_path: str  # "spectral" | "iterative"
    train_fingerprint: dict
    train_mse: float | None = None  # the fit's Moments.loss(theta); None for a loaded model
    snapshots: dict | None = field(default=None, repr=False)


@dataclass
class Moments:
    """All a fit reads of its data: s_hat = Z^T y / n, yy = mean y^2, the trace of
    Sigma_hat = Z^T Z / n, a fingerprint holding n, the map seed and a data hash, and
    either Sigma_hat or the embedding Z, kept by assemble_empirical_operators in its
    ROW_BLOCK row blocks. `product` serves V Sigma_hat for a block of rows V, from a
    kept Z as one pass (V Z^T) Z / n. Sigma_hat is formed from Z when `sigma` is first
    read (by fit_spectral, the eigvalsh fallback of the stability rule, or _solve once
    a block fit has spent its budget without closing), and then serves every
    product; forming it frees Z block by block."""

    s: np.ndarray = field(repr=False)
    yy: float
    trace: float
    fingerprint: dict
    _sigma: np.ndarray | None = field(default=None, repr=False)
    _blocks: list = field(default_factory=list, repr=False)

    @property
    def sigma(self) -> np.ndarray:
        """Sigma_hat, the sum of the blocks' syrks divided by n, as when Z is not kept."""
        if self._sigma is None:
            blocks = self._blocks
            drained = (blocks.pop(0) for _ in range(len(blocks)))  # each freed once summed
            (self._sigma,) = _block_means(((Z.T @ Z,) for Z in drained), self.fingerprint["n"])
        return self._sigma

    def product(self, V: np.ndarray) -> np.ndarray:
        """V Sigma_hat for a block V of rows: one pass over a kept Z, the sum of its
        blocks' (V Z^T) Z divided by n, else (Sigma_hat V^T)^T."""
        if self._blocks:
            return sum((V @ Z.T) @ Z for Z in self._blocks) / self.fingerprint["n"]
        return (self.sigma @ V.T).T

    def loss(self, theta: np.ndarray) -> float:
        """The training MSE of a 1-d theta: theta.Sigma_hat.theta - 2 theta.s_hat + yy,
        its first term as ||Z theta||^2 / n from a kept Z."""
        if self._blocks:
            fitted = [Z @ theta for Z in self._blocks]
            quadratic = sum(float(z @ z) for z in fitted) / self.fingerprint["n"]
        else:
            quadratic = theta @ (self.sigma @ theta)
        return float(quadratic - 2.0 * theta @ self.s + self.yy)


def _block_means(parts, n: int) -> list:
    """The sums over the iterable `parts` of equal-length tuples of arrays, summed in
    order into the first tuple's arrays and divided by n. Overflow is left to the caller."""
    with np.errstate(over="ignore", invalid="ignore"):
        parts = iter(parts)
        totals = list(next(parts))
        for part in parts:
            for total, value in zip(totals, part):
                total += value
        for total in totals:
            total /= n
    return totals


def assemble_empirical_operators(
    feature_map: FeatureMap, X: np.ndarray, y: np.ndarray
) -> Moments:
    """Validate, reduce and hash the data; the one place a fit reads it.

    An embedding_moments map with n <= ROW_BLOCK + D keeps its embedding Z, in
    ROW_BLOCK row blocks, and the sums of its blocks' Z^T y and column sums of
    squares give s_hat and the trace. Any other fit sums each ROW_BLOCK-row block's
    (FACTOR_BLOCK-row, for an ntk_factored map) features.moment_statistics and turns
    the sums, divided by n once, into Sigma_hat and s_hat, by
    features.moments_from_means. Non-finite data, and a non-finite
    Sigma_hat (or diagonal, for a kept Z) or s_hat (data whose moments overflow), are
    rejected here, so both fit paths reject them.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    X = check_input(feature_map, X)
    if X.shape[0] < 1:
        raise ValueError("need at least one sample")
    if y.size != X.shape[0]:
        raise ValueError("X and y length mismatch")
    if not np.isfinite(y).all():
        raise ValueError("training labels contain NaN or inf values")
    dim = feature_map.embedding_dim
    features.check_budget(dim * dim * 8, f"covariance of dimension {dim}")
    n = X.shape[0]
    block = FACTOR_BLOCK if features.ntk_factored(feature_map) else ROW_BLOCK
    rows = [slice(start, start + block) for start in range(0, n, block)]
    blocks, gram = [], None
    if features.embedding_moments(feature_map) and n <= ROW_BLOCK + dim:
        # n * D floats are at most ROW_BLOCK * D + D^2, the streamed assembly's own bound
        blocks = [feature_matrix(feature_map, X[r]) for r in rows]
        parts = ((Z.T @ y[r], np.einsum("ij,ij->j", Z, Z)) for Z, r in zip(blocks, rows))
        zy, diagonal = _block_means(parts, n)
        checked = diagonal  # |Sigma_hat[i, j]| <= sqrt(Sigma_hat[i, i] Sigma_hat[j, j])
    else:
        means = _block_means((features.moment_statistics(feature_map, X[r], y[r]) for r in rows), n)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            gram, zy = features.moments_from_means(feature_map, means)
        checked, diagonal = gram, np.diagonal(gram)
    if not (np.isfinite(checked).all() and np.isfinite(zy).all()):
        raise ValueError(f"{feature_map.kind} map embeds the data to a non-finite Sigma_hat or s_hat")
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(X).tobytes())
    h.update(np.ascontiguousarray(y).tobytes())
    fingerprint = {"n": n, "map_seed": int(feature_map.seed), "data_sha256": h.hexdigest()}
    trace = float(np.sum(diagonal))  # >= ||Sigma_hat||, which is PSD
    return Moments(zy, float(np.mean(y**2)), trace, fingerprint, gram, blocks)


def fit(feature_map: FeatureMap, X: np.ndarray, y: np.ndarray, filt: SpectralFilter,
        lam: float | None = None, iterations: int | None = None) -> RfModel:
    """The fit the filter picks, the one place the path is chosen: fit_iterative for an
    iterative filter and fit_spectral for any other, given lam or iterations."""
    path = fit_iterative if filt.iterative else fit_spectral
    return path(feature_map, X, y, filt, lam=lam, iterations=iterations)


def fit_spectral(
    feature_map: FeatureMap,
    X: np.ndarray,
    y: np.ndarray,
    filt: SpectralFilter,
    lam: float | None = None,
    iterations: int | None = None,
) -> RfModel:
    """Fit theta = phi(Sigma_hat) s_hat by _solve: one linear solve for Tikhonov, else
    _filtered on Sigma_hat, whose dimension is checked against EIG_DIM_CAP before the
    data is read; for an iterative filter, which `fit` sends to fit_iterative, this
    eigendecomposition is the reference the Krylov path is checked against.
    model.train_mse: the training loss at theta."""
    return _fit(feature_map, X, y, filt, lam, iterations, (), krylov=False)


def fit_iterative(
    feature_map: FeatureMap,
    X: np.ndarray,
    y: np.ndarray,
    filt: IterativeFilter,
    iterations: int | None = None,
    snapshots: tuple[int, ...] = (),
    lam: float | None = None,
) -> RfModel:
    """Fit theta = phi_T(Sigma_hat) s_hat for the T that filt.resolve(lam,
    iterations) gives, as fit_spectral does, through _solve's Krylov path: at most
    T passes of Lanczos, then one eigendecomposition of the projection for all
    thetas. A filter that is not iterative is rejected. model.train_mse: the
    training loss at theta, as in fit_spectral. `snapshots` asks for theta after the
    listed iteration counts, each an integer in [1, T] and filtered at its own
    lambda = filt.resolve(iterations=t)[0], returned in model.snapshots keyed by T.
    """
    return _fit(feature_map, X, y, filt, lam, iterations, snapshots, krylov=True)


def _fit(feature_map, X, y, filt, lam, iterations, snapshots, krylov: bool) -> RfModel:
    """The one fit behind fit_spectral and fit_iterative: the data's moments _solved at
    filt.resolve(lam, iterations), on the Krylov path with `krylov`, and the fit's model,
    with the thetas at the T of `snapshots` as model.snapshots. Before the data is read it
    refuses, in this order: a filter that is not iterative (Krylov path); a bad lam or T
    (resolve); lam given with iterations, as the fit would record lam while an iterative
    filter filters at T's lambda; an embedding past EIG_DIM_CAP (spectral path, but for
    Tikhonov, which solves instead); and a snapshot count outside [1, T]."""
    if krylov and not filt.iterative:
        raise ValueError(f"filter {filt.name} is not iterative and takes no iteration count")
    pair = filt.resolve(lam, iterations)
    if lam is not None and iterations is not None:
        raise ValueError("a fit takes lam or iterations, not both")
    lam, iterations = pair
    dim = feature_map.embedding_dim
    if not krylov and dim > EIG_DIM_CAP and not isinstance(filt, Tikhonov):
        raise ValueError(f"embedding dimension {dim} exceeds eigensolver cap {EIG_DIM_CAP}")
    wanted = {whole_number(T, "snapshot count") for T in snapshots}
    if wanted and max(wanted) > iterations:
        raise ValueError(f"snapshot count {max(wanted)} exceeds iterations = {iterations}")
    # each snapshot at its own pair, then the fit's: phi_T of an iterative filter reads T alone
    pairs = [filt.resolve(iterations=t) for t in sorted(wanted - {iterations})] + [(lam, iterations)]
    moments = assemble_empirical_operators(feature_map, X, y)
    thetas = dict(zip((T for _, T in pairs), _solve(moments, filt, pairs, krylov)))
    theta = thetas[iterations]
    return RfModel(
        map=feature_map, theta=theta, filter=filt, lam=lam, iterations=iterations,
        fit_path="iterative" if krylov else "spectral", train_fingerprint=moments.fingerprint,
        train_mse=moments.loss(theta), snapshots={t: thetas[t] for t in wanted} if wanted else None,
    )


def _solve(moments: Moments, filt: SpectralFilter, pairs, krylov: bool) -> list:
    """phi(Sigma_hat) s_hat at each (lam, T) of `pairs` (as filt.resolve gives them, T
    ascending), read from `moments` alone. Tikhonov is one linear solve on a copy of
    Sigma_hat (singular is a ValueError naming lambda). With `krylov`, an iterative
    filter checks its stability at the trace (eigvalsh only if the trace is loose),
    then filters the projected problem (H, ||s_hat|| e_1) of the Lanczos basis V,
    each theta c @ V: from s_hat alone, or, with a kept Z and T > ceil(D /
    SYRK_PARITY), from s_hat and the BLOCK - 1 rows of Z at i n // (BLOCK - 1), BLOCK
    rows a pass until they have multiplied BLOCK ceil(D / (6 SYRK_PARITY)) rows, after
    which a span that has not closed starts over from s_hat on Sigma_hat. Rows of Z
    lie in the range of Sigma_hat, where a fixed-seed Gaussian block also probed its
    null space: plateau fits at M = 1414 closed after 26 or 27 rows against 33 to 35.
    Any other filter, or an iterative one without `krylov`, is _filtered on Sigma_hat."""
    s = moments.s
    if isinstance(filt, Tikhonov):
        ((lam, _),) = pairs
        shifted = moments.sigma.copy()
        shifted.flat[:: shifted.shape[0] + 1] += lam
        try:
            return [np.linalg.solve(shifted, s)]
        except np.linalg.LinAlgError:
            raise ValueError(f"{filt.name}: Sigma_hat + lam I is singular at lam = {lam!r}") from None
    if not krylov:
        return _filtered(filt, moments.sigma, s, pairs)
    try:  # the one stability rule, at the trace; eigvalsh only if the trace is loose
        filt.check_stable(moments.trace)
    except DivergenceError:
        filt.check_stable(float(np.linalg.eigvalsh(moments.sigma)[-1]))
    T, D = pairs[-1][1], s.size
    closed = False
    if moments._blocks and s.any() and T > -(-D // SYRK_PARITY):
        # T passes of one row over Z would cost more than forming Sigma_hat: BLOCK rows a pass
        n = moments.fingerprint["n"]
        rows = ((i * n) // (BLOCK - 1) for i in range(BLOCK - 1))
        start = np.vstack([s, *(moments._blocks[r // ROW_BLOCK][r % ROW_BLOCK] for r in rows)])
        budget = BLOCK * -(-D // (6 * SYRK_PARITY))
        basis, h, closed = _lanczos(moments.product, start, budget, moments.trace)
        if not closed:  # half a syrk spent on Z: form Sigma_hat, start over
            moments.sigma
    if not closed:
        basis, h, _ = _lanczos(moments.product, s[None], T, moments.trace)
    s_proj = np.zeros(len(h))
    s_proj[:1] = np.linalg.norm(s)
    return [c @ basis for c in _filtered(filt, h, s_proj, pairs)]


def _filtered(filt: SpectralFilter, op: np.ndarray, s: np.ndarray, pairs) -> list:
    """phi(op) s at each (lam, T) of `pairs` (as filt.resolve gives them) from one eigh of the
    symmetric PSD op (round-off negatives count as 0), after an iterative filter's check_stable."""
    evals, evecs = np.linalg.eigh(op)
    if filt.iterative:
        filt.check_stable(float(evals.max(initial=0.0)))
    evals, coef = np.maximum(evals, 0.0), evecs.T @ s
    return [evecs @ (filt.value(evals, lam, T) * coef) for lam, T in pairs]


def _lanczos(product, start: np.ndarray, rows: int, bound: float):
    """Block Lanczos on the symmetric Sigma that `product(V)` multiplies a block of rows
    by (V Sigma), from the rows of `start`, with full reorthogonalisation (classical
    Gram-Schmidt, twice). Each pass multiplies the block of rows the last one added;
    each row of the product, orthogonalised against every row so far, becomes a new
    row unless its norm is at most eps * bound (bound >= ||Sigma||) or the basis
    already spans R^D. The first row of `start` is kept unless it is 0; any other is
    dropped if what is left of it is at most sqrt(eps) of its norm, as normalising
    such a remainder would amplify its rounding past what the second Gram-Schmidt
    pass removes (kept, they took a start of 32 or 48 rows of a d = 1 Gaussian RFF Z,
    whose span closes at 24 rows, to a basis 1.0 from orthogonal that never closed).
    Dropping a start row costs no exactness: the span still holds the first row, and
    is still checked for closure. Once it has multiplied at least `rows`
    rows, or a pass adds no row (the span is invariant up to rounding), it returns the
    k rows it multiplied, an orthonormal basis V, the k x k banded H = V Sigma V^T, whose
    column j is row j's Gram-Schmidt coefficients on itself and the rows after it,
    and whether the span closed. One row at a time this is Lanczos (Saad 1992)."""
    dim = start.shape[1]
    basis, size, columns = np.empty((min(dim, 32), dim)), 0, []

    def extend(w, tol):
        """Orthogonalise w in place and append it as a row if its norm exceeds tol; its
        coefficients on the rows so far, and its norm if it was appended."""
        nonlocal basis, size
        done = basis[:size]
        proj = done @ w
        w -= proj @ done
        again = done @ w  # the second pass keeps V orthonormal to rounding
        w -= again @ done
        coef, coupling = proj + again, float(np.linalg.norm(w))
        if coupling > tol and size < dim:
            if size == len(basis):  # doubled as it fills, as the span usually closes early:
                # a basis allocated at full size raised a two-worker heatmap's peak RSS by 1.3 MB
                basis = np.concatenate([basis, np.empty((min(size, dim - size), dim))])
            basis[size] = w / coupling
            size += 1
            coef = np.append(coef, coupling)
        return coef

    extend(start[0].copy(), 0.0)
    for w in start[1:]:
        extend(w.copy(), np.sqrt(np.finfo(float).eps) * float(np.linalg.norm(w)))
    rounding, k = np.finfo(float).eps * bound, 0
    while k < min(rows, size):
        end = size
        for j, w in zip(range(k, end), product(basis[k:end])):
            columns.append(extend(w, rounding)[j:])
        k = end
    h = np.zeros((k, k))
    for j, column in enumerate(columns):
        column = column[: k - j]
        h[j : j + len(column), j] = h[j, j : j + len(column)] = column
    return basis[:k], h, k == size


def predict(model: RfModel, X: np.ndarray) -> np.ndarray:
    """Z @ theta, embedding X one tile of max(1, features.COS_CHUNK // D) rows at a
    time; a D x k theta gives n x k. A tile's embedding is at most the COS_CHUNK
    floats the cosine loop works in (0.5 MB), so its product reads it from cache, and
    a prediction holds one tile and the output, never the n x D embedding.

    X is checked whole before its first tile (features.check_input: n x d with
    finite entries); an X with no rows is one empty tile.
    """
    X = check_input(model.map, X)
    rows = max(1, features.COS_CHUNK // model.map.embedding_dim)
    tiles = [X[start : start + rows] for start in range(0, len(X), rows)] or [X]
    return np.concatenate([feature_matrix(model.map, tile) @ model.theta for tile in tiles])


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
    """Write `model` to `path` as load_model reads it. A theta that load_model would
    reject (not embedding_dim entries, say a D x k theta, or NaN or inf entries), or
    would give back in another shape (a D x 1 theta), is its ValueError, raised
    before the file is opened, as is a (lam, T, fit_path) that no fit records (_checked_fit)."""
    _checked_fit(model.filter, model.lam, model.iterations, model.fit_path)
    theta = _checked_theta(np.ascontiguousarray(model.theta, dtype="<f8"), model.map)
    payload = {
        "format": MODEL_FORMAT,
        "map": model.map.descriptor(),
        "filter": model.filter.descriptor(),
        "lam": model.lam,
        "iterations": model.iterations,
        "fit_path": model.fit_path,
        "theta_b64": base64.b64encode(theta.tobytes()).decode("ascii"),
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
    lam, iterations = _checked_fit(filt, payload["lam"], payload["iterations"], payload["fit_path"])
    try:
        raw = base64.b64decode(payload["theta_b64"], validate=True)
        theta = np.frombuffer(raw, dtype="<f8").copy()
    except (TypeError, ValueError):  # not a string, not base64, or not whole float64s
        raise ValueError("model theta_b64 is not the base64 of float64 values") from None
    _checked_theta(theta, feature_map)
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


def _checked_fit(filt: SpectralFilter, lam, iterations, fit_path) -> tuple[float, int | None]:
    """filt.resolve(lam, iterations), if a fit could have recorded (lam, iterations,
    fit_path): every fit records filt.resolve(lam) or filt.resolve(iterations=T), and
    only an iterative filter fits on the iterative path. The one check of a model's
    fit that save_model and load_model share."""
    lam, iterations = filt.resolve(real_number(lam, "lam"), iterations)
    if fit_path not in ("spectral", "iterative"):
        raise ValueError(f"fit_path must be spectral or iterative, not {fit_path!r}")
    if fit_path == "iterative" and not filt.iterative:
        raise ValueError(f"fit_path iterative needs an iterative filter, not {filt.name}")
    if filt.iterative:
        (_, steps), (lam_of_t, _) = filt.resolve(lam), filt.resolve(iterations=iterations)
        if iterations != steps and lam != lam_of_t:
            raise ValueError(f"lam = {lam!r} and iterations = {iterations} are not a fit's pair: "
                             f"{filt.name} resolves lam to T = {steps} and T to lam = {lam_of_t!r}")
    return lam, iterations


def _checked_theta(theta: np.ndarray, feature_map: FeatureMap) -> np.ndarray:
    """theta, if it is 1-d with the map's embedding_dim finite entries; the one check
    of a model's theta that save_model and load_model share."""
    dim = feature_map.embedding_dim
    if theta.size != dim:
        raise ValueError(f"model theta has {theta.size} entries, its map's embedding_dim is {dim}")
    if theta.ndim != 1:
        raise ValueError(f"model theta must be 1-d, not of shape {theta.shape}")
    if not np.isfinite(theta).all():
        raise ValueError("model theta has NaN or inf entries")
    return theta
