"""Random and deterministic finite-rank feature maps.

A feature map embeds inputs into R^(p*M) so that the Euclidean inner
product of two embeddings is a Monte Carlo estimate (exact, for the
finite-rank designer map) of a kernel with an integral representation.
"""
from __future__ import annotations

import inspect
import numbers
from dataclasses import dataclass, field

import numpy as np

GAUSSIAN_RFF = "gaussian_rff"
NTK_ONE_LAYER = "ntk_one_layer"
DESIGNER_FINITE_RANK = "designer_finite_rank"

# kind -> {param: default}: the one place that says which params a kind reads, their
# defaults and what descriptor() writes. A param whose default is a float is read
# through real_number. A designer map takes eigenvalues or decay_exponent, not both:
# decay_exponent only generates eigenvalues j^(-1/decay_exponent), so the built map's
# params, and its descriptor, hold the eigenvalues alone.
PARAMS = {
    GAUSSIAN_RFF: {"bandwidth": 1.0},
    NTK_ONE_LAYER: {"activation": "relu", "tau": 1.0, "gamma": 1.0, "rho_max": 10.0},
    DESIGNER_FINITE_RANK: {"eigenvalues": None, "decay_exponent": 1.0},
}
ACTIVATIONS = ("relu", "tanh", "identity")

# empirical kappa^2 bounds for unbounded activations get this headroom
NTK_KAPPA_MARGIN = 1.1
DEFAULT_MEMORY_BUDGET = 2 * 1024**3  # bytes


class MemoryBudgetError(RuntimeError):
    """Raised when an operation would allocate past the configured budget."""


def whole_number(value, name: str, least: int = 1) -> int:
    """`value` as an int, or a ValueError naming `name` unless it is an integer
    (an integral float such as 64.0 counts; a bool does not) of at least `least`."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and float(value).is_integer() and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, not {value!r}")
    return int(value)


def real_number(value, name: str) -> float:
    """`value` as a float, or a ValueError naming `name` unless it is a finite
    real number (an int or a float; a bool, a string, NaN or inf is not)."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and np.isfinite(value)):
        raise ValueError(f"{name} must be a real number, not {value!r}")
    return float(value)


def check_object(given, where: str) -> dict:
    """`given`, or a ValueError naming `where` when it is not a JSON object."""
    if not isinstance(given, dict):
        kind = "null" if given is None else type(given).__name__
        raise ValueError(f"{where} must be a JSON object, not {kind}")
    return given


def check_keys(given: dict, where: str, required, optional, taker: str) -> None:
    """Raise ValueError when `given` is not a JSON object, or naming its keys outside
    required + optional, which `taker` does not take, or the required keys it lacks."""
    unknown = sorted(set(check_object(given, where)) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"{where} keys not taken by {taker}: {', '.join(unknown)}")
    missing = [key for key in required if key not in given]
    if missing:
        raise ValueError(f"{where} is missing required keys: {', '.join(missing)}")


def call_checked(fn, conf: dict, where: str, **fixed):
    """fn(**conf, **fixed), once conf's keys are checked against fn's
    parameters other than the caller's own `fixed` ones."""
    params = [p for p in inspect.signature(fn).parameters.values() if p.name not in fixed]
    required = [p.name for p in params if p.default is p.empty]
    check_keys(conf, where, required, [p.name for p in params], fn.__name__)
    return fn(**conf, **fixed)


@dataclass(frozen=True)
class FeatureMap:
    """Immutable sampled feature map; frequencies are fully seed-determined."""

    kind: str
    input_dim: int
    num_samples: int
    component_count: int
    params: dict
    seed: int
    frequencies: np.ndarray = field(repr=False)
    phases: np.ndarray | None = field(repr=False)
    kappa_sq: float
    kappa_certified: bool

    @property
    def embedding_dim(self) -> int:
        return self.component_count * self.num_samples

    def descriptor(self) -> dict:
        """JSON-serializable descriptor; frequencies regenerate from the seed."""
        params = dict(self.params)
        if "eigenvalues" in params:
            params["eigenvalues"] = [float(v) for v in params["eigenvalues"]]
        return {
            "kind": self.kind,
            "input_dim": self.input_dim,
            "num_samples": self.num_samples,
            "params": params,
            "seed": self.seed,
        }


def designer_basis(num_funcs: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal cosine basis on L^2([0,1]): e_1 = 1, e_j = sqrt(2) cos((j-1) pi x)."""
    x = np.atleast_1d(np.asarray(x, dtype=float)).reshape(-1)
    out = np.outer(x, np.arange(num_funcs))
    out *= np.pi
    np.cos(out, out=out)
    out *= np.sqrt(2.0)
    out[:, 0] = 1.0
    return out


def designer_norms(num_funcs: int) -> np.ndarray:
    """(1, sqrt 2, ..., sqrt 2): column a of designer_basis is norms[a] * cos(a pi x)."""
    out = np.full(num_funcs, np.sqrt(2.0))
    out[0] = 1.0
    return out


def _rotations(start, angle: np.ndarray, count: int) -> np.ndarray:
    """start * exp(i k angle) for k < count, as the rows of a complex array, by the
    rotation z_(k+1) = z_k exp(i angle): one complex exponential per angle."""
    z = np.empty((count, *np.broadcast_shapes(np.shape(start), angle.shape)), dtype=complex)
    z[0] = start
    step = np.exp(1j * angle)
    for k in range(1, count):
        np.multiply(z[k - 1], step, out=z[k])
    return z


def _cosine_tables(num_freqs: int, x: np.ndarray, start=1.0):
    """Angle-addition tables of the cosines cos(k pi x) for k < num_freqs, for B the
    least power of two with B^2 >= num_freqs and A = ceil(num_freqs / B).

    hi[a] = start * exp(i a B pi x) for a < A (start may be a w x n array of weight
    columns) and lo[b] = exp(-i b pi x) for b < B, each filled by rotation: two
    complex exponentials a row, not one trig call per entry. Both are returned as
    float views, whose last axis holds the (real, imaginary) pairs of the n rows, so
    the dot product of the pairs hi[a] and lo[b] is start * cos((a B + b) pi x)."""
    B = 1
    while B * B < num_freqs:
        B *= 2
    A = -(-num_freqs // B)
    px = np.pi * np.asarray(x, dtype=float).reshape(-1)
    return _rotations(start, B * px, A).view(float), _rotations(1.0, -px, B).view(float)


def cosine_sums(num_freqs: int, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i weights[i, w] cos(k pi x_i) for k < num_freqs, as a (w, num_freqs) array:
    one GEMM over one table set whose hi rotations start from the weight columns."""
    n = np.size(x)
    weights = np.asarray(weights, dtype=float).reshape(n, -1)
    hi, lo = _cosine_tables(num_freqs, x, weights.T)
    A, w, B = hi.shape[0], weights.shape[1], lo.shape[0]
    sums = hi.reshape(A * w, 2 * n) @ lo.T  # row a * w + v: weight column v
    return sums.reshape(A, w, B).transpose(1, 0, 2).reshape(w, A * B)[:, :num_freqs]


def designer_series(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j coeffs_j e_j(x), which is designer_basis(len(coeffs), x) @ coeffs, from
    the angle-addition tables: one GEMM and no n x len(coeffs) basis."""
    coeffs = np.asarray(coeffs, dtype=float)
    hi, lo = _cosine_tables(coeffs.size, x)
    A, B = hi.shape[0], lo.shape[0]
    grid = np.zeros(A * B)
    grid[: coeffs.size] = designer_norms(coeffs.size) * coeffs
    # grid[a, b] is the coefficient of cos((a B + b) pi x)
    partial = grid.reshape(A, B) @ lo
    # the sum over a of the dot products of the pairs hi[a] and partial[a]
    return np.einsum("ak,ak->k", hi, partial).reshape(-1, 2).sum(axis=1)


def _validate_designer_eigenvalues(mu, rank: int) -> np.ndarray:
    try:
        mu = np.asarray(mu, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"designer eigenvalues must be a list of numbers, not {mu!r}") from None
    if mu.ndim != 1 or mu.size != rank:
        raise ValueError(f"expected {rank} eigenvalues, got shape {mu.shape}")
    if not (np.isfinite(mu).all() and np.all(mu > 0)):
        raise ValueError("designer eigenvalues must be finite and strictly positive")
    if np.any(np.diff(mu) > 0):
        raise ValueError("designer eigenvalues must be non-increasing")
    return mu


def sample_feature_map(
    kind: str, input_dim: int, num_samples: int, params: dict, seed: int
) -> FeatureMap:
    """Draw the map's frequencies from its sampling measure, seeded; `params` overrides
    the kind's defaults in PARAMS. The designer map's "frequencies" are the
    deterministic index set 1..rank; its seed is recorded but unused."""
    if not isinstance(kind, str) or kind not in PARAMS:
        raise ValueError(f"unknown feature map kind {kind!r}")
    input_dim = whole_number(input_dim, "input_dim")
    num_samples = whole_number(num_samples, "num_samples")
    seed = whole_number(seed, "feature map seed", least=0)
    check_keys(params, "feature map params", (), PARAMS[kind], kind)
    if "eigenvalues" in params and "decay_exponent" in params:
        raise ValueError("designer map takes eigenvalues or decay_exponent, not both")
    params = {**PARAMS[kind], **params}
    for key, default in PARAMS[kind].items():
        if isinstance(default, float):
            params[key] = real_number(params[key], f"{kind} param {key}")
    rng = np.random.default_rng(seed)
    phases, count, certified = None, 1, True

    if kind == GAUSSIAN_RFF:
        bandwidth = params["bandwidth"]
        with np.errstate(over="ignore", divide="ignore"):  # reported next, naming the bandwidth
            freqs = rng.standard_normal((num_samples, input_dim)) / bandwidth
        if bandwidth <= 0 or not np.isfinite(freqs).all():
            raise ValueError(f"bandwidth must be positive with finite frequencies, not {bandwidth!r}")
        phases = rng.uniform(0.0, 2.0 * np.pi, num_samples)
        kappa_sq = 2.0
    elif kind == NTK_ONE_LAYER:
        tau, gamma, rho_max = params["tau"], params["gamma"], params["rho_max"]
        if params["activation"] not in ACTIVATIONS:
            raise ValueError(f"unknown activation {params['activation']!r}")
        if tau < 0 or gamma < 0 or rho_max <= 0:
            raise ValueError("tau, gamma must be >= 0 and rho_max > 0")
        overflow = f"kappa_sq overflows: tau={tau}, gamma={gamma}, rho_max={rho_max}"
        try:  # a float power past the double range raises OverflowError
            tau_sq, gamma_sq, rho_sq = tau**2, gamma**2, rho_max**2
        except OverflowError:
            raise ValueError(overflow) from None
        freqs = rng.standard_normal((num_samples, input_dim))
        count = input_dim + 2
        if params["activation"] == "tanh":
            # sup|tanh| = sup|tanh'| = 1 on any domain
            kappa_sq = tau_sq * rho_sq + 1.0 + tau_sq * gamma_sq
        else:
            # relu/identity: sigma' is in {0,1} resp. 1, |sigma(w.x)| <= |w.x|
            # <= ||w|| rho_max; per-frequency empirical bound, reported only
            sup_wx_sq = float(np.max(np.sum(freqs**2, axis=1))) * rho_sq
            kappa_sq = NTK_KAPPA_MARGIN * (tau_sq * rho_sq + sup_wx_sq + tau_sq * gamma_sq)
            certified = False
        if not np.isfinite(kappa_sq):  # finite squares, infinite products (tau = 1e154)
            raise ValueError(overflow)
    else:
        if input_dim != 1:
            raise ValueError("designer map is defined on X = [0,1], input_dim must be 1")
        decay = params.pop("decay_exponent")
        if decay <= 0:
            raise ValueError(f"decay_exponent must be positive, not {decay!r}")
        freqs = np.arange(1, num_samples + 1, dtype=float)
        mu = freqs ** (-1.0 / decay) if params["eigenvalues"] is None else params["eigenvalues"]
        params["eigenvalues"] = mu = _validate_designer_eigenvalues(mu, num_samples)
        with np.errstate(over="ignore"):  # sup e_1^2 = 1, sup e_j^2 = 2; an overflow is reported next
            kappa_sq = float(np.sum(mu * np.where(freqs == 1, 1.0, 2.0)))
        if not np.isfinite(kappa_sq):
            raise ValueError(f"kappa_sq overflows: designer eigenvalues sum to {kappa_sq}")
    return FeatureMap(kind, input_dim, num_samples, count, params, seed, freqs, phases, kappa_sq, certified)


def check_input(feature_map: FeatureMap, X) -> np.ndarray:
    """X as a float array, or a ValueError unless it is n x input_dim (or has no rows)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or (X.shape[0] > 0 and X.shape[1] != feature_map.input_dim):
        raise ValueError(
            f"expected n x {feature_map.input_dim} input, got shape {X.shape}"
        )
    return X


def ntk_projection(feature_map: FeatureMap, X: np.ndarray) -> np.ndarray:
    """The n x M pre-activations X W^T of an NTK map, or a ValueError when a row
    of X lies outside the ball of radius rho_max that kappa_sq is bounded on."""
    rho_max = feature_map.params["rho_max"]
    if np.any(np.linalg.norm(X, axis=1) > rho_max):
        raise ValueError(f"NTK input norm exceeds rho_max = {rho_max}")
    return X @ feature_map.frequencies.T


def ntk_factor(feature_map: FeatureMap, X: np.ndarray) -> np.ndarray:
    """The n x (d+1)M factor Y = [x_1 * D', ..., x_d * D', D'], D' = act'(X W^T), of a
    relu or identity NTK map, for an n x d array X. As act(p) = p act'(p), the map's
    embedding is Z = Y L / sqrt(M), with L made of diagonal blocks: x block a of Z is
    tau Y_a, the act block sum_a Y_a diag(W[:, a]) and the bias block tau gamma Y_d."""
    proj = ntk_projection(feature_map, X)
    n, M = proj.shape
    d = feature_map.input_dim
    Y = np.empty((n, d + 1, M))
    if feature_map.params["activation"] == "relu":
        np.greater(proj, 0.0, out=Y[:, d])  # act'(0) := 0, as in feature_matrix
    else:
        Y[:, d] = 1.0
    np.multiply(X[:, :, None], Y[:, d:], out=Y[:, :d])
    return Y.reshape(n, -1)


def _factored(feature_map: FeatureMap) -> bool:
    """Whether the map's moments come from ntk_factor: a relu or identity NTK map."""
    return feature_map.kind == NTK_ONE_LAYER and feature_map.params["activation"] != "tanh"


def moment_statistics(feature_map: FeatureMap, X: np.ndarray, y: np.ndarray) -> tuple:
    """Statistics of the rows X, y that add up over row blocks; divided by the number
    of rows, they are what moments_from_means reads. A designer map gives the 2m - 1
    sums c_k = sum_i cos(k pi x_i) and d_k = sum_i y_i cos(k pi x_i), from one table
    set; a relu or identity NTK map gives (Y^T Y, Y^T y) of its factor Y (ntk_factor);
    every other map gives (Z^T Z, Z^T y) of its embedding. numpy sends F.T @ F to syrk."""
    if feature_map.kind == DESIGNER_FINITE_RANK:
        K = 2 * feature_map.num_samples - 1
        return tuple(cosine_sums(K, X[:, 0], np.column_stack((np.ones_like(y), y))))
    F = ntk_factor(feature_map, X) if _factored(feature_map) else feature_matrix(feature_map, X)
    return F.T @ F, F.T @ y


def moments_from_means(feature_map: FeatureMap, means: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(Sigma_hat, s_hat) from the row means of moment_statistics, in O(D^2).

    Designer: Z = E diag(v) with E[i, a] = cos(a pi x_i) and v = sqrt(mu) * (1, sqrt 2,
    ..., sqrt 2), and cos(a t) cos(b t) = (cos((a-b) t) + cos((a+b) t)) / 2, so
    Sigma_hat = v v^T * P with P[a, b] = (c_|a-b| + c_(a+b)) / 2, Toeplitz plus Hankel
    in the mean sums c, and s_hat = v * d[:m]. Relu or identity NTK: Z = Y L / sqrt(M),
    so Sigma_hat = L^T G L / M for G the mean Y^T Y, from diagonal scalings of its
    M x M blocks; the blocks above the diagonal are computed and mirrored. Either way
    Sigma_hat is exactly symmetric, as a syrk's. Any other map: the means are the
    moments."""
    if feature_map.kind == DESIGNER_FINITE_RANK:
        c, d = means
        m = feature_map.num_samples
        windows = np.lib.stride_tricks.sliding_window_view
        toeplitz = windows(np.concatenate((c[m - 1 : 0 : -1], c[:m])), m)[::-1]  # c_|a-b|
        hankel = windows(c, m)  # c_(a+b)
        v = np.sqrt(feature_map.params["eigenvalues"]) * designer_norms(m)
        gram = toeplitz + hankel
        gram *= 0.5 * np.outer(v, v)
        return gram, v * d[:m]
    if not _factored(feature_map):
        return means
    W = feature_map.frequencies
    M, d = W.shape
    tau = feature_map.params["tau"]
    bias = tau * feature_map.params["gamma"]
    G = means[0].reshape(d + 1, M, d + 1, M) / M
    r = means[1].reshape(d + 1, M) / np.sqrt(M)
    H = np.einsum("im,mikj->kij", W, G[:d])  # H[k] = sum_m diag(W[:, m]) G_mk: act rows
    act = np.einsum("kij,jk->ij", H[:d], W)  # sum_k H[k] diag(W[:, k])
    gram = np.empty(((d + 2) * M, (d + 2) * M))
    blocks = gram.reshape(d + 2, M, d + 2, M)
    np.multiply(G[:d, :, :d], tau * tau, out=blocks[:d, :, :d])
    np.multiply(H[:d].transpose(0, 2, 1), tau, out=blocks[:d, :, d])
    np.multiply(G[:d, :, d], tau * bias, out=blocks[:d, :, d + 1])
    blocks[d, :, d] = np.triu(act) + np.triu(act, 1).T
    np.multiply(H[d], bias, out=blocks[d, :, d + 1])
    np.multiply(G[d, :, d], bias * bias, out=blocks[d + 1, :, d + 1])
    for k in (d, d + 1):  # mirror the blocks above the diagonal
        gram[k * M : (k + 1) * M, : k * M] = gram[: k * M, k * M : (k + 1) * M].T
    zy = np.concatenate((tau * r[:d].reshape(-1), np.einsum("im,mi->i", W, r[:d]), bias * r[d]))
    return gram, zy


def feature_matrix(feature_map: FeatureMap, X: np.ndarray) -> np.ndarray:
    """Stack embeddings of the rows of X into an n x (p*M) matrix.

    The output is the only n x (p*M) allocation: every map writes into it in
    place. Its size is checked against DEFAULT_MEMORY_BUDGET, read at call time.
    """
    X = check_input(feature_map, X)
    n = X.shape[0]
    needed = n * feature_map.embedding_dim * 8
    if needed > DEFAULT_MEMORY_BUDGET:
        raise MemoryBudgetError(
            f"feature matrix needs {needed} bytes, budget is {DEFAULT_MEMORY_BUDGET}"
        )
    if n == 0:
        return np.zeros((0, feature_map.embedding_dim))
    scale = 1.0 / np.sqrt(feature_map.num_samples)
    if feature_map.kind == GAUSSIAN_RFF:
        proj = X @ feature_map.frequencies.T
        proj += feature_map.phases
        np.cos(proj, out=proj)
        proj *= scale * np.sqrt(2.0)
        return proj

    if feature_map.kind == DESIGNER_FINITE_RANK:
        mu = feature_map.params["eigenvalues"]
        # deterministic features sqrt(mu_j) e_j(x); no Monte Carlo scaling
        out = designer_basis(feature_map.num_samples, X[:, 0])
        out *= np.sqrt(mu)
        return out

    # NTK: components tau*x_i*act'(w.x) for i in [d], act(w.x), tau*gamma*act'(w.x)
    activation = feature_map.params["activation"]
    tau = feature_map.params["tau"]
    gamma = feature_map.params["gamma"]
    proj = ntk_projection(feature_map, X)
    if activation == "relu":
        act = np.maximum(proj, 0.0)
        dact = (proj > 0).astype(float)  # act'(0) := 0
    elif activation == "tanh":
        act = np.tanh(proj)
        dact = 1.0 - act**2
    else:
        act = proj
        dact = np.ones_like(proj)
    M = proj.shape[1]
    d = feature_map.input_dim
    out = np.empty((n, (d + 2) * M))
    for i in range(d):
        np.multiply(tau * X[:, i : i + 1], dact, out=out[:, i * M : (i + 1) * M])
    out[:, d * M : (d + 1) * M] = act
    np.multiply(tau * gamma, dact, out=out[:, (d + 1) * M :])
    out *= scale
    return out
