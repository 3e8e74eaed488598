"""Exact reference quantities: designer problems and the designer kernel.

A designer problem fixes a finite-rank kernel with known eigenpairs and a
target on the range of a power of its integral operator, so bias,
variance, excess risk and effective dimension are exact finite sums in
coefficient space -- no quadrature anywhere. DesignerKernel gives that
kernel's dense gram matrix, and krr_gram_fit the dual-form ridge solve
alpha = (K + lambda*n*I)^{-1} y of any kernel with a gram, that the
random-feature fits are checked against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import ROW_BLOCK, RfModel
from .features import (
    DESIGNER_FINITE_RANK,
    FeatureMap,
    MemoryBudgetError,
    check_budget,
    check_input,
    designer_series,
    designer_series_floats,
    feature_matrix,
    real_number,
    sample_feature_map,
    whole_number,
)
from .filters import SpectralFilter

GRAM_N_CAP = 5000


def check_easy_regime(r: float, b: float) -> None:
    """The one home of the regime rule: the rates, and the lambda and M schedules that
    reach them, hold for 2r + b > 1 only (the easy-learning regime)."""
    if 2.0 * r + b <= 1.0:
        raise ValueError(f"2r + b = {2 * r + b:.3g} <= 1: hard-learning regime not supported")


@dataclass(frozen=True)
class DesignerProblem:
    map: FeatureMap
    b: float
    r: float
    R: float
    h_coeffs: np.ndarray
    g_coeffs: np.ndarray
    noise_std: float
    seed: int

    @property
    def rank(self) -> int:
        return self.map.num_samples

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.map.params["eigenvalues"]

    def truncated_map(self, num_features: int) -> FeatureMap:
        """Designer map restricted to the leading eigenpairs."""
        m = min(int(num_features), self.rank)
        if m < 1:
            raise ValueError("need at least one feature")
        params = {"eigenvalues": self.eigenvalues[:m]}
        return sample_feature_map(DESIGNER_FINITE_RANK, 1, m, params, self.seed)


def make_designer_problem(
    J: int,
    b: float,
    r: float,
    R: float = 1.0,
    noise_std: float = 0.1,
    seed: int = 0,
    eigenvalue_scale: float = 1.0,
) -> DesignerProblem:
    """Finite-rank problem with mu_j = scale * j^(-1/b) and g = L^r h.

    h is the normalized weights z_j = 1/j scaled to norm R. The J-length arrays are
    checked against the memory budget before any is made: eight of J floats at the
    peak, the map's included (7.1 measured at large J).
    """
    J = whole_number(J, "rank J", least=2)
    seed = whole_number(seed, "designer seed", least=0)
    b, r, R = real_number(b, "designer b"), real_number(r, "designer r"), real_number(R, "designer R")
    noise_std = real_number(noise_std, "designer noise_std")
    eigenvalue_scale = real_number(eigenvalue_scale, "designer eigenvalue_scale")
    if not 0.0 < b <= 1.0:
        raise ValueError("b must lie in (0, 1]")
    if r <= 0 or R <= 0 or eigenvalue_scale <= 0:
        raise ValueError("r, R and eigenvalue_scale must be positive")
    if noise_std < 0:
        raise ValueError("noise_std must be >= 0")
    check_easy_regime(r, b)
    check_budget(8 * J * 8, f"designer problem of rank J = {J}")
    j = np.arange(1, J + 1, dtype=float)
    mu = eigenvalue_scale * j ** (-1.0 / b)
    z = 1.0 / j
    h = R * z / np.linalg.norm(z)
    g = mu**r * h
    fmap = sample_feature_map(DESIGNER_FINITE_RANK, 1, J, {"eigenvalues": mu}, seed)
    return DesignerProblem(
        map=fmap, b=b, r=r, R=R, h_coeffs=h, g_coeffs=g, noise_std=noise_std, seed=seed
    )


def sample_dataset(
    problem: DesignerProblem, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """x ~ Uniform[0,1] i.i.d., y = g(x) + Gaussian noise; seed-determined.

    All n uniforms are drawn before the n normals. g(x) is the designer series
    (features.designer_series), evaluated ROW_BLOCK rows at a time from
    angle-addition tables filled by rotation: 2 complex exponentials a row, and
    ROW_BLOCK x 2(2A + B) floats however large n is, for B the least power of two
    with B^2 >= J and A = ceil(J / B), with no ROW_BLOCK x J basis. The budget
    check counts the peak: x, y and either one block's series or the noise.
    """
    n, seed = whole_number(n, "n"), whole_number(seed, "seed", least=0)
    series = designer_series_floats(problem.g_coeffs.size, min(n, ROW_BLOCK))
    check_budget((2 * n + max(n, series)) * 8, "designer dataset")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n)
    y = np.empty(n)
    for start in range(0, n, ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        y[rows] = designer_series(problem.g_coeffs, x[rows])
    if problem.noise_std > 0:
        noise = rng.standard_normal(n)
        with np.errstate(over="ignore"):  # an infinite label is reported where a fit checks them
            noise *= problem.noise_std
        y += noise
    return x[:, None], y


def effective_dimension(eigenvalues: np.ndarray, lam: float) -> float:
    """N(lam) = sum_j mu_j / (mu_j + lam)."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if np.any(eigenvalues < 0):
        raise ValueError("eigenvalues must be nonnegative")
    return float(np.sum(eigenvalues / (eigenvalues + lam)))


def compute_f_star(
    problem: DesignerProblem,
    filt: SpectralFilter,
    lam: float,
    iterations: int | None = None,
) -> tuple[np.ndarray, float]:
    """Population-filtered target: coefficients of S f*_lambda and the exact bias.

    coefficient_j = mu_j phi_lambda(mu_j) g_j, bias = ||g - S f*||_{L2}. An iterative
    filter must be stable at the top eigenvalue mu_1 (check_stable).
    """
    mu = problem.eigenvalues
    if filt.iterative:
        filt.check_stable(float(mu[0]))
    phi = filt.value(mu, lam, iterations)
    coeffs = mu * phi * problem.g_coeffs
    residual = 1.0 - mu * phi
    bias = float(np.sqrt(np.sum((residual * problem.g_coeffs) ** 2)))
    return coeffs, bias


def excess_risk_exact(problem: DesignerProblem, model: RfModel) -> dict:
    """L2 excess risk of a designer fit: `total` = ||g - f||, with `bias` and `variance`.

    Every designer map has the cosine basis e_j of the problem, and its features are
    sqrt(w_j) e_j for the map's own eigenvalues w, so a fit of rank m <= J predicts
    f = sum_j sqrt(w_j) theta_j e_j and `total` is exact for any such fit, whatever its
    w. `bias` = ||g - S f*_lambda|| and `variance` = ||S f*_lambda - f|| refer to the
    problem's population filter (compute_f_star) at the fit's lambda and T."""
    if model.map.kind != DESIGNER_FINITE_RANK:
        raise ValueError("excess_risk_exact needs a designer feature map")
    m = model.map.num_samples
    if m > problem.rank:
        raise ValueError(f"model map has rank {m}, above the problem's rank J = {problem.rank}")
    coeffs = np.zeros(problem.rank)
    coeffs[:m] = np.sqrt(model.map.params["eigenvalues"]) * model.theta
    star, bias = compute_f_star(problem, model.filter, model.lam, model.iterations)
    total = float(np.linalg.norm(problem.g_coeffs - coeffs))
    variance = float(np.linalg.norm(star - coeffs))
    return {"total": total, "bias": bias, "variance": variance}


def proof_bounds(problem: DesignerProblem, filt: SpectralFilter, lam: float) -> dict:
    """The two inequalities the rate proof reads (Bauer, Pereverzev & Rosasco 2007), at
    lambda, for the unit-scale spectrum mu_j = j^(-1/b). `bias_bound` = c_r lambda^r R
    bounds ||g - S f*_lambda|| (source condition), for c_r = filt.declared_cq(r).
    `effective_dimension_bound` bounds N(lambda) = sum_j 1/(1 + lambda j^(1/b))
    (capacity condition) by its integral over [0, J]: ln(1 + lambda J) / lambda at b = 1,
    and at most (pi b / sin(pi b)) lambda^(-b) for b < 1."""
    r, b = problem.r, problem.b
    try:  # a float power past the double range raises OverflowError
        c_r = filt.declared_cq(r)
    except OverflowError:
        raise ValueError(f"c_r of filter {filt.name} overflows the float range at r = {r}") from None
    if b == 1.0:
        capacity = math.log1p(lam * problem.rank) / lam
    else:
        capacity = math.pi * b / math.sin(math.pi * b) * lam ** -b
    return {"bias_bound": c_r * lam**r * problem.R, "effective_dimension_bound": capacity}


class DesignerKernel:
    """Finite-rank kernel sum_j mu_j e_j(x) e_j(y) on X = [0,1]: the Gram of the
    designer map with these eigenvalues, exact because the map has finite rank.
    The eigenvalues follow the map's rule: finite, positive, non-increasing."""

    def __init__(self, eigenvalues: np.ndarray):
        rank, params = np.size(eigenvalues), {"eigenvalues": eigenvalues}
        self.feature_map = sample_feature_map(DESIGNER_FINITE_RANK, 1, rank, params, 0)

    def gram(self, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
        """K(X, Y) = <z(x), z(y)> over the rows of X and Y; K(X, X), with X embedded
        once, when Y is None. Each side must be n x 1 (features.check_input) with
        n <= GRAM_N_CAP."""
        sides = [check_input(self.feature_map, A) for A in ((X,) if Y is None else (X, Y))]
        rows = max(A.shape[0] for A in sides)
        if rows > GRAM_N_CAP:
            raise MemoryBudgetError(f"gram capped at n <= {GRAM_N_CAP}, got n = {rows}")
        Z = [feature_matrix(self.feature_map, A) for A in sides]
        return Z[0] @ Z[-1].T


def krr_gram_fit(kernel, X: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Dual ridge coefficients alpha = (K + lambda*n*I)^{-1} y, for any kernel
    object with gram(X, Y=None)."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    n = X.shape[0]
    if y.size != n:
        raise ValueError("X and y length mismatch")
    return np.linalg.solve(kernel.gram(X) + lam * n * np.eye(n), y)


def krr_predict(kernel, X_train: np.ndarray, alpha: np.ndarray, X_test: np.ndarray) -> np.ndarray:
    """Evaluate x -> sum_i alpha_i k(x_i, x)."""
    return kernel.gram(np.asarray(X_test, dtype=float), np.asarray(X_train, dtype=float)) @ alpha
