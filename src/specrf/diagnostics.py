"""Exact reference quantities: designer problems and reference kernels.

A designer problem fixes a finite-rank kernel with known eigenpairs and a
target on the range of a power of its integral operator, so bias,
variance, excess risk and effective dimension are exact finite sums in
coefficient space -- no quadrature anywhere. The reference kernels give
dense gram matrices and the dual-form ridge solve
alpha = (K + lambda*n*I)^{-1} y that the random-feature fits are checked
against.
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
    check_input,
    designer_series,
    feature_matrix,
    real_number,
    sample_feature_map,
    whole_number,
)
from .filters import SpectralFilter

SUP_NORM_GRID = 2001  # points of the [0,1] grid sup_norm_f_star maximizes over
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

    h is the normalized weights z_j = 1/j scaled to norm R.
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
    ROW_BLOCK x 2(A + B) floats however large n is, for B the least power of two
    with B^2 >= J and A = ceil(J / B), with no ROW_BLOCK x J basis.
    """
    n, seed = whole_number(n, "n"), whole_number(seed, "seed", least=0)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n)
    y = np.empty(n)
    for start in range(0, n, ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        y[rows] = designer_series(problem.g_coeffs, x[rows])
    if problem.noise_std > 0:
        y += problem.noise_std * rng.standard_normal(n)
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
    """Exact L2 excess risk of a designer fit, split into bias and variance."""
    if model.map.kind != DESIGNER_FINITE_RANK:
        raise ValueError("excess_risk_exact needs a designer feature map")
    m = model.map.num_samples
    mu = problem.eigenvalues
    if m > problem.rank or not np.allclose(
        model.map.params["eigenvalues"], mu[:m], rtol=1e-12, atol=0.0
    ):
        raise ValueError("model map is not a truncation of this problem's map")
    coeffs = np.zeros(problem.rank)
    coeffs[:m] = np.sqrt(mu[:m]) * model.theta  # designer features are sqrt(mu_j) e_j
    star, bias = compute_f_star(problem, model.filter, model.lam, model.iterations)
    total = float(np.linalg.norm(problem.g_coeffs - coeffs))
    variance = float(np.linalg.norm(star - coeffs))
    return {"total": total, "bias": bias, "variance": variance}


def sup_norm_f_star(
    problem: DesignerProblem,
    filt: SpectralFilter,
    lam: float | None,
    iterations: int | None = None,
) -> dict:
    """Sup norm of S f*_lambda on [0,1] against its monitored bound at the resolved lambda."""
    lam, iterations = filt.resolve(lam, iterations)
    coeffs, _ = compute_f_star(problem, filt, lam, iterations)
    grid = np.linspace(0.0, 1.0, SUP_NORM_GRID)
    values = designer_series(coeffs, grid)
    sup = float(np.max(np.abs(values)))
    kappa = math.sqrt(problem.map.kappa_sq)
    bound = (
        2.0
        * kappa ** (2.0 * problem.r + 1.0)
        * problem.R
        * filt.D
        * lam ** (-max(0.5 - problem.r, 0.0))
    )
    return {
        "value": sup,
        "bound": bound,
        "lam": lam,
        "within_bound": bool(sup <= bound),
        "status": "monitored",
    }


class MonteCarloKernel:
    """The kernel K_M = <z(x), z(y)> of a feature map; with a high sample
    count it serves as a sampled reference kernel."""

    def __init__(self, feature_map: FeatureMap):
        self.feature_map = feature_map

    def gram(self, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
        """K(X, Y) over the rows of X and Y; K(X, X), with X embedded once, when
        Y is None. Each side must be n x input_dim (features.check_input) with
        n <= GRAM_N_CAP."""
        sides = [check_input(self.feature_map, A) for A in ((X,) if Y is None else (X, Y))]
        rows = max(A.shape[0] for A in sides)
        if rows > GRAM_N_CAP:
            raise MemoryBudgetError(f"gram capped at n <= {GRAM_N_CAP}, got n = {rows}")
        Z = [feature_matrix(self.feature_map, A) for A in sides]
        return Z[0] @ Z[-1].T


class DesignerKernel(MonteCarloKernel):
    """Finite-rank kernel sum_j mu_j e_j(x) e_j(y) on X = [0,1]: the Gram of the
    designer map with these eigenvalues, exact because the map has finite rank.
    The eigenvalues follow the map's rule: finite, positive, non-increasing."""

    def __init__(self, eigenvalues: np.ndarray):
        params = {"eigenvalues": eigenvalues}
        super().__init__(sample_feature_map(DESIGNER_FINITE_RANK, 1, np.size(eigenvalues), params, 0))


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
