import bisect

import numpy as np
import pytest

from reference import GaussianKernel, designer_basis, traced_peak
from specrf import features
from specrf.diagnostics import (
    DesignerKernel,
    compute_f_star,
    effective_dimension,
    excess_risk_exact,
    krr_gram_fit,
    krr_predict,
    make_designer_problem,
    proof_bounds,
    sample_dataset,
)
from specrf.estimator import ROW_BLOCK, fit_spectral, predict
from specrf.features import (
    MemoryBudgetError,
    designer_series,
    sample_feature_map,
)
from specrf.filters import AUDIT_SLACK, DivergenceError, make_filter
from specrf.harness import lambda_schedule, m_schedule


def test_problem_construction_known_coefficients():
    p = make_designer_problem(J=4, b=1.0, r=0.5, noise_std=0.0, seed=3)
    np.testing.assert_allclose(p.eigenvalues, [1.0, 0.5, 1 / 3, 0.25])
    np.testing.assert_allclose(
        p.h_coeffs, [0.83811635, 0.41905818, 0.27937212, 0.20952909], atol=1e-8
    )
    np.testing.assert_allclose(
        p.g_coeffs, [0.83811635, 0.29631888, 0.16129557, 0.10476454], atol=1e-8
    )
    assert np.linalg.norm(p.h_coeffs) == pytest.approx(p.R)


def test_hard_learning_regime_rejected():
    # one rule and one message, for the problem and for the schedules that assume it
    for call in (lambda: make_designer_problem(J=8, b=0.5, r=0.25),
                 lambda: lambda_schedule(100, 0.25, 0.5), lambda: m_schedule(100, 0.25, 0.5)):
        with pytest.raises(ValueError, match=r"^2r \+ b = 1 <= 1: hard-learning regime not supported$"):
            call()


def test_construction_validation():
    with pytest.raises(ValueError):
        make_designer_problem(J=1, b=1.0, r=0.5)
    with pytest.raises(ValueError):
        make_designer_problem(J=4, b=2.0, r=0.5)
    with pytest.raises(ValueError):
        make_designer_problem(J=4, b=1.0, r=-0.5)
    with pytest.raises(ValueError, match="noise_std"):
        make_designer_problem(J=4, b=1.0, r=0.5, noise_std=-1.0)


def test_effective_dimension_small_case():
    assert effective_dimension(np.array([1.0, 0.25]), 0.25) == pytest.approx(1.3)
    with pytest.raises(ValueError):
        effective_dimension(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        effective_dimension(np.array([-1.0]), 0.1)


def test_dataset_seeded_and_noiseless_exact():
    p = make_designer_problem(J=6, b=1.0, r=0.5, noise_std=0.0, seed=0)
    X1, y1 = sample_dataset(p, 50, 11)
    X2, y2 = sample_dataset(p, 50, 11)
    np.testing.assert_array_equal(X1, X2)
    np.testing.assert_array_equal(y1, y2)
    np.testing.assert_allclose(y1, designer_series(p.g_coeffs, X1[:, 0]), atol=1e-13)
    assert X1.min() >= 0.0 and X1.max() <= 1.0
    with pytest.raises(ValueError, match="^n must be an integer >= 1, not 0$"):
        sample_dataset(p, 0, 11)


@pytest.mark.parametrize("J,budget", [(6, 2**20), (6, 8 * 2**20), (512, 2**20), (512, 8 * 2**20)])
def test_dataset_past_the_memory_budget_is_refused_before_it_is_drawn(monkeypatch, J, budget):
    # the check counts the draw's peak, x, y and the larger of the noise and one row block's
    # series: the largest n it admits peaks within 64 KiB of the budget under tracemalloc,
    # and one more row is refused (the noise binds at J = 6 and 8 MiB, the series elsewhere;
    # at J = 512 and 1 MiB, n < ROW_BLOCK)
    p = make_designer_problem(J=J, b=1.0, r=0.5, noise_std=0.1, seed=0)
    monkeypatch.setattr(features, "DEFAULT_MEMORY_BUDGET", budget)
    sample_dataset(p, 10, 0)  # numpy's first-call allocations are not the draw's

    def floats(n):
        return 2 * n + max(n, features.designer_series_floats(J, min(n, ROW_BLOCK)))

    n = bisect.bisect_right(range(budget), budget, key=lambda n: floats(n) * 8) - 1
    (x, y), peak = traced_peak(lambda: sample_dataset(p, n, 0))
    assert x.shape == (n, 1) and y.shape == (n,)
    assert budget - 2**16 <= peak <= budget + 2**16
    named = f"^designer dataset needs {floats(n + 1) * 8} bytes, budget is {budget}$"
    with pytest.raises(MemoryBudgetError, match=named):
        sample_dataset(p, n + 1, 0)


@pytest.mark.parametrize("n,seed,named", [
    (2.5, 11, "n must be an integer >= 1, not 2.5"),
    (True, 11, "n must be an integer >= 1, not True"),
    ("3", 11, "n must be an integer >= 1, not '3'"),
    (50, 2.5, "seed must be an integer >= 0, not 2.5"),
])
def test_dataset_counts_are_whole_numbers(n, seed, named):
    p = make_designer_problem(J=6, b=1.0, r=0.5, noise_std=0.0)
    with pytest.raises(ValueError, match=f"^{named}$"):
        sample_dataset(p, n, seed)
    # an integral float counts, as it does for every other count
    np.testing.assert_array_equal(sample_dataset(p, 50.0, 11.0)[1], sample_dataset(p, 50, 11)[1])


def test_dataset_target_over_row_blocks_is_one_basis_product():
    p = make_designer_problem(J=64, b=1.0, r=0.5, noise_std=0.5, seed=2)
    n = 2 * ROW_BLOCK + 3
    X, y = sample_dataset(p, n, 13)
    rng = np.random.default_rng(13)
    x = rng.uniform(0.0, 1.0, n)
    want = designer_basis(p.rank, x) @ p.g_coeffs + p.noise_std * rng.standard_normal(n)
    np.testing.assert_array_equal(X[:, 0], x)
    # relative to the largest |y|: a block's GEMV may round a y near 0 differently
    assert np.max(np.abs(y - want)) <= 1e-14 * np.max(np.abs(want))


def test_filtered_target_cutoff_bias_is_exact_tail_norm():
    p = make_designer_problem(J=8, b=1.0, r=0.5, noise_std=0.0, seed=0)
    lam = 0.3  # keeps eigenvalues 1, 1/2, 1/3 and drops the rest
    _, bias = compute_f_star(p, make_filter("spectral_cutoff"), lam)
    kept = p.eigenvalues >= lam
    expected = float(np.linalg.norm(p.g_coeffs[~kept]))
    assert bias == pytest.approx(expected, abs=1e-14)


def test_filtered_target_ridge_known_values():
    p = make_designer_problem(J=4, b=1.0, r=0.5, noise_std=0.0, seed=3)
    coeffs, bias = compute_f_star(p, make_filter("tikhonov"), 0.1)
    np.testing.assert_allclose(
        coeffs, [0.76192396, 0.2469324, 0.12407351, 0.07483182], atol=1e-8
    )
    assert bias == pytest.approx(0.10259510240426205, abs=1e-10)


def test_exact_recovery_with_full_rank_features():
    p = make_designer_problem(J=8, b=1.0, r=1.0, noise_std=0.0, seed=0)
    X, y = sample_dataset(p, 400, 5)
    lam = 0.5 * float(p.eigenvalues[-1])
    model = fit_spectral(p.truncated_map(8), X, y, make_filter("spectral_cutoff"), lam=lam)
    risk = excess_risk_exact(p, model)
    assert risk["total"] < 1e-8
    assert risk["bias"] == 0.0


def test_excess_risk_decomposition_triangle():
    p = make_designer_problem(J=16, b=1.0, r=0.5, noise_std=0.2, seed=0)
    X, y = sample_dataset(p, 300, 7)
    model = fit_spectral(p.truncated_map(8), X, y, make_filter("tikhonov"), lam=0.05)
    risk = excess_risk_exact(p, model)
    assert risk["total"] <= risk["bias"] + risk["variance"] + 1e-12


def test_excess_risk_rejects_foreign_map():
    # a map of another kind, or a designer map of rank above J
    p = make_designer_problem(J=8, b=1.0, r=0.5, noise_std=0.0, seed=0)
    X, y = sample_dataset(p, 50, 0)
    rff = sample_feature_map("gaussian_rff", 1, 4, {}, 0)
    model = fit_spectral(rff, X, y, make_filter("tikhonov"), lam=0.1)
    with pytest.raises(ValueError, match="designer"):
        excess_risk_exact(p, model)
    wide = sample_feature_map("designer_finite_rank", 1, 9, {}, 0)
    model = fit_spectral(wide, X, y, make_filter("tikhonov"), lam=0.1)
    with pytest.raises(ValueError, match="model map has rank 9, above the problem's rank J = 8"):
        excess_risk_exact(p, model)


def test_excess_risk_is_exact_for_a_designer_map_of_other_eigenvalues():
    # weights 0.1 are not the problem's 1/j: the squared total matches the mean squared
    # gap between the fit and the noiseless target on a 4096-point midpoint grid, which
    # integrates a cosine series of these degrees exactly
    p = make_designer_problem(J=8, b=1.0, r=0.5, noise_std=0.0, seed=0)
    other = sample_feature_map("designer_finite_rank", 1, 4, {"eigenvalues": np.full(4, 0.1)}, 0)
    X, y = sample_dataset(p, 50, 0)
    model = fit_spectral(other, X, y, make_filter("tikhonov"), lam=0.1)
    grid = (np.arange(4096) + 0.5) / 4096
    gap = predict(model, grid[:, None]) - designer_series(p.g_coeffs, grid)
    total = excess_risk_exact(p, model)["total"]
    assert total > 0.01
    assert total**2 == pytest.approx(np.mean(gap**2), rel=1e-12, abs=1e-15)


def test_truncated_map_is_prefix():
    p = make_designer_problem(J=10, b=0.5, r=1.0, noise_std=0.0, seed=0)
    t = p.truncated_map(4)
    np.testing.assert_array_equal(t.params["eigenvalues"], p.eigenvalues[:4])
    t_full = p.truncated_map(99)
    assert t_full.num_samples == 10
    with pytest.raises(ValueError):
        p.truncated_map(0)


def test_population_filter_rejects_an_unstable_step_size():
    # alpha * mu_1 = 5 >= 2: the filter polynomial at mu_1 grows like 4^T, which gave an
    # inf bias with overflow warnings
    p = make_designer_problem(J=16, b=1.0, r=0.5, eigenvalue_scale=5.0)
    filt = make_filter("landweber", alpha=1.0)
    with pytest.raises(DivergenceError, match=r"^step size 1.0 unstable: alpha \* \|\|Sigma\|\| = 5 >= 2$"):
        compute_f_star(p, filt, 1e-3)
    _, bias = compute_f_star(p, make_filter("landweber", alpha=0.3), 1e-3)  # 0.3 * 5 < 2
    assert np.isfinite(bias)


# r = 0.25 with b = 0.25 or 0.5 is the hard-learning regime, which make_designer_problem refuses
@pytest.mark.parametrize("r,b", [(r, b) for r in (0.25, 0.5, 1.0, 2.0) for b in (0.25, 0.5, 1.0)
                                 if 2 * r + b > 1])
@pytest.mark.parametrize("J", [16, 64, 512])
def test_the_bias_and_the_effective_dimension_keep_within_their_proof_bounds(r, b, J):
    # the two inequalities diagnose checks, over its lambda grid with its filter: bias <= c_r
    # lambda^r R and N(lambda) <= the integral of sum_j 1/(1 + lambda j^(1/b)) over [0, J]
    p = make_designer_problem(J=J, b=b, r=r, noise_std=0.0)
    filt = make_filter("landweber")
    for lam in map(float, np.logspace(-4, 0, 20)):
        bounds = proof_bounds(p, filt, lam)
        assert compute_f_star(p, filt, lam)[1] <= bounds["bias_bound"] + AUDIT_SLACK
        assert effective_dimension(p.eigenvalues, lam) <= bounds["effective_dimension_bound"] + AUDIT_SLACK
    if b < 1:  # at lambda = 1, the integral over [0, inf), which bounds the one over [0, J]
        assert bounds["effective_dimension_bound"] == pytest.approx(np.pi * b / np.sin(np.pi * b), rel=1e-15)


def test_a_designer_problem_past_the_memory_budget_is_refused_before_it_is_made(monkeypatch):
    # eight J-length float arrays: the largest J the budget admits peaks within 64 KiB of it
    # under tracemalloc (8.07 J floats at this J, 7.1 at large J), and J + 1 is refused
    J, budget = 4096, 8 * 4096 * 8
    monkeypatch.setattr(features, "DEFAULT_MEMORY_BUDGET", budget)
    make_designer_problem(J=16, b=1.0, r=0.5)  # numpy's first-call allocations are not the problem's
    problem, peak = traced_peak(lambda: make_designer_problem(J=J, b=1.0, r=0.5))
    assert problem.rank == J and peak <= budget + 2**16
    named = f"^designer problem of rank J = {J + 1} needs {(J + 1) * 64} bytes, budget is {budget}$"
    with pytest.raises(MemoryBudgetError, match=named):
        make_designer_problem(J=J + 1, b=1.0, r=0.5)
    with pytest.raises(MemoryBudgetError, match="^designer problem of rank J = 100000000000 needs"):
        make_designer_problem(J=10**11, b=1.0, r=0.5)


@pytest.mark.parametrize("change,named", [
    ({"b": "1.0"}, "designer b must be a real number, not '1.0'"),
    ({"noise_std": None}, "designer noise_std must be a real number, not None"),
    ({"R": [1]}, r"designer R must be a real number, not \[1\]"),
    ({"eigenvalue_scale": "2"}, "designer eigenvalue_scale must be a real number, not '2'"),
    ({"r": float("nan")}, "designer r must be a real number, not nan"),
    ({"seed": 0.5}, "designer seed must be an integer >= 0, not 0.5"),
])
def test_designer_problem_takes_only_real_numbers(change, named):
    with pytest.raises(ValueError, match=named):
        make_designer_problem(**{"J": 8, "b": 1.0, "r": 0.5, **change})


def test_designer_kernel_matches_eigen_expansion():
    mu = np.array([1.0, 0.5, 0.25])
    k = DesignerKernel(mu)
    x, y = np.array([0.2]), np.array([0.7])
    direct = mu[0] + sum(
        mu[j] * 2.0 * np.cos(j * np.pi * x[0]) * np.cos(j * np.pi * y[0])
        for j in (1, 2)
    )
    assert k.gram(x[None, :], y[None, :])[0, 0] == pytest.approx(direct, abs=1e-14)
    # the designer map's eigenvalue rule
    with pytest.raises(ValueError, match="non-increasing"):
        DesignerKernel(np.array([0.5, 1.0]))


def test_krr_fit_matches_direct_solve():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((25, 2))
    y = rng.standard_normal(25)
    k = GaussianKernel(2, 1.0)
    lam = 0.05
    alpha = krr_gram_fit(k, X, y, lam)
    # krr_gram_fit solves the system directly, so the reference takes the
    # eigendecomposition route: alpha = V (V^T y) / (w + lam n)
    w, V = np.linalg.eigh(k.gram(X))
    expected = V @ ((V.T @ y) / (w + lam * 25))
    np.testing.assert_allclose(alpha, expected, atol=1e-10)
    # predictions at training points interpolate as lam -> 0, up to the
    # conditioning of the gram matrix
    tight = krr_predict(k, X, krr_gram_fit(k, X, y, 1e-10), X)
    np.testing.assert_allclose(tight, y, atol=1e-2)


def test_krr_validations():
    k = GaussianKernel(1, 1.0)
    X = np.zeros((3, 1))
    with pytest.raises(ValueError, match="lam"):
        krr_gram_fit(k, X, np.zeros(3), 0.0)
    with pytest.raises(ValueError, match="mismatch"):
        krr_gram_fit(k, X, np.zeros(4), 0.1)


def test_gram_size_cap():
    # the cap is the reference kernels' own: a designer kernel's gram hits it
    k = DesignerKernel(np.array([1.0, 0.5]))
    with pytest.raises(MemoryBudgetError, match="capped"):
        k.gram(np.zeros((5001, 1)))
