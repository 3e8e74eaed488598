import base64
import dataclasses
import json
import re

import numpy as np
import pytest
from reference import iterate_in_parameter_space

import specrf
from specrf import estimator, features, filters
from specrf.diagnostics import MonteCarloKernel, krr_gram_fit, krr_predict, make_designer_problem
from specrf.estimator import (
    ROW_BLOCK,
    DivergenceError,
    assemble_empirical_operators,
    fit_iterative,
    fit_spectral,
    load_model,
    mse,
    predict,
    save_model,
)
from specrf.features import (
    MemoryBudgetError,
    designer_basis,
    designer_series,
    feature_matrix,
    sample_feature_map,
)
from specrf.filters import make_filter


def _toy(seed=0, n=120, d=2, M=24):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(n)
    fmap = sample_feature_map("gaussian_rff", d, M, {}, seed + 1)
    return fmap, X, y


def test_empirical_operators_shapes_and_scaling():
    fmap, X, y = _toy()
    moments = assemble_empirical_operators(fmap, X, y)
    Z = feature_matrix(fmap, X)
    np.testing.assert_allclose(moments.sigma, Z.T @ Z / len(y), atol=1e-13)
    np.testing.assert_allclose(moments.s, Z.T @ y / len(y), atol=1e-13)
    assert moments.yy == pytest.approx(np.mean(y**2), rel=1e-15)
    assert moments.fingerprint["n"] == len(y)
    assert moments.fingerprint["map_seed"] == fmap.seed
    # the trace equals the mean squared embedding norm, capped by kappa^2
    assert np.trace(moments.sigma) <= fmap.kappa_sq + 1e-12
    # the fingerprint tracks the data, not only its size
    y2 = y.copy()
    y2[0] += 1.0
    other = assemble_empirical_operators(fmap, X, y2).fingerprint
    assert other["data_sha256"] != moments.fingerprint["data_sha256"]


def _relative_error(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_moments_accumulate_over_row_blocks():
    n = int(2.5 * ROW_BLOCK)
    fmap, X, y = _toy(seed=5, n=n, M=16)
    moments = assemble_empirical_operators(fmap, X, y)
    Z = feature_matrix(fmap, X)
    assert _relative_error(moments.sigma, Z.T @ Z / n) <= 1e-12
    assert _relative_error(moments.s, Z.T @ y / n) <= 1e-12
    assert moments.fingerprint["n"] == n
    # one block: the same products as a single Z^T Z, bit for bit
    X1, y1 = X[:ROW_BLOCK], y[:ROW_BLOCK]
    Z1 = Z[:ROW_BLOCK]
    single = assemble_empirical_operators(fmap, X1, y1)
    assert np.array_equal(single.sigma, Z1.T @ Z1 / ROW_BLOCK)
    assert np.array_equal(single.s, Z1.T @ y1 / ROW_BLOCK)


def test_predict_streams_over_row_blocks():
    fmap, X, y = _toy(seed=6, n=2 * ROW_BLOCK + 7, M=16)
    model = fit_spectral(fmap, X, y, make_filter("tikhonov"), lam=0.01)
    assert _relative_error(predict(model, X), feature_matrix(fmap, X) @ model.theta) <= 1e-12
    assert predict(model, X[:0]).shape == (0,)
    for bad in (X[:, :1], X[0], 0.5):
        with pytest.raises(ValueError, match="expected n x 2 input"):
            predict(model, bad)


def test_fit_streams_past_the_embedding_memory_budget(monkeypatch):
    n, M = 3 * ROW_BLOCK, 64
    fmap, X, y = _toy(seed=7, n=n, M=M)
    # one block's embedding fits the budget, the whole n x M embedding does not
    budget = 2 * ROW_BLOCK * M * 8
    assert M * M * 8 < budget < n * M * 8
    monkeypatch.setattr(features, "DEFAULT_MEMORY_BUDGET", budget)
    model = fit_spectral(fmap, X, y, make_filter("tikhonov"), lam=0.01)
    assert np.isfinite(mse(model, X, y))
    fit_iterative(fmap, X, y, make_filter("landweber", alpha=0.5), 4)
    with pytest.raises(MemoryBudgetError, match="feature matrix"):
        feature_matrix(fmap, X)
    wide = sample_feature_map("gaussian_rff", 2, 1024, {}, 0)  # 1024^2 * 8 bytes
    with pytest.raises(MemoryBudgetError, match="covariance"):
        fit_spectral(wide, X[:10], y[:10], make_filter("tikhonov"), lam=0.01)


def _designer(J, m, n, seed=0):
    """The designer map of the first m of J eigenvalues j^-1, with n rows of data."""
    mu = 1.0 / np.arange(1, J + 1)
    fmap = sample_feature_map("designer_finite_rank", 1, m, {"eigenvalues": mu[:m]}, seed)
    rng = np.random.default_rng(seed)
    return fmap, rng.uniform(0.0, 1.0, (n, 1)), rng.standard_normal(n)


@pytest.mark.parametrize("n", [1, 3, ROW_BLOCK + 5])
@pytest.mark.parametrize("J,m", [(1, 1), (2, 2), (7, 7), (40, 40), (513, 513), (600, 40), (1024, 513)])
def test_designer_moments_and_series_match_the_basis(J, m, n):
    fmap, X, y = _designer(J, m, n)
    moments = assemble_empirical_operators(fmap, X, y)
    Z = designer_basis(m, X[:, 0]) * np.sqrt(fmap.params["eigenvalues"])
    assert _relative_error(moments.sigma, Z.T @ Z / n) <= 1e-12
    assert _relative_error(moments.s, Z.T @ y / n) <= 1e-12
    assert np.array_equal(moments.sigma, moments.sigma.T)
    # a single value of a series may cancel to near 0: compare against the sum of |terms|
    coeffs = np.random.default_rng(J).standard_normal(J)
    E = designer_basis(J, X[:, 0])
    error = np.abs(designer_series(coeffs, X[:, 0]) - E @ coeffs)
    assert np.all(error <= 1e-12 * (np.abs(E) @ np.abs(coeffs)))


def test_designer_fits_check_the_input_shape():
    fmap, X, y = _designer(8, 8, 20)
    wide = np.hstack([X, X])
    with pytest.raises(ValueError, match="expected n x 1 input"):
        fit_spectral(fmap, wide, y, make_filter("tikhonov"), lam=0.1)
    with pytest.raises(ValueError, match="expected n x 1 input"):
        fit_iterative(fmap, wide, y, make_filter("landweber", alpha=0.5), 4)


def test_designer_fit_needs_no_embedding_memory(monkeypatch):
    m = 256
    fmap, X, y = _designer(m, m, ROW_BLOCK + 5)
    # the m x m covariance fits the budget, one block's ROW_BLOCK x m embedding does not
    budget = 2 * m * m * 8
    assert budget < ROW_BLOCK * m * 8
    monkeypatch.setattr(features, "DEFAULT_MEMORY_BUDGET", budget)
    model = fit_spectral(fmap, X, y, make_filter("tikhonov"), lam=0.01)
    assert np.isfinite(model.theta).all()
    fit_iterative(fmap, X, y, make_filter("landweber", alpha=0.5), 4)
    with pytest.raises(MemoryBudgetError, match="feature matrix"):
        feature_matrix(fmap, X[:ROW_BLOCK])


def _ntk(activation, d, M, n, seed=0, **params):
    """An NTK map and n rows of standard normal data."""
    fmap = sample_feature_map("ntk_one_layer", d, M, {"activation": activation, **params}, seed)
    rng = np.random.default_rng(seed)
    return fmap, rng.standard_normal((n, d)), rng.standard_normal(n)


def _assert_moments_match_the_embedding(moments, fmap, X, y):
    Z = feature_matrix(fmap, X)
    n = len(y)
    # <=, not a ratio: one relu row may have no active unit, which makes Z zero
    for got, want in ((moments.sigma, Z.T @ Z / n), (moments.s, Z.T @ y / n)):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("n", [1, 3, ROW_BLOCK + 5])
@pytest.mark.parametrize("M", [1, 3, 192])
@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("params", [{}, {"tau": 0.7, "gamma": 1.9}], ids=["default", "tau-gamma"])
@pytest.mark.parametrize("activation", ["relu", "identity"])
def test_ntk_factored_moments_match_the_embedding(activation, params, d, M, n):
    fmap, X, y = _ntk(activation, d, M, n, seed=d + M, **params)
    moments = assemble_empirical_operators(fmap, X, y)
    _assert_moments_match_the_embedding(moments, fmap, X, y)
    assert np.array_equal(moments.sigma, moments.sigma.T)


@pytest.mark.parametrize("d,M", [(1, 3), (4, 16)])
def test_ntk_tanh_moments_are_the_embedded_ones(d, M):
    # tanh(p) is not p tanh'(p): its moments still come from the embedding, bit for bit
    fmap, X, y = _ntk("tanh", d, M, ROW_BLOCK + 5, tau=0.7, gamma=1.9)
    _assert_moments_match_the_embedding(assemble_empirical_operators(fmap, X, y), fmap, X, y)
    single = assemble_empirical_operators(fmap, X[:ROW_BLOCK], y[:ROW_BLOCK])
    Z = feature_matrix(fmap, X[:ROW_BLOCK])
    assert np.array_equal(single.sigma, Z.T @ Z / ROW_BLOCK)


@pytest.mark.parametrize("activation", ["relu", "identity", "tanh"])
def test_ntk_inputs_outside_rho_max_rejected_on_both_paths(activation):
    fmap, X, y = _ntk(activation, 2, 8, ROW_BLOCK + 5, rho_max=3.0)
    X = np.clip(X, -1.0, 1.0)
    X[ROW_BLOCK + 2] = [3.0, 0.1]  # the one row outside, in the second row block
    with pytest.raises(ValueError, match="NTK input norm exceeds rho_max = 3.0"):
        fit_spectral(fmap, X, y, make_filter("tikhonov"), lam=0.1)
    with pytest.raises(ValueError, match="NTK input norm exceeds rho_max = 3.0"):
        fit_iterative(fmap, X, y, make_filter("landweber", alpha=0.5), 4)


def test_ridge_primal_equals_dual():
    fmap, X, y = _toy(seed=3)
    lam = 0.05
    model = fit_spectral(fmap, X, y, make_filter("tikhonov"), lam=lam)
    alpha = krr_gram_fit(MonteCarloKernel(fmap), X, y, lam)
    X_test = np.random.default_rng(9).standard_normal((50, 2))
    dual = krr_predict(MonteCarloKernel(fmap), X, alpha, X_test)
    np.testing.assert_allclose(predict(model, X_test), dual, atol=1e-9)


def test_tikhonov_solve_matches_the_eigendecomposition_form():
    fmap, X, y = _toy(seed=4, n=300, M=40)
    lam = 1e-2
    model = fit_spectral(fmap, X, y, make_filter("tikhonov"), lam=lam)
    moments = assemble_empirical_operators(fmap, X, y)
    w, V = np.linalg.eigh(moments.sigma)
    want = V @ ((V.T @ moments.s) / (np.maximum(w, 0.0) + lam))
    np.testing.assert_allclose(model.theta, want, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("lam", [1e-3, 1e-9])
def test_tikhonov_solves_the_normal_equations_when_rank_deficient(lam):
    # M = 400 random features from n = 100 rows: Sigma_hat has rank <= 100
    fmap, X, y = _toy(seed=8, n=100, M=400)
    model = fit_spectral(fmap, X, y, make_filter("tikhonov"), lam=lam)
    moments = assemble_empirical_operators(fmap, X, y)
    assert np.isfinite(model.theta).all()
    residual = moments.sigma @ model.theta + lam * model.theta - moments.s
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(moments.s)


@pytest.mark.parametrize("kind,kwargs", [
    ("landweber", {"alpha": 0.8}),
    ("heavyball", {"alpha": 0.2, "beta": 0.7}),
])
def test_spectral_and_iterative_paths_agree(kind, kwargs):
    fmap, X, y = _toy(seed=5)
    filt = make_filter(kind, **kwargs)
    T = 40
    a = fit_spectral(fmap, X, y, filt, iterations=T)
    b = fit_iterative(fmap, X, y, filt, T)
    scale = max(np.max(np.abs(a.theta)), 1e-30)
    assert np.max(np.abs(a.theta - b.theta)) / scale < 1e-8
    assert a.lam == b.lam


def _map_of_kind(kind, n=300):
    """n rows and a map of each regime: d = 1 Gaussian RFF (D = 40, whose Krylov basis
    closes at k = 10), the full-rank designer map (D = 16), relu NTK (D = 40, closing at
    k = 33) and tanh NTK (D = 40)."""
    rng = np.random.default_rng(11)
    if kind == "rff":
        X = rng.uniform(-1, 1, (n, 1))
        fmap = sample_feature_map("gaussian_rff", 1, 40, {}, 3)
    elif kind == "designer":
        X = rng.uniform(0, 1, (n, 1))
        fmap = sample_feature_map("designer_finite_rank", 1, 16, {}, 0)
    else:
        X = rng.uniform(-0.5, 0.5, (n, 3))
        fmap = sample_feature_map("ntk_one_layer", 3, 8, {"activation": kind}, 3)
    return fmap, X, np.sin(3 * X[:, 0]) + 0.1 * rng.standard_normal(n)


def _assert_fit_iterative_is_the_loop(fmap, X, y, filt):
    # theta, each snapshot and each loss within 1e-12 relative of the loop in R^D, for
    # T from one step to past D, where the Krylov basis closes at k = D or earlier
    moments = assemble_empirical_operators(fmap, X, y)
    D = moments.s.size
    for T in (1, 2, D - 1, D, 3 * D):
        snapshots = (1, max(1, T // 2), T)
        model = fit_iterative(fmap, X, y, filt, T, snapshots=snapshots)
        theta, losses, taken = iterate_in_parameter_space(moments, filt, T, snapshots)
        for ours, loop in [(model.theta, theta), *((model.snapshots[t], taken[t]) for t in snapshots)]:
            assert _relative_error(ours, loop) <= 1e-12, T
        np.testing.assert_allclose(model.losses, losses, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind", ["rff", "designer", "relu", "tanh"])
@pytest.mark.parametrize("filt", [
    make_filter("landweber", alpha=0.5),
    make_filter("heavyball", alpha=0.2, beta=0.7),
    make_filter("heavyball", alpha=0.05, beta=0.5),
], ids=["landweber", "heavyball", "heavyball(0.05,0.5)"])
def test_fit_iterative_matches_the_loop_in_parameter_space(kind, filt):
    _assert_fit_iterative_is_the_loop(*_map_of_kind(kind), filt)


def test_fit_iterative_matches_the_loop_just_inside_the_heavyball_bound():
    # the designer map rescaled to alpha * ||Sigma_hat|| = 3.979 < 2 (1 + beta) = 3.98.
    # Near the bound both paths' rounding grows with T, the Krylov path's faster: with
    # J = 24 their losses differ by 1.1e-12 relative at T = 3D and their thetas by
    # 1.4e-11 at T = 400, where the loop's theta is within 1.6e-12 of a long-double loop
    fmap, X, y = _map_of_kind("designer")
    mu = np.asarray(fmap.params["eigenvalues"])
    top = np.linalg.eigvalsh(assemble_empirical_operators(fmap, X, y).sigma)[-1]
    fmap = sample_feature_map("designer_finite_rank", 1, mu.size, {"eigenvalues": mu * 397.9 / top}, 0)
    hb = make_filter("heavyball", alpha=0.01, beta=0.99)
    sigma = assemble_empirical_operators(fmap, X, y).sigma
    assert hb.alpha * np.linalg.eigvalsh(sigma)[-1] == pytest.approx(3.979, rel=1e-12)
    _assert_fit_iterative_is_the_loop(fmap, X, y, hb)


def test_fit_iterative_keeps_a_lanczos_direction_far_above_rounding():
    # the designer map with J = 2 on X mirrored about 1/2, y = 1 + 1e-9 cos(pi x): s_hat's
    # second Krylov direction enters through one coupling of about 2.5e-10, far above
    # eps * trace(Sigma_hat). A stop rule that dropped it (a threshold of 1e-7) moves
    # theta by 3.5e-10 relative; the rule keeps it and matches the loop in R^D
    x = np.random.default_rng(0).uniform(0.0, 0.5, 200)
    X = np.concatenate([x, 1.0 - x])[:, None]
    y = 1.0 + 1e-9 * np.cos(np.pi * X[:, 0])
    fmap = sample_feature_map("designer_finite_rank", 1, 2, {}, 0)
    filt = make_filter("landweber", alpha=0.5)
    theta, losses, _ = iterate_in_parameter_space(assemble_empirical_operators(fmap, X, y), filt, 6)
    model = fit_iterative(fmap, X, y, filt, 6)
    assert _relative_error(model.theta, theta) <= 1e-12
    np.testing.assert_allclose(model.losses, losses, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind", ["rff", "designer", "relu", "tanh"])
@pytest.mark.parametrize("filt", [
    make_filter("landweber", alpha=0.5),
    make_filter("heavyball", alpha=0.05, beta=0.5),
], ids=["landweber", "heavyball(0.05,0.5)"])
def test_fit_iterative_given_lambda_runs_the_T_it_resolves_to(kind, filt):
    # the same theta to the byte as the derived T given as iterations, with the given
    # lambda recorded, and within 1e-10 of the eigendecomposition reference
    fmap, X, y = _map_of_kind(kind)
    lam = 0.05
    T = filt.resolve(lam)[1]
    model = fit_iterative(fmap, X, y, filt, lam=lam)
    assert (model.lam, model.iterations, model.fit_path) == (lam, T, "iterative")
    np.testing.assert_array_equal(model.theta, fit_iterative(fmap, X, y, filt, T).theta)
    assert _relative_error(model.theta, fit_spectral(fmap, X, y, filt, lam=lam).theta) <= 1e-10


def test_fit_iterative_with_zero_labels_spans_no_basis():
    # s_hat = 0: theta stays 0, every snapshot is 0 and every loss is mean y^2 = 0
    fmap, X, _ = _map_of_kind("rff")
    model = fit_iterative(fmap, X, np.zeros(len(X)), make_filter("landweber", alpha=0.5), 8, (1, 8))
    assert model.theta.shape == (40,) and not model.theta.any()
    assert not any(theta.any() for theta in model.snapshots.values())
    np.testing.assert_array_equal(model.losses, np.zeros(9))


def test_fit_invariant_under_row_permutation():
    fmap, X, y = _toy(seed=6)
    perm = np.random.default_rng(0).permutation(len(y))
    a = fit_spectral(fmap, X, y, make_filter("tikhonov"), lam=0.1)
    b = fit_spectral(fmap, X[perm], y[perm], make_filter("tikhonov"), lam=0.1)
    np.testing.assert_allclose(a.theta, b.theta, atol=1e-10)


def test_gradient_descent_loss_monotone():
    fmap, X, y = _toy(seed=7)
    model = fit_iterative(fmap, X, y, make_filter("landweber", alpha=0.9), 200)
    assert model.losses is not None and len(model.losses) == 201
    assert np.all(np.diff(model.losses) <= 1e-12)
    # losses[0] is mean y^2 (theta = 0); the last is the training MSE of the final theta
    assert model.losses[0] == pytest.approx(np.mean(y**2), rel=1e-15)
    assert model.losses[-1] == pytest.approx(mse(model, X, y), rel=1e-10)


@pytest.mark.parametrize("kind,kwargs,fit", [
    ("tikhonov", {}, {"lam": 0.05}),
    ("landweber", {"alpha": 0.9}, {"iterations": 30}),
], ids=["tikhonov-lam", "landweber-iterations"])
def test_fit_spectral_losses_are_the_training_losses(kind, kwargs, fit):
    fmap, X, y = _toy(seed=11)
    model = fit_spectral(fmap, X, y, make_filter(kind, **kwargs), **fit)
    # the same contract as fit_iterative: loss at theta = 0, then at the returned theta
    assert len(model.losses) == 2
    assert model.losses[0] == pytest.approx(np.mean(y**2), rel=1e-15)
    assert model.losses[-1] == pytest.approx(mse(model, X, y), rel=1e-10)


def test_snapshots_track_requested_iterations():
    fmap, X, y = _toy(seed=8)
    model = fit_iterative(
        fmap, X, y, make_filter("landweber", alpha=0.5), 16, snapshots=(1, 4, 16)
    )
    assert set(model.snapshots) == {1, 4, 16}
    np.testing.assert_array_equal(model.snapshots[16], model.theta)
    # earlier snapshots are genuinely different iterates
    assert not np.allclose(model.snapshots[1], model.theta)
    again = fit_iterative(fmap, X, y, make_filter("landweber", alpha=0.5), 16, snapshots=(4.0, 16))
    assert sorted(again.snapshots) == [4, 16] and all(type(T) is int for T in again.snapshots)


@pytest.mark.parametrize("snapshots,named", [
    ((0,), "snapshot count must be an integer >= 1, not 0"),
    ((4, 32), "snapshot count 32 exceeds iterations = 16"),
    ((2.5,), "snapshot count must be an integer >= 1, not 2.5"),
    ((True,), "snapshot count must be an integer >= 1, not True"),
    ((0, 32, 2.5, True), "snapshot count"),
])
def test_fit_iterative_rejects_a_snapshot_count_outside_1_to_iterations(snapshots, named):
    fmap, X, y = _toy(seed=8)
    with pytest.raises(ValueError, match=f"^{re.escape(named)}"):
        fit_iterative(fmap, X, y, make_filter("landweber", alpha=0.5), 16, snapshots=snapshots)


def test_fit_iterative_rejects_a_filter_that_is_not_iterative():
    fmap, X, y = _toy()
    for fit in ({"iterations": 8}, {"lam": 0.1}):
        with pytest.raises(ValueError, match="^filter tikhonov is not iterative"):
            fit_iterative(fmap, X, y, make_filter("tikhonov"), **fit)


def test_unstable_step_size_detected_before_iterating():
    # the designer map below has operator norm well above 1/alpha
    fmap = sample_feature_map(
        "designer_finite_rank", 1, 64, {"eigenvalues": np.full(64, 5.0)}, 0
    )
    X = np.random.default_rng(0).uniform(0, 1, (100, 1))
    y = np.ones(100)
    with pytest.raises(DivergenceError, match="unstable"):
        fit_iterative(fmap, X, y, make_filter("landweber", alpha=1.0), 10)


def test_heavyball_stability_bound_grows_with_momentum():
    # alpha * ||Sigma|| is about 2.5: past Landweber's bound 2, within heavy-ball's 2 (1 + beta) = 3.8
    X = np.random.default_rng(0).uniform(0, 1, (200, 1))
    y = np.cos(np.pi * X[:, 0]) + 0.5
    fmap = sample_feature_map("designer_finite_rank", 1, 1, {"eigenvalues": [25.0]}, 0)
    hb = make_filter("heavyball", alpha=0.1, beta=0.9)
    sigma = assemble_empirical_operators(fmap, X, y).sigma
    assert 2.0 <= hb.alpha * sigma[0, 0] < 2.0 * (1.0 + hb.beta)
    iterative = fit_iterative(fmap, X, y, hb, 100)
    spectral = fit_spectral(fmap, X, y, hb, iterations=100)
    np.testing.assert_allclose(iterative.theta, spectral.theta, rtol=0, atol=1e-8)
    assert iterative.losses[-1] < iterative.losses[0]
    # about 4.9 >= 3.8: rejected by the precheck, not by the loss check of a step
    fmap = sample_feature_map("designer_finite_rank", 1, 1, {"eigenvalues": [50.0]}, 0)
    with pytest.raises(DivergenceError, match=r"unstable: alpha \* \|\|Sigma\|\| = \S+ >= 3.8$"):
        fit_iterative(fmap, X, y, hb, 100)


def test_heavyball_fit_just_inside_its_stability_bound_converges():
    # alpha * ||Sigma|| = 3.979 < 2 (1 + beta) = 3.98: the iteration is stable, though its
    # training loss climbs past 1000 times its start before it settles
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, (200, 1))
    y = 1.0 + 0.1 * rng.standard_normal(200)
    fmap = sample_feature_map("designer_finite_rank", 1, 1, {"eigenvalues": [397.9]}, 0)
    hb = make_filter("heavyball", alpha=0.01, beta=0.99)
    iterative = fit_iterative(fmap, X, y, hb, 400)
    spectral = fit_spectral(fmap, X, y, hb, iterations=400)
    np.testing.assert_allclose(iterative.theta, spectral.theta, rtol=0, atol=1e-8)
    assert iterative.losses.max() > 1e3 * iterative.losses[0]


@pytest.mark.parametrize("kind,kwargs,limit", [
    ("landweber", {"alpha": 1.0}, "2"),
    ("heavyball", {"alpha": 0.8, "beta": 0.2}, "2.4"),
])
def test_both_fit_paths_reject_an_unstable_step_size_alike(kind, kwargs, limit):
    # top eigenvalue 5: the spectral path filters Sigma_hat's eigenvalues through phi,
    # which grows like (1 - alpha t)^T past t = 2 (1 + beta) / alpha, as the iteration does
    mu = [5.0, 2.5, 1.6, 1.2, 1.0, 0.8, 0.7, 0.6]
    fmap = sample_feature_map("designer_finite_rank", 1, 8, {"eigenvalues": mu}, 0)
    X = np.random.default_rng(0).uniform(0, 1, (100, 1))
    y = np.cos(np.pi * X[:, 0])
    filt = make_filter(kind, **kwargs)
    named = rf"^step size {kwargs['alpha']} unstable: alpha \* \|\|Sigma\|\| = \S+ >= {limit}$"
    with pytest.raises(DivergenceError, match=named) as spectral:
        fit_spectral(fmap, X, y, filt, lam=1e-3)
    with pytest.raises(DivergenceError, match=named) as iterative:
        fit_iterative(fmap, X, y, filt, filt.resolve(1e-3)[1])
    assert str(spectral.value) == str(iterative.value)
    assert isinstance(spectral.value, RuntimeError)
    assert specrf.DivergenceError is estimator.DivergenceError is filters.DivergenceError


def test_singular_tikhonov_system_names_the_filter_and_lambda():
    # identity NTK with tau = 1e153: Sigma_hat's entries are near 1e305, so adding
    # lam = 0.1 to its diagonal leaves it singular
    params = {"tau": 1e153, "rho_max": 1.0, "activation": "identity"}
    fmap = sample_feature_map("ntk_one_layer", 2, 1, params, 0)
    X = np.full((1000, 2), 0.5)
    with pytest.raises(ValueError, match=r"^tikhonov: Sigma_hat \+ lam I is singular at lam = 0.1$"):
        fit_spectral(fmap, X, np.ones(1000), make_filter("tikhonov"), lam=0.1)


def test_fit_spectral_argument_validation(monkeypatch):
    fmap, X, y = _toy()
    tik = make_filter("tikhonov")
    with pytest.raises(ValueError, match="lam or iterations"):
        fit_spectral(fmap, X, y, tik)
    with pytest.raises(ValueError, match="^filter tikhonov is not iterative and takes no iteration count$"):
        fit_spectral(fmap, X, y, tik, iterations=5)
    with pytest.raises(ValueError, match="lam must lie"):
        fit_spectral(fmap, X, y, tik, lam=1.5)
    big = sample_feature_map("gaussian_rff", 2, 5000, {}, 0)
    with pytest.raises(ValueError, match="eigensolver cap"):
        fit_spectral(big, X, y, make_filter("spectral_cutoff"), lam=0.1)
    # the cap guards the eigendecomposition, which a Tikhonov fit does not run
    monkeypatch.setattr(filters, "EIG_DIM_CAP", 8)
    assert fit_spectral(fmap, X, y, tik, lam=0.1).theta.shape == (fmap.embedding_dim,)
    with pytest.raises(ValueError, match="embedding dimension 24 exceeds eigensolver cap 8"):
        fit_spectral(fmap, X, y, make_filter("spectral_cutoff"), lam=0.1)


def test_iterative_filter_iteration_count_derived_from_lambda():
    fmap, X, y = _toy(seed=9)
    model = fit_spectral(fmap, X, y, make_filter("landweber", alpha=0.5), lam=0.125)
    assert model.iterations == 16
    assert model.fit_path == "spectral"


def test_model_roundtrip_through_disk(tmp_path):
    fmap, X, y = _toy(seed=10)
    model = fit_spectral(fmap, X, y, make_filter("tikhonov"), lam=0.07)
    path = tmp_path / "model.json"
    save_model(model, path)
    assert json.loads(path.read_text())["format"] == 1
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded.theta, model.theta)
    X_test = np.random.default_rng(2).standard_normal((20, 2))
    np.testing.assert_array_equal(predict(loaded, X_test), predict(model, X_test))
    assert loaded.train_fingerprint == model.train_fingerprint


def test_load_model_rejects_theta_of_wrong_length(tmp_path):
    fmap, X, y = _toy(M=16)
    path = tmp_path / "model.json"
    save_model(fit_spectral(fmap, X, y, make_filter("tikhonov"), lam=0.1), path)
    payload = json.loads(path.read_text())
    short = np.frombuffer(base64.b64decode(payload["theta_b64"]), dtype="<f8")[:10]
    payload["theta_b64"] = base64.b64encode(short.tobytes()).decode("ascii")
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="10 entries.*embedding_dim is 16"):
        load_model(path)


@pytest.mark.parametrize("drop,change,named", [
    ("format", {}, "model file has no format"),
    (None, {"format": 2}, "unknown model format 2, expected 1"),
    (None, {"format": True}, "unknown model format True, expected 1"),
    (None, {"format": 1.0}, "unknown model format 1.0, expected 1"),
    (None, {"bogus": 1}, "model file keys not taken by load_model: bogus"),
    ("lam", {}, "model file is missing required keys: lam"),
    (None, {"lam": "x"}, "lam must be a real number, not 'x'"),
    (None, {"lam": None}, "lam must be a real number, not None"),
    (None, {"lam": -1.0}, "lam must lie in (0, 1]"),
    (None, {"iterations": 2.5}, "iterations must be an integer >= 1, not 2.5"),
    (None, {"fit_path": "bogus"}, "fit_path must be spectral or iterative, not 'bogus'"),
])
def test_load_model_rejects_unknown_format_or_missing_key(tmp_path, drop, change, named):
    fmap, X, y = _toy()
    path = tmp_path / "model.json"
    save_model(fit_iterative(fmap, X, y, make_filter("landweber", alpha=0.5), 12), path)
    payload = {**json.loads(path.read_text()), **change}
    payload.pop(drop, None)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: {named}"


_FP = "model train_fingerprint"


def _nan_theta(payload):
    theta = np.full(24, np.nan)
    return {"theta_b64": base64.b64encode(theta.tobytes()).decode("ascii")}


@pytest.mark.parametrize("edit,named", [
    (lambda p: {"filter": {**p["filter"], "alpha": "x"}}, "landweber alpha must be a real number, not 'x'"),
    (lambda p: {"filter": "landweber"}, "model filter must be a JSON object, not str"),
    (lambda p: {"map": {**p["map"], "num_samples": 2.5}}, "num_samples must be an integer >= 1, not 2.5"),
    (lambda p: {"map": {**p["map"], "seed": "x"}}, "feature map seed must be an integer >= 0, not 'x'"),
    (lambda p: {"map": [p["map"]]}, "model map must be a JSON object, not list"),
    (lambda p: {"map": {**p["map"], "bandwidth": 2.0}},
     "model map keys not taken by sample_feature_map: bandwidth"),
    (lambda p: {"theta_b64": p["theta_b64"][:-4]}, "model theta_b64 is not the base64 of float64 values"),
    (lambda p: {"theta_b64": 7}, "model theta_b64 is not the base64 of float64 values"),
    (_nan_theta, "model theta has NaN or inf entries"),
    (lambda p: {"train_fingerprint": "junk"}, f"{_FP} must be a JSON object, not str"),
    (lambda p: {"train_fingerprint": {"n": 120, "map_seed": 1}},
     f"{_FP} is missing required keys: data_sha256"),
    (lambda p: {"train_fingerprint": {**p["train_fingerprint"], "rows": 1}},
     f"{_FP} keys not taken by load_model: rows"),
    (lambda p: {"train_fingerprint": {**p["train_fingerprint"], "n": 0}},
     f"{_FP} n must be an integer >= 1, not 0"),
    (lambda p: {"train_fingerprint": {**p["train_fingerprint"], "map_seed": 7}},
     f"{_FP} map_seed 7 is not the map's seed 1"),
    (lambda p: {"train_fingerprint": {**p["train_fingerprint"], "data_sha256": "abc"}},
     f"{_FP} data_sha256 must be 64 hex digits, not 'abc'"),
])
def test_load_model_names_the_file_in_every_error(tmp_path, edit, named):
    fmap, X, y = _toy()
    path = tmp_path / "model.json"
    save_model(fit_iterative(fmap, X, y, make_filter("landweber", alpha=0.5), 12), path)
    payload = json.loads(path.read_text())
    path.write_text(json.dumps({**payload, **edit(payload)}))
    with pytest.raises(ValueError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: {named}"


def test_load_model_names_the_file_when_it_is_not_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{")
    with pytest.raises(ValueError, match=f"^{path}: Expecting property name"):
        load_model(path)


@pytest.mark.parametrize("kind,fit", [
    ("tikhonov", lambda fmap, X, y, f: fit_spectral(fmap, X, y, f, lam=0.1)),
    ("landweber", lambda fmap, X, y, f: fit_spectral(fmap, X, y, f, lam=0.1)),
    ("landweber", lambda fmap, X, y, f: fit_iterative(fmap, X, y, f, 12)),
], ids=["tikhonov-spectral", "landweber-spectral", "landweber-iterative"])
def test_saved_model_loads_and_saves_to_the_same_bytes(tmp_path, kind, fit):
    fmap, X, y = _toy()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(fit(fmap, X, y, make_filter(kind)), first)
    save_model(load_model(first), second)
    assert second.read_bytes() == first.read_bytes()


def test_mse_rejects_empty_test_set():
    fmap, X, y = _toy()
    model = fit_spectral(fmap, X, y, make_filter("tikhonov"), lam=0.1)
    with pytest.raises(ValueError, match="empty"):
        mse(model, np.zeros((0, 2)), np.zeros(0))


@pytest.mark.parametrize("rows,labels", [(120, 1), (1, 120), (0, 120)],
                         ids=["one-label", "one-row", "no-rows"])
def test_mse_rejects_length_mismatch(rows, labels):
    fmap, X, y = _toy()
    model = fit_spectral(fmap, X, y, make_filter("tikhonov"), lam=0.1)
    with pytest.raises(ValueError, match="X and y length mismatch"):
        mse(model, X[:rows], y[:labels])
    with pytest.raises(ValueError, match="X and y length mismatch"):
        mse(dataclasses.replace(model, theta=np.column_stack([model.theta] * 3)), X[:rows], y[:labels])


def test_mse_of_a_column_theta_is_each_column_mse():
    fmap, X, y = _toy()
    model = fit_iterative(fmap, X, y, make_filter("landweber", alpha=0.5), 16, snapshots=(1, 4, 16))
    columns = [model.snapshots[t] for t in (1, 4, 16)]
    errors = mse(dataclasses.replace(model, theta=np.column_stack(columns)), X[:50], y[:50])
    assert errors.shape == (3,)
    singles = [mse(dataclasses.replace(model, theta=theta), X[:50], y[:50]) for theta in columns]
    assert all(type(e) is float for e in singles)
    np.testing.assert_allclose(errors, singles, rtol=1e-12)


@pytest.mark.parametrize("map_of", [
    lambda: sample_feature_map("designer_finite_rank", 1, 8, {"decay_exponent": 0.5}, 0),
    lambda: make_designer_problem(J=8, b=0.5, r=0.5).truncated_map(4),
], ids=["decay_exponent", "truncated"])
def test_designer_map_records_only_its_eigenvalues(tmp_path, map_of):
    fmap = map_of()
    assert set(fmap.descriptor()["params"]) == {"eigenvalues"}
    X = np.linspace(0.0, 1.0, 40)[:, None]
    model = fit_spectral(fmap, X, np.cos(np.pi * X[:, 0]), make_filter("tikhonov"), lam=0.1)
    save_model(model, tmp_path / "model.json")
    loaded = load_model(tmp_path / "model.json")
    np.testing.assert_array_equal(loaded.map.params["eigenvalues"], fmap.params["eigenvalues"])
    assert loaded.map.descriptor() == fmap.descriptor()


@pytest.mark.parametrize("bad", ["nan_label", "inf_input"])
def test_non_finite_training_data_rejected_on_both_paths(bad):
    fmap, X, y = _toy()
    if bad == "nan_label":
        y[3] = np.nan
    else:
        X[5, 1] = np.inf
    with pytest.raises(ValueError, match="NaN or inf"):
        fit_spectral(fmap, X, y, make_filter("tikhonov"), lam=0.1)
    with pytest.raises(ValueError, match="NaN or inf"):
        fit_iterative(fmap, X, y, make_filter("landweber", alpha=0.5), 8)


def test_length_mismatch_rejected():
    fmap, X, y = _toy()
    with pytest.raises(ValueError, match="mismatch"):
        assemble_empirical_operators(fmap, X, y[:-1])
    with pytest.raises(ValueError, match="^need at least one sample$"):
        assemble_empirical_operators(fmap, X[:0], y[:0])


def test_moments_divide_by_n_before_the_map_algebra():
    # a finite kappa_sq (2.2e306): 1000 rows of (tau x)^2 = 2.5e305 sum past the double
    # range, but their mean, and so Sigma_hat, is finite
    params = {"tau": 1e153, "rho_max": 1.0, "activation": "identity"}
    fmap = sample_feature_map("ntk_one_layer", 2, 1, params, 0)
    X = np.full((1000, 2), 0.5)
    y = np.ones(1000)
    moments = assemble_empirical_operators(fmap, X, y)
    Z = feature_matrix(fmap, X) / np.sqrt(1000)
    np.testing.assert_allclose(moments.sigma, Z.T @ Z, rtol=1e-12, atol=0)
    np.testing.assert_allclose(moments.s, Z.T @ y / np.sqrt(1000), rtol=1e-12, atol=0)


def test_non_finite_moments_rejected_on_both_paths():
    # finite data and a finite kappa_sq, but the mean of x y = 10 * 1e308 is past the
    # double range
    params = {"rho_max": 100.0, "activation": "identity"}
    fmap = sample_feature_map("ntk_one_layer", 2, 1, params, 0)
    X = np.full((1000, 2), 10.0)
    y = np.full(1000, 1e308)
    with pytest.raises(ValueError, match="non-finite Sigma_hat or s_hat"):
        fit_spectral(fmap, X, y, make_filter("tikhonov"), lam=0.1)
    with pytest.raises(ValueError, match="non-finite Sigma_hat or s_hat"):
        fit_iterative(fmap, X, y, make_filter("landweber", alpha=0.5), 8)
