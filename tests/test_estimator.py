import base64
import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference import MonteCarloKernel, designer_basis, iterate_in_parameter_space, traced_peak

import specrf
from specrf import estimator, features, filters
from specrf.diagnostics import krr_gram_fit, krr_predict, make_designer_problem
from specrf.estimator import (
    FACTOR_BLOCK,
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


def _streamed_moments(fmap, X, y):
    """Sigma_hat and s_hat as sums of features.moment_statistics over ROW_BLOCK row blocks,
    divided by n: the assembly that keeps no embedding."""
    n, sums = len(y), None
    for start in range(0, n, ROW_BLOCK):
        part = features.moment_statistics(fmap, X[start : start + ROW_BLOCK], y[start : start + ROW_BLOCK])
        sums = list(part) if sums is None else [total + value for total, value in zip(sums, part)]
    return [total / n for total in sums]


def _spy_on_forming_sigma(monkeypatch):
    """Record the width of each pass a kept embedding serves (Moments.product while Z is
    kept), and, each time a Moments forms Sigma_hat from its kept Z, how many passes
    had been served by then. Returns (formed, passes)."""
    formed, passes = [], []
    real_product, real_sigma = estimator.Moments.product, estimator.Moments.sigma

    def product(moments, V):
        if moments._blocks:
            passes.append(len(V))
        return real_product(moments, V)

    def sigma(moments):
        if moments._sigma is None:
            formed.append(len(passes))
        return real_sigma.fget(moments)

    monkeypatch.setattr(estimator.Moments, "product", product)
    monkeypatch.setattr(estimator.Moments, "sigma", property(sigma))
    return formed, passes


def _budget(D):
    """The passes of BLOCK rows a kept embedding of dimension D serves a fit with T >
    ceil(D / SYRK_PARITY) whose span does not close, before it forms Sigma_hat: BLOCK
    ceil(D / (6 SYRK_PARITY)) rows."""
    return -(-D // (6 * estimator.SYRK_PARITY))


def _rows_past_the_block(D):
    """n inside (ROW_BLOCK, ROW_BLOCK + D], at ROW_BLOCK + D, and one row past it."""
    return [ROW_BLOCK + D // 2, ROW_BLOCK + D, ROW_BLOCK + D + 1]


@pytest.mark.parametrize("kind", ["rff", "tanh"])
@pytest.mark.parametrize("extra", [32, 64, 65], ids=["inside", "edge", "past"])
def test_kept_embedding_moments_are_the_streamed_ones_to_the_bit(kind, extra):
    # D = 64: Gaussian RFF with M = 64, tanh NTK with d = 2 and M = 16. Up to n = ROW_BLOCK + D
    # the embedding is kept and Sigma_hat formed from it on demand, past it Sigma_hat is
    # assembled at once; either way Sigma_hat and s_hat are the streamed sums to the bit
    n = ROW_BLOCK + extra
    if kind == "rff":
        fmap, X, y = _toy(seed=21, n=n, M=64)
    else:
        fmap, X, y = _ntk("tanh", 2, 16, n, seed=21)
    moments = assemble_empirical_operators(fmap, X, y)
    assert bool(moments._blocks) == (n <= ROW_BLOCK + 64)
    sigma, s = _streamed_moments(fmap, X, y)
    assert np.array_equal(moments.s, s)
    assert moments.trace == pytest.approx(np.trace(sigma), rel=1e-13)
    assert np.array_equal(moments.sigma, sigma) and not moments._blocks
    assert moments.trace == pytest.approx(np.trace(moments.sigma), rel=1e-13)


def _closing_problem(n):
    """n rows of a d = 1 Gaussian RFF problem at M = 1000, the plateau heatmap's regime."""
    rng = np.random.default_rng(22)
    X = rng.standard_normal((n, 1))
    y = np.cos(X[:, 0]) + 0.3 * rng.standard_normal(n)
    return sample_feature_map("gaussian_rff", 1, 1000, {}, 22), X, y


@pytest.mark.parametrize("n", _rows_past_the_block(1000), ids=["inside", "edge", "past"])
def test_a_closing_rff_fit_never_forms_sigma(n, monkeypatch):
    # the plateau heatmap's regime: d = 1, M = 1000, T = 256 > ceil(1000 / SYRK_PARITY). The
    # start block is s_hat and BLOCK - 1 = 15 evenly spaced rows of Z; 3 of those rows lie within
    # sqrt(eps) of the span of the rows before them (relative Gram-Schmidt residuals 2.6e-9,
    # 5.3e-10 and 4.2e-12 at n = 4596; 3.4e-9, 1.4e-11 and 6.7e-13 at n = 5096; the smallest
    # kept one is 1.6e-7) and are dropped, so the first pass multiplies 13 rows. Its products
    # add 11 rows above eps * trace (k = 24), and the second pass, of those 11, adds none: the
    # span closes after passes of [13, 11] rows, under the budget of BLOCK ceil(1000 / (6
    # SYRK_PARITY)) = 80 rows, so a kept Z serves every pass
    fmap, X, y = _closing_problem(n)
    filt, wanted = make_filter("landweber", alpha=0.5), (1, 4, 16, 64, 256)
    formed, passes = _spy_on_forming_sigma(monkeypatch)
    model = fit_iterative(fmap, X, y, filt, 256, snapshots=wanted)
    assert formed == []
    if n <= ROW_BLOCK + 1000:
        assert passes == [13, 11]
    else:
        assert passes == []
    reference = fit_spectral(fmap, X, y, filt, iterations=256)
    assert _relative_error(model.theta, reference.theta) <= 1e-12
    # the snapshots against fit_spectral's filtering, from one eigendecomposition for all T
    dense = assemble_empirical_operators(fmap, X, y)
    pairs = [filt.resolve(iterations=t) for t in wanted]
    for t, theta in zip(wanted, estimator._filtered(filt, dense.sigma, dense.s, pairs)):
        assert _relative_error(model.snapshots[t], theta) <= 1e-12
    # the training MSE, from a kept Z, is the quadratic of the dense Sigma_hat to rounding
    np.testing.assert_allclose(model.train_mse, dense.loss(model.theta), rtol=1e-12, atol=0)
    assert dense.yy == np.mean(y**2)


@pytest.mark.parametrize("n", _rows_past_the_block(160), ids=["inside", "edge", "past"])
def test_a_tanh_fit_that_does_not_close_switches_to_sigma_at_the_cut_off(n, monkeypatch):
    # tanh NTK with D = 160 and T = 64 does not close within the budget of BLOCK ceil(160 /
    # (6 SYRK_PARITY)) rows, one pass over a kept Z; then Sigma_hat is formed and width-1
    # Lanczos runs on it from s_hat. Theta, the snapshots and the training MSE match a fit whose
    # Sigma_hat is formed before it starts
    fmap, X, y = _ntk("tanh", 2, 40, n, seed=23, tau=0.7)
    filt, wanted = make_filter("heavyball", alpha=0.2, beta=0.7), (1, 8, 64)
    formed, passes = _spy_on_forming_sigma(monkeypatch)
    model = fit_iterative(fmap, X, y, filt, 64, snapshots=wanted)
    kept = n <= ROW_BLOCK + 160
    assert formed == ([_budget(160)] if kept else [])
    assert passes == [estimator.BLOCK] * _budget(160) * kept

    def assemble_dense(*args):
        moments = assemble_empirical_operators(*args)
        assert moments.sigma.shape == (160, 160)  # formed now, so it serves every product
        return moments

    monkeypatch.setattr(estimator, "assemble_empirical_operators", assemble_dense)
    dense = fit_iterative(fmap, X, y, filt, 64, snapshots=wanted)
    assert _relative_error(model.theta, dense.theta) <= 1e-12
    for t in wanted:
        assert _relative_error(model.snapshots[t], dense.snapshots[t]) <= 1e-12
    np.testing.assert_allclose(model.train_mse, dense.train_mse, rtol=1e-12, atol=0)


def _kept_fit_against_the_dense_filter(monkeypatch, fmap, X, y, T, wanted=()):
    """fit_iterative on a kept Z against _filtered on the dense Sigma_hat, theta and each
    snapshot within 1e-12 relative, and its training MSE within 1e-12. Returns what
    _spy_on_forming_sigma recorded during the fit: (formed, passes)."""
    filt = make_filter("landweber", alpha=0.5)
    formed, passes = _spy_on_forming_sigma(monkeypatch)
    model = fit_iterative(fmap, X, y, filt, T, snapshots=wanted)
    during = list(formed), list(passes)
    dense = assemble_empirical_operators(fmap, X, y)
    ts = sorted(set(wanted) | {T})
    pairs = [filt.resolve(iterations=t) for t in ts]
    for t, theta in zip(ts, estimator._filtered(filt, dense.sigma, dense.s, pairs)):
        got = model.theta if t == T else model.snapshots[t]
        assert np.linalg.norm(got - theta) <= 1e-12 * np.linalg.norm(theta)
    np.testing.assert_allclose(model.train_mse, dense.loss(model.theta), rtol=1e-12, atol=0)
    return during


def test_a_kept_fit_with_s_hat_zero_takes_no_pass(monkeypatch):
    # y = 0 gives s_hat = 0 exactly: the Krylov space is {0}, theta is 0, and neither a
    # pass over Z nor Sigma_hat is taken
    fmap, X, _ = _toy(seed=24, n=300, M=64)
    formed, passes = _spy_on_forming_sigma(monkeypatch)
    model = fit_iterative(fmap, X, np.zeros(300), make_filter("landweber", alpha=0.5), 64,
                          snapshots=(1, 64))
    assert (formed, passes) == ([], [])
    assert not model.theta.any() and not model.snapshots[1].any()
    assert model.train_mse == 0.0


def test_a_kept_fit_of_dimension_at_most_block_closes_in_one_pass(monkeypatch):
    # Gaussian RFF with M = 8: s_hat and 7 of the 15 rows picked from Z span R^8, so the
    # first pass adds no row and the fit is exact
    fmap = sample_feature_map("gaussian_rff", 1, 8, {}, 25)
    rng = np.random.default_rng(25)
    X = rng.standard_normal((200, 1))
    y = np.cos(X[:, 0]) + 0.3 * rng.standard_normal(200)
    assert _kept_fit_against_the_dense_filter(monkeypatch, fmap, X, y, 64, (1, 2, 4, 17)) == ([], [8])


@pytest.mark.parametrize("n", [1, 5, estimator.BLOCK - 1])
def test_a_kept_fit_with_fewer_rows_than_block_deflates_in_the_first_pass(n, monkeypatch):
    # Gaussian RFF with D = 300 and n < BLOCK rows: Z has rank n, s_hat lies in its row space,
    # and the BLOCK - 1 evenly spaced rows picked from Z are every row, each picked
    # 15 // n times or more. For n = 1 and 5 the start keeps s_hat and n - 1 rows (a row
    # picked again, and the last new row, have relative residuals below 5e-16 against the
    # sqrt(eps) cut), so the first pass multiplies n rows, adds none and closes: [n]. For
    # n = 15 two or three rows fall under the cut (residuals 1.8e-11, 4.1e-9 and 1.4e-8,
    # the last within 7% of sqrt(eps) = 1.49e-8, so the split depends on rounding): the
    # first pass adds the directions they held and the second closes the n-dimensional span
    fmap = sample_feature_map("gaussian_rff", 1, 300, {}, 26)
    rng = np.random.default_rng(26)
    X = rng.standard_normal((n, 1))
    y = np.cos(X[:, 0]) + 0.3 * rng.standard_normal(n)
    formed, passes = _spy_on_forming_sigma(monkeypatch)
    model = fit_iterative(fmap, X, y, make_filter("landweber", alpha=0.5), 64)
    assert formed == [] and sum(passes) == n
    if n < estimator.BLOCK - 1:
        assert passes == [n]
    else:
        assert passes in ([13, 2], [14, 1])
    reference = fit_spectral(fmap, X, y, make_filter("landweber", alpha=0.5), iterations=64)
    assert _relative_error(model.theta, reference.theta) <= 1e-12


def _spy_on_lanczos_bases(monkeypatch):
    """Record the basis V of each _lanczos call."""
    bases, real = [], estimator._lanczos

    def spy(*args):
        out = real(*args)
        bases.append(out[0])
        return out

    monkeypatch.setattr(estimator, "_lanczos", spy)
    return bases


@pytest.mark.parametrize("block", [32, 48])
@pytest.mark.parametrize("n", _rows_past_the_block(1000)[:2], ids=["inside", "edge"])
def test_a_start_block_wider_than_the_rank_of_z_drops_its_dependent_rows(n, block, monkeypatch):
    # s_hat and 31 or 47 rows of Z, more than the 24 rows its span closes at with BLOCK = 16:
    # kept, the rows within sqrt(eps) of the span before them are normalised rounding, and the
    # basis ended 1.0 from orthogonal without closing. Dropped, the one block fit closes on Z
    # (no restart on Sigma_hat) with an orthonormal basis and theta at fit_spectral's
    monkeypatch.setattr(estimator, "BLOCK", block)
    fmap, X, y = _closing_problem(n)
    filt = make_filter("landweber", alpha=0.5)
    formed, _ = _spy_on_forming_sigma(monkeypatch)
    bases = _spy_on_lanczos_bases(monkeypatch)
    model = fit_iterative(fmap, X, y, filt, 256)
    (basis,) = bases
    assert formed == [] and len(basis) < block
    assert np.abs(basis @ basis.T - np.eye(len(basis))).max() <= 1e-14
    reference = fit_spectral(fmap, X, y, filt, iterations=256)
    assert _relative_error(model.theta, reference.theta) <= 1e-12


@pytest.mark.parametrize("layout", ["three-points", "duplicated-rows"])
def test_a_kept_fit_on_a_rank_deficient_z_is_exact(layout, monkeypatch):
    # 3000 rows of Z, kept (n <= ROW_BLOCK + D), from 3 distinct x (rank 3), or from 100 x
    # repeated 30 times, so that every one of the evenly spaced start rows (every 200th)
    # is the same row of Z: the start block drops its dependent rows, and the fit on the
    # kept Z matches fit_spectral on the dense Sigma_hat
    rng = np.random.default_rng(30)
    fmap = sample_feature_map("gaussian_rff", 1, 1000, {}, 30)
    if layout == "three-points":
        X = rng.choice(rng.standard_normal(3), size=(3000, 1))
    else:
        X = np.tile(rng.standard_normal((100, 1)), (30, 1))
    y = np.cos(X[:, 0]) + 0.3 * rng.standard_normal(3000)
    filt = make_filter("landweber", alpha=0.5)
    formed, passes = _spy_on_forming_sigma(monkeypatch)
    model = fit_iterative(fmap, X, y, filt, 256, snapshots=(1, 16))
    assert formed == [] and passes
    reference = fit_spectral(fmap, X, y, filt, iterations=256)
    assert _relative_error(model.theta, reference.theta) <= 1e-12
    dense = assemble_empirical_operators(fmap, X, y)
    pairs = [filt.resolve(iterations=t) for t in (1, 16)]
    for t, theta in zip((1, 16), estimator._filtered(filt, dense.sigma, dense.s, pairs)):
        assert _relative_error(model.snapshots[t], theta) <= 1e-12


@pytest.mark.parametrize("M,T", [(1000, 1), (1000, 2), (1000, 4), (1000, 25), (1000, 26), (160, 4), (160, 5)])
def test_a_kept_fit_takes_single_rows_while_they_cost_less_than_a_syrk(M, T, monkeypatch):
    # T <= ceil(D / SYRK_PARITY) (25 at D = 1000, 4 at D = 160): T passes of one row over Z,
    # exact by degree; past it, passes of BLOCK rows, which do not close within the budget
    # here, so Sigma_hat is formed after them
    fmap = sample_feature_map("gaussian_rff", 2, M, {}, 29)
    rng = np.random.default_rng(29)
    X = rng.standard_normal((1500, 2))
    y = np.cos(X[:, 0]) + 0.3 * rng.standard_normal(1500)
    during = _kept_fit_against_the_dense_filter(monkeypatch, fmap, X, y, T, (1, 2)[:T])
    on_z = T <= -(-M // estimator.SYRK_PARITY)
    assert during == (([], [1] * T) if on_z else ([_budget(M)], [estimator.BLOCK] * _budget(M)))


def test_a_block_fit_that_does_not_close_keeps_none_of_its_passes(monkeypatch):
    # Gaussian RFF at d = 4 with D = 600 and T = 17 > ceil(600 / SYRK_PARITY) does not close
    # within its budget of block passes: theta and the snapshots at T = 1, 2 and 4 are then
    # those of a fit whose Sigma_hat is formed before it starts, to the byte
    fmap = sample_feature_map("gaussian_rff", 4, 600, {}, 27)
    rng = np.random.default_rng(27)
    X = rng.standard_normal((700, 4))
    y = np.cos(X[:, 0]) + 0.3 * rng.standard_normal(700)
    during = _kept_fit_against_the_dense_filter(monkeypatch, fmap, X, y, 17, (1, 2, 4))
    assert during == ([_budget(600)], [estimator.BLOCK] * _budget(600))
    filt = make_filter("landweber", alpha=0.5)
    moments = assemble_empirical_operators(fmap, X, y)
    moments.sigma
    pairs = [filt.resolve(iterations=t) for t in (1, 2, 4, 17)]
    dense = estimator._solve(moments, filt, pairs, True)
    model = fit_iterative(fmap, X, y, filt, 17, snapshots=(1, 2, 4))
    for t, theta in zip((1, 2, 4, 17), dense):
        assert (model.theta if t == 17 else model.snapshots[t]).tobytes() == theta.tobytes()


def test_a_block_fit_is_the_same_bytes_across_reruns_and_threads():
    # the start rows are rows of Z, so a rerun, or a fit on a second thread
    # while another runs, gives the same theta to the byte
    from concurrent.futures import ThreadPoolExecutor

    fmap, X, y = _toy(seed=28, n=2000, d=1, M=500)
    filt = make_filter("landweber", alpha=0.5)

    def theta(_):
        return fit_iterative(fmap, X, y, filt, 64, snapshots=(4,)).theta

    first = theta(0)
    with ThreadPoolExecutor(max_workers=2) as pool:
        for other in [theta(0), *pool.map(theta, range(4))]:
            assert other.tobytes() == first.tobytes()


def test_predict_streams_over_row_tiles():
    fmap, X, y = _toy(seed=6, n=2 * ROW_BLOCK + 7, M=16)
    model = fit_spectral(fmap, X, y, make_filter("tikhonov"), lam=0.01)
    assert _relative_error(predict(model, X), feature_matrix(fmap, X) @ model.theta) <= 1e-12
    assert predict(model, X[:0]).shape == (0,)
    for bad in (X[:, :1], X[0], 0.5):
        with pytest.raises(ValueError, match="expected n x 2 input"):
            predict(model, bad)


def test_predict_over_row_splits():
    # the embedding is the same bit for bit however X is split (d = 1: one product per
    # argument; splits at 231 and 232 cut through the first COS_CHUNK boundary at
    # M = 283); Z @ theta is not, as BLAS sums a dot product in an order that can depend
    # on how many rows it multiplies, so predict agrees to the bound on that reordering
    fmap = sample_feature_map("gaussian_rff", 1, 283, {}, 12)
    X = np.random.default_rng(13).standard_normal((2 * ROW_BLOCK + 7, 1))
    theta = np.random.default_rng(14).standard_normal((283, 3))
    model = dataclasses.replace(
        fit_spectral(fmap, X[:50], X[:50, 0], make_filter("tikhonov"), lam=0.1), theta=theta
    )
    whole = predict(model, X)
    Z = feature_matrix(fmap, X)
    bound = 2 * 283 * np.finfo(float).eps * (np.abs(Z) @ np.abs(theta))
    for cuts in ([0, 231, 232, 4095, 4097, 2 * ROW_BLOCK + 7], [0, 1, 2, 5000, 2 * ROW_BLOCK + 7]):
        pairs = list(zip(cuts, cuts[1:]))
        assert np.array_equal(np.concatenate([feature_matrix(fmap, X[a:b]) for a, b in pairs]), Z)
        split = np.concatenate([predict(model, X[a:b]) for a, b in pairs])
        assert np.all(np.abs(split - whole) <= bound)


@pytest.mark.parametrize("kind,d,M,params", [
    ("gaussian_rff", 1, 283, {}),
    ("gaussian_rff", 1, 1414, {}),
    ("gaussian_rff", 2, features.COS_CHUNK + 5, {}),  # D above COS_CHUNK: one row a tile
    ("ntk_one_layer", 2, 40, {"activation": "relu"}),
    ("ntk_one_layer", 2, 40, {"activation": "tanh"}),
    ("designer_finite_rank", 1, 300, {}),
], ids=["rff-283", "rff-1414", "rff-one-row", "ntk-relu", "ntk-tanh", "designer"])
def test_predict_is_the_embedding_product_tile_by_tile(monkeypatch, kind, d, M, params):
    fmap = sample_feature_map(kind, d, M, params, 21)
    D = fmap.embedding_dim
    rows = max(1, features.COS_CHUNK // D)
    rng = np.random.default_rng(22)
    big = 3 if D > features.COS_CHUNK else 5000  # the oracle holds all of n x D
    X = rng.uniform(0.0, 1.0, (big, d)) if kind == "designer_finite_rank" else rng.standard_normal((big, d))
    Z = feature_matrix(fmap, X)
    embedded = []

    def spy(fmap, X):
        embedded.append(len(X))
        return feature_matrix(fmap, X)

    monkeypatch.setattr(estimator, "feature_matrix", spy)
    for theta in (rng.standard_normal(D), rng.standard_normal((D, 3))):
        model = estimator.RfModel(fmap, theta, make_filter("tikhonov"), 0.1, None, "spectral", {})
        bound = 2 * D * np.finfo(float).eps * (np.abs(Z) @ np.abs(theta))
        for n in sorted({1, rows - 1, rows, rows + 1, big} - {0}):
            embedded.clear()
            got = predict(model, X[:n])
            assert got.shape == (n, *theta.shape[1:])
            assert np.all(np.abs(got - Z[:n] @ theta) <= bound[:n])
            assert embedded == [rows] * (n // rows) + [n % rows] * (n % rows > 0)


def test_mse_holds_one_tile_not_the_test_embedding():
    # n = 5000, D = 1414, k = 5: a tile of 46 x 1414 floats with its cosine buffer
    # (1.0 MiB) and the n x k predictions, where the 4096-row embedding was 44 MiB
    fmap = sample_feature_map("gaussian_rff", 1, 1414, {}, 23)
    rng = np.random.default_rng(24)
    X, y = rng.standard_normal((5000, 1)), rng.standard_normal(5000)
    model = estimator.RfModel(fmap, rng.standard_normal((1414, 5)), make_filter("tikhonov"),
                              0.1, None, "spectral", {})
    errors, peak = traced_peak(lambda: mse(model, X, y))
    assert errors.shape == (5,) and np.isfinite(errors).all()
    assert peak < 2 * 2**20


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


# the edges of the factor's FACTOR_BLOCK-row blocks (2 * FACTOR_BLOCK + 5 is ROW_BLOCK + 5)
@pytest.mark.parametrize("n", sorted({1, 3, ROW_BLOCK + 5, FACTOR_BLOCK - 1, FACTOR_BLOCK,
                                      FACTOR_BLOCK + 1, 2 * FACTOR_BLOCK + 5}))
@pytest.mark.parametrize("M", [1, 3, 192])
@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("params", [{}, {"tau": 0.7, "gamma": 1.9}], ids=["default", "tau-gamma"])
@pytest.mark.parametrize("activation", ["relu", "identity"])
def test_ntk_factored_moments_match_the_embedding(activation, params, d, M, n):
    fmap, X, y = _ntk(activation, d, M, n, seed=d + M, **params)
    moments = assemble_empirical_operators(fmap, X, y)
    _assert_moments_match_the_embedding(moments, fmap, X, y)
    assert np.array_equal(moments.sigma, moments.sigma.T)


def test_relu_ntk_assembly_holds_one_factor_block():
    d, M = 4, 192
    fmap, X, y = _ntk("relu", d, M, 2 * FACTOR_BLOCK + 5)
    width, D = (d + 1) * M, (d + 2) * M
    # the floats held while the blocks stream (a block's feature-major factor, its Gram and
    # the running sum), then in moments_from_means (the summed Gram, its scaled copy, the
    # (d+1) M^2 act rows and Sigma_hat)
    floats = max(width * FACTOR_BLOCK + 2 * width**2, 2 * width**2 + (d + 1) * M**2 + D**2)
    bound = 8 * floats + 2**20
    # a row-major ROW_BLOCK-row factor and its ROW_BLOCK x M projection alone pass the bound
    assert 8 * (width + M) * ROW_BLOCK > bound
    moments, peak = traced_peak(lambda: assemble_empirical_operators(fmap, X, y))
    assert np.isfinite(moments.sigma).all()
    assert peak <= bound


def test_streamed_tanh_assembly_holds_one_row_block():
    d, M = 4, 192
    fmap, X, y = _ntk("tanh", d, M, 2 * ROW_BLOCK + 5)
    D = fmap.embedding_dim
    assert D == 1152 and X.shape[0] > ROW_BLOCK + D  # streamed, not kept
    # the floats held while the blocks stream: one ROW_BLOCK-row embedding, its Gram and
    # the running sum
    bound = 8 * (ROW_BLOCK * D + 2 * D * D) + 2**20
    # one block's ROW_BLOCK x M projection and derivative next to its embedding pass the bound
    assert 8 * (ROW_BLOCK * D + 2 * D * D + 2 * ROW_BLOCK * M) > bound
    moments, peak = traced_peak(lambda: assemble_empirical_operators(fmap, X, y))
    assert np.isfinite(moments.sigma).all()
    assert peak <= bound


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
    block = ROW_BLOCK if activation == "tanh" else FACTOR_BLOCK
    X[block + 2] = [3.0, 0.1]  # the one row outside, in the second row block
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
    # theta, each snapshot, and the losses at 0 (Moments.yy) and at theta (the model's
    # train_mse), within 1e-12 relative of the
    # loop in R^D, for T from one step to past D, where the Krylov basis closes at k = D or
    # earlier
    moments = assemble_empirical_operators(fmap, X, y)
    D = moments.s.size
    for T in (1, 2, D - 1, D, 3 * D):
        snapshots = (1, max(1, T // 2), T)
        model = fit_iterative(fmap, X, y, filt, T, snapshots=snapshots)
        theta, losses, taken = iterate_in_parameter_space(moments, filt, T, snapshots)
        for ours, loop in [(model.theta, theta), *((model.snapshots[t], taken[t]) for t in snapshots)]:
            assert _relative_error(ours, loop) <= 1e-12, T
        np.testing.assert_allclose([moments.yy, model.train_mse], losses[[0, -1]], rtol=1e-12, atol=0)


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
    # Near the bound both paths' rounding grows with T, the Krylov path's faster. Against
    # a long-double loop, fit_iterative's theta is off by 2.2e-13 relative at T = 3D here
    # (the float64 loop's by 1.9e-14); with J = 24, by 8.4e-13 at T = 72 (4.7e-14) and by
    # 1.8e-11 at T = 400 (1.6e-12), where its loss is off by 1.6e-10 (1.4e-11)
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
    moments = assemble_empirical_operators(fmap, X, y)
    theta, losses, _ = iterate_in_parameter_space(moments, filt, 6)
    model = fit_iterative(fmap, X, y, filt, 6)
    assert _relative_error(model.theta, theta) <= 1e-12
    np.testing.assert_allclose([moments.yy, model.train_mse], losses[[0, -1]], rtol=1e-12, atol=0)


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


def test_fit_iterative_keeps_to_the_loop_when_the_projection_exceeds_the_eigensolver_cap(monkeypatch):
    # EIG_DIM_CAP guards fit_spectral's D x D eigendecomposition, not the k x k one of the
    # projection: relu NTK (D = 40) closes at k = 33 > 8, and still matches the loop
    monkeypatch.setattr(estimator, "EIG_DIM_CAP", 8)
    _assert_fit_iterative_is_the_loop(*_map_of_kind("relu"), make_filter("landweber", alpha=0.5))


def _count_calls(monkeypatch, name):
    """Wrap np.linalg.<name> with a counter; returns the list of the shapes it was called on."""
    calls, real = [], getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_each_fit_eigendecomposes_its_operator_once(monkeypatch):
    # one k x k eigh serves every requested T of fit_iterative (relu NTK closes at k = 33),
    # and one D x D eigh a spectral cutoff fit; a Tikhonov fit solves once instead, on a
    # copy of the Sigma_hat it assembled
    fmap, X, y = _map_of_kind("relu")
    eighs, solves = _count_calls(monkeypatch, "eigh"), _count_calls(monkeypatch, "solve")
    model = fit_iterative(fmap, X, y, make_filter("landweber", alpha=0.5), 64, (1, 4, 16, 64))
    assert eighs == [(33, 33)] and sorted(model.snapshots) == [1, 4, 16, 64]
    fit_spectral(fmap, X, y, make_filter("spectral_cutoff"), lam=0.01)
    assert eighs[1:] == [(40, 40)]
    assembled = []

    def assemble(*args):
        moments = assemble_empirical_operators(*args)
        assembled.append((moments, moments.sigma.copy()))
        return moments

    monkeypatch.setattr(estimator, "assemble_empirical_operators", assemble)
    fit_spectral(fmap, X, y, make_filter("tikhonov"), lam=0.01)
    assert (len(eighs), solves) == (2, [(40, 40)])
    ((moments, sigma),) = assembled
    np.testing.assert_array_equal(moments.sigma, sigma)


@pytest.mark.parametrize("filt", [
    make_filter("landweber", alpha=0.5),
    make_filter("heavyball", alpha=0.05, beta=0.5),
    make_filter("spectral_cutoff"),
    make_filter("tikhonov"),
], ids=["landweber", "heavyball", "spectral_cutoff", "tikhonov"])
def test_filtering_several_pairs_is_each_one_pair_call_to_the_bit(filt):
    moments = assemble_empirical_operators(*_map_of_kind("relu"))
    if filt.iterative:
        pairs = [filt.resolve(iterations=t) for t in (1, 4, 16, 64)]
    else:
        pairs = [filt.resolve(lam) for lam in (0.5, 0.05, 0.01)]
    together = estimator._filtered(filt, moments.sigma, moments.s, pairs)
    assert len(together) == len(pairs)
    for pair, theta in zip(pairs, together):
        (alone,) = estimator._filtered(filt, moments.sigma, moments.s, [pair])
        np.testing.assert_array_equal(theta, alone)


def test_fit_iterative_with_zero_labels_spans_no_basis():
    # s_hat = 0: the filter applies to a 0 x 0 projection, so theta stays 0, every
    # snapshot is 0, and Moments.yy and train_mse are both 0
    fmap, X, _ = _map_of_kind("rff")
    y = np.zeros(len(X))
    for filt in (make_filter("landweber", alpha=0.5), make_filter("heavyball", alpha=0.05, beta=0.5)):
        model = fit_iterative(fmap, X, y, filt, 8, (1, 8))
        assert model.theta.shape == (40,) and not model.theta.any()
        assert not any(theta.any() for theta in model.snapshots.values())
        np.testing.assert_array_equal([assemble_empirical_operators(fmap, X, y).yy, model.train_mse],
                                      np.zeros(2))


def test_fit_invariant_under_row_permutation():
    fmap, X, y = _toy(seed=6)
    perm = np.random.default_rng(0).permutation(len(y))
    a = fit_spectral(fmap, X, y, make_filter("tikhonov"), lam=0.1)
    b = fit_spectral(fmap, X[perm], y[perm], make_filter("tikhonov"), lam=0.1)
    np.testing.assert_allclose(a.theta, b.theta, atol=1e-10)


def _snapshot_mses(model, X, y):
    """The training MSE of model.snapshots[t] for t = 1, ..., T."""
    thetas = np.column_stack([model.snapshots[t] for t in range(1, model.iterations + 1)])
    return mse(dataclasses.replace(model, theta=thetas), X, y)


def test_gradient_descent_loss_monotone():
    fmap, X, y = _toy(seed=7)
    model = fit_iterative(fmap, X, y, make_filter("landweber", alpha=0.9), 200, snapshots=range(1, 201))
    losses = np.concatenate([[np.mean(y**2)], _snapshot_mses(model, X, y)])
    assert np.all(np.diff(losses) <= 1e-12)
    # Moments.yy is the loss at theta = 0, mean y^2; train_mse that of the final theta
    assert isinstance(model.train_mse, float)
    assert assemble_empirical_operators(fmap, X, y).yy == pytest.approx(np.mean(y**2), rel=1e-15)
    assert model.train_mse == pytest.approx(mse(model, X, y), rel=1e-10)


@pytest.mark.parametrize("kind,kwargs,fit", [
    ("tikhonov", {}, {"lam": 0.05}),
    ("landweber", {"alpha": 0.9}, {"iterations": 30}),
], ids=["tikhonov-lam", "landweber-iterations"])
def test_fit_spectral_train_mse_is_the_training_loss(kind, kwargs, fit):
    fmap, X, y = _toy(seed=11)
    model = fit_spectral(fmap, X, y, make_filter(kind, **kwargs), **fit)
    # the same contract as fit_iterative: Moments.yy is the loss at theta = 0, train_mse
    # the loss at the returned theta
    assert isinstance(model.train_mse, float)
    assert assemble_empirical_operators(fmap, X, y).yy == pytest.approx(np.mean(y**2), rel=1e-15)
    assert model.train_mse == pytest.approx(mse(model, X, y), rel=1e-10)


@pytest.mark.parametrize("fit", [fit_spectral, fit_iterative])
def test_moments_loss_is_the_training_mse(fit, monkeypatch):
    # Moments.loss is the one quadratic both paths read model.train_mse from: the fit's own
    # Moments gives them to the bit. A fresh one keeps Z (n = 120 <= ROW_BLOCK + 24) and
    # takes its quadratic from Z, where the fit formed Sigma_hat, so it agrees to rounding
    fmap, X, y = _toy(seed=11)
    moments = assemble_empirical_operators(fmap, X, y)
    assembled = []

    def assemble(*args):
        assembled.append(assemble_empirical_operators(*args))
        return assembled[-1]

    monkeypatch.setattr(estimator, "assemble_empirical_operators", assemble)
    model = fit(fmap, X, y, make_filter("landweber", alpha=0.9), iterations=30)
    assert moments.loss(model.theta) == pytest.approx(mse(model, X, y), rel=1e-10)
    assert moments.loss(model.theta) == pytest.approx(model.train_mse, rel=1e-12)
    assert assembled[0].loss(model.theta) == model.train_mse
    assert moments.loss(np.zeros_like(model.theta)) == assembled[0].yy == moments.yy


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


@pytest.mark.parametrize("fit", [fit_spectral, fit_iterative])
def test_a_fit_given_both_lam_and_iterations_is_refused(fit):
    # Landweber(0.5) resolves T = 12 to lambda = 1/6: given lam = 1.0 too, a fit recorded
    # lam 1.0 with the theta of lambda = 1/6. A bad value is still named first
    fmap, X, y = _toy()
    filt = make_filter("landweber", alpha=0.5)
    with pytest.raises(ValueError, match="^a fit takes lam or iterations, not both$"):
        fit(fmap, X, y, filt, lam=1.0, iterations=12)
    with pytest.raises(ValueError, match="^lam must lie in"):
        fit(fmap, X, y, filt, lam=2.0, iterations=12)


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
    moments = assemble_empirical_operators(fmap, X, y)
    assert 2.0 <= hb.alpha * moments.sigma[0, 0] < 2.0 * (1.0 + hb.beta)
    iterative = fit_iterative(fmap, X, y, hb, 100)
    spectral = fit_spectral(fmap, X, y, hb, iterations=100)
    np.testing.assert_allclose(iterative.theta, spectral.theta, rtol=0, atol=1e-8)
    assert iterative.train_mse < moments.yy
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
    iterative = fit_iterative(fmap, X, y, hb, 400, snapshots=range(1, 401))
    spectral = fit_spectral(fmap, X, y, hb, iterations=400)
    np.testing.assert_allclose(iterative.theta, spectral.theta, rtol=0, atol=1e-8)
    assert _snapshot_mses(iterative, X, y).max() > 1e3 * assemble_empirical_operators(fmap, X, y).yy


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
    with pytest.raises(ValueError, match="lam must lie"):  # a bad lam is named before the cap
        fit_spectral(big, X, y, make_filter("spectral_cutoff"), lam=1.5)
    # the cap guards the eigendecomposition, which a Tikhonov fit does not run
    monkeypatch.setattr(estimator, "EIG_DIM_CAP", 8)
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
    # model.json holds no training loss, so a loaded model has none
    assert isinstance(model.train_mse, float) and loaded.train_mse is None


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
_NOT_A_PAIR = ("lam = 1.0 and iterations = 12 are not a fit's pair: "
               "landweber resolves lam to T = 2 and T to lam = 0.16666666666666666")


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
    # no fit writes these: a Tikhonov model on the iterative path, and a lam that is neither
    # the lam of T = 12 (1/6) nor one that resolves to T = 12 (1.0 resolves to T = 2)
    (lambda p: {"filter": {"kind": "tikhonov"}, "iterations": None, "fit_path": "iterative"},
     "fit_path iterative needs an iterative filter, not tikhonov"),
    (lambda p: {"lam": 1.0}, _NOT_A_PAIR),
    # a step so small that the T of lam = 1/6 is past the float range: an OverflowError once
    (lambda p: {"filter": {"kind": "landweber", "alpha": 1e-320}},
     "lam = 0.16666666666666666 is too small for filter landweber: "
     "T = ceil(1 / (alpha_eff lam)) is past the float range"),
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


@pytest.mark.parametrize("bad,named", [
    (lambda theta: np.column_stack([theta, theta]), "model theta has 32 entries, its map's embedding_dim is 16"),
    (lambda theta: theta[:10], "model theta has 10 entries, its map's embedding_dim is 16"),
    (lambda theta: np.full_like(theta, np.nan), "model theta has NaN or inf entries"),
    (lambda theta: np.where(np.arange(theta.size) == 3, -np.inf, theta), "model theta has NaN or inf entries"),
], ids=["D-by-2", "short", "nan", "inf"])
def test_save_model_refuses_a_theta_that_load_model_refuses(tmp_path, bad, named):
    # a heatmap builds a D x k theta with replace(model, theta=...); such a model, or a
    # non-finite one, is refused before the file is opened, with load_model's own message
    fmap, X, y = _toy(M=16)
    model = fit_spectral(fmap, X, y, make_filter("tikhonov"), lam=0.1)
    refused = dataclasses.replace(model, theta=bad(model.theta))
    path = tmp_path / "model.json"
    with pytest.raises(ValueError) as exc:
        save_model(refused, path)
    assert str(exc.value) == named
    assert not path.exists()
    save_model(model, path)  # the same theta written past save_model fails to load as named
    payload = json.loads(path.read_text())
    payload["theta_b64"] = base64.b64encode(refused.theta.astype("<f8").tobytes()).decode("ascii")
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: {named}"


@pytest.mark.parametrize("fit,edit,named", [
    (lambda fmap, X, y: fit_spectral(fmap, X, y, make_filter("tikhonov"), lam=0.1),
     {"fit_path": "iterative"}, "fit_path iterative needs an iterative filter, not tikhonov"),
    (lambda fmap, X, y: fit_iterative(fmap, X, y, make_filter("landweber", alpha=0.5), 12),
     {"lam": 1.0}, _NOT_A_PAIR),
], ids=["tikhonov-iterative", "landweber-lam-not-of-T"])
def test_save_model_refuses_a_fit_that_load_model_refuses(tmp_path, fit, edit, named):
    fmap, X, y = _toy()
    model = fit(fmap, X, y)
    path = tmp_path / "model.json"
    with pytest.raises(ValueError) as exc:
        save_model(dataclasses.replace(model, **edit), path)
    assert str(exc.value) == named
    assert not path.exists()
    save_model(model, path)  # the same edit written past save_model fails to load as named
    path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
    with pytest.raises(ValueError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: {named}"


def test_save_model_refuses_a_d_by_1_theta(tmp_path):
    # load_model gives back a 1-d theta, so a D x 1 one would not load as it was saved
    fmap, X, y = _toy(M=16)
    model = fit_spectral(fmap, X, y, make_filter("tikhonov"), lam=0.1)
    path = tmp_path / "model.json"
    with pytest.raises(ValueError) as exc:
        save_model(dataclasses.replace(model, theta=model.theta[:, None]), path)
    assert str(exc.value) == "model theta must be 1-d, not of shape (16, 1)"
    assert not path.exists()


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=st.sampled_from([(16,), (16, 1), (8, 2), (16, 2), (15,), (17,)]),
       special=st.sampled_from([None, np.nan, np.inf, -np.inf]),
       where=st.integers(0, 31), scale=st.floats(-1e300, 1e300))
def test_every_file_save_model_writes_loads(tmp_path, shape, special, where, scale):
    fmap, X, y = _toy(M=16)
    model = fit_spectral(fmap, X, y, make_filter("tikhonov"), lam=0.1)
    theta = scale * np.linspace(-1.0, 1.0, int(np.prod(shape))).reshape(shape)
    if special is not None:
        theta.flat[where % theta.size] = special
    path = tmp_path / "model.json"
    path.unlink(missing_ok=True)
    try:
        save_model(dataclasses.replace(model, theta=theta), path)
    except ValueError:
        assert not path.exists()
        assert theta.shape != (16,) or not np.isfinite(theta).all()
    else:
        assert theta.shape == (16,) and np.isfinite(theta).all()
        loaded = load_model(path).theta
        assert loaded.shape == theta.shape
        np.testing.assert_array_equal(loaded, theta)


@pytest.mark.parametrize("choice", [{"lam": 0.05}, {"iterations": 40}], ids=["lam", "iterations"])
@pytest.mark.parametrize("kind,params,path", [
    ("landweber", {"alpha": 0.5}, "fit_iterative"),
    ("heavyball", {"alpha": 0.2, "beta": 0.7}, "fit_iterative"),
    ("tikhonov", {}, "fit_spectral"),
    ("spectral_cutoff", {}, "fit_spectral"),
], ids=["landweber", "heavyball", "tikhonov", "spectral_cutoff"])
def test_fit_runs_the_fit_its_filter_picks(monkeypatch, choice, kind, params, path):
    # estimator.fit is the one place the filter picks the path; a filter that is not
    # iterative goes to fit_spectral with an iteration count too, and is refused there
    fmap, X, y = _toy(M=16)
    filt = make_filter(kind, **params)
    direct, calls = getattr(estimator, path), []

    def recording(*args, **kwargs):
        calls.append(path)
        return direct(*args, **kwargs)

    for name in ("fit_iterative", "fit_spectral"):
        monkeypatch.setattr(estimator, name, recording if name == path else None)
    if filt.iterative or "lam" in choice:
        model = estimator.fit(fmap, X, y, filt, **choice)
        assert model.theta.tobytes() == direct(fmap, X, y, filt, **choice).theta.tobytes()
        assert model.fit_path == path.removeprefix("fit_")
    else:
        with pytest.raises(ValueError, match=f"^filter {kind} is not iterative and takes no iteration count$"):
            estimator.fit(fmap, X, y, filt, **choice)
    assert calls == [path]


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", ["rff", "designer", "relu", "tanh", "identity"])
def test_non_finite_input_rejected_by_predict_and_feature_matrix(kind, bad):
    # features.check_input is the one finiteness check of X: feature_matrix, and predict
    # and mse before their first tile, refuse a non-finite row (before, each map embedded
    # it to NaN, or, for a rank-1 designer map, to a finite value)
    fmap, X, y = _map_of_kind(kind)
    model = fit_spectral(fmap, X, y, make_filter("tikhonov"), lam=0.1)
    X[-1, 0] = bad
    for embed in (lambda: feature_matrix(fmap, X), lambda: predict(model, X), lambda: mse(model, X, y)):
        with pytest.raises(ValueError, match="^input X contains NaN or inf values$"):
            embed()


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


@pytest.mark.parametrize("params,x,y,n", [
    ({"rho_max": 100.0, "activation": "identity"}, 10.0, 1e308, 1000),
    ({"tau": 1e153, "rho_max": 1.0, "activation": "tanh"}, 0.7, 1.0, 4000),
], ids=["identity", "tanh-kept"])
def test_non_finite_moments_rejected_on_both_paths(params, x, y, n):
    # finite data and a finite kappa_sq, but a moment past the double range. Identity: the
    # mean of x y = 10 * 1e308. Tanh (D = 4, so n = 4000 keeps Z): the column sums of
    # squares of its x blocks, about 4000 * 4.9e305
    fmap = sample_feature_map("ntk_one_layer", 2, 1, params, 0)
    X = np.full((n, 2), x)
    y = np.full(n, y)
    with pytest.raises(ValueError, match="non-finite Sigma_hat or s_hat"):
        fit_spectral(fmap, X, y, make_filter("tikhonov"), lam=0.1)
    with pytest.raises(ValueError, match="non-finite Sigma_hat or s_hat"):
        fit_iterative(fmap, X, y, make_filter("landweber", alpha=0.5), 8)
