import numpy as np
import pytest

from specrf.features import MemoryBudgetError, feature_matrix, sample_feature_map
from specrf.oracles import (
    DesignerKernel,
    GaussianKernel,
    MonteCarloKernel,
    check_psd,
    krr_gram_fit,
    krr_predict,
)


def test_gaussian_pair_known_value():
    k = GaussianKernel(2, bandwidth=1.0)
    assert k.gram(np.zeros((1, 2)), np.ones((1, 2)))[0, 0] == pytest.approx(
        0.36787944117144233, abs=1e-15
    )
    assert k.gram(np.zeros((1, 2)), np.zeros((1, 2)))[0, 0] == 1.0


def test_gaussian_gram_symmetric_psd():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 3))
    K = GaussianKernel(3, 1.3).gram(X)
    np.testing.assert_allclose(K, K.T, atol=1e-14)
    assert check_psd(K)


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


def test_monte_carlo_kernel_error_shrinks_with_samples():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 2))
    ref = GaussianKernel(2, 1.0).gram(X)

    def med_err(M, seed):
        km = MonteCarloKernel(sample_feature_map("gaussian_rff", 2, M, {"bandwidth": 1.0}, seed))
        return np.median(np.abs(km.gram(X) - ref))

    small = np.median([med_err(128, s) for s in range(20)])
    large = np.median([med_err(2048, s) for s in range(20)])
    # quadrupling twice should shrink the error by roughly 4x
    assert 2.5 < small / large < 6.5


def test_feature_map_kernel_is_embedding_inner_product():
    f = sample_feature_map("gaussian_rff", 2, 32, {}, 1)
    k = MonteCarloKernel(f)
    rng = np.random.default_rng(1)
    X = rng.standard_normal((10, 2))
    Z = feature_matrix(f, X)
    np.testing.assert_allclose(k.gram(X), Z @ Z.T, atol=1e-13)


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
    k = GaussianKernel(1, 1.0)
    with pytest.raises(MemoryBudgetError, match="capped"):
        k.gram(np.zeros((5001, 1)))


def test_check_psd_rejects_indefinite():
    assert not check_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
