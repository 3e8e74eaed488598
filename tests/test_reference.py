import numpy as np
import pytest

from reference import GaussianKernel, MonteCarloKernel, check_psd, effective_dimension_comparison
from specrf.features import feature_matrix, sample_feature_map


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


def test_check_psd_rejects_indefinite():
    assert not check_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_effective_dimension_comparison_on_rff():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((600, 2))
    fmap = sample_feature_map("gaussian_rff", 2, 256, {}, 1)
    out = effective_dimension_comparison(fmap, GaussianKernel(2, 1.0), X, 0.05)
    assert out["status"] == "ok"
    assert 0.2 < out["ratio"] < out["threshold"]
    with pytest.raises(ValueError, match="500"):
        effective_dimension_comparison(fmap, GaussianKernel(2, 1.0), X[:100], 0.05)


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
