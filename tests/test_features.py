import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import traced_peak

from specrf import features
from specrf.features import (
    DESIGNER_FINITE_RANK,
    GAUSSIAN_RFF,
    NTK_ONE_LAYER,
    MemoryBudgetError,
    feature_matrix,
    sample_feature_map,
)


def test_designer_basis_orthonormal_under_quadrature():
    # with unit eigenvalues the designer embedding is the basis e_1 = 1,
    # e_j = sqrt(2) cos((j-1) pi x), orthonormal in L2([0,1]); check with a fine midpoint rule
    n = 20000
    x = (np.arange(n) + 0.5) / n
    f = sample_feature_map(DESIGNER_FINITE_RANK, 1, 6, {"eigenvalues": np.ones(6)}, 0)
    E = feature_matrix(f, x[:, None])
    gram = E.T @ E / n
    assert np.allclose(gram, np.eye(6), atol=1e-6)


def test_designer_embed_known_values():
    mu = np.array([1.0, 0.25, 1.0 / 9.0])
    f = sample_feature_map(DESIGNER_FINITE_RANK, 1, 3, {"eigenvalues": mu}, 0)
    Z = feature_matrix(f, np.array([[0.0], [0.5]]))
    np.testing.assert_allclose(
        Z[0], [1.0, 0.7071067811865476, 0.47140452079103173], atol=1e-14
    )
    # at x = 0.5 the second basis function vanishes and the third flips sign
    np.testing.assert_allclose(Z[1], [1.0, 0.0, -0.47140452079103173], atol=1e-14)
    assert f.kappa_sq == pytest.approx(1.7222222222222223)


def test_designer_map_is_exact_not_monte_carlo():
    # doubling the rank must not rescale the shared leading features
    mu4 = np.arange(1, 5, dtype=float) ** -2.0
    f2 = sample_feature_map(DESIGNER_FINITE_RANK, 1, 2, {"eigenvalues": mu4[:2]}, 0)
    f4 = sample_feature_map(DESIGNER_FINITE_RANK, 1, 4, {"eigenvalues": mu4}, 0)
    X = np.array([[0.3]])
    np.testing.assert_allclose(
        feature_matrix(f2, X), feature_matrix(f4, X)[:, :2], atol=1e-15
    )


def test_rff_frequencies_seed_determined():
    a = sample_feature_map(GAUSSIAN_RFF, 3, 16, {}, 7)
    b = sample_feature_map(GAUSSIAN_RFF, 3, 16, {}, 7)
    c = sample_feature_map(GAUSSIAN_RFF, 3, 16, {}, 8)
    np.testing.assert_array_equal(a.frequencies, b.frequencies)
    np.testing.assert_array_equal(a.phases, b.phases)
    assert not np.array_equal(a.frequencies, c.frequencies)


def test_rff_bandwidth_scales_frequencies():
    narrow = sample_feature_map(GAUSSIAN_RFF, 2, 64, {"bandwidth": 1.0}, 0)
    wide = sample_feature_map(GAUSSIAN_RFF, 2, 64, {"bandwidth": 4.0}, 0)
    np.testing.assert_allclose(narrow.frequencies, 4.0 * wide.frequencies)


@pytest.mark.parametrize(
    "kind,dim,params",
    [
        (GAUSSIAN_RFF, 4, {"bandwidth": 1.5}),
        (NTK_ONE_LAYER, 3, {"activation": "tanh"}),
        (NTK_ONE_LAYER, 3, {"activation": "relu"}),
        (DESIGNER_FINITE_RANK, 1, {"decay_exponent": 1.0}),
    ],
)
def test_embedding_norm_within_declared_bound(kind, dim, params):
    f = sample_feature_map(kind, dim, 32, params, 11)
    rng = np.random.default_rng(0)
    if kind == DESIGNER_FINITE_RANK:
        X = rng.uniform(0.0, 1.0, (10_000, 1))
    else:
        X = rng.standard_normal((10_000, dim))
        if kind == NTK_ONE_LAYER:
            norms = np.linalg.norm(X, axis=1, keepdims=True)
            X = X / np.maximum(norms, 1.0) * f.params["rho_max"] * rng.uniform(0, 1, (10_000, 1))
    Z = feature_matrix(f, X)
    assert np.max(np.sum(Z**2, axis=1)) <= f.kappa_sq + 1e-12


def _closed_form_embedding(f, X):
    """The embedding written as plain expressions, one temporary per step."""
    scale = 1.0 / np.sqrt(f.num_samples)
    if f.kind == GAUSSIAN_RFF:
        # cos(theta) = (1 - t^2) / (1 + t^2) for t = tan(theta / 2), as feature_matrix
        # computes it; test_rff_cosines_within_2_5_eps_of_long_double checks the identity
        t = np.tan(X @ (0.5 * f.frequencies).T + 0.5 * f.phases)
        return scale * np.sqrt(2.0) * ((1.0 - t * t) / (1.0 + t * t))
    if f.kind == DESIGNER_FINITE_RANK:
        basis = np.sqrt(2.0) * np.cos(np.pi * np.outer(X[:, 0], np.arange(f.num_samples)))
        basis[:, 0] = 1.0
        return basis * np.sqrt(f.params["eigenvalues"])
    tau, gamma = f.params["tau"], f.params["gamma"]
    proj = X @ f.frequencies.T
    act, dact = {
        "relu": (np.maximum(proj, 0.0), (proj > 0).astype(float)),
        "tanh": (np.tanh(proj), 1.0 - np.tanh(proj) ** 2),
        "identity": (proj, np.ones_like(proj)),
    }[f.params["activation"]]
    parts = [tau * X[:, i : i + 1] * dact for i in range(f.input_dim)]
    return scale * np.hstack(parts + [act, tau * gamma * dact])


@pytest.mark.parametrize(
    "kind,dim,params",
    [
        (GAUSSIAN_RFF, 3, {"bandwidth": 0.7}),
        (NTK_ONE_LAYER, 3, {"activation": "relu", "tau": 0.7, "gamma": 1.3}),
        (NTK_ONE_LAYER, 2, {"activation": "tanh"}),
        (NTK_ONE_LAYER, 2, {"activation": "identity", "tau": 2.0}),
        (DESIGNER_FINITE_RANK, 1, {"decay_exponent": 0.5}),
    ],
)
def test_feature_matrix_equals_closed_form_bit_for_bit(kind, dim, params, monkeypatch):
    # a chunk of 997 cosines cuts the 300 x 40 RFF embedding mid-row, 13 times
    monkeypatch.setattr(features, "COS_CHUNK", 997)
    f = sample_feature_map(kind, dim, 40, params, 3)
    rng = np.random.default_rng(4)
    if kind == DESIGNER_FINITE_RANK:
        X = rng.uniform(0.0, 1.0, (300, 1))
    else:
        X = rng.standard_normal((300, dim))
    assert np.array_equal(feature_matrix(f, X), _closed_form_embedding(f, X))


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_ntk_embedding_holds_no_block_sized_temporary(activation):
    n, d, M = 4096, 4, 192
    f = sample_feature_map(NTK_ONE_LAYER, d, M, {"activation": activation}, 0)
    X = np.random.default_rng(0).standard_normal((n, d))
    bound = 8 * n * f.embedding_dim + 2**20
    # one n x M projection next to the output alone passes the bound
    assert 8 * n * M > 2**20
    Z, peak = traced_peak(lambda: feature_matrix(f, X))
    assert Z.shape == (n, f.embedding_dim)
    assert peak <= bound


def test_ntk_component_count_and_dim():
    f = sample_feature_map(NTK_ONE_LAYER, 3, 16, {"activation": "relu"}, 0)
    assert f.component_count == 5
    assert f.embedding_dim == 80


def test_ntk_identity_activation_matches_closed_form_kernel():
    # with identity activation and tau = gamma = 1 the population kernel is
    # 2 x.y + 1; a large sampled map must land within Monte Carlo error
    d, M = 3, 200_000
    f = sample_feature_map(NTK_ONE_LAYER, d, M, {"activation": "identity"}, 5)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(d) / 2
    y = rng.standard_normal(d) / 2
    exact = 2.0 * float(x @ y) + 1.0
    # only the (w.x)(w.y) component fluctuates; its std is O(1/sqrt(M))
    Z = feature_matrix(f, np.stack([x, y]))
    assert abs(float(Z[0] @ Z[1]) - exact) < 5.0 / np.sqrt(M)


def test_ntk_tanh_kappa_certified_relu_not():
    tanh = sample_feature_map(NTK_ONE_LAYER, 2, 8, {"activation": "tanh"}, 0)
    relu = sample_feature_map(NTK_ONE_LAYER, 2, 8, {"activation": "relu"}, 0)
    assert tanh.kappa_certified
    assert not relu.kappa_certified


def test_ntk_rejects_inputs_outside_declared_ball():
    f = sample_feature_map(NTK_ONE_LAYER, 2, 8, {"rho_max": 1.0}, 0)
    with pytest.raises(ValueError, match="rho_max"):
        feature_matrix(f, np.array([[2.0, 0.0]]))
    with pytest.raises(ValueError, match="rho_max"):
        feature_matrix(f, np.array([[0.1, 0.0], [3.0, 0.0]]))


def test_descriptor_roundtrip_regenerates_frequencies():
    for kind, dim, params in (
        (GAUSSIAN_RFF, 2, {"bandwidth": 2.0}),
        (NTK_ONE_LAYER, 2, {"activation": "tanh", "tau": 0.5}),
        (DESIGNER_FINITE_RANK, 1, {"decay_exponent": 0.5}),
    ):
        f = sample_feature_map(kind, dim, 12, params, 9)
        g = sample_feature_map(**json.loads(json.dumps(f.descriptor())))
        np.testing.assert_array_equal(f.frequencies, g.frequencies)
        assert g.descriptor() == f.descriptor()
        assert g.kappa_sq == f.kappa_sq


def test_frequencies_past_the_memory_budget_are_refused_before_they_are_drawn(monkeypatch):
    # num_samples x input_dim floats: 200 x 2 x 8 = 3200 bytes fit a budget of 3200, 201 rows do not
    monkeypatch.setattr(features, "DEFAULT_MEMORY_BUDGET", 3200)
    for kind in (GAUSSIAN_RFF, "ntk_one_layer"):
        assert sample_feature_map(kind, 2, 200, {}, 0).frequencies.shape == (200, 2)
        with pytest.raises(MemoryBudgetError, match="^frequency matrix needs 3216 bytes, budget is 3200$"):
            sample_feature_map(kind, 2, 201, {}, 0)
    with pytest.raises(MemoryBudgetError, match="frequency matrix needs 3208 bytes"):
        sample_feature_map("designer_finite_rank", 1, 401, {}, 0)


def test_feature_matrix_memory_budget(monkeypatch):
    f = sample_feature_map(GAUSSIAN_RFF, 2, 1000, {}, 0)
    monkeypatch.setattr(features, "DEFAULT_MEMORY_BUDGET", 1000)
    with pytest.raises(MemoryBudgetError):
        feature_matrix(f, np.zeros((1000, 2)))


def test_validation_errors():
    with pytest.raises(ValueError, match="unknown feature map kind"):
        sample_feature_map("fourier", 1, 4, {}, 0)
    with pytest.raises(ValueError):
        sample_feature_map(GAUSSIAN_RFF, 0, 4, {}, 0)
    with pytest.raises(ValueError):
        sample_feature_map(GAUSSIAN_RFF, 1, 0, {}, 0)
    with pytest.raises(ValueError, match="num_samples must be an integer >= 1, not 8.5"):
        sample_feature_map(GAUSSIAN_RFF, 1, 8.5, {}, 0)
    whole = sample_feature_map(GAUSSIAN_RFF, 2.0, 4.0, {}, 0)
    assert type(whole.input_dim) is type(whole.num_samples) is int
    with pytest.raises(ValueError, match="bandwidth"):
        sample_feature_map(GAUSSIAN_RFF, 1, 4, {"bandwidth": -1.0}, 0)
    with pytest.raises(ValueError, match="input_dim must be 1"):
        sample_feature_map(DESIGNER_FINITE_RANK, 2, 4, {}, 0)
    with pytest.raises(ValueError, match="non-increasing"):
        sample_feature_map(
            DESIGNER_FINITE_RANK, 1, 3, {"eigenvalues": [1.0, 0.2, 0.5]}, 0
        )
    f = sample_feature_map(GAUSSIAN_RFF, 3, 4, {}, 0)
    with pytest.raises(ValueError, match="expected n x 3 input"):
        feature_matrix(f, np.zeros((1, 2)))


def test_empty_feature_matrix():
    f = sample_feature_map(GAUSSIAN_RFF, 2, 8, {}, 0)
    assert feature_matrix(f, np.zeros((0, 2))).shape == (0, 8)


_PI = np.longdouble("3.14159265358979323846264338327950288")
_WIDE = np.finfo(np.longdouble).eps < np.finfo(float).eps
# Per-entry error of the designer cosine tables, in units of (k + 1) eps for the entry's
# frequency k (a rounded angle k pi x errs by about k pi x eps / 2). The direct calls
# cos(k * (pi x)) that the tables replaced reached 2.998 over these K on 4000 uniform
# points and x = 0, 1; without a long double to compare against, the direct product
# is the reference and each side may err by that much.
_TABLE_ERROR = 3.0 if _WIDE else 6.0


def _reference_cosines(k, x):
    """cos and sin of k pi x for each k (rows) and x (columns): in long double where it
    is wider than double, else from np.cos of the direct product in double."""
    if _WIDE:
        angle = np.outer(k.astype(np.longdouble), np.asarray(x, np.longdouble) * _PI)
    else:
        angle = np.outer(k, np.pi * np.asarray(x))
    return np.cos(angle), np.sin(angle)


@pytest.mark.parametrize("x", [
    [0.0], [1.0], [0.3], [0.0, 1.0, *np.random.default_rng(5).uniform(0.0, 1.0, 254)]
], ids=["n1-x0", "n1-x1", "n1-x0.3", "n256"])
@pytest.mark.parametrize("K", [1, 2, 7, 64, 1023, 16383])
def test_cosine_tables_within_a_frequency_scaled_bound(K, x):
    hi, lo = features._cosine_tables(K, x)
    A, B = hi.shape[0], lo.shape[0]
    assert B * B >= K > (B // 2) ** 2 and A == -(-K // B)
    assert hi.shape == (A, 2 * len(x)) and lo.shape == (B, 2 * len(x))
    # hi[a] holds (cos, sin) of a B pi x, lo[b] holds (cos, -sin) of b pi x
    for table, k, sin_sign in ((hi, B * np.arange(A), 1.0), (lo, np.arange(B), -1.0)):
        pairs = table.reshape(k.size, len(x), 2)
        cos, sin = _reference_cosines(k, x)
        bound = _TABLE_ERROR * np.finfo(float).eps * (k[:, None] + 1.0)
        assert np.all(np.abs(pairs[..., 0] - cos) <= bound)
        assert np.all(np.abs(sin_sign * pairs[..., 1] - sin) <= bound)


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(0.0, 1.0),
    y=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_designer_kernel_symmetric_and_bounded(x, y, seed):
    f = sample_feature_map(DESIGNER_FINITE_RANK, 1, 8, {"decay_exponent": 1.0}, seed)
    Z = feature_matrix(f, np.array([[x], [y]]))
    K = Z @ Z.T
    assert K[0, 1] == pytest.approx(K[1, 0], abs=1e-12)
    assert np.all(np.abs(K) <= f.kappa_sq + 1e-12)


@pytest.mark.parametrize("kind,dim,params,named", [
    (GAUSSIAN_RFF, 2, {"bandwith": 2.0}, "bandwith"),
    (GAUSSIAN_RFF, 2, {"bandwidth": 2.0, "activation": "relu"}, "activation"),
    (NTK_ONE_LAYER, 2, {"bandwidth": 1.0}, "bandwidth"),
    (DESIGNER_FINITE_RANK, 1, {"decay": 0.5}, "decay"),
])
def test_sample_feature_map_rejects_params_its_kind_does_not_read(kind, dim, params, named):
    with pytest.raises(ValueError, match=f"^feature map params keys not taken by {kind}: {named}$"):
        sample_feature_map(kind, dim, 4, params, 0)


@pytest.mark.parametrize("kind,dim,params,named", [
    (GAUSSIAN_RFF, 2, {"bandwidth": None}, "gaussian_rff param bandwidth must be a real number"),
    (GAUSSIAN_RFF, 2, {"bandwidth": "2"}, "gaussian_rff param bandwidth must be a real number"),
    (GAUSSIAN_RFF, 2, {"bandwidth": True}, "gaussian_rff param bandwidth must be a real number"),
    (GAUSSIAN_RFF, 2, {"bandwidth": [1]}, "gaussian_rff param bandwidth must be a real number"),
    (GAUSSIAN_RFF, 2, {"bandwidth": float("nan")}, "gaussian_rff param bandwidth must be a real number"),
    (GAUSSIAN_RFF, 2, {"bandwidth": 1e-320}, "bandwidth must be positive with finite frequencies"),
    (NTK_ONE_LAYER, 2, {"tau": None}, "ntk_one_layer param tau must be a real number"),
    (NTK_ONE_LAYER, 2, {"rho_max": "10"}, "ntk_one_layer param rho_max must be a real number"),
    (NTK_ONE_LAYER, 2, {"activation": None}, "unknown activation None"),
    *[(NTK_ONE_LAYER, 2, bad, "^tau, gamma must be >= 0 and rho_max > 0$")
      for bad in ({"tau": -1.0}, {"gamma": -0.5}, {"rho_max": 0.0}, {"rho_max": -2.0})],
    (NTK_ONE_LAYER, 2, {"tau": 1e200}, r"kappa_sq overflows: tau=1e\+200"),
    (NTK_ONE_LAYER, 2, {"tau": 1e154}, r"kappa_sq overflows: tau=1e\+154"),  # finite tau**2
    (NTK_ONE_LAYER, 2, {"tau": 1e154, "activation": "tanh"}, r"kappa_sq overflows: tau=1e\+154"),
    (DESIGNER_FINITE_RANK, 1, {"decay_exponent": 0}, "decay_exponent must be positive"),
    (DESIGNER_FINITE_RANK, 1, {"decay_exponent": -1.0}, "decay_exponent must be positive"),
    (DESIGNER_FINITE_RANK, 1, {"eigenvalues": [np.nan, 0.5]}, "finite and strictly positive"),
    (DESIGNER_FINITE_RANK, 1, {"eigenvalues": [None, 0.5]}, "finite and strictly positive"),
    (DESIGNER_FINITE_RANK, 1, {"eigenvalues": [np.inf, 1.0]}, "finite and strictly positive"),
    (DESIGNER_FINITE_RANK, 1, {"eigenvalues": {"a": 1.0}}, "eigenvalues must be a list of numbers"),
    (DESIGNER_FINITE_RANK, 1, {"eigenvalues": [1.0, 0.5, 0.2]}, r"^expected 2 eigenvalues, got shape \(3,\)$"),
    (DESIGNER_FINITE_RANK, 1, {"eigenvalues": [1.0]}, r"^expected 2 eigenvalues, got shape \(1,\)$"),
    (DESIGNER_FINITE_RANK, 1, {"eigenvalues": [1e308, 1e308]}, "kappa_sq overflows: designer eigenvalues"),
])
def test_sample_feature_map_rejects_bad_param_values(kind, dim, params, named):
    num_samples = 2 if "eigenvalues" in params else 4
    with pytest.raises(ValueError, match=named):
        sample_feature_map(kind, dim, num_samples, params, 0)


def test_params_hold_every_default_of_the_kind():
    # a designer map's decay_exponent only generates its eigenvalues, which it holds alone
    for kind, defaults in features.PARAMS.items():
        f = sample_feature_map(kind, 1, 3, {}, 0)
        held = {"eigenvalues"} if kind == DESIGNER_FINITE_RANK else set(defaults)
        assert set(f.params) == held == set(f.descriptor()["params"])
        for key in held:
            if defaults[key] is not None:
                assert f.params[key] == defaults[key]
    f = sample_feature_map(DESIGNER_FINITE_RANK, 1, 3, {"decay_exponent": 0.5}, 0)
    np.testing.assert_array_equal(f.params["eigenvalues"], [1.0, 0.25, 1.0 / 9.0])
    np.testing.assert_array_equal(sample_feature_map(DESIGNER_FINITE_RANK, 1, 3, {}, 0).params["eigenvalues"],
                                  [1.0, 0.5, 1.0 / 3.0])


@pytest.mark.parametrize("decay", [1.0, 0.5, -1.0])
def test_designer_map_takes_eigenvalues_or_decay_exponent_not_both(decay):
    params = {"eigenvalues": [1.0, 0.5, 1.0 / 3.0], "decay_exponent": decay}
    with pytest.raises(ValueError, match="^designer map takes eigenvalues or decay_exponent, not both$"):
        sample_feature_map(DESIGNER_FINITE_RANK, 1, 3, params, 0)


def test_unhashable_kind_is_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown feature map kind"):
        sample_feature_map(["gaussian_rff"], 1, 4, {}, 0)


def _rff_error(f, X):
    """The largest |feature_matrix(f, X) - scale cos(theta)| in units of eps * scale, for
    theta = X W^T + b the double argument np.cos would read, its cosine taken in long
    double."""
    scale = 1.0 / np.sqrt(f.num_samples) * np.sqrt(2.0)
    theta = (X @ f.frequencies.T + f.phases).astype(np.longdouble)
    error = np.abs(feature_matrix(f, X) - scale * np.cos(theta))
    return float(np.max(error)) / (scale * np.finfo(float).eps)


# odd multiples of pi / 2 and of pi (where tan(theta / 2) is +-1 and has a pole), up to about
# 2e12, and arguments up to 1e12 on a log scale
_ODD = np.concatenate([np.arange(1, 2001, 2), 2 * np.geomspace(1e3, 3e11, 500).astype(np.int64) + 1])
_RFF_ARGUMENTS = np.concatenate([
    [0.0, 5e-324, 1e-300, 1e-8],
    *(np.pi / 2 * _ODD, np.pi * _ODD),
    np.geomspace(1e-3, 1e12, 2000),
    np.random.default_rng(6).uniform(-1.0, 1.0, 20_000) * np.geomspace(1.0, 1e12, 20_000),
])


@pytest.mark.skipif(not _WIDE, reason="long double is no wider than double here")
@pytest.mark.parametrize("bandwidth", [1e-9, 1e-6, 1e-3, 0.1, 1.0, 3.0])
@pytest.mark.parametrize("dim", [1, 3])
def test_rff_cosines_within_2_5_eps_of_long_double(dim, bandwidth):
    # 2048 x 64 entries: two COS_CHUNKs; |theta| reaches about 1e10 at bandwidth 1e-9
    f = sample_feature_map(GAUSSIAN_RFF, dim, 64, {"bandwidth": bandwidth}, 8)
    X = np.random.default_rng(9).standard_normal((2048, dim))
    assert _rff_error(f, X) <= 2.5


@pytest.mark.skipif(not _WIDE, reason="long double is no wider than double here")
def test_rff_cosines_at_explicit_arguments():
    # a one-feature map with w = 1 and b = 0 reads theta = x exactly
    f = dataclasses.replace(
        sample_feature_map(GAUSSIAN_RFF, 1, 1, {}, 0), frequencies=np.ones((1, 1)), phases=np.zeros(1)
    )
    theta = np.concatenate([_RFF_ARGUMENTS, -_RFF_ARGUMENTS])[:, None]
    assert np.abs(theta).max() > 9e11
    assert _rff_error(f, theta) <= 2.5
    Z = feature_matrix(f, theta)
    assert np.array_equal(Z[theta[:, 0] == 0.0], np.full((2, 1), np.sqrt(2.0)))


@pytest.mark.parametrize("rows", [5000, 1], ids=["plateau", "one-row"])
def test_a_one_column_rff_embedding_is_the_whole_product_to_the_bit(rows):
    # d = 1: each half-argument is one product x w / 2 plus b / 2, so writing them a tile of
    # COS_CHUNK // M rows at a time through np.dot gives the bits of the whole X @ (W / 2)^T
    # + b / 2, the argument the embedding took before it was tiled. M = 1414 is the plateau
    # heatmap's larger map (46-row tiles; 5000 rows end in a partial tile of 32)
    f = sample_feature_map(GAUSSIAN_RFF, 1, 1414, {}, 14)
    X = np.random.default_rng(15).standard_normal((rows, 1))
    t = X @ (0.5 * f.frequencies).T
    t += 0.5 * f.phases
    np.tan(t, out=t)
    sq = t * t
    want = (1.0 - sq) / (1.0 + sq) * (1.0 / np.sqrt(1414) * np.sqrt(2.0))
    assert np.array_equal(feature_matrix(f, X), want)


@pytest.mark.parametrize("kind", [GAUSSIAN_RFF, DESIGNER_FINITE_RANK])
def test_feature_matrix_allocates_its_output_and_at_most_1_mib_more(kind):
    # tracemalloc counts numpy's data buffers; 4096 x 1414 floats are 44.2 MiB
    f = sample_feature_map(kind, 1, 1414, {}, 0)
    X = np.random.default_rng(11).uniform(0.0, 1.0, (4096, 1))
    Z, peak = traced_peak(lambda: feature_matrix(f, X))
    assert Z.shape == (4096, 1414)
    assert peak <= Z.nbytes + 2**20
