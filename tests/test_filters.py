import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrf import filters
from specrf.filters import (
    FILTERS,
    DivergenceError,
    Heavyball,
    Landweber,
    SpectralFilter,
    audit_filter,
    make_filter,
    qualification_sufficient,
)


def test_tikhonov_known_values():
    f = make_filter("tikhonov")
    assert f.value(0.5, 0.1) == pytest.approx(1.0 / 0.6)
    assert 1.0 - 0.5 * f.value(0.5, 0.1) == pytest.approx(0.1 / 0.6)
    # the residual r = 1 - t*phi is lambda / (t + lambda), vectorized
    t = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(1.0 - t * f.value(t, 0.3), 0.3 / (t + 0.3))


def test_cutoff_inverts_above_threshold_only():
    f = make_filter("spectral_cutoff")
    t = np.array([0.01, 0.1, 0.5, 1.0])
    lam = 0.1
    np.testing.assert_allclose(f.value(t, lam), [0.0, 10.0, 2.0, 1.0])
    np.testing.assert_allclose(1.0 - t * f.value(t, lam), [1.0, 0.0, 0.0, 0.0])


def test_landweber_one_step_is_step_size():
    f = Landweber(alpha=0.7)
    t = np.linspace(0.0, 1.0, 7)
    np.testing.assert_allclose(f.value_at_iterations(t, 1), 0.7, atol=1e-15)


def test_landweber_many_steps_approaches_inverse():
    f = Landweber(alpha=1.0)
    t = np.array([0.2, 0.5, 0.9])
    np.testing.assert_allclose(f.value_at_iterations(t, 5000), 1.0 / t, rtol=1e-12)


def test_landweber_matches_direct_product_form():
    f = Landweber(alpha=0.3)
    t = np.array([-0.5, 1e-8, 1e-4, 0.1, 0.9, 2.5])
    T = 37
    # the naive form loses ~8 digits to cancellation at the smallest t, so
    # compare loosely there; the filter itself is the numerically stable one.
    # The polynomial holds for a negative t too
    direct = (1.0 - (1.0 - 0.3 * t) ** T) / t
    np.testing.assert_allclose(f.value_at_iterations(t, T), direct, rtol=1e-6)


def test_heavyball_zero_momentum_equals_plain_gradient():
    hb = Heavyball(alpha=0.6, beta=0.0)
    lw = Landweber(alpha=0.6)
    t = np.linspace(0.0, 1.0, 9)
    for T in (1, 3, 10, 50):
        np.testing.assert_allclose(
            hb.value_at_iterations(t, T), lw.value_at_iterations(t, T), rtol=1e-12
        )


def test_iteration_lambda_correspondence():
    f = Landweber(alpha=0.5)
    assert f.resolve(iterations=8)[0] == pytest.approx(0.25)
    assert f.iterations_for_lambda(0.25) == 8
    assert f.resolve(iterations=1)[0] == 1.0  # capped at 1
    with pytest.raises(ValueError):
        f.resolve(iterations=0)
    with pytest.raises(ValueError):
        f.iterations_for_lambda(0.0)
    # alpha_eff = 0.5 and 0.1, so T <= 1 / alpha_eff caps lambda at 1
    for filt in (f, Heavyball(alpha=0.05, beta=0.5)):
        for T in (1, 2, 5, 10, 11, 64, 1000):
            assert filt.resolve(iterations=T)[0] == min(1.0, 1 / (filt.alpha_eff * T))
        for lam in (1.0, 0.7, 0.25, 0.1, 1e-3, 1e-4):
            assert filt.iterations_for_lambda(lam) == filt.resolve(lam)[1]
        assert filt.iterations_for_lambda(1.0) == max(1, math.ceil(1 / filt.alpha_eff))
        with pytest.raises(ValueError, match="iterations must be an integer >= 1, not 2.5"):
            filt.resolve(iterations=2.5)
        with pytest.raises(ValueError, match=r"lam must lie in \(0, 1\]"):
            filt.iterations_for_lambda(1.5)


@pytest.mark.parametrize("filt", [Landweber(alpha=0.7), Heavyball(alpha=0.1, beta=0.9)])
def test_zero_iterations_give_the_zero_filter(filt):
    # both iterations start from 0, so phi_0 = 0 and phi_1 = alpha
    t = np.linspace(0.0, 1.5, 7)
    np.testing.assert_array_equal(filt.value_at_iterations(t, 0), np.zeros_like(t))
    np.testing.assert_allclose(filt.value_at_iterations(t, 1), filt.alpha, rtol=1e-15)
    with pytest.raises(ValueError, match="T must be an integer >= 0, not -1"):
        filt.value_at_iterations(t, -1)


@pytest.mark.parametrize("filt", [Landweber(alpha=1.0), Heavyball(alpha=0.1, beta=0.9)])
def test_value_at_iterations_takes_a_whole_T_as_resolve_does(filt):
    # a fractional T or a bool is rejected on both filters; an integral float counts
    t = np.linspace(0.0, 1.0, 5)
    for T in (2.5, True):
        with pytest.raises(ValueError, match=f"^T must be an integer >= 0, not {T!r}$"):
            filt.value_at_iterations(t, T)
    np.testing.assert_array_equal(filt.value_at_iterations(t, 3.0), filt.value_at_iterations(t, 3))
    np.testing.assert_array_equal(filt.value_at_iterations(t, 3.0), filt.value(t, iterations=3.0))


def test_step_size_validation():
    with pytest.raises(ValueError):
        Landweber(alpha=0.0)
    with pytest.raises(ValueError):
        Landweber(alpha=1.5)
    with pytest.raises(ValueError, match="effective step"):
        Heavyball(alpha=0.5, beta=0.9)
    with pytest.raises(ValueError):
        Heavyball(alpha=0.1, beta=1.0)
    with pytest.raises(ValueError, match="^step size alpha must be positive$"):
        Heavyball(alpha=0)


@pytest.mark.parametrize("filt,limit", [(Landweber(alpha=0.5), 4.0), (Heavyball(alpha=0.1, beta=0.9), 38.0)])
def test_check_stable_holds_alpha_norm_below_2_1_plus_beta(filt, limit):
    filt.check_stable(limit * (1.0 - 1e-12))
    with pytest.raises(DivergenceError, match=r"unstable: alpha \* \|\|Sigma\|\| = \S+ >= \S+$"):
        filt.check_stable(limit)


def test_resolve_checks_lambda_and_iteration_count():
    lw = make_filter("landweber", alpha=0.5)
    lam, T = lw.resolve(iterations=64.0)
    assert (lam, T) == (1 / 32, 64) and type(T) is int
    for lam in ("0.1", True, [0.1]):
        with pytest.raises(ValueError, match="lam must be a real number"):
            lw.resolve(lam=lam)
    for T in (2.5, "8", True, 0, math.nan):
        with pytest.raises(ValueError, match="iterations must be an integer >= 1"):
            lw.resolve(iterations=T)


@pytest.mark.parametrize("filt,lam", [
    (Landweber(alpha=1e-300), 1e-300),  # alpha lam underflows to 0
    (Landweber(alpha=1e-320), 0.5),  # 1 / (alpha lam) overflows to inf
    (Heavyball(alpha=1e-320, beta=0.5), 0.5),
], ids=["landweber-underflow", "landweber-overflow", "heavyball-overflow"])
def test_resolve_refuses_a_lambda_whose_step_count_is_past_the_float_range(filt, lam):
    # each was a ZeroDivisionError or OverflowError out of math.ceil(1 / (alpha_eff lam))
    with pytest.raises(ValueError, match=rf"^lam = {lam!r} is too small for filter {filt.name}: "
                                         r"T = ceil\(1 / \(alpha_eff lam\)\) is past the float range$"):
        filt.resolve(lam)
    # a lam whose T is still a float resolves: 1 / (1e-300 * 1e-8) = 1e308
    assert Landweber(alpha=1e-300).resolve(1e-8)[1] >= 10**307


def test_filters_holds_every_kind_make_filter_builds():
    # the one tuple of kinds: every named filter class, each built by make_filter from its
    # name, in the order specrf audit-filters reports them
    named = {cls for cls in vars(filters).values()
             if isinstance(cls, type) and issubclass(cls, SpectralFilter) and cls.name}
    assert len(FILTERS) == len(set(FILTERS)) and set(FILTERS) == named
    assert [type(make_filter(cls.name)) for cls in FILTERS] == list(FILTERS)
    assert [cls.name for cls in FILTERS] == ["tikhonov", "landweber", "heavyball", "spectral_cutoff"]


def test_make_filter_unknown_kind():
    with pytest.raises(ValueError, match="unknown filter kind"):
        make_filter("wiener")


@pytest.mark.parametrize("kind,kwargs,named", [
    ("tikhonov", {"alpha": 0.5}, "alpha"),
    ("spectral_cutoff", {"beta": 0.5, "alpha": 0.1}, "alpha, beta"),
    ("landweber", {"alpha": 0.5, "beta": 0.5}, "beta"),
    ("heavyball", {"alpha": 0.1, "momentum": 0.5}, "momentum"),
])
def test_make_filter_rejects_keys_its_kind_does_not_take(kind, kwargs, named):
    with pytest.raises(ValueError, match=rf"^filter {kind} keys not taken by \w+: {named}$"):
        make_filter(kind, **kwargs)


@pytest.mark.parametrize("kind,kwargs", [
    ("tikhonov", {}),
    ("spectral_cutoff", {}),
    ("landweber", {"alpha": 0.7}),
    ("heavyball", {"alpha": 0.05, "beta": 0.5}),
])
def test_descriptor_round_trips_through_make_filter(kind, kwargs):
    f = make_filter(kind, **kwargs)
    assert f.descriptor() == {"kind": kind, **kwargs}
    assert make_filter(**f.descriptor()).descriptor() == f.descriptor()


@pytest.mark.parametrize("kind", ["tikhonov", "spectral_cutoff", "landweber", "heavyball"])
def test_every_filter_kind_builds_with_no_arguments(kind):
    f = make_filter(**{"kind": kind})  # a plan's {"kind": ...} filter dict
    assert f.name == kind
    assert make_filter(**f.descriptor()).descriptor() == f.descriptor()
    if f.iterative:
        assert f.alpha_eff == pytest.approx(1.0, abs=1e-12)  # the largest stable step


def test_qualification_threshold():
    tik = make_filter("tikhonov")
    assert qualification_sufficient(tik, 0.5)
    assert not qualification_sufficient(tik, 0.75)
    for kind in ("spectral_cutoff", "landweber"):
        assert qualification_sufficient(make_filter(kind), 3.0)


@pytest.mark.parametrize(
    "filt",
    [
        make_filter("tikhonov"),
        make_filter("spectral_cutoff"),
        make_filter("landweber", alpha=1.0),
        make_filter("landweber", alpha=0.25),
        make_filter("heavyball", alpha=0.1, beta=0.9),
        make_filter("heavyball", alpha=0.05, beta=0.5),
    ],
)
def test_audits_pass_for_declared_constants(filt):
    report = audit_filter(filt)
    assert report["pass"], report.to_json()
    assert report["constants_measured"]["D"] <= filt.D + 1e-9
    assert report["constants_measured"]["E"] <= filt.E + 1e-9
    assert report["constants_measured"]["c0"] <= filt.c0 + 1e-9


def test_audit_exposes_tikhonov_saturation():
    # the ratio sup_t |r(t)| t^2 / lam^2 diverges like 1/lam for this filter
    report = audit_filter(make_filter("tikhonov"), q_values=(1.0, 2.0))
    entry = {e["q"]: e for e in report["qualification"]}
    assert entry[1.0]["pass"]
    assert entry[2.0]["pass"] is False
    assert entry[2.0]["measured"] > 100.0
    # exceeding the declared qualification does not sink the report
    assert report["pass"]


def test_heavyball_constants_reported_not_certified():
    report = audit_filter(make_filter("heavyball", alpha=0.1, beta=0.9))
    assert all(e["pass"] is None for e in report["qualification"])
    assert 3.0 not in {e["q"] for e in report["qualification"]}


def test_audit_measures_q_up_to_4_by_default():
    # the default q grid is the one specrf audit-filters measures; Landweber certifies
    # c_4 = (4 / e)^4
    entries = audit_filter(make_filter("landweber"))["qualification"]
    assert [e["q"] for e in entries] == [0.5, 1.0, 1.5, 2.0, 4.0]
    assert entries[-1]["declared"] == pytest.approx((4 / math.e) ** 4) and entries[-1]["pass"]


def _running_max_audit(f, lam_grid, q_values):
    """The audit's constants as a per-lambda loop with running maxima."""
    t_grid = np.logspace(-6, 0, 200)
    sup_tphi = sup_lamphi = sup_res = 0.0
    cq = {float(q): 0.0 for q in q_values}
    for lam in lam_grid:
        phi = f.value(t_grid, float(lam))
        res = 1.0 - t_grid * phi
        sup_tphi = max(sup_tphi, float(np.max(np.abs(t_grid * phi))))
        sup_lamphi = max(sup_lamphi, float(lam * np.max(np.abs(phi))))
        sup_res = max(sup_res, float(np.max(np.abs(res))))
        for q in cq:
            cq[q] = max(cq[q], float(np.max(np.abs(res) * t_grid**q) / lam**q))
    return {"D": sup_tphi, "E": sup_lamphi, "c0": sup_res}, cq


@pytest.mark.parametrize("filt", [
    make_filter("tikhonov"),
    make_filter("landweber", alpha=1.0),
    make_filter("heavyball", alpha=0.1, beta=0.9),
    make_filter("spectral_cutoff"),
    make_filter("heavyball", alpha=0.05, beta=0.5),
])
def test_audit_constants_equal_a_running_max_loop(filt):
    # Tikhonov's c_1.5 peaks at the smallest lambda, whose 1.5th power numpy's
    # vectorized power may round differently from the scalar one (it does on AVX-512)
    lam_grid = np.logspace(-2.75, 0, 53)
    q_values = (0.5, 1.0, 1.5, 2.0, 4.0)
    report = audit_filter(filt, lam_grid=lam_grid, q_values=q_values)
    measured, cq = _running_max_audit(filt, lam_grid, q_values)
    assert report["constants_measured"] == measured
    assert {e["q"]: e["measured"] for e in report["qualification"]} == cq


@pytest.mark.parametrize("kind,kwargs", [
    ("tikhonov", {}),
    ("spectral_cutoff", {}),
    ("landweber", {}),
    ("heavyball", {"alpha": 0.1, "beta": 0.5}),
])
def test_value_takes_the_lambdas_resolve_takes(kind, kwargs):
    f = make_filter(kind, **kwargs)
    with pytest.raises(ValueError, match=r"lam must lie in \(0, 1\]"):
        f.value(np.array([0.5]), 1.5)
    with pytest.raises(ValueError, match="lam must be a real number, not nan"):
        audit_filter(f, lam_grid=np.full(60, np.nan))
    # value evaluates at the pair resolve gives, as fit_spectral's apply does
    t = np.linspace(0.0, 1.5, 7)
    with pytest.raises(ValueError, match="one of lam or iterations is required"):
        f.value(t)
    if not f.iterative:
        with pytest.raises(ValueError, match=f"^filter {kind} is not iterative and takes no iteration count$"):
            f.value(t, 0.1, 8)
        return
    for T in (1, 8, 64):
        want = f.value_at_iterations(t, T)
        np.testing.assert_array_equal(f.value(t, iterations=T), want)
        np.testing.assert_array_equal(f.value(t, f.resolve(iterations=T)[0], T), want)
    for lam in (1.0, 0.25, 1e-3):
        want = f.value_at_iterations(t, f.iterations_for_lambda(lam))
        np.testing.assert_array_equal(f.value(t, lam), want)
    with pytest.raises(ValueError, match="iterations must be an integer >= 1, not 0"):
        f.value(t, iterations=0)


def test_audit_grid_floor():
    with pytest.raises(ValueError, match="10"):
        audit_filter(make_filter("tikhonov"), lam_grid=np.linspace(0.01, 1, 10))


@pytest.mark.parametrize("kind,kwargs", [
    ("tikhonov", {}),
    ("landweber", {"alpha": 1.0}),
    ("heavyball", {"alpha": 0.1, "beta": 0.9}),
    ("spectral_cutoff", {}),
    ("heavyball", {"alpha": 0.05, "beta": 0.5}),
])
def test_audit_report_json_shape(kind, kwargs):
    # the report is the record filter_audits.json holds: to_json loses nothing
    report = audit_filter(make_filter(kind, **kwargs), lam_grid=np.logspace(-2, 0, 50),
                          q_values=(0.5, 1.0, 2.0))
    assert json.loads(report.to_json()) == report
    assert set(report) == {"filter", "constants_declared", "constants_measured", "qualification", "pass"}
    assert report["filter"] == kind
    assert set(report["constants_declared"]) == set(report["constants_measured"]) == {"D", "E", "c0"}
    assert [e["q"] for e in report["qualification"]] == [0.5, 1.0, 2.0]
    assert all(set(e) == {"q", "measured", "declared", "pass"} for e in report["qualification"])
    assert report["pass"] is True


@settings(max_examples=50, deadline=None)
@given(
    t=st.floats(0.0, 2.0),
    lam=st.floats(1e-4, 1.0),
)
def test_residual_bounded_for_convex_filters(t, lam):
    for kind in ("tikhonov", "spectral_cutoff"):
        f = make_filter(kind)
        assert 0.0 <= float(1.0 - t * f.value(np.array([t]), lam)[0]) <= 1.0 + 1e-12


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(0.05, 1.0),
    T=st.integers(1, 200),
    t=st.floats(0.0, 1.0),
)
def test_landweber_residual_contracts(alpha, T, t):
    f = Landweber(alpha=alpha)
    phi = float(f.value_at_iterations(np.array([t]), T)[0])
    res = 1.0 - t * phi
    assert -1e-12 <= res <= 1.0 + 1e-12
    assert res == pytest.approx((1.0 - alpha * t) ** T, abs=1e-9)


@pytest.mark.parametrize("kind,kwargs,named", [
    ("landweber", {"alpha": "0.5"}, "landweber alpha must be a real number, not '0.5'"),
    ("landweber", {"alpha": True}, "landweber alpha must be a real number, not True"),
    ("heavyball", {"beta": None}, "heavyball beta must be a real number, not None"),
    ("heavyball", {"alpha": [0.1]}, r"heavyball alpha must be a real number, not \[0.1\]"),
])
def test_iterative_filters_take_only_real_numbers(kind, kwargs, named):
    with pytest.raises(ValueError, match=named):
        make_filter(kind, **kwargs)
