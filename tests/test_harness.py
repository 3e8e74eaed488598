import dataclasses
import functools
import json
import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference import rff_embedding_cos, scan_csv_dataset, traced_peak

from specrf.estimator import fit_iterative, mse
from specrf import estimator, features, harness
from specrf.features import sample_feature_map
from specrf.filters import make_filter
from specrf.harness import (
    ExperimentPlan,
    _heatmap_problem,
    default_heatmap_plan,
    default_rate_plan,
    ingest_csv_dataset,
    lambda_schedule,
    m_schedule,
    m_schedule_exponent,
    plateau_anchors,
    run_heatmap,
    run_plateau_check,
    run_rate_sweep,
    splitmix64,
    standardize_features,
    trial_seed,
    write_json,
    write_outputs,
    write_results_csv,
)


def test_splitmix64_reference_vector():
    # first output of the reference generator seeded with 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF


def test_trial_seed_sensitivity():
    assert trial_seed(0, 1, 2) != trial_seed(0, 2, 1)
    assert trial_seed(0, 1) != trial_seed(1, 1)
    seeds = {trial_seed(7, i, j, k) for i in range(4) for j in range(4) for k in range(4)}
    assert len(seeds) == 64
    assert all(0 <= s < 2**64 for s in seeds)


def test_trial_seed_rejects_a_base_seed_outside_64_bits():
    # read as 64 bits, 2^64 would rerun seed 0 and -1 would rerun 2^64 - 1
    for bad in (2**64, -1):
        with pytest.raises(ValueError, match=re.escape(f"base_seed must be in [0, 2**64), not {bad}")):
            trial_seed(bad, 0, 1)
    assert trial_seed(2**64 - 1, 0, 1) != trial_seed(0, 0, 1)
    # the range check leaves every seed inside the range as it was
    assert trial_seed(0) == 0xE220A8397B1DCDAF == splitmix64(0)
    assert trial_seed(0, 0) == 0x08B4FDA8C892B50E
    assert trial_seed(1, 1) == 0xBCD9DBB49673066B
    assert trial_seed(3, 0, 1, 0, 2) == 0x4450498A3221731F
    assert trial_seed(0, 0xD5) == 0xA4AFEF2959342094


def test_lambda_schedule_known_value():
    assert lambda_schedule(1024, 0.5, 1.0) == pytest.approx(0.03125)
    assert m_schedule(1024, 0.5, 1.0) == 888
    # capped at 1 for tiny n with a large constant
    assert lambda_schedule(8, 0.5, 1.0, C_lambda=100.0) == 1.0
    assert lambda_schedule(1024, 0.5, 1.0, 2.0) == 2.0 * lambda_schedule(1024, 0.5, 1.0)


def test_schedule_exponent_regimes():
    assert m_schedule_exponent(0.25, 1.0) == pytest.approx(1.0 / 1.5)
    assert m_schedule_exponent(0.5, 1.0) == pytest.approx(0.5)
    assert m_schedule_exponent(1.0, 1.0) == pytest.approx(2.0 / 3.0)
    assert m_schedule_exponent(2.0, 1.0) == pytest.approx(0.8)


def test_schedules_monotone_in_n():
    grid = [2 ** k for k in range(4, 15)]
    lams = [lambda_schedule(n, 0.5, 1.0) for n in grid]
    ms = [m_schedule(n, 0.5, 1.0) for n in grid]
    assert all(a >= b for a, b in zip(lams, lams[1:]))
    assert all(a <= b for a, b in zip(ms, ms[1:]))


def test_schedule_preconditions():
    with pytest.raises(ValueError, match="hard-learning"):
        lambda_schedule(100, 0.25, 0.5)
    with pytest.raises(ValueError, match="n0"):
        lambda_schedule(4, 0.5, 1.0)
    with pytest.raises(ValueError, match="^C_lambda must be positive, not -2.5$"):
        lambda_schedule(100, 0.5, 1.0, -2.5)  # the fourth argument is C_lambda
    for C in (0, 0.0, -1.0):
        with pytest.raises(ValueError, match=f"^C_lambda must be positive, not {C!r}$"):
            lambda_schedule(100, 0.5, 1.0, C_lambda=C)
        with pytest.raises(ValueError, match=f"^C_M must be positive, not {C!r}$"):
            m_schedule(100, 0.5, 1.0, C_M=C)


def test_schedules_refuse_an_overflow_naming_the_value():
    with pytest.raises(ValueError, match=f"^n = {10**400} is past the float range of the schedules$"):
        lambda_schedule(10**400, 0.5, 1.0)
    with pytest.raises(ValueError, match="^n = 1(0)+ is past the float range"):
        m_schedule(10**400, 0.5, 1.0)
    with pytest.raises(ValueError, match=r"^the M schedule overflows the float range at n = 64, C_M = 1e\+308$"):
        m_schedule(64, 0.5, 1.0, C_M=1e308)
    assert m_schedule(10**300, 0.5, 1.0) > 10**150  # an int inside the float range is taken as before


def test_ingest_basic_and_label_column(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("1.0,2.0,3.0\n0.0,5.0,6.0\n")
    X, y = ingest_csv_dataset(str(p))
    np.testing.assert_array_equal(y, [1.0, 0.0])
    np.testing.assert_array_equal(X, [[2.0, 3.0], [5.0, 6.0]])
    X, y = ingest_csv_dataset(str(p), label_col=-1)
    np.testing.assert_array_equal(y, [3.0, 6.0])


def test_ingest_header_blank_lines_max_rows(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("label,a\n\n1,2\n3,4\n5,6\n")
    X, y = ingest_csv_dataset(str(p), has_header=True, max_rows=2)
    np.testing.assert_array_equal(y, [1.0, 3.0])


def test_ingest_error_reporting(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,oops\n")
    with pytest.raises(ValueError, match="bad.csv:2"):
        ingest_csv_dataset(str(bad))
    # errors name the line a record starts on, not the record's count
    bad.write_text('"a\nb",c\n1,2\n3,x\n')
    with pytest.raises(ValueError, match="bad.csv:4: non-numeric cell"):
        ingest_csv_dataset(str(bad), has_header=True)
    bad.write_text('1,"2\n",3\n4,5,x\n')
    with pytest.raises(ValueError, match="bad.csv:3: non-numeric cell"):
        ingest_csv_dataset(str(bad))
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3,4,5\n")
    with pytest.raises(ValueError, match="inconsistent"):
        ingest_csv_dataset(str(ragged))
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    with pytest.raises(ValueError, match="no data"):
        ingest_csv_dataset(str(empty))
    p = tmp_path / "ok.csv"
    p.write_text("1,2,3\n")
    with pytest.raises(ValueError, match="label column"):
        ingest_csv_dataset(str(p), label_col=5)
    for bad_line in (2, 3000):  # line 3000 lies past the first block a text-mode read decodes
        lines = [b"1,2\n"] * 4000
        lines[bad_line - 1] = b"\xff\xfe1,2\n"
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"".join(lines))
        with pytest.raises(ValueError, match=rf"binary\.csv:{bad_line}: not UTF-8 text \(invalid start byte\)$"):
            ingest_csv_dataset(str(binary))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", " NaN", "1e999"])
def test_ingest_rejects_non_finite_cells(tmp_path, cell):
    p = tmp_path / "data.csv"
    p.write_text(f"label,a,b\n1,2,3\n4,{cell},6\n7,8,9\n")
    with pytest.raises(ValueError, match=r"data\.csv:3: non-finite cell"):
        ingest_csv_dataset(str(p), has_header=True)


def test_ingest_column_selection_and_dim_warning(tmp_path):
    p = tmp_path / "wide.csv"
    p.write_text("0,1,2,3,4\n1,5,6,7,8\n")
    X, _ = ingest_csv_dataset(str(p), feature_cols=[0, 2])
    np.testing.assert_array_equal(X, [[1.0, 3.0], [5.0, 7.0]])


def _ingest_outcome(parse, path, options):
    """(X, y) as dtype, shape and bytes, or the exception's type and text; plus the
    text of every warning the parse emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            X, y = parse(str(path), **options)
            outcome = tuple((a.dtype, a.shape, a.tobytes()) for a in (X, y))
        except Exception as exc:  # the two parses must fail alike, whatever the exception
            outcome = (type(exc), str(exc))
    return outcome, [str(w.message) for w in caught]


def _check_ingest_matches_the_scan(path, content: bytes, options: dict, differs: str | None = None):
    """ingest_csv_dataset reads `content` as the record scan does; where it differs by
    design, it raises the ValueError `path` + `differs`."""
    path.write_bytes(content)
    want, _ = _ingest_outcome(scan_csv_dataset, path, options)
    if isinstance(want[0], tuple) and want[0][1][1] == 0:  # the scan returns a label-only X
        want = (ValueError, f"{path}: needs a label column and at least one feature column")
    if differs is not None:
        assert want != (ValueError, f"{path}{differs}")
        want = (ValueError, f"{path}{differs}")
    got, caught = _ingest_outcome(ingest_csv_dataset, path, options)
    assert got == want, (content[:200], options)
    assert caught == [], (content[:200], options)


def _lines_with_bad_byte(count: int, bad_line: int) -> bytes:
    lines = [b"%d,0.5,-2\n" % i for i in range(count)]
    lines[bad_line - 1] = b"\xff" + lines[bad_line - 1]
    return b"".join(lines)


# each file is read by ingest_csv_dataset and by the record scan it replaced
_INGEST_CORPUS = {
    "bad-byte-line-2": (_lines_with_bad_byte(4000, 2), {}),
    "bad-byte-line-3000": (_lines_with_bad_byte(4000, 3000), {}),
    "bad-byte-past-max_rows": (_lines_with_bad_byte(10, 6), {"max_rows": 5}),
    "bad-byte-far-past-max_rows": (_lines_with_bad_byte(4000, 3000), {"max_rows": 5}),
    "empty": (b"", {}),
    "blank": (b"\n\n\r\n", {}),
    "header-only": (b"y,a\n", {"has_header": True}),
    "overflow": (b"1,2\n3,1e999\n", {}),
    "nan": (b"1,2\n3, NaN\n", {}),
    "inf": (b"1,2\ninf,4\n", {}),
    "non-finite-past-max_rows": (b"1,2\n3,4\n5,inf\n", {"max_rows": 2}),
    "quoted": (b'"1",2\n3,"4.5"\n', {}),
    "quoted-delimiter": (b'1,"2,5"\n', {}),
    "underscore": (b"1_000,2\n3,4\n", {}),
    "hash-cell": (b"1,2\n3,#4\n", {}),
    "hash-line": (b"1,2\n# comment\n3,4\n", {}),
    "crlf": (b"1,2\r\n3,4\r\n", {}),
    "lone-cr": (b"1,2\r3,4\r", {}),
    "lone-cr-header": (b"y,a\r1,2\r3,4", {"has_header": True}),
    "whitespace-rows": (b"1,2\n   \n , \n\t\n3,4\n", {}),
    "whitespace-row-one-column": (b"1\n \n3\n", {}),
    "blank-first-line-header": (b"\n1,2\n3,4\n", {"has_header": True}),
    "unclosed-quote-header": (b'"y,a\n1,2\n3,4\n', {"has_header": True}),
    "multi-line-header": (b'y,"a\nb"\n1,2\n3,4\n', {"has_header": True}),
    "ragged": (b"1,2\n3,4,5\n", {}),
    "ragged-past-max_rows": (b"1,2\n3,4,5\n", {"max_rows": 1}),
    "trailing-delimiter": (b"1,2,\n3,4,\n", {}),
    "single-column": (b"1\n2\n3\n", {}),
    "max_rows-with-blank-lines": (b"1,2\n\n\n3,4\n5,6\n", {"max_rows": 2}),
    "padded-cells": (b" 1 ,\t2\xc2\xa0\n3 , 4\n", {}),
    "space-delimiter": (b"1 2\n3  4\n", {"delimiter": " "}),
    "space-delimiter-lead": (b" 1 2\n", {"delimiter": " "}),
    "tab-delimiter": (b"1\t2\n3\t4\n", {"delimiter": "\t"}),
    "newline-delimiter": (b"1\n2\n", {"delimiter": "\n"}),
    "quote-delimiter": (b'1"2\n3"4\n', {"delimiter": '"'}),
    "nul": (b"1,2\x00\n", {}),
    "byte-order-mark": (b"\xef\xbb\xbf1,2\n", {}),
    "hex": (b"0x10,2\n", {}),
    "non-ascii-digit": ("١,2\n".encode(), {}),
    "long-digits": (b"0.1000000000000000055511151231257827021181583404541015625,"
                    b"2.4703282292062327208828439643411068618252990130716238221279284125033775363e-324\n", {}),
    "options": (b"y,a,b,c\n1,2,3,4\n5,6,7,9\n8,1,2,3\n",
                {"has_header": True, "label_col": -1, "feature_cols": [2, 0], "standardize": True}),
    "unclosed-quote-long": (b"0,0.5,0.25\n" + b'"1,0.5,0.25\n' + b"2,0.5,0.25\n" * 19998, {}),
    "multi-line-header-bad-cell": (b'"a\nb",c\n1,2\n3,x\n', {"has_header": True}),
}
# where ingest_csv_dataset differs from the record scan by design: it reports a record
# csv cannot read as a ValueError, where the scan lets csv.Error escape
_SCAN_DIFFERS = {
    "unclosed-quote-long": ":2: unreadable csv record (field larger than field limit (131072))",
}


@pytest.mark.parametrize("case", _INGEST_CORPUS, ids=list(_INGEST_CORPUS))
def test_ingest_matches_the_record_scan_on_the_corpus(tmp_path, case):
    content, options = _INGEST_CORPUS[case]
    _check_ingest_matches_the_scan(tmp_path / "data.csv", content, options, _SCAN_DIFFERS.get(case))


_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.from_regex(r"[+-]?[0-9]{1,20}(\.[0-9]{0,20})?([eE][+-]?[0-9]{1,3})?", fullmatch=True),
)
_ODD_CELL = st.sampled_from(["", " ", "nan", " NaN", "inf", "-Infinity", "1e999", "1_000", '"1"',
                             '"2,5"', "#", "x", " 3 ", "\t4", "0x1", "﻿1", "1\x00", '"'])


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_ingest_matches_the_record_scan_on_drawn_files(tmp_path, data):
    width = data.draw(st.integers(1, 4))
    cell = _NUMBER if data.draw(st.booleans()) else st.one_of(_NUMBER, _ODD_CELL)
    delimiter = data.draw(st.sampled_from([",", ";", "\t", " "]))
    lines = []
    for _ in range(data.draw(st.integers(0, 8))):
        kind = data.draw(st.sampled_from(["row"] * 6 + ["blank", "spaces", "ragged"]))
        count = width + data.draw(st.sampled_from([-1, 1])) if kind == "ragged" else width
        row = delimiter.join(data.draw(cell) for _ in range(max(count, 1)))
        lines.append({"row": row, "ragged": row, "blank": "", "spaces": " \t "}[kind])
    ends = [data.draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and data.draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no line end after the last line
    options = {"delimiter": delimiter, "has_header": data.draw(st.booleans())}
    if data.draw(st.booleans()):
        options["max_rows"] = data.draw(st.integers(1, 5))
    if data.draw(st.booleans()):
        options["label_col"] = data.draw(st.integers(-width, width - 1))
    _check_ingest_matches_the_scan(tmp_path / "data.csv", text.encode(), options)


def test_standardize_uses_training_statistics_only():
    X_tr = np.array([[0.0], [2.0]])
    X_te = np.array([[4.0]])
    out_tr, out_te = standardize_features(X_tr, X_te)
    np.testing.assert_allclose(out_tr.mean(axis=0), 0.0, atol=1e-15)
    np.testing.assert_allclose(out_te, [[3.0]])  # (4 - 1) / 1


@pytest.mark.parametrize("train,test,named", [
    ([[0.5, 1e308], [0.25, 1e308]], None, "column 1: its mean over the training split"),
    ([[0.5, 0.0], [0.25, 1.5e308]], None, "column 1: its std over the training split"),
    ([[0.5, 0.0], [0.25, 1.0]], [[0.0, 1.7e308]], "column 1: a scaled value in the test split"),
], ids=["mean", "std", "test-value"])
def test_standardize_refuses_a_column_it_cannot_scale(train, test, named):
    # a cell near the float range overflows the std's squares (which scaled the column
    # to -0.0) or the scaled value: one ValueError naming the column, no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^cannot standardize feature {named} is not finite$"):
            standardize_features(np.array(train), None if test is None else np.array(test))


def test_write_json_refuses_a_nan_and_writes_no_file(tmp_path):
    path = tmp_path / "new" / "out.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(path, {"b": [1.0, math.nan]})
    assert not path.exists()
    write_json(path, {"b": [1.0, None], "a": 2})  # the directory is made
    assert path.read_text() == '{\n  "a": 2,\n  "b": [\n    1.0,\n    null\n  ]\n}\n'


def test_results_csv_formatting(tmp_path):
    rows = [(100, 8, 1, 0.1, 0, "test_mse", 0.25), (100, 8, None, 1 / 3, 1, "x", 2.0)]
    path = tmp_path / "results.csv"
    write_results_csv(path, rows)
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "n,M,T,lambda,rep,metric,value"
    assert lines[1] == "100,8,1,0.1,0,test_mse,0.25"
    assert lines[2] == "100,8,,0.3333333333333333,1,x,2.0"
    # None is an empty field, and a float, numpy's included, is its shortest repr: the
    # bytes of the hand-written field rule that csv.writer replaced
    edges = [(np.int64(3), 8, None, 1e-05, 2, "test_mse", -0.0),
             (100, 8, np.int64(4), np.float64(2.5e-300), 3, "excess_risk", 1.5e308)]
    write_results_csv(path, edges)
    assert path.read_bytes() == (b"n,M,T,lambda,rep,metric,value\n3,8,,1e-05,2,test_mse,-0.0\n"
                                 b"100,8,4,2.5e-300,3,excess_risk,1.5e+308\n")


def test_plan_roundtrip_and_validation():
    plan = default_heatmap_plan(n=500, repetitions=2)
    again = ExperimentPlan(**json.loads(json.dumps(dataclasses.asdict(plan))))
    assert json.dumps(dataclasses.asdict(again)) == json.dumps(dataclasses.asdict(plan))
    with pytest.raises(ValueError, match="unknown experiment"):
        ExperimentPlan(experiment="mystery")
    # a plateau check reads a heatmap plan, so the experiment has no second name for it
    with pytest.raises(ValueError, match="^unknown experiment 'plateau_check'$"):
        ExperimentPlan(experiment="plateau_check")
    with pytest.raises(ValueError, match="repetitions"):
        ExperimentPlan(experiment="heatmap", repetitions=0)
    # the schedule's defaults are those of lambda_schedule and m_schedule
    assert plan.schedule == {"C_lambda": 1.0, "C_M": 4.0}


def _tiny_heatmap_plan(seed=0):
    return ExperimentPlan(
        experiment="heatmap",
        base_seed=seed,
        repetitions=2,
        n_train=200,
        n_test=200,
        m_grid=[8, 16],
        t_grid=[1, 4],
    )


def test_heatmap_smoke():
    out = run_heatmap(_tiny_heatmap_plan())
    assert len(out["rows"]) == 8
    assert len(out["aggregates"]) == 4
    assert out["failures"] == []
    for cell in out["aggregates"]:
        assert cell["reps"] == 2
        assert cell["mean_test_mse"] > 0


def test_heatmap_rows_equal_mse_of_the_fit_iterative_snapshots():
    plan = _tiny_heatmap_plan()
    rows = run_heatmap(plan)["rows"]
    filt = make_filter(**plan.filter)
    checked = 0
    for mi, m in enumerate(plan.m_grid):
        for rep in range(plan.repetitions):
            seed = trial_seed(plan.base_seed, 0, mi, 0, rep)
            X_tr, y_tr, X_te, y_te = _heatmap_problem(plan)[0](seed)
            fm = plan.feature_map
            fmap = sample_feature_map(fm["kind"], 1, m, fm["params"], trial_seed(seed, 2))
            model = fit_iterative(fmap, X_tr, y_tr, filt, max(plan.t_grid), snapshots=plan.t_grid)
            for n, M, t, lam, r, metric, value in rows:
                if (M, r) == (m, rep):
                    want = mse(dataclasses.replace(model, theta=model.snapshots[t]), X_te, y_te)
                    assert value == pytest.approx(want, rel=1e-12, abs=0.0)
                    checked += 1
    assert checked == len(rows) == 8


def test_heatmap_errors_match_the_np_cos_embedding(monkeypatch):
    # 5000 rows embed in two ROW_BLOCKs; at M = 283 a block spans 18 COS_CHUNKs
    plan = _tiny_heatmap_plan()
    plan.n_train, plan.n_test, plan.m_grid, plan.t_grid = 5000, 5000, [64, 283], [1, 16, 64]
    rows = run_heatmap(plan)["rows"]
    embedded = []

    def through_np_cos(fmap, X):
        embedded.append(len(X))
        return rff_embedding_cos(fmap, features.check_input(fmap, X))

    # the moments read features.feature_matrix, predict the name estimator imported
    for module in (features, estimator):
        monkeypatch.setattr(module, "feature_matrix", through_np_cos)
    reference = run_heatmap(plan)["rows"]
    assert sum(embedded) == 2 * 2 * (5000 + 5000)  # every train and test row of 2 x 2 trials
    assert [row[:-1] for row in rows] == [row[:-1] for row in reference]
    for row, want in zip(rows, reference):
        assert row[-1] == pytest.approx(want[-1], rel=1e-12, abs=0.0)


def _dataset_plan(tmp_path, **problem):
    rng = np.random.default_rng(4)
    X = rng.standard_normal((120, 2))
    y = np.sin(X[:, 0]) + X[:, 1] ** 2
    path = tmp_path / "data.csv"
    np.savetxt(path, np.column_stack([y, X]), delimiter=",")
    plan = _tiny_heatmap_plan()
    plan.n_train, plan.n_test = 80, 40
    plan.problem = {"type": "dataset", "path": str(path), **problem}
    return plan


def test_heatmap_on_a_dataset_with_several_feature_columns(tmp_path):
    out = run_heatmap(_dataset_plan(tmp_path))
    assert out["failures"] == []
    assert len(out["rows"]) == 8
    assert all(np.isfinite(row[-1]) for row in out["rows"])


def test_dataset_plan_needs_n_train_plus_n_test_rows(tmp_path):
    plan = _dataset_plan(tmp_path)  # 120 rows
    plan.n_train = 100
    with pytest.raises(ValueError, match="^dataset has 120 rows, plan needs 140$"):
        run_heatmap(plan)


@pytest.mark.parametrize("key,value", [("input_dim", 2), ("standardize", True), ("standardize", False)])
def test_dataset_plan_rejects_keys_ingest_does_not_take(tmp_path, key, value):
    # standardize is the heatmap's own: it scales each split by its training rows
    with pytest.raises(ValueError, match=f"^dataset problem keys not taken by ingest_csv_dataset: {key}$"):
        run_heatmap(_dataset_plan(tmp_path, **{key: value}))


def test_heatmap_deterministic_across_workers():
    rows1 = run_heatmap(_tiny_heatmap_plan(), workers=1)["rows"]
    rows2 = run_heatmap(_tiny_heatmap_plan(), workers=3)["rows"]
    assert rows1 == rows2


@pytest.mark.parametrize("t_grid", [[1, 2], [1, 4, 16]], ids=["single-rows", "block"])
def test_a_heatmap_at_perfbench_tiny_scale_scores_every_cell(t_grid):
    # perfbench's tiny heatmap, n = 200, M in {57, 283} and T up to 16: each fit keeps its
    # Z, which at M = 283 has rank at most 200 < D. T = 16 > ceil(D / SYRK_PARITY) makes
    # both block fits, which deflate rows in their passes and may end on an empty block;
    # T = 2 takes single rows. Every cell is scored, the same on 1 and 2 workers
    plan = _tiny_heatmap_plan()
    plan.repetitions, plan.m_grid, plan.t_grid = 1, [57, 283], t_grid
    out = run_heatmap(plan)
    assert out["failures"] == [] and len(out["rows"]) == 2 * len(t_grid)
    assert all(np.isfinite(row[-1]) for row in out["rows"])
    assert run_heatmap(plan, workers=2)["rows"] == out["rows"]


def _faulting_fit(started, delays):
    """A fit that records its map's M, sleeps delays[M] seconds and raises TypeError naming
    M: a fault, which no sweep records as a failed cell."""
    def fit(fmap, *args, **kwargs):
        started.append(fmap.num_samples)
        time.sleep(delays[fmap.num_samples])
        raise TypeError(f"fault at M = {fmap.num_samples}")
    return fit


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("sweep", ["heatmap", "rate_sweep"])
def test_a_fault_stops_the_sweep_before_its_queued_cells_run(monkeypatch, sweep, workers):
    # 100 cells whose fit takes 10 ms and raises: the first error stops the sweep, so the
    # cells still queued on the pool never start
    started = []
    if sweep == "heatmap":
        plan, run, home, fit = _tiny_heatmap_plan(), run_heatmap, harness, "fit_iterative"
        plan.repetitions = 50  # x 2 grid sizes
    else:  # a rate sweep fits through estimator.fit, which picks fit_spectral for Tikhonov
        plan = ExperimentPlan(experiment="rate_sweep", repetitions=20, n_grid=[64, 128, 256, 512, 1024],
                              problem={"type": "designer", "J": 8}, filter={"kind": "tikhonov"})
        run, home, fit = run_rate_sweep, estimator, "fit_spectral"
    monkeypatch.setattr(home, fit, _faulting_fit(started, {8: 0.01, 16: 0.01}))
    with pytest.raises(TypeError, match="^fault at M = 8$"):
        run(plan, workers=workers)
    assert 1 <= len(started) < 10
    assert workers > 1 or len(started) == 1


def test_a_fault_raised_is_the_first_in_key_order(monkeypatch):
    # the M = 8 cell comes first in key order and raises 50 ms after the M = 16 cell
    plan = _tiny_heatmap_plan()
    plan.repetitions = 1
    monkeypatch.setattr(harness, "fit_iterative", _faulting_fit([], {8: 0.05, 16: 0.0}))
    with pytest.raises(TypeError, match="^fault at M = 8$"):
        run_heatmap(plan, workers=2)


def test_heatmap_requires_iterative_filter():
    plan = _tiny_heatmap_plan()
    plan.filter = {"kind": "tikhonov"}
    with pytest.raises(ValueError, match="^plan t_grid: filter tikhonov is not iterative"):
        run_heatmap(plan)


@pytest.mark.parametrize("runner,plan,named", [
    (run_heatmap, default_rate_plan(), "^plan.experiment must be heatmap$"),
    (run_plateau_check, default_rate_plan(), "^plan.experiment must be heatmap$"),
    (run_rate_sweep, default_heatmap_plan(), "^plan.experiment must be rate_sweep$"),
    (run_rate_sweep, ExperimentPlan(experiment="heatmap"), "^plan.experiment must be rate_sweep$"),
], ids=["heatmap-rate-plan", "plateau-rate-plan", "rate-heatmap-plan", "rate-bare-heatmap-plan"])
def test_each_runner_rejects_a_plan_of_another_experiment(runner, plan, named):
    with pytest.raises(ValueError, match=named):
        runner(plan)


def test_plateau_validation():
    plan = _tiny_heatmap_plan()
    plan.repetitions = 10
    with pytest.raises(ValueError, match="anchors not in grid"):
        run_plateau_check(plan)
    plan = default_heatmap_plan(n=100, repetitions=3)
    with pytest.raises(ValueError, match="repetitions"):
        run_plateau_check(plan)


def test_plateau_fails_when_an_anchor_lacks_repetitions():
    # n = 100 puts the anchors at M = 40 and M = 200
    plan = default_heatmap_plan(n=100, repetitions=10)

    def cell(m, t, mean, reps):
        return {"M": m, "T": t, "mean_test_mse": mean, "std_test_mse": 0.0, "reps": reps}

    full = [cell(40, 1, 0.5, 10), cell(200, 1, 0.5, 10)]
    assert run_plateau_check(plan, heatmap={"aggregates": full})["plateau"]["pass"]
    # the best cell at M = 200 lost a repetition; its mean alone would pass
    short = [cell(40, 1, 0.5, 10), cell(200, 1, 0.49, 9), cell(200, 4, 0.6, 10)]
    out = run_plateau_check(plan, heatmap={"aggregates": short})["plateau"]
    assert out["pass"] is False
    assert "M = 200 has 9" in out["reason"]
    # every repetition at M = 40 failed, so no cell survives there
    out = run_plateau_check(plan, heatmap={"aggregates": [cell(200, 1, 0.5, 10)]})["plateau"]
    assert out["pass"] is False
    assert out["anchor_small"] is None
    assert "M = 40 has 0" in out["reason"]


def test_rate_sweep_exact_recovery_flags_degenerate():
    plan = ExperimentPlan(
        experiment="rate_sweep",
        base_seed=0,
        repetitions=2,
        n_grid=[32, 64, 128, 256, 512],
        problem={"type": "designer", "J": 8, "b": 1.0, "r": 0.5, "noise_std": 0.0},
        filter={"kind": "spectral_cutoff"},
        schedule={"C_lambda": 0.01},
    )
    out = run_rate_sweep(plan)
    assert out["degenerate"]
    assert out["slope"] is None and out["slope_stderr"] is None
    assert max(out["mean_excess_risk"]) < 1e-10


def test_summary_json_with_a_nan_is_an_error(tmp_path):
    plan = _tiny_heatmap_plan()
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_outputs(tmp_path, plan, [], {"slope": math.nan})
    write_outputs(tmp_path, plan, [], {"slope": None})
    assert json.loads((tmp_path / "summary.json").read_text()) == {"slope": None}


def test_rate_sweep_needs_enough_grid_points():
    plan = default_rate_plan(repetitions=1)
    plan.n_grid = [512, 1024]
    with pytest.raises(ValueError, match="5 points"):
        run_rate_sweep(plan)


def test_designer_problem_defaults_are_the_default_rate_plan_problem():
    def rows(problem):
        plan = ExperimentPlan(experiment="rate_sweep", base_seed=3, repetitions=1,
                              n_grid=[64, 128, 256, 512, 1024], problem=problem,
                              filter={"kind": "tikhonov"})
        return run_rate_sweep(plan)["rows"]

    assert rows({"type": "designer"}) == rows(default_rate_plan().problem)


def test_rate_sweep_caps_features_at_problem_rank():
    plan = ExperimentPlan(
        experiment="rate_sweep",
        repetitions=1,
        n_grid=[64, 128, 256, 512, 1024],
        problem={"type": "designer", "J": 16, "b": 1.0, "r": 0.5, "noise_std": 0.1},
        filter={"kind": "tikhonov"},
    )
    out = run_rate_sweep(plan)
    assert all(c["M"] <= 16 for c in out["configs"])
    assert any(c["M_schedule"] > 16 for c in out["configs"])


def test_rate_sweep_schedules_read_the_problem_r_and_b():
    plan = ExperimentPlan(
        experiment="rate_sweep",
        repetitions=1,
        n_grid=[64, 128, 256, 512, 1024],
        problem={"type": "designer", "J": 16, "b": 0.5, "r": 1.0, "noise_std": 0.1},
        filter={"kind": "tikhonov"},
    )
    out = run_rate_sweep(plan)
    assert out["target_slope"] == -1.0 / 2.5
    for c in out["configs"]:
        assert c["lambda"] == lambda_schedule(c["n"], 1.0, 0.5)
        assert c["M_schedule"] == m_schedule(c["n"], 1.0, 0.5)


def test_plateau_anchors_use_the_dataset_input_dimension(tmp_path):
    plan = _dataset_plan(tmp_path)  # two feature columns, n_train = 80
    plan.repetitions = 10
    plan.m_grid = [round(4 * math.sqrt(80)), round(20 * math.sqrt(80))]  # the d = 1 anchors
    with pytest.raises(ValueError, match="need M = 72 and M = 358"):
        run_plateau_check(plan)


def test_plateau_plan_reads_its_dataset_once(tmp_path, monkeypatch):
    plan = _dataset_plan(tmp_path)  # two feature columns, n_train = 80
    plan.repetitions = 10
    plan.m_grid = list(plateau_anchors(plan.n_train, 2))
    calls = []

    @functools.wraps(ingest_csv_dataset)
    def counting_ingest(*args, **kwargs):
        calls.append(kwargs)
        return ingest_csv_dataset(*args, **kwargs)

    monkeypatch.setattr(harness, "ingest_csv_dataset", counting_ingest)
    out = run_plateau_check(plan)
    assert len(calls) == 1
    assert out["failures"] == []
    assert len(out["rows"]) == 2 * 10 * 2  # M values x reps x T values


def test_heatmap_records_each_failed_cell_and_finishes():
    # NTK tau = gamma = 10 puts alpha * ||Sigma|| far past 2 for Landweber alpha = 0.5
    plan = _tiny_heatmap_plan()
    plan.feature_map = {"kind": "ntk_one_layer", "params": {"tau": 10.0, "gamma": 10.0}}
    out = run_heatmap(plan, workers=2)
    assert out["rows"] == [] and out["aggregates"] == []
    cells = {(f["M"], f["T"], f["rep"]) for f in out["failures"]}
    assert len(out["failures"]) == len(cells) == 8
    assert {m for m, _, _ in cells} == {8, 16}
    assert all("DivergenceError" in f["error"] and ">= 2" in f["error"] for f in out["failures"])


def test_heatmap_records_only_fit_errors(monkeypatch):
    # a ValueError or RuntimeError is a failed cell; any other error is a fault, and stops the run
    def broken_fit(*args, **kwargs):
        raise TypeError("not a fit error")

    monkeypatch.setattr(harness, "fit_iterative", broken_fit)
    with pytest.raises(TypeError, match="not a fit error"):
        run_heatmap(_tiny_heatmap_plan())
    with pytest.raises(TypeError, match="not a fit error"):
        run_heatmap(_tiny_heatmap_plan(), workers=2)


@pytest.mark.parametrize("kind", ["rate_sweep", "heatmap"])
def test_plan_fields_at_their_defaults_load_whatever_the_experiment(kind):
    # every field spelled out at its default, with the schedule given empty, in part, or
    # merged with its defaults as plan.resolved.json holds it
    default = json.dumps(dataclasses.asdict(ExperimentPlan(experiment=kind)))
    spelled = json.loads(default)
    for schedule in ({}, {"C_M": 4.0}, spelled["schedule"]):
        plan = ExperimentPlan(**{**spelled, "n_train": 5000.0, "schedule": schedule})
        assert json.dumps(dataclasses.asdict(plan)) == default


def test_rate_sweep_with_an_iterative_filter_runs_fit_iterative(monkeypatch):
    steps = []

    @functools.wraps(fit_iterative)
    def counting_fit(*args, **kwargs):
        model = fit_iterative(*args, **kwargs)
        steps.append(model.iterations)
        return model

    monkeypatch.setattr(estimator, "fit_iterative", counting_fit)  # the fit estimator.fit picks
    plan = ExperimentPlan(
        experiment="rate_sweep",
        repetitions=2,
        n_grid=[64, 128, 256, 512, 1024],
        problem={"type": "designer", "J": 8, "b": 1.0, "r": 0.5},
        filter={"kind": "landweber", "alpha": 1.0},
    )
    out = run_rate_sweep(plan)
    filt = make_filter(**plan.filter)
    want = [filt.iterations_for_lambda(c["lambda"]) for c in out["configs"] for _ in range(2)]
    assert sorted(steps) == sorted(want)
    assert len(out["rows"]) == 10
    assert all(np.isfinite(row[-1]) and row[-1] > 0 for row in out["rows"])
    assert np.isfinite(out["slope"])


@pytest.mark.parametrize("change,named", [
    ({"m_grid": 3}, "plan m_grid must be a list, not 3"),
    ({"t_grid": None}, "plan t_grid must be a list, not None"),
    ({"n_grid": 12345}, "plan n_grid must be a list, not 12345"),
    ({"m_grid": [8, None]}, "plan m_grid entry must be an integer >= 1, not None"),
    ({"n_grid": [64, "128"]}, "plan n_grid entry must be an integer >= 1, not '128'"),
    # a repeated M merged two columns into one cell, and a repeated n gave a nan slope
    ({"m_grid": [8, 8]}, "plan m_grid repeats entries: 8$"),
    ({"m_grid": [16, 8, 16.0, 8, 4]}, "plan m_grid repeats entries: 8, 16$"),
    ({"n_grid": [512] * 5}, "plan n_grid repeats entries: 512$"),
    ({"n_grid": [64, 128, 256, 512, 512.0]}, "plan n_grid repeats entries: 512$"),
])
def test_plan_grids_are_lists_of_counts(change, named):
    with pytest.raises(ValueError, match=named):
        ExperimentPlan(experiment="heatmap", **change)


def test_plan_grid_counts_may_be_integral_floats():
    heatmap = ExperimentPlan(experiment="heatmap", m_grid=[8.0])
    rate = ExperimentPlan(experiment="rate_sweep", n_grid=[64.0, 128])
    assert heatmap.m_grid == [8] and rate.n_grid == [64, 128]
    assert all(type(v) is int for v in heatmap.m_grid + rate.n_grid)


@pytest.mark.parametrize("input_dim", [1, 4])
def test_synthetic_data_past_the_memory_budget_is_refused_before_it_is_drawn(monkeypatch, input_dim):
    # the check counts the draw's peak, (input_dim + 8) n floats: the largest n it admits
    # peaks within 64 KiB of the budget under tracemalloc, and one more row is refused
    budget = 4 * 2**20
    per_row = (input_dim + 8) * 8
    n = budget // per_row
    monkeypatch.setattr(features, "DEFAULT_MEMORY_BUDGET", budget)
    harness._synthetic_data(0, 10, input_dim)  # numpy's first-call allocations are not the draw's
    (X, _), peak = traced_peak(lambda: harness._synthetic_data(0, n, input_dim))
    assert X.shape == (n, input_dim)
    assert budget - 2**16 <= peak <= budget + 2**16
    named = f"^synthetic data needs {(n + 1) * per_row} bytes, budget is {budget}$"
    with pytest.raises(features.MemoryBudgetError, match=named):
        harness._synthetic_data(0, n + 1, input_dim)


@pytest.mark.parametrize("problem,named", [
    ({"input_dim": None}, "synthetic problem input_dim must be an integer >= 1, not None"),
    ({"input_dim": 1.5}, "synthetic problem input_dim must be an integer >= 1, not 1.5"),
    ({"noise_std": "0.3"}, "synthetic problem noise_std must be a real number, not '0.3'"),
    ({"noise_std": -1}, "synthetic problem noise_std must be >= 0, not -1"),
])
def test_synthetic_problem_values_are_checked_before_any_trial(problem, named):
    plan = _tiny_heatmap_plan()
    plan.problem = {"type": "synthetic", **problem}
    with pytest.raises(ValueError, match=named):
        run_heatmap(plan)
