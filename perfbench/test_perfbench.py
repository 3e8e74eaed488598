"""Smoke test of the benchmark on tiny inputs: every metric and span is emitted."""
import json
import subprocess
import sys
from pathlib import Path

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> subprocess.Popen:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "11",
           "--seconds", "0", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def _finish(proc: subprocess.Popen) -> tuple[dict, list[str]]:
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    lines = out.strip().splitlines()
    return json.loads(lines[-1]), lines


def _check_metrics(result: dict, wanted: list[dict]) -> None:
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)


def test_every_metric_and_span_is_emitted_with_a_unit():
    procs = [_bench(w, 1) for w in WORKLOADS] + [_bench("heatmap", 0)]
    results = [_finish(p) for p in procs]
    ops = set()
    for result, lines in results[:-1]:
        _check_metrics(result, SPEC["per_layer"])
        run_dir = Path(next(l for l in lines if l.startswith("run directory: ")).split(": ", 1)[1])
        for spans in run_dir.glob("op-*/spans.jsonl"):
            ops.update(json.loads(line)["op"] for line in spans.read_text().splitlines())
    _check_metrics(results[-1][0], SPEC["end_to_end"])
    expected = {op for names in tracing.TRACED.values() for op, _ in names.values()}
    expected.add("filters.eval")
    assert ops == expected


def test_layer_metrics_match_the_benchmark_spec_and_layer_map():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    names = [m["name"] for m in SPEC["per_layer"]]
    assert names == [*tracing.LAYER_METRICS, "trace.overhead_s"]
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    assert set(layer_map) - {"about"} == set(names)
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for entry in (v for k, v in layer_map.items() if k != "about"):
        for target in entry["moves"] + entry["still"]:
            metric, workload = target.split("@")
            assert metric in e2e and workload in WORKLOADS


def test_missing_traced_name_is_reported_absent(monkeypatch):
    import specrf  # noqa: F401

    monkeypatch.setitem(tracing.TRACED, "specrf.features",
                        {**tracing.TRACED["specrf.features"], "no_such_function": ("features.x", None)})
    tracer = tracing.Tracer("absent-test")
    tracer.install()
    try:
        assert tracer.absent == ["specrf.features.no_such_function"]
    finally:
        tracer.uninstall()
