"""specrf benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The run writes the workload's inputs from
the seed, then starts one child process per operation (perfbench/child.py)
with the workload's thread variables set only in the child's environment,
until the next child would end past S seconds. End-to-end metrics are the
medians over the untraced children: setup_s and wall_s as the child measures
them, cpu_s and peak_rss_mb from the child's wait4 rusage; the times are
scaled to a reference machine speed by a calibration kernel the child runs
next to its timed region. With --trace 1,
traced and untraced children alternate; the per-layer metrics are medians
over the traced ones and trace.overhead_s is the difference of the wall_s
medians. A separate process (perfbench/checks.py) then checks every child's
outputs. The last stdout line is the JSON result; every run is also
appended to .perfbench_runs/runs.jsonl.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import SCALES, WORKLOADS, operations_per_child, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".perfbench_runs"
CHILD_TIMEOUT_S = 60.0
RUN_BUDGET_S = 120.0  # no child starts after this, so a run ends well within 180 s
# about the time of child.calibrate() on the host the benchmark was tuned on
# (2-vCPU Xeon VM, OpenBLAS 0.3.31). That host's speed drifted by up to 30% over
# minutes; scaling each child by its own calibration time takes the drift out.
CAL_REF_S = 0.1


def _spawn(cmd: list[str], env: dict, op_dir: Path) -> dict:
    """Run one child to completion; return its exit code and wait4 rusage."""
    op_dir.mkdir(parents=True)
    with open(op_dir / "stdout.txt", "w") as out, open(op_dir / "stderr.txt", "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "op": op_dir.name,
        "exit": proc.returncode,
        "lifetime_s": time.monotonic() - spawned,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def _child_env(threads: dict) -> dict:
    env = dict(os.environ)
    env.update(threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p
    )
    return env


def _run_children(args, run_dir: Path, env: dict) -> list[dict]:
    """Start operation children one after another while the next one would end
    less than half a child past `seconds`; at least one (two with tracing)."""
    workload = WORKLOADS[args.workload]
    records = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(records) % 2 == 1
        op_dir = run_dir / f"op-{len(records):03d}"
        cmd = [sys.executable, str(HERE / "child.py"), args.workload, str(run_dir / "input"),
               str(op_dir), "--workers", str(workload.workers)]
        if traced:
            cmd += ["--trace", f"{run_dir.name}/{op_dir.name}"]
        rec = _spawn(cmd, env, op_dir)
        rec["traced"] = traced
        result_path = op_dir / "result.json"
        if result_path.exists():
            rec.update(json.loads(result_path.read_text()))
        records.append(rec)
        elapsed = time.monotonic() - start
        per_child = elapsed / len(records)
        if len(records) >= (2 if args.trace else 1) and (
            elapsed + per_child / 2 > args.seconds or elapsed > RUN_BUDGET_S
        ):
            return records


def _run_checks(args, run_dir: Path, env: dict) -> dict | None:
    check_dir = run_dir / "checks"
    cmd = [sys.executable, str(HERE / "checks.py"), args.workload, str(run_dir), str(args.seed),
           args.scale]
    rec = _spawn(cmd, env, check_dir)
    try:
        return json.loads((check_dir / "stdout.txt").read_text().strip().splitlines()[-1])
    except (OSError, ValueError, IndexError):
        print(f"checks crashed (exit {rec['exit']}); see {check_dir / 'stderr.txt'}")
        return None


def _calibrated(record: dict, key: str) -> float:
    """A child's time at the reference machine speed.

    Scaled by CAL_REF_S over the child's own calibration time; CPU time
    excludes the calibration's. A child that died before reporting counts its
    lifetime, unscaled.
    """
    if "cal_wall_s" not in record:
        return record.get(key, record["lifetime_s"])
    value = record["cpu_s"] - record["cal_cpu_s"] if key == "cpu_s" else record[key]
    return value * CAL_REF_S / record["cal_wall_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="input size; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "specrf" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a specrf checkout (need src/specrf and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workload = WORKLOADS[args.workload]

    run_dir = RUNS_DIR / f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}-{os.getpid()}"
    write_inputs(args.workload, args.seed, args.scale, run_dir / "input")
    env = _child_env(workload.thread_env())
    records = _run_children(args, run_dir, env)
    report = _run_checks(args, run_dir, env)

    per_op = operations_per_child(args.workload, run_dir / "input")
    attempted = per_op * len(records)
    failed = sum(per_op for r in records if r["exit"] != 0)
    checks = []
    if report is None:
        failed = attempted
        checks.append({"name": "checks completed", "ok": False, "detail": ""})
    else:
        exits = {r["op"]: r["exit"] for r in records}
        failed += sum(op["failed"] for op in report["ops"] if exits.get(op["op"]) == 0)
        checks = report["checks"]
        # a failed correctness check counts as a failed operation
        failed = min(attempted, failed + sum(1 for c in checks if not c["ok"]))
    correct = failed == 0 and all(c["ok"] for c in checks)

    timed = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    e2e = {m: statistics.median(_calibrated(r, m) for r in timed)
           for m in ("setup_s", "wall_s", "cpu_s")}
    e2e["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in timed)
    layers = {}
    if traced:
        layers = {name: statistics.median(r.get("layers", {}).get(name, 0.0) for r in traced)
                  for name in (m["name"] for m in spec["per_layer"])}
        layers["trace.overhead_s"] = (
            statistics.median(_calibrated(r, "wall_s") for r in traced) - e2e["wall_s"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else e2e
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}

    for r in records:
        print(f"{r['op']} {'traced' if r['traced'] else 'timed'} exit={r['exit']} "
              + " ".join(f"{k}={r[k]:.4f}" for k in (
                  "setup_s", "wall_s", "cpu_s", "peak_rss_mb", "cal_wall_s") if k in r))
    for c in checks:
        print(f"check {'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    if report is not None:
        for op in report["ops"]:
            for problem in op["problems"]:
                print(f"{op['op']}: {problem}")
    risk = report["risk"] if report else None
    print(f"risk = {'n/a' if risk is None else repr(risk)}")
    print(f"fail_rate = {failed / attempted!r} ({failed} of {attempted} operations)")
    absent = sorted({a for r in traced for a in r.get("absent", [])})
    if absent:
        print(f"absent (not traced): {', '.join(absent)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "run_dir": run_dir.name,
        "env": {**(report or {}).get("env", {}), "threads": workload.thread_env(),
                "workers": workload.workers},
        "children": records, "checks": checks, "risk": risk, "absent": absent,
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    print(f"env: {json.dumps(record['env'])}")
    print(f"run directory: {run_dir}")
    with open(RUNS_DIR / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    (run_dir / "input" / "data.csv").unlink(missing_ok=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
