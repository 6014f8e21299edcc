#!/usr/bin/env python3
"""anomstream benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload replay-default --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table

A run draws several streams from ``--seed`` with
``anomstream.ingest.synthetic_stream`` (through ``anomstream synth``) and
writes each to CSV before any timing starts. Each stream is processed once
by a fresh child process (``child.py``); streams are added until
``--seconds`` is used up (at least ``MIN_STREAMS``), then the first stream
is processed again and its verdicts must be byte-identical. The loop is
closed: one caller, one record in flight, one child at a time.

The detector's work depends on its own decisions (how many windows it
labels normal and fine-tunes on, when its phase flips, how deep the forest
grows), and those vary a lot from one stream to the next. The end-to-end
metrics therefore pool several streams per run rather than repeating one.

Every timing is the CPU time of the child's main thread, scaled to one
reference core speed by ``speed.py``: the host's core speed flips between
two levels, and neither a median nor a mean of raw times is steady across
runs. The unscaled figures are printed alongside.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` processes the first stream untraced and then traced, and
prints the per-layer metrics of the traced child plus the tracing overhead.

Every child's outputs are checked (see ``check_replay``/``check_live``);
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` (records) and ``metrics``. The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

BLAS_THREADS = 1
MIN_STREAMS = 3
MAX_STREAMS = 8
CHILD_TIMEOUT_S = 150
ROUTES = {"high_conf_normal", "high_conf_abnormal", "classifier"}
QUALITY = ("spauc", "f1", "far")

# Scorer (T=30, H=64, L=32, epochs 30/5) and forest (40 trees, depth 16) stay
# at the package defaults in every workload. Stream length, update_interval
# and abnormal_warmup are scaled down from the defaults (6400 and 500) so
# that several streams fit in one run; fine-tune work and scoring work both
# grow with the interval, so their ratio, and each layer's share, is kept.
FIRST_ROUND = 80
WORKLOADS = {
    "replay-default": {
        "kind": "replay", "mode": "adaptive", "features": 8, "rate": 0.015,
        "burst": 5, "drift": 2.0, "routed": 1000, "update_interval": 125,
        "abnormal_warmup": 25, "engine_seed": 7,
    },
    "replay-wide-frozen": {
        "kind": "replay", "mode": "initial-only", "features": 39, "rate": 0.015,
        "burst": 5, "drift": 0.0, "routed": 1200, "update_interval": 150,
        "abnormal_warmup": 500, "engine_seed": 7,
    },
    "live-record": {
        "kind": "live", "features": 8, "rate": 0.03, "burst": 5, "drift": 2.0,
        "timestep": 30, "routed": 1000, "update_interval": 125, "abnormal_warmup": 25,
        "engine_seed": 7,
    },
}


# ------------------------------------------------------------------- inputs


def _import_package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import anomstream.cli

    return anomstream.cli


def _first_round_is_clean(path: Path) -> bool:
    with path.open(newline="", encoding="utf-8") as handle:
        rows = csv.DictReader(handle)
        return all(row["label"] == "normal" for _, row in zip(range(FIRST_ROUND), rows))


def make_inputs(cli, workload: dict, seed: int, stream: int, work: Path) -> dict:
    """Stream CSV, schema and run config for stream ``stream`` of ``seed``.

    The min-max normaliser is fitted on the first round. An anomaly burst
    inside those 80 records widens its range so much that drifted traffic
    never clips, and the run lands in a different regime (no phase flip,
    FAR near 1%). Streams would then split into two populations, so the
    stream seed is the first of ``1000 * seed + 100 * stream + k``
    (k = 0, 1, ...) whose first round is all normal.
    """
    n = FIRST_ROUND + workload["routed"]
    work.mkdir(parents=True)
    paths = {"csv": work / "stream.csv", "schema": work / "schema.json",
             "config": work / "config.json"}
    for k in range(100):
        stream_seed = 1000 * seed + 100 * stream + k
        argv = [
            "synth", "--out", str(paths["csv"]), "--n", str(n),
            "--features", str(workload["features"]), "--rate", str(workload["rate"]),
            "--burst", str(workload["burst"]), "--drift", str(workload["drift"]),
            "--seed", str(stream_seed), "--schema-out", str(paths["schema"]),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"anomstream synth exited {code}")
        if _first_round_is_clean(paths["csv"]):
            break
    else:
        raise RuntimeError("no stream seed with an all-normal first round")
    # Everything after the first round is the test slice, so quality is
    # measured on every routed record.
    first = FIRST_ROUND / n
    config = {
        "engine": {"update_interval": workload["update_interval"],
                   "abnormal_warmup": workload["abnormal_warmup"]},
        "stream": {"split": {"kind": "fractions", "first": first,
                             "train": 0.0, "test": 1.0 - first}},
    }
    paths["config"].write_text(json.dumps(config), encoding="utf-8")
    return {**{k: str(v) for k, v in paths.items()}, "stream_seed": stream_seed}


def provenance(name: str, workload: dict, seed: int, stream_seeds: list[int]) -> dict:
    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
    )
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode())
        src_digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode; the version is only recorded
        blas_version = "unknown"
    return {
        "git_sha": git.stdout.strip() if git.returncode == 0 else "unknown",
        "src_sha256": src_digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "workload": name,
        "workload_seed": seed,
        "stream_seeds": stream_seeds,
        "engine_seed": workload["engine_seed"],
        "records_per_stream": FIRST_ROUND + workload["routed"],
        "routed_per_stream": workload["routed"],
    }


# ----------------------------------------------------------------- children


def run_child(workload: dict, inputs: dict, work: Path, tag: str, trace: bool) -> dict:
    out_dir = work / f"out-{tag}"
    spec = {
        **workload, **inputs, "src": str(SRC), "first": FIRST_ROUND, "trace": trace,
        "out_dir": str(out_dir), "result": str(work / f"result-{tag}.json"),
    }
    spec_path = work / f"spec-{tag}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "errors": [f"child timed out after {CHILD_TIMEOUT_S} s"],
                "wall_s": time.perf_counter() - started}
    wall = time.perf_counter() - started
    result_path = Path(spec["result"])
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"ok": False, "wall_s": wall,
                "errors": [f"child exited {proc.returncode}: {' | '.join(tail)}"]}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["wall_s"] = wall
    if result["exit_code"] != 0:
        result["errors"] = [
            f"program exit {result['exit_code']} {result.get('error', '')}".strip()
        ]
    else:
        check = check_replay if workload["kind"] == "replay" else check_live
        result["errors"] = check(workload, out_dir, result) + check_timings(result)
    result["ok"] = not result["errors"]
    return result


def check_replay(workload: dict, out_dir: Path, result: dict) -> list[str]:
    """verdicts.csv and thresholds.csv of one replay; sets digest and quality."""
    errors = []
    routed = workload["routed"]
    data = (out_dir / "verdicts.csv").read_bytes()
    result["digest"] = hashlib.sha256(data).hexdigest()
    result["verdicts_bytes"] = len(data)
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    if len(rows) != routed or result["routed"] != routed:
        errors.append(f"verdicts.csv has {len(rows)} rows and the engine routed "
                      f"{result['routed']} records, expected {routed}")
    for expected, row in zip(range(FIRST_ROUND, FIRST_ROUND + routed), rows):
        try:
            bad = (
                int(row["index"]) != expected
                or row["route"] not in ROUTES
                or not math.isfinite(float(row["t1"]))
                or not math.isfinite(float(row["loss"]))
                or not 0.0 <= float(row["score"]) <= 1.0
            )
        except (KeyError, TypeError, ValueError):
            bad = True
        if bad:
            errors.append(f"verdicts.csv row for index {expected} is invalid: {row}")
            break
    with (out_dir / "thresholds.csv").open(newline="", encoding="utf-8") as handle:
        retrains = sum(1 for row in csv.DictReader(handle) if row["event"] == "retrain")
    if retrains != routed // workload["update_interval"]:
        errors.append(f"thresholds.csv shows {retrains} retrains, expected "
                      f"{routed // workload['update_interval']}")
    with (out_dir / "metrics.csv").open(newline="", encoding="utf-8") as handle:
        row = next(csv.DictReader(handle))
    result["quality"] = {k: float(row[k]) for k in QUALITY}
    return errors


def check_live(workload: dict, out_dir: Path, result: dict) -> list[str]:
    errors = []
    routed, interval = workload["routed"], workload["update_interval"]
    if result["routed"] != routed:
        errors.append(f"{result['routed']} verdicts, expected {routed}")
    samples = result["retrain_samples"]
    if len(samples) != routed // interval or any(s % interval for s in samples):
        errors.append(f"retrains at {samples}, expected every {interval} records")
    return errors


def run_streams(cli, workload: dict, seed: int, work: Path, seconds: float,
                trace: bool, started: float) -> tuple[list[dict], dict, list[int]]:
    """Distinct streams until ``seconds`` would be exceeded, then the first
    stream again; with ``trace``, the first stream untraced and then traced.

    Returns the distinct-stream children, the rerun of stream 0, and the
    stream seeds.
    """
    inputs = [make_inputs(cli, workload, seed, 0, work / "stream0")]
    first = run_child(workload, inputs[0], work, "s0", False)
    if trace:
        rerun = run_child(workload, inputs[0], work, "s0-traced", True)
        return [first], rerun, [inputs[0]["stream_seed"]]
    children = [first]
    while len(children) < MAX_STREAMS:
        # Leave room for one more stream and for the rerun of stream 0.
        predicted = time.perf_counter() - started + 2 * children[-1]["wall_s"]
        if len(children) >= MIN_STREAMS and predicted > seconds:
            break
        i = len(children)
        inputs.append(make_inputs(cli, workload, seed, i, work / f"stream{i}"))
        children.append(run_child(workload, inputs[i], work, f"s{i}", False))
    rerun = run_child(workload, inputs[0], work, "s0-rerun", False)
    return children, rerun, [x["stream_seed"] for x in inputs]


def check_timings(result: dict) -> list[str]:
    """Every scaled timing must be a positive finite number (see speed.py)."""
    timings = [result.get("setup_s", math.nan), result.get("run_s", math.nan),
               *result["verdict_s"], *result["pause_s"]]
    bad = sum(not (math.isfinite(x) and x > 0) for x in timings)
    return [f"{bad} timings are not positive finite numbers"] if bad else []


def check_rerun(first: dict, rerun: dict) -> None:
    """Reruns of one stream must give byte-identical verdicts."""
    if first["ok"] and rerun["ok"] and first["digest"] != rerun["digest"]:
        rerun["ok"] = False
        rerun["errors"].append("verdict digest differs from the first run of stream 0")


# ------------------------------------------------------------------ metrics


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(streams: list[dict], everyone: list[dict]) -> tuple[dict, str, str]:
    """Every timing is at the reference speed (``speed.py``).

    Throughput over all streams; verdict percentiles and pause median over
    the pooled samples of all streams (at least 3000 verdicts, so thirty or
    more beyond p99); set-up and memory as medians over every child, the
    rerun included."""
    verdicts = [v for r in streams for v in r["verdict_s"]]
    pauses = [p for r in streams for p in r["pause_s"]]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in everyone),
        "records_per_s": sum(r["routed"] for r in streams) / sum(r["run_s"] for r in streams),
        "verdict_ms_p50": 1e3 * percentile(verdicts, 50),
        "verdict_ms_p99": 1e3 * percentile(verdicts, 99),
        "retrain_pause_s_p50": percentile(pauses, 50),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in everyone),
    }
    samples = (f"{len(streams)} streams: {len(verdicts)} verdicts, {len(pauses)} "
               f"retrain pauses; {len(everyone)} set-ups")
    raw_pauses = [p for r in streams for p in r["pause_raw_s"]]
    raw_run_ratio = sum(r["run_s"] for r in streams) / sum(r["run_raw_s"] for r in streams)
    speed = {k: statistics.median(r["speed"][k] for r in everyone)
             for k in ("mean_speed", "kernel_us_p10", "kernel_us_p90")}
    raw = (
        f"unscaled CPU times (host speed {speed['mean_speed']:.3f} of the reference; "
        f"kernel p10 {speed['kernel_us_p10']:.1f} us, p90 {speed['kernel_us_p90']:.1f} us): "
        f"setup_s {statistics.median(r['setup_raw_s'] for r in everyone):.4f}, "
        f"records_per_s {values['records_per_s'] * raw_run_ratio:.2f}, "
        f"retrain_pause_s_p50 {percentile(raw_pauses, 50):.4f}"
    )
    return values, samples, raw


def _quality_value(x) -> float:
    """Quality percentages; -1 marks a value the metrics module left undefined."""
    return -1.0 if x is None or (isinstance(x, float) and math.isnan(x)) else float(x)


def per_layer(untraced: dict, traced: dict) -> dict:
    layers = dict(traced["layers"])
    layers["cli.verdicts_bytes"] = traced.get("verdicts_bytes", 0)
    for key in QUALITY:
        layers[f"metrics.{key}"] = _quality_value(traced["quality"][key])
    layers["trace.overhead_pct"] = 100.0 * (
        untraced["records_per_s"] / traced["records_per_s"] - 1.0
    )
    layers["trace.missing_names"] = len(traced["missing"])
    return layers


def load_units() -> tuple[dict, dict]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


# --------------------------------------------------------------------- main


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    workload = WORKLOADS[name]
    cli = _import_package()
    work = WORK / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        streams, rerun, stream_seeds = run_streams(
            cli, workload, seed, work, seconds, trace, started
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    check_rerun(streams[0], rerun)
    everyone = [*streams, rerun]
    attempted = workload["routed"] * len(everyone)
    failed = workload["routed"] * sum(not r["ok"] for r in everyone)
    e2e_units, layer_units = load_units()

    prov = provenance(name, workload, seed, stream_seeds)
    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    print(f"workload {name}: {len(streams)} streams + 1 rerun, "
          f"{workload['routed']} routed records each")
    for tag, r in [*((f"stream {i}", s) for i, s in enumerate(streams)), ("rerun", rerun)]:
        for error in r["errors"]:
            print(f"  {tag} FAILED: {error}")
    metrics: dict = {}
    if failed:
        pass
    elif trace:
        layers = per_layer(streams[0], rerun)
        for key, value in layers.items():
            print(f"  {key:40s} {value:14.6g} {layer_units.get(key, '')}")
        if rerun["missing"]:
            print(f"  trace: missing public names {rerun['missing']}")
        metrics = {k: {"value": v, "unit": layer_units[k]} for k, v in layers.items()
                   if k in layer_units}
    else:
        values, samples, raw = end_to_end(streams, everyone)
        print(f"  samples: {samples}")
        print(f"  {raw}")
        for key, value in values.items():
            print(f"  {key:22s} {value:14.6f} {e2e_units[key]}")
        for i, r in enumerate(streams):
            print(f"  quality (%) stream {i}: " + ", ".join(
                f"{k}={_quality_value(r['quality'][k]):.2f}" for k in QUALITY))
        metrics = {k: {"value": v, "unit": e2e_units[k]} for k, v in values.items()}
    print(f"  {'failed_share':22s} {failed / attempted:14.6f} ratio "
          f"({failed} of {attempted} records)")
    return {"correct": not failed, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    sys.dont_write_bytecode = True
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "anomstream" / "__init__.py").is_file():
        print(f"error: no anomstream package under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
