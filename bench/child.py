"""One timed repeat of a workload, run in a fresh process by ``run.py``.

    python3 bench/child.py SPEC.json

SPEC.json names the package source, the input CSV and schema, the workload
parameters and whether to trace. The child writes its measurements to the
``result`` path given in the spec and exits 0, also when the program under
test failed; the failure is then in the result.
"""

from __future__ import annotations

import hashlib
import json
import logging
import resource
import sys
from pathlib import Path

import numpy as np

import speed
import tracing


def _import_package(src: str):
    sys.path.insert(0, src)
    import anomstream
    import anomstream.cli  # noqa: F401  (loads every layer module)

    origin = Path(anomstream.__file__).resolve()
    if Path(src).resolve() not in origin.parents:
        raise RuntimeError(f"anomstream imported from {origin}, not from {src}")
    return anomstream


def _replay(pkg, spec: dict, obs: tracing.Observations) -> dict:
    out = Path(spec["out_dir"])
    argv = [
        "run", "--config", spec["config"], "--csv", spec["csv"],
        "--schema", spec["schema"], "--mode", spec["mode"],
        "--seed", str(spec["engine_seed"]), "--out", str(out),
    ]
    start = speed.clock()
    exit_code = pkg.cli.main(argv)
    end = speed.clock()
    return {"exit_code": exit_code, "start": start, "end": end}


def _live(pkg, spec: dict, obs: tracing.Observations) -> dict:
    """Bootstrap, then feed records one at a time as a live tap would."""
    ingest, engine, scorer, metrics = pkg.ingest, pkg.engine, pkg.scorer, pkg.metrics
    start = speed.clock()
    schema = ingest.CsvSchema.from_json(spec["schema"])
    records = ingest.load_csv(spec["csv"], schema).records
    first, rest = records[: spec["first"]], records[spec["first"]:]
    normalizer = ingest.fit_normalizer(first)
    seed = spec["engine_seed"]
    config = engine.EngineConfig(
        scorer=scorer.ScorerConfig(
            timestep=spec["timestep"], n_features=normalizer.n_features, seed=seed
        ),
        update_interval=spec["update_interval"],
        abnormal_warmup=spec["abnormal_warmup"],
        seed=seed,
    )
    detector = engine.OnlineAnomalyDetector(config)
    detector.bootstrap([r.to_stream() for r in ingest.normalize_records(first, normalizer)])
    for r in rest:
        record = ingest.StreamRecord(index=r.index, features=normalizer.apply(r.features))
        detector.process(record)
        detector.maybe_retrain()
    end = speed.clock()

    # Quality over every routed record, outside the timed region.
    verdicts = obs.verdicts
    routes = [v.route.value for v in verdicts]
    fractions = [
        pkg.forest.vote_fraction(v.votes) if v.votes else float("nan") for v in verdicts
    ]
    scores = metrics.composite_scores([v.loss for v in verdicts], routes, fractions)
    quality = metrics.evaluate([v.label for v in verdicts], [r.truth for r in rest], scores)
    digest = hashlib.sha256()
    for r, v, route in zip(rest, verdicts, routes):
        digest.update(f"{r.index},{v.loss!r},{route},{int(v.label)},{v.votes}\n".encode())
    return {
        "exit_code": 0,
        "start": start,
        "end": end,
        "digest": digest.hexdigest(),
        "quality": {k: quality[k] for k in ("spauc", "f1", "far")},
        "retrain_samples": obs.retrain_samples,
    }


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    logging.basicConfig(level=logging.ERROR)
    pkg = _import_package(spec["src"])
    obs = tracing.Observations()
    tracer = tracing.Tracer() if spec["trace"] else None
    missing = tracing.install(pkg, obs, tracer)
    run = _replay if spec["kind"] == "replay" else _live
    probe = speed.SpeedProbe()
    probe.start()
    try:
        result = run(pkg, spec, obs)
    except Exception as exc:  # the program failed: report it, do not crash the bench
        result = {"exit_code": -1, "error": f"{type(exc).__name__}: {exc}"}
    finally:
        probe.stop()
    # Every timing at the reference speed (speed.py); raw ones are kept as *_raw_s.
    verdicts = np.array(obs.verdict_spans).reshape(-1, 2)
    pauses = np.array(obs.pause_spans).reshape(-1, 2)
    result.update(
        routed=len(verdicts),
        verdict_s=probe.scaled(verdicts[:, 0], verdicts[:, 1]).tolist(),
        pause_s=probe.scaled(pauses[:, 0], pauses[:, 1]).tolist(),
        pause_raw_s=(pauses[:, 1] - pauses[:, 0]).tolist(),
        speed=probe.summary(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        missing=missing,
    )
    if result["exit_code"] == 0 and obs.setup_end is not None:
        bounds = [result["start"], obs.setup_end, result["end"]]
        setup, run_s = probe.scaled(bounds[:2], bounds[1:])
        result.update(
            setup_s=float(setup), run_s=float(run_s),
            setup_raw_s=bounds[1] - bounds[0], run_raw_s=bounds[2] - bounds[1],
        )
        result["records_per_s"] = result["routed"] / result["run_s"]
    if tracer is not None:
        spans = np.array([s[1:3] for s in tracer.spans]).reshape(-1, 2)
        tracer.rescale(probe.scaled(spans[:, 0], spans[:, 1]))
        result["layers"] = tracing.layer_metrics(tracer, obs)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
