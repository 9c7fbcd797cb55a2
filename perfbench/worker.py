"""Runs one workload's timed stages in a process of its own.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

The job names the ``src`` directory to import ``seqpost`` from, the workload
spec, the input files, two output directories and how long to measure. The
worker runs the stages through ``seqpost.cli.main`` one after another, in a
closed loop on one thread, until the time is up. With tracing on, every
untraced pass is followed by a traced pass into the second directory. The
reference task of ``reference.py`` runs before the first stage and after
every stage, and each stage time is calibrated by the two runs around it.
The result holds each pass's stage times, raw and calibrated, exit codes and
output digests, the per-layer metrics of each traced pass, and the process's
peak RSS; the process runs nothing but the workload, so that peak is the
workload's.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from reference import Reference, calibrate

MIN_PASSES = 3


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_pass(main, stages, out: Path, reference: Reference, tracer=None) -> dict:
    """Run every stage once, then digest its outputs. Outputs of earlier
    passes are removed first, so a failed stage cannot leave a stale file
    for the next stage to read."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    printed: dict = {}
    records = []
    refs = []
    for stage in stages:
        refs.append(reference.seconds())
        record = {"name": stage.name, "seconds": None, "calibrated_s": None,
                  "code": None, "digests": {}, "error": None}
        records.append(record)
        try:
            argv = [arg.format(**printed) for arg in stage.argv]
        except KeyError as exc:
            record["error"] = f"no value for {exc} from an earlier stage"
            continue
        captured = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                if tracer is None:
                    code = main(argv)
                else:
                    with tracer.span(f"cli.{stage.name}"):
                        code = main(argv)
        except Exception:  # a crash is a failed stage run; the loop goes on
            record["error"] = traceback.format_exc(limit=4)
            continue
        record["seconds"] = time.perf_counter() - t0
        record["code"] = code
        if code == 0 and stage.prints_json:
            lines = captured.getvalue().strip().splitlines()
            try:
                record["printed"] = json.loads(lines[-1])
            except (IndexError, ValueError):
                record["error"] = "printed no JSON result"
                continue
            printed.update(record["printed"])
            record["digests"]["stdout"] = hashlib.sha256(lines[-1].encode()).hexdigest()
    refs.append(reference.seconds())
    for i, record in enumerate(records):
        if record["seconds"] is not None:
            record["calibrated_s"] = calibrate(record["seconds"], refs[i], refs[i + 1])
    for stage, record in zip(stages, records):
        if record["code"] != 0 or record["error"]:
            continue
        for path in stage.outputs:
            record["digests"][Path(path).name] = sha256_file(path)
        if tracer is not None and stage.outputs:
            tracer.count_hashed(stage.outputs[0] + ".manifest.json")
    return {"traced": tracer is not None, "stages": records, "reference_s": refs}


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    import seqpost.cli

    import workloads

    spec = workloads.Spec(**job["spec"])
    files = {key: Path(path) for key, path in job["files"].items()}
    out, out_traced = Path(job["out"]), Path(job["out_traced"])
    plain = workloads.stages(spec, files, out)
    traced = workloads.stages(spec, files, out_traced)
    if job["trace"]:
        import tracing
    reference = Reference(Path(job["out"]).parent / "reference-worker.txt")
    passes, layers = [], []
    tracer = None
    began = time.perf_counter()
    while (sum(not run["traced"] for run in passes) < MIN_PASSES
           or time.perf_counter() - began < job["seconds"]):
        gc.collect()
        passes.append(run_pass(seqpost.cli.main, plain, out, reference))
        if job["trace"]:
            gc.collect()
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                passes.append(run_pass(seqpost.cli.main, traced, out_traced, reference, tracer))
            layers.append(tracing.layer_metrics(tracer))
    if tracer is not None:
        tracing.write_spans(tracer, job["spans"])
    result = {
        "passes": passes,
        "layers": layers,
        "layer_units": dict(tracing.PER_LAYER) if job["trace"] else {},
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
