"""seqpost benchmark: one workload, set up from a seed, timed end to end.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload lta --seed 0 --seconds 25 --trace 0

Every time is calibrated against the reference task of ``reference.py``,
run right before and right after the thing timed, so that it reads the same
whether the shared host is in a fast or a slow phase; raw seconds are kept in
the results file. The benchmark pins itself to one CPU, and its child
processes inherit that, so the reference task and the work it calibrates
always run on the same CPU. First a fresh interpreter importing
``seqpost.cli``, the start-up every CLI call pays, is timed ten times after
one untimed start, each calibrated by the reference start-up (``import
numpy``) run before and after it; the median is ``startup_s``. Then set-up,
which builds the reference task and writes the workload's inputs, runs in at
least five samples and for at least two seconds, each sample repeating it
for at least 0.1 s and taking the median; the median sample is ``setup_s``.
A worker process then runs the workload's CLI stages through
``seqpost.cli.main`` in a closed loop on one thread for ``--seconds``
seconds (at least three passes). Every pass is checked: each stage must exit
0, the last pass's outputs must pass the structural checks in
``workloads.py``, every pass must produce the same output bytes, and where
``golden.json`` holds digests for this workload and seed they must match.
Each failed stage run counts in ``failed``; any failure makes the exit code 1.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of traced passes (see ``tracing.py``), whose outputs must be
byte-identical to the untraced passes run beside them. The last line of
standard output is one JSON object; a full results file with provenance goes
to ``perfbench/work/results/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import workloads
from reference import REF_START_CODE, REF_START_S, Reference, calibrate

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
SETUP_SAMPLE_MIN_S = 0.1
STARTUP_REPEATS = 10
STARTUP_TIMEOUT_S = 30
# the worker may overrun --seconds by its last pass and its own start-up
WORKER_MARGIN_S = 90

END_TO_END = [
    ("setup_s", "s"),
    ("startup_s", "s"),
    ("pipeline_s", "s"),
    ("stats_s", "s"),
    ("peak_rss_mb", "MiB"),
]
# The per-stage times (sweep_s, gen_s, refine_s, eval_s) and error_rate are
# printed by name and kept in the results file, but are not in the result
# object: each stage time exists on some workloads only, and error_rate is
# already the result's failed / attempted.


def summary(values: list[float]) -> dict:
    """Median, plus the highest whole percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    if n > 10:
        pct = (100 * (n - 10)) // n
        tail = {"percentile": pct, "value": ordered[math.ceil(pct * n / 100) - 1]}  # nearest rank
    return {"median": statistics.median(ordered), "tail": tail, "n": n, "values": values}


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "seqpost").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: Path, src: Path, seed: int, trace: bool, files: dict, cpus: set) -> dict:
    return {
        "commit": git_commit(root),
        "source_sha256": source_digest(src),
        "workload_seed": seed,
        "traced": trace,
        "input_bytes": {key: path.stat().st_size for key, path in files.items()},
        "nproc": len(cpus),
        "pinned_cpu": max(cpus),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "time_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _crash(rec: dict) -> str | None:
    """Why a stage run did not finish cleanly, or None when it did."""
    if rec["error"]:
        return rec["error"].strip().splitlines()[-1]
    if rec["code"] != 0:
        return f"exit code {rec['code']}"
    return None


def time_start(src: Path, code: str) -> float | None:
    """Seconds a fresh interpreter takes to run ``code``, or None if it fails.
    The wait blocks, because a wait with a timeout polls in steps of up to
    50 ms and would round the time to them; a timer kills a hung child."""
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)))
    killer = threading.Timer(STARTUP_TIMEOUT_S, child.kill)
    killer.start()
    child.wait()
    elapsed = time.perf_counter() - start
    killer.cancel()
    return elapsed if child.returncode == 0 else None


def time_startup(src: Path) -> dict | None:
    """Time ``import seqpost.cli`` in a fresh interpreter, calibrated by the
    reference start-up run before and after each; None if a start fails."""
    times = {"raw": [], "calibrated": [], "reference": []}
    if time_start(src, "import seqpost.cli") is None:  # warm-up: the first start reads files from disk
        return None
    ref_before = time_start(src, REF_START_CODE)
    for _ in range(STARTUP_REPEATS):
        seconds = time_start(src, "import seqpost.cli")
        ref_after = time_start(src, REF_START_CODE)
        if seconds is None or ref_before is None or ref_after is None:
            return None
        times["raw"].append(seconds)
        times["calibrated"].append(calibrate(seconds, ref_before, ref_after, REF_START_S))
        times["reference"].append(ref_after)
        ref_before = ref_after
    return times


def time_setup(spec, seed: int, inputs: Path, reference: Reference) -> tuple[dict, dict]:
    """Set up repeatedly; return the files and the raw and calibrated seconds
    of one set-up, one value per sample. One set-up builds the reference task,
    as the benchmark and its worker each do once per run, and writes the
    workload's inputs. A sample repeats the set-up until it has taken
    ``SETUP_SAMPLE_MIN_S`` and takes the median, so that a set-up much
    shorter than the reference task is still timed over a span the
    calibration fits.

    The reference task is built in the timed part because ``synth``'s inputs
    are one 200-byte file: writing it alone is a few file-system calls whose
    time, about 70 us, follows the shared disk's load and moved by up to 30 %
    between sets of runs of the same code."""
    times = {"raw": [], "calibrated": []}
    began = time.perf_counter()
    while len(times["raw"]) < SETUP_REPEATS or time.perf_counter() - began < SETUP_MIN_S:
        ref_before = reference.seconds()
        repeats: list[float] = []
        while sum(repeats) < SETUP_SAMPLE_MIN_S:
            shutil.rmtree(inputs, ignore_errors=True)
            t0 = time.perf_counter()
            Reference(inputs.parent / "reference-setup.txt")
            files = workloads.make_inputs(spec, seed, inputs)
            repeats.append(time.perf_counter() - t0)
        ref_after = reference.seconds()
        seconds = statistics.median(repeats)
        times["raw"].append(seconds)
        times["calibrated"].append(calibrate(seconds, ref_before, ref_after))
    return files, times


def judge(spec, passes: list[dict], stage_list, golden: dict | None) -> list[str]:
    """Mark failed stage runs in place and return the problems found.

    The reference for each stage is the last untraced pass: its outputs get
    the structural checks (and the golden digests), and every other pass,
    traced or not, must have finished cleanly and produced the same bytes."""
    problems = []
    reference = [p for p in passes if not p["traced"]][-1]["stages"]
    verdicts = []
    for stage, ref in zip(stage_list, reference):
        found = []
        if _crash(ref):
            found.append(f"{stage.name}: {_crash(ref)}")
        else:
            found += workloads.check_stage(spec, stage, ref.get("printed"))
            for name, expected in (golden or {}).get(stage.name, {}).items():
                if ref["digests"].get(name) != expected:
                    found.append(f"{stage.name}: {name} digest differs from golden.json")
        verdicts.append(found)
        problems += found
    for number, run in enumerate(passes):
        kind = "traced" if run["traced"] else "untraced"
        for stage, ref, rec, found in zip(stage_list, reference, run["stages"], verdicts):
            rec["failed"] = True
            if rec is not ref and _crash(rec):
                problems.append(f"{stage.name}: pass {number} ({kind}): {_crash(rec)}")
            elif not found and rec["digests"] != ref["digests"]:
                problems.append(f"{stage.name}: pass {number} ({kind}) output differs from the reference pass")
            else:
                rec["failed"] = bool(found)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "seqpost" / "cli.py").is_file():
        print(f"error: no seqpost sources under {src}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]
    golden_all = json.loads((HERE / "golden.json").read_text()) if (HERE / "golden.json").is_file() else {}
    golden = golden_all.get(args.workload, {}).get(str(args.seed))

    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    work = HERE / "work" / run_name
    results_dir = HERE / "work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    # children inherit the affinity: reference and timed work share one CPU
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        work.mkdir(parents=True)
        reference = Reference(work / "reference.txt")
        # start-up first: it gives the disk time to settle from whatever ran
        # before, and set-up, which is mostly file writes on small workloads,
        # is the more sensitive to that
        startup = time_startup(src)
        if startup is None:
            print("error: a fresh interpreter failed to import seqpost.cli or numpy", file=sys.stderr)
            return 1
        files, setup = time_setup(spec, args.seed, work / "inputs", reference)
        setup_times = {"setup": setup, "startup": startup}
        job = {
            "src": str(src),
            "spec": dataclasses.asdict(spec),
            "files": {key: str(path) for key, path in files.items()},
            "out": str(work / "out"),
            "out_traced": str(work / "out_traced"),
            "spans": str(results_dir / f"{run_name}.spans.jsonl"),
            "seconds": args.seconds,
            "trace": bool(args.trace),
        }
        (work / "job.json").write_text(json.dumps(job))
        timeout = args.seconds + WORKER_MARGIN_S
        try:
            done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(work / "job.json"),
                                   str(work / "result.json")], timeout=timeout)
            worker_error = None if done.returncode == 0 else f"worker exited with code {done.returncode}"
        except subprocess.TimeoutExpired:
            worker_error = f"worker ran longer than {timeout:g} s"
        if worker_error:
            print(f"error: {worker_error}", file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text())
        stage_list = workloads.stages(spec, files, work / "out")
        problems = judge(spec, result["passes"], stage_list, golden)
        report = build_report(args, result, setup_times, problems,
                              provenance(root, src, args.seed, bool(args.trace), files, cpus))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (results_dir / f"{run_name}.json").write_text(json.dumps(report, indent=2) + "\n")
    print_report(report)
    return 0 if report["correct"] else 1


def stage_times(runs: list[dict], key: str) -> dict[str, list[float]]:
    """Seconds per stage under ``key`` ("seconds" raw, or "calibrated_s"),
    plus "pipeline", their sum, for the passes where no stage failed."""
    times: dict[str, list[float]] = {}
    for run in runs:
        for rec in run["stages"]:
            if rec[key] is not None:
                times.setdefault(rec["name"], []).append(rec[key])
        if not any(rec["failed"] for rec in run["stages"]):
            times.setdefault("pipeline", []).append(sum(rec[key] for rec in run["stages"]))
    return times


def build_report(args, result, setup_times, problems, prov) -> dict:
    passes = result["passes"]
    stage_runs = [rec for run in passes for rec in run["stages"]]
    failed = sum(rec["failed"] for rec in stage_runs)
    untraced = [run for run in passes if not run["traced"]]
    plain = stage_times(untraced, "calibrated_s")
    timings = {f"{name}_s": summary(values["calibrated"]) for name, values in setup_times.items()}
    timings.update((f"{name}_s", summary(values)) for name, values in plain.items())
    raw_timings = {f"{name}_s": summary(values["raw"]) for name, values in setup_times.items()}
    raw_timings.update((f"{name}_s", summary(values))
                       for name, values in stage_times(untraced, "seconds").items())
    references = [ref for run in passes for ref in run["reference_s"]]
    report = {
        "workload": args.workload,
        "provenance": prov,
        "correct": not problems,
        "attempted": len(stage_runs),
        "failed": failed,
        "error_rate": failed / len(stage_runs),
        "problems": problems,
        "timings": timings,
        "raw_timings": raw_timings,
        "reference_s": summary(references),
        "reference_start_s": summary(setup_times["startup"]["reference"]),
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
        "digests": {rec["name"]: rec["digests"] for rec in untraced[-1]["stages"]},
    }
    if args.trace:
        traced = stage_times([run for run in passes if run["traced"]], "calibrated_s")
        report["trace_overhead"] = {
            name: statistics.median(traced[name]) / statistics.median(plain[name])
            for name in plain if name in traced
        }
        report["metrics"] = {
            name: {"value": statistics.median(layer[name] for layer in result["layers"]), "unit": unit}
            for name, unit in result["layer_units"].items()
        }
        if "pipeline" in report["trace_overhead"]:
            report["metrics"]["trace.overhead"] = {"value": report["trace_overhead"]["pipeline"],
                                                   "unit": "ratio"}
    else:
        values = {name: t["median"] for name, t in timings.items()}
        values["peak_rss_mb"] = report["peak_rss_mb"]
        # a metric with no sample (its stage never finished) is left out; the
        # run is then already marked incorrect
        report["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in END_TO_END if name in values}
    return report


def print_report(report: dict) -> None:
    for problem in report["problems"]:
        print(f"problem: {problem}")
    for name, t in report["timings"].items():
        tail = (f", p{t['tail']['percentile']} {t['tail']['value']:.4f} s" if t["tail"]
                else ", no percentile with ten samples beyond it")
        raw = report["raw_timings"][name]["median"]
        print(f"{name}: median {t['median']:.4f} s calibrated{tail} (n={t['n']}); raw median {raw:.4f} s")
    for name in ("reference_s", "reference_start_s"):
        print(f"{name}: median {report[name]['median']:.4f} s raw (n={report[name]['n']})")
    print(f"peak_rss_mb: {report['peak_rss_mb']:.1f} MiB")
    print(f"error_rate: {report['error_rate']:.4f} fraction ({report['failed']} of {report['attempted']} stage runs failed)")
    for name, ratio in report.get("trace_overhead", {}).items():
        print(f"trace overhead {name}: {ratio:.3f}x untraced")
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    sys.exit(main())
