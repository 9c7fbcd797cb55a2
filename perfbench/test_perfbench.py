"""Tests of the benchmark itself (not collected by the package's test run).

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import seqpost.cli  # noqa: E402
import seqpost.refine  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from reference import Reference  # noqa: E402

SMALL = {
    "desk": dict(n_train=40, n_eval=12, n_dev=2),
    "synth": dict(c_verb=6, c_noun=8, n_eval=6),
}


def _passes(spec, tmp_path):
    files = workloads.make_inputs(spec, 3, tmp_path / "inputs")
    reference = Reference(tmp_path / "reference.txt")
    plain = worker.run_pass(seqpost.cli.main, workloads.stages(spec, files, tmp_path / "a"), tmp_path / "a",
                            reference)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = worker.run_pass(seqpost.cli.main, workloads.stages(spec, files, tmp_path / "b"),
                                 tmp_path / "b", reference, tracer)
    return plain, traced, tracer


@pytest.mark.parametrize("workload, mode", [
    ("desk", "as_written"), ("desk", "standard_npmi"), ("synth", "as_written"),
])
def test_traced_pass_writes_the_same_bytes(tmp_path, workload, mode):
    spec = dataclasses.replace(workloads.WORKLOADS[workload], mode=mode, **SMALL[workload])
    original = seqpost.refine.transition_score_row
    plain, traced, tracer = _passes(spec, tmp_path)
    for run in (plain, traced):
        assert [(r["code"], r["error"]) for r in run["stages"]] == [(0, None)] * len(run["stages"])
        # one reference run before the first stage and one after each stage
        assert len(run["reference_s"]) == len(run["stages"]) + 1
        assert all(r["calibrated_s"] > 0 for r in run["stages"])
    assert [r["digests"] for r in traced["stages"]] == [r["digests"] for r in plain["stages"]]
    assert [r.get("printed") for r in traced["stages"]] == [r.get("printed") for r in plain["stages"]]
    assert seqpost.refine.transition_score_row is original
    assert all(span is not None for span in tracer.spans)

    metrics = tracing.layer_metrics(tracer)
    assert set(metrics) == {name for name, _ in tracing.PER_LAYER}
    if workload == "desk":
        # the sweep scores 440 weight pairs over the dev split: 3 DPs per example each
        assert metrics["metric.dp_calls"] == 440 * spec.n_dev * 3 + spec.n_eval * workloads.K * 3
        assert metrics["refine.steps"] == spec.n_eval * (workloads.K - 1) * (workloads.Z - 1) * 2
        assert metrics["cooc.score_row_calls"] == metrics["refine.steps"]
        assert metrics["rng.choice_calls"] == spec.n_eval * (workloads.K - 2) * workloads.Z * 2
        assert metrics["rng.gauss_draws"] == 0
    else:
        assert metrics["rng.gauss_draws"] == spec.n_eval * workloads.Z * (spec.c_verb + spec.c_noun)
        assert metrics["refine.steps"] == 0 and metrics["metric.dp_calls"] == 0


def test_checks_catch_a_dropped_example(tmp_path):
    spec = dataclasses.replace(workloads.WORKLOADS["desk"], **SMALL["desk"])
    plain, _, _ = _passes(spec, tmp_path)
    files = workloads.input_files(spec, tmp_path / "inputs")
    stages = {stage.name: stage for stage in workloads.stages(spec, files, tmp_path / "a")}
    for name in ("stats", "refine", "eval"):
        assert workloads.check_stage(spec, stages[name], None) == []

    preds = Path(stages["refine"].outputs[0])
    lines = preds.read_text().splitlines(keepends=True)
    preds.write_text("".join(lines[:-1]))
    assert workloads.check_stage(spec, stages["refine"], None)

    report = Path(stages["eval"].outputs[0])
    obj = json.loads(report.read_text())
    report.write_text(json.dumps(dict(obj, n_examples=spec.n_eval - 1, unmatched=1)))
    assert len(workloads.check_stage(spec, stages["eval"], None)) == 2


def test_judge_fails_every_pass_on_a_golden_mismatch(tmp_path):
    spec = dataclasses.replace(workloads.WORKLOADS["desk"], **SMALL["desk"])
    plain, traced, _ = _passes(spec, tmp_path)
    stage_list = workloads.stages(spec, workloads.input_files(spec, tmp_path / "inputs"), tmp_path / "a")
    golden = {rec["name"]: dict(rec["digests"]) for rec in plain["stages"]}
    assert run.judge(spec, [plain, traced], stage_list, golden) == []
    assert not any(rec["failed"] for p in (plain, traced) for rec in p["stages"])

    golden["refine"]["preds.jsonl"] = "0" * 64
    problems = run.judge(spec, [plain, traced], stage_list, golden)
    assert problems == ["refine: preds.jsonl digest differs from golden.json"]
    assert [rec["failed"] for rec in plain["stages"]] == [False, False, True, False]
    assert [rec["failed"] for rec in traced["stages"]] == [False, False, True, False]


def test_judge_fails_a_crash_outside_the_reference_pass(tmp_path):
    spec = dataclasses.replace(workloads.WORKLOADS["desk"], **SMALL["desk"])
    plain, _, _ = _passes(spec, tmp_path)
    files = workloads.input_files(spec, tmp_path / "inputs")

    def crashing_main(argv):
        if argv[0] == "refine":
            raise RuntimeError("wrapper broke")
        return seqpost.cli.main(argv)

    crashed = worker.run_pass(crashing_main, workloads.stages(spec, files, tmp_path / "c"), tmp_path / "c",
                              Reference(tmp_path / "reference.txt"))
    crashed["traced"] = True
    stage_list = workloads.stages(spec, files, tmp_path / "a")
    problems = run.judge(spec, [crashed, plain], stage_list, None)
    assert problems[0] == "refine: pass 0 (traced): RuntimeError: wrapper broke"
    assert all(problem.startswith("refine: pass 0") or problem.startswith("eval: pass 0") for problem in problems)
    assert [rec["failed"] for rec in crashed["stages"]] == [False, False, True, True]
    assert not any(rec["failed"] for rec in plain["stages"])


def test_same_seed_same_inputs(tmp_path):
    spec = dataclasses.replace(workloads.WORKLOADS["desk"], **SMALL["desk"])
    first = workloads.make_inputs(spec, 9, tmp_path / "one")
    second = workloads.make_inputs(spec, 9, tmp_path / "two")
    other = workloads.make_inputs(spec, 10, tmp_path / "three")
    assert all(first[key].read_bytes() == second[key].read_bytes() for key in first)
    assert first["logits_a"].read_bytes() != other["logits_a"].read_bytes()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_names_the_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == tracing.PER_LAYER + [("trace.overhead", "ratio")]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)
