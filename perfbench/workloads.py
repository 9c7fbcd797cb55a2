"""Workload definitions: seeded input generation, the timed CLI stages and
the structural output checks.

Inputs for ``lta`` and ``desk`` come from this module's own numpy generator,
not from ``seqpost.synth``: set-up time must not depend on the speed of the
code under test, and the generator plants exactly the structure refinement
needs (one designated successor per class and a designated verb per noun),
so the refine stage reweights rather than falls back.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The grid ``ensemble --sweep`` searches: 0.0 .. 2.0 in steps of 0.1.
SWEEP_GRID = [round(0.1 * i, 1) for i in range(21)]


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload. ``kind`` selects the stage list."""

    kind: str  # "refine" (stats -> refine -> eval, with an optional sweep) or "synth"
    c_verb: int
    c_noun: int
    mode: str = "as_written"
    n_train: int = 0  # episodes in the stats corpus
    n_eval: int = 0  # examples refined and evaluated (synth: sequences generated)
    n_dev: int = 0  # examples in the sweep's dev split; 0 skips the sweep
    logit_scale: float = 2.0  # one-hot height of the truth in each model's logits


# Sizes are set so that one run of each workload, set-up included, fits the
# benchmark's time budget on a 2-core machine while keeping the property the
# workload stresses: vocabulary-wide rows for lta, per-example Python overhead
# and 20x20 edit-distance DPs for desk, the Gaussian RNG and the JSONL write
# side for synth.
WORKLOADS = {
    "lta": Spec("refine", c_verb=115, c_noun=478, n_train=400, n_eval=60),
    "desk": Spec("refine", c_verb=6, c_noun=8, n_train=200, n_eval=200, n_dev=4,
                 logit_scale=1.0),
    "synth": Spec("synth", c_verb=115, c_noun=478, n_eval=40),
}

Z = 20  # actions per sequence and per predicted pattern
K = 5  # patterns per example

# Planted structure of the generated lta and desk inputs.
FOLLOW = 0.6  # chance that a step takes its class's designated successor
COUPLING = 0.5  # chance that the verb is the noun's designated verb
SIGMA = 1.0  # Gaussian noise on every logit, independent per model (synth gen too)

# Planted structure of the synth gen config (see seqpost.synth.SynthConfig).
SYNTH_SHARPNESS = 200.0
SYNTH_COUPLING = 0.8


def input_files(spec: Spec, inputs: Path) -> dict[str, Path]:
    """Paths of the files set-up writes for ``spec``."""
    if spec.kind == "synth":
        return {"config": inputs / "synth.json"}
    files = {
        "verb_vocab": inputs / "vocab.verb.json",
        "noun_vocab": inputs / "vocab.noun.json",
        "train": inputs / "train.jsonl",
        "truth": inputs / "truth.jsonl",
        "logits_a": inputs / "logits_a.jsonl",
        "logits_b": inputs / "logits_b.jsonl",
    }
    if spec.n_dev:
        files.update(
            dev_truth=inputs / "dev_truth.jsonl",
            dev_logits_a=inputs / "dev_logits_a.jsonl",
            dev_logits_b=inputs / "dev_logits_b.jsonl",
        )
    return files


def make_inputs(spec: Spec, seed: int, inputs: Path) -> dict[str, Path]:
    """Write every input file of the workload; the same seed gives the same bytes."""
    inputs.mkdir(parents=True, exist_ok=True)
    files = input_files(spec, inputs)
    if spec.kind == "synth":
        config = {
            "c_verb": spec.c_verb,
            "c_noun": spec.c_noun,
            "num_sequences": spec.n_eval,
            "seq_len": Z,
            "transition_sharpness": SYNTH_SHARPNESS,
            "verb_noun_coupling": SYNTH_COUPLING,
            "logit_noise_sigma": SIGMA,
            "rng_seed": seed,
        }
        files["config"].write_text(json.dumps(config) + "\n")
        return files

    rng = np.random.default_rng([seed, spec.c_verb, spec.c_noun])
    verb_succ = rng.permutation(spec.c_verb)
    noun_succ = rng.permutation(spec.c_noun)
    noun_verb = rng.integers(spec.c_verb, size=spec.c_noun)

    def sequences(n):
        verbs = np.empty((n, Z), dtype=np.int64)
        nouns = np.empty((n, Z), dtype=np.int64)
        verbs[:, 0] = rng.integers(spec.c_verb, size=n)
        nouns[:, 0] = rng.integers(spec.c_noun, size=n)
        for z in range(1, Z):
            follow = rng.random(n) < FOLLOW
            nouns[:, z] = np.where(follow, noun_succ[nouns[:, z - 1]],
                                   rng.integers(spec.c_noun, size=n))
            follow = rng.random(n) < FOLLOW
            verbs[:, z] = np.where(follow, verb_succ[verbs[:, z - 1]],
                                   rng.integers(spec.c_verb, size=n))
        coupled = rng.random((n, Z)) < COUPLING
        verbs = np.where(coupled, noun_verb[nouns], verbs)
        return verbs, nouns

    for kind, count in (("verb", spec.c_verb), ("noun", spec.c_noun)):
        names = [f"{kind}{i}" for i in range(count)]
        files[f"{kind}_vocab"].write_text(json.dumps({"kind": kind, "names": names}) + "\n")

    _write_corpus(files["train"], "train", *sequences(spec.n_train))
    splits = [("truth", "logits", "ex", spec.n_eval)]
    if spec.n_dev:
        splits.append(("dev_truth", "dev_logits", "dev", spec.n_dev))
    for truth_key, logits_key, prefix, n in splits:
        verbs, nouns = sequences(n)
        _write_corpus(files[truth_key], prefix, verbs, nouns)
        for model in ("a", "b"):
            _write_logits(files[f"{logits_key}_{model}"], prefix, verbs, nouns, spec, rng)
    return files


def _write_corpus(path: Path, prefix: str, verbs: np.ndarray, nouns: np.ndarray) -> None:
    with open(path, "w") as handle:
        for i, (vs, ns) in enumerate(zip(verbs.tolist(), nouns.tolist())):
            record = {"episode_id": f"{prefix}{i:05d}", "actions": [list(a) for a in zip(vs, ns)]}
            handle.write(json.dumps(record) + "\n")


def _write_logits(path, prefix, verbs, nouns, spec: Spec, rng) -> None:
    """One model's logits: a scaled one-hot of the truth plus Gaussian noise."""
    steps = np.arange(Z)
    with open(path, "w") as handle:
        for i in range(verbs.shape[0]):
            verb_logits = rng.normal(0.0, SIGMA, size=(Z, spec.c_verb))
            noun_logits = rng.normal(0.0, SIGMA, size=(Z, spec.c_noun))
            verb_logits[steps, verbs[i]] += spec.logit_scale
            noun_logits[steps, nouns[i]] += spec.logit_scale
            record = {
                "example_id": f"{prefix}{i:05d}",
                "verb_logits": verb_logits.tolist(),
                "noun_logits": noun_logits.tolist(),
            }
            handle.write(json.dumps(record) + "\n")


@dataclass(frozen=True)
class Stage:
    """One ``seqpost`` CLI call. ``argv`` may name values an earlier stage
    printed as JSON, as ``{key}`` placeholders; ``outputs`` are digested."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    prints_json: bool = False


def stages(spec: Spec, files: dict[str, Path], out: Path) -> list[Stage]:
    """The timed stages of the workload, in the order they run."""
    if spec.kind == "synth":
        return [
            Stage("gen", ("synth", "gen", "--quiet", "--config", str(files["config"]),
                          "--out-corpus", str(out / "corpus.jsonl"),
                          "--out-logits", str(out / "logits.jsonl"),
                          "--out-vocab-prefix", str(out / "vocab")),
                  (str(out / "corpus.jsonl"), str(out / "logits.jsonl"),
                   str(out / "vocab.verb.json"), str(out / "vocab.noun.json"))),
            Stage("stats", ("stats", "--quiet", "--train", str(out / "corpus.jsonl"),
                            "--verb-vocab", str(out / "vocab.verb.json"),
                            "--noun-vocab", str(out / "vocab.noun.json"),
                            "--out", str(out / "stats.json")),
                  (str(out / "stats.json"),)),
        ]
    result = []
    alpha, beta = "0.6", "1.4"
    if spec.n_dev:
        result.append(Stage("sweep", ("ensemble", "--quiet", "--sweep",
                                      "--logits-a", str(files["dev_logits_a"]),
                                      "--logits-b", str(files["dev_logits_b"]),
                                      "--truth", str(files["dev_truth"])),
                            (), prints_json=True))
        alpha, beta = "{alpha}", "{beta}"
    result += [
        Stage("stats", ("stats", "--quiet", "--train", str(files["train"]),
                        "--verb-vocab", str(files["verb_vocab"]),
                        "--noun-vocab", str(files["noun_vocab"]),
                        "--out", str(out / "stats.json")),
              (str(out / "stats.json"),)),
        Stage("refine", ("refine", "--quiet", "--stats", str(out / "stats.json"),
                         "--logits", str(files["logits_a"]), "--logits-b", str(files["logits_b"]),
                         "--alpha", alpha, "--beta", beta,
                         "--z", str(Z), "--k", str(K), "--seed", "0",
                         "--mode", spec.mode, "--out", str(out / "preds.jsonl")),
              (str(out / "preds.jsonl"),)),
        Stage("eval", ("eval", "--quiet", "--preds", str(out / "preds.jsonl"),
                       "--truth", str(files["truth"]), "--out", str(out / "report.json")),
              (str(out / "report.json"),)),
    ]
    return result


# ---------------------------------------------------------------------------
# structural checks: each returns a list of problems, empty when the output
# is well formed. They read the files with json and numpy only.


def check_stage(spec: Spec, stage: Stage, printed: dict | None) -> list[str]:
    """Check the outputs one stage left behind."""
    try:
        if stage.name == "sweep":
            return _check_sweep(printed)
        if stage.name == "stats":
            return _check_stats(spec, stage.outputs[0])
        if stage.name == "refine":
            return _check_predictions(spec, stage.outputs[0])
        if stage.name == "eval":
            return _check_report(spec, stage.outputs[0])
        if stage.name == "gen":
            return _check_gen(spec, *stage.outputs)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{stage.name}: unreadable output: {exc!r}"]
    raise ValueError(f"no check for stage {stage.name!r}")


def _check_sweep(printed) -> list[str]:
    if not printed:
        return ["sweep: printed no JSON result"]
    problems = []
    if printed.get("alpha") not in SWEEP_GRID or printed.get("beta") not in SWEEP_GRID:
        problems.append(f"sweep: weights off the grid: {printed}")
    if printed.get("alpha") == 0.0 and printed.get("beta") == 0.0:
        problems.append("sweep: chose alpha = beta = 0")
    if not 0.0 <= printed.get("ed_action", -1.0) <= 1.0:
        problems.append(f"sweep: ed_action out of [0, 1]: {printed}")
    return problems


def _check_stats(spec: Spec, path: str) -> list[str]:
    obj = json.loads(Path(path).read_text())
    cv, cn = spec.c_verb, spec.c_noun
    shapes = {
        "verb_marginal": (cv,), "noun_marginal": (cn,),
        "verb_transition": (cv, cv), "noun_transition": (cn, cn),
        "verb_given_noun": (cn, cv),
    }
    problems = []
    if (obj.get("c_verb"), obj.get("c_noun")) != (cv, cn):
        problems.append(f"stats: class counts {obj.get('c_verb')}x{obj.get('c_noun')}, expected {cv}x{cn}")
    for key, shape in shapes.items():
        table = np.array(obj[key], dtype=np.float64)
        if table.shape != shape:
            problems.append(f"stats: {key} has shape {table.shape}, expected {shape}")
        elif not (np.isfinite(table).all() and (table > 0).all()):
            problems.append(f"stats: {key} has a non-finite or non-positive entry")
        elif not np.allclose(table.sum(axis=-1), 1.0, atol=1e-9):
            problems.append(f"stats: {key} does not sum to 1")
    return problems


def _read_jsonl(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _ids_ok(actions, spec: Spec) -> bool:
    return all(
        isinstance(v, int) and isinstance(n, int) and 0 <= v < spec.c_verb and 0 <= n < spec.c_noun
        for v, n in actions
    )


def _check_predictions(spec: Spec, path: str) -> list[str]:
    records = _read_jsonl(path)
    expected_ids = [f"ex{i:05d}" for i in range(spec.n_eval)]
    tiers = ["raw_argmax"] + ["refined_argmax"] * (K >= 2) + ["refined_sampled"] * (K - 2)
    problems = []
    if [r.get("example_id") for r in records] != expected_ids:
        problems.append(f"refine: {len(records)} records, expected ids ex00000..ex{spec.n_eval - 1:05d} in order")
    for r in records:
        patterns = r.get("patterns", [])
        if r.get("tiers") != tiers or len(patterns) != K:
            problems.append(f"refine: {r.get('example_id')}: expected {K} patterns with tiers {tiers}")
        elif any(len(p) != Z or not _ids_ok(p, spec) for p in patterns):
            problems.append(f"refine: {r.get('example_id')}: a pattern is not {Z} in-range actions")
    return problems[:5]


def _check_report(spec: Spec, path: str) -> list[str]:
    report = json.loads(Path(path).read_text())
    problems = []
    if report.get("n_examples") != spec.n_eval:
        problems.append(f"eval: n_examples {report.get('n_examples')}, expected {spec.n_eval}")
    if report.get("unmatched") != 0:
        problems.append(f"eval: unmatched {report.get('unmatched')}, expected 0")
    for key in ("ed_verb", "ed_noun", "ed_action"):
        value = report.get(key)
        if not (isinstance(value, float) and math.isfinite(value) and 0.0 <= value <= 1.0):
            problems.append(f"eval: {key} = {value!r} is not in [0, 1]")
    return problems


def _check_gen(spec: Spec, corpus_path, logits_path, verb_vocab_path, noun_vocab_path) -> list[str]:
    problems = []
    expected_ids = [f"ep{i:05d}" for i in range(spec.n_eval)]
    corpus = _read_jsonl(corpus_path)
    if [r.get("episode_id") for r in corpus] != expected_ids:
        problems.append(f"gen: corpus has {len(corpus)} records, expected ids ep00000..ep{spec.n_eval - 1:05d}")
    if any(len(r["actions"]) != Z or not _ids_ok(r["actions"], spec) for r in corpus):
        problems.append(f"gen: a corpus record is not {Z} in-range actions")
    with open(logits_path) as handle:
        count = 0
        for line in handle:
            record = json.loads(line)
            verb, noun = np.array(record["verb_logits"]), np.array(record["noun_logits"])
            shapes = (verb.shape, noun.shape)
            if record["example_id"] != (expected_ids[count] if count < len(expected_ids) else None):
                problems.append(f"gen: logits record {count} has id {record['example_id']!r}")
                break
            if shapes != ((Z, spec.c_verb), (Z, spec.c_noun)):
                problems.append(f"gen: logits record {count} has shapes {shapes}")
                break
            if not (np.isfinite(verb).all() and np.isfinite(noun).all()):
                problems.append(f"gen: logits record {count} has a non-finite entry")
                break
            count += 1
    if count != spec.n_eval and not problems:
        problems.append(f"gen: {count} logits records, expected {spec.n_eval}")
    for path, kind, size in ((verb_vocab_path, "verb", spec.c_verb), (noun_vocab_path, "noun", spec.c_noun)):
        vocab = json.loads(Path(path).read_text())
        if vocab.get("kind") != kind or len(vocab.get("names", ())) != size:
            problems.append(f"gen: {kind} vocabulary does not have {size} names")
    return problems
