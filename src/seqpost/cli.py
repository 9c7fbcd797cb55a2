"""Command-line surface tying the pipeline together.

Subcommands: stats, ensemble, refine, train, eval, synth. All inter-stage
formats are line-delimited JSON. Each command returns the files it wrote, and
``main`` then writes its run manifest from the parsed options: the digests of
the input-path options and of those files, every other option as config, and
the seed, so any published number is reproducible from the files alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import sys
from collections.abc import Iterator

from . import __version__
from .cooc import CoocStats, IndicatorMode, SmoothingConfig, build_stats
from .decoder import MultiHeadDecoder, TrainConfig, load_train_dataset, train
from .ensemble import (
    EnsembleWeights,
    LogitsTensor,
    combine_logits,
    dump_logits,
    iter_logits,
    load_logits,
    softmax_rows,
)
from .metric import evaluate_corpus
# load_predictions is not called here, but perfbench/tracing.py wraps it by
# this name in this module, so it stays imported.
from .refine import (  # noqa: F401
    PredictionConfig,
    dump_predictions,
    generate_patterns,
    iter_predictions,
    load_predictions,
)
from .synth import (
    SynthConfig,
    corrupt_to_logits_sized,
    gen_markov_corpus,
    make_vocabularies,
    run_refinement_experiment,
)
# validate_sequence is not called here (build_stats validates each sequence),
# but perfbench/tracing.py wraps it by this name in this module and raises a
# KeyError if the name is gone, so it stays imported.
from .vocab import Vocabulary, dump_corpus, load_corpus, validate_sequence  # noqa: F401


class CliError(Exception):
    pass


class InPath(str):
    """Type of an option naming a file the command reads; its digest is an input."""


class OutPath(str):
    """Type of an option naming a file, or a file prefix, the command writes."""


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _path_dests(parser) -> set[str]:
    """The dest of every InPath or OutPath option of ``parser`` and its subcommands."""
    dests = {action.dest for action in parser._actions if action.type in (InPath, OutPath)}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                dests |= _path_dests(sub)
    return dests


def _write_manifest(args, path_dests, outputs, file_config, seed):
    """Manifest at --manifest, or beside the command's first output: digests of
    the given InPath options and of ``outputs``, every other option but
    --quiet as config (with a synth config file's keys), and the seed."""
    options = {k: v for k, v in vars(args).items()
               if k not in ("command", "synth_command", "func", "quiet")}
    manifest = {
        "tool": f"seqpost {__version__}",
        "command": [args.command] + ([args.synth_command] if args.command == "synth" else []),
        "seed": seed,
        "inputs": {p: _sha256_file(p) for p in options.values() if isinstance(p, InPath)},
        "config": {**{k: v for k, v in options.items() if k not in path_dests}, **file_config},
        "outputs": {p: _sha256_file(p) for p in outputs},
    }
    with open(args.manifest or outputs[0] + ".manifest.json", "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _say(args, message):
    if not args.quiet:
        print(message)


def _load_file(path: str, parse, kind: str):
    """``parse`` applied to a JSON file's text handle; a malformed file is a
    CliError."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return parse(handle)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{path}: bad {kind} file: {exc}") from exc


# ---------------------------------------------------------------------------
# stats


def cmd_stats(args) -> list[str]:
    verb_vocab, noun_vocab = (
        _load_file(path, lambda handle: Vocabulary.from_json(handle.read()), "vocabulary")
        for path in (args.verb_vocab, args.noun_vocab)
    )
    corpus = load_corpus(args.train)
    if args.val:
        corpus = corpus + load_corpus(args.val)
    cfg = SmoothingConfig(
        add_k=args.add_k,
        prob_clamp_min=args.prob_clamp_min,
        prob_clamp_max=args.prob_clamp_max,
    )
    stats = build_stats(corpus, verb_vocab, noun_vocab, cfg)
    with open(args.out, "w") as handle:
        stats.to_json(handle)
        handle.write("\n")
    n_bigrams = sum(len(seq.actions) - 1 for seq in corpus)
    _say(args, f"vocab sizes: {len(verb_vocab)} verbs, {len(noun_vocab)} nouns")
    _say(args, f"{len(corpus)} sequences, {n_bigrams} bigrams -> {args.out}")
    return [args.out]


# ---------------------------------------------------------------------------
# ensemble


def cmd_ensemble(args) -> list[str]:
    if args.sweep and not args.truth:
        raise CliError("--sweep requires --truth")
    if not args.sweep and not args.out:
        raise CliError("--out is required unless --sweep is given")
    weights = EnsembleWeights(alpha=args.alpha, beta=args.beta)

    if args.sweep:
        _sweep(args)
        return []

    combined = [combine_logits(a, b, weights) for a, b in _logits_pairs(args.logits_a, args.logits_b)]
    dump_logits(combined, args.out)
    _say(args, f"{len(combined)} examples combined (alpha={args.alpha}, beta={args.beta}) -> {args.out}")
    return [args.out]


def _logits_pairs(path_a: str, path_b: str) -> Iterator[tuple[LogitsTensor, LogitsTensor]]:
    """The records of two logits files read in lockstep, one pair at a time.
    Files of different lengths are a CliError giving both record counts, so
    the rest of the longer file is read to count it."""
    a_records, b_records = iter_logits(path_a), iter_logits(path_b)
    for n, (a, b) in enumerate(itertools.zip_longest(a_records, b_records)):
        if a is None or b is None:
            rest = 1 + sum(1 for _ in (b_records if a is None else a_records))
            n_a, n_b = (n, n + rest) if a is None else (n + rest, n)
            raise CliError(f"logits files differ in length: {n_a} vs {n_b}")
        yield a, b


def _sweep(args) -> None:
    """Grid search over (alpha, beta) scored by raw-argmax action ED; writes no
    file. Every weight pair scores the whole dev split, so it is read whole."""
    a_list = load_logits(args.logits_a)
    b_list = load_logits(args.logits_b)
    if len(a_list) != len(b_list):
        raise CliError(f"logits files differ in length: {len(a_list)} vs {len(b_list)}")
    truths = load_corpus(args.truth)
    grid = [round(0.1 * i, 1) for i in range(0, 21)]
    raw_cfgs = [PredictionConfig(num_steps=a.num_steps, num_patterns=1) for a in a_list]
    best = None
    for alpha in grid:
        for beta in grid:
            if alpha == 0.0 and beta == 0.0:
                continue
            weights = EnsembleWeights(alpha=alpha, beta=beta)
            preds = [
                generate_patterns(softmax_rows(combine_logits(a, b, weights)), None, cfg)
                for a, b, cfg in zip(a_list, b_list, raw_cfgs)
            ]
            report = evaluate_corpus(preds, truths)
            key = (report.ed_action, report.ed_verb, report.ed_noun)
            if best is None or key < best[0]:
                best = (key, alpha, beta)
    _, alpha, beta = best
    _say(args, f"best weights by action ED: alpha={alpha} beta={beta} (ed_action={best[0][0]:.4f})")
    print(json.dumps({"alpha": alpha, "beta": beta, "ed_action": best[0][0]}))


# ---------------------------------------------------------------------------
# refine


def cmd_refine(args) -> list[str]:
    """Refine each example as it is read: only the predictions are held until
    they are written, so memory does not grow with the logits files."""
    if args.k >= 2 and not args.stats:
        raise CliError("refinement (k >= 2) requires --stats")
    stats = None
    if args.stats:
        stats = _load_file(args.stats, CoocStats.from_json, "stats")
    if args.logits_b:
        weights = EnsembleWeights(alpha=args.alpha, beta=args.beta)
        tensors = (combine_logits(a, b, weights) for a, b in _logits_pairs(args.logits, args.logits_b))
    else:
        tensors = iter_logits(args.logits)

    pred_cfg = PredictionConfig(
        num_steps=args.z,
        num_patterns=args.k,
        rng_seed=args.seed,
        mode=IndicatorMode(args.mode),
    )
    pred_sets = []
    for i, tensor in enumerate(tensors):
        if tensor.num_steps != args.z:
            raise CliError(
                f"example {tensor.example_id!r} has {tensor.num_steps} steps, expected {args.z}"
            )
        classes = (tensor.verb_logits.shape[1], tensor.noun_logits.shape[1])
        if stats is not None and classes != (stats.c_verb, stats.c_noun):
            raise CliError(
                f"{args.logits}: example {tensor.example_id!r} has {classes[0]} verb and "
                f"{classes[1]} noun classes, {args.stats} has {stats.c_verb} and {stats.c_noun}"
            )
        dists = softmax_rows(tensor)
        pred_sets.append(generate_patterns(dists, stats, pred_cfg, stream=i))
    dump_predictions(pred_sets, args.out)
    _say(args, f"{len(pred_sets)} examples -> {args.out} (Z={args.z}, K={args.k}, seed={args.seed})")
    return [args.out]


# ---------------------------------------------------------------------------
# train


def _class_count(given, flag, ids) -> int:
    """An explicit class count, which must be >= 1, or one more than the
    largest id and at least 1, so that ``train`` names a negative id's episode."""
    if given is None:
        return max([0, *ids]) + 1
    if given < 1:
        raise CliError(f"{flag} must be >= 1, got {given}")
    return given


def cmd_train(args) -> list[str]:
    dataset = load_train_dataset(args.data)
    if not dataset:
        raise CliError("empty training dataset")
    feature_dim = dataset[0][0].shape[0]
    actions = [a for _, seq in dataset for a in seq.actions]
    c_verb = _class_count(args.c_verb, "--c-verb", [a.verb_id for a in actions])
    c_noun = _class_count(args.c_noun, "--c-noun", [a.noun_id for a in actions])
    if args.z < 1:
        raise CliError(f"--z must be >= 1, got {args.z}")
    dec = MultiHeadDecoder.init(feature_dim, args.z, c_verb, c_noun, seed=args.seed)
    cfg = TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        use_label_smoothing=(args.smooth == "on"),
        rng_seed=args.seed,
    )
    trained, history = train(dec, dataset, cfg)
    with open(args.out, "w") as handle:
        handle.write(trained.to_json() + "\n")
    _say(args, f"trained {len(dataset)} examples for {cfg.epochs} epochs; "
               f"loss {history[0]:.4f} -> {history[-1]:.4f} -> {args.out}")
    return [args.out]


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> list[str]:
    truths = load_corpus(args.truth)
    # each prediction is scored as it is read
    report = evaluate_corpus(iter_predictions(args.preds), truths,
                             allow_transposition=not args.no_transposition,
                             keep_per_example=args.per_example)
    with open(args.out, "w") as handle:
        handle.write(report.to_json() + "\n")
    _say(args, f"Verb {report.ed_verb:.4f}  Noun {report.ed_noun:.4f}  Action {report.ed_action:.4f}"
               f"  ({report.n_examples} examples, {report.unmatched} unmatched)")
    return [args.out]


# ---------------------------------------------------------------------------
# synth


_SYNTH_FIELDS = [f.name for f in dataclasses.fields(SynthConfig)]
_MODES = [m.value for m in IndicatorMode]
# the experiment's settings a synth config may carry besides the SynthConfig
# fields: key -> (what a value must be, its check)
_SYNTH_SETTINGS = {
    "logit_scale": ("positive and finite", lambda v: isinstance(v, (int, float))
                    and not isinstance(v, bool) and 0 < v < math.inf),
    "num_patterns": ("an integer >= 1", lambda v: isinstance(v, int)
                     and not isinstance(v, bool) and v >= 1),
    "mode": (f"one of {', '.join(_MODES)}", lambda v: v in _MODES),
}
_SYNTH_KEYS = set(_SYNTH_FIELDS) | set(_SYNTH_SETTINGS)


def _load_synth_config(path: str, seed_override) -> tuple[SynthConfig, dict]:
    def parse(handle):
        obj = json.load(handle)
        if not isinstance(obj, dict):
            raise ValueError("expected a JSON object")
        unknown = sorted(set(obj) - _SYNTH_KEYS)
        if unknown:
            raise ValueError(f"unknown key(s): {', '.join(unknown)}")
        for key, (what, ok) in _SYNTH_SETTINGS.items():
            if key in obj and not ok(obj[key]):
                raise ValueError(f"{key} must be {what}, got {obj[key]!r}")
        fields = {k: obj[k] for k in _SYNTH_FIELDS if k in obj}
        if seed_override is not None:
            fields["rng_seed"] = seed_override
        return SynthConfig(**fields), obj

    return _load_file(path, parse, "synth config")


def cmd_synth_gen(args) -> tuple[list[str], dict, int]:
    cfg, raw = _load_synth_config(args.config, args.seed)
    corpus, _ = gen_markov_corpus(cfg)
    dump_corpus(corpus, args.out_corpus)
    outputs = [args.out_corpus]
    if args.out_logits:
        tensors = (
            corrupt_to_logits_sized(
                seq, cfg.logit_noise_sigma, raw.get("logit_scale", 1.0),
                cfg.rng_seed, cfg.c_verb, cfg.c_noun, stream=cfg.num_sequences + i,
            )
            for i, seq in enumerate(corpus)
        )
        dump_logits(tensors, args.out_logits)
        outputs.append(args.out_logits)
    if args.out_vocab_prefix:
        verb_vocab, noun_vocab = make_vocabularies(cfg)
        for vocab, suffix in ((verb_vocab, "verb"), (noun_vocab, "noun")):
            path = f"{args.out_vocab_prefix}.{suffix}.json"
            with open(path, "w") as handle:
                handle.write(vocab.to_json() + "\n")
            outputs.append(path)
    _say(args, f"{len(corpus)} sequences -> {args.out_corpus}")
    return outputs, raw, cfg.rng_seed


def cmd_synth_experiment(args) -> tuple[list[str], dict, int]:
    cfg, raw = _load_synth_config(args.config, args.seed)
    pred_cfg = PredictionConfig(
        num_steps=cfg.seq_len,
        num_patterns=raw.get("num_patterns", 5),
        rng_seed=cfg.rng_seed,
        mode=IndicatorMode(raw.get("mode", "as_written")),
    )
    report = run_refinement_experiment(cfg, pred_cfg, logit_scale=raw.get("logit_scale", 1.0))
    if not args.per_example:
        report.pop("per_example")
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    raw_ed = report["raw"]["ed_action"]
    ref_ed = report["refined"]["ed_action"]
    _say(args, f"action ED raw {raw_ed:.4f} vs refined {ref_ed:.4f} "
               f"(delta {raw_ed - ref_ed:+.4f}) over {report['n_eval']} episodes")
    return [args.out], raw, cfg.rng_seed


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    """Options typed InPath or OutPath name files; every other option is config."""
    parser = argparse.ArgumentParser(prog="seqpost", description=__doc__)
    parser.add_argument("--version", action="version", version=f"seqpost {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func):
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        p.add_argument("--manifest", type=OutPath, help="run manifest path (default: beside "
                       "the first output, <output>.manifest.json)")
        p.set_defaults(func=func)

    p = sub.add_parser("stats", help="build co-occurrence statistics from a label corpus")
    p.add_argument("--train", type=InPath, required=True, help="training corpus (JSONL)")
    p.add_argument("--val", type=InPath, help="optional validation corpus, concatenated with --train")
    p.add_argument("--verb-vocab", type=InPath, required=True)
    p.add_argument("--noun-vocab", type=InPath, required=True)
    p.add_argument("--add-k", type=float, default=1.0)
    p.add_argument("--prob-clamp-min", type=float, default=1e-6)
    p.add_argument("--prob-clamp-max", type=float, default=1.0 - 1e-6)
    p.add_argument("--out", type=OutPath, required=True)
    common(p, cmd_stats)

    p = sub.add_parser("ensemble", help="weighted logit combination of two models")
    p.add_argument("--logits-a", type=InPath, required=True)
    p.add_argument("--logits-b", type=InPath, required=True)
    p.add_argument("--alpha", type=float, default=0.6)
    p.add_argument("--beta", type=float, default=1.4)
    p.add_argument("--out", type=OutPath, help="combined logits output (JSONL)")
    p.add_argument("--sweep", action="store_true",
                   help="grid-search weights over [0,2] step 0.1 against --truth")
    p.add_argument("--truth", type=InPath, help="truth corpus for --sweep scoring")
    common(p, cmd_ensemble)

    p = sub.add_parser("refine", help="optional ensemble -> softmax -> refine -> predictions")
    p.add_argument("--stats", type=InPath, help="statistics file (required when k >= 2)")
    p.add_argument("--logits", type=InPath, required=True)
    p.add_argument("--logits-b", type=InPath, help="second model's logits; enables the ensemble stage")
    p.add_argument("--alpha", type=float, default=0.6)
    p.add_argument("--beta", type=float, default=1.4)
    p.add_argument("--z", type=int, default=20, help="steps per pattern")
    p.add_argument("--k", type=int, default=5, help="patterns per example")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["as_written", "standard_npmi"], default="as_written")
    p.add_argument("--out", type=OutPath, required=True)
    common(p, cmd_refine)

    p = sub.add_parser("train", help="train the toy multi-head decoder")
    p.add_argument("--data", type=InPath, required=True, help="JSONL of {features, actions}")
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--smooth", choices=["on", "off"], default="off")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--c-verb", type=int, help="verb class count (default: inferred)")
    p.add_argument("--c-noun", type=int, help="noun class count (default: inferred)")
    p.add_argument("--out", type=OutPath, required=True, help="decoder checkpoint (JSON)")
    common(p, cmd_train)

    p = sub.add_parser("eval", help="min-over-K normalized edit-distance report")
    p.add_argument("--preds", type=InPath, required=True)
    p.add_argument("--truth", type=InPath, required=True)
    p.add_argument("--no-transposition", action="store_true",
                   help="plain Levenshtein instead of restricted Damerau-Levenshtein")
    p.add_argument("--per-example", action="store_true")
    p.add_argument("--out", type=OutPath, required=True)
    common(p, cmd_eval)

    p = sub.add_parser("synth", help="synthetic corpora and the refinement experiment")
    synth_sub = p.add_subparsers(dest="synth_command", required=True)

    g = synth_sub.add_parser("gen", help="generate a corpus (and optional logits/vocabs)")
    g.add_argument("--config", type=InPath, required=True, help="SynthConfig JSON")
    g.add_argument("--seed", type=int, help="override rng_seed from the config")
    g.add_argument("--out-corpus", type=OutPath, required=True)
    g.add_argument("--out-logits", type=OutPath)
    g.add_argument("--out-vocab-prefix", type=OutPath)
    common(g, cmd_synth_gen)

    e = synth_sub.add_parser("experiment", help="raw vs refined decoding experiment")
    e.add_argument("--config", type=InPath, required=True, help="SynthConfig JSON (+ num_patterns, mode)")
    e.add_argument("--seed", type=int, help="override rng_seed from the config")
    e.add_argument("--per-example", action="store_true")
    e.add_argument("--out", type=OutPath, required=True)
    common(e, cmd_synth_experiment)

    return parser


def main(argv=None) -> int:
    """Run one command, then write its manifest if it wrote any file. A
    command returns those files, or for synth (files, config file, seed)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
        outputs, file_config, seed = (
            result if isinstance(result, tuple) else (result, {}, getattr(args, "seed", None))
        )
        if outputs:
            _write_manifest(args, _path_dests(parser), outputs, file_config, seed)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
