"""Command-line surface tying the pipeline together.

Subcommands: stats, ensemble, refine, train, eval, synth. All inter-stage
formats are line-delimited JSON. Each command returns the files it wrote, and
``main`` then writes its run manifest from the parsed options: the digests of
the input-path options and of those files, every other option as config, and
the seed, so any published number is reproducible from the files alone.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import hashlib
import itertools
import json
import os
import sys
from collections.abc import Iterator

import numpy as np

from . import __version__
from .cooc import CoocStats, IndicatorMode, SmoothingConfig, build_stats
from .decoder import MultiHeadDecoder, TrainConfig, load_train_dataset, train
from .ensemble import (
    EnsembleWeights,
    LogitsTensor,
    check_pair,
    combine_logits,
    dump_logits,
    iter_logits,
    load_logits,
    softmax,
    softmax_rows,
    weighted_sum,
)
from .metric import evaluate_corpus, index_truths, match_truths, min_normalized_ed, project_axis
# load_predictions is not called here, but perfbench/tracing.py wraps it by
# this name in this module, so it stays imported.
from .refine import (  # noqa: F401
    TIER_RAW_ARGMAX,
    PredictionConfig,
    PredictionSet,
    dump_predictions,
    generate_patterns,
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
from .vocab import (  # noqa: F401
    Vocabulary, dump_corpus, dump_records, iter_numbered_records, load_corpus, validate_sequence,
)


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
    _dump_pretty_json(manifest, args.manifest or outputs[0] + ".manifest.json")


def _dump_pretty_json(obj, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(obj, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _say(args, message):
    if not args.quiet:
        print(message)


def _load_file(path: str, parse, kind: str):
    """``parse`` applied to a JSON file's text handle; a malformed file is a
    ValueError naming it."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return parse(handle)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad {kind} file: {exc}") from exc


# ---------------------------------------------------------------------------
# stats


def cmd_stats(args) -> list[str]:
    verb_vocab, noun_vocab = (
        _load_file(path, lambda handle: Vocabulary.from_json(handle.read(), kind), "vocabulary")
        for path, kind in ((args.verb_vocab, "verb"), (args.noun_vocab, "noun"))
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
        raise ValueError("--sweep requires --truth")
    if not args.sweep and not args.out:
        raise ValueError("--out is required unless --sweep is given")
    weights = EnsembleWeights(alpha=args.alpha, beta=args.beta)

    if args.sweep:
        _sweep(args)
        return []

    combined = list(_combined_logits(args.logits_a, args.logits_b, weights))
    dump_logits(combined, args.out)
    _say(args, f"{len(combined)} examples combined (alpha={args.alpha}, beta={args.beta}) -> {args.out}")
    return [args.out]


def _combined_logits(path_a: str, path_b: str, weights: EnsembleWeights) -> Iterator[LogitsTensor]:
    """The combined logits of two logits files read in lockstep, one example
    at a time; nothing of an example is held here once the caller asks for
    the next. Files of different lengths are a ValueError giving both record
    counts, so the rest of the longer file is read to count it."""
    a_records, b_records = iter_logits(path_a), iter_logits(path_b)
    n = 0
    while True:
        a, b = next(a_records, None), next(b_records, None)
        if a is None or b is None:
            break
        combined = combine_logits(a, b, weights)
        del a, b
        n += 1
        yield combined
        del combined
    if a is not None or b is not None:
        rest = 1 + sum(1 for _ in (b_records if a is None else a_records))
        n_a, n_b = (n, n + rest) if a is None else (n + rest, n)
        raise ValueError(f"logits files differ in length: {n_a} vs {n_b}")


_SWEEP_BLOCK_FLOATS = 1 << 13  # per block of the sweep's (pairs, rows, C) stacks, but >= one pair


def _sweep(args) -> None:
    """Grid search over (alpha, beta) scored by raw-argmax action ED; writes no
    file. Every weight pair scores the whole dev split, so it is read whole,
    each example pair is checked once, each axis's rows are stacked, and the
    split is checked against the truths as for eval and each truth tokenised.
    A block of pairs is then one weighted sum, one softmax and one argmax per
    axis over a (pairs, rows, C) stack, each pair's argmax ids split into one
    raw pattern per example and scored as ``evaluate_corpus`` scores them."""
    a_list = load_logits(args.logits_a)
    b_list = load_logits(args.logits_b)
    if len(a_list) != len(b_list):
        raise ValueError(f"logits files differ in length: {len(a_list)} vs {len(b_list)}")
    truths = load_corpus(args.truth)
    try:
        truth_by_id = index_truths(truths)  # checked first, so that a fault names the file
    except ValueError as exc:
        raise ValueError(f"{args.truth}: {exc}") from exc
    ids, ends, (a_verb, a_noun), (b_verb, b_noun) = _stack_pairs(args.logits_a, a_list, b_list)
    del a_list, b_list  # only the stacks are used from here on
    starts = [0, *ends[:-1]]
    # eval's checks of the dev split against the truths, which read only ids and pattern lengths
    shapes = (PredictionSet(example_id, ((None,) * (end - start),), (TIER_RAW_ARGMAX,))
              for example_id, start, end in zip(ids, starts, ends))
    try:
        matched = [truth for _, truth in match_truths(shapes, truth_by_id)]
    except ValueError as exc:
        raise ValueError(f"{args.logits_a}: {exc}") from exc
    dev = [(start, end, [project_axis(truth.actions, axis) for axis in ("action", "verb", "noun")])
           for start, end, truth in zip(starts, ends, matched) if truth is not None]
    pairs = [(round(0.1 * i, 1), round(0.1 * j, 1)) for i in range(21) for j in range(21) if i or j]
    alphas, betas = np.array(pairs).T[:, :, None, None]
    size = max(1, _SWEEP_BLOCK_FLOATS // (a_verb.size + a_noun.size))
    best = None
    for lo in range(0, len(pairs), size):
        block = slice(lo, lo + size)
        verb = weighted_sum(a_verb, b_verb, alphas[block], betas[block])
        noun = weighted_sum(a_noun, b_noun, alphas[block], betas[block])
        finite = np.isfinite(verb).all(axis=2) & np.isfinite(noun).all(axis=2)
        if not finite.all():  # the first pair in grid order, at its first row
            pair, row = divmod(int(finite.argmin()), finite.shape[1])
            alpha, beta = pairs[lo + pair]
            raise ValueError(f"example {ids[bisect.bisect_right(ends, row)]!r}: weighted logits "
                             f"must be finite (alpha={alpha}, beta={beta})")
        for (alpha, beta), verbs, nouns in zip(pairs[block], softmax(verb).argmax(axis=-1).tolist(),
                                               softmax(noun).argmax(axis=-1).tolist()):
            patterns = (list(zip(verbs, nouns)), verbs, nouns)
            sums = [0.0, 0.0, 0.0]
            for start, end, truth_tokens in dev:
                for axis, (tokens, truth_axis) in enumerate(zip(patterns, truth_tokens)):
                    sums[axis] += min_normalized_ed((tokens[start:end],), truth_axis)
            key = tuple(total / len(dev) for total in sums)  # action, verb and noun ED
            if best is None or key < best[0]:
                best = (key, alpha, beta)
    _, alpha, beta = best
    _say(args, f"best weights by action ED: alpha={alpha} beta={beta} (ed_action={best[0][0]:.4f})")
    print(json.dumps({"alpha": alpha, "beta": beta, "ed_action": best[0][0]}))


def _stack_pairs(path_a: str, a_list: list[LogitsTensor], b_list: list[LogitsTensor]):
    """(example ids, each example's end row, a's (verb, noun) rows, b's (verb,
    noun) rows), the rows stacked in file order. Each pair must pass
    ``check_pair``, and each example must have the first one's class counts."""
    if not a_list:
        raise ValueError(f"{path_a}: the dev split has no examples")
    first = a_list[0]
    first_classes = (first.verb_logits.shape[1], first.noun_logits.shape[1])
    for a, b in zip(a_list, b_list):
        check_pair(a, b)
        classes = (a.verb_logits.shape[1], a.noun_logits.shape[1])
        if classes != first_classes:
            raise ValueError(
                f"{path_a}: example {a.example_id!r} has {classes[0]} verb and {classes[1]} noun "
                f"classes, the first example {first.example_id!r} has {first_classes[0]} and "
                f"{first_classes[1]}"
            )
    ends = list(itertools.accumulate(a.num_steps for a in a_list))
    stacks = [(np.concatenate([t.verb_logits for t in tensors]),
               np.concatenate([t.noun_logits for t in tensors])) for tensors in (a_list, b_list)]
    return [a.example_id for a in a_list], ends, *stacks


# ---------------------------------------------------------------------------
# refine


def cmd_refine(args) -> list[str]:
    """Refine each example as it is read. Memory holds one block of lines or
    records per logits file (see ``iter_numbered_records``) and the combined
    logits, the stats and their score tables, and the predictions, held until
    they are written; so it grows with the examples only by their predictions."""
    if args.k >= 2 and not args.stats:
        raise ValueError("refinement (k >= 2) requires --stats")
    stats = _load_file(args.stats, CoocStats.from_json, "stats") if args.stats else None
    if args.logits_b:
        tensors = _combined_logits(args.logits, args.logits_b, EnsembleWeights(alpha=args.alpha, beta=args.beta))
    else:
        tensors = iter_logits(args.logits)

    pred_cfg = PredictionConfig(
        num_patterns=args.k,
        rng_seed=args.seed,
        mode=IndicatorMode(args.mode),
    )
    pred_sets = []
    stream = 0  # counted here, as enumerate's reused tuple would hold the last example
    for tensor in tensors:
        if tensor.num_steps != args.z:
            raise ValueError(
                f"{args.logits}: example {tensor.example_id!r} has {tensor.num_steps} steps, "
                f"expected {args.z}"
            )
        try:
            pred_sets.append(generate_patterns(softmax_rows(tensor), stats, pred_cfg, stream=stream))
        except ValueError as exc:  # only a class count that differs from the stats'
            raise ValueError(f"{args.logits}: {exc} ({args.stats})") from exc
        stream += 1
        del tensor  # freed before the next example is read
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
        raise ValueError(f"{flag} must be >= 1, got {given}")
    return given


def cmd_train(args) -> list[str]:
    dataset = load_train_dataset(args.data)
    if not dataset:
        raise ValueError("empty training dataset")
    feature_dim, num_steps = dataset[0][0].shape[0], len(dataset[0][1].actions)
    verb_ids, noun_ids = zip(*(a for _, seq in dataset for a in seq.actions))
    c_verb = _class_count(args.c_verb, "--c-verb", verb_ids)
    c_noun = _class_count(args.c_noun, "--c-noun", noun_ids)
    dec = MultiHeadDecoder.init(feature_dim, num_steps, c_verb, c_noun, seed=args.seed)
    cfg = TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        use_label_smoothing=(args.smooth == "on"),
        rng_seed=args.seed,
    )
    trained, history = train(dec, dataset, cfg)
    dump_records([trained], args.out)
    _say(args, f"trained {len(dataset)} examples for {cfg.epochs} epochs; "
               f"loss {history[0]:.4f} -> {history[-1]:.4f} -> {args.out}")
    return [args.out]


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> list[str]:
    """Score each prediction as it is read. A fault found in the truths, which
    are checked first, names the truth file; one found in scoring a prediction
    names its line; a bad record names its own line; one found after the last
    record (no matched example, or a truth with no prediction) names the
    predictions file."""
    truths = load_corpus(args.truth)
    where = args.truth

    def predictions():
        nonlocal where
        where = None
        for lineno, preds in iter_numbered_records(args.preds, PredictionSet.from_obj, "prediction"):
            where = f"{args.preds}:{lineno}"
            yield preds
            where = None
        where = args.preds

    try:
        report = evaluate_corpus(predictions(), truths, allow_transposition=not args.no_transposition,
                                 keep_per_example=args.per_example)
    except ValueError as exc:
        if where is None:
            raise
        raise ValueError(f"{where}: {exc}") from exc
    dump_records([report], args.out)
    _say(args, f"Verb {report.ed_verb:.4f}  Noun {report.ed_noun:.4f}  Action {report.ed_action:.4f}"
               f"  ({report.n_examples} examples, {report.unmatched} unmatched)")
    return [args.out]


# ---------------------------------------------------------------------------
# synth


_SYNTH_FIELDS = {f.name for f in dataclasses.fields(SynthConfig)}


def _load_synth_config(path: str, seed_override) -> tuple[SynthConfig, dict]:
    def parse(handle):
        obj = json.load(handle)
        if not isinstance(obj, dict):
            raise ValueError("expected a JSON object")
        unknown = sorted(set(obj) - _SYNTH_FIELDS)
        if unknown:
            raise ValueError(f"unknown key(s): {', '.join(unknown)}")
        if seed_override is not None:
            return SynthConfig(**{**obj, "rng_seed": seed_override}), obj
        return SynthConfig(**obj), obj

    return _load_file(path, parse, "synth config")


def cmd_synth_gen(args) -> tuple[list[str], dict, int]:
    cfg, raw = _load_synth_config(args.config, args.seed)
    corpus = gen_markov_corpus(cfg)
    dump_corpus(corpus, args.out_corpus)
    outputs = [args.out_corpus]
    if args.out_logits:
        tensors = (
            corrupt_to_logits_sized(seq, cfg, stream=cfg.num_sequences + i)
            for i, seq in enumerate(corpus)
        )
        dump_logits(tensors, args.out_logits)
        outputs.append(args.out_logits)
    if args.out_vocab_prefix:
        verb_vocab, noun_vocab = make_vocabularies(cfg)
        for vocab, suffix in ((verb_vocab, "verb"), (noun_vocab, "noun")):
            outputs.append(f"{args.out_vocab_prefix}.{suffix}.json")
            dump_records([vocab], outputs[-1])
    _say(args, f"{len(corpus)} sequences -> {args.out_corpus}")
    return outputs, raw, cfg.rng_seed


def cmd_synth_experiment(args) -> tuple[list[str], dict, int]:
    cfg, raw = _load_synth_config(args.config, args.seed)
    try:
        report = run_refinement_experiment(cfg)
    except ValueError as exc:
        raise ValueError(f"{args.config}: bad synth config file: {exc}") from exc
    if not args.per_example:
        report.pop("per_example")
    _dump_pretty_json(report, args.out)
    raw_ed = report["raw"]["ed_action"]
    ref_ed = report["refined"]["ed_action"]
    _say(args, f"action ED raw {raw_ed:.4f} vs refined {ref_ed:.4f} "
               f"(delta {raw_ed - ref_ed:+.4f}) over {report['n_eval']} episodes")
    return [args.out], raw, cfg.rng_seed


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    """Options typed InPath or OutPath name files; every other option is config.
    A setting held by a library config type defaults to that type's default."""
    smoothing, weights, train_cfg = SmoothingConfig(), EnsembleWeights(), TrainConfig()
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
    p.add_argument("--add-k", type=float, default=smoothing.add_k)
    p.add_argument("--prob-clamp-min", type=float, default=smoothing.prob_clamp_min)
    p.add_argument("--prob-clamp-max", type=float, default=smoothing.prob_clamp_max)
    p.add_argument("--out", type=OutPath, required=True)
    common(p, cmd_stats)

    p = sub.add_parser("ensemble", help="weighted logit combination of two models")
    p.add_argument("--logits-a", type=InPath, required=True)
    p.add_argument("--logits-b", type=InPath, required=True)
    p.add_argument("--alpha", type=float, default=weights.alpha)
    p.add_argument("--beta", type=float, default=weights.beta)
    p.add_argument("--out", type=OutPath, help="combined logits output (JSONL)")
    p.add_argument("--sweep", action="store_true",
                   help="grid-search weights over [0,2] step 0.1 against --truth")
    p.add_argument("--truth", type=InPath, help="truth corpus for --sweep scoring")
    common(p, cmd_ensemble)

    p = sub.add_parser("refine", help="optional ensemble -> softmax -> refine -> predictions")
    p.add_argument("--stats", type=InPath, help="statistics file (required when k >= 2)")
    p.add_argument("--logits", type=InPath, required=True)
    p.add_argument("--logits-b", type=InPath, help="second model's logits; enables the ensemble stage")
    p.add_argument("--alpha", type=float, default=weights.alpha)
    p.add_argument("--beta", type=float, default=weights.beta)
    p.add_argument("--z", type=int, default=20, help="steps per pattern")
    p.add_argument("--k", type=int, default=5, help="patterns per example")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=[m.value for m in IndicatorMode], default=IndicatorMode.AS_WRITTEN.value)
    p.add_argument("--out", type=OutPath, required=True)
    common(p, cmd_refine)

    p = sub.add_parser("train", help="train the toy multi-head decoder")
    p.add_argument("--data", type=InPath, required=True,
                   help="JSONL of {features, actions}; Z is the first record's action count")
    p.add_argument("--smooth", choices=["on", "off"], default="off")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=train_cfg.learning_rate)
    p.add_argument("--epochs", type=int, default=train_cfg.epochs)
    p.add_argument("--batch-size", type=int, default=train_cfg.batch_size)
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
    e.add_argument("--config", type=InPath, required=True, help="SynthConfig JSON")
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
        # a missing directory fails before the command writes anything
        for path in (value for value in vars(args).values() if isinstance(value, OutPath)):
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise ValueError(f"{path}: no such directory: {os.path.dirname(path)}")
        result = args.func(args)
        outputs, file_config, seed = (
            result if isinstance(result, tuple) else (result, {}, getattr(args, "seed", None))
        )
        if outputs:
            _write_manifest(args, _path_dests(parser), outputs, file_config, seed)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
