"""Spans around the calls into each ``seqpost`` module, installed from outside.

Each public function is wrapped where its caller looks the name up (for
example ``seqpost.cli.load_logits``, or ``transition_score_row`` in the
``seqpost.refine`` namespace), so no file of the package changes. A wrapper
records one span per call (name, start, end, parent) and may count work from
the call's arguments or result. It only calls through: it draws no random
numbers and reorders nothing, so traced outputs are byte-identical to
untraced ones. Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from contextlib import contextmanager

import seqpost.cli
import seqpost.cooc
import seqpost.metric
import seqpost.refine
import seqpost.rng

MIB = float(1 << 20)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self.score_row_keys: set = set()
        self._stack = [-1]

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span named ``name``; ``count(args, result)``
        runs after the span closes, so its cost is not charged to ``name``.
        The span bookkeeping is inlined rather than built on ``span()``: this
        runs on every call, tens of thousands of times per pass."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(args, result)
            return result

        return traced

    # -- counters fed by the wrappers -------------------------------------

    def _parse_bytes(self, args, result):
        self.counts["ensemble.parse_bytes"] += os.path.getsize(args[0])

    def _dump_bytes(self, args, result):
        self.counts["ensemble.dump_bytes"] += os.path.getsize(args[1])

    def _score_row(self, args, result):
        stats, prev, axis, mode = args
        self.score_row_keys.add((id(stats), axis, prev, mode))

    def _noun_step(self, args, result):
        self.counts["refine.fallback.noun"] += result[1]

    def _verb_step(self, args, result):
        self.counts["refine.fallback.verb"] += result[1]

    def _patterns(self, args, result):
        # patterns[0] is the raw argmax, patterns[1] (when K >= 2) the refined argmax
        if len(result.patterns) >= 2:
            raw, refined = result.patterns[:2]
            self.counts["refine.argmax_steps"] += len(raw)
            self.counts["refine.changed_picks"] += sum(a != b for a, b in zip(raw, refined))

    def _choice(self, args, result):
        self.counts["rng.cdf_entries"] += result + 1

    def _corrupt(self, args, result):
        self.counts["rng.gauss_draws"] += result.verb_logits.size + result.noun_logits.size

    def _dp(self, args, result):
        self.counts["metric.dp_cells"] += len(args[0]) * len(args[1])

    def _records_out(self, args, result):
        self.counts["vocab.records"] += len(result)

    def _records_in(self, args, result):
        self.counts["vocab.records"] += len(args[0])

    def count_hashed(self, manifest_path: str) -> None:
        """Bytes the CLI hashed for one manifest: every input and output it lists."""
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        for path in list(manifest["inputs"]) + list(manifest["outputs"]):
            self.counts["cli.hashed_bytes"] += os.path.getsize(path)


def _targets(tracer: Tracer):
    """(namespace, attribute, span name, counter) for every wrapped call."""
    cli, refine, metric = seqpost.cli, seqpost.refine, seqpost.metric
    return [
        (cli, "load_logits", "ensemble.load_logits", tracer._parse_bytes),
        (cli, "combine_logits", "ensemble.combine", None),
        (cli, "softmax_rows", "ensemble.softmax", None),
        (cli, "dump_logits", "ensemble.dump_logits", tracer._dump_bytes),
        (cli, "build_stats", "cooc.build_stats", None),
        (seqpost.cooc.CoocStats, "to_json", "cooc.dump_stats", None),
        (refine, "transition_score_row", "cooc.score_row", tracer._score_row),
        (refine, "refine_noun_step", "refine.noun_step", tracer._noun_step),
        (refine, "refine_verb_step", "refine.verb_step", tracer._verb_step),
        (cli, "generate_patterns", "refine.generate", tracer._patterns),
        (cli, "dump_predictions", "refine.dump", None),
        (cli, "load_predictions", "refine.load", None),
        (seqpost.rng.CounterRng, "choice_from_cdf", "rng.choice", tracer._choice),
        (cli, "gen_markov_corpus", "synth.corpus", None),
        (cli, "corrupt_to_logits_sized", "synth.corrupt", tracer._corrupt),
        (cli, "evaluate_corpus", "metric.evaluate", None),
        (metric, "edit_distance", "metric.dp", tracer._dp),
        (cli, "load_corpus", "vocab.load_corpus", tracer._records_out),
        (cli, "dump_corpus", "vocab.dump_corpus", tracer._records_in),
        (cli, "validate_sequence", "vocab.validate", None),
        (seqpost.cooc, "validate_sequence", "vocab.validate", None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    stats_cls = seqpost.cooc.CoocStats
    from_json = stats_cls.__dict__["from_json"]
    try:
        for owner, attr, name, count in _targets(tracer):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        saved.append((stats_cls, "from_json", from_json))
        stats_cls.from_json = classmethod(tracer.wrap("cooc.load_stats", from_json.__func__))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# (metric name, unit) in the order they are reported.
PER_LAYER = [
    ("ensemble.load_logits_s", "s"),
    ("ensemble.parse_mb", "MiB"),
    ("ensemble.combine_s", "s"),
    ("ensemble.combine_calls", "count"),
    ("ensemble.softmax_s", "s"),
    ("ensemble.softmax_calls", "count"),
    ("ensemble.dump_logits_s", "s"),
    ("ensemble.dump_mb", "MiB"),
    ("cooc.score_row_s", "s"),
    ("cooc.score_row_calls", "count"),
    ("cooc.score_row_reuse", "fraction"),
    ("cooc.build_stats_s", "s"),
    ("cooc.load_stats_s", "s"),
    ("cooc.dump_stats_s", "s"),
    ("refine.generate_s", "s"),
    ("refine.self_s", "s"),
    ("refine.steps", "count"),
    ("refine.fallback_rate.noun", "fraction"),
    ("refine.fallback_rate.verb", "fraction"),
    ("refine.changed_pick_rate", "fraction"),
    ("refine.dump_s", "s"),
    ("refine.load_s", "s"),
    ("rng.choice_s", "s"),
    ("rng.choice_calls", "count"),
    ("rng.cdf_entries_walked", "entries"),
    ("rng.gauss_draws", "count"),
    ("synth.corpus_s", "s"),
    ("synth.corrupt_s", "s"),
    ("metric.evaluate_s", "s"),
    ("metric.dp_s", "s"),
    ("metric.dp_calls", "count"),
    ("metric.dp_cells", "count"),
    ("vocab.load_corpus_s", "s"),
    ("vocab.dump_corpus_s", "s"),
    ("vocab.validate_s", "s"),
    ("vocab.validate_calls", "count"),
    ("vocab.records", "count"),
    ("cli.self_s", "s"),
    ("cli.hashed_mb", "MiB"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals from one traced pass. Layers the pass never entered read 0."""
    total: Counter = Counter()
    calls: Counter = Counter()
    child: Counter = Counter()  # time covered by direct children, per span index
    for name, start, end, parent in tracer.spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
    self_time: Counter = Counter()
    for index, (name, start, end, _) in enumerate(tracer.spans):
        self_time[name] += end - start - child[index]
    c = tracer.counts
    steps_noun, steps_verb = calls["refine.noun_step"], calls["refine.verb_step"]
    values = {
        "ensemble.load_logits_s": total["ensemble.load_logits"],
        "ensemble.parse_mb": c["ensemble.parse_bytes"] / MIB,
        "ensemble.combine_s": total["ensemble.combine"],
        "ensemble.combine_calls": calls["ensemble.combine"],
        "ensemble.softmax_s": total["ensemble.softmax"],
        "ensemble.softmax_calls": calls["ensemble.softmax"],
        "ensemble.dump_logits_s": total["ensemble.dump_logits"],
        "ensemble.dump_mb": c["ensemble.dump_bytes"] / MIB,
        "cooc.score_row_s": total["cooc.score_row"],
        "cooc.score_row_calls": calls["cooc.score_row"],
        "cooc.score_row_reuse": _ratio(calls["cooc.score_row"] - len(tracer.score_row_keys),
                                       calls["cooc.score_row"]),
        "cooc.build_stats_s": total["cooc.build_stats"],
        "cooc.load_stats_s": total["cooc.load_stats"],
        "cooc.dump_stats_s": total["cooc.dump_stats"],
        "refine.generate_s": total["refine.generate"],
        "refine.self_s": self_time["refine.generate"],
        "refine.steps": steps_noun + steps_verb,
        "refine.fallback_rate.noun": _ratio(c["refine.fallback.noun"], steps_noun),
        "refine.fallback_rate.verb": _ratio(c["refine.fallback.verb"], steps_verb),
        "refine.changed_pick_rate": _ratio(c["refine.changed_picks"], c["refine.argmax_steps"]),
        "refine.dump_s": total["refine.dump"],
        "refine.load_s": total["refine.load"],
        "rng.choice_s": total["rng.choice"],
        "rng.choice_calls": calls["rng.choice"],
        "rng.cdf_entries_walked": _ratio(c["rng.cdf_entries"], calls["rng.choice"]),
        "rng.gauss_draws": c["rng.gauss_draws"],
        "synth.corpus_s": total["synth.corpus"],
        "synth.corrupt_s": total["synth.corrupt"],
        "metric.evaluate_s": total["metric.evaluate"],
        "metric.dp_s": total["metric.dp"],
        "metric.dp_calls": calls["metric.dp"],
        "metric.dp_cells": c["metric.dp_cells"],
        "vocab.load_corpus_s": total["vocab.load_corpus"],
        "vocab.dump_corpus_s": total["vocab.dump_corpus"],
        "vocab.validate_s": total["vocab.validate"],
        "vocab.validate_calls": calls["vocab.validate"],
        "vocab.records": c["vocab.records"],
        "cli.self_s": sum(t for name, t in self_time.items() if name.startswith("cli.")),
        "cli.hashed_mb": c["cli.hashed_bytes"] / MIB,
    }
    return {name: float(value) for name, value in values.items()}


def write_spans(tracer: Tracer, path: str) -> None:
    """One JSON line per span: name, start and end in seconds from the first
    span's start, and the parent's line index (-1 for a stage span)."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w") as handle:
        for name, start, end, parent in tracer.spans:
            handle.write(json.dumps([name, round(start - origin, 9), round(end - origin, 9), parent]) + "\n")
