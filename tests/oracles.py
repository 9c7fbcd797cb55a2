"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately slow and scalar so it shares no code path
with the package proper.
"""

import json
import math
from functools import lru_cache, partial

import mpmath
import numpy as np

from seqpost.cooc import CoocStats, IndicatorMode, SmoothingConfig
from seqpost.ensemble import EnsembleWeights, combine_logits, softmax_rows
from seqpost.metric import evaluate_corpus
from seqpost.refine import TIERS, PredictionConfig, PredictionSet, generate_patterns
from seqpost.rng import CounterRng
from seqpost.vocab import Action


def recursive_edit_distance(a, b, allow_transposition):
    """Exhaustive recursion over edit scripts (memoized on suffix lengths)."""
    a = tuple(a)
    b = tuple(b)

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        best = min(
            go(i - 1, j) + 1,
            go(i, j - 1) + 1,
            go(i - 1, j - 1) + (0 if a[i - 1] == b[j - 1] else 1),
        )
        if (
            allow_transposition
            and i > 1
            and j > 1
            and a[i - 1] == b[j - 2]
            and a[i - 2] == b[j - 1]
        ):
            best = min(best, go(i - 2, j - 2) + 1)
        return best

    return go(len(a), len(b))


def all_sequences(alphabet_size, max_len):
    seqs = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [s + (c,) for s in frontier for c in range(alphabet_size)]
        seqs.extend(frontier)
    return seqs


def softmax_highprec(row, dps=50):
    """Softmax at 50 decimal digits, rounded back to float."""
    with mpmath.workdps(dps):
        exps = [mpmath.e ** mpmath.mpf(x) for x in row]
        total = sum(exps)
        return [float(e / total) for e in exps]


def cross_entropy_highprec(pred, target, dps=50):
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for p, t in zip(pred, target):
            p = max(mpmath.mpf(p), mpmath.mpf("1e-12"))
            total -= mpmath.mpf(t) * mpmath.log(p)
        return float(total)


def count_stats(corpus, c_verb, c_noun):
    """Raw unigram / bigram / pair counts with plain dict arithmetic."""
    verb_uni = [0] * c_verb
    noun_uni = [0] * c_noun
    verb_bi = [[0] * c_verb for _ in range(c_verb)]
    noun_bi = [[0] * c_noun for _ in range(c_noun)]
    vn = [[0] * c_verb for _ in range(c_noun)]
    for seq in corpus:
        prev = None
        for action in seq.actions:
            verb_uni[action.verb_id] += 1
            noun_uni[action.noun_id] += 1
            vn[action.noun_id][action.verb_id] += 1
            if prev is not None:
                verb_bi[prev.verb_id][action.verb_id] += 1
                noun_bi[prev.noun_id][action.noun_id] += 1
            prev = action
    return verb_uni, noun_uni, verb_bi, noun_bi, vn


def choice_from_cdf_walk(rng, probs):
    """``CounterRng.choice_from_cdf`` as a walk over the classes with a
    running float total: the first class whose total exceeds one uniform
    draw, else the last class with positive mass, else 0."""
    u = rng.uniform()
    probs = [float(p) for p in probs]
    total = 0.0
    for i, p in enumerate(probs):
        total += p
        if u < total:
            return i
    return max((i for i, p in enumerate(probs) if p > 0), default=0)


def gauss_draws(rng):
    """Standard normals from ``rng``, one at a time, by scalar Box-Muller:
    each pair reads two uniforms u1 (0 nudged to 2**-53) and u2, then yields
    r*cos(theta) and, on the next call, r*sin(theta). ``n`` values taken from
    a fresh generator are ``rng.normals(n)``, and leave ``rng`` where it does."""
    while True:
        u1 = rng.uniform()
        u2 = rng.uniform()
        if u1 == 0.0:
            u1 = 2.0 ** -53
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        yield radius * math.cos(theta)
        yield radius * math.sin(theta)


def corrupt_logits_loop(actions, sigma, scale, seed, c_verb, c_noun, stream=0):
    """(verb, noun) logits of ``synth.corrupt_to_logits_sized`` by a triple
    loop: one scalar ``gauss_draws`` value per entry, all verb entries
    row-major, then all noun entries."""
    gauss = gauss_draws(CounterRng(seed, stream=stream))
    z = len(actions)
    verb_logits = np.zeros((z, c_verb))
    noun_logits = np.zeros((z, c_noun))
    for step, action in enumerate(actions):
        verb_logits[step, action.verb_id] = scale
        noun_logits[step, action.noun_id] = scale
    for matrix in (verb_logits, noun_logits):
        for step in range(z):
            for c in range(matrix.shape[1]):
                matrix[step, c] += sigma * next(gauss)
    return verb_logits, noun_logits


def stats_json_dumps(stats):
    """The stats file text as ``json.dumps`` of the stats as a plain dict,
    one ``tolist()`` per table."""
    return json.dumps(
        {
            "c_verb": stats.c_verb,
            "c_noun": stats.c_noun,
            "verb_marginal": stats.verb_marginal.tolist(),
            "noun_marginal": stats.noun_marginal.tolist(),
            "verb_transition": stats.verb_transition.tolist(),
            "noun_transition": stats.noun_transition.tolist(),
            "verb_given_noun": stats.verb_given_noun.tolist(),
            "smoothing": {
                "add_k": stats.smoothing.add_k,
                "prob_clamp_min": stats.smoothing.prob_clamp_min,
                "prob_clamp_max": stats.smoothing.prob_clamp_max,
            },
            "corpus_fingerprint": stats.corpus_fingerprint,
        }
    )


STATS_TABLES = ("verb_marginal", "noun_marginal", "verb_transition", "noun_transition",
                "verb_given_noun")


def stats_from_whole_text(text):
    """CoocStats from a stats file's text by one ``json.loads`` of the whole
    text, as the package read it before its streamed reader."""
    obj = json.loads(text)
    stats = CoocStats(
        **{name: np.array(obj[name], dtype=np.float64) for name in STATS_TABLES},
        smoothing=SmoothingConfig(**obj["smoothing"]),
        corpus_fingerprint=obj["corpus_fingerprint"],
    )
    assert (obj["c_verb"], obj["c_noun"]) == (stats.c_verb, stats.c_noun)
    return stats


def score_table(stats, axis, mode):
    """The (C, C) indicator table of one axis as one array expression over
    the whole table, where the package builds it a block of rows at a time."""
    lo, hi = stats.smoothing.prob_clamp_min, stats.smoothing.prob_clamp_max
    marginal = stats.marginal(axis)
    transition = stats.transition(axis)
    clamped = np.clip(marginal, lo, hi)
    if mode is IndicatorMode.AS_WRITTEN:
        num = np.clip(transition, lo, hi)
    else:
        num = np.clip(transition * marginal[:, None], lo, hi)
    log_num = np.log(num)
    return (log_num - np.log(clamped[:, None] * clamped)) / -log_num


def pairwise_sum(values):
    """The float sum of ``values`` as numpy's pairwise summation adds a
    contiguous float64 row: left to right from 0.0 below 8 entries; up to 128,
    eight running sums over the entries in strides of 8, added in pairs, then
    the last n % 8 entries left to right; above that, the two halves split at
    a multiple of 8, each summed so."""
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return pairwise_sum(values[:half]) + pairwise_sum(values[half:])
    sums = list(values[:8])
    for start in range(8, n - n % 8, 8):
        for lane in range(8):
            sums[lane] += values[start + lane]
    total = ((sums[0] + sums[1]) + (sums[2] + sums[3])) + ((sums[4] + sums[5]) + (sums[6] + sums[7]))
    for value in values[n - n % 8:]:
        total += value
    return total


def _first_largest(row):
    row = [float(p) for p in row]
    return row.index(max(row))


def refined_row(probs, scores, weight=None):
    """probs times the scores cut at zero, and times ``weight`` if given,
    divided by its ``pairwise_sum``; ``probs`` where that sum is not positive."""
    raw = np.maximum(scores, 0.0) * probs
    if weight is not None:
        raw = raw * weight
    total = pairwise_sum(raw.tolist())
    return raw / total if total > 0.0 else probs


def reference_patterns(dists, stats, cfg, stream=0):
    """``generate_patterns`` by a plain loop over chains and steps, each refined
    row built from the previous pick's row of ``score_table``: pattern 0 takes
    each step's first largest entry, pattern 1 chains greedily on the refined
    rows, and patterns 2 .. K-1 chain on draws by ``choice_from_cdf_walk`` from
    one CounterRng stream, noun before verb at each step."""
    patterns = [tuple(map(Action, map(_first_largest, dists.verb_probs), map(_first_largest, dists.noun_probs)))]
    if cfg.num_patterns >= 2:
        tables = {axis: score_table(stats, axis, cfg.mode) for axis in ("verb", "noun")}
    rng = CounterRng(cfg.rng_seed, stream)
    for k in range(1, cfg.num_patterns):
        pick = _first_largest if k == 1 else partial(choice_from_cdf_walk, rng)
        actions = []
        for verb_row, noun_row in zip(dists.verb_probs, dists.noun_probs):
            if actions:
                prev = actions[-1]
                noun_row = refined_row(noun_row, tables["noun"][prev.noun_id])
            noun = pick(noun_row)
            if actions:
                verb_row = refined_row(verb_row, tables["verb"][prev.verb_id], stats.verb_given_noun[noun])
            actions.append(Action(pick(verb_row), noun))
        patterns.append(tuple(actions))
    tiers = tuple(TIERS[min(k, 2)] for k in range(cfg.num_patterns))
    return PredictionSet(dists.example_id, tuple(patterns), tiers)


def sweep_scores(a_list, b_list, truths):
    """``(key, alpha, beta)`` for each weight pair ``ensemble --sweep`` tries,
    in grid order, with key = (action, verb, noun) ED of the raw argmax, by
    the per-example loop the CLI ran before it stacked the dev split: each
    pair combines, softmaxes and decodes one example at a time."""
    grid = [round(0.1 * i, 1) for i in range(21)]
    raw_cfg = PredictionConfig(num_patterns=1)
    scores = []
    for alpha in grid:
        for beta in grid:
            if alpha == 0.0 and beta == 0.0:
                continue
            weights = EnsembleWeights(alpha=alpha, beta=beta)
            preds = [generate_patterns(softmax_rows(combine_logits(a, b, weights)), None, raw_cfg)
                     for a, b in zip(a_list, b_list)]
            report = evaluate_corpus(preds, truths)
            scores.append(((report.ed_action, report.ed_verb, report.ed_noun), alpha, beta))
    return scores


def sweep_stdout(scores):
    """What ``ensemble --sweep`` prints for ``sweep_scores``: the first pair
    with the lowest key wins."""
    key, alpha, beta = min(scores, key=lambda score: score[0])
    return (f"best weights by action ED: alpha={alpha} beta={beta} (ed_action={key[0]:.4f})\n"
            + json.dumps({"alpha": alpha, "beta": beta, "ed_action": key[0]}) + "\n")
