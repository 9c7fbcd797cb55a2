import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from seqpost.cooc import SmoothingConfig, build_stats  # noqa: E402
from seqpost.vocab import Action, ActionSequence, Vocabulary  # noqa: E402


@pytest.fixture(scope="session")
def lta_stats_text():
    """The stats file text of a random corpus at the Ego4D-LTA vocabulary
    sizes, 115 verbs by 478 nouns (about 6.4 MB)."""
    gen = np.random.default_rng(7)
    corpus = [
        ActionSequence(f"e{i}", tuple(map(Action, gen.integers(115, size=20).tolist(),
                                          gen.integers(478, size=20).tolist())))
        for i in range(200)
    ]
    vocab = lambda kind, n: Vocabulary(kind, tuple(f"{kind[0]}{i}" for i in range(n)))
    stats = build_stats(corpus, vocab("verb", 115), vocab("noun", 478), SmoothingConfig())
    return stats.to_json()
