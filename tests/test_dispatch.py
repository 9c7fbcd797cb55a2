"""Output bytes do not depend on the SIMD kernels numpy dispatches.

Each level runs the commands in a child process with
``NPY_DISABLE_CPU_FEATURES`` set; numpy reads it once at import, so the
variable acts on that child alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqpost.cli
import seqpost.cooc
from test_decoder import pinned_train_rows

NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"
LEVELS = {"no_avx512": NO_AVX512, "no_avx2": f"{NO_AVX512} X86_V3"}

# runs each argv list through the CLI in turn and exits 1 at the first that fails
_CHILD = ("import json, sys; from seqpost.cli import main; "
          "sys.exit(any(main(argv) for argv in json.loads(sys.argv[1])))")


def _outputs(root: Path, disabled: str) -> dict[str, bytes]:
    """The bytes of every file a small train run and a small 40 x 130
    synth gen -> stats -> refine run write, manifests aside, and the line a
    small ensemble --sweep prints, as ``stdout``."""
    root.mkdir()
    (root / "train.jsonl").write_text("".join(json.dumps(row) + "\n" for row in pinned_train_rows()))
    # 40 and 130 classes: the draws, counts and score rows run over rows wider
    # than a SIMD vector, so numpy's vector loops, not only their tails, are
    # used, and the noun score table and stats rows span more than one block
    assert 130 > seqpost.cooc._BLOCK_ROWS
    (root / "synth.json").write_text(json.dumps({"c_verb": 40, "c_noun": 130, "num_sequences": 20,
                                                 "seq_len": 6, "rng_seed": 3}))
    argvs = [
        ["train", "--data", "train.jsonl", "--smooth", "on", "--seed", "2", "--lr", "0.4",
         "--epochs", "6", "--batch-size", "3", "--c-verb", "4", "--c-noun", "9", "--out", "ckpt.json"],
        ["synth", "gen", "--config", "synth.json", "--out-corpus", "corpus.jsonl",
         "--out-logits", "logits.jsonl", "--out-vocab-prefix", "vocab"],
        # a second model: the same example ids, other noise
        ["synth", "gen", "--config", "synth.json", "--seed", "8", "--out-corpus", "corpus_b.jsonl",
         "--out-logits", "logits_b.jsonl"],
        ["ensemble", "--sweep", "--logits-a", "logits.jsonl", "--logits-b", "logits_b.jsonl",
         "--truth", "corpus.jsonl"],
        ["stats", "--train", "corpus.jsonl", "--verb-vocab", "vocab.verb.json",
         "--noun-vocab", "vocab.noun.json", "--out", "stats.json"],
        ["refine", "--stats", "stats.json", "--logits", "logits.jsonl", "--logits-b", "logits.jsonl",
         "--z", "6", "--k", "5", "--seed", "4", "--out", "preds.jsonl"],
    ]
    src = str(Path(seqpost.cli.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps([[*argv, "--quiet"] for argv in argvs])],
        cwd=root, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src, "NPY_DISABLE_CPU_FEATURES": disabled},
    )
    if done.returncode and "NPY_DISABLE_CPU_FEATURES" in done.stderr:
        refusal = done.stderr[done.stderr.rindex("NPY_DISABLE_CPU_FEATURES"):].split()
        pytest.skip(f"numpy on this host refuses {disabled!r}: {' '.join(refusal[1:])}")
    assert (done.returncode, done.stderr) == (0, "")
    return {"stdout": done.stdout.encode(),
            **{path.name: path.read_bytes() for path in sorted(root.iterdir())
               if not path.name.endswith(".manifest.json")}}


@pytest.fixture(scope="module")
def default_outputs(tmp_path_factory):
    return _outputs(tmp_path_factory.mktemp("dispatch") / "default", "")


@pytest.mark.parametrize("level", LEVELS)
def test_outputs_equal_with_simd_levels_disabled(tmp_path, default_outputs, level):
    outputs = _outputs(tmp_path / level, LEVELS[level])
    assert {"ckpt.json", "preds.jsonl", "stats.json"} <= set(outputs)
    assert set(json.loads(outputs["stdout"])) == {"alpha", "beta", "ed_action"}
    assert outputs == default_outputs
