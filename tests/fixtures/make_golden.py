"""Write the golden lattice-word checkpoints that tests/test_golden.py reloads.

Usage, from the repository root:

    PYTHONPATH=src python tests/fixtures/make_golden.py tests/fixtures/golden

It trains two tiny lattice-word models through the CLI, one in float64 and one
in float32, and segments a fixed raw input with each. The committed copies were
written by the code before the encoder and the CRF loss became single recorded
ops, so reloading them checks that those ops reproduce the earlier forward pass
bit for bit (the checkpoint probe) and the same segmentations.
"""

import shutil
import sys
import tempfile
from pathlib import Path

from latseg import synth
from latseg.cli import main

CONFIG = """\
hidden=6
unigram_dim=4
bigram_dim=4
lexicon_dim=4
char_dropout=0.1
lattice_dropout=0.1
lr0=0.05
epochs=2
"""
KEEP = ("manifest.txt", "unigram.vocab", "bigram.vocab", "lexicon.vocab", "train_words.txt")


def write_golden(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    vocab = synth.make_vocab(30, seed=21)
    sentences = synth.make_corpus(vocab, 60, seed=22, min_words=3, max_words=8)
    tr, dev = synth.split_corpus(sentences, 0.2, seed=23)
    raw = out / "raw.txt"
    raw.write_text("".join("".join(words) + "\n" for words in dev), encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        synth.write_corpus(work / "train.txt", tr)
        synth.write_corpus(work / "dev.txt", dev)
        (work / "lexicon.txt").write_text(
            "".join(w + "\n" for w in vocab if len(w) >= 2), encoding="utf-8"
        )
        for dtype in ("float64", "float32"):
            (work / "config.txt").write_text(CONFIG + f"dtype={dtype}\n", encoding="utf-8")
            ckpt = work / dtype
            code = main([
                "train", "--train", str(work / "train.txt"), "--dev", str(work / "dev.txt"),
                "--mode", "lattice-word", "--lexicon", str(work / "lexicon.txt"),
                "--config", str(work / "config.txt"), "--out", str(ckpt), "--seed", "7",
            ])
            if code != 0:
                raise SystemExit(f"train exited with {code}")
            target = out / f"lattice-word-{dtype}"
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir()
            for f in ckpt.iterdir():
                if f.name in KEEP or f.suffix == ".f32":
                    shutil.copy(f, target / f.name)
            code = main(["segment", "--model", str(target), "--input", str(raw),
                         "--output", str(out / f"segment-{dtype}.txt")])
            if code != 0:
                raise SystemExit(f"segment exited with {code}")


if __name__ == "__main__":
    write_golden(Path(sys.argv[1]))
