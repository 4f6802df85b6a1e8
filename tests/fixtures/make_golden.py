"""Write the golden fixtures that tests/test_golden.py checks.

Usage, from the repository root:

    PYTHONPATH=src python tests/fixtures/make_golden.py tests/fixtures/golden
    PYTHONPATH=src python tests/fixtures/make_golden.py --digests tests/fixtures/training-sha256.txt

The first form trains two tiny lattice-word models through the CLI, one in
float64 and one in float32, and segments a fixed raw input with each. The
committed copies were written by the code before the encoder and the CRF loss
became single recorded ops, so reloading them checks that those ops reproduce
the earlier forward pass bit for bit (the checkpoint probe) and the same
segmentations.

The second form trains lattice-word and lattice-subword models with dropout,
in both dtypes, for one epoch, and writes the sha256 of every tensor file of
their checkpoints (:func:`training_digests`). The committed digests were
written before the lattice walk moved onto per-sentence buffers, so they pin
its backward and the SGD updates, which the probe does not see.
"""

import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

from latseg import bpe, synth
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
DIGEST_CONFIG = """\
hidden=6
unigram_dim=4
bigram_dim=4
lexicon_dim=4
char_dropout=0.3
lattice_dropout=0.3
lr0=0.05
epochs=1
"""


def training_digests(work: Path) -> dict[str, str]:
    """Train four fixed-seed models in ``work``; "<mode>-<dtype>/<tensor file>" -> sha256."""
    vocab = synth.make_vocab(30, seed=31)
    sentences = synth.make_corpus(vocab, 40, seed=32, min_words=3, max_words=8)
    tr, dev = synth.split_corpus(sentences, 0.2, seed=33)
    synth.write_corpus(work / "train.txt", tr)
    synth.write_corpus(work / "dev.txt", dev)
    subwords = bpe.extract_lexicon(bpe.learn_bpe(["".join(words) for words in tr], 40))
    lexicons = {
        "lattice-word": [w for w in vocab if len(w) >= 2],
        "lattice-subword": [sym for sym, _ in subwords],
    }
    digests = {}
    for mode, lexicon in lexicons.items():
        (work / f"{mode}.txt").write_text("".join(w + "\n" for w in lexicon), encoding="utf-8")
        for dtype in ("float32", "float64"):
            (work / "config.txt").write_text(DIGEST_CONFIG + f"dtype={dtype}\n", encoding="utf-8")
            ckpt = work / f"{mode}-{dtype}"
            code = main([
                "train", "--train", str(work / "train.txt"), "--dev", str(work / "dev.txt"),
                "--mode", mode, "--lexicon", str(work / f"{mode}.txt"),
                "--config", str(work / "config.txt"), "--out", str(ckpt), "--seed", "5",
            ])
            if code != 0:
                raise SystemExit(f"train exited with {code}")
            for f in sorted(ckpt.glob("*.f32")):
                digests[f"{ckpt.name}/{f.name}"] = hashlib.sha256(f.read_bytes()).hexdigest()
    return digests


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


def write_digests(path: Path) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = training_digests(Path(tmp))
    path.write_text("".join(f"{k}\t{v}\n" for k, v in digests.items()), encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1] == "--digests":
        write_digests(Path(sys.argv[2]))
    else:
        write_golden(Path(sys.argv[1]))
