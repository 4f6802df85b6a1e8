#!/usr/bin/env python3
"""Time and trace a lattice-word checkpoint whose lexicon has a given number of entries.

    python3 tools/lexicon_scale.py --entries N [--seed S]

Run from the root of a source checkout. It draws N distinct random words of
2 to 4 characters over 3,500 CJK code points (the scale study of ROADMAP item
6), builds a float32 lattice-word model over a small corpus of those words
with ``prepare_lexicon``, saves it to a temporary directory and loads it back.
It prints the ``prepare_lexicon`` time, the ``load_checkpoint`` time (best of
three) and the memory a load holds, as traced by ``tracemalloc``: in all and
per lexicon entry. The tensors a load maps are not traced.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as bench/run.py does, before numpy is imported

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from latseg.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from latseg.data import EmbeddingTable, build_vocabs  # noqa: E402
from latseg.model import SegmenterModel, prepare_lexicon  # noqa: E402

ALPHABET = 3500  # code points from U+4E00
LEXICON_DIM, CHAR_DIM, HIDDEN = 50, 8, 8
SENTENCES, WORDS_PER_SENTENCE = 270, 6


def make_lexicon(entries: int, rng: np.random.Generator) -> list[str]:
    """``entries`` distinct words of 2 to 4 characters, in order of first draw."""
    words: dict[str, None] = {}
    while len(words) < entries:
        lengths = rng.integers(2, 5, entries)
        codes = rng.integers(0x4E00, 0x4E00 + ALPHABET, lengths.sum())
        text = "".join(map(chr, codes.tolist()))
        ends = np.cumsum(lengths).tolist()
        for start, end in zip([0, *ends[:-1]], ends):
            words.setdefault(text[start:end])
            if len(words) == entries:
                break
    return list(words)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--entries", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.entries < 1:
        parser.error(f"--entries must be at least 1, got {args.entries}")

    rng = np.random.default_rng(args.seed)
    lexicon = make_lexicon(args.entries, rng)
    picks = rng.integers(0, len(lexicon), (SENTENCES, WORDS_PER_SENTENCE)).tolist()
    corpus = ["".join(lexicon[k] for k in sentence) for sentence in picks]
    start = time.perf_counter()
    trie, lvocab = prepare_lexicon(lexicon)
    prepare_s = time.perf_counter() - start

    uni, bi = build_vocabs(corpus)
    tables = [
        EmbeddingTable.random(vocab, dim, rng, dtype=np.float32, name=f"{name}_embeddings")
        for vocab, dim, name in ((uni, CHAR_DIM, "unigram"), (bi, CHAR_DIM, "bigram"), (lvocab, LEXICON_DIM, "lexicon"))
    ]
    model = SegmenterModel.create(
        "lattice-word", tables[0], tables[1], HIDDEN, rng, lexicon_table=tables[2], trie=trie, dtype=np.float32
    )
    del tables
    with tempfile.TemporaryDirectory(prefix="lexicon_scale.") as tmp:
        ckpt = Path(tmp) / "model"
        save_checkpoint(model, ckpt, corpus[0])
        del model, trie, lvocab
        load_s = []
        for _ in range(3):
            start = time.perf_counter()
            load_checkpoint(ckpt)
            load_s.append(time.perf_counter() - start)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loaded = load_checkpoint(ckpt)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        del loaded

    print(f"entries             {args.entries:>12,}")
    print(f"prepare_lexicon     {prepare_s:>12.3f} s")
    print(f"load_checkpoint     {min(load_s):>12.3f} s")
    print(f"load holds, traced  {held / 2**20:>12.1f} MiB  ({held / args.entries:.0f} B per entry)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
