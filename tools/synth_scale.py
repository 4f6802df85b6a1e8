#!/usr/bin/env python3
"""Time the synthetic corpus generator, ``make_vocab`` and ``make_corpus``, at several sizes.

    python3 tools/synth_scale.py

Run from the root of a source checkout. It prints the best of three timings
of ``synth.make_vocab`` at 5,000, 20,000 and 60,000 words and of
``synth.make_corpus`` at 2,000, 20,000 and 200,000 sentences over a
3,000-word vocabulary, the size of ROADMAP item 4's study, with the words or
sentences drawn per second.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as bench/run.py does, before numpy is imported

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from latseg import synth  # noqa: E402

WORDS = (5_000, 20_000, 60_000)
SENTENCES = (2_000, 20_000, 200_000)
CORPUS_VOCAB = 3000
SEED = 1


def best_of_three(fn, *args, **kwargs) -> float:
    """The shortest of three timings of ``fn(*args, **kwargs)``."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        fn(*args, **kwargs)
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> int:
    print(f"{'make_vocab':>12} {'s':>8} {'words/s':>10}")
    for n in WORDS:
        seconds = best_of_three(synth.make_vocab, n, seed=SEED)
        print(f"{n:>12,} {seconds:>8.3f} {n / seconds:>10,.0f}", flush=True)
    vocab = synth.make_vocab(CORPUS_VOCAB, seed=SEED)
    print(f"{'make_corpus':>12} {'s':>8} {'sents/s':>10}  (over {CORPUS_VOCAB:,} words)")
    for n in SENTENCES:
        seconds = best_of_three(synth.make_corpus, vocab, n, seed=SEED + 1)
        print(f"{n:>12,} {seconds:>8.3f} {n / seconds:>10,.0f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
