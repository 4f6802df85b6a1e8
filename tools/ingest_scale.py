#!/usr/bin/env python3
"""Time and trace corpus ingestion, ``read_corpus`` then ``build_vocabs``, at several corpus sizes.

    python3 tools/ingest_scale.py [--chars 0.6,2,8] [--seed S]

Run from the root of a source checkout. It imports ``bench/workloads.py``
without changing it and draws each corpus as the ``train-bigvocab-baseline``
workload does (``workloads.bigvocab_words``: Zipf-weighted words over 3,500
CJK characters), with as many sentences as give about the requested number
of millions of characters, and writes it to a temporary file. For each size
it prints the character count, the best of three timings of each stage, the
characters per second of the two together, the best of three timings of
``word_set`` and of ``evaluate_f1`` with gold as the prediction over the read
corpus, and then, from one more run of
each traced by ``tracemalloc``, the memory the read corpus holds, the peak of
the read above that, the memory the vocabularies hold and the peak of
``build_vocabs`` above that. Memory is traced, in MiB, so it leaves out the
allocator's own overhead and the pages it keeps.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as bench/run.py does, before numpy is imported

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from latseg import data, synth, train  # noqa: E402

MIB = 2**20


def best_of_three(fn, *args):
    """The shortest of three timings of ``fn(*args)``, and its last result."""
    times, result = [], None
    for _ in range(3):
        result = None  # one result alive at a time
        start = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - start)
    return min(times), result


def traced(fn, *args):
    """``fn(*args)``, the traced memory its result holds, and its traced peak above that."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, now - base, peak - now


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--chars", default="0.6,2,8", help="corpus sizes in millions of characters")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sizes = [float(size) * 1e6 for size in args.chars.split(",")]
    if min(sizes) <= 0:
        parser.error(f"--chars must list positive sizes, got {args.chars}")

    shape = workloads.TrainBigVocabBaseline()
    sample = workloads.bigvocab_words(args.seed, shape.sentences, shape.words, shape.alphabet)
    chars_per_sentence = sum(len(w) for s in sample for w in s) / len(sample)
    del sample
    print(f"{'chars':>10} {'read_s':>8} {'vocabs_s':>8} {'chars/s':>10} {'word_set_s':>10} {'eval_s':>8} "
          f"{'corpus':>8} {'read_pk':>8} {'vocabs':>8} {'voc_pk':>8}  (MiB; a peak is above what is held)")
    with tempfile.TemporaryDirectory(prefix="ingest_scale.") as tmp:
        path = Path(tmp) / "corpus.txt"
        for size in sizes:
            sentences = workloads.bigvocab_words(
                args.seed, max(1, round(size / chars_per_sentence)), shape.words, shape.alphabet
            )
            synth.write_corpus(path, sentences)
            n_chars = sum(len(w) for s in sentences for w in s)
            del sentences
            read_s, corpus = best_of_three(data.read_corpus, path)
            vocabs_s = best_of_three(data.build_vocabs, [s.chars for s in corpus])[0]
            word_set_s = best_of_three(data.word_set, corpus)[0]
            eval_s = best_of_three(train.evaluate_f1, corpus, [s.labels for s in corpus])[0]
            del corpus
            corpus, corpus_held, read_peak = traced(data.read_corpus, path)
            vocabs_held, vocabs_peak = traced(data.build_vocabs, [s.chars for s in corpus])[1:]
            del corpus
            print(f"{n_chars:>10,} {read_s:>8.3f} {vocabs_s:>8.3f} {n_chars / (read_s + vocabs_s):>10,.0f} "
                  f"{word_set_s:>10.3f} {eval_s:>8.3f} "
                  f"{corpus_held / MIB:>8.1f} {read_peak / MIB:>8.1f} {vocabs_held / MIB:>8.1f} "
                  f"{vocabs_peak / MIB:>8.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
