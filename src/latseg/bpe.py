"""Byte-pair encoding over characters: learn merges, apply them, emit a lexicon.

Pair counting is corpus-global over raw lines (no word pre-tokenization) and
merges never cross line boundaries. A pair's frequency is its number of
adjacent occurrences in the current segmentation; one merge performs a single
left-to-right non-overlapping replacement pass per line.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import ConfigError, DataError, FormatError

Pair = tuple[str, str]

MODEL_MAGIC = "bpe-v1"
DEFAULT_MERGES = 10_000  # desk-scale default budget


@dataclass
class BpeModel:
    """An ordered merge list plus the symbol frequencies it produced."""

    merges: list[Pair]
    vocab: Counter  # symbol -> frequency in the final training segmentation
    _ranks: dict[Pair, int] | None = field(default=None, repr=False)

    @property
    def merge_count(self) -> int:
        return len(self.merges)

    def ranks(self) -> dict[Pair, int]:
        if self._ranks is None:
            self._ranks = {pair: i for i, pair in enumerate(self.merges)}
        return self._ranks


def _merge_pass(symbols: list[str], pair: Pair) -> list[str]:
    """One left-to-right non-overlapping replacement of `pair` in a line."""
    left, right = pair
    out: list[str] = []
    i = 0
    n = len(symbols)
    while i < n:
        if i + 1 < n and symbols[i] == left and symbols[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def _line_pairs(symbols: list[str]) -> Counter:
    return Counter(zip(symbols, symbols[1:]))


def learn_bpe(corpus: Iterable[Sequence[str]], k: int) -> BpeModel:
    """Perform up to k greedy merges of the most frequent adjacent pair.

    Ties break on lexicographic (left, right) order; learning stops early
    once the best pair occurs fewer than twice. Counting is incremental:
    only lines containing the merged pair are rescanned.
    """
    if k < 0:
        raise ConfigError(f"merge budget must be >= 0, got {k}")
    lines = [list(seq) for seq in corpus]
    if not lines:
        raise DataError("cannot learn BPE from an empty corpus")

    counts: Counter = Counter()
    where: dict[Pair, set[int]] = {}
    for li, line in enumerate(lines):
        for pair, c in _line_pairs(line).items():
            counts[pair] += c
            where.setdefault(pair, set()).add(li)

    merges: list[Pair] = []
    for _ in range(k):
        if not counts:
            break
        best_count = max(counts.values())
        if best_count < 2:
            break
        best = min(pair for pair, c in counts.items() if c == best_count)
        merges.append(best)

        for li in sorted(where.get(best, ())):
            old = _line_pairs(lines[li])
            lines[li] = _merge_pass(lines[li], best)
            new = _line_pairs(lines[li])
            for pair in old.keys() | new.keys():
                delta = new.get(pair, 0) - old.get(pair, 0)
                if delta:
                    counts[pair] += delta
                    if counts[pair] <= 0:
                        del counts[pair]
                if new.get(pair, 0):
                    where.setdefault(pair, set()).add(li)
                elif old.get(pair, 0):
                    where[pair].discard(li)
        where.pop(best, None)

    vocab: Counter = Counter()
    for line in lines:
        vocab.update(line)
    return BpeModel(merges=merges, vocab=vocab)


def apply_bpe(model: BpeModel, sentence: Sequence[str]) -> list[str]:
    """Replay the learned merges over a character sequence.

    Applies the lowest-ranked applicable merge until none remains, which
    reproduces in-order replay: a pair's occurrences can only be created by
    strictly earlier merges. Unseen characters pass through as singletons.
    """
    symbols = list(sentence)
    ranks = model.ranks()
    while len(symbols) > 1:
        present = set(zip(symbols, symbols[1:])) & ranks.keys()
        if not present:
            break
        symbols = _merge_pass(symbols, min(present, key=ranks.__getitem__))
    return symbols


def extract_lexicon(model: BpeModel) -> list[tuple[str, int]]:
    """Multi-character subwords with frequencies, most frequent first."""
    entries = [(sym, c) for sym, c in model.vocab.items() if len(sym) >= 2]
    entries.sort(key=lambda e: (-e[1], e[0]))
    return entries


def save_bpe_model(model: BpeModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{MODEL_MAGIC} {model.merge_count}\n")
        for left, right in model.merges:
            fh.write(f"{left}\t{right}\n")


def load_bpe_model(path) -> BpeModel:
    """Reload a merge list; corpus frequencies are not persisted."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != MODEL_MAGIC or not header[1].isdigit():
            raise FormatError(f"{path}: not a {MODEL_MAGIC} model file")
        declared = int(header[1])
        merges: list[Pair] = []
        for lineno, line in enumerate(fh, start=2):
            raw = line.rstrip("\n")
            if not raw:
                continue
            parts = raw.split("\t")
            if len(parts) != 2:
                raise FormatError(f"{path}: line {lineno}: expected 'left<TAB>right'")
            merges.append((parts[0], parts[1]))
    if len(merges) != declared:
        raise FormatError(
            f"{path}: header declares {declared} merges but file has {len(merges)}"
        )
    return BpeModel(merges=merges, vocab=Counter())


def save_lexicon(entries: Iterable[tuple[str, int]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sym, freq in entries:
            fh.write(f"{sym}\t{freq}\n")
