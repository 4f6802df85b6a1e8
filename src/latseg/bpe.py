"""Byte-pair encoding over characters: learn merges, emit a lexicon.

Pair counting is corpus-global over raw lines (no word pre-tokenization) and
merges never cross line boundaries. A pair's frequency is its number of
adjacent occurrences in the current segmentation; one merge performs a single
left-to-right non-overlapping replacement pass per line.

Learning is incremental: the best pair comes off a lazy max-heap, and a merge
updates the pair counts only around its merge sites, so its cost grows with the
occurrences it rewrites, not with the number of distinct pairs.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from .data import read_lines, write_lines
from .errors import ConfigError, DataError, FormatError

Pair = tuple[str, str]

MODEL_MAGIC = "bpe-v1"
DEFAULT_MERGES = 10_000  # desk-scale default budget


@dataclass
class BpeModel:
    """An ordered merge list plus the symbol frequencies it produced."""

    merges: list[Pair]
    vocab: Counter  # symbol -> frequency in the final training segmentation

    @property
    def merge_count(self) -> int:
        return len(self.merges)


def _merge_pass(symbols: list[str], pair: Pair) -> tuple[list[str], list[int]]:
    """One left-to-right non-overlapping replacement of `pair` in a line.

    Returns the new line and the old index of each merged pair's left symbol.
    """
    left, right = pair
    out: list[str] = []
    sites: list[int] = []
    i = 0
    n = len(symbols)
    while i < n:
        if i + 1 < n and symbols[i] == left and symbols[i + 1] == right:
            out.append(left + right)
            sites.append(i)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out, sites


def learn_bpe(corpus: Iterable[Sequence[str]], k: int) -> BpeModel:
    """Perform up to k greedy merges of the most frequent adjacent pair.

    Ties break on lexicographic (left, right) order; learning stops early
    once the best pair occurs fewer than twice. The best pair comes off a heap
    keyed (-count, left, right) with lazy deletion: an entry whose count is
    out of date is skipped, and each pair whose count a merge changed is
    pushed again. Each pair keeps its count per line, so a merge rewrites only
    the lines that hold its pair. At each merge site, the old pairs that touch
    a merged symbol lose a count and the new pairs that touch the joined
    symbol gain one; every other pair is the same before and after. So a
    merge costs time in proportion to the occurrences it rewrites and their
    lines, not to the number of distinct pairs.
    """
    if k < 0:
        raise ConfigError(f"merge budget must be >= 0, got {k}")
    lines = [list(seq) for seq in corpus]
    if not lines:
        raise DataError("cannot learn BPE from an empty corpus")

    counts: dict[Pair, int] = {}
    where: defaultdict[Pair, dict[int, int]] = defaultdict(dict)  # line -> the pair's count in it
    for li, line in enumerate(lines):
        for pair in zip(line, line[1:]):
            counts[pair] = counts.get(pair, 0) + 1
            at = where[pair]
            at[li] = at.get(li, 0) + 1
    heap = [(-c, pair) for pair, c in counts.items()]
    heapq.heapify(heap)
    changed: set[Pair] = set()  # the pairs whose count the current merge changed

    def swap(lost: Pair, made: Pair, li: int) -> None:
        """Line li holds one `lost` pair fewer and one `made` pair more."""
        counts[lost] -= 1
        counts[made] = counts.get(made, 0) + 1
        at = where.get(lost)  # None for the pair being merged, whose lines are already taken
        if at is not None:
            if at[li] == 1:
                del at[li]  # so that a merge of `lost` never visits this line for nothing
            else:
                at[li] -= 1
        at = where[made]
        at[li] = at.get(li, 0) + 1
        changed.update((lost, made))

    merges: list[Pair] = []
    while heap and len(merges) < k:
        neg_count, best = heapq.heappop(heap)
        if counts.get(best) != -neg_count:
            continue  # stale
        if -neg_count < 2:
            break
        merges.append(best)

        changed.add(best)
        for li in sorted(where.pop(best)):  # each line holds the pair at least once
            old = lines[li]
            new, sites = _merge_pass(old, best)
            lines[li] = new
            counts[best] -= len(sites)
            for t, i in enumerate(sites):
                j = i - t  # the joined symbol's index in the new line
                # The pair left of a site right after another is that one's right pair.
                if i and (t == 0 or sites[t - 1] < i - 2):
                    swap((old[i - 1], old[i]), (new[j - 1], new[j]), li)
                if i + 2 < len(old):
                    swap((old[i + 1], old[i + 2]), (new[j], new[j + 1]), li)
        for pair in changed:
            if counts[pair]:
                heapq.heappush(heap, (-counts[pair], pair))
            else:
                del counts[pair]
                where.pop(pair, None)
        changed.clear()

    vocab: Counter = Counter()
    for line in lines:
        vocab.update(line)
    return BpeModel(merges=merges, vocab=vocab)


def extract_lexicon(model: BpeModel) -> list[tuple[str, int]]:
    """Multi-character subwords with frequencies, most frequent first."""
    entries = [(sym, c) for sym, c in model.vocab.items() if len(sym) >= 2]
    entries.sort(key=lambda e: (-e[1], e[0]))
    return entries


def save_bpe_model(model: BpeModel, path) -> None:
    write_lines(path, [f"{MODEL_MAGIC} {model.merge_count}", *map("\t".join, model.merges)])


def load_bpe_model(path) -> BpeModel:
    """Reload a merge list; corpus frequencies are not persisted."""
    lines = read_lines(path)
    header = next(lines, "").split()
    if len(header) != 2 or header[0] != MODEL_MAGIC or not header[1].isdigit():
        raise FormatError(f"{path}: not a {MODEL_MAGIC} model file")
    declared = int(header[1])
    merges: list[Pair] = []
    for lineno, raw in enumerate(lines, start=2):
        if not raw:
            continue
        parts = raw.split("\t")
        if len(parts) != 2 or not all(parts):
            raise FormatError(f"{path}: line {lineno}: expected non-empty 'left<TAB>right'")
        merges.append((parts[0], parts[1]))
    if len(merges) != declared:
        raise FormatError(
            f"{path}: header declares {declared} merges but file has {len(merges)}"
        )
    return BpeModel(merges=merges, vocab=Counter())


def save_lexicon(entries: Iterable[tuple[str, int]], path) -> None:
    write_lines(path, (f"{sym}\t{freq}" for sym, freq in entries))
