"""Byte-pair encoding over characters: learn merges, emit a lexicon.

Pair counting is corpus-global over raw lines (no word pre-tokenization) and
merges never cross line boundaries. A pair's frequency is its number of
adjacent occurrences in the current segmentation; one merge performs a single
left-to-right non-overlapping replacement pass per line.

Learning is incremental and works on integer ids. Each distinct symbol string
has one id, so two merges that spell the same string make the same symbol; a
line is a list of ids and a pair is one int key, ``left << 32 | right``. Each
pair records the lines it occurs in: a bare line number while it occurs in one
line only, a ``{line: count}`` dict once it occurs in more. The best pair comes
off a lazy max-heap that is rebuilt from the live counts whenever its stale
entries outnumber them, and a merge updates the pair counts only around its
merge sites, so its cost grows with the occurrences it rewrites, not with the
number of distinct pairs.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .data import write_lines
from .errors import ConfigError, DataError

Pair = tuple[str, str]

MODEL_MAGIC = "bpe-v1"
DEFAULT_MERGES = 10_000  # desk-scale default budget
_RIGHT = (1 << 32) - 1  # a pair key's right id: key & _RIGHT; its left id: key >> 32


@dataclass
class BpeModel:
    """An ordered merge list plus the symbol frequencies it produced."""

    merges: list[Pair]
    vocab: Counter  # symbol -> frequency in the final training segmentation

    @property
    def merge_count(self) -> int:
        return len(self.merges)


def _merge_pass(line: list[int], left: int, right: int, joined: int) -> tuple[list[int], list[int]]:
    """One left-to-right non-overlapping replacement of ``left right`` by ``joined``.

    Returns the new line and the old index of each merged pair's left symbol.
    """
    sites: list[int] = []
    last = len(line) - 1
    i = 0
    try:
        while True:
            i = line.index(left, i)
            if i < last and line[i + 1] == right:
                sites.append(i)
                i += 2
            else:
                i += 1
    except ValueError:
        pass
    out: list[int] = []
    start = 0
    for i in sites:
        out += line[start:i]
        out.append(joined)
        start = i + 2
    out += line[start:]
    return out, sites


def learn_bpe(corpus: Iterable[Sequence[str]], k: int) -> BpeModel:
    """Perform up to k greedy merges of the most frequent adjacent pair.

    Ties break on lexicographic (left, right) order; learning stops early
    once the best pair occurs fewer than twice.

    Symbols are interned as ids (module docstring). The best pair comes off a
    heap of ``(-count, left, right, key)`` entries with lazy deletion: an
    entry whose count is out of date is skipped, each pair whose count a
    merge changed is pushed again, and the heap is rebuilt from ``counts``
    once it holds more stale entries than live pairs. Each pair keeps the
    lines it occurs in, so a merge rewrites only the lines that hold its
    pair; while those are one line, the pair's count in it is its total
    count, so a line number is all it keeps. At each merge site, the old
    pairs that touch a merged symbol lose a count and the new pairs that
    touch the joined symbol gain one; every other pair is the same before
    and after. So a merge costs time in proportion to the occurrences it
    rewrites and their lines, not to the number of distinct pairs.
    """
    if k < 0:
        raise ConfigError(f"merge budget must be >= 0, got {k}")
    ids: dict[str, int] = {}  # symbol -> id
    spelled: list[str] = []  # id -> symbol

    def intern(symbol: str) -> int:
        sid = ids.get(symbol)
        if sid is None:
            sid = ids[symbol] = len(spelled)
            spelled.append(symbol)
        return sid

    lines = [[intern(s) for s in seq] for seq in corpus]
    if not lines:
        raise DataError("cannot learn BPE from an empty corpus")

    counts: dict[int, int] = {}
    where: dict[int, int | dict[int, int]] = {}  # the pair's line, or line -> the pair's count in it
    changed: set[int] = set()  # the pairs whose count the current merge changed

    def gain(key: int, li: int) -> None:
        """Line li holds one `key` pair more."""
        count, at = counts.get(key, 0), where.get(key)
        if not count or at == li:
            where[key] = li
        elif type(at) is int:
            where[key] = {at: count, li: 1}
        else:
            at[li] = at.get(li, 0) + 1
        counts[key] = count + 1

    def swap(lost: int, made: int, li: int) -> None:
        """Line li holds one `lost` pair fewer and one `made` pair more."""
        counts[lost] -= 1
        at = where.get(lost)  # None for the pair being merged, a line number while `lost` sits in li only
        if type(at) is dict:
            if at[li] == 1:
                del at[li]  # so that a merge of `lost` never visits this line for nothing
            else:
                at[li] -= 1
        gain(made, li)
        changed.add(lost)
        changed.add(made)

    for li, line in enumerate(lines):
        for left, right in zip(line, line[1:]):
            gain(left << 32 | right, li)

    def entry(key: int) -> tuple[int, str, str, int]:
        return -counts[key], spelled[key >> 32], spelled[key & _RIGHT], key

    heap = [entry(key) for key in counts]
    heapq.heapify(heap)

    merges: list[Pair] = []
    while heap and len(merges) < k:
        neg_count, left, right, best = heapq.heappop(heap)
        if counts.get(best) != -neg_count:
            continue  # stale
        if -neg_count < 2:
            break
        merges.append((left, right))

        changed.add(best)
        joined = intern(left + right)
        at = where.pop(best)
        for li in at if type(at) is dict else (at,):  # each line holds the pair at least once
            old = lines[li]
            new, sites = _merge_pass(old, best >> 32, best & _RIGHT, joined)
            lines[li] = new
            counts[best] -= len(sites)
            for t, i in enumerate(sites):
                j = i - t  # the joined symbol's index in the new line
                # The pair left of a site right after another is that one's right pair.
                if i and (t == 0 or sites[t - 1] < i - 2):
                    swap(old[i - 1] << 32 | old[i], new[j - 1] << 32 | joined, li)
                if i + 2 < len(old):
                    swap(old[i + 1] << 32 | old[i + 2], joined << 32 | new[j + 1], li)
        for key in changed:
            if counts[key]:
                heapq.heappush(heap, entry(key))
            else:
                del counts[key]
                where.pop(key, None)
        changed.clear()
        if len(heap) > 2 * len(counts):  # more stale entries than live ones
            heap = [entry(key) for key in counts]
            heapq.heapify(heap)

    id_counts = Counter()
    for line in lines:
        id_counts.update(line)
    return BpeModel(merges=merges, vocab=Counter({spelled[sid]: c for sid, c in id_counts.items()}))


def extract_lexicon(model: BpeModel) -> list[tuple[str, int]]:
    """Multi-character subwords with frequencies, most frequent first."""
    entries = [(sym, c) for sym, c in model.vocab.items() if len(sym) >= 2]
    entries.sort(key=lambda e: (-e[1], e[0]))
    return entries


def save_bpe_model(model: BpeModel, path) -> None:
    write_lines(path, [f"{MODEL_MAGIC} {model.merge_count}", *map("\t".join, model.merges)])


def save_lexicon(entries: Iterable[tuple[str, int]], path) -> None:
    write_lines(path, (f"{sym}\t{freq}" for sym, freq in entries))
