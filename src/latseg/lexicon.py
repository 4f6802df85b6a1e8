"""Lexicon prefix map and exhaustive subsequence matching.

A match is a sentence span (b, e), 1-based and inclusive, whose characters
spell a lexicon entry. Only multi-character entries participate: single
characters already flow through the character path of the encoder. The
trie is one flat dict holding each entry and every shorter prefix of one;
matching extends one key per start position and stops at the first key the
dict lacks. A sentence's matches are three parallel index arrays in (b, e)
order. The trie is also the lexicon table's vocabulary: entry k is row k + 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .data import RESERVED, check_raw_lines, read_lines


class Trie:
    """Immutable after build: ``prefixes`` maps each entry to its id, each shorter prefix to -1."""

    def __init__(self):
        self.symbols: list[str] = []  # entry id -> symbol
        self.prefixes: dict[str, int] = {}

    def index(self, sym: str) -> int:
        """``sym``'s lexicon row: its entry id + len(RESERVED), a reserved row, or 0 for anything else."""
        entry = self.prefixes.get(sym, -1)
        return entry + len(RESERVED) if entry >= 0 else RESERVED.index(sym) if sym in RESERVED else 0

    def __contains__(self, sym: str) -> bool:
        return sym in RESERVED or self.prefixes.get(sym, -1) >= 0

    def __len__(self) -> int:
        return len(RESERVED) + len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return chain(RESERVED, self.symbols)


def build_trie(symbols: Iterable[str]) -> Trie:
    """Trie containing exactly the multi-character input symbols, deduplicated, except :data:`RESERVED`."""
    trie = Trie()
    for sym in symbols:
        if len(sym) < 2 or trie.prefixes.get(sym, -1) >= 0 or sym in RESERVED:
            continue
        for k in range(1, len(sym)):
            trie.prefixes.setdefault(sym[:k], -1)
        trie.prefixes[sym] = len(trie.symbols)
        trie.symbols.append(sym)
    return trie


@dataclass(frozen=True)
class LatticeMatchSet:
    """Every lexicon subsequence of one sentence: match k spans b[k]..e[k] and spells entry[k]."""

    b: np.ndarray  # (k,) start, 1-based
    e: np.ndarray  # (k,) end, 1-based inclusive
    entry: np.ndarray  # (k,) trie entry id

    def __len__(self) -> int:
        return len(self.b)


def match_sentence(
    trie: Trie, chars: Sequence[str], max_len: int | None = None
) -> LatticeMatchSet:
    """Extend one key from every start position, emitting a match per entry it spells.

    Equivalent to scanning all O(n^2) substrings against the lexicon. The
    optional max_len caps match length to bound lattice density.
    """
    m = len(chars)
    spans = []
    for b0 in range(m):
        key = ""
        for j in range(b0, m if max_len is None else min(m, b0 + max_len)):
            key += chars[j]
            entry = trie.prefixes.get(key)
            if entry is None:
                break
            if entry >= 0:
                spans.append((b0 + 1, j + 1, entry))
    return LatticeMatchSet(*np.array(spans, np.intp).reshape(-1, 3).T)


def read_lexicon(path) -> list[str]:
    """One symbol per line; an optional tab-separated frequency is ignored.

    A symbol holding whitespace is refused with its line: no raw text holds
    any, and a checkpoint's ``lexicon.vocab`` would not read it back.
    """
    symbols = [raw.split("\t", 1)[0] for raw in read_lines(path)]
    check_raw_lines(path, symbols)
    return [symbol for symbol in symbols if symbol]
