"""Trie over lexicon symbols and exhaustive subsequence matching.

A match is a sentence span (b, e), 1-based and inclusive, whose characters
spell a lexicon entry. Only multi-character entries participate: single
characters already flow through the character path of the encoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


class TrieNode:
    __slots__ = ("children", "entry")

    def __init__(self):
        self.children: dict[str, TrieNode] = {}
        self.entry: int | None = None  # lexicon entry id at terminal nodes


class Trie:
    """Immutable-after-build prefix tree; terminals carry dense entry ids."""

    def __init__(self):
        self.root = TrieNode()
        self.symbols: list[str] = []  # entry id -> symbol
        self.rejected_short = 0  # length-1 inputs refused at build time

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        node = self.root
        for ch in symbol:
            node = node.children.get(ch)
            if node is None:
                return False
        return node.entry is not None

    def insert(self, symbol: str) -> int | None:
        if len(symbol) < 2:
            self.rejected_short += 1
            return None
        node = self.root
        for ch in symbol:
            nxt = node.children.get(ch)
            if nxt is None:
                nxt = TrieNode()
                node.children[ch] = nxt
            node = nxt
        if node.entry is None:
            node.entry = len(self.symbols)
            self.symbols.append(symbol)
        return node.entry


def build_trie(symbols: Iterable[str]) -> Trie:
    """Trie containing exactly the multi-character input symbols, deduplicated."""
    trie = Trie()
    for sym in symbols:
        trie.insert(sym)
    return trie


@dataclass(frozen=True)
class Match:
    b: int  # start, 1-based
    e: int  # end, 1-based inclusive
    entry: int


@dataclass
class LatticeMatchSet:
    """Every lexicon subsequence of one sentence, indexed by end and by start position."""

    length: int
    matches: list[Match] = field(default_factory=list)
    by_end: dict[int, list[Match]] = field(default_factory=dict)
    by_start: dict[int, list[Match]] = field(default_factory=dict)

    def add(self, match: Match) -> None:
        self.matches.append(match)
        self.by_end.setdefault(match.e, []).append(match)
        self.by_start.setdefault(match.b, []).append(match)

    def __len__(self) -> int:
        return len(self.matches)


def match_sentence(
    trie: Trie, chars: Sequence[str], max_len: int | None = None
) -> LatticeMatchSet:
    """Walk the trie from every start position, emitting a match per terminal.

    Equivalent to scanning all O(n^2) substrings against the lexicon. The
    optional max_len caps match length to bound lattice density.
    """
    m = len(chars)
    out = LatticeMatchSet(length=m)
    for b0 in range(m):
        node = trie.root
        limit = m if max_len is None else min(m, b0 + max_len)
        for j in range(b0, limit):
            node = node.children.get(chars[j])
            if node is None:
                break
            if node.entry is not None:
                out.add(Match(b=b0 + 1, e=j + 1, entry=node.entry))
    return out


def read_lexicon(path) -> list[str]:
    """One symbol per line; an optional tab-separated frequency is ignored."""
    symbols: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            raw = line.rstrip("\n").rstrip("\r")
            if not raw:
                continue
            symbols.append(raw.split("\t", 1)[0])
    return symbols
