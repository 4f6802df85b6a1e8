"""Corpus ingestion, BMES label handling, vocabularies, and embedding tables.

Corpus format: UTF-8 text, one sentence per line, words separated by single
spaces; blank lines are skipped. Characters are Unicode scalar values (no
grapheme clustering).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, FormatError
from .tensor import Tensor, param

LABELS = ("B", "M", "E", "S")
LABEL_INDEX = {lab: i for i, lab in enumerate(LABELS)}
UNK = "<unk>"
SENTINEL = "</s>"  # closes the final character bigram
RESERVED = (UNK, SENTINEL)  # the first rows of every vocabulary, in this order


@dataclass
class LabeledSentence:
    """A character sequence with one BMES tag per character."""

    chars: tuple[str, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.chars) != len(self.labels) or not self.chars:
            raise DataError(
                f"sentence needs equal, non-zero char/label counts: "
                f"{len(self.chars)} chars vs {len(self.labels)} labels"
            )

    def __len__(self) -> int:
        return len(self.chars)

    def words(self) -> list[str]:
        return from_bmes(self.chars, self.labels)


def to_bmes(words: Sequence[str]) -> LabeledSentence:
    """Label a word sequence: 1-char word -> S, k-char word -> B M*(k-2) E."""
    chars: list[str] = []
    labels: list[str] = []
    for w in words:
        if not w:
            raise DataError("empty word")
        chars.extend(w)
        if len(w) == 1:
            labels.append("S")
        else:
            labels.append("B")
            labels.extend("M" * (len(w) - 2))
            labels.append("E")
    return LabeledSentence(tuple(chars), tuple(labels))


def label_spans(labels: Sequence[str]) -> list[tuple[int, int]]:
    """Word spans (1-based, inclusive) decoded from a BMES sequence.

    Invalid transitions are repaired: a label that cannot legally continue
    the current word closes it and opens a new one, so a leading M acts as B
    and a dangling E acts as S. The result always partitions 1..m.
    """
    spans: list[tuple[int, int]] = []
    start = 0  # 1-based start of the open word, 0 when none is open
    for i, lab in enumerate(labels, start=1):
        if lab == "B":
            if start:
                spans.append((start, i - 1))
            start = i
        elif lab == "M":
            if not start:
                start = i
        elif lab == "E":
            spans.append((start or i, i))
            start = 0
        else:  # S
            if start:
                spans.append((start, i - 1))
            spans.append((i, i))
            start = 0
    if start:
        spans.append((start, len(labels)))
    return spans


def from_bmes(chars: Sequence[str], labels: Sequence[str]) -> list[str]:
    """Inverse of :func:`to_bmes`; invalid label sequences are repaired."""
    if len(chars) != len(labels):
        raise DataError(f"{len(chars)} chars but {len(labels)} labels")
    return ["".join(chars[b - 1 : e]) for b, e in label_spans(labels)]


class Vocab:
    """Dense symbol -> index map; index 0 is the unknown symbol."""

    def __init__(self):
        self._index: dict[str, int] = {}
        for sym in RESERVED:
            self.add(sym)

    def add(self, sym: str) -> int:
        idx = self._index.get(sym)
        if idx is None:
            idx = len(self._index)
            self._index[sym] = idx
        return idx

    def index(self, sym: str) -> int:
        return self._index.get(sym, 0)

    def __contains__(self, sym: str) -> bool:
        return sym in self._index

    def __len__(self) -> int:
        return len(self._index)

    def symbols(self) -> list[str]:
        return list(self._index)

    @classmethod
    def from_symbols(cls, symbols: Iterable[str]) -> "Vocab":
        v = cls()
        for s in symbols:
            v.add(s)
        return v


def bigrams_of(chars: Sequence[str]) -> list[str]:
    """Bigram keys c_i c_{i+1} for every position; the last pairs with the sentinel."""
    m = len(chars)
    return [chars[i] + (chars[i + 1] if i + 1 < m else SENTINEL) for i in range(m)]


def build_vocabs(corpus: Iterable[Sequence[str]]) -> tuple[Vocab, Vocab]:
    """Unigram and bigram vocabularies over an iterable of char sequences."""
    unigrams = Vocab()
    bigrams = Vocab()
    empty = True
    for chars in corpus:
        empty = False
        for c in chars:
            unigrams.add(c)
        for bg in bigrams_of(chars):
            bigrams.add(bg)
    if empty:
        raise DataError("cannot build vocabularies from an empty corpus")
    return unigrams, bigrams


@dataclass
class EmbeddingTable:
    """A vocabulary plus one trainable vector per symbol."""

    vocab: Vocab
    rows: Tensor
    dim: int
    file_hits: int = 0  # vocab entries that received a pretrained vector

    @classmethod
    def random(
        cls,
        vocab: Vocab,
        dim: int,
        rng: np.random.Generator,
        dtype=np.float64,
        name: str = "embeddings",
    ) -> "EmbeddingTable":
        bound = math.sqrt(3.0 / dim)
        data = rng.uniform(-bound, bound, size=(len(vocab), dim)).astype(dtype)
        return cls(vocab=vocab, rows=param(data, name), dim=dim)


def load_embeddings(
    path,
    vocab: Vocab,
    dim: int,
    rng: np.random.Generator,
    dtype=np.float64,
    name: str = "embeddings",
) -> EmbeddingTable:
    """Load whitespace-separated "token v_1 ... v_d" rows into a table.

    Tokens present in the file get the file vector; everything else keeps a
    random row in [-sqrt(3/d), sqrt(3/d)]. A leading count/dim header line is
    tolerated. Rows with the wrong dimension raise FormatError naming the row.
    """
    table = EmbeddingTable.random(vocab, dim, rng, dtype=dtype, name=name)
    hits = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2 and all(p.lstrip("-").isdigit() for p in parts):
                continue  # "count dim" header
            if len(parts) - 1 != dim:
                raise FormatError(
                    f"{path}: row {lineno}: expected {dim} values, got {len(parts) - 1}"
                )
            token = parts[0]
            if token in vocab:
                try:
                    vec = np.array([float(v) for v in parts[1:]], dtype=dtype)
                except ValueError as exc:
                    raise FormatError(f"{path}: row {lineno}: {exc}") from None
                table.rows.data[vocab.index(token)] = vec
                hits += 1
    table.file_hits = hits
    return table


def read_corpus(path) -> list[LabeledSentence]:
    """Parse a segmented corpus file into labeled sentences."""
    sentences: list[LabeledSentence] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            raw = line.rstrip("\n").rstrip("\r")
            if not raw.strip():
                continue
            words = raw.split(" ")
            try:
                sentences.append(to_bmes(words))
            except DataError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from None
    return sentences


def read_raw_sentences(path) -> list[str]:
    """Unsegmented input, one sentence per line; empty lines are preserved."""
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").rstrip("\r") for line in fh]


def word_set(sentences: Iterable[LabeledSentence]) -> set[str]:
    """All distinct gold words in a dataset (the training vocabulary for OOV)."""
    seen: set[str] = set()
    for s in sentences:
        seen.update(s.words())
    return seen
