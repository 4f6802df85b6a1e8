"""Text file I/O, corpus ingestion, BMES label handling, vocabularies, and embedding tables.

Every text file latseg reads or writes goes through :func:`read_lines` and
:func:`write_lines`: UTF-8, one line per record, each ended by a newline. A
byte-order mark that starts a file is not part of its first line. Files are
read in blocks of whole lines, :data:`INGEST_BLOCK` bytes and the rest of the
line they end in, and written :data:`BLOCK` lines at a time.

Corpus format: UTF-8 text, one sentence per line, words separated by single
spaces. A line with words and any other whitespace is refused; a line of only
whitespace (spaces, tabs, U+3000, a lone CR and the like) is skipped as blank.
Characters are Unicode scalar values (no grapheme clustering). A read sentence
is two strings, its characters and their BMES labels. :func:`read_corpus` and
:func:`build_vocabs` work on a block's UTF-32 code points with no Python call
per character, and every temporary they make is block-sized. Functions that
take a sentence's characters accept a ``str`` or any sequence of
one-character strings.

Labels become words by one rule, :func:`word_ends`: a word ends at position
i when label i is neither B nor M, or label i+1 is neither M nor E, or i is
the last position of its sentence. :func:`from_bmes`, :func:`word_set` and
the evaluation in :mod:`latseg.train` apply it to a whole corpus at once.
"""

from __future__ import annotations

import codecs
import re
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, compress, islice, repeat
from operator import add
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError, FormatError
from .tensor import Tensor, uniform

LABELS = ("B", "M", "E", "S")
LABEL_INDEX = {lab: i for i, lab in enumerate(LABELS)}
_LABEL_BYTES = np.frombuffer(b"MEBS", np.uint8)  # a label by 2 * (word break before) + (word break after)
_LABEL_BREAKS = np.full(ord("S") + 2, 3, np.uint8)  # its inverse, by code point: any other label is an S
_LABEL_BREAKS[_LABEL_BYTES] = range(len(_LABEL_BYTES))
UNK = "<unk>"
SENTINEL = "</s>"  # closes the final character bigram
RESERVED = (UNK, SENTINEL)  # the first rows of every vocabulary, in this order
_OTHER_SPACE = re.compile(r"[^\S ]")  # whitespace other than the word separator
_SPACE = re.compile(r"\s")


def _text(chars: Sequence[str]) -> str:
    """``chars`` as one string: a ``str`` as it is, a sequence of one-character strings joined."""
    return chars if isinstance(chars, str) else "".join(chars)


def _codes(text: str) -> np.ndarray:
    """The code points of ``text``, lone surrogates included, as one array."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), "<u4")


@dataclass(slots=True)
class LabeledSentence:
    """A sentence's characters and its BMES tags, one per character, each held as one string."""

    chars: str
    labels: str

    def __post_init__(self):
        if type(self.chars) is not str or type(self.labels) is not str:
            self.chars, self.labels = _text(self.chars), _text(self.labels)
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
    if "" in words:
        raise DataError("empty word")
    return LabeledSentence("".join(words), "".join(map(_word_labels, map(len, words))))


@lru_cache(maxsize=64)
def _word_labels(n: int) -> str:
    """The BMES labels of an n-character word, one letter each."""
    return "S" if n == 1 else "B" + "M" * (n - 2) + "E"


def word_ends(labels: str, lengths: Sequence[int]) -> np.ndarray:
    """Whether a word ends at each position of ``labels``, the joined labels of sentences ``lengths`` long.

    A word ends at position i when label i is neither B nor M, or label i+1
    is neither M nor E, or i is the last position of its sentence. This
    repairs an invalid sequence: a leading M acts as B, a dangling E as S,
    and any other label as S, so the words always partition each sentence.
    """
    breaks = _LABEL_BREAKS.take(_codes(labels + "S"), mode="clip")  # each label's, and one past the end
    breaks[np.cumsum(lengths, dtype=np.intp)] |= 2  # a break before each sentence's first position
    return (breaks[:-1] & 1 | breaks[1:] >> 1).astype(bool)


def _split(text: str, ends: np.ndarray) -> list[str]:
    """``text`` cut after each position where ``ends`` holds."""
    stops = (np.flatnonzero(ends) + 1).tolist()
    return [text[start:stop] for start, stop in zip([0, *stops], stops)]


def from_bmes(chars: Sequence[str], labels: Sequence[str]) -> list[str]:
    """Inverse of :func:`to_bmes`, repairing invalid labels as :func:`word_ends` does; a label must be one letter."""
    text, labels = _text(chars), _text(labels)
    if len(text) != len(labels):
        raise DataError(f"{len(text)} chars but {len(labels)} labels")
    return _split(text, word_ends(labels, [len(labels)]))


def gold_words(sentences: Iterable[LabeledSentence]) -> tuple[list[str], np.ndarray]:
    """The words of ``sentences`` in order, and :func:`word_ends` of their joined labels."""
    sentences = list(sentences)
    ends = word_ends("".join(s.labels for s in sentences), [len(s.chars) for s in sentences])
    return _split("".join(s.chars for s in sentences), ends), ends


class Vocab:
    """Dense symbol -> index map; index 0 is the unknown symbol.

    Symbols are numbered in order of first appearance, after :data:`RESERVED`,
    and iterate in that order. ``symbols`` is read once, so a file can be
    streamed into it.
    """

    def __init__(self, symbols: Iterable[str] = ()):
        self._index: dict[str, int] = dict.fromkeys(chain(RESERVED, symbols))
        for i, sym in enumerate(self._index):  # numbered in place: no second dict
            self._index[sym] = i

    def index(self, sym: str) -> int:
        return self._index.get(sym, 0)

    def ids(self, symbols: Iterable[str]) -> np.ndarray:
        """The index of each of ``symbols``, as one array."""
        return np.fromiter(map(self._index.get, symbols, repeat(0)), np.intp)

    def __contains__(self, sym: str) -> bool:
        return sym in self._index

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)


_SENTINEL_ROW = RESERVED.index(SENTINEL)  # a sentence's last bigram pairs its character with this row
_STOP = np.iinfo(np.int64).max  # the last key of every BigramIndex, above every pair's
_HEAD = len(SENTINEL) + 1  # code points that BigramIndex.keys_of reads from each symbol
_SENTINEL_CODES = np.array([ord(c) for c in SENTINEL])
BLOCK = 1 << 14  # bigrams converted to or from strings, or lines written, at a time
INGEST_BLOCK = 1 << 16  # bytes read from a text file, or characters indexed by build_vocabs, at a time
_POS = 21  # bits of a position in a packed (key, position) integer: a span of keys is 2**21 long
_CODE = 1 << 21  # above every code point and every unigram row
_NONE = np.array([_STOP])  # an empty sorted key set: only its stop entry


def _with_rows(table: np.ndarray, codes: np.ndarray, rows) -> np.ndarray:
    """``table`` of a row per code point, grown to hold ``codes`` if needed, with ``codes`` given ``rows``.

    Its last entry, row 0, stands for every code point above, so a lookup
    takes it with ``mode="clip"``.
    """
    size = int(codes.max(initial=0)) + 2
    if size > len(table):
        table = np.concatenate([table, np.zeros(size - len(table), table.dtype)])
    table[codes] = rows
    return table


class BigramIndex:
    """Character bigram -> row, keyed by the unigram rows of its two characters.

    The bigram c_i c_{i+1} is the pair (left, right) of the characters'
    unigram rows, where right is the sentinel's row, 1, after a sentence's
    last character; its key is ``left * len(unigrams) + right``. ``keys``
    holds every bigram's key in ascending order and ``rows`` its row, and both
    end in a stop entry (a key above every pair's, row 0), so that
    :meth:`lookup` finds a batch's rows with one ``searchsorted`` and gives a
    pair never seen the unknown row. Rows are numbered as in a :class:`Vocab`:
    :data:`RESERVED`, then bigrams in order of first appearance. As a string a
    bigram is its two characters, or one and :data:`SENTINEL`; :meth:`index`,
    ``in`` and iteration read and give that form, and :meth:`keys_of` parses it
    in bulk.
    """

    def __init__(self, unigrams: Vocab, keys: np.ndarray):
        """The index of ``keys``, one per bigram in row order; a repeated key raises DataError."""
        order = np.argsort(keys)
        self.unigrams = unigrams
        self.keys = np.empty(len(keys) + 1, keys.dtype)
        self.keys[-1] = _STOP
        keys.take(order, out=self.keys[:-1], mode="clip")  # order is a permutation: no index to check
        self.rows = np.empty(len(keys) + 1, order.dtype)
        self.rows[-1] = 0
        np.add(order, len(RESERVED), out=self.rows[:-1])
        if np.any(self.keys[1:] == self.keys[:-1]):
            raise DataError("a bigram is listed twice")

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """The row of each of ``keys``: 0 for one the index does not hold."""
        at = self.keys.searchsorted(keys)
        found = self.rows[at]
        found[self.keys[at] != keys] = 0
        return found

    def rows_of(self, sentences: Sequence[Sequence[str]], ids: np.ndarray) -> np.ndarray:
        """The bigram row at each position of ``sentences``, whose characters' unigram rows are ``ids``."""
        return self.lookup(_pair_keys(sentences, ids, len(self.unigrams)))

    def _key(self, sym: str) -> int:
        """``sym``'s key, or -1 if it is not two unigram characters or one and :data:`SENTINEL`."""
        if len(sym) == 2 or (len(sym) == _HEAD and sym.endswith(SENTINEL)):
            left, right = self.unigrams.index(sym[0]), self.unigrams.index(sym[1:])
            if left and right:
                return left * len(self.unigrams) + right
        return -1

    def index(self, sym: str) -> int:
        if sym in RESERVED:
            return RESERVED.index(sym)
        key = self._key(sym)
        at = self.keys.searchsorted(key)
        return int(self.rows[at]) if self.keys[at] == key else 0

    def __contains__(self, sym: str) -> bool:
        return sym in RESERVED or self.index(sym) != 0

    def __len__(self) -> int:
        return len(RESERVED) + len(self.keys) - 1

    def __iter__(self) -> Iterator[str]:
        """Each row's bigram as a string, :data:`BLOCK` rows converted at a time."""
        yield from RESERVED
        in_rows = np.empty_like(self.keys[:-1])
        in_rows[self.rows[:-1] - len(RESERVED)] = self.keys[:-1]
        syms = list(self.unigrams)  # row 1 is SENTINEL, a sentence-final bigram's right side
        for start in range(0, len(in_rows), BLOCK):
            left, right = np.divmod(in_rows[start : start + BLOCK], len(self.unigrams))
            yield from map(add, map(syms.__getitem__, left.tolist()), map(syms.__getitem__, right.tolist()))

    @staticmethod
    def keys_of(unigrams: Vocab, symbols: Iterable[str]) -> np.ndarray:
        """The key of each of ``symbols`` over ``unigrams``, as :meth:`_key` gives it, in bulk.

        It reads :data:`BLOCK` symbols at a time, the first code points of each
        from one UTF-32 copy of their concatenation, and each character's row
        from a table indexed by code point, whose last entry (row 0) stands for
        every code point above.
        """
        code = {ord(sym): row for row, sym in enumerate(unigrams) if len(sym) == 1}
        row_of = _with_rows(np.zeros(1, np.intp), np.fromiter(code, np.int64, len(code)), list(code.values()))
        symbols, keys = iter(symbols), [np.empty(0, np.int64)]
        for block in iter(lambda: list(islice(symbols, BLOCK)), []):
            size = np.fromiter(map(len, block), np.intp, len(block))
            text = _codes("".join(block) + "\0" * _HEAD)
            head = text[(np.cumsum(size) - size)[:, None] + np.arange(_HEAD)]
            left, right = row_of.take(head[:, :2], mode="clip").T
            end = (size == _HEAD) & (head[:, 1:] == _SENTINEL_CODES).all(axis=1)
            right[end] = _SENTINEL_ROW
            ok = ((size == 2) | end) & (left != 0) & (right != 0)
            keys.append(np.where(ok, left * len(unigrams) + right, -1))
        return np.concatenate(keys)



def _pair_keys(sentences: Sequence[Sequence[str]], ids: np.ndarray, n: int) -> np.ndarray:
    """The bigram key at each position of ``sentences``, whose characters' unigram rows are ``ids``."""
    keys = ids * n
    keys[:-1] += ids[1:]  # the right side is the next character's row,
    keys[-1:] += _SENTINEL_ROW  # or the sentinel's after the last character
    if len(sentences) > 1:  # and after every other sentence's last
        starts = np.cumsum([len(s) for s in sentences if s][:-1], dtype=np.intp)
        keys[starts - 1] += _SENTINEL_ROW - ids[starts]
    return keys


def _unseen(keys: np.ndarray, seen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values of ``keys`` that ``seen`` lacks, in order of first appearance, and ``seen`` with them.

    ``keys`` are below 2**42 and ``seen`` is sorted, ending in a stop entry.
    A span of keys finds each value's first position with one sort of
    (key, position) packed into one ``int64``.
    """
    fresh = [keys[:0]]
    for start in range(0, len(keys), 1 << _POS):
        span = keys[start : start + (1 << _POS)]
        packed = np.left_shift(span, _POS, dtype=np.int64)
        packed |= np.arange(len(span))
        packed.sort()
        key = packed >> _POS
        head = np.ones(len(key), bool)  # the first (lowest position) entry of each key
        np.not_equal(key[1:], key[:-1], out=head[1:])
        key, at = key[head], packed[head] & ((1 << _POS) - 1)
        where = seen.searchsorted(key)
        new = seen[where] != key
        seen = np.insert(seen, where[new], key[new])
        first = np.zeros(len(span), bool)
        first[at[new]] = True
        fresh.append(span[first])
    return np.concatenate(fresh), seen


def _sentence_blocks(corpus: Iterable[Sequence[str]]) -> Iterator[list[str]]:
    """The sentences of ``corpus`` as strings, in lists of :data:`INGEST_BLOCK` characters or more (the last, fewer)."""
    block, size = [], 0
    for text in map(_text, corpus):
        block.append(text)
        size += len(text)
        if size >= INGEST_BLOCK:
            yield block
            block, size = [], 0
    if block:
        yield block


def build_vocabs(corpus: Iterable[Sequence[str]]) -> tuple[Vocab, BigramIndex]:
    """The unigram vocabulary and the bigram index of an iterable of char sequences.

    It goes through ``corpus`` once, a block of sentences at a time, on the
    block's code points. A code point -> row table numbers the characters
    the block meets first, and the bigram keys it has not met before, kept
    as ``left * 2**21 + right`` in one sorted array, are numbered in order.
    """
    table = np.zeros(1, np.intp)  # each character's unigram row, by code point
    chars = [np.empty(0, np.int64)]  # code points in row order, a block at a time
    seen, bigrams = _NONE, [np.empty(0, np.int64)]  # bigram keys met, and in row order
    for block in _sentence_blocks(corpus):
        codes = _codes("".join(block))
        fresh, _ = _unseen(codes[table.take(codes, mode="clip") == 0], _NONE)
        table = _with_rows(table, fresh, np.arange(len(fresh)) + sum(map(len, chars)) + len(RESERVED))
        chars.append(fresh)
        keys = _pair_keys(block, table[codes], _CODE)
        del codes  # block-sized: gone before the sort of the block's keys
        fresh, seen = _unseen(keys, seen)
        bigrams.append(fresh)
    if len(bigrams) == 1:  # no block: not one sentence
        raise DataError("cannot build vocabularies from an empty corpus")
    unigrams = Vocab(np.concatenate(chars).astype("<u4").tobytes().decode("utf-32-le", "surrogatepass"))
    del seen, table  # from here at most two index-sized arrays are alive beside the index returned
    keys = np.concatenate(bigrams)
    del bigrams
    keys -= keys // _CODE * (_CODE - len(unigrams))  # left * 2**21 + right -> left * len(unigrams) + right
    return unigrams, BigramIndex(unigrams, keys)


@dataclass
class EmbeddingTable:
    """A vocabulary plus one trainable vector per symbol."""

    vocab: Vocab | BigramIndex
    rows: Tensor  # (len(vocab), dim)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @classmethod
    def random(
        cls,
        vocab: Vocab | BigramIndex,
        dim: int,
        rng: np.random.Generator,
        dtype=np.float64,
        name: str = "embeddings",
    ) -> "EmbeddingTable":
        return cls(vocab=vocab, rows=uniform(rng, (len(vocab), dim), dim, dtype, name))


def load_embeddings(
    path,
    vocab: Vocab | BigramIndex,
    dim: int,
    rng: np.random.Generator,
    dtype=np.float64,
    name: str = "embeddings",
) -> EmbeddingTable:
    """Load whitespace-separated "token v_1 ... v_d" rows into a table.

    Tokens present in the file get the file vector; everything else keeps a
    random row in [-sqrt(3/d), sqrt(3/d)]. A leading count/dim header line is
    tolerated. A row with the wrong dimension, or a vocabulary token's row with
    a value that is not finite, raises FormatError naming the row.
    """
    table = EmbeddingTable.random(vocab, dim, rng, dtype=dtype, name=name)
    for lineno, line in enumerate(read_lines(path), start=1):
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
            if not np.isfinite(vec).all():
                raise FormatError(f"{path}: row {lineno}: {token} has a value that is not finite")
            table.rows.data[vocab.index(token)] = vec
    return table


def _line_blocks(path) -> Iterator[str]:
    """The text of ``path`` in blocks of whole lines, each line ended by a line feed.

    A block is :data:`INGEST_BLOCK` bytes and the rest of the line they end
    in, so a long line comes whole, in one block. The rules of
    :func:`read_lines` hold: a byte-order mark that starts the file is
    dropped, so is one CR before each line feed and at the end of the file,
    and bytes that are not UTF-8 raise a DataError naming the file.
    """
    try:
        with open(path, "rb") as fh:
            if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:  # utf-8-sig would read a cut BOM as empty
                fh.seek(0)
            for chunk in iter(partial(fh.read, INGEST_BLOCK), b""):
                text = (chunk + fh.readline()).decode("utf-8").replace("\r\n", "\n")
                yield text if text.endswith("\n") else text.removesuffix("\r") + "\n"  # the file's last line
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None


def read_lines(path) -> Iterator[str]:
    """Each line of the UTF-8 text file ``path``, without its line feed.

    A byte-order mark (U+FEFF) at the start of the file is dropped, so a file
    saved with one reads as the same file without it. A line ends at a line
    feed only, and one CR at its end is dropped, so CR LF files read the
    same. A CR anywhere else stays in its line, as do the other boundaries of
    ``str.splitlines()``, such as U+2028. Bytes that are not UTF-8 raise a
    DataError naming the file. The codec's message says where in its block
    the bad byte is, not on which line.
    """
    for block in _line_blocks(path):
        yield from block.split("\n")[:-1]


def write_lines(path, lines: Iterable[str]) -> None:
    """Write each of ``lines`` and a newline to ``path`` as UTF-8, :data:`BLOCK` lines per write."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8") as fh:
        for block in iter(lambda: list(islice(lines, BLOCK)), []):
            block.append("")
            fh.write("\n".join(block))


# Whitespace other than the word separator and the line feed, by code point
# (every whitespace code point is below U+3001); the last entry stands for every code point above.
_OTHER_SPACES = np.array([c not in (10, 32) and chr(c).isspace() for c in range(0x3002)])


def _refusal(line: str) -> str:
    """Why a corpus line with words is refused: the first other whitespace, or an empty word."""
    other = _OTHER_SPACE.search(line)
    return f"U+{ord(other[0]):04X} is not a single space between words" if other else "empty word"


def read_corpus(path) -> list[LabeledSentence]:
    """Parse a segmented corpus file into labeled sentences.

    Each block of whole lines (see :func:`read_lines`) is one array of code
    points. A line with a character that is not whitespace holds words: if it
    holds whitespace other than single spaces between them, the first such
    line is refused with its number. Every other line is blank and skipped.
    A character's label is B, M, E or S by whether a space or line feed comes
    before it and after it.
    """
    sentences: list[LabeledSentence] = []
    lines = 0  # in the blocks before
    for block in _line_blocks(path):
        codes = _codes(block)
        space, feed = codes == ord(" "), codes == ord("\n")
        other = _OTHER_SPACES.take(codes, mode="clip")
        breaks = np.concatenate([[True], space | feed, [True]])  # a line starts the block
        ends = np.flatnonzero(feed)
        starts = np.concatenate([[0], ends[:-1] + 1])
        worded = np.logical_or.reduceat(~(breaks[1:-1] | other), starts)
        stray = np.flatnonzero(other | space & (breaks[:-2] | breaks[2:]))  # not one space between words
        refused = stray[worded[ends.searchsorted(stray)]]
        if refused.size:
            line = ends.searchsorted(refused[0])
            why = _refusal(block[starts[line] : ends[line]])
            raise DataError(f"{path}: line {lines + line + 1}: {why}")
        lines += len(ends)
        labels = _LABEL_BYTES[2 * breaks[:-2] + breaks[2:]]
        labels[ends] = ord("\n")
        chars = compress(block.replace(" ", "").split("\n"), worded)
        tags = compress(labels[~space].tobytes().decode("ascii").split("\n"), worded)
        sentences += map(LabeledSentence, chars, tags)
    return sentences


def check_raw_lines(path, lines: Iterable[str]) -> None:
    """Refuse whitespace in unsegmented text: joined by spaces, its words would read back split."""
    for lineno, text in enumerate(lines, start=1):
        space = _SPACE.search(text)
        if space:
            raise DataError(f"{path}: line {lineno}: U+{ord(space[0]):04X} in raw text")


def word_set(sentences: Iterable[LabeledSentence]) -> set[str]:
    """All distinct gold words in a dataset (the training vocabulary for OOV)."""
    return set(gold_words(sentences)[0])
