"""Data pipeline: BMES conversion, repair, vocabularies, embedding loading."""

import math
import re
import sys
import tracemalloc
from itertools import chain, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latseg import data as data_module
from latseg.data import (
    INGEST_BLOCK,
    RESERVED,
    SENTINEL,
    UNK,
    BigramIndex,
    EmbeddingTable,
    LabeledSentence,
    Vocab,
    build_vocabs,
    from_bmes,
    load_embeddings,
    read_corpus,
    read_lines,
    to_bmes,
    word_ends,
    word_set,
)
from latseg.errors import DataError, FormatError


def write_zipf_corpus(path, sentences: int, seed: int, letters: int = 300):
    """A seeded corpus of Zipf-distributed words over ``letters`` CJK characters, and its character count."""
    rng = np.random.default_rng(seed)
    lengths = rng.choice([1, 2, 3, 4], size=1000, p=[0.3, 0.45, 0.15, 0.1])
    vocab = ["".join(map(chr, 0x4E00 + rng.integers(0, letters, size=k))) for k in lengths]
    weights = 1.0 / (np.arange(len(vocab)) + 4.0)
    counts = rng.integers(5, 15, size=sentences)
    picks = rng.choice(len(vocab), size=int(counts.sum()), p=weights / weights.sum())
    lines = [" ".join(vocab[i] for i in chunk) for chunk in np.split(picks, np.cumsum(counts)[:-1])]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path, sum(len(vocab[i]) for i in picks)


words_strategy = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=5), min_size=1, max_size=12
)


def label_spans(labels):
    """Word spans (1-based, inclusive) decoded from a BMES sequence: the
    state machine ``data.from_bmes`` replaced, kept as its reference.

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


class TestToBmes:
    def test_single_char(self):
        assert to_bmes(["人"]).labels == "S"

    def test_two_words(self):
        assert to_bmes(["中国", "人"]).labels == "BES"

    def test_three_char_word(self):
        assert to_bmes(["科学院"]).labels == "BME"

    def test_empty_word_rejected(self):
        with pytest.raises(DataError):
            to_bmes(["中国", ""])


class TestFromBmes:
    def test_inverse(self):
        assert from_bmes("中国人", ("B", "E", "S")) == ["中国", "人"]

    def test_repair_b_closes_open_word(self):
        assert from_bmes("中国人", ("B", "B", "E")) == ["中", "国人"]

    def test_repair_leading_m_promoted(self):
        assert from_bmes("中国人", ("M", "E", "S")) == ["中国", "人"]

    def test_dangling_e_acts_as_s(self):
        assert from_bmes("ab", ("S", "E")) == ["a", "b"]

    def test_trailing_open_word_flushed(self):
        assert from_bmes("abc", ("B", "M", "M")) == ["abc"]

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            from_bmes("ab", ("S",))
        with pytest.raises(DataError, match="^2 chars but 3 labels$"):  # labels are counted joined
            from_bmes("ab", ("BM", "E"))

    @given(words_strategy)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_identity(self, words):
        s = to_bmes(words)
        assert from_bmes(s.chars, s.labels) == words

    @given(
        st.text(alphabet="xyz", min_size=1, max_size=20),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_repair_is_total_partition(self, chars, data):
        labels = data.draw(
            st.lists(
                st.sampled_from("BMES"), min_size=len(chars), max_size=len(chars)
            )
        )
        out = from_bmes(chars, labels)
        assert "".join(out) == chars
        # the words are the runs up to each end, and the last character ends one
        ends = np.flatnonzero(word_ends("".join(labels), [len(labels)]))
        assert ends[-1] == len(chars) - 1
        assert [len(w) for w in out] == np.diff(ends, prepend=-1).tolist()

    def test_repair_matches_the_span_decoder(self):
        # every sequence over BMES and one other label, of length 1 to 6
        count = 0
        for n in range(1, 7):
            chars = "abcdef"[:n]
            for labels in product("BMESX", repeat=n):
                want = [chars[b - 1 : e] for b, e in label_spans(labels)]
                assert from_bmes(chars, labels) == from_bmes(chars, "".join(labels)) == want, labels
                count += 1
        assert count == 19_530

    def test_word_ends_across_sentences(self):
        # a sentence's last position always ends a word, even inside a word's labels
        ends = word_ends("BMMEBM" + "中", [2, 0, 3, 2])
        assert ends.tolist() == [False, True, False, True, True, True, True]
        assert word_ends("", []).tolist() == word_ends("", [0]).tolist() == []


class TestVocab:
    def test_reserved_slots(self):
        v = Vocab()
        assert v.index(UNK) == 0
        assert v.index(SENTINEL) == 1
        assert v.index("missing") == 0

    def test_dense_indices(self):
        v = Vocab(["x", "y", "x"])
        assert [v.index(s) for s in ("x", "y")] == [2, 3]
        assert len(v) == 4
        assert list(v) == [UNK, SENTINEL, "x", "y"]


class TestBuildVocabs:
    def test_two_char_sentence(self):
        uni, bi = build_vocabs(["ab"])
        assert set(uni) == {UNK, SENTINEL, "a", "b"}
        assert set(bi) == {UNK, SENTINEL, "ab", "b" + SENTINEL}

    def test_single_char_sentence(self):
        _, bi = build_vocabs(["a"])
        assert set(bi) == {UNK, SENTINEL, "a" + SENTINEL}

    def test_duplicates_add_nothing(self):
        uni1, bi1 = build_vocabs(["ab", "ab"])
        uni2, bi2 = build_vocabs(["ab"])
        assert list(uni1) == list(uni2)
        assert list(bi1) == list(bi2)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_vocabs([])

    def test_symbols_in_order_of_first_appearance(self):
        uni, bi = build_vocabs(iter(["ba", ("a", "c", "b")]))
        assert list(uni) == [UNK, SENTINEL, "b", "a", "c"]
        assert list(bi) == [UNK, SENTINEL, "ba", "a" + SENTINEL, "ac", "cb", "b" + SENTINEL]

    @given(st.lists(st.text(alphabet="pqr", min_size=1, max_size=9), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_bigram_entries_are_two_symbols(self, corpus):
        _, bi = build_vocabs(corpus)
        for sym in list(bi)[2:]:
            tail = sym.removesuffix(SENTINEL)
            n_symbols = len(tail) + (1 if sym.endswith(SENTINEL) else 0)
            assert n_symbols == 2


class TestBigramIndex:
    @given(
        st.lists(st.text(alphabet="pqr", min_size=1, max_size=6), min_size=1, max_size=8),
        st.lists(st.sampled_from(["", "p", "q", "z", "<", "pq", "qp", "pz", "zp", "rr", "pqr", "p" + SENTINEL,
                                  "z" + SENTINEL, "pq" + SENTINEL, SENTINEL, UNK, "p" + UNK, "p</S>", "p<s/>"]),
                 max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_bulk_keys_are_each_symbols_key(self, corpus, symbols):
        # keys_of parses a checkpoint's bigram.vocab; index parses one token at a time
        uni, bi = build_vocabs(corpus)
        keys = BigramIndex.keys_of(uni, iter(symbols))
        assert keys.tolist() == [bi._key(sym) for sym in symbols]
        rows = bi.lookup(keys).tolist()
        assert rows == [0 if sym in RESERVED else bi.index(sym) for sym in symbols]

    def test_its_symbols_read_back_into_the_same_rows(self):
        uni, bi = build_vocabs(["中国人民", "人", ("国", "民", "中")])
        again = BigramIndex(uni, BigramIndex.keys_of(uni, list(bi)[len(RESERVED) :]))
        assert list(again) == list(bi)
        np.testing.assert_array_equal(again.keys, bi.keys)
        np.testing.assert_array_equal(again.rows, bi.rows)
        assert [bi.index(sym) for sym in bi] == list(range(len(bi)))

    def test_a_repeated_bigram_is_refused(self):
        uni, _ = build_vocabs(["ab"])
        with pytest.raises(DataError, match="listed twice"):
            BigramIndex(uni, BigramIndex.keys_of(uni, ["ab", "b" + SENTINEL, "ab"]))

    def test_an_empty_sentence_has_no_bigram(self):
        uni, bi = build_vocabs(["", "ab", ""])
        assert list(bi) == [UNK, SENTINEL, "ab", "b" + SENTINEL]
        assert bi.rows_of(["", "ab", "", "b", ""], uni.ids("abb")).tolist() == [2, 3, 3]  # ab, b</s>, b</s>


class TestEmbeddings:
    def test_random_rows_within_bound(self, rng):
        v = Vocab(["a", "b"])
        t = EmbeddingTable.random(v, 50, rng)
        bound = math.sqrt(3.0 / 50)
        assert t.rows.data.shape == (len(v), 50)
        assert np.all(np.abs(t.rows.data) <= bound)

    def test_empty_file_all_random(self, tmp_path, rng):
        path = tmp_path / "emb.txt"
        path.write_text("", encoding="utf-8")
        v = Vocab(["a"])
        t = load_embeddings(path, v, 8, rng)
        assert np.all(np.abs(t.rows.data) <= math.sqrt(3.0 / 8))

    def test_file_row_copied_exactly(self, tmp_path, rng):
        vec = [0.1] * 50
        path = tmp_path / "emb.txt"
        path.write_text("中 " + " ".join(str(x) for x in vec) + "\n", encoding="utf-8")
        v = Vocab(["中", "外"])
        t = load_embeddings(path, v, 50, rng)
        np.testing.assert_array_equal(t.rows.data[v.index("中")], np.array(vec))

    def test_header_tolerated(self, tmp_path, rng):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\na 1 2 3\nzz 4 5 6\n", encoding="utf-8")
        v = Vocab(["a"])
        t = load_embeddings(path, v, 3, rng)
        np.testing.assert_array_equal(t.rows.data[v.index("a")], [1.0, 2.0, 3.0])

    def test_a_byte_order_mark_before_the_header_is_dropped(self, tmp_path, rng):
        # the BOM used to join the header's first field, which then read as a 1-value row
        rows = {}
        for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            path = tmp_path / f"{name}.txt"
            path.write_bytes(bom + "2 3\na 1 2 3\nzz 4 5 6\n".encode("utf-8"))
            rows[name] = load_embeddings(path, Vocab(["a"]), 3, np.random.default_rng(0)).rows.data
        np.testing.assert_array_equal(rows["bom"], rows["plain"])

    def test_dimension_mismatch_names_row(self, tmp_path, rng):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2 3\nb 1 2\n", encoding="utf-8")
        with pytest.raises(FormatError, match="row 2"):
            load_embeddings(path, Vocab(["a", "b"]), 3, rng)


class TestCorpusIO:
    def test_read_and_skip_blanks(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("中国 人\n\n人\n", encoding="utf-8")
        sents = read_corpus(path)
        assert len(sents) == 2
        assert sents[0].labels == "BES"
        assert word_set(sents) == {"中国", "人"}

    def test_a_read_corpus_holds_under_16_bytes_per_character(self, tmp_path):
        # each sentence is two strings, its characters and its labels; a
        # tuple of shared one-character strings per sentence held 25 B/char
        path, n_chars = write_zipf_corpus(tmp_path / "corpus.txt", 5000, seed=3)
        tracemalloc.start()
        try:
            corpus = read_corpus(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sum(map(len, corpus)) == n_chars
        assert held / n_chars < 16, held / n_chars

    def test_build_vocabs_peak_above_its_index_does_not_grow_with_the_corpus(self, tmp_path):
        # the temporaries are a block's; whole-corpus key arrays grew 4x with a
        # 4x corpus. Over 3,500 letters, as many as the bigvocab workload draws
        # from, the final key arithmetic and index copies held 3.2x the index;
        # a block's temporaries are most of the 2.1x left
        above = {}
        for sentences, letters in ((5000, 300), (20000, 300), (10000, 3500)):
            path, _ = write_zipf_corpus(tmp_path / f"{sentences}.txt", sentences, seed=3, letters=letters)
            chars = [s.chars for s in read_corpus(path)]
            tracemalloc.start()
            try:
                vocabs = build_vocabs(chars)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            above[letters, sentences] = peak - held
            assert len(vocabs[1]) > 10000
        assert above[300, 20000] < 1.5 * above[300, 5000], above
        assert above[3500, 10000] < 2.5 * held, above[3500, 10000] / held

    def test_double_space_reports_line(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("好 的\n中国  人\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            read_corpus(path)

    @pytest.mark.parametrize(
        "line, code", [("中国\t人", "U+0009"), ("中国\u3000人", "U+3000")], ids=["tab", "u3000"]
    )
    def test_other_whitespace_reports_line(self, tmp_path, line, code):
        # only single spaces separate words; any other whitespace is refused,
        # not read as a character of the word
        path = tmp_path / "corpus.txt"
        path.write_text(f"好 的\n{line}\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"line 2: {code.replace('+', '[+]')}"):
            read_corpus(path)

    def test_a_cr_inside_a_line_reports_the_line(self, tmp_path):
        # a lone CR used to end the line, which split the sentence in two
        path = tmp_path / "corpus.txt"
        path.write_bytes("好 的\r\n中国\r人\n".encode("utf-8"))
        with pytest.raises(DataError, match="line 2: U[+]000D"):
            read_corpus(path)

    def test_a_byte_order_mark_is_not_read_as_a_character(self, tmp_path):
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_bytes("中国 人\n人\n".encode("utf-8"))
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert read_corpus(bom) == read_corpus(plain)
        assert read_corpus(bom)[0].chars == "中国人"

    @pytest.mark.parametrize(
        "line", ["\t", "\u3000", "\u00a0", "   ", "\r ", " \t\u3000"],
        ids=["tab", "u3000", "u00a0", "spaces", "lone-cr", "mixed"],
    )
    def test_a_line_of_only_whitespace_is_skipped_as_blank(self, tmp_path, line):
        # a line with words is refused for the same whitespace, with its line number
        path = tmp_path / "corpus.txt"
        path.write_bytes(f"中国 人\n{line}\n人\n".encode("utf-8"))
        assert read_corpus(path) == [to_bmes(["中国", "人"]), to_bmes(["人"])]
        path.write_bytes(f"中国 人\n{line}人\n".encode("utf-8"))
        with pytest.raises(DataError, match="line 2: "):
            read_corpus(path)

    def test_sentence_invariants(self):
        with pytest.raises(DataError):
            LabeledSentence(("a",), ("B", "E"))
        with pytest.raises(DataError):
            LabeledSentence((), ())

    def test_bigrams_use_sentinel(self):
        uni, bi = build_vocabs(["ab"])
        assert bi.rows_of(["ab"], uni.ids("ab")).tolist() == [bi.index("ab"), bi.index("b" + SENTINEL)] == [2, 3]


class TestReadLines:
    def test_a_line_ends_only_at_a_line_feed(self, tmp_path):
        path = tmp_path / "text.txt"
        path.write_bytes(b"ab\rcd\nef\n")
        assert list(read_lines(path)) == ["ab\rcd", "ef"]

    def test_cr_lf_reads_as_lf(self, tmp_path):
        crlf, lf = tmp_path / "crlf.txt", tmp_path / "lf.txt"
        crlf.write_bytes("中国\r\n\r\nab\rc\r\n人\r".encode("utf-8"))
        lf.write_bytes("中国\n\nab\rc\n人".encode("utf-8"))
        assert list(read_lines(crlf)) == list(read_lines(lf)) == ["中国", "", "ab\rc", "人"]

    def test_a_byte_order_mark_is_dropped_only_where_the_file_starts(self, tmp_path):
        path = tmp_path / "text.txt"
        path.write_bytes("\ufeffab\n\ufeffcd\n".encode("utf-8"))
        assert list(read_lines(path)) == ["ab", "\ufeffcd"]

    @pytest.mark.parametrize("head", [b"\xef", b"\xef\xbb", b"\xef\xbb\n"], ids=["ef", "ef-bb", "ef-bb-lf"])
    def test_a_cut_byte_order_mark_is_not_utf8(self, tmp_path, head):
        # the utf-8-sig decoder held these bytes back as a possible BOM and dropped them at the end
        path = tmp_path / "text.txt"
        path.write_bytes(head)
        with pytest.raises(DataError, match=f"^{path}: 'utf-8' codec can't decode"):
            list(read_lines(path))

    def test_a_line_of_several_megabytes_reads_whole(self, tmp_path):
        path = tmp_path / "long.txt"
        line = "天地人" * 1_000_000 + "\r" + "ab" * 500_000
        path.write_bytes(f"{line}\r\nef".encode("utf-8"))
        assert list(read_lines(path)) == [line, "ef"]


# The per-line reader and parser that block ingestion replaced, kept as the reference.
def reference_lines(path):
    with open(path, encoding="utf-8", newline="\n") as fh:
        if fh.read(1) != "\ufeff":
            fh.seek(0)
        for line in fh:
            yield line.removesuffix("\n").removesuffix("\r")


def reference_corpus(path):
    sentences = []
    for lineno, raw in enumerate(reference_lines(path), start=1):
        if not raw.strip():
            continue
        words = raw.split(" ")
        other = re.search(r"[^\S ]", raw)
        if other:
            raise DataError(f"{path}: line {lineno}: U+{ord(other[0]):04X} is not a single space between words")
        if "" in words:
            raise DataError(f"{path}: line {lineno}: empty word")
        labels = "".join("S" if len(w) == 1 else "B" + "M" * (len(w) - 2) + "E" for w in words)
        sentences.append(LabeledSentence("".join(words), labels))
    return sentences


def reference_vocabs(sentences):
    """Unigrams in order of first appearance, and bigram keys in order of first appearance."""
    chars = list(dict.fromkeys(chain.from_iterable(sentences)))
    row = {c: r for r, c in enumerate(chars, start=len(RESERVED))}
    n = len(RESERVED) + len(chars)
    keys = dict.fromkeys(
        row[s[i]] * n + (row[s[i + 1]] if i + 1 < len(s) else RESERVED.index(SENTINEL))
        for s in sentences for i in range(len(s))
    )
    return chars, list(keys)


def outcome(fn, *args):
    try:
        return fn(*args)
    except DataError as exc:
        return f"DataError: {exc}"


# CJK, ASCII, Latin-1, the supplementary planes and a BOM inside a line
WORD_CHARS = "中国人民的是大学abZ9\u00e9\U00020000\U0001F600\ufeff"
FAULTS = [" ", "  ", "\t", "\u3000", "\r", "\x0b", "\x85", "\u2028", "\u00a0"]
word = st.text(alphabet=WORD_CHARS, min_size=1, max_size=4)
line = st.one_of(
    st.lists(word, min_size=1, max_size=6).map(" ".join),  # a sentence
    st.lists(word, min_size=1, max_size=6).map(" ".join),
    st.lists(word, min_size=1, max_size=6).map(" ".join),
    st.sampled_from(["", " ", "  ", "\t", "\u3000 ", "\r", " \r\r"]),  # blank
    word.filter(lambda w: len(w) == 1),  # a 1-character sentence
)


@st.composite
def corpus_files(draw):
    lines = draw(st.lists(line, min_size=1, max_size=40))
    faults = st.tuples(st.integers(0, 99), st.integers(0, 99), st.sampled_from(FAULTS))
    for at, pos, fault in draw(st.lists(faults, max_size=2)):
        k = at % len(lines)
        cut = pos % (len(lines[k]) + 1)
        lines[k] = lines[k][:cut] + fault + lines[k][cut:]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    ends[-1] = draw(st.sampled_from(["\n", "\r\n", "", "\r"]))  # the last line may end with no line feed
    data = ("\ufeff" if draw(st.booleans()) else "") + "".join(map(str.__add__, lines, ends))
    return data.encode("utf-8")


class TestBlockIngestion:
    @given(
        corpus_files(),
        st.sampled_from([1, 5, 16, 64]),
        st.sampled_from([None, b"\xff", b"\xe4\xb8"]),
        st.integers(0, 999),
    )
    @settings(max_examples=300, deadline=None)
    def test_blocks_read_as_the_per_line_parser(self, tmp_path_factory, raw, block, bad_bytes, at):
        # small blocks (bytes read, characters indexed) and short key spans: every file spans several
        path = tmp_path_factory.mktemp("fuzz") / "corpus.txt"
        if bad_bytes:
            at %= len(raw) + 1
            raw = raw[:at] + bad_bytes + raw[at:]
        path.write_bytes(raw)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data_module, "INGEST_BLOCK", block)
            mp.setattr(data_module, "_POS", 3)
            try:
                expected = list(reference_lines(path))
            except UnicodeDecodeError:
                with pytest.raises(DataError, match=f"^{re.escape(str(path))}: 'utf-8' codec can't decode"):
                    list(read_lines(path))
                # or a refused line before the bad bytes, as a file longer than a decoder chunk gave
                with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "):
                    read_corpus(path)
                return
            assert list(read_lines(path)) == expected
            got = outcome(read_corpus, path)
            assert got == outcome(reference_corpus, path)
            if isinstance(got, str) or not got:
                return
            chars = [s.chars for s in got]
            uni, bi = build_vocabs(chars)
            unigrams, keys = reference_vocabs(chars)
            assert list(uni) == [*RESERVED, *unigrams]
            reference = BigramIndex(uni, np.array(keys, np.int64))
            np.testing.assert_array_equal(bi.keys, reference.keys)
            np.testing.assert_array_equal(bi.rows, reference.rows)
            again_uni, again_bi = build_vocabs(map(tuple, chars))  # sequences of characters index alike
            assert list(again_uni) == list(uni) and list(again_bi) == list(bi)

    @pytest.mark.parametrize("fault_line", [None, 9000, 17999])
    def test_a_file_of_many_full_blocks_reads_as_the_per_line_parser(self, tmp_path, fault_line):
        rng = np.random.default_rng(5)
        alphabet = np.array(list("中国人民的是大学ab") + ["\U00020000", "\u00e9"])
        lines = []
        for k in range(18000):
            n_words = int(rng.integers(0, 8))  # a blank line now and then
            words = ["".join(rng.choice(alphabet, int(rng.integers(1, 5)))) for _ in range(n_words)]
            lines.append(" ".join(words) + ("\r\n" if k % 7 == 0 else "\n"))
        if fault_line:
            lines[fault_line - 1] = "中国\t人\n"
        path = tmp_path / "corpus.txt"
        path.write_bytes("".join(lines).encode("utf-8"))
        assert path.stat().st_size > 4 * INGEST_BLOCK
        got = outcome(read_corpus, path)
        assert got == outcome(reference_corpus, path)
        if fault_line:
            assert f"line {fault_line}: U+0009" in got
            return
        chars = [s.chars for s in got]
        uni, bi = build_vocabs(chars)
        unigrams, keys = reference_vocabs(chars)
        assert list(uni) == [*RESERVED, *unigrams]
        np.testing.assert_array_equal(bi.keys[:-1], np.sort(keys))

    def test_build_vocabs_keeps_lone_surrogates(self):
        corpus = ["a\ud800b", "\udfffa"]
        uni, bi = build_vocabs(corpus)
        unigrams, keys = reference_vocabs(corpus)
        assert list(uni) == [*RESERVED, *unigrams]
        expected = BigramIndex(uni, np.array(keys, np.int64))
        np.testing.assert_array_equal(bi.keys, expected.keys)
        np.testing.assert_array_equal(bi.rows, expected.rows)

    def test_no_whitespace_lies_above_the_table_of_other_spaces(self):
        # read_corpus reads every code point past the table as its last entry: not whitespace
        table = data_module._OTHER_SPACES
        assert not table[-1] and not any(chr(c).isspace() for c in range(len(table) - 1, sys.maxunicode + 1))
        other = [c for c in range(len(table)) if chr(c).isspace() and c not in (10, 32)]
        assert np.flatnonzero(table).tolist() == other
