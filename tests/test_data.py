"""Data pipeline: BMES conversion, repair, vocabularies, embedding loading."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latseg.data import (
    RESERVED,
    SENTINEL,
    UNK,
    BigramIndex,
    EmbeddingTable,
    LabeledSentence,
    Vocab,
    build_vocabs,
    from_bmes,
    label_spans,
    load_embeddings,
    read_corpus,
    read_lines,
    to_bmes,
    word_set,
)
from latseg.errors import DataError, FormatError

words_strategy = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=5), min_size=1, max_size=12
)


class TestToBmes:
    def test_single_char(self):
        assert to_bmes(["人"]).labels == ("S",)

    def test_two_words(self):
        assert to_bmes(["中国", "人"]).labels == ("B", "E", "S")

    def test_three_char_word(self):
        assert to_bmes(["科学院"]).labels == ("B", "M", "E")

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
        spans = label_spans(labels)
        # spans partition 1..m in order
        assert spans[0][0] == 1 and spans[-1][1] == len(chars)
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert c == b + 1 and a <= b and c <= d


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
        assert sents[0].labels == ("B", "E", "S")
        assert word_set(sents) == {"中国", "人"}

    def test_one_object_per_distinct_character(self, tmp_path):
        path = tmp_path / "corpus.txt"
        lines = ["中国 人民", "人民 是 中国 的", "abc a"]
        path.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
        corpus = read_corpus(path)
        assert corpus == [to_bmes(l.split(" ")) for l in lines]
        distinct = {c for s in corpus for c in s.chars}
        assert len({id(c) for s in corpus for c in s.chars}) == len(distinct) == 9

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
        assert read_corpus(bom)[0].chars == ("中", "国", "人")

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
