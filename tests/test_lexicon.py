"""Trie construction and exhaustive matching vs a brute-force substring scan."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latseg.data import SENTINEL, UNK, Vocab, load_embeddings
from latseg.errors import DataError
from latseg.lexicon import build_trie, match_sentence, read_lexicon


def brute_force_matches(lexicon, chars, max_len=None):
    """All (b, e) with chars[b..e] in the lexicon and length in [2, max_len], 1-based."""
    words = {w for w in lexicon if len(w) >= 2}
    out = set()
    m = len(chars)
    for b in range(m):
        for e in range(b + 1, m):
            if "".join(chars[b : e + 1]) in words and (max_len is None or e - b + 1 <= max_len):
                out.add((b + 1, e + 1))
    return out


def spans(ms):
    return set(zip(ms.b.tolist(), ms.e.tolist()))


class TestBuildTrie:
    def test_shared_prefixes(self):
        trie = build_trie(["科学", "科学院", "学院"])
        assert len(trie.symbols) == 3
        assert trie.symbols == ["科学", "科学院", "学院"]
        assert trie.prefixes["科"] == -1  # a shared prefix is no entry

    def test_empty_lexicon(self):
        trie = build_trie([])
        assert trie.symbols == []
        assert len(match_sentence(trie, "中国")) == 0

    def test_duplicates_collapse(self):
        trie = build_trie(["中国", "中国"])
        assert trie.symbols == ["中国"]

    def test_short_symbols_rejected_with_count(self):
        trie = build_trie(["中", "中国", "人"])
        assert trie.symbols == ["中国"]

    def test_reserved_symbols_are_no_entries(self):
        # a vocabulary holds each reserved symbol once, in its reserved row
        trie = build_trie([SENTINEL, "ab", UNK, "cd"])
        assert trie.symbols == ["ab", "cd"]
        assert len(match_sentence(trie, tuple("x</s>ab<unk>"))) == 1

    def test_trie_memory_per_entry(self):
        # a node object and a child dict per prefix take about 750 bytes an entry
        draw = random.Random(7)
        alphabet = [chr(0x4E00 + k) for k in range(3500)]
        words = ["".join(draw.choices(alphabet, k=draw.randint(2, 5))) for _ in range(20_000)]
        tracemalloc.start()
        try:
            trie = build_trie(words)
            used = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert used / len(trie.symbols) < 400


class TestTrieAsVocabulary:
    def test_entry_k_is_row_k_plus_two(self):
        trie = build_trie(["科学", "科学院", "学院"])
        assert len(trie) == 5
        assert list(trie) == [UNK, SENTINEL, "科学", "科学院", "学院"]
        assert [trie.index(sym) for sym in trie] == list(range(5))

    @pytest.mark.parametrize(
        "sym", ["科", "科学研", "学", "", "学院院"], ids=["prefix", "longer-prefix", "one-char", "empty", "unknown"]
    )
    def test_anything_else_is_row_zero_and_not_in(self, sym):
        trie = build_trie(["科学", "科学研究", "学院"])
        assert trie.index(sym) == 0 and sym not in trie

    def test_reserved_rows_are_in(self):
        trie = build_trie(["<unk>x"])  # "<unk>" is also a prefix of an entry
        assert [trie.index(UNK), trie.index(SENTINEL)] == [0, 1]
        assert UNK in trie and SENTINEL in trie and "<unk>x" in trie

    def test_load_embeddings_reads_rows_through_the_trie(self, tmp_path):
        # the bits a Vocab of the trie's entries gives: entry rows at entry + 2,
        # the reserved rows from the file, and every other token ignored
        trie = build_trie(["中国", "人民", "中国人民"])
        path = tmp_path / "emb.txt"
        path.write_text(
            "<unk> 7 8\n人民 1 2\n中国人 3 4\n中 5 6\n中国人民 9 10\n</s> 11 12\n中国 13 14\n", encoding="utf-8"
        )
        got = load_embeddings(path, trie, 2, np.random.default_rng(3), name="lexicon_embeddings").rows.data
        want = load_embeddings(path, Vocab(trie.symbols), 2, np.random.default_rng(3)).rows.data
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(got, [[7, 8], [11, 12], [13, 14], [1, 2], [9, 10]])


class TestMatchSentence:
    def test_academy_example(self):
        trie = build_trie(["科学", "科学院", "学院"])
        got = spans(match_sentence(trie, "中国科学院院士"))
        assert got == {(3, 4), (3, 5), (4, 5)}
        assert got == brute_force_matches(["科学", "科学院", "学院"], "中国科学院院士")

    def test_no_matches(self):
        trie = build_trie(["科学"])
        assert len(match_sentence(trie, "中国人")) == 0

    def test_overlapping_matches_both_reported(self):
        trie = build_trie(["ab", "bc"])
        got = spans(match_sentence(trie, "abc"))
        assert got == {(1, 2), (2, 3)}

    def test_entries_map_to_symbols(self):
        lexicon = ["ab", "abc", "bc"]
        trie = build_trie(lexicon)
        ms = match_sentence(trie, "abc")
        for b, e, entry in zip(ms.b.tolist(), ms.e.tolist(), ms.entry.tolist()):
            assert trie.symbols[entry] == "abc"[b - 1 : e]

    def test_three_index_arrays_in_start_end_order(self):
        trie = build_trie(["ab", "abc", "bc", "abcd"])
        ms = match_sentence(trie, "abcdabc")
        got = list(zip(ms.b.tolist(), ms.e.tolist()))
        assert got == [(1, 2), (1, 3), (1, 4), (2, 3), (5, 6), (5, 7), (6, 7)]
        assert len(ms) == len(ms.e) == len(ms.entry) == 7
        assert ms.b.dtype == ms.e.dtype == ms.entry.dtype == np.intp
        empty = match_sentence(trie, "dd")
        assert len(empty) == 0 and empty.b.shape == empty.e.shape == empty.entry.shape == (0,)

    def test_max_len_cap(self):
        trie = build_trie(["ab", "abcd"])
        ms = match_sentence(trie, "abcd", max_len=2)
        assert spans(ms) == {(1, 2)}

    @given(
        st.text(alphabet="abc", min_size=0, max_size=64),
        st.lists(st.text(alphabet="abc", min_size=1, max_size=5), max_size=20),
        st.one_of(st.none(), st.integers(1, 5)),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_brute_force_scan(self, sentence, lexicon, max_len):
        trie = build_trie(lexicon)
        ms = match_sentence(trie, sentence, max_len)
        got = spans(ms)
        assert got == brute_force_matches(lexicon, sentence, max_len)
        # exhaustive and unique
        assert len(got) == len(ms)
        assert all(e - b + 1 >= 2 for b, e in got)


class TestLexiconFile:
    def test_frequency_suffix_ignored(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("中国\t42\n人民\n\n学院\t7\n", encoding="utf-8")
        assert read_lexicon(path) == ["中国", "人民", "学院"]

    def test_a_byte_order_mark_is_not_part_of_the_first_symbol(self, tmp_path):
        # it was: the first symbol read as "\ufeff中国" and matched no sentence
        path = tmp_path / "lex.txt"
        path.write_bytes("\ufeff中国\t3\n人民\n".encode("utf-8"))
        assert read_lexicon(path) == ["中国", "人民"]

    @pytest.mark.parametrize("line, code", [("ab\r\t3", "U+000D"), ("a b", "U+0020")])
    def test_whitespace_in_a_symbol_is_refused(self, tmp_path, line, code):
        # no raw sentence holds whitespace, so such a symbol could never match
        path = tmp_path / "lex.txt"
        path.write_bytes(f"中国\n{line}\n".encode())
        with pytest.raises(DataError) as refused:
            read_lexicon(path)
        assert str(refused.value).startswith(f"{path}: line 2: {code}")
