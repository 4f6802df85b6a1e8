"""BPE: worked examples, learner invariants, equivalence with a naive reference."""

import contextlib
import io
import tracemalloc
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latseg import cli
from latseg.bpe import (
    BpeModel,
    extract_lexicon,
    learn_bpe,
    save_bpe_model,
    save_lexicon,
)
from latseg.errors import ConfigError, DataError
from latseg.data import read_corpus
from latseg.lexicon import read_lexicon


# -- independent reference: recount all pairs from scratch every iteration --

def naive_merge_pass(symbols, pair):
    out, i = [], 0
    while i < len(symbols):
        if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == pair:
            out.append(symbols[i] + symbols[i + 1])
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def naive_learn(corpus, k):
    lines = [list(s) for s in corpus]
    merges = []
    for _ in range(k):
        counts = Counter()
        for line in lines:
            counts.update(zip(line, line[1:]))
        if not counts:
            break
        best_count = max(counts.values())
        if best_count < 2:
            break
        best = min(p for p, c in counts.items() if c == best_count)
        merges.append(best)
        lines = [naive_merge_pass(line, best) for line in lines]
    return merges, lines


def naive_vocab(corpus, k):
    """Symbol counts of the naive learner's final segmentation."""
    return Counter(chain(*naive_learn(corpus, k)[1]))


def random_corpus(rng, max_chars, alphabet="abcd"):
    lines = []
    total = 0
    while total < max_chars:
        n = int(rng.integers(1, 40))
        n = min(n, max_chars - total)
        lines.append("".join(rng.choice(list(alphabet), size=n)))
        total += n
    return lines


class TestLearn:
    def test_abab_one_merge(self):
        model = learn_bpe(["abab"], 1)
        assert model.merges == [("a", "b")]
        assert model.vocab == Counter({"ab": 2}) == naive_vocab(["abab"], 1)

    def test_abab_second_merge_stopped_by_frequency_rule(self):
        # after (a, b) the only remaining pair occurs once, below the
        # frequency-2 floor, so the budget is not exhausted
        model = learn_bpe(["abab"], 2)
        assert model.merges == [("a", "b")]
        assert model.vocab == Counter({"ab": 2}) == naive_vocab(["abab"], 2)

    def test_k_zero(self):
        model = learn_bpe(["abab"], 0)
        assert model.merges == []
        assert set(model.vocab) == {"a", "b"}

    def test_single_occurrence_never_merged(self):
        assert learn_bpe(["ab"], 5).merges == []

    def test_tie_breaks_lexicographic(self):
        # (a,b) and (b,a) both occur 3 times; lexicographic order wins
        model = learn_bpe(["abab", "baba"], 1)
        assert model.merges == [("a", "b")]

    def test_merges_never_cross_lines(self):
        # "a" ends line 1 and "b" starts line 2: no (a,b) pair across them
        assert learn_bpe(["ba", "ba"], 1).merges == [("b", "a")]

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            learn_bpe([], 3)

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError):
            learn_bpe(["ab"], -1)


class TestSharedSpelling:
    def test_two_merges_that_spell_one_string_make_one_symbol(self):
        # ("a", "bc") and ("ab", "c") both spell "abc": its pairs with "d" from either
        # merge count together, so ("abc", "d") occurs 4 times and merges once
        corpus = [["a", "bc", "d"], ["ab", "c", "d"]] * 2
        model = learn_bpe(corpus, 4)
        assert model.merges == [("a", "bc"), ("ab", "c"), ("abc", "d")] == naive_learn(corpus, 4)[0]
        assert model.vocab == Counter({"abcd": 4}) == naive_vocab(corpus, 4)


class TestApply:
    """Each learned merge rewrites the training lines in one left-to-right,
    non-overlapping pass; ``model.vocab`` counts the final segmentation."""

    def test_single_merge_left_to_right(self):
        # "aaa" becomes ["aa", "a"], not ["a", "aa"], so the next merge is (aa, a)
        assert learn_bpe(["aaa", "aaa"], 2).merges == [("a", "a"), ("aa", "a")]

    def test_empty_merges_identity(self):
        model = learn_bpe(["abc"], 5)
        assert model.merges == []
        assert model.vocab == Counter("abc")

    def test_unseen_chars_pass_through(self):
        # characters that no merge touches stay single symbols
        model = learn_bpe(["abab", "xy"], 1)
        assert model.vocab == Counter({"ab": 2, "x": 1, "y": 1}) == naive_vocab(["abab", "xy"], 1)

    def test_reproduces_training_segmentation(self):
        corpus = ["ababab", "aabba", "bbbab"]
        assert learn_bpe(corpus, 4).vocab == naive_vocab(corpus, 4)

    def test_overlapping_run(self):
        model = learn_bpe(["aaaaa"], 1)
        assert model.merges == [("a", "a")]
        assert model.vocab == Counter({"aa": 2, "a": 1})


class TestExtractLexicon:
    def test_abab(self):
        assert extract_lexicon(learn_bpe(["abab"], 1)) == [("ab", 2)]

    def test_k_zero_empty(self):
        assert extract_lexicon(learn_bpe(["abab"], 0)) == []

    def test_all_multichar_positive(self, rng):
        model = learn_bpe(random_corpus(rng, 800), 30)
        lex = extract_lexicon(model)
        assert all(len(s) >= 2 and c > 0 for s, c in lex)
        assert lex == sorted(lex, key=lambda e: (-e[1], e[0]))
        assert len(model.merges) <= 30

    def test_every_multichar_symbol_is_a_merge_product(self, rng):
        model = learn_bpe(random_corpus(rng, 600), 25)
        products = {l + r for l, r in model.merges}
        for sym in model.vocab:
            if len(sym) >= 2:
                assert sym in products


class TestNaiveEquivalence:
    def test_matches_reference_on_random_corpora(self):
        rng = np.random.default_rng(77)
        for trial in range(12):
            corpus = random_corpus(rng, 1500)
            k = int(rng.integers(0, 40))
            model = learn_bpe(corpus, k)
            merges, lines = naive_learn(corpus, k)
            assert model.merges == merges, f"trial {trial}"
            vocab = Counter()
            for line in lines:
                vocab.update(line)
            assert model.vocab == vocab, f"trial {trial}"


# Corpora over 1-3 letters, so runs ("aaaa") and alternations ("abababa") are
# common; lines may be empty or one character long.
small_corpora = st.sampled_from(["a", "ab", "abc"]).flatmap(
    lambda alphabet: st.lists(st.text(alphabet=alphabet, max_size=16), min_size=1, max_size=8)
)


def assert_matches_naive(corpus, k):
    model = learn_bpe(corpus, k)
    merges, lines = naive_learn(corpus, k)
    assert model.merges == merges
    vocab = Counter()
    for line in lines:
        vocab.update(line)
    assert model.vocab == vocab  # extract_lexicon reads only the vocab


class TestIncrementalLearner:
    @given(small_corpora, st.integers(0, 40))
    @settings(max_examples=300, deadline=None)
    def test_matches_from_scratch_recount(self, corpus, k):
        assert_matches_naive(corpus, k)

    def test_matches_on_synth_train_slice(self, tmp_path):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["synth", "--out-dir", str(tmp_path), "--seed", "7"]) == 0
        lines = ["".join(s.chars) for s in read_corpus(tmp_path / "train.txt")[:300]]
        assert_matches_naive(lines, 200)


class TestLearnerMemory:
    def test_desk_corpus_peak_stays_bounded(self, tmp_path):
        # a {line: count} dict per pair, tuple-of-string keys and a heap that only grew peaked near 9 MB
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["synth", "--out-dir", str(tmp_path), "--seed", "1"]) == 0
        lines = ["".join(s.chars) for s in read_corpus(tmp_path / "train.txt")]
        tracemalloc.start()
        try:
            model = learn_bpe(lines, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.merge_count > 1000
        assert peak < 6.5e6, f"learn_bpe peaked at {peak / 1e6:.1f} MB"


class TestModelFile:
    def test_round_trip(self, tmp_path):
        # the file is a `bpe-v1 <n>` header, then one `left<TAB>right` line per merge in order
        corpus = ["ababab", "bbab"]
        model = learn_bpe(corpus, 3)
        assert model.vocab == naive_vocab(corpus, 3)
        path = tmp_path / "model.bpe"
        save_bpe_model(model, path)
        merges = naive_learn(corpus, 3)[0]
        lines = [f"bpe-v1 {len(merges)}", *(left + "\t" + right for left, right in merges)]
        assert model.merges == merges
        assert path.read_bytes() == "".join(line + "\n" for line in lines).encode("utf-8")

    def test_hand_built_model_round_trips(self, tmp_path):
        # the header count is the merge list's length; no stored count can disagree
        model = BpeModel(merges=[("a", "b"), ("ab", "c")], vocab=Counter())
        path = tmp_path / "model.bpe"
        save_bpe_model(model, path)
        assert path.read_bytes() == b"bpe-v1 2\na\tb\nab\tc\n"

    def test_lexicon_file_round_trip(self, tmp_path):
        path = tmp_path / "lex.tsv"
        save_lexicon([("ab", 4), ("abc", 2)], path)
        assert read_lexicon(path) == ["ab", "abc"]
