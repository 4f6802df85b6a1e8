"""The synthetic corpus generator: the draws of the rng.choice generator it replaced, and its refusals."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from latseg import synth
from latseg.cli import main
from latseg.errors import ConfigError


def reference_vocab(n_words: int = 300, seed: int = 101, alphabet: str = synth.ALPHABET) -> list[str]:
    """``make_vocab`` as it drew words with ``rng.choice``, kept as the reference."""
    rng = np.random.default_rng(seed)
    lengths = np.array(sorted(synth.WORD_LENGTH_WEIGHTS))
    probs = np.array([synth.WORD_LENGTH_WEIGHTS[k] for k in lengths], dtype=float)
    probs /= probs.sum()
    chars = list(alphabet)
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n_words:
        k = int(rng.choice(lengths, p=probs))
        w = "".join(rng.choice(chars) for _ in range(k))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def reference_corpus(
    vocab: list[str], n_sentences: int = 2000, seed: int = 202, min_words: int = 5, max_words: int = 14
) -> list[list[str]]:
    """``make_corpus`` as it drew sentences with ``rng.choice``, kept as the reference."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / (np.arange(len(vocab)) + 4.0)
    weights /= weights.sum()
    out: list[list[str]] = []
    for _ in range(n_sentences):
        n = int(rng.integers(min_words, max_words + 1))
        idx = rng.choice(len(vocab), size=n, p=weights)
        out.append([vocab[i] for i in idx])
    return out


@pytest.mark.parametrize("seed", [0, 1, 101])
@pytest.mark.parametrize("n_words", [1, 30, 300, 3000])
def test_make_vocab_draws_the_reference_words(n_words, seed):
    assert synth.make_vocab(n_words, seed=seed) == reference_vocab(n_words, seed=seed)


def test_make_vocab_over_two_letters_draws_the_reference_words():
    assert synth.make_vocab(30, alphabet="ab") == reference_vocab(30, alphabet="ab")


@pytest.mark.parametrize("words", [(5, 14), (3, 3), (1, 1)], ids=["5-14", "3-3", "1-1"])
@pytest.mark.parametrize("n_sentences", [1, 2000])
def test_make_corpus_draws_the_reference_sentences(n_sentences, words):
    vocab = synth.make_vocab(300, seed=101)
    got = synth.make_corpus(vocab, n_sentences, seed=202, min_words=words[0], max_words=words[1])
    assert got == reference_corpus(vocab, n_sentences, seed=202, min_words=words[0], max_words=words[1])


def test_make_corpus_over_one_word_draws_the_reference_sentences():
    assert synth.make_corpus(["天地"], 50, seed=7) == reference_corpus(["天地"], 50, seed=7)


def test_readme_synth_files_are_pinned(tmp_path, capsys):
    # the README's corpus; the benchmark, golden fixtures and checkpoint hashes rest on these bytes
    assert main(["synth", "--out-dir", str(tmp_path), "--sentences", "2000", "--vocab-size", "300",
                 "--seed", "101"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("train.txt", "dev.txt", "lexicon.txt")}
    assert digests == {
        "train.txt": "12a2125e5caf8a549c2e16d8386ba0291f354abb18c4696dab188fb0e449e94f",
        "dev.txt": "aafcb03256e2e7a07c6ecc51b47411ae0913f53049a6b659631392555adb2f40",
        "lexicon.txt": "ea7e34cd6786514769887905460e70523790e76750b69b2839a101f819bcd99a",
    }


def test_make_corpus_refuses_an_empty_vocabulary():
    with pytest.raises(ConfigError, match="empty vocabulary"):
        synth.make_corpus([], 10)


def test_make_corpus_refuses_fewer_than_one_word_per_sentence():
    with pytest.raises(ConfigError, match="words per sentence"):
        synth.make_corpus(["天地"], 10, min_words=0, max_words=3)


def test_make_corpus_refuses_a_minimum_above_the_maximum():
    with pytest.raises(ConfigError, match="words per sentence"):
        synth.make_corpus(["天地"], 10, min_words=4, max_words=3)
