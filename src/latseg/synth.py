"""Deterministic synthetic segmentation corpora for desk-scale experiments.

Sentences are i.i.d. word sequences drawn from a fixed generated vocabulary
with a mildly Zipfian rank distribution. The generator vocabulary doubles as
a gold lexicon for lattice runs.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .data import write_lines
from .errors import ConfigError

ALPHABET = "天地人山水火风云雨雪日月星光年石田车马牛羊鱼鸟虫花草木金竹言"
WORD_LENGTH_WEIGHTS = {1: 0.20, 2: 0.55, 3: 0.15, 4: 0.10}


def _cdf(weights) -> np.ndarray:
    """The CDF that ``Generator.choice`` computes from ``weights`` once they are normalised."""
    p = np.asarray(weights, float)
    cdf = (p / p.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def make_vocab(n_words: int = 300, seed: int = 101, alphabet: str = ALPHABET) -> list[str]:
    """n_words distinct words with CWS-like length statistics.

    Each word draws its length, then its letters, and is kept unless it is
    already in the vocabulary. The draws are those of ``rng.choice`` over the
    lengths (weighted) and over the letters, with the length CDF computed once
    rather than per word, so a seed gives the same words as ever. Rejection
    still makes the cost climb near the limit (837,930 words over the default
    30 letters), where nearly every draw repeats a word.
    """
    if n_words < 1:
        raise ConfigError(f"need at least one word, got {n_words}")
    letters = len(set(alphabet))
    limit = sum(letters**k for k in WORD_LENGTH_WEIGHTS)  # the distinct words of every length
    if n_words > limit:
        raise ConfigError(f"{n_words} distinct words asked for, but {letters} letters make only {limit}")
    rng = np.random.default_rng(seed)
    lengths = sorted(WORD_LENGTH_WEIGHTS)
    length_cdf = _cdf([WORD_LENGTH_WEIGHTS[k] for k in lengths]).tolist()
    chars = list(alphabet)
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n_words:
        k = lengths[bisect_right(length_cdf, rng.random())]
        w = "".join([chars[rng.integers(len(chars))] for _ in range(k)])
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def make_corpus(
    vocab: list[str],
    n_sentences: int = 2000,
    seed: int = 202,
    min_words: int = 5,
    max_words: int = 14,
) -> list[list[str]]:
    """Sentences as word lists; word w_i drawn with weight 1/(rank+4).

    A sentence's length and words are the draws of ``rng.integers`` and of
    ``rng.choice`` with those weights, whose CDF is computed once per call.
    """
    if n_sentences < 1:
        raise ConfigError(f"the number of sentences must be at least 1, got {n_sentences}")
    if not vocab:
        raise ConfigError("cannot draw sentences from an empty vocabulary")
    if not 1 <= min_words <= max_words:
        raise ConfigError(f"words per sentence must satisfy 1 <= min <= max, got {min_words} and {max_words}")
    rng = np.random.default_rng(seed)
    cdf = _cdf(1.0 / (np.arange(len(vocab)) + 4.0))
    out: list[list[str]] = []
    for _ in range(n_sentences):
        n = int(rng.integers(min_words, max_words + 1))
        idx = cdf.searchsorted(rng.random(n), side="right")
        out.append([vocab[i] for i in idx.tolist()])
    return out


def split_corpus(
    sentences: list[list[str]], dev_fraction: float = 0.1, seed: int = 303
) -> tuple[list[list[str]], list[list[str]]]:
    """Shuffled train/dev split with the dev fraction held out; neither side may be empty."""
    if not 0.0 < dev_fraction < 1.0:
        raise ConfigError(f"dev fraction must be in (0, 1), got {dev_fraction}")
    n_dev = max(1, int(round(len(sentences) * dev_fraction)))
    if n_dev >= len(sentences):
        raise ConfigError(
            f"{len(sentences)} sentences at dev fraction {dev_fraction} leave no training sentence"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(sentences))
    dev = [sentences[i] for i in order[:n_dev]]
    tr = [sentences[i] for i in order[n_dev:]]
    return tr, dev


def write_corpus(path, sentences: list[list[str]]) -> None:
    write_lines(path, map(" ".join, sentences))
