"""Deterministic synthetic segmentation corpora for desk-scale experiments.

Sentences are i.i.d. word sequences drawn from a fixed generated vocabulary
with a mildly Zipfian rank distribution. The generator vocabulary doubles as
a gold lexicon for lattice runs.
"""

from __future__ import annotations

import numpy as np

from .data import write_lines
from .errors import ConfigError

ALPHABET = "天地人山水火风云雨雪日月星光年石田车马牛羊鱼鸟虫花草木金竹言"
WORD_LENGTH_WEIGHTS = {1: 0.20, 2: 0.55, 3: 0.15, 4: 0.10}


def make_vocab(n_words: int = 300, seed: int = 101, alphabet: str = ALPHABET) -> list[str]:
    """n_words distinct words with CWS-like length statistics."""
    if n_words < 1:
        raise ConfigError(f"need at least one word, got {n_words}")
    letters = len(set(alphabet))
    limit = sum(letters**k for k in WORD_LENGTH_WEIGHTS)  # the distinct words of every length
    if n_words > limit:
        raise ConfigError(f"{n_words} distinct words asked for, but {letters} letters make only {limit}")
    rng = np.random.default_rng(seed)
    lengths = np.array(sorted(WORD_LENGTH_WEIGHTS))
    probs = np.array([WORD_LENGTH_WEIGHTS[k] for k in lengths], dtype=float)
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


def make_corpus(
    vocab: list[str],
    n_sentences: int = 2000,
    seed: int = 202,
    min_words: int = 5,
    max_words: int = 14,
) -> list[list[str]]:
    """Sentences as word lists; word w_i drawn with weight 1/(rank+4)."""
    if n_sentences < 1:
        raise ConfigError(f"the number of sentences must be at least 1, got {n_sentences}")
    rng = np.random.default_rng(seed)
    weights = 1.0 / (np.arange(len(vocab)) + 4.0)
    weights /= weights.sum()
    out: list[list[str]] = []
    for _ in range(n_sentences):
        n = int(rng.integers(min_words, max_words + 1))
        idx = rng.choice(len(vocab), size=n, p=weights)
        out.append([vocab[i] for i in idx])
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
