"""The full segmenter: embeddings + (lattice) BiLSTM encoder + CRF.

A model owns every trainable tensor, the vocabularies, and (in lattice
modes) the lexicon trie. Training drives :meth:`loss` under an active tape;
decoding and the checkpoint probe run the same forward tape-free.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import crf as crf_ops
from .data import RESERVED, EmbeddingTable, LabeledSentence, Vocab, from_bmes
from .encoder import DirectionParams, char_repr, encode_bidirectional
from .errors import UsageError
from .lexicon import LatticeMatchSet, Trie, build_trie, match_sentence
from .tensor import Tensor

MODES = ("baseline", "lattice-word", "lattice-subword")


def prepare_lexicon(symbols: Sequence[str]) -> tuple[Trie, Vocab]:
    """Deduplicate lexicon symbols into a trie and a matching vocabulary.

    Length-1 symbols are dropped (counted on the trie), and so are the
    reserved vocabulary symbols, which a vocabulary cannot hold twice: the
    lexicon row of trie entry k is always k + len(RESERVED).
    """
    trie = build_trie(s for s in symbols if s not in RESERVED)
    return trie, Vocab.from_symbols(trie.symbols)


class SegmenterModel:
    def __init__(
        self,
        mode: str,
        unigram_table: EmbeddingTable,
        bigram_table: EmbeddingTable,
        forward_params: DirectionParams,
        backward_params: DirectionParams,
        crf_params: crf_ops.CrfParams,
        lexicon_table: EmbeddingTable | None = None,
        trie: Trie | None = None,
        char_dropout: float = 0.0,
        lattice_dropout: float = 0.0,
        max_word_len: int | None = None,
    ):
        if mode not in MODES:
            raise UsageError(f"mode must be one of {MODES}, got {mode!r}")
        if mode != "baseline" and (lexicon_table is None or trie is None):
            raise UsageError(f"{mode} mode requires a lexicon table and trie")
        self.mode = mode
        self.unigram_table = unigram_table
        self.bigram_table = bigram_table
        self.lexicon_table = lexicon_table
        self.trie = trie
        self.fwd = forward_params
        self.bwd = backward_params
        self.crf = crf_params
        self.char_dropout = char_dropout
        self.lattice_dropout = lattice_dropout
        self.max_word_len = max_word_len
        self.hidden = forward_params.hidden

        if mode != "baseline" and lexicon_table.vocab.symbols()[len(RESERVED) :] != trie.symbols:
            raise UsageError("lexicon table rows must follow the trie's entries (see prepare_lexicon)")

        self._params: list[Tensor] = [unigram_table.rows, bigram_table.rows]
        if lexicon_table is not None:
            self._params.append(lexicon_table.rows)
        self._params += self.fwd.tensors() + self.bwd.tensors() + self.crf.tensors()

    @classmethod
    def create(
        cls,
        mode: str,
        unigram_table: EmbeddingTable,
        bigram_table: EmbeddingTable,
        hidden: int,
        rng: np.random.Generator,
        lexicon_table: EmbeddingTable | None = None,
        trie: Trie | None = None,
        char_dropout: float = 0.0,
        lattice_dropout: float = 0.0,
        max_word_len: int | None = None,
        dtype=np.float64,
    ) -> "SegmenterModel":
        x_dim = unigram_table.dim + bigram_table.dim
        word_dim = lexicon_table.dim if (mode != "baseline" and lexicon_table) else None
        fwd = DirectionParams.create(x_dim, hidden, rng, word_dim=word_dim, dtype=dtype, name="fwd")
        bwd = DirectionParams.create(x_dim, hidden, rng, word_dim=word_dim, dtype=dtype, name="bwd")
        crf_params = crf_ops.CrfParams.create(2 * hidden, rng, dtype=dtype)
        return cls(
            mode,
            unigram_table,
            bigram_table,
            fwd,
            bwd,
            crf_params,
            lexicon_table=lexicon_table if mode != "baseline" else None,
            trie=trie if mode != "baseline" else None,
            char_dropout=char_dropout,
            lattice_dropout=lattice_dropout,
            max_word_len=max_word_len,
        )

    # -- parameters ---------------------------------------------------------

    def parameters(self) -> list[Tensor]:
        return self._params

    def snapshot(self) -> dict[str, np.ndarray]:
        return {p.name: p.data.copy() for p in self._params}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for p in self._params:
            p.data[...] = snap[p.name]

    # -- forward ------------------------------------------------------------

    def match(self, chars: Sequence[str]) -> LatticeMatchSet | None:
        if self.mode == "baseline":
            return None
        return match_sentence(self.trie, chars, max_len=self.max_word_len)

    def hidden_states(
        self,
        chars: Sequence[str],
        mode: str = "eval",
        rng: np.random.Generator | None = None,
    ):
        """The (m, 2H) hidden states and each direction's per-position records."""
        x = char_repr(
            chars, self.unigram_table, self.bigram_table,
            dropout=self.char_dropout, mode=mode, rng=rng,
        )
        return encode_bidirectional(
            x,
            self.match(chars),
            self.lexicon_table,
            self.fwd,
            self.bwd,
            lattice_dropout=self.lattice_dropout,
            mode=mode,
            rng=rng,
        )

    def loss(
        self,
        sentence: LabeledSentence,
        mode: str = "train",
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Sentence negative log-likelihood; record under an active tape to train."""
        hs, _, _ = self.hidden_states(sentence.chars, mode=mode, rng=rng)
        return crf_ops.nll_loss(hs, sentence.labels, self.crf)

    def decode(self, chars: Sequence[str]) -> crf_ops.LabelPath:
        hs, _, _ = self.hidden_states(chars, mode="eval")
        return crf_ops.viterbi(hs, self.crf)

    def segment(self, text: str) -> list[str]:
        if not text:
            return []
        chars = tuple(text)
        return from_bmes(chars, self.decode(chars).labels)

    def emission_matrix(self, chars: Sequence[str]) -> np.ndarray:
        """Eval-mode per-position label scores; the checkpoint probe output."""
        hs, _, _ = self.hidden_states(chars, mode="eval")
        return crf_ops.emissions(hs, self.crf).data
