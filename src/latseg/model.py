"""The full segmenter: embeddings + (lattice) BiLSTM encoder + CRF.

A model is a dataclass of its trainable tensors, vocabularies, lexicon trie
(lattice modes) and settings; :meth:`~SegmenterModel.create` draws fresh
weights. Training drives :meth:`loss` under an active tape, with an rng for
dropout; decoding and the checkpoint probe run the same forward tape-free
and without one. :meth:`SegmenterModel.decode_many` is the one batch
decoder: training's dev evaluation, ``latseg segment`` and ``latseg eval``
all call it, and it bounds each encoder call's walk buffers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import crf as crf_ops
from .data import EmbeddingTable, LabeledSentence
from .encoder import DirectionParams, char_repr, encode_bidirectional
from .errors import UsageError
from .lexicon import LatticeMatchSet, Trie, build_trie, match_sentence
from .tensor import Tensor

MODES = ("baseline", "lattice-word", "lattice-subword")
DECODE_CELLS = 2048  # sentences x longest sentence per encoder call of SegmenterModel.decode_many


def prepare_lexicon(symbols: Sequence[str]) -> tuple[Trie, Trie]:
    """The trie of ``symbols`` twice: as the model's trie and as its lexicon table's vocabulary."""
    trie = build_trie(symbols)
    return trie, trie


@dataclass(eq=False)
class SegmenterModel:
    mode: str
    unigram_table: EmbeddingTable
    bigram_table: EmbeddingTable
    fwd: DirectionParams
    bwd: DirectionParams
    crf: crf_ops.CrfParams
    lexicon_table: EmbeddingTable | None = None
    trie: Trie | None = None
    char_dropout: float = 0.0
    lattice_dropout: float = 0.0
    max_word_len: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise UsageError(f"mode must be one of {MODES}, got {self.mode!r}")
        if getattr(self.bigram_table.vocab, "unigrams", None) is not self.unigram_table.vocab:
            raise UsageError("the bigram table must index pairs of the unigram table's characters")
        if self.mode != "baseline" and (self.lexicon_table is None or self.lexicon_table.vocab is not self.trie):
            raise UsageError(f"{self.mode} mode requires a lexicon table over its trie (see prepare_lexicon)")

        self._params: list[Tensor] = [self.unigram_table.rows, self.bigram_table.rows]
        if self.lexicon_table is not None:
            self._params.append(self.lexicon_table.rows)
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
        dtype=np.float64,
        **options,
    ) -> "SegmenterModel":
        """A model with freshly drawn encoder and CRF weights; ``options`` go to the constructor.

        A baseline model drops any lexicon it is given. The weights are
        drawn from ``rng`` in order: forward direction, backward, CRF.
        """
        if mode == "baseline":
            lexicon_table = trie = None
        x_dim = unigram_table.dim + bigram_table.dim
        word_dim = lexicon_table.dim if lexicon_table else None
        fwd = DirectionParams.create(x_dim, hidden, rng, word_dim=word_dim, dtype=dtype, name="fwd")
        bwd = DirectionParams.create(x_dim, hidden, rng, word_dim=word_dim, dtype=dtype, name="bwd")
        crf = crf_ops.CrfParams.create(2 * hidden, rng, dtype=dtype)
        return cls(mode, unigram_table, bigram_table, fwd, bwd, crf, lexicon_table, trie, **options)

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

    def hidden_states(self, sentences: Sequence[Sequence[str]], rng: np.random.Generator | None = None):
        """The stacked (sum m, 2H) hidden states of ``sentences`` and their (forward, backward) Fusion pairs.

        Given an ``rng``, the model's dropout draws its masks from it;
        without one, no dropout applies. Under an active tape only one
        sentence is accepted (see :func:`~latseg.encoder.lattice_forward`).
        """
        x = char_repr(sentences, self.unigram_table, self.bigram_table, self.char_dropout, rng)
        lengths = [len(s) for s in sentences]
        matches = [self.match(s) for s in sentences]
        return encode_bidirectional(
            x, matches, self.lexicon_table, (self.fwd, self.bwd), lengths, self.lattice_dropout, rng
        )

    def loss(self, sentence: LabeledSentence, rng: np.random.Generator | None = None) -> Tensor:
        """Sentence negative log-likelihood; record under an active tape to train.

        Training passes its ``rng``, which turns dropout on.
        """
        hs, _ = self.hidden_states([sentence.chars], rng)
        return crf_ops.nll_loss(hs, sentence.labels, self.crf)

    def decode_many(self, sentences: Sequence[Sequence[str]]) -> list[str]:
        """The Viterbi labels of each sentence as one string, decoded in batches of sentences of similar length.

        Each batch is the lanes of one encoder call, whose walk buffers hold
        its longest sentence's steps for every sentence. So a batch takes
        sentences in order of length while their count times the longest
        stays within :data:`DECODE_CELLS`; a longer sentence decodes alone.
        Each sentence's labels are those it gets decoded alone.
        """
        batches: list[list[int]] = []
        for i in sorted(range(len(sentences)), key=lambda i: len(sentences[i])):
            if not batches or (len(batches[-1]) + 1) * len(sentences[i]) > DECODE_CELLS:
                batches.append([])
            batches[-1].append(i)
        labels: list = [None] * len(sentences)
        for batch in batches:
            group = [sentences[i] for i in batch]
            hs, _ = self.hidden_states(group)
            for i, decoded in zip(batch, crf_ops.viterbi(hs, self.crf, [len(s) for s in group])):
                labels[i] = decoded
        return labels

    def decode(self, chars: Sequence[str]) -> crf_ops.LabelPath:
        return crf_ops.LabelPath(tuple(self.decode_many([chars])[0]))

    def emission_matrix(self, chars: Sequence[str]) -> np.ndarray:
        """Per-position label scores without dropout; the checkpoint probe output."""
        hs, _ = self.hidden_states([chars])
        return crf_ops.emissions(hs, self.crf)
