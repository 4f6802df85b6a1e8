"""Linear-chain CRF over BMES labels: scoring, partition, loss, Viterbi.

Scores decompose into per-position emissions (a 4-way affine projection of
the encoder hidden state) plus label-pair transitions. The transition table
covers {B, M, E, S, START, STOP}; entries into START and out of STOP are
masked to a large negative constant, which plays the role of -inf while
keeping the arithmetic finite. All partition sums run in log space with the
max-shift trick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import LABELS, LABEL_INDEX
from .errors import ShapeError, UsageError
from .tensor import (
    Tensor,
    add,
    add_outer,
    affine,
    block,
    const,
    logsumexp,
    logsumexp_rows,
    param,
    pick,
    pick2,
    ravel,
    sub,
    sum_list,
)

N_LABELS = len(LABELS)  # B, M, E, S
START = 4
STOP = 5
N_STATES = 6
MASK_VALUE = -1e4  # effectively -inf: exp(MASK_VALUE) underflows to 0


def _transition_mask(dtype) -> np.ndarray:
    mask = np.zeros((N_STATES, N_STATES), dtype=dtype)
    mask[:, START] = MASK_VALUE  # nothing transitions into START
    mask[STOP, :] = MASK_VALUE  # nothing leaves STOP
    return mask


@dataclass
class CrfParams:
    """Emission projection plus the 6x6 transition table."""

    emit_w: Tensor  # (4, 2H)
    emit_b: Tensor  # (4,)
    transitions: Tensor  # (6, 6), rows = previous label, columns = next label

    @classmethod
    def create(cls, input_dim: int, rng: np.random.Generator, dtype=np.float64, name: str = "crf") -> "CrfParams":
        bound = math.sqrt(3.0 / input_dim)
        return cls(
            emit_w=param(
                rng.uniform(-bound, bound, size=(N_LABELS, input_dim)).astype(dtype),
                f"{name}_emit_w",
            ),
            emit_b=param(np.zeros(N_LABELS, dtype=dtype), f"{name}_emit_b"),
            transitions=param(np.zeros((N_STATES, N_STATES), dtype=dtype), f"{name}_transitions"),
        )

    def tensors(self) -> list[Tensor]:
        return [self.emit_w, self.emit_b, self.transitions]

    def masked_transitions(self) -> Tensor:
        """Transition table with forbidden boundary entries pushed to -inf."""
        return add(self.transitions, const(_transition_mask(self.transitions.data.dtype)))


@dataclass
class LabelPath:
    labels: tuple[str, ...]
    score: float

    def __len__(self) -> int:
        return len(self.labels)


def _label_indices(labels: Sequence) -> list[int]:
    return [lab if isinstance(lab, int) else LABEL_INDEX[lab] for lab in labels]


def emissions(hs: Sequence[Tensor], p: CrfParams) -> list[Tensor]:
    """Per-position 4-way label scores."""
    return [affine(h, p.emit_w, p.emit_b) for h in hs]


def _score_from(emits: Sequence[Tensor], idx: list[int], trans: Tensor) -> Tensor:
    terms = [pick(e, lab) for e, lab in zip(emits, idx)]
    prev = START
    for lab in idx:
        terms.append(pick2(trans, prev, lab))
        prev = lab
    terms.append(pick2(trans, prev, STOP))
    return sum_list(terms)


def _partition_from(emits: Sequence[Tensor], trans: Tensor) -> Tensor:
    inner = block(trans, 0, N_LABELS, 0, N_LABELS)
    alpha = add(emits[0], ravel(block(trans, START, START + 1, 0, N_LABELS)))
    for e in emits[1:]:
        alpha = add(logsumexp_rows(add_outer(alpha, inner)), e)
    return logsumexp(add(alpha, ravel(block(trans, 0, N_LABELS, STOP, STOP + 1))))


def score_path(hs: Sequence[Tensor], labels: Sequence, p: CrfParams) -> Tensor:
    """Unnormalized path score: emissions plus transitions, START to STOP."""
    if len(hs) != len(labels):
        raise ShapeError(f"{len(hs)} hidden states but {len(labels)} labels")
    return _score_from(emissions(hs, p), _label_indices(labels), p.masked_transitions())


def log_partition(hs: Sequence[Tensor], p: CrfParams) -> Tensor:
    """log of the summed exp-score over all 4^m label sequences."""
    if not hs:
        raise UsageError("log_partition of an empty sequence")
    return _partition_from(emissions(hs, p), p.masked_transitions())


def nll_loss(hs: Sequence[Tensor], labels: Sequence, p: CrfParams) -> Tensor:
    """Negative sentence log-likelihood: log_partition - gold path score."""
    if len(hs) != len(labels):
        raise ShapeError(f"{len(hs)} hidden states but {len(labels)} labels")
    emits = emissions(hs, p)
    trans = p.masked_transitions()
    return sub(_partition_from(emits, trans), _score_from(emits, _label_indices(labels), trans))


def viterbi(hs: Sequence[Tensor], p: CrfParams) -> LabelPath:
    """Highest-scoring label sequence; ties resolve to the smallest label index."""
    if not hs:
        raise UsageError("viterbi of an empty sequence")
    emit = np.stack([e.data for e in emissions(hs, p)])
    trans = p.masked_transitions().data
    inner = trans[:N_LABELS, :N_LABELS]

    m = emit.shape[0]
    delta = emit[0] + trans[START, :N_LABELS]
    back: list[np.ndarray] = []
    for i in range(1, m):
        scores = delta[:, None] + inner  # [prev, next]
        best_prev = scores.argmax(axis=0)  # first max = smallest label index
        delta = scores[best_prev, np.arange(N_LABELS)] + emit[i]
        back.append(best_prev)

    final = delta + trans[:N_LABELS, STOP]
    last = int(final.argmax())
    path = [last]
    for bp in reversed(back):
        path.append(int(bp[path[-1]]))
    path.reverse()
    return LabelPath(labels=tuple(LABELS[i] for i in path), score=float(final[last]))
