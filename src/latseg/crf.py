"""Linear-chain CRF over BMES labels: scoring, partition, loss, Viterbi.

Scores decompose into per-position emissions (a 4-way affine projection of
the encoder hidden state) plus label-pair transitions. The transition table
covers {B, M, E, S, START, STOP}; entries into START and out of STOP are
masked to a large negative constant, which plays the role of -inf while
keeping the arithmetic finite. All partition sums run in log space with the
max-shift trick.

Every function here takes a sentence's hidden states as one (m, 2H) tensor.
The emissions are one recorded :func:`~latseg.tensor.affine` of it. Path
score, log-partition and loss are one recorded op each, :func:`_objective`:
its forward is the alpha recursion plus the gold path's terms, and its
backward gives the gradient as marginals minus gold indicators, from the
forward-backward recursions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import LABELS, LABEL_INDEX
from .errors import ShapeError, UsageError
from .tensor import Tensor, _acc, _out, affine, const, param

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
        return const(self.transitions.data + _transition_mask(self.transitions.data.dtype))


@dataclass
class LabelPath:
    labels: tuple[str, ...]
    score: float

    def __len__(self) -> int:
        return len(self.labels)


def _label_indices(labels: Sequence) -> list[int]:
    return [lab if isinstance(lab, int) else LABEL_INDEX[lab] for lab in labels]


def emissions(hs: Tensor, p: CrfParams) -> Tensor:
    """Per-position 4-way label scores of the (m, 2H) hidden states as one (m, 4) tensor."""
    return affine(hs, p.emit_w, p.emit_b)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=0)), max-shifted."""
    mx = a.max(axis=0)
    return mx + np.log(np.exp(a - mx).sum(axis=0))


def _objective(
    hs: Tensor, labels: Sequence | None, p: CrfParams, z_weight: float, path_weight: float
) -> Tensor:
    """z_weight * log_partition + path_weight * score of ``labels``, as one recorded op.

    The gradient is z_weight times the label marginals plus path_weight
    times the gold path's indicators, for emissions and transitions alike.
    """
    m = len(hs)
    if m == 0:
        raise UsageError("CRF over an empty sequence")
    if labels is not None and len(labels) != m:
        raise ShapeError(f"{m} hidden states but {len(labels)} labels")
    emits = emissions(hs, p)
    e = emits.data
    trans = p.masked_transitions().data
    inner = trans[:N_LABELS, :N_LABELS]

    value = 0.0
    if z_weight:
        alphas = [e[0] + trans[START, :N_LABELS]]
        for i in range(1, m):
            alphas.append(_logsumexp(alphas[-1][:, None] + inner) + e[i])
        alpha = np.array(alphas)
        log_z = _logsumexp(alpha[-1] + trans[:N_LABELS, STOP])
        value = value + z_weight * log_z
    if path_weight:
        idx = _label_indices(labels)
        moves = list(zip([START, *idx], [*idx, STOP]))
        score = sum([e[i, lab] for i, lab in enumerate(idx)] + [trans[a, b] for a, b in moves])
        value = value + path_weight * score

    def bwd(g):
        d_emit = np.zeros_like(e)
        d_trans = np.zeros_like(trans)
        if z_weight:
            # beta[i, y]: log-sum of the scores of every continuation after label y at i
            beta = np.empty_like(alpha)
            beta[-1] = trans[:N_LABELS, STOP]
            for i in range(m - 2, -1, -1):
                beta[i] = _logsumexp(inner.T + (e[i + 1] + beta[i + 1])[:, None])
            marginals = np.exp(alpha + beta - log_z)
            moved = np.exp(alpha[:-1, :, None] + inner + (e[1:] + beta[1:])[:, None, :] - log_z)
            d_emit += z_weight * marginals
            d_trans[START, :N_LABELS] += z_weight * marginals[0]
            d_trans[:N_LABELS, STOP] += z_weight * marginals[-1]
            d_trans[:N_LABELS, :N_LABELS] += z_weight * moved.sum(axis=0)
        if path_weight:
            d_emit[np.arange(m), idx] += path_weight
            for a, b in moves:
                d_trans[a, b] += path_weight
        _acc(emits, g * d_emit)
        _acc(p.transitions, g * d_trans)

    return _out(np.asarray(value, dtype=e.dtype), bwd)


def score_path(hs: Tensor, labels: Sequence, p: CrfParams) -> Tensor:
    """Unnormalized path score: emissions plus transitions, START to STOP."""
    return _objective(hs, labels, p, 0.0, 1.0)


def log_partition(hs: Tensor, p: CrfParams) -> Tensor:
    """log of the summed exp-score over all 4^m label sequences."""
    return _objective(hs, None, p, 1.0, 0.0)


def nll_loss(hs: Tensor, labels: Sequence, p: CrfParams) -> Tensor:
    """Negative sentence log-likelihood: log_partition - gold path score."""
    return _objective(hs, labels, p, 1.0, -1.0)


def viterbi(hs: Tensor, p: CrfParams) -> LabelPath:
    """Highest-scoring label sequence; ties resolve to the smallest label index."""
    if len(hs) == 0:
        raise UsageError("viterbi of an empty sequence")
    emit = emissions(hs, p).data
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
