"""Linear-chain CRF over BMES labels: the NLL loss and Viterbi decoding.

Scores decompose into per-position emissions (a 4-way affine projection of
the encoder hidden state) plus label-pair transitions. The transition table
covers {B, M, E, S, START, STOP}; entries into START and out of STOP are
masked to a large negative constant, which plays the role of -inf while
keeping the arithmetic finite. All partition sums run in log space with the
max-shift trick.

Every function here takes a sentence's hidden states as one (m, 2H) tensor;
:func:`emissions` maps them to a plain (m, 4) array. The loss is one recorded
op, :func:`nll_loss`: its forward is the emissions, the alpha recursion and
the gold path's terms; its backward takes the emission gradient as marginals
minus gold indicators, from the forward-backward recursions, on to the hidden
states and emission weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import LABELS, LABEL_INDEX
from .errors import ShapeError, UsageError
from .tensor import Tensor, _acc, _out, param

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

    def masked_transitions(self) -> np.ndarray:
        """Transition table with forbidden boundary entries pushed to -inf."""
        return self.transitions.data + _transition_mask(self.transitions.data.dtype)


@dataclass
class LabelPath:
    labels: tuple[str, ...]


def emissions(hs: Tensor, p: CrfParams) -> np.ndarray:
    """The (m, 4) label scores; row i has the bits of ``emit_w @ h_i + emit_b`` whatever m is."""
    # One stacked product of (4, 2H) by m column vectors: each row gets the
    # bits of w @ h, which hs @ w.T does not give.
    return np.matmul(p.emit_w.data, hs.data[:, :, None])[:, :, 0] + p.emit_b.data


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=0)), max-shifted."""
    mx = a.max(axis=0)
    return mx + np.log(np.exp(a - mx).sum(axis=0))


def nll_loss(hs: Tensor, labels: Sequence[str], p: CrfParams) -> Tensor:
    """Negative sentence log-likelihood, log Z minus the gold path's score, as one recorded op.

    The gradient is the label marginals minus the gold path's indicators,
    for emissions and transitions alike.
    """
    m = len(hs)
    if m == 0:
        raise UsageError("CRF over an empty sequence")
    if len(labels) != m:
        raise ShapeError(f"{m} hidden states but {len(labels)} labels")
    e = emissions(hs, p)
    trans = p.masked_transitions()
    inner = trans[:N_LABELS, :N_LABELS]

    alphas = [e[0] + trans[START, :N_LABELS]]
    for i in range(1, m):
        alphas.append(_logsumexp(alphas[-1][:, None] + inner) + e[i])
    alpha = np.array(alphas)
    log_z = _logsumexp(alpha[-1] + trans[:N_LABELS, STOP])
    idx = [LABEL_INDEX[lab] for lab in labels]
    moves = list(zip([START, *idx], [*idx, STOP]))
    score = sum([e[i, lab] for i, lab in enumerate(idx)] + [trans[a, b] for a, b in moves])

    def bwd(g):
        # beta[i, y]: log-sum of the scores of every continuation after label y at i
        beta = np.empty_like(alpha)
        beta[-1] = trans[:N_LABELS, STOP]
        for i in range(m - 2, -1, -1):
            beta[i] = _logsumexp(inner.T + (e[i + 1] + beta[i + 1])[:, None])
        d_emit = np.exp(alpha + beta - log_z)  # the label marginals
        moved = np.exp(alpha[:-1, :, None] + inner + (e[1:] + beta[1:])[:, None, :] - log_z)
        d_trans = np.zeros_like(trans)
        d_trans[START, :N_LABELS] = d_emit[0]
        d_trans[:N_LABELS, STOP] = d_emit[-1]
        d_trans[:N_LABELS, :N_LABELS] = moved.sum(axis=0)
        d_emit[np.arange(m), idx] -= 1.0
        for a, b in moves:
            d_trans[a, b] -= 1.0
        d_emit = g * d_emit
        _acc(p.emit_w, d_emit.T @ hs.data)
        _acc(hs, d_emit @ p.emit_w.data)
        _acc(p.emit_b, d_emit.sum(axis=0))
        _acc(p.transitions, g * d_trans)

    return _out(np.asarray(log_z - score, dtype=e.dtype), bwd)


def viterbi(hs: Tensor, p: CrfParams) -> LabelPath:
    """Highest-scoring label sequence; ties resolve to the smallest label index."""
    if len(hs) == 0:
        raise UsageError("viterbi of an empty sequence")
    emit = emissions(hs, p)
    trans = p.masked_transitions()
    inner = trans[:N_LABELS, :N_LABELS]

    m = emit.shape[0]
    delta = emit[0] + trans[START, :N_LABELS]
    back: list[np.ndarray] = []
    for i in range(1, m):
        scores = delta[:, None] + inner  # [prev, next]
        best_prev = scores.argmax(axis=0)  # first max = smallest label index
        delta = scores.max(axis=0) + emit[i]
        back.append(best_prev)

    final = delta + trans[:N_LABELS, STOP]
    last = int(final.argmax())
    path = [last]
    for bp in reversed(back):
        path.append(int(bp[path[-1]]))
    path.reverse()
    return LabelPath(labels=tuple(LABELS[i] for i in path))
