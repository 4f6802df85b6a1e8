"""Linear-chain CRF over BMES labels: the NLL loss and Viterbi decoding.

Scores decompose into per-position emissions (a 4-way affine projection of
the encoder hidden state) plus label-pair transitions. The transition table
covers {B, M, E, S, START, STOP}; entries into START and out of STOP are
masked to a large negative constant, which plays the role of -inf while
keeping the arithmetic finite. All partition sums run in log space with the
max-shift trick.

Every function here takes a sentence's hidden states as one (m, 2H) tensor;
:func:`emissions` maps them to a plain (m, 4) array. The loss is one recorded
op, :func:`nll_loss`: its forward is the emissions, the alpha and beta
recursions as two lanes of one, and the gold path's terms; its backward
takes the emission gradient as marginals minus gold indicators on to the
hidden states and emission weights. :func:`viterbi` decodes several
sentences' stacked states as lanes sorted by length into label tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import LABELS, LABEL_INDEX
from .errors import ShapeError, UsageError
from .tensor import Tensor, _acc, _out, param, uniform

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
    def create(cls, input_dim: int, rng: np.random.Generator, dtype=np.float64) -> "CrfParams":
        return cls(
            emit_w=uniform(rng, (N_LABELS, input_dim), input_dim, dtype, "crf_emit_w"),
            emit_b=param(np.zeros(N_LABELS, dtype=dtype), "crf_emit_b"),
            transitions=param(np.zeros((N_STATES, N_STATES), dtype=dtype), "crf_transitions"),
        )

    def tensors(self) -> list[Tensor]:
        return [self.emit_w, self.emit_b, self.transitions]

    def masked_transitions(self) -> np.ndarray:
        """Transition table with forbidden boundary entries pushed to -inf."""
        return self.transitions.data + _transition_mask(self.transitions.data.dtype)


@dataclass
class LabelPath:
    """One sentence's decoded labels, as a tuple of one-letter strings."""

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

    The forward runs alpha and beta as the two lanes of one recursion over
    the stacked (inner, inner.T) transitions: step t gives alpha[t] and
    beta[m - 1 - t]. The gradient is the label marginals minus the gold path's
    indicators, for emissions and transitions alike.
    """
    m = len(hs)
    if m == 0:
        raise UsageError("CRF over an empty sequence")
    if len(labels) != m:
        raise ShapeError(f"{m} hidden states but {len(labels)} labels")
    e = emissions(hs, p)
    trans = p.masked_transitions()
    inner = trans[:N_LABELS, :N_LABELS]

    # Lane 0 is alpha; lane 1 is beta, walked from the end. Step t reads
    # v[t - 1] and writes lse[t] (log-sum-exp over the previous label) and
    # v[t] = lse[t] + (e[t], e[m - 1 - t]): alpha[t] = v[t, 0], beta[m - 1 - t] = lse[t, 1].
    stacked = np.array([inner, inner.T])
    lane_e = np.array([e, e[::-1]]).transpose(1, 0, 2)
    v, lse = np.empty((m, 2, N_LABELS), e.dtype), np.empty((m, 2, N_LABELS), e.dtype)
    v[0, 0] = e[0] + trans[START, :N_LABELS]
    lse[0, 1] = trans[:N_LABELS, STOP]
    v[0, 1] = lse[0, 1] + e[-1]
    scores = np.empty((2, N_LABELS, N_LABELS), e.dtype)
    mx, total = np.empty((2, N_LABELS), e.dtype), np.empty((2, N_LABELS), e.dtype)
    for t in range(1, m):
        np.add(v[t - 1][:, :, None], stacked, out=scores)
        np.maximum.reduce(scores, axis=1, out=mx)
        scores -= mx[:, None]
        np.exp(scores, out=scores)
        np.add.reduce(scores, axis=1, out=total)
        np.log(total, out=total)
        np.add(mx, total, out=lse[t])
        np.add(lse[t], lane_e[t], out=v[t])
    alpha, beta = v[:, 0], lse[::-1, 1]
    log_z = _logsumexp(alpha[-1] + trans[:N_LABELS, STOP])
    idx = [LABEL_INDEX[lab] for lab in labels]
    moves = list(zip([START, *idx], [*idx, STOP]))
    score = sum([e[i, lab] for i, lab in enumerate(idx)] + [trans[a, b] for a, b in moves])

    def bwd(g):
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


def viterbi(hs: Tensor, p: CrfParams, lengths: Sequence[int]) -> list[str]:
    """Each sentence's highest-scoring labels, one letter each; ties resolve to the smallest label index.

    ``hs`` stacks the hidden states of sentences of ``lengths``. Their
    recursions run as lanes sorted by length, so the lanes still running at
    a step are a prefix.
    """
    lengths = list(lengths)
    if not lengths or min(lengths) == 0:
        raise UsageError("viterbi of an empty sequence")
    if sum(lengths) != len(hs):
        raise ShapeError(f"{len(hs)} hidden states but lengths {lengths}")
    emit = emissions(hs, p)
    trans = p.masked_transitions()
    inner = trans[:N_LABELS, :N_LABELS]

    order = sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)
    sorted_len = [lengths[s] for s in order]
    walking = (-np.array(sorted_len)).searchsorted(-np.arange(sorted_len[0])).tolist()
    # Step i's emissions of every lane; a lane past its end repeats its last row.
    starts = np.cumsum([0] + lengths)[order]
    step_emit = emit[starts + np.minimum.outer(np.arange(sorted_len[0]), np.array(sorted_len) - 1)]
    delta = step_emit[0] + trans[START, :N_LABELS]
    back = np.empty((len(walking), len(order), N_LABELS), np.intp)
    scores = np.empty((len(order), N_LABELS, N_LABELS), emit.dtype)  # [lane, prev, next]
    k0 = 1
    while k0 < len(walking):  # one pass per stretch of steps over the same walking lanes
        a = walking[k0]
        k1 = k0 + walking[k0:].count(a)
        lanes_delta, lanes_scores = delta[:a], scores[:a]
        for e, best_prev in zip(step_emit[k0:k1, :a], back[k0:k1, :a]):
            np.add(lanes_delta[:, :, None], inner, out=lanes_scores)
            lanes_scores.argmax(axis=1, out=best_prev)  # first max = smallest label index
            lanes_scores.max(axis=1, out=lanes_delta)
            lanes_delta += e
        k0 = k1

    last = (delta + trans[:N_LABELS, STOP]).argmax(axis=1).tolist()  # each lane's final label
    back = back.tolist()
    labels = [None] * len(order)
    for lane, (s, m, label) in enumerate(zip(order, sorted_len, last)):
        path = [label]
        for i in range(m - 1, 0, -1):
            label = back[i][lane][label]
            path.append(label)
        labels[s] = "".join(map(LABELS.__getitem__, reversed(path)))
    return labels
