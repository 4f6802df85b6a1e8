"""Character representations, the coupled-gate LSTM, and the lattice LSTM.

The character LSTM couples its input gate to the forget gate (i = 1 - f).
The lattice variant adds one "shortcut" memory cell per lexicon match: an
output-gate-free LSTM cell fed by the match embedding and the state at the
match's first character in reading order. At its last character in reading
order, the candidate memory and all arriving shortcut memories are fused
with exp-normalized gates. The backward direction reads right to left.

A sentence enters as one (m, x_dim) matrix of character representations:
one gather per embedding table (:func:`char_repr`). Each direction over it is
one recorded op. :func:`lattice_forward` gathers the embeddings of the
matches it fuses in one lookup, walks the positions on plain arrays
(:func:`lstm_step`, :func:`shortcut_cell`, :func:`gate_logit` and
:func:`gate_normalize` per position), and records one node whose hand-written
backward walks the positions once in reverse and takes each weight and input
gradient as one matrix product over the sentence. The two directions' (m, H)
outputs join into the (m, 2H) hidden states. Training and decoding run the
same forward; without an active tape nothing is recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .data import RESERVED, EmbeddingTable, bigrams_of
from .errors import UsageError
from .lexicon import LatticeMatchSet
from .tensor import Tensor, _acc, _out, concat, dropout_mask, logistic, mul, param, rows


def _uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, dtype):
    bound = math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


@dataclass
class DirectionParams:
    """Trainable tensors for one encoding direction.

    gates_w/gates_b map [x_i; h_{i-1}] to the stacked (output, forget,
    candidate) pre-activations of the character LSTM. The shortcut cell and
    the per-match gate are only present in lattice modes.
    """

    hidden: int
    gates_w: Tensor  # (3H, x_dim + H)
    gates_b: Tensor  # (3H,)
    shortcut_w: Tensor | None = None  # (3H, word_dim + H): stacked (input, forget, candidate)
    shortcut_b: Tensor | None = None
    match_gate_w: Tensor | None = None  # (H, x_dim + H): gate over [x_i; match memory]
    match_gate_b: Tensor | None = None

    @classmethod
    def create(
        cls,
        x_dim: int,
        hidden: int,
        rng: np.random.Generator,
        word_dim: int | None = None,
        dtype=np.float64,
        name: str = "fwd",
    ) -> "DirectionParams":
        h3 = 3 * hidden
        p = cls(
            hidden=hidden,
            gates_w=param(_uniform(rng, (h3, x_dim + hidden), x_dim + hidden, dtype), f"{name}_gates_w"),
            gates_b=param(np.zeros(h3, dtype=dtype), f"{name}_gates_b"),
        )
        if word_dim is not None:
            p.shortcut_w = param(
                _uniform(rng, (h3, word_dim + hidden), word_dim + hidden, dtype), f"{name}_shortcut_w"
            )
            p.shortcut_b = param(np.zeros(h3, dtype=dtype), f"{name}_shortcut_b")
            p.match_gate_w = param(
                _uniform(rng, (hidden, x_dim + hidden), x_dim + hidden, dtype), f"{name}_match_gate_w"
            )
            p.match_gate_b = param(np.zeros(hidden, dtype=dtype), f"{name}_match_gate_b")
        return p

    def tensors(self) -> list[Tensor]:
        out = [self.gates_w, self.gates_b]
        if self.shortcut_w is not None:
            out += [self.shortcut_w, self.shortcut_b, self.match_gate_w, self.match_gate_b]
        return out


@dataclass
class LatticeStep:
    """Per-position encoder state, including the fusion weights when present."""

    h: np.ndarray
    c: np.ndarray
    alpha_char: np.ndarray | None = None  # normalized weight of the candidate memory
    match_alphas: list[tuple[int, np.ndarray]] | None = None  # (source position, weight)


def char_repr(
    chars: Sequence[str],
    unigram_table: EmbeddingTable,
    bigram_table: EmbeddingTable,
    dropout: float = 0.0,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> Tensor:
    """x_i = unigram(c_i) ++ bigram(c_i c_{i+1}) as the rows of one (m, x_dim) tensor.

    The final position's bigram pairs with the sentence-end sentinel; unseen
    symbols map to the unknown row. In train mode the matrix is
    dropout-masked elementwise.
    """
    uvocab, bvocab = unigram_table.vocab, bigram_table.vocab
    x = concat(
        [
            rows(unigram_table.rows, [uvocab.index(c) for c in chars]),
            rows(bigram_table.rows, [bvocab.index(bg) for bg in bigrams_of(chars)]),
        ]
    )
    if mode == "train" and dropout > 0.0:
        x = mul(x, dropout_mask(x.shape, dropout, mode, rng, dtype=x.data.dtype))
    return x


def _gate_stack(u: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Two sigmoid gates and a tanh candidate from the stacked thirds of w @ u + b."""
    n = b.shape[0] // 3
    z = w @ u + b
    s = logistic(z[: 2 * n])  # elementwise, so the same bits as one call per gate
    return s[:n], s[n:], np.tanh(z[2 * n :])


def lstm_step(x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, p: DirectionParams):
    """One coupled-gate LSTM step (input gate 1 - forget gate): h, c and the gates (o, f, cand)."""
    o, f, cand = _gate_stack(np.concatenate([x, h_prev]), p.gates_w.data, p.gates_b.data)
    c = f * c_prev + (1.0 - f) * cand
    return o * np.tanh(c), c, (o, f, cand)


def shortcut_cell(e_w: np.ndarray, h_start: np.ndarray, c_start: np.ndarray, p: DirectionParams):
    """Memory cell of one matched subsequence (no output gate, no hidden) and its gates (i, f, cand)."""
    i, f, cand = _gate_stack(np.concatenate([e_w, h_start]), p.shortcut_w.data, p.shortcut_b.data)
    return f * c_start + i * cand, (i, f, cand)


def gate_logit(x: np.ndarray, c_match: np.ndarray, p: DirectionParams) -> np.ndarray:
    """Per-match control gate from the end character's input and the match memory."""
    return logistic(p.match_gate_w.data @ np.concatenate([x, c_match]) + p.match_gate_b.data)


def gate_normalize(char_gate: np.ndarray, match_gates: Sequence[np.ndarray]):
    """Elementwise exp-normalization of the char gate against all match gates.

    Returns (alpha_char, [alpha_match...]); the weights sum to 1 at every
    coordinate. With no matches the char weight is identically 1.
    """
    z = np.array([char_gate, *match_gates])
    e = np.exp(z - z.max(axis=0))
    alphas = e / e.sum(axis=0)
    return alphas[0], list(alphas[1:])


class _Shortcut(NamedTuple):
    """One match's shortcut cell as the forward pass computed it, kept for backward."""

    src: int  # position whose state feeds the cell
    end: int  # position where the cell is fused
    memory: np.ndarray
    gates: tuple  # (input, forget, candidate)
    gate: np.ndarray  # the match's control gate


def lattice_forward(
    x: Tensor,
    matches: LatticeMatchSet | None,
    lexicon_table: EmbeddingTable | None,
    p: DirectionParams,
    direction: str = "forward",
    lattice_dropout: float = 0.0,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, list[LatticeStep]]:
    """Run one direction of the lattice LSTM over a sentence as one recorded op.

    ``x`` holds the sentence's (m, x_dim) character representations.
    Positions where no match arrives perform the plain coupled LSTM step.
    Elsewhere each arriving match contributes a shortcut memory built from
    the state at its other end; the candidate memory and the shortcut memories
    are then combined with exp-normalized gates (the candidate's gate being
    the coupled input gate 1 - f). The forward direction walks positions
    1..m and fuses matches at their end; the backward direction walks m..1
    and fuses them at their start.

    Returns the (m, hidden) hidden states in sentence order, the op's output,
    and one :class:`LatticeStep` per position: tape-free records of h, c and
    the fusion weights, whose ``match_alphas`` sources are sentence positions
    in both directions.
    """
    m = len(x)
    if matches is not None:
        for mt in matches.matches:
            if not 1 <= mt.b < mt.e <= m:
                raise UsageError(f"match ({mt.b}, {mt.e}) out of range for {m} positions")
    forward = direction == "forward"
    if forward:
        positions, arriving = range(1, m + 1), matches.by_end if matches else {}
    elif direction == "backward":
        positions, arriving = range(m, 0, -1), matches.by_start if matches else {}
    else:
        raise UsageError(f"direction must be 'forward' or 'backward', got {direction!r}")
    back = -1 if forward else 1  # the previous position in walk order is i + back

    dtype = p.gates_b.data.dtype
    # The op's other input: the embeddings of the matches it fuses, gathered in
    # walk order, so that their dropout mask draws from rng in that order.
    ids = [len(RESERVED) + mt.entry for i in positions for mt in arriving.get(i, ())]
    words = None
    if ids:
        words = rows(lexicon_table.rows, ids)
        if mode == "train" and lattice_dropout > 0.0:
            words = mul(words, dropout_mask(words.shape, lattice_dropout, mode, rng, dtype=dtype))

    # hs[i], cs[i]: the state after position i; rows 0 and m + 1 are the initial states.
    hs = np.zeros((m + 2, p.hidden), dtype)
    cs = np.zeros((m + 2, p.hidden), dtype)
    gates = []  # (o, f, cand) per step, in walk order
    cells = []  # per match in walk order
    steps = [None] * m
    for i in positions:
        x_i = x.data[i - 1]
        prev = i + back
        here = arriving.get(i)
        if not here:
            hs[i], cs[i], g = lstm_step(x_i, hs[prev], cs[prev], p)
            gates.append(g)
            steps[i - 1] = LatticeStep(hs[i], cs[i])
            continue
        o, f, cand = _gate_stack(np.concatenate([x_i, hs[prev]]), p.gates_w.data, p.gates_b.data)
        first = len(cells)
        for mt in here:
            src = mt.b if forward else mt.e
            memory, cell_gates = shortcut_cell(words.data[len(cells)], hs[src], cs[src], p)
            cells.append(_Shortcut(src, i, memory, cell_gates, gate_logit(x_i, memory, p)))
        alpha_char, alphas = gate_normalize(1.0 - f, [cell.gate for cell in cells[first:]])
        c = alphas[0] * cells[first].memory  # summed in order: matches, then candidate
        for a, cell in zip(alphas[1:], cells[first + 1 :]):
            c += a * cell.memory
        c += alpha_char * cand
        hs[i], cs[i] = o * np.tanh(c), c
        gates.append((o, f, cand))
        steps[i - 1] = LatticeStep(
            hs[i], cs[i], alpha_char, [(cell.src, a) for cell, a in zip(cells[first:], alphas)]
        )

    def bwd(g):
        _direction_backward(g, x, words, p, positions, back, hs, cs, gates, steps, cells)

    return _out(hs[1 : m + 1], bwd), steps


def _direction_backward(g, x, words, p, positions, back, hs, cs, gates, steps, cells):
    """Backward of one :func:`lattice_forward` op, given its output gradient g (m, hidden).

    One reverse walk collects each state's dh/dc from the next step and from
    every shortcut leaving it, and stores each step's gate pre-activation
    gradients as a row; every weight and input gradient is then one matrix
    product over those rows. Factors that do not depend on the incoming
    gradients are computed for all steps at once before the walk.
    """
    hidden = p.hidden
    x_dim = p.gates_w.data.shape[1] - hidden
    w = p.gates_w.data
    w_h = w[:, x_dim:]
    walk = np.asarray(positions)
    o, f, cand = np.array(gates).transpose(1, 0, 2)  # each (steps, hidden), walk order
    tanh_c = np.tanh(cs[walk])
    d_o = tanh_c * o * (1.0 - o)  # dz_o = dh * d_o
    dc_dh = o * (1.0 - tanh_c * tanh_c)  # dc = dc from later steps + dh * dc_dh
    f_slope = f * (1.0 - f)
    cand_slope = 1.0 - cand * cand
    # plain step, c = f * c_prev + (1 - f) * cand: (dz_f, dz_cand) = dc * d_fc
    d_fc = np.array([(cs[walk + back] - cand) * f_slope, (1.0 - f) * cand_slope]).transpose(1, 0, 2)
    if cells:
        ws_h = p.shortcut_w.data[:, -hidden:]
        wg_c = p.match_gate_w.data[:, x_dim:]
        sources = [cell.src for cell in cells]
        gi, gf, gc = np.array([cell.gates for cell in cells]).transpose(1, 0, 2)
        # memory = gf * c_src + gi * gc: (dz_i, dz_f, dz_cand) = dmemory * d_cell
        d_cell = np.array([gc * gi * (1.0 - gi), cs[sources] * gf * (1.0 - gf), gi * (1.0 - gc * gc)])
        d_cell = d_cell.transpose(1, 0, 2)
        gate = np.array([cell.gate for cell in cells])
        gate_slope = gate * (1.0 - gate)

    dh_all = np.zeros_like(hs)
    dh_all[1:-1] = g
    dc_all = np.zeros_like(cs)
    dz = np.empty((len(walk), 3, hidden), hs.dtype)  # walk order
    dz_cell = np.empty((len(cells), 3, hidden), hs.dtype)  # shortcut cells, walk order
    dz_gate = np.empty((len(cells), hidden), hs.dtype)  # match gates, walk order
    end = len(cells)  # cells fused at this walk step and earlier come before this index
    for k in range(len(walk) - 1, -1, -1):
        i = positions[k]
        prev = i + back
        dh = dh_all[i]
        dc = dc_all[i] + dh * dc_dh[k]
        np.multiply(dh, d_o[k], out=dz[k, 0])
        step = steps[i - 1]
        if step.match_alphas is None:
            np.multiply(dc, d_fc[k], out=dz[k, 1:])
            dc_all[prev] += dc * f[k]
        else:
            fused = range(end - len(step.match_alphas), end)
            end = fused.start
            alpha = np.array([step.alpha_char, *(a for _, a in step.match_alphas)])
            dalpha = np.array([cand[k], *(cells[j].memory for j in fused)]) * dc
            dlogit = alpha * (dalpha - (dalpha * alpha).sum(axis=0))  # softmax backward
            np.multiply(-dlogit[0], f_slope[k], out=dz[k, 1])
            np.multiply(dc * alpha[0], cand_slope[k], out=dz[k, 2])
            for r, j in enumerate(fused, start=1):
                np.multiply(dlogit[r], gate_slope[j], out=dz_gate[j])
                dmemory = dc * alpha[r] + dz_gate[j] @ wg_c
                np.multiply(dmemory, d_cell[j], out=dz_cell[j])
                dc_all[cells[j].src] += dmemory * gf[j]
                dh_all[cells[j].src] += dz_cell[j].reshape(-1) @ ws_h
        dh_all[prev] += dz[k].reshape(-1) @ w_h

    dz = dz.reshape(len(walk), -1)
    _acc(p.gates_w, dz.T @ np.concatenate([x.data[walk - 1], hs[walk + back]], axis=1))
    _acc(p.gates_b, dz.sum(axis=0))
    dx = np.zeros_like(x.data)
    dx[walk - 1] = dz @ w[:, :x_dim]
    if cells:
        dz_cell = dz_cell.reshape(len(cells), -1)
        ends = np.array([cell.end for cell in cells])
        e = words.data
        _acc(p.shortcut_w, dz_cell.T @ np.concatenate([e, hs[sources]], axis=1))
        _acc(p.shortcut_b, dz_cell.sum(axis=0))
        memories = np.array([cell.memory for cell in cells])
        _acc(p.match_gate_w, dz_gate.T @ np.concatenate([x.data[ends - 1], memories], axis=1))
        _acc(p.match_gate_b, dz_gate.sum(axis=0))
        np.add.at(dx, ends - 1, dz_gate @ p.match_gate_w.data[:, :x_dim])
        _acc(words, dz_cell @ p.shortcut_w.data[:, : e.shape[1]])
    _acc(x, dx)


def encode_bidirectional(
    x: Tensor,
    matches: LatticeMatchSet | None,
    lexicon_table: EmbeddingTable | None,
    forward_params: DirectionParams,
    backward_params: DirectionParams,
    lattice_dropout: float = 0.0,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, list[LatticeStep], list[LatticeStep]]:
    """The (m, 2 * hidden) hidden states: row i is forward ++ backward state at position i."""
    hf, fwd = lattice_forward(
        x, matches, lexicon_table, forward_params, "forward",
        lattice_dropout=lattice_dropout, mode=mode, rng=rng,
    )
    hb, bwd = lattice_forward(
        x, matches, lexicon_table, backward_params, "backward",
        lattice_dropout=lattice_dropout, mode=mode, rng=rng,
    )
    return concat([hf, hb]), fwd, bwd
