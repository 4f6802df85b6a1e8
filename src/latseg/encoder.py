"""Character representations, the coupled-gate LSTM, and the lattice LSTM.

The character LSTM couples its input gate to the forget gate (i = 1 - f).
The lattice variant adds one "shortcut" memory cell per lexicon match: an
output-gate-free LSTM cell fed by the match embedding and the state at the
match's first character in reading order. At its last character in reading
order, the candidate memory and all arriving shortcut memories are fused
with exp-normalized gates. The backward direction reads right to left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import EmbeddingTable, bigrams_of
from .errors import UsageError
from .lexicon import LatticeMatchSet
from .tensor import (
    Tensor,
    affine,
    add,
    concat,
    const,
    dropout_mask,
    mul,
    one_minus,
    param,
    row,
    sigmoid,
    slice1,
    softmax_rows,
    stack_rows,
    sum_list,
    tanh,
)


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

    h: Tensor
    c: Tensor
    alpha_char: Tensor | None = None  # normalized weight of the candidate memory
    match_alphas: list[tuple[int, Tensor]] | None = None  # (source position, weight)


def char_repr(
    chars: Sequence[str],
    unigram_table: EmbeddingTable,
    bigram_table: EmbeddingTable,
    dropout: float = 0.0,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> list[Tensor]:
    """x_i = unigram(c_i) ++ bigram(c_i c_{i+1}), elementwise dropout-masked.

    The final position's bigram pairs with the sentence-end sentinel; unseen
    symbols map to the unknown row.
    """
    uvocab, bvocab = unigram_table.vocab, bigram_table.vocab
    dtype = unigram_table.rows.data.dtype
    dim = unigram_table.dim + bigram_table.dim
    reprs = []
    for c, bg in zip(chars, bigrams_of(chars)):
        x = concat(
            [
                row(unigram_table.rows, uvocab.index(c)),
                row(bigram_table.rows, bvocab.index(bg)),
            ]
        )
        if mode == "train" and dropout > 0.0:
            x = mul(x, dropout_mask((dim,), dropout, mode, rng, dtype=dtype))
        reprs.append(x)
    return reprs


def _gate_stack(x: Tensor, h_prev: Tensor, w: Tensor, b: Tensor):
    """Two sigmoid gates and a tanh candidate from the stacked thirds of w @ [x; h_prev] + b."""
    h = h_prev.data.shape[0]
    z = affine(concat([x, h_prev]), w, b)
    return sigmoid(slice1(z, 0, h)), sigmoid(slice1(z, h, 2 * h)), tanh(slice1(z, 2 * h, 3 * h))


def lstm_step(x: Tensor, h_prev: Tensor, c_prev: Tensor, p: DirectionParams):
    """One coupled-gate LSTM step: input gate is 1 - forget gate."""
    o, f, cand = _gate_stack(x, h_prev, p.gates_w, p.gates_b)
    c = add(mul(f, c_prev), mul(one_minus(f), cand))
    h = mul(o, tanh(c))
    return h, c


def shortcut_cell(
    e_w: Tensor, h_start: Tensor, c_start: Tensor, p: DirectionParams
) -> Tensor:
    """Memory cell of one matched subsequence; no output gate, no hidden."""
    i, f, cand = _gate_stack(e_w, h_start, p.shortcut_w, p.shortcut_b)
    return add(mul(f, c_start), mul(i, cand))


def gate_logit(x: Tensor, c_match: Tensor, p: DirectionParams) -> Tensor:
    """Per-match control gate from the end character's input and the match memory."""
    return sigmoid(affine(concat([x, c_match]), p.match_gate_w, p.match_gate_b))


def gate_normalize(char_gate: Tensor, match_gates: Sequence[Tensor]):
    """Elementwise exp-normalization of the char gate against all match gates.

    Returns (alpha_char, [alpha_match...]); the weights sum to 1 at every
    coordinate. With no matches the char weight is identically 1.
    """
    if not match_gates:
        return const(np.ones_like(char_gate.data)), []
    a = softmax_rows(stack_rows([char_gate, *match_gates]))
    return row(a, 0), [row(a, i + 1) for i in range(len(match_gates))]


def lattice_forward(
    reprs: Sequence[Tensor],
    matches: LatticeMatchSet | None,
    lexicon_table: EmbeddingTable | None,
    p: DirectionParams,
    direction: str = "forward",
    entry_rows: Sequence[int] | None = None,
    lattice_dropout: float = 0.0,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> list[LatticeStep]:
    """Run one direction of the lattice LSTM over a sentence.

    Positions where no match arrives perform the plain coupled LSTM step.
    Elsewhere each arriving match contributes a shortcut memory built from
    the state at its other end; the candidate memory and the shortcut memories
    are then combined with exp-normalized gates (the candidate's gate being
    the coupled input gate 1 - f). The forward direction walks positions
    1..m and fuses matches at their end; the backward direction walks m..1
    and fuses them at their start. Steps and ``match_alphas`` sources are in
    sentence positions for both.
    """
    m = len(reprs)
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

    dtype = p.gates_b.data.dtype
    zeros = const(np.zeros(p.hidden, dtype=dtype))
    # states[i] is the state after position i; 0 and m + 1 are the initial states.
    states = [LatticeStep(h=zeros, c=zeros)] * (m + 2)
    for i in positions:
        x = reprs[i - 1]
        prev = states[i - 1 if forward else i + 1]
        here = arriving.get(i)
        if not here:
            h, c = lstm_step(x, prev.h, prev.c, p)
            states[i] = LatticeStep(h=h, c=c)
            continue
        o, f, cand = _gate_stack(x, prev.h, p.gates_w, p.gates_b)
        sources, cells, gates = [], [], []
        for mt in here:
            idx = mt.entry if entry_rows is None else entry_rows[mt.entry]
            e_w = row(lexicon_table.rows, idx)
            if mode == "train" and lattice_dropout > 0.0:
                e_w = mul(
                    e_w,
                    dropout_mask(e_w.data.shape, lattice_dropout, mode, rng, dtype=dtype),
                )
            src = mt.b if forward else mt.e
            sources.append(src)
            cell = shortcut_cell(e_w, states[src].h, states[src].c, p)
            cells.append(cell)
            gates.append(gate_logit(x, cell, p))
        alpha_char, alphas = gate_normalize(one_minus(f), gates)
        c = sum_list([mul(a, cell) for a, cell in zip(alphas, cells)] + [mul(alpha_char, cand)])
        states[i] = LatticeStep(
            h=mul(o, tanh(c)),
            c=c,
            alpha_char=alpha_char,
            match_alphas=list(zip(sources, alphas)),
        )
    return states[1 : m + 1]


def encode_bidirectional(
    reprs: Sequence[Tensor],
    matches: LatticeMatchSet | None,
    lexicon_table: EmbeddingTable | None,
    forward_params: DirectionParams,
    backward_params: DirectionParams,
    entry_rows: Sequence[int] | None = None,
    lattice_dropout: float = 0.0,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> tuple[list[Tensor], list[LatticeStep], list[LatticeStep]]:
    """h_i = forward ++ backward hidden state at every position."""
    fwd = lattice_forward(
        reprs, matches, lexicon_table, forward_params, "forward",
        entry_rows=entry_rows, lattice_dropout=lattice_dropout, mode=mode, rng=rng,
    )
    bwd = lattice_forward(
        reprs, matches, lexicon_table, backward_params, "backward",
        entry_rows=entry_rows, lattice_dropout=lattice_dropout, mode=mode, rng=rng,
    )
    hs = [concat([fs.h, bs.h]) for fs, bs in zip(fwd, bwd)]
    return hs, fwd, bwd
