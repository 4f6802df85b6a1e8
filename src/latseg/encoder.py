"""Character representations, the coupled-gate LSTM, and the lattice LSTM.

The character LSTM couples its input gate to the forget gate (i = 1 - f).
The lattice variant adds one "shortcut" memory cell per lexicon match: an
output-gate-free LSTM cell fed by the match embedding and the state at the
match's first character in reading order. At its last character in reading
order, the candidate memory and all arriving shortcut memories are fused
with exp-normalized gates. The backward direction reads right to left.

A sentence enters as one (m, x_dim) matrix of character representations:
one gather per embedding table (:func:`char_repr`). Each direction over it is
one recorded op. :func:`lattice_forward` sorts the sentence's matches once
into its walk order, gathers their embeddings in one lookup, and walks the
positions on plain arrays: one gate stack per position, plus
:func:`shortcut_cell` and :func:`gate_logit` per arriving match and
:func:`gate_normalize` per fused position. It records one node whose
hand-written backward walks the positions once in reverse over the forward's
values and takes each weight and input gradient as one matrix product over
the sentence. The two
directions' (m, H) outputs join into the (m, 2H) hidden states. Training and
decoding run the same forward; without an active tape nothing is recorded,
and without an ``rng`` nothing is dropped out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .data import RESERVED, EmbeddingTable, bigrams_of
from .errors import UsageError
from .lexicon import LatticeMatchSet
from .tensor import Tensor, _acc, _out, concat, logistic, param, rows
from .tensor import dropout as _dropout  # char_repr's ``dropout`` keyword shadows the name


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


def char_repr(
    chars: Sequence[str],
    unigram_table: EmbeddingTable,
    bigram_table: EmbeddingTable,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """x_i = unigram(c_i) ++ bigram(c_i c_{i+1}) as the rows of one (m, x_dim) tensor.

    The final position's bigram pairs with the sentence-end sentinel; unseen
    symbols map to the unknown row. Given an ``rng``, the matrix is
    dropout-masked elementwise.
    """
    uvocab, bvocab = unigram_table.vocab, bigram_table.vocab
    x = concat(
        [
            rows(unigram_table.rows, [uvocab.index(c) for c in chars]),
            rows(bigram_table.rows, [bvocab.index(bg) for bg in bigrams_of(chars)]),
        ]
    )
    return _dropout(x, dropout, rng)


def _gate_stack(u: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Two sigmoid gates and a tanh candidate from the stacked thirds of w @ u + b."""
    n = b.shape[0] // 3
    z = w @ u + b
    s = logistic(z[: 2 * n])  # elementwise, so the same bits as one call per gate
    return s[:n], s[n:], np.tanh(z[2 * n :])


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


class Fusion(NamedTuple):
    """One direction's fusion weights, matches in walk order and positions in sentence order.

    The matches fused at one position are adjacent.
    """

    src: np.ndarray  # (k,) position whose state feeds each match's shortcut cell
    end: np.ndarray  # (k,) position where that cell is fused
    alpha: np.ndarray  # (k, hidden) each match's weight
    alpha_char: np.ndarray  # (m, hidden) the candidate memory's weight; 1 where nothing is fused


def lattice_forward(
    x: Tensor,
    matches: LatticeMatchSet | None,
    lexicon_table: EmbeddingTable | None,
    p: DirectionParams,
    direction: str = "forward",
    lattice_dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Fusion]:
    """Run one direction of the lattice LSTM over a sentence as one recorded op.

    ``x`` holds the sentence's (m, x_dim) character representations. Each
    position takes the coupled LSTM gates (o, f, cand) and emits o * tanh(c).
    Where no match arrives, c = f * c_prev + (1 - f) * cand. Elsewhere each
    arriving match contributes a shortcut memory built from the state at its
    other end, and c sums the shortcut memories, then the candidate, weighted
    by exp-normalized gates (the candidate's gate is the coupled input gate
    1 - f). The forward direction walks positions 1..m and fuses matches at
    their end; the backward direction walks m..1 and fuses them at their start,
    each position's matches in order of their source position. Given an
    ``rng``, the match embeddings are dropout-masked.

    Returns the op's output, the (m, hidden) hidden states in sentence order,
    and the direction's :class:`Fusion` record, which nothing on the tape reads.
    """
    m = len(x)
    forward = direction == "forward"
    src = end = ids = np.zeros(0, np.intp)  # per match in walk order
    if matches is not None:
        bad = (matches.b < 1) | (matches.b >= matches.e) | (matches.e > m)
        if bad.any():
            k = bad.argmax()
            raise UsageError(f"match ({matches.b[k]}, {matches.e[k]}) out of range for {m} positions")
        src, end = (matches.b, matches.e) if forward else (matches.e, matches.b)
        order = np.lexsort((src, end if forward else -end))  # by fusion position, then source
        src, end, ids = src[order], end[order], len(RESERVED) + matches.entry[order]
    if not forward and direction != "backward":
        raise UsageError(f"direction must be 'forward' or 'backward', got {direction!r}")
    positions = range(1, m + 1) if forward else range(m, 0, -1)
    back = -1 if forward else 1  # the previous position in walk order is i + back
    n_fused = np.bincount(end, minlength=m + 2).tolist()  # matches fused per position

    dtype = p.gates_b.data.dtype
    # The op's other input: the embeddings of the matches it fuses, gathered in
    # walk order, so that their dropout mask draws from rng in that order.
    words = None
    if len(ids):
        words = _dropout(rows(lexicon_table.rows, ids), lattice_dropout, rng)

    # hs[i], cs[i]: the state after position i; rows 0 and m + 1 are the initial states.
    hs = np.zeros((m + 2, p.hidden), dtype)
    cs = np.zeros((m + 2, p.hidden), dtype)
    gates = []  # (o, f, cand) per step, in walk order
    # Per match in walk order: Fusion's alpha, then the shortcut memory, its
    # (input, forget, candidate) gates and the match's control gate.
    alpha, memory, cell_gates, gate = [], [], [], []
    alpha_char = np.ones((m, p.hidden), dtype)
    sources = src.tolist()
    for i in positions:
        x_i = x.data[i - 1]
        prev = i + back
        o, f, cand = _gate_stack(np.concatenate([x_i, hs[prev]]), p.gates_w.data, p.gates_b.data)
        gates.append((o, f, cand))
        if not n_fused[i]:
            c = f * cs[prev] + (1.0 - f) * cand
        else:
            first = len(memory)
            for s in sources[first : first + n_fused[i]]:
                mem, g = shortcut_cell(words.data[len(memory)], hs[s], cs[s], p)
                memory.append(mem)
                cell_gates.append(g)
                gate.append(gate_logit(x_i, mem, p))
            a_char, alphas = gate_normalize(1.0 - f, gate[first:])
            c = alphas[0] * memory[first]  # summed in order: matches, then candidate
            for a, mem in zip(alphas[1:], memory[first + 1 :]):
                c += a * mem
            c += a_char * cand
            alpha += alphas
            alpha_char[i - 1] = a_char
        hs[i], cs[i] = o * np.tanh(c), c

    alpha = np.array(alpha, dtype).reshape(-1, p.hidden)

    def bwd(g):
        # One reverse walk collects each state's dh/dc from the next step and
        # from every shortcut leaving it, and stores each step's gate
        # pre-activation gradients as a row; every weight and input gradient is
        # then one matrix product over those rows. Factors that do not depend on
        # g are computed for all steps at once before the walk.
        hidden, w = p.hidden, p.gates_w.data
        x_dim = w.shape[1] - hidden
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
        n_cells = len(memory)
        if n_cells:
            ws_h = p.shortcut_w.data[:, -hidden:]
            wg_c = p.match_gate_w.data[:, x_dim:]
            mems = np.array(memory)
            gi, gf, gc = np.array(cell_gates).transpose(1, 0, 2)
            # memory = gf * c_src + gi * gc: (dz_i, dz_f, dz_cand) = dmemory * d_cell
            d_cell = np.array([gc * gi * (1.0 - gi), cs[src] * gf * (1.0 - gf), gi * (1.0 - gc * gc)])
            d_cell = d_cell.transpose(1, 0, 2)
            control = np.array(gate)
            gate_slope = control * (1.0 - control)

        dh_all = np.zeros_like(hs)
        dh_all[1:-1] = g
        dc_all = np.zeros_like(cs)
        dz = np.empty((len(walk), 3, hidden), dtype)  # walk order
        dz_cell = np.empty((n_cells, 3, hidden), dtype)  # shortcut cells, walk order
        dz_gate = np.empty((n_cells, hidden), dtype)  # match gates, walk order
        stop = n_cells  # cells fused at this walk step and earlier come before this index
        for k in range(len(walk) - 1, -1, -1):
            i = positions[k]
            prev = i + back
            dh = dh_all[i]
            dc = dc_all[i] + dh * dc_dh[k]
            np.multiply(dh, d_o[k], out=dz[k, 0])
            if not n_fused[i]:
                np.multiply(dc, d_fc[k], out=dz[k, 1:])
                dc_all[prev] += dc * f[k]
            else:
                start = stop - n_fused[i]
                a = np.concatenate((alpha_char[i - 1 : i], alpha[start:stop]))
                da = np.concatenate((cand[k : k + 1], mems[start:stop])) * dc
                dlogit = a * (da - (da * a).sum(axis=0))  # softmax backward
                np.multiply(-dlogit[0], f_slope[k], out=dz[k, 1])
                np.multiply(dc * a[0], cand_slope[k], out=dz[k, 2])
                for r, j in enumerate(range(start, stop), start=1):
                    np.multiply(dlogit[r], gate_slope[j], out=dz_gate[j])
                    dmemory = dc * a[r] + dz_gate[j] @ wg_c
                    np.multiply(dmemory, d_cell[j], out=dz_cell[j])
                    dc_all[sources[j]] += dmemory * gf[j]
                    dh_all[sources[j]] += dz_cell[j].reshape(-1) @ ws_h
                stop = start
            dh_all[prev] += dz[k].reshape(-1) @ w_h

        dz = dz.reshape(len(walk), -1)
        _acc(p.gates_w, dz.T @ np.concatenate([x.data[walk - 1], hs[walk + back]], axis=1))
        _acc(p.gates_b, dz.sum(axis=0))
        dx = np.zeros_like(x.data)
        dx[walk - 1] = dz @ w[:, :x_dim]
        if n_cells:
            dz_cell = dz_cell.reshape(n_cells, -1)
            e = words.data
            _acc(p.shortcut_w, dz_cell.T @ np.concatenate([e, hs[src]], axis=1))
            _acc(p.shortcut_b, dz_cell.sum(axis=0))
            _acc(p.match_gate_w, dz_gate.T @ np.concatenate([x.data[end - 1], mems], axis=1))
            _acc(p.match_gate_b, dz_gate.sum(axis=0))
            np.add.at(dx, end - 1, dz_gate @ p.match_gate_w.data[:, :x_dim])
            _acc(words, dz_cell @ p.shortcut_w.data[:, : e.shape[1]])
        _acc(x, dx)

    return _out(hs[1 : m + 1], bwd), Fusion(src, end, alpha, alpha_char)


def encode_bidirectional(
    x: Tensor,
    matches: LatticeMatchSet | None,
    lexicon_table: EmbeddingTable | None,
    forward_params: DirectionParams,
    backward_params: DirectionParams,
    lattice_dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Fusion, Fusion]:
    """The (m, 2 * hidden) hidden states and each direction's :class:`Fusion`.

    Row i of the states is the forward ++ backward state at position i.
    """
    hf, fwd = lattice_forward(
        x, matches, lexicon_table, forward_params, "forward", lattice_dropout=lattice_dropout, rng=rng
    )
    hb, bwd = lattice_forward(
        x, matches, lexicon_table, backward_params, "backward", lattice_dropout=lattice_dropout, rng=rng
    )
    return concat([hf, hb]), fwd, bwd
