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
into its walk order and allocates every array the walk writes before it
starts: the [x; h] row of each step, its gates and memory; per match, the
[embedding; source state] row, the cell gates and the [x; memory] row; per
fused position, a block of gate logits and one of their weights. Each step
then writes its values in place: one gate product, :func:`shortcut_cell` per
arriving match and :func:`gate_normalize` per fused position, with the
sigmoid applied in place under one ``np.errstate`` per walk. The op's
hand-written backward walks the positions once in reverse over those
buffers and takes each weight and input gradient as one matrix product over
the sentence. The two directions' (m, H) outputs join into the (m, 2H)
hidden states. Training and decoding run the same forward; without an
active tape nothing is recorded, and without an ``rng`` nothing is dropped
out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .data import RESERVED, EmbeddingTable, bigrams_of
from .errors import UsageError
from .lexicon import LatticeMatchSet
from .tensor import Tensor, _acc, _out, concat, param, rows
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


def _sigmoid(a: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-a)) in place: the one sigmoid formula in the package.

    Where exp(-a) overflows to inf the result is 0, the exact limit. The walk
    that calls it holds ``np.errstate(over="ignore")``, so that is not reported.
    """
    np.negative(a, out=a)
    np.exp(a, out=a)
    a += 1.0
    return np.divide(1.0, a, out=a)


def shortcut_cell(p: DirectionParams, eh, h_src, c_src, gates, xm, gate) -> None:
    """One match's shortcut cell and control gate, written into the walk's buffers.

    ``eh`` = [e_w; h] holds the match embedding; the state ``h_src`` at the
    match's source is copied into its h half. ``gates`` receives the cell's
    stacked (input, forget, candidate) gates, the memory half of
    ``xm`` = [x; c_w] the cell memory f * c_src + i * cand (no output gate, no
    hidden state), and ``gate`` the control gate over ``xm``.
    """
    n = p.hidden
    eh[-n:] = h_src
    np.dot(p.shortcut_w.data, eh, out=gates)
    gates += p.shortcut_b.data
    _sigmoid(gates[: 2 * n])
    cand = gates[2 * n :]
    np.tanh(cand, out=cand)
    memory = xm[-n:]
    np.multiply(gates[n : 2 * n], c_src, out=memory)
    np.multiply(gates[:n], cand, out=gate)  # scratch until the gate is written
    memory += gate
    np.dot(p.match_gate_w.data, xm, out=gate)
    gate += p.match_gate_b.data
    _sigmoid(gate)


def gate_normalize(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Exp-normalize the stacked gates ``z`` (char gate, then match gates) over its rows into ``out``.

    The weights sum to 1 at every coordinate; a single row (no match) gets
    weight 1.
    """
    np.subtract(z, np.maximum.reduce(z, 0), out=out)
    np.exp(out, out=out)
    out /= np.add.reduce(out, 0)
    return out


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
    walk = np.arange(1, m + 1) if forward else np.arange(m, 0, -1)  # position of each step
    fused = np.bincount(end, minlength=m + 1)[walk]  # matches fused per step
    srow = src if forward else m + 1 - src  # the row of u and c that holds each source's state
    n_fused, sources = fused.tolist(), srow.tolist()

    n, dtype = p.hidden, p.gates_b.data.dtype
    x_dim = x.data.shape[1]
    # Row k of u is [x; h] at walk step k, so step k writes its h into row k + 1;
    # row k of c is the memory before step k. Row 0 holds the initial state.
    u = np.zeros((m + 1, x_dim + n), dtype)
    u[:m, :x_dim] = x.data[walk - 1]
    c = np.zeros((m + 1, n), dtype)
    gates = np.empty((m, 3 * n), dtype)  # (o, f, cand) per step
    # Per match in walk order: [e_w; h_src], the cell's (input, forget,
    # candidate) gates, and [x; memory] at its fusion position. The op's other
    # input is e_w, gathered in walk order so that its dropout mask draws
    # from rng in that order.
    n_cells = len(ids)
    words, eh = None, np.empty((0, n), dtype)
    if n_cells:
        words = _dropout(rows(lexicon_table.rows, ids), lattice_dropout, rng)
        eh = np.empty((n_cells, words.data.shape[1] + n), dtype)
        eh[:, :-n] = words.data
    cell_gates = np.empty((n_cells, 3 * n), dtype)
    xm = np.empty((n_cells, x_dim + n), dtype)
    xm[:, :x_dim] = x.data[end - 1]
    # Per fused step, one block of rows [1 - f; control gates] and its
    # exp-normalized weights: the char row, then one row per match.
    blocks = np.flatnonzero(fused)
    logits = np.empty((n_cells + len(blocks), n), dtype)
    alphas = np.empty_like(logits)
    tmp = np.empty(n, dtype)
    w, b = p.gates_w.data, p.gates_b.data
    j = r = 0  # the next match and the next block row
    h_rows = u[:, x_dim:]
    with np.errstate(over="ignore"):
        for nf, u_k, g, c_prev, c_k, h in zip(n_fused, u, gates, c, c[1:], h_rows[1:]):
            np.dot(w, u_k, out=g)
            g += b
            _sigmoid(g[: 2 * n])
            f, cand = g[n : 2 * n], g[2 * n :]
            np.tanh(cand, out=cand)
            if not nf:  # c = f * c_prev + (1 - f) * cand
                np.multiply(f, c_prev, out=c_k)
                np.subtract(1.0, f, out=tmp)
                tmp *= cand
                c_k += tmp
            else:
                z, a = logits[r : r + nf + 1], alphas[r : r + nf + 1]
                np.subtract(1.0, f, out=z[0])
                for gate in z[1:]:
                    s = sources[j]
                    shortcut_cell(p, eh[j], h_rows[s], c[s], cell_gates[j], xm[j], gate)
                    j += 1
                gate_normalize(z, a)
                memories = xm[j - nf : j, x_dim:]
                np.multiply(a[1], memories[0], out=c_k)  # summed in order: matches, then candidate
                for a_q, memory in zip(a[2:], memories[1:]):
                    np.multiply(a_q, memory, out=tmp)
                    c_k += tmp
                np.multiply(a[0], cand, out=tmp)
                c_k += tmp
                r += nf + 1
            np.tanh(c_k, out=h)
            h *= g[:n]

    sizes = fused[blocks] + 1
    char_rows = np.cumsum(sizes) - sizes
    match_rows = np.delete(np.arange(len(alphas)), char_rows)
    alpha = alphas[match_rows]
    alpha_char = np.ones((m, n), dtype)
    alpha_char[walk[blocks] - 1] = alphas[char_rows]
    hs = u[1:, x_dim:] if forward else u[:0:-1, x_dim:]

    def bwd(grad):
        # One reverse walk collects each state's dh/dc from the next step and
        # from every shortcut leaving it, and stores each step's gate
        # pre-activation gradients as a row; every weight and input gradient is
        # then one matrix product over those rows. Factors that do not depend on
        # the gradient are computed for all steps at once before the walk.
        w_h = w[:, x_dim:]
        o, f, cand = gates[:, :n], gates[:, n : 2 * n], gates[:, 2 * n :]  # walk order
        tanh_c = np.tanh(c[1:])
        d_o = tanh_c * o * (1.0 - o)  # dz_o = dh * d_o
        dc_dh = o * (1.0 - tanh_c * tanh_c)  # dc = dc from later steps + dh * dc_dh
        f_slope = f * (1.0 - f)
        cand_slope = 1.0 - cand * cand
        # plain step, c = f * c_prev + (1 - f) * cand: (dz_f, dz_cand) = dc * d_fc
        d_fc = np.array([(c[:-1] - cand) * f_slope, (1.0 - f) * cand_slope]).transpose(1, 0, 2)
        if n_cells:
            ws_h = p.shortcut_w.data[:, -n:]
            wg_c = p.match_gate_w.data[:, x_dim:]
            mems = xm[:, x_dim:]
            gi, gf, gc = cell_gates[:, :n], cell_gates[:, n : 2 * n], cell_gates[:, 2 * n :]
            # memory = gf * c_src + gi * gc: (dz_i, dz_f, dz_cand) = dmemory * d_cell
            d_cell = np.array([gc * gi * (1.0 - gi), c[srow] * gf * (1.0 - gf), gi * (1.0 - gc * gc)])
            d_cell = d_cell.transpose(1, 0, 2)
            control = logits[match_rows]
            gate_slope = control * (1.0 - control)

        # dh_all, dc_all: the gradient of each state row of u and c
        dh_all = np.zeros((m + 1, n), dtype)
        dh_all[1:] = grad if forward else grad[::-1]
        dc_all = np.zeros((m + 1, n), dtype)
        dz = np.empty((m, 3, n), dtype)  # walk order
        dz_cell = np.empty((n_cells, 3, n), dtype)  # shortcut cells, walk order
        dz_gate = np.empty((n_cells, n), dtype)  # match gates, walk order
        stop, row = n_cells, len(alphas)  # the matches and block rows of later steps start here
        for k in range(m - 1, -1, -1):
            nf = n_fused[k]
            dh = dh_all[k + 1]
            dc = dc_all[k + 1] + dh * dc_dh[k]
            np.multiply(dh, d_o[k], out=dz[k, 0])
            if not nf:
                np.multiply(dc, d_fc[k], out=dz[k, 1:])
                dc_all[k] += dc * f[k]
            else:
                start, row = stop - nf, row - nf - 1
                a = alphas[row : row + nf + 1]
                da = np.concatenate((cand[k : k + 1], mems[start:stop])) * dc
                dlogit = a * (da - (da * a).sum(axis=0))  # softmax backward
                np.multiply(-dlogit[0], f_slope[k], out=dz[k, 1])
                np.multiply(dc * a[0], cand_slope[k], out=dz[k, 2])
                for q, jj in enumerate(range(start, stop), start=1):
                    np.multiply(dlogit[q], gate_slope[jj], out=dz_gate[jj])
                    dmemory = dc * a[q] + dz_gate[jj] @ wg_c
                    np.multiply(dmemory, d_cell[jj], out=dz_cell[jj])
                    dc_all[sources[jj]] += dmemory * gf[jj]
                    dh_all[sources[jj]] += dz_cell[jj].reshape(-1) @ ws_h
                stop = start
            dh_all[k] += dz[k].reshape(-1) @ w_h

        dz = dz.reshape(m, -1)
        _acc(p.gates_w, dz.T @ u[:m])
        _acc(p.gates_b, dz.sum(axis=0))
        dx = np.zeros_like(x.data)
        dx[walk - 1] = dz @ w[:, :x_dim]
        if n_cells:
            dz_cell = dz_cell.reshape(n_cells, -1)
            _acc(p.shortcut_w, dz_cell.T @ eh)
            _acc(p.shortcut_b, dz_cell.sum(axis=0))
            _acc(p.match_gate_w, dz_gate.T @ xm)
            _acc(p.match_gate_b, dz_gate.sum(axis=0))
            np.add.at(dx, end - 1, dz_gate @ p.match_gate_w.data[:, :x_dim])
            _acc(words, dz_cell @ p.shortcut_w.data[:, : -n])
        _acc(x, dx)

    return _out(np.ascontiguousarray(hs), bwd), Fusion(src, end, alpha, alpha_char)


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
