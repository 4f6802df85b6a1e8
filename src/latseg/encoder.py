"""Character representations, the coupled-gate LSTM, and the lattice LSTM.

The character LSTM couples its input gate to the forget gate (i = 1 - f).
The lattice variant adds one "shortcut" memory cell per lexicon match: an
output-gate-free LSTM cell fed by the match embedding and the state at the
match's first character in reading order. At its last character in reading
order, the candidate memory and all arriving shortcut memories are fused
with exp-normalized gates. The backward direction reads right to left.

:func:`char_repr` turns a batch of sentences into one (sum m, x_dim) matrix
of character representations, one gather per embedding table.
:func:`lattice_forward`, the encoder's one entry point, walks both directions
of every sentence as lanes, one per (sentence, direction), sorted by length
so that the lanes still walking at any step are a prefix. One set-up pass
over the lanes checks each match set, copies the lane's x rows, sorts its
matches into walk order and records where each fused position's gate rows
sit. Every array the walk writes is allocated before it starts: per step and
lane, the [x; h] column, the gates and the memory; per match, the
[embedding; source state] row, the cell gates and the [x; memory] row; per
fused position, a block of gate logits and one of their weights. Each step
writes in place over (rows, lanes) views of the walking prefix: one stacked
gate product and in-place ufuncs for the plain step, then per lane with
arriving matches :func:`shortcut_cell` per match and :func:`gate_normalize`
per fused position, which overwrite its memory. The sigmoid runs in place
under one ``np.errstate`` per walk. Every value is the one a lane walked
alone would get, bit for bit.

Training records one sentence, both directions as one op. Its hand-written
backward walks the two lanes once in reverse over those buffers, with one
stacked product per step: every lane takes the plain step's gradient, and
lanes that fuse overwrite it. It takes each weight and input gradient as one
matrix product per lane. The directions' states sit side by side in the
(m, 2H) hidden states. Training and decoding run the same forward; without
an active tape nothing is recorded, and without an ``rng`` nothing is
dropped out.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .data import RESERVED, EmbeddingTable
from .errors import UsageError
from .lexicon import LatticeMatchSet
from .tensor import Tensor, _acc, _out, concat, param, recording, rows, uniform
from .tensor import dropout as _dropout  # char_repr's ``dropout`` keyword shadows the name


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
            gates_w=uniform(rng, (h3, x_dim + hidden), x_dim + hidden, dtype, f"{name}_gates_w"),
            gates_b=param(np.zeros(h3, dtype=dtype), f"{name}_gates_b"),
        )
        if word_dim is not None:
            p.shortcut_w = uniform(rng, (h3, word_dim + hidden), word_dim + hidden, dtype, f"{name}_shortcut_w")
            p.shortcut_b = param(np.zeros(h3, dtype=dtype), f"{name}_shortcut_b")
            p.match_gate_w = uniform(rng, (hidden, x_dim + hidden), x_dim + hidden, dtype, f"{name}_match_gate_w")
            p.match_gate_b = param(np.zeros(hidden, dtype=dtype), f"{name}_match_gate_b")
        return p

    def tensors(self) -> list[Tensor]:
        out = [self.gates_w, self.gates_b]
        if self.shortcut_w is not None:
            out += [self.shortcut_w, self.shortcut_b, self.match_gate_w, self.match_gate_b]
        return out


def char_repr(
    sentences: Sequence[Sequence[str]],
    unigram_table: EmbeddingTable,
    bigram_table: EmbeddingTable,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """x_i = unigram(c_i) ++ bigram(c_i c_{i+1}) for each character of ``sentences``: one (sum m, x_dim) tensor.

    Each sentence's final position pairs its bigram with the sentence-end
    sentinel; unseen symbols map to the unknown row. Given an ``rng``, the
    matrix is dropout-masked elementwise.
    """
    ids = unigram_table.vocab.ids(chain.from_iterable(sentences))
    bigram_ids = bigram_table.vocab.rows_of(sentences, ids)
    x = concat([rows(unigram_table.rows, ids), rows(bigram_table.rows, bigram_ids)])
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


_NO_MATCHES = np.zeros(0, np.intp)


class _Lane(NamedTuple):
    """One (sentence, direction) lane of :func:`lattice_forward`'s walk."""

    index: int  # the lane's column in the walk's buffers
    direction: int  # 0 forward, 1 backward: index into the (forward, backward) parameters
    sentence: int
    m: int  # steps walked
    src: np.ndarray  # per match in walk order, as in Fusion
    end: np.ndarray
    walk: np.ndarray  # position of each step
    blocks: np.ndarray  # steps that fuse
    cells: slice  # the lane's rows among every lane's matches
    char_rows: Sequence[int]  # per fusing step, its char row among every lane's gate blocks


def _scratch(shape: tuple[int, ...], dtype, kept: bool) -> np.ndarray:
    """An uninitialised array of ``shape``; unless ``kept``, every index of its first axis is one shared row."""
    if kept or not shape[0]:
        return np.empty(shape, dtype)
    row = np.empty((1, *shape[1:]), dtype)
    return as_strided(row, shape, (0, *row.strides[1:]))


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
    matches: Sequence[LatticeMatchSet | None],
    lexicon_table: EmbeddingTable | None,
    p: tuple[DirectionParams, DirectionParams],
    lengths: Sequence[int],
    lattice_dropout: float = 0.0,
    rng: np.random.Generator | None = None,
):
    """Run the bidirectional lattice LSTM over sentences as the lanes of one recorded op.

    ``x`` stacks the character representations of sentences of ``lengths``
    into one (sum m, x_dim) matrix, ``matches`` holds one match set (or None)
    per sentence, and ``p`` is the (forward, backward) pair of parameters. A
    lane is one (sentence, direction) pair.

    Each position takes the coupled LSTM gates (o, f, cand) and emits
    o * tanh(c). Where no match arrives, c = f * c_prev + (1 - f) * cand.
    Elsewhere each arriving match contributes a shortcut memory built from the
    state at its other end, and c sums the shortcut memories, then the
    candidate, weighted by exp-normalized gates (the candidate's gate is the
    coupled input gate 1 - f). The forward direction walks positions 1..m and
    fuses matches at their end; the backward direction walks m..1 and fuses
    them at their start, each position's matches in order of their source
    position. Given an ``rng``, the match embeddings are dropout-masked.

    Lanes are sorted by length, so the lanes still walking at any step are a
    prefix of the walk's buffers. A step is one stacked gate product of every
    walking lane's [x; h] by its direction's weights, then in-place ufuncs
    over the prefix; a lane with arriving matches then runs
    :func:`shortcut_cell` per match and :func:`gate_normalize` on its own rows.
    Under an active tape only one sentence is accepted.

    Returns the op's output, the (sum m, 2 * hidden) states in sentence order
    with row i the forward ++ backward state at position i, and per sentence
    the (forward, backward) pair of :class:`Fusion` records, which nothing on
    the tape reads.
    """
    params, lengths, match_sets = tuple(p), list(lengths), list(matches)
    if len(match_sets) != len(lengths) or sum(lengths) != len(x):
        raise UsageError(f"{len(x)} positions, {len(match_sets)} match sets and lengths {lengths}")
    if len(lengths) > 1 and recording():
        raise UsageError("a recorded lattice forward takes one sentence")
    offsets = list(accumulate(lengths, initial=0))
    n, dtype = params[0].hidden, params[0].gates_b.data.dtype
    xd = x.data
    x_dim = xd.shape[1]
    order = sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)
    n_lanes, steps = 2 * len(order), lengths[order[0]] if order else 0
    # The walk's buffers keep lanes on their last axis, so that a step's values
    # for every walking lane are one contiguous block. Row k of u is [x; h] at
    # walk step k, so step k writes its h into row k + 1; row k of c is the
    # memory before step k. Row 0 holds the initial state. Step k's gates are
    # row k of gates: (o, f, cand) once the sigmoid and tanh have run.
    u = np.zeros((steps + 1, x_dim + n, n_lanes), dtype)
    c = np.zeros((steps + 1, n, n_lanes), dtype)
    plain = np.ones((steps, n_lanes), bool)  # where a lane's step fuses nothing
    # The lanes in order: sentences by decreasing length, each sentence's
    # directions in turn.
    lanes: list[_Lane] = []
    ids, xm_rows, sources, cell_lane, match_rows = [], [], [], [], []
    fused_at: list[list] = [[] for _ in range(steps)]  # (lane, matches, first cell, first block row)
    n_cells = n_rows = 0
    for i, s in enumerate(order):
        m, ms = lengths[s], match_sets[s]
        if ms is not None:
            bad = (ms.b < 1) | (ms.b >= ms.e) | (ms.e > m)
            if bad.any():
                k = bad.argmax()
                raise UsageError(f"match ({ms.b[k]}, {ms.e[k]}) out of range for {m} positions")
        sentence = xd[offsets[s] : offsets[s] + m]
        for d, forward in enumerate((True, False)):
            lane = 2 * i + d
            u[:m, :x_dim, lane] = sentence if forward else sentence[::-1]
            walk = np.arange(1, m + 1) if forward else np.arange(m, 0, -1)  # position of each step
            if ms is None or not len(ms):
                lanes.append(_Lane(lane, d, s, m, _NO_MATCHES, _NO_MATCHES, walk, _NO_MATCHES, slice(0), []))
                continue
            src, end = (ms.b, ms.e) if forward else (ms.e, ms.b)
            by = np.lexsort((src, end if forward else -end))  # by fusion position, then source
            src, end = src[by], end[by]
            fused = np.bincount(end, minlength=m + 1)[walk]  # matches fused per step
            blocks = np.flatnonzero(fused)
            plain[blocks, lane] = False
            ids.append(len(RESERVED) + ms.entry[by])
            xm_rows.append(offsets[s] + end - 1)
            sources += (src if forward else m + 1 - src).tolist()  # the lane's row holding each source's state
            cell_lane += [lane] * len(src)
            cells, char_rows = slice(n_cells, n_cells + len(src)), []
            for k, nf in zip(blocks.tolist(), fused[blocks].tolist()):
                fused_at[k].append((lane, nf, n_cells, n_rows))
                char_rows.append(n_rows)
                match_rows += range(n_rows + 1, n_rows + nf + 1)
                n_cells += nf
                n_rows += nf + 1
            lanes.append(_Lane(lane, d, s, m, src, end, walk, blocks, cells, char_rows))

    kept = recording()  # only the backward reads past steps' and matches' gates
    gates = _scratch((steps, 3 * n, n_lanes), dtype, kept)
    tmp = np.empty((n, n_lanes), dtype)
    # Per match, lane after lane in walk order: [e_w; h_src], the cell's (input,
    # forget, candidate) gates, and [x; memory] at its fusion position. The op's
    # other input is e_w, gathered in that order so that its dropout mask draws
    # from rng in that order.
    words, eh = None, np.empty((0, n), dtype)
    if n_cells:
        words = _dropout(rows(lexicon_table.rows, np.concatenate(ids)), lattice_dropout, rng)
        eh = np.empty((n_cells, words.data.shape[1] + n), dtype)
        eh[:, :-n] = words.data
    cell_gates = _scratch((n_cells, 3 * n), dtype, kept)
    xm = np.empty((n_cells, x_dim + n), dtype)
    if n_cells:
        xm[:, :x_dim] = xd[np.concatenate(xm_rows)]
    # Per fused step, one block of rows [1 - f; control gates] and its
    # exp-normalized weights: the char row, then one row per match, at
    # match_rows in walk order.
    logits = np.empty((n_rows, n), dtype)
    alphas = np.empty_like(logits)

    # Each step's gate product: the lanes' [x; h] columns as (sentence, direction)
    # stacks of column vectors, times their direction's weights.
    w_stack = np.array([q.gates_w.data for q in params])
    bias = np.array([q.gates_b.data for q in params] * len(order)).T.copy()  # column per lane
    u_in = u.transpose(0, 2, 1).reshape(steps + 1, len(order), 2, x_dim + n)[..., None]
    g_out = gates.transpose(0, 2, 1).reshape(steps, len(order), 2, 3 * n)[..., None]
    # Per lane, its parameters and the columns of u's h rows, c, gates and tmp
    lane_views = [
        (params[lane % 2], u[:, x_dim:, lane], c[:, :, lane], gates[:, :, lane], tmp[:, lane])
        for lane in range(n_lanes)
    ]
    walking = (-np.array([lengths[s] for s in order], int)).searchsorted(-np.arange(steps)).tolist()
    k0 = 0
    with np.errstate(over="ignore"):
        while k0 < steps:  # one pass per stretch of steps over the same walking sentences
            a = walking[k0]
            k1 = k0 + walking[k0:].count(a)
            # Each step's blocks as (rows, lanes) views of the walking prefix
            t, b = tmp[:, : 2 * a], bias[:, : 2 * a]
            for k, u_k, g_k, g, c_prev, c_k, h in zip(
                range(k0, k1), u_in[k0:k1, :a], g_out[k0:k1, :a], gates[k0:k1, :, : 2 * a],
                c[k0:k1, :, : 2 * a], c[k0 + 1 : k1 + 1, :, : 2 * a], u[k0 + 1 : k1 + 1, x_dim:, : 2 * a],
            ):
                np.matmul(w_stack, u_k, out=g_k)
                g += b
                cand = g[2 * n :]
                np.tanh(cand, out=cand)
                _sigmoid(g[: 2 * n])
                f = g[n : 2 * n]
                np.multiply(f, c_prev, out=c_k)  # c = f * c_prev + (1 - f) * cand; fused lanes overwrite it
                np.subtract(1.0, f, out=t)
                t *= cand
                c_k += t
                for lane, nf, j, row in fused_at[k]:
                    q, h_rows, c_lane, g_rows, t_lane = lane_views[lane]
                    g_lane, c_out = g_rows[k], c_lane[k + 1]
                    z, al = logits[row : row + nf + 1], alphas[row : row + nf + 1]
                    np.subtract(1.0, g_lane[n : 2 * n], out=z[0])
                    for gate in z[1:]:
                        src_row = sources[j]
                        shortcut_cell(q, eh[j], h_rows[src_row], c_lane[src_row], cell_gates[j], xm[j], gate)
                        j += 1
                    gate_normalize(z, al)
                    memories = xm[j - nf : j, x_dim:]
                    np.multiply(al[1], memories[0], out=c_out)  # summed in order: matches, then candidate
                    for a_q, memory in zip(al[2:], memories[1:]):
                        np.multiply(a_q, memory, out=t_lane)
                        c_out += t_lane
                    np.multiply(al[0], g_lane[2 * n :], out=t_lane)
                    c_out += t_lane
                np.tanh(c_k, out=h)
                h *= g[:n]
            k0 = k1

    out = np.empty((len(xd), 2 * n), dtype)
    fusions, match_rows = [[None, None] for _ in lengths], np.array(match_rows, np.intp)
    for ln in lanes:
        hs, d = u[1 : ln.m + 1, x_dim:, ln.index], ln.direction
        out[offsets[ln.sentence] : offsets[ln.sentence] + ln.m, d * n : (d + 1) * n] = hs[::-1] if d else hs
        alpha, alpha_char = alphas[:0], np.ones((ln.m, n), dtype)
        if len(ln.src):
            alpha = alphas[match_rows[ln.cells]]
            alpha_char[ln.walk[ln.blocks] - 1] = alphas[ln.char_rows]
        fusions[ln.sentence][d] = Fusion(ln.src, ln.end, alpha, alpha_char)

    def bwd(grad):
        # The one recorded sentence walks its lanes in reverse, collecting each
        # state's dh/dc from the next step and from every shortcut leaving it,
        # and storing each step's gate pre-activation gradients as one row per
        # lane; every weight and input gradient is then one matrix product per
        # lane over those rows. Factors that do not depend on the gradient are
        # computed for all steps at once before the walk, with lanes on the
        # second axis: (step, lane, unit).
        c_rows = np.ascontiguousarray(c.transpose(0, 2, 1))
        gate_rows = np.ascontiguousarray(gates.transpose(0, 2, 1))
        o, f, cand = gate_rows[..., :n], gate_rows[..., n : 2 * n], gate_rows[..., 2 * n :]
        tanh_c = np.tanh(c_rows[1:])
        d_o = tanh_c * o * (1.0 - o)  # dz_o = dh * d_o
        dc_dh = o * (1.0 - tanh_c * tanh_c)  # dc = dc from later steps + dh * dc_dh
        f_slope = f * (1.0 - f)
        cand_slope = 1.0 - cand * cand
        # plain step, c = f * c_prev + (1 - f) * cand: (dz_f, dz_cand) = dc * d_fc
        d_fc = np.array([(c_rows[:-1] - cand) * f_slope, (1.0 - f) * cand_slope]).transpose(1, 2, 0, 3)
        if n_cells:
            mems = xm[:, x_dim:]
            gi, gf, gc = cell_gates[:, :n], cell_gates[:, n : 2 * n], cell_gates[:, 2 * n :]
            # memory = gf * c_src + gi * gc: (dz_i, dz_f, dz_cand) = dmemory * d_cell
            c_src = c_rows[sources, cell_lane]
            d_cell = np.array([gc * gi * (1.0 - gi), c_src * gf * (1.0 - gf), gi * (1.0 - gc * gc)])
            d_cell = d_cell.transpose(1, 0, 2)
            control = logits[match_rows]
            gate_slope = control * (1.0 - control)
            ws_h = [q.shortcut_w.data[:, -n:] for q in params]
            wg_c = [q.match_gate_w.data[:, x_dim:] for q in params]

        # dh_all, dc_all: the gradient of each state row of each lane's u and c
        dh_all = np.zeros((steps + 1, n_lanes, n), dtype)
        dh_all[1:, 0], dh_all[1:, 1] = grad[:, :n], grad[::-1, n:]
        dc_all = np.zeros((steps + 1, n_lanes, n), dtype)
        dz = np.empty((steps, n_lanes, 3, n), dtype)  # walk order
        dz_cell = np.empty((n_cells, 3, n), dtype)  # shortcut cells, walk order
        dz_gate = np.empty((n_cells, n), dtype)  # match gates, walk order
        w_h = np.array([q.gates_w.data[:, x_dim:] for q in params])
        dh_prev = np.empty((n_lanes, 1, n), dtype)
        dz_rows, dh_prev_row = dz.reshape(steps, n_lanes, 1, 3 * n), dh_prev[:, 0]
        for k in range(steps - 1, -1, -1):
            dh, dz_k = dh_all[k + 1], dz[k]
            dc = dc_all[k + 1] + dh * dc_dh[k]
            np.multiply(dh, d_o[k], out=dz_k[:, 0])
            np.multiply(dc[:, None], d_fc[k], out=dz_k[:, 1:])  # fused lanes overwrite it
            np.add(dc_all[k], dc * f[k], out=dc_all[k], where=plain[k, :, None])
            for lane, nf, start, row in fused_at[k]:
                a, dc_lane, dz_lane = alphas[row : row + nf + 1], dc[lane], dz_k[lane]
                da = np.concatenate((cand[k, lane : lane + 1], mems[start : start + nf])) * dc_lane
                dlogit = a * (da - (da * a).sum(axis=0))  # softmax backward
                np.multiply(-dlogit[0], f_slope[k, lane], out=dz_lane[1])
                np.multiply(dc_lane * a[0], cand_slope[k, lane], out=dz_lane[2])
                for q, jj in enumerate(range(start, start + nf), start=1):
                    np.multiply(dlogit[q], gate_slope[jj], out=dz_gate[jj])
                    dmemory = dc_lane * a[q] + dz_gate[jj] @ wg_c[lane % 2]
                    np.multiply(dmemory, d_cell[jj], out=dz_cell[jj])
                    dc_all[sources[jj], lane] += dmemory * gf[jj]
                    dh_all[sources[jj], lane] += dz_cell[jj].reshape(-1) @ ws_h[lane % 2]
            np.matmul(dz_rows[k], w_h, out=dh_prev)
            dh_all[k] += dh_prev_row

        d_words = np.empty_like(eh[:, :-n])
        for ln in reversed(lanes):
            q, cells = params[ln.direction], ln.cells
            dz_d = np.ascontiguousarray(dz[:, ln.index]).reshape(steps, -1)
            _acc(q.gates_w, dz_d.T @ np.ascontiguousarray(u[:steps, :, ln.index]))
            _acc(q.gates_b, dz_d.sum(axis=0))
            dx = np.zeros_like(xd)
            dx[ln.walk - 1] = dz_d @ q.gates_w.data[:, :x_dim]
            if len(ln.src):
                dz_c = dz_cell[cells].reshape(len(ln.src), -1)
                _acc(q.shortcut_w, dz_c.T @ eh[cells])
                _acc(q.shortcut_b, dz_c.sum(axis=0))
                _acc(q.match_gate_w, dz_gate[cells].T @ xm[cells])
                _acc(q.match_gate_b, dz_gate[cells].sum(axis=0))
                np.add.at(dx, ln.end - 1, dz_gate[cells] @ q.match_gate_w.data[:, :x_dim])
                d_words[cells] = dz_c @ q.shortcut_w.data[:, :-n]
            _acc(x, dx)
        if n_cells:
            _acc(words, d_words)

    return _out(out, bwd), [tuple(f) for f in fusions]


def encode_bidirectional(*args, **kwargs):
    """:func:`lattice_forward` itself: the benchmark tracer counts the characters encoded through this name."""
    return lattice_forward(*args, **kwargs)
