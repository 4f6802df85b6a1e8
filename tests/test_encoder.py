"""Encoder: coupled LSTM semantics, lattice fusion, reduction, gradients."""

import math

import numpy as np
import pytest

from gradcheck import assert_grads_match, weighted_sum
from latseg import encoder
from latseg.data import EmbeddingTable, Vocab, build_vocabs
from latseg.encoder import (
    DirectionParams,
    char_repr,
    encode_bidirectional,
    gate_logit,
    gate_normalize,
    lattice_forward,
    lstm_step,
    shortcut_cell,
)
from latseg.errors import UsageError
from latseg.lexicon import LatticeMatchSet, Match
from latseg.tensor import ALPHA_SUM_TOL, Tape, backward, const, param


def zero_direction(hidden, x_dim, word_dim=None, name="fwd"):
    p = DirectionParams(
        hidden=hidden,
        gates_w=param(np.zeros((3 * hidden, x_dim + hidden)), f"{name}_gates_w"),
        gates_b=param(np.zeros(3 * hidden), f"{name}_gates_b"),
    )
    if word_dim is not None:
        p.shortcut_w = param(np.zeros((3 * hidden, word_dim + hidden)), f"{name}_shortcut_w")
        p.shortcut_b = param(np.zeros(3 * hidden), f"{name}_shortcut_b")
        p.match_gate_w = param(np.zeros((hidden, x_dim + hidden)), f"{name}_match_gate_w")
        p.match_gate_b = param(np.zeros(hidden), f"{name}_match_gate_b")
    return p


def random_direction(hidden, x_dim, rng, word_dim=None, name="fwd"):
    return DirectionParams.create(x_dim, hidden, rng, word_dim=word_dim, name=name)


def match_set(length, spans):
    ms = LatticeMatchSet(length=length)
    for entry, (b, e) in enumerate(spans):
        ms.add(Match(b=b, e=e, entry=entry))
    return ms


def random_lexicon_table(rng, n_entries, dim, name="lexicon_embeddings"):
    vocab = Vocab.from_symbols([f"w{i}" for i in range(n_entries)])
    return EmbeddingTable.random(vocab, dim, rng, name=name)


class TestLstmStep:
    def test_zero_params_halves_memory(self, rng):
        p = zero_direction(4, 3)
        c_prev = rng.normal(size=4)
        h, c, _ = lstm_step(rng.normal(size=3), np.zeros(4), c_prev, p)
        np.testing.assert_allclose(c, 0.5 * c_prev, atol=1e-15)
        np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * c_prev), atol=1e-15)

    def test_zero_memory_zero_hidden(self, rng):
        p = zero_direction(4, 3)
        h, c, _ = lstm_step(rng.normal(size=3), np.zeros(4), np.zeros(4), p)
        np.testing.assert_array_equal(h, np.zeros(4))

    def test_gate_coupling_exact(self, rng):
        # c = f*c_prev + (1-f)*cand: solving for the two gate weights from
        # the outputs must give coefficients summing to exactly 1
        p = random_direction(3, 2, rng)
        x = rng.normal(size=2)
        c_a = rng.normal(size=3)
        c_b = rng.normal(size=3)
        _, c1, _ = lstm_step(x, np.zeros(3), c_a, p)
        _, c2, _ = lstm_step(x, np.zeros(3), c_b, p)
        f = (c1 - c2) / (c_a - c_b)
        # with zero previous memory, c0 = (1 - f) * cand exactly
        _, c0, _ = lstm_step(x, np.zeros(3), np.zeros(3), p)
        np.testing.assert_allclose(c1, f * c_a + c0, atol=1e-12)
        assert np.all((f > 0) & (f < 1))


class TestShortcutCell:
    def test_zero_params_halves_start_memory(self, rng):
        p = zero_direction(4, 3, word_dim=2)
        c_b = rng.normal(size=4)
        out, _ = shortcut_cell(rng.normal(size=2), np.zeros(4), c_b, p)
        np.testing.assert_allclose(out, 0.5 * c_b, atol=1e-15)

    def test_zero_start_memory_zero_output(self, rng):
        p = zero_direction(4, 3, word_dim=2)
        out, _ = shortcut_cell(rng.normal(size=2), np.zeros(4), np.zeros(4), p)
        np.testing.assert_array_equal(out, np.zeros(4))


class TestGateLogit:
    def test_zero_params_half(self, rng):
        p = zero_direction(3, 2, word_dim=2)
        out = gate_logit(rng.normal(size=2), rng.normal(size=3), p)
        np.testing.assert_array_equal(out, np.full(3, 0.5))

    def test_range_open_unit_interval(self, rng):
        p = random_direction(3, 2, rng, word_dim=2)
        out = gate_logit(rng.normal(size=2) * 5, rng.normal(size=3) * 5, p)
        assert np.all((out > 0) & (out < 1))

    def test_gradient_reaches_both_inputs(self, rng):
        # the gate reads the end character's input and the match memory; in the
        # direction op the memory comes from the lexicon row, so gradients
        # must reach that input, that row and the gate's own weights
        p = random_direction(3, 2, rng, word_dim=2)
        table = random_lexicon_table(rng, 1, 2)
        x = param(rng.normal(size=(3, 2)), "x")
        ms = match_set(3, [(1, 3)])
        weights = np.zeros((3, 3))
        weights[2] = rng.normal(size=3)  # the state at the match's end only

        def loss():
            h, _ = lattice_forward(x, ms, table, p)
            return weighted_sum(h, weights)

        assert_grads_match(loss, [x, table.rows, p.match_gate_w, p.match_gate_b])


class TestGateNormalize:
    def test_no_matches_char_weight_one(self):
        alpha, rest = gate_normalize(np.array([0.3, 0.9]), [])
        np.testing.assert_array_equal(alpha, np.ones(2))
        assert rest == []

    def test_equal_gates_uniform(self):
        g = np.full(3, 0.42)
        alpha, rest = gate_normalize(g, [np.full(3, 0.42) for _ in range(4)])
        for t in [alpha, *rest]:
            np.testing.assert_allclose(t, np.full(3, 1 / 5), atol=1e-9)

    def test_log_weights_example(self):
        # pre-exp values ln 2 and ln 1 normalize to 2/3 and 1/3
        alpha, rest = gate_normalize(np.array([math.log(2.0)]), [np.array([0.0])])
        assert alpha[0] == pytest.approx(2 / 3, abs=1e-12)
        assert rest[0][0] == pytest.approx(1 / 3, abs=1e-12)


class TestLatticeForward:
    def test_empty_matches_bit_equal_to_lstm(self, rng):
        p = random_direction(5, 4, rng)
        x = const(rng.normal(size=(7, 4)))
        out, steps = lattice_forward(x, None, None, p)
        h = c = np.zeros(5)
        for i, (step, x_i) in enumerate(zip(steps, x.data)):
            h, c, _ = lstm_step(x_i, h, c, p)
            assert out.data[i].tobytes() == step.h.tobytes() == h.tobytes()
            assert step.c.tobytes() == c.tobytes()

    def test_alpha_weights_sum_to_one(self, rng):
        p = random_direction(4, 3, rng, word_dim=3)
        table = random_lexicon_table(rng, 4, 3)
        x = const(rng.normal(size=(6, 3)))
        ms = match_set(6, [(1, 3), (2, 3), (2, 6), (4, 6)])
        # forward fusion happens where matches end ({3, 6}); backward where
        # they start (original positions {1, 2, 4})
        for direction, n_fused in (("forward", 2), ("backward", 3)):
            _, steps = lattice_forward(x, ms, table, p, direction)
            fused = [s for s in steps if s.alpha_char is not None]
            assert len(fused) == n_fused
            for s in fused:
                total = s.alpha_char + sum(a for _, a in s.match_alphas)
                np.testing.assert_allclose(total, np.ones(4), atol=ALPHA_SUM_TOL)
        # backward shortcut sources are the matches' end characters
        _, bwd = lattice_forward(x, ms, table, p, "backward")
        sources = {i + 1: [b for b, _ in s.match_alphas] for i, s in enumerate(bwd) if s.match_alphas}
        assert sources == {1: [3], 2: [3, 6], 4: [6]}

    def test_locality_prefix_unchanged(self, rng):
        # perturbing a match embedding must not change hidden states before
        # the match's end position (forward direction)
        p = random_direction(4, 3, rng, word_dim=3)
        table = random_lexicon_table(rng, 2, 3)
        x = const(rng.normal(size=(6, 3)))
        ms = match_set(6, [(2, 4)])
        _, before = lattice_forward(x, ms, table, p)
        table.rows.data[2] += 1.5
        _, after = lattice_forward(x, ms, table, p)
        for j in range(3):  # positions 1..3 precede the end at 4
            np.testing.assert_array_equal(before[j].h, after[j].h)
        assert not np.array_equal(before[3].h, after[3].h)

    def test_bad_direction(self, rng):
        p = random_direction(2, 2, rng)
        with pytest.raises(UsageError):
            lattice_forward(const(np.zeros((1, 2))), None, None, p, "sideways")

    def test_out_of_range_match_rejected(self, rng):
        # a match set claiming spans beyond the sentence is a matcher
        # contract violation, not something to ignore silently
        p = random_direction(3, 2, rng, word_dim=3)
        table = random_lexicon_table(rng, 1, 3)
        x = const(rng.normal(size=(3, 2)))
        with pytest.raises(UsageError, match="out of range"):
            lattice_forward(x, match_set(3, [(2, 5)]), table, p)

    def test_gradient_reaches_spanning_match_embedding(self, rng):
        p = random_direction(3, 2, rng, word_dim=3)
        table = random_lexicon_table(rng, 1, 3)
        x = const(rng.normal(size=(4, 2)))
        ms = match_set(4, [(1, 4)])
        weights = np.zeros((4, 3))
        weights[3] = rng.normal(size=3)  # the state at the match's end only

        def loss():
            h, _ = lattice_forward(x, ms, table, p)
            return weighted_sum(h, weights)

        assert_grads_match(loss, [table.rows] + p.tensors())


class TestEncodeBidirectional:
    def test_hidden_width_doubles(self, rng):
        p_f = random_direction(5, 4, rng, name="fwd")
        p_b = random_direction(5, 4, rng, name="bwd")
        hs, fwd, bwd = encode_bidirectional(const(rng.normal(size=(3, 4))), None, None, p_f, p_b)
        assert hs.data.shape == (3, 10)
        assert len(fwd) == len(bwd) == 3

    def test_palindrome_with_tied_params_mirrors(self, rng):
        p = random_direction(4, 3, rng, word_dim=3)
        table = random_lexicon_table(rng, 1, 3)
        half = [rng.normal(size=3) for _ in range(3)]
        sym = half + [rng.normal(size=3)] + half[::-1]  # length 7 palindrome
        ms = match_set(7, [(3, 5)])  # self-mirroring span
        _, fwd, bwd = encode_bidirectional(const(np.array(sym)), ms, table, p, p)
        m = len(sym)
        for i in range(m):
            np.testing.assert_array_equal(fwd[i].h, bwd[m - 1 - i].h)

    def test_empty_matches_equals_baseline_encoding(self, rng):
        p_f = random_direction(4, 3, rng, word_dim=3, name="fwd")
        p_b = random_direction(4, 3, rng, word_dim=3, name="bwd")
        x = const(rng.normal(size=(5, 3)))
        hs_lattice, _, _ = encode_bidirectional(
            x, LatticeMatchSet(length=5), random_lexicon_table(rng, 1, 3), p_f, p_b
        )
        hs_base, _, _ = encode_bidirectional(x, None, None, p_f, p_b)
        np.testing.assert_array_equal(hs_lattice.data, hs_base.data)


class TestDefaultDimensions:
    def test_default_sizes_wire_up(self, rng):
        # 50-dim unigram + 50-dim bigram reprs into a 200-unit LSTM per
        # direction: repr width 100, stacked gates 600 x 300, output 400
        uni, bi = build_vocabs(["中国人"])
        ut = EmbeddingTable.random(uni, 50, rng, name="unigram_embeddings")
        bt = EmbeddingTable.random(bi, 50, rng, name="bigram_embeddings")
        x = char_repr("中国人", ut, bt)
        assert x.data.shape == (3, 100)
        p_f = DirectionParams.create(100, 200, rng, word_dim=50, name="fwd")
        p_b = DirectionParams.create(100, 200, rng, word_dim=50, name="bwd")
        assert p_f.gates_w.data.shape == (600, 300)
        assert p_f.shortcut_w.data.shape == (600, 250)
        assert p_f.match_gate_w.data.shape == (200, 300)
        hs, _, _ = encode_bidirectional(x, None, None, p_f, p_b)
        assert hs.data.shape == (3, 400)


class TestCharRepr:
    def _tables(self, rng, d=5):
        uni, bi = build_vocabs(["中国人", "人民"])
        ut = EmbeddingTable.random(uni, d, rng, name="unigram_embeddings")
        bt = EmbeddingTable.random(bi, d, rng, name="bigram_embeddings")
        return ut, bt

    def test_width_is_sum_of_dims(self, rng):
        ut, bt = self._tables(rng)
        x = char_repr("中国人", ut, bt)
        assert x.data.shape == (3, 10)

    def test_unseen_char_uses_row_zero(self, rng):
        ut, bt = self._tables(rng)
        x = char_repr("火", ut, bt)
        np.testing.assert_array_equal(x.data[0, :5], ut.rows.data[0])

    def test_eval_dropout_identity(self, rng):
        ut, bt = self._tables(rng)
        plain = char_repr("中国", ut, bt)
        dropped = char_repr("中国", ut, bt, dropout=0.9, mode="eval")
        np.testing.assert_array_equal(plain.data, dropped.data)

    def test_train_dropout_scales(self, rng):
        ut, bt = self._tables(rng)
        x = char_repr("中国", ut, bt, dropout=0.5, mode="train", rng=rng)
        base = char_repr("中国", ut, bt)
        kept = x.data != 0
        np.testing.assert_allclose(x.data[kept], 2.0 * base.data[kept], atol=1e-15)


# Overlapping matches, two sharing an end (3) and two sharing a start (2), and
# one spanning the whole sentence: every fusion and shortcut case at once.
SPANS = [(1, 3), (2, 3), (2, 6), (4, 6), (1, 6), (3, 5)]


def direction_case(rng, dtype=np.float64, hidden=3, x_dim=2, word_dim=3):
    p = DirectionParams.create(x_dim, hidden, rng, word_dim=word_dim, dtype=dtype)
    for t in p.tensors():  # nonzero biases, so every bias gradient is exercised
        if t.data.ndim == 1:
            t.data[:] = rng.normal(size=t.data.shape) * 0.3
    vocab = Vocab.from_symbols([f"w{i}" for i in range(len(SPANS))])
    table = EmbeddingTable.random(vocab, word_dim, rng, dtype=dtype, name="lexicon_embeddings")
    x = param(rng.normal(size=(6, x_dim)).astype(dtype), "x")
    return p, table, x, match_set(6, SPANS)


class TestDirectionOp:
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("dropout", [0.0, 0.4])
    def test_gradients_match_finite_differences(self, rng, direction, dropout):
        p, table, x, ms = direction_case(rng)
        weights = rng.normal(size=(6, p.hidden))

        def loss():
            # a fresh generator per call draws the same dropout masks each time
            h, _ = lattice_forward(
                x, ms, table, p, direction, lattice_dropout=dropout,
                mode="train", rng=np.random.default_rng(3),
            )
            return weighted_sum(h, weights)

        assert_grads_match(loss, [x, table.rows] + p.tensors())

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_one_recorded_op_per_direction(self, rng, direction):
        p, table, x, ms = direction_case(rng)
        tape = Tape()
        with tape:
            lattice_forward(x, ms, table, p, direction)
        assert len(tape) == 2  # one lookup of every match's lexicon row, then the op

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_float32_stays_float32(self, rng, monkeypatch, direction):
        p, table, x, ms = direction_case(rng, dtype=np.float32)
        written = []
        real_acc = encoder._acc
        monkeypatch.setattr(encoder, "_acc", lambda t, g: (written.append(g.dtype), real_acc(t, g)))
        tape = Tape()
        with tape:
            h, steps = lattice_forward(
                x, ms, table, p, direction, lattice_dropout=0.3,
                mode="train", rng=np.random.default_rng(1),
            )
            loss = weighted_sum(h, np.ones(h.shape))
        backward(loss)
        assert h.data.dtype == np.float32
        assert all(s.h.dtype == s.c.dtype == np.float32 for s in steps)
        assert written and set(written) == {np.dtype(np.float32)}
        assert all(t.grad.dtype == np.float32 for t in [x, table.rows] + p.tensors())

    def test_bidirectional_rows_pass_gradients(self, rng):
        p_f, table, x, ms = direction_case(rng)
        p_b = DirectionParams.create(2, 3, rng, word_dim=3)
        weights = rng.normal(size=(6, 6))
        weights[1::2] = 0.0  # every other position

        def loss():
            hs, _, _ = encode_bidirectional(x, ms, table, p_f, p_b)
            return weighted_sum(hs, weights)

        assert_grads_match(loss, [x, table.rows] + p_f.tensors() + p_b.tensors())
