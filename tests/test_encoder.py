"""Encoder: coupled LSTM semantics, lattice fusion, reduction, gradients."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import ALPHA_SUM_TOL, assert_grads_match, weighted_sum
from latseg import encoder
from latseg.data import RESERVED, SENTINEL, EmbeddingTable, Vocab, build_vocabs
from latseg.encoder import DirectionParams, char_repr, gate_normalize, lattice_forward, shortcut_cell
from latseg.errors import UsageError
from latseg.lexicon import LatticeMatchSet
from latseg.tensor import Tape, backward, const, param


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


def match_set(spans):
    """Span k as match k of lexicon entry k."""
    b, e = np.array(spans, np.intp).reshape(-1, 2).T
    return LatticeMatchSet(b, e, np.arange(len(spans)))


def random_lexicon_table(rng, n_entries, dim, name="lexicon_embeddings"):
    vocab = Vocab([f"w{i}" for i in range(n_entries)])
    return EmbeddingTable.random(vocab, dim, rng, name=name)


DIRECTIONS = ("forward", "backward")


def both(x, ms, table, p, **kwargs):
    """One sentence through :func:`lattice_forward` with ``p`` reading both ways: its states and Fusion pair."""
    hs, [fusions] = lattice_forward(x, [ms], table, (p, p), [len(x)], **kwargs)
    return hs, fusions


def walk(x, ms, table, p, direction="forward", **kwargs):
    """One direction's half of :func:`both`: its (m, hidden) states and its Fusion."""
    hs, fusions = both(x, ms, table, p, **kwargs)
    d = DIRECTIONS.index(direction)
    return hs.data[:, d * p.hidden : (d + 1) * p.hidden], fusions[d]


def on_half(weights, direction="forward"):
    """(m, hidden) weights on one direction's half of the (m, 2 * hidden) states; zero on the other."""
    zero = np.zeros_like(weights)
    return np.hstack([weights, zero] if direction == "forward" else [zero, weights])


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def lstm_step(x, h_prev, c_prev, p):
    """The coupled LSTM step from its equations: output, forget and candidate over [x; h_prev], input gate 1 - f."""
    n = p.hidden
    z = p.gates_w.data @ np.concatenate([x, h_prev]) + p.gates_b.data
    o, f, cand = sigmoid(z[:n]), sigmoid(z[n : 2 * n]), np.tanh(z[2 * n :])
    c = f * c_prev + (1.0 - f) * cand
    return o * np.tanh(c), c


class TestLstmStep:
    def test_gate_coupling_exact(self, rng):
        # c = f*c_prev + (1-f)*cand, seen through lattice_forward: with the
        # hidden-state columns zeroed the gates of a character depend on it
        # alone, and with the output gate pinned to 1, c = arctanh(h). Two
        # sentences that differ only in their first character then share f
        # and cand at the second, so f = (c1 - c2) / (c_a - c_b), and the
        # one-character sentence gives (1 - f) * cand from zero memory
        p = random_direction(3, 2, rng)
        p.gates_w.data[:, 2:] = 0.0
        p.gates_b.data[:3] = 40.0  # sigmoid(40) rounds to 1 in float64
        x, x_a, x_b = rng.normal(size=(3, 2))

        def memories(*chars):
            h, _ = walk(const(np.array(chars)), None, None, p)
            return np.arctanh(h)

        (c_a, c1), (c_b, c2) = memories(x_a, x), memories(x_b, x)
        (c0,) = memories(x)
        f = (c1 - c2) / (c_a - c_b)
        np.testing.assert_allclose(c1, f * c_a + c0, atol=1e-12)
        assert np.all((f > 0) & (f < 1))


def run_shortcut_cell(p, e_w, h_src, c_src, x):
    """:func:`shortcut_cell` on fresh buffers: the match memory, the cell gates and the control gate."""
    n = p.hidden
    eh, xm = np.concatenate([e_w, np.zeros(n)]), np.concatenate([x, np.zeros(n)])
    gates, gate = np.empty(3 * n), np.empty(n)
    shortcut_cell(p, eh, h_src, c_src, gates, xm, gate)
    np.testing.assert_array_equal(eh[-n:], h_src)
    return xm[-n:], gates, gate


def normalize(rows):
    z = np.array(rows, dtype=float)
    return gate_normalize(z, np.empty_like(z))


class TestShortcutCell:
    def test_zero_params_halves_start_memory(self, rng):
        p = zero_direction(4, 3, word_dim=2)
        c_b = rng.normal(size=4)
        out, _, _ = run_shortcut_cell(p, rng.normal(size=2), np.zeros(4), c_b, np.zeros(3))
        np.testing.assert_allclose(out, 0.5 * c_b, atol=1e-15)

    def test_zero_start_memory_zero_output(self, rng):
        p = zero_direction(4, 3, word_dim=2)
        out, _, _ = run_shortcut_cell(p, rng.normal(size=2), np.zeros(4), np.zeros(4), np.zeros(3))
        np.testing.assert_array_equal(out, np.zeros(4))


class TestGateLogit:
    # The control gate is the last thing shortcut_cell writes. With zero
    # shortcut weights the match memory is exactly half the source memory, so
    # a source memory of 2 * c_match puts c_match into the gate's input.
    def test_zero_params_half(self, rng):
        p = zero_direction(3, 2, word_dim=2)
        x, c_match = rng.normal(size=2), rng.normal(size=3)
        memory, _, out = run_shortcut_cell(p, np.zeros(2), np.zeros(3), 2.0 * c_match, x)
        np.testing.assert_array_equal(memory, c_match)
        np.testing.assert_array_equal(out, np.full(3, 0.5))

    def test_range_open_unit_interval(self, rng):
        p = random_direction(3, 2, rng, word_dim=2)
        p.shortcut_w.data[:] = 0.0
        p.shortcut_b.data[:] = 0.0
        x, c_match = rng.normal(size=2) * 5, rng.normal(size=3) * 5
        memory, _, out = run_shortcut_cell(p, np.zeros(2), np.zeros(3), 2.0 * c_match, x)
        np.testing.assert_array_equal(memory, c_match)
        assert np.all((out > 0) & (out < 1))

    def test_gradient_reaches_both_inputs(self, rng):
        # the gate reads the end character's input and the match memory; in the
        # direction op the memory comes from the lexicon row, so gradients
        # must reach that input, that row and the gate's own weights
        p = random_direction(3, 2, rng, word_dim=2)
        table = random_lexicon_table(rng, 1, 2)
        x = param(rng.normal(size=(3, 2)), "x")
        ms = match_set([(1, 3)])
        weights = np.zeros((3, 3))
        weights[2] = rng.normal(size=3)  # the state at the match's end only

        def loss():
            hs, _ = both(x, ms, table, p)
            return weighted_sum(hs, on_half(weights))

        assert_grads_match(loss, [x, table.rows, p.match_gate_w, p.match_gate_b])


class TestGateNormalize:
    def test_no_matches_char_weight_one(self):
        out = normalize([[0.3, 0.9]])
        np.testing.assert_array_equal(out, np.ones((1, 2)))

    def test_equal_gates_uniform(self):
        out = normalize(np.full((5, 3), 0.42))
        np.testing.assert_allclose(out, np.full((5, 3), 1 / 5), atol=1e-9)

    def test_log_weights_example(self):
        # pre-exp values ln 2 and ln 1 normalize to 2/3 and 1/3
        out = normalize([[math.log(2.0)], [0.0]])
        assert out[0, 0] == pytest.approx(2 / 3, abs=1e-12)
        assert out[1, 0] == pytest.approx(1 / 3, abs=1e-12)


class TestLatticeForward:
    def test_empty_matches_bit_equal_to_lstm(self, rng):
        p = random_direction(5, 4, rng)
        x = const(rng.normal(size=(7, 4)))
        out, fusion = walk(x, None, None, p)
        h = c = np.zeros(5)
        for i, x_i in enumerate(x.data):
            h, c = lstm_step(x_i, h, c, p)
            assert out[i].tobytes() == h.tobytes()
        assert len(fusion.src) == len(fusion.end) == len(fusion.alpha) == 0
        np.testing.assert_array_equal(fusion.alpha_char, np.ones((7, 5)))

    def test_zero_params_zero_hidden(self, rng):
        p = zero_direction(4, 3)
        out, _ = walk(const(rng.normal(size=(5, 3))), None, None, p)
        np.testing.assert_array_equal(out, np.zeros((5, 4)))

    def test_candidate_bias_only_halves_memory(self, rng):
        # zero weights: o = f = 1/2 and the input gate 1 - f = 1/2, so
        # c_i = c_{i-1} / 2 + tanh(b) / 2 = tanh(b) (1 - 2^-i) and h_i = tanh(c_i) / 2
        p = zero_direction(4, 3)
        cand_bias = rng.normal(size=4)
        p.gates_b.data[8:] = cand_bias
        out, _ = walk(const(rng.normal(size=(5, 3))), None, None, p)
        c = np.tanh(cand_bias) * (1.0 - 0.5 ** np.arange(1, 6))[:, None]
        np.testing.assert_allclose(out, 0.5 * np.tanh(c), atol=1e-15)

    def test_alpha_weights_sum_to_one(self, rng):
        p = random_direction(4, 3, rng, word_dim=3)
        table = random_lexicon_table(rng, 4, 3)
        x = const(rng.normal(size=(6, 3)))
        ms = match_set([(1, 3), (2, 3), (2, 6), (4, 6)])
        # forward fusion happens where matches end ({3, 6}); backward where
        # they start (original positions {1, 2, 4})
        for direction, fused in (("forward", {3, 6}), ("backward", {1, 2, 4})):
            _, fusion = walk(x, ms, table, p, direction)
            assert set(fusion.end.tolist()) == fused
            for i in fused:
                total = fusion.alpha_char[i - 1] + sum(fusion.alpha[fusion.end == i])
                np.testing.assert_allclose(total, np.ones(4), atol=ALPHA_SUM_TOL)
            for i in set(range(1, 7)) - fused:
                np.testing.assert_array_equal(fusion.alpha_char[i - 1], np.ones(4))
        # backward shortcut sources are the matches' end characters
        sources = {}
        for src, end in zip(fusion.src.tolist(), fusion.end.tolist()):
            sources.setdefault(end, []).append(src)
        assert sources == {4: [6], 2: [3, 6], 1: [3]}
        assert list(sources) == [4, 2, 1]  # walk order: the matches fused at one position are adjacent

    def test_walk_order_of_both_directions(self, rng):
        # forward fuses at the end, matches ordered by end then start; backward
        # fuses at the start, walking starts downwards and ordering by end
        p = random_direction(3, 2, rng, word_dim=3)
        table = random_lexicon_table(rng, len(SPANS), 3)
        x = const(rng.normal(size=(6, 2)))
        expected = {
            "forward": ([1, 2, 3, 1, 2, 4], [3, 3, 5, 6, 6, 6]),
            "backward": ([6, 5, 3, 6, 3, 6], [4, 3, 2, 2, 1, 1]),
        }
        for direction, (src, end) in expected.items():
            records = []
            for spans in (SPANS, SPANS[::-1]):  # the caller's order does not matter
                entries = [SPANS.index(s) for s in spans]  # each span keeps its lexicon row
                b, e = np.array(spans).T
                ms = LatticeMatchSet(b, e, np.array(entries))
                h, fusion = walk(x, ms, table, p, direction)
                assert fusion.src.tolist() == src and fusion.end.tolist() == end
                records.append((h.tobytes(), fusion.alpha.tobytes()))
            assert records[0] == records[1]

    def test_locality_prefix_unchanged(self, rng):
        # perturbing a match embedding must not change hidden states before
        # the match's end position (forward direction)
        p = random_direction(4, 3, rng, word_dim=3)
        table = random_lexicon_table(rng, 2, 3)
        x = const(rng.normal(size=(6, 3)))
        ms = match_set([(2, 4)])
        before, _ = walk(x, ms, table, p)
        table.rows.data[2] += 1.5
        after, _ = walk(x, ms, table, p)
        # positions 1..3 precede the end at 4
        np.testing.assert_array_equal(before[:3], after[:3])
        assert not np.array_equal(before[3], after[3])

    def test_out_of_range_match_rejected(self, rng):
        # a match set claiming spans beyond the sentence is a matcher
        # contract violation, not something to ignore silently
        p = random_direction(3, 2, rng, word_dim=3)
        table = random_lexicon_table(rng, 1, 3)
        x = const(rng.normal(size=(3, 2)))
        with pytest.raises(UsageError, match="out of range"):
            both(x, match_set([(2, 5)]), table, p)

    def test_gradient_reaches_spanning_match_embedding(self, rng):
        p = random_direction(3, 2, rng, word_dim=3)
        table = random_lexicon_table(rng, 1, 3)
        x = const(rng.normal(size=(4, 2)))
        ms = match_set([(1, 4)])
        weights = np.zeros((4, 3))
        weights[3] = rng.normal(size=3)  # the state at the match's end only

        def loss():
            hs, _ = both(x, ms, table, p)
            return weighted_sum(hs, on_half(weights))

        assert_grads_match(loss, [table.rows] + p.tensors())


class TestEncodeBidirectional:
    def test_hidden_width_doubles(self, rng):
        p_f = random_direction(5, 4, rng, name="fwd")
        p_b = random_direction(5, 4, rng, name="bwd")
        hs, [(fwd, bwd)] = lattice_forward(const(rng.normal(size=(3, 4))), [None], None, (p_f, p_b), [3])
        assert hs.data.shape == (3, 10)
        assert fwd.alpha_char.shape == bwd.alpha_char.shape == (3, 5)

    def test_palindrome_with_tied_params_mirrors(self, rng):
        p = random_direction(4, 3, rng, word_dim=3)
        table = random_lexicon_table(rng, 1, 3)
        half = [rng.normal(size=3) for _ in range(3)]
        sym = half + [rng.normal(size=3)] + half[::-1]  # length 7 palindrome
        ms = match_set([(3, 5)])  # self-mirroring span
        hs, (fwd, bwd) = both(const(np.array(sym)), ms, table, p)
        np.testing.assert_array_equal(hs.data[:, :4], hs.data[::-1, 4:])
        # the span fuses at 5 reading forward and at its mirror 3 reading backward
        assert fwd.end.tolist() == [5] and bwd.end.tolist() == [3]
        np.testing.assert_array_equal(fwd.alpha, bwd.alpha)
        np.testing.assert_array_equal(fwd.alpha_char, bwd.alpha_char[::-1])

    def test_empty_matches_equals_baseline_encoding(self, rng):
        p_f = random_direction(4, 3, rng, word_dim=3, name="fwd")
        p_b = random_direction(4, 3, rng, word_dim=3, name="bwd")
        x = const(rng.normal(size=(5, 3)))
        hs_lattice, _ = lattice_forward(x, [match_set([])], random_lexicon_table(rng, 1, 3), (p_f, p_b), [5])
        hs_base, _ = lattice_forward(x, [None], None, (p_f, p_b), [5])
        np.testing.assert_array_equal(hs_lattice.data, hs_base.data)


class TestDefaultDimensions:
    def test_default_sizes_wire_up(self, rng):
        # 50-dim unigram + 50-dim bigram reprs into a 200-unit LSTM per
        # direction: repr width 100, stacked gates 600 x 300, output 400
        uni, bi = build_vocabs(["中国人"])
        ut = EmbeddingTable.random(uni, 50, rng, name="unigram_embeddings")
        bt = EmbeddingTable.random(bi, 50, rng, name="bigram_embeddings")
        x = char_repr(["中国人"], ut, bt)
        assert x.data.shape == (3, 100)
        p_f = DirectionParams.create(100, 200, rng, word_dim=50, name="fwd")
        p_b = DirectionParams.create(100, 200, rng, word_dim=50, name="bwd")
        assert p_f.gates_w.data.shape == (600, 300)
        assert p_f.shortcut_w.data.shape == (600, 250)
        assert p_f.match_gate_w.data.shape == (200, 300)
        hs, _ = lattice_forward(x, [None], None, (p_f, p_b), [3])
        assert hs.data.shape == (3, 400)


class TestCharRepr:
    def _tables(self, rng, d=5):
        uni, bi = build_vocabs(["中国人", "人民"])
        ut = EmbeddingTable.random(uni, d, rng, name="unigram_embeddings")
        bt = EmbeddingTable.random(bi, d, rng, name="bigram_embeddings")
        return ut, bt

    def test_width_is_sum_of_dims(self, rng):
        ut, bt = self._tables(rng)
        x = char_repr(["中国人"], ut, bt)
        assert x.data.shape == (3, 10)

    def test_unseen_char_uses_row_zero(self, rng):
        ut, bt = self._tables(rng)
        x = char_repr(["火"], ut, bt)
        np.testing.assert_array_equal(x.data[0, :5], ut.rows.data[0])

    def test_eval_dropout_identity(self, rng):
        ut, bt = self._tables(rng)
        plain = char_repr(["中国"], ut, bt)
        dropped = char_repr(["中国"], ut, bt, dropout=0.9)
        np.testing.assert_array_equal(plain.data, dropped.data)

    def test_each_sentence_ends_at_the_sentinel(self, rng):
        ut, bt = self._tables(rng)
        alone = [char_repr([s], ut, bt).data for s in ("中国", "人")]
        np.testing.assert_array_equal(char_repr(["中国", "人"], ut, bt).data, np.concatenate(alone))
        assert not np.array_equal(alone[0], char_repr(["中国人"], ut, bt).data[:2])

    @given(
        st.lists(st.text(alphabet="天地人", min_size=1, max_size=8), min_size=1, max_size=6),
        st.lists(st.text(alphabet="天地人山水", min_size=1, max_size=8), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_bigram_rows_are_the_rows_of_the_bigram_strings(self, corpus, batch):
        # 山 and 水 never occur in the corpus; a one-character sentence is only its sentinel bigram
        uni, bi = build_vocabs(corpus)
        ut = EmbeddingTable.random(uni, 2, np.random.default_rng(0), name="unigram_embeddings")
        bt = EmbeddingTable.random(bi, 3, np.random.default_rng(1), name="bigram_embeddings")
        strings = [s[i] + (s[i + 1] if i + 1 < len(s) else SENTINEL) for s in batch for i in range(len(s))]
        # the string-keyed vocabulary the index replaced numbers the same rows
        keyed = Vocab(s[i] + (s[i + 1] if i + 1 < len(s) else SENTINEL) for s in corpus for i in range(len(s)))
        expect = [bi.index(bg) for bg in strings]
        assert expect == [keyed.index(bg) for bg in strings]
        np.testing.assert_array_equal(char_repr(batch, ut, bt).data[:, 2:], bt.rows.data[expect])

    def test_train_dropout_scales(self, rng):
        ut, bt = self._tables(rng)
        x = char_repr(["中国"], ut, bt, dropout=0.5, rng=rng)
        base = char_repr(["中国"], ut, bt)
        kept = x.data != 0
        np.testing.assert_allclose(x.data[kept], 2.0 * base.data[kept], atol=1e-15)


# Overlapping matches, two sharing an end (3) and two sharing a start (2), and
# one spanning the whole sentence: every fusion and shortcut case at once.
SPANS = [(1, 3), (2, 3), (2, 6), (4, 6), (1, 6), (3, 5)]


def direction_case(rng, dtype=np.float64, hidden=3, x_dim=2, word_dim=3, m=6, n_entries=len(SPANS)):
    p = DirectionParams.create(x_dim, hidden, rng, word_dim=word_dim, dtype=dtype)
    for t in p.tensors():  # nonzero biases, so every bias gradient is exercised
        if t.data.ndim == 1:
            t.data[:] = rng.normal(size=t.data.shape) * 0.3
    vocab = Vocab([f"w{i}" for i in range(n_entries)])
    table = EmbeddingTable.random(vocab, word_dim, rng, dtype=dtype, name="lexicon_embeddings")
    x = param(rng.normal(size=(m, x_dim)).astype(dtype), "x")
    return p, table, x, match_set(SPANS)


class TestDirectionOp:
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("dropout", [0.0, 0.4])
    def test_gradients_match_finite_differences(self, rng, direction, dropout):
        p, table, x, ms = direction_case(rng)
        weights = rng.normal(size=(6, p.hidden))

        def loss():
            # a fresh generator per call draws the same dropout masks each time
            hs, _ = both(x, ms, table, p, lattice_dropout=dropout, rng=np.random.default_rng(3))
            return weighted_sum(hs, on_half(weights, direction))

        assert_grads_match(loss, [x, table.rows] + p.tensors())

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_one_recorded_op_per_direction(self, rng, direction):
        p, table, x, ms = direction_case(rng)
        tape = Tape()
        with tape:
            both(x, ms, table, p)
        assert len(tape) == 2  # one lookup of every match's lexicon row, then the op

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_float32_stays_float32(self, rng, monkeypatch, direction):
        p, table, x, ms = direction_case(rng, dtype=np.float32)
        written = []
        real_acc = encoder._acc
        monkeypatch.setattr(encoder, "_acc", lambda t, g: (written.append(g.dtype), real_acc(t, g)))
        tape = Tape()
        with tape:
            hs, fusions = both(x, ms, table, p, lattice_dropout=0.3, rng=np.random.default_rng(1))
            loss = weighted_sum(hs, on_half(np.ones((len(x), p.hidden)), direction))
        backward(loss)
        fusion = fusions[DIRECTIONS.index(direction)]
        assert hs.data.dtype == np.float32
        assert fusion.alpha.dtype == fusion.alpha_char.dtype == np.float32
        assert written and set(written) == {np.dtype(np.float32)}
        assert all(t.grad.dtype == np.float32 for t in [x, table.rows] + p.tensors())

    def test_bidirectional_rows_pass_gradients(self, rng):
        p_f, table, x, ms = direction_case(rng)
        p_b = DirectionParams.create(2, 3, rng, word_dim=3)
        weights = rng.normal(size=(6, 6))
        weights[1::2] = 0.0  # every other position

        def loss():
            hs, _ = lattice_forward(x, [ms], table, (p_f, p_b), [6])
            return weighted_sum(hs, weights)

        assert_grads_match(loss, [x, table.rows] + p_f.tensors() + p_b.tensors())


def reference_walk(x, spans, lexicon_rows, p, direction):
    """One direction of the lattice LSTM written from its equations, position by position.

    Span k = (b, e) spells lexicon row len(RESERVED) + k. Returns the hidden
    states in sentence order and the fusion record: each match's source and
    fusion position and weight in walk order, and the candidate's weight per
    position.
    """
    m, n = len(x), p.hidden
    forward = direction == "forward"

    def three_gates(w, b, u):  # the stacked thirds of w [u] + b
        z = w @ u + b
        return sigmoid(z[:n]), sigmoid(z[n : 2 * n]), np.tanh(z[2 * n :])

    # (fusion position, source, k) per match: a match is fused at its end reading
    # forward and at its start reading backward, from the state at its other end
    fusions = sorted(((e, b) if forward else (b, e)) + (k,) for k, (b, e) in enumerate(spans))
    zero = np.zeros(n, x.dtype)
    h, c = {0: zero, m + 1: zero}, {0: zero, m + 1: zero}
    src, end, alpha, alpha_char = [], [], [], np.ones((m, n), x.dtype)
    for i in range(1, m + 1) if forward else range(m, 0, -1):
        prev = i - 1 if forward else i + 1
        # coupled LSTM gates over [x_i; h_prev]: output, forget, candidate
        o, f, cand = three_gates(p.gates_w.data, p.gates_b.data, np.concatenate([x[i - 1], h[prev]]))
        arriving = [(s, k) for at, s, k in fusions if at == i]  # in order of their source
        if not arriving:
            c[i] = f * c[prev] + (1.0 - f) * cand  # input gate 1 - f
        else:
            memories, logits = [], [1.0 - f]
            for s, k in arriving:
                # shortcut cell over [e_w; h_s]: input, forget, candidate; no output gate
                e_w = lexicon_rows[len(RESERVED) + k]
                u = np.concatenate([e_w, h[s]])
                gi, gf, gc = three_gates(p.shortcut_w.data, p.shortcut_b.data, u)
                memories.append(gf * c[s] + gi * gc)
                # control gate over [x_i; c_w]
                u = np.concatenate([x[i - 1], memories[-1]])
                logits.append(sigmoid(p.match_gate_w.data @ u + p.match_gate_b.data))
                src.append(s)
                end.append(i)
            z = np.array(logits)
            ez = np.exp(z - z.max(axis=0))
            a = ez / ez.sum(axis=0)  # a[0] for the candidate, then one per match
            c[i] = a[1] * memories[0]
            for a_w, memory in zip(a[2:], memories[1:]):
                c[i] = c[i] + a_w * memory
            c[i] = c[i] + a[0] * cand  # the matches first, then the candidate
            alpha += list(a[1:])
            alpha_char[i - 1] = a[0]
        h[i] = o * np.tanh(c[i])
    hidden = np.array([h[i] for i in range(1, m + 1)])
    return hidden, src, end, np.array(alpha, x.dtype).reshape(-1, n), alpha_char


def random_spans(rng, m, most=6):
    """Spans of an m-character sentence; each position ends 0 to ``most`` of them, from distinct starts."""
    spans = []
    for e in range(2, m + 1):
        for b in sorted(rng.choice(e - 1, size=rng.integers(min(most, e - 1) + 1), replace=False)):
            spans.append((int(b) + 1, e))
    return spans or [(1, m)] * (m > 1)


def assert_bit_equal_to_reference(x, ms, spans, table, p, direction):
    """The walk over match set ``ms`` of ``spans`` gives the reference's bits; returns its outputs."""
    h, fusion = walk(x, ms, table, p, direction)
    ref_h, src, end, alpha, alpha_char = reference_walk(x.data, spans, table.rows.data, p, direction)
    assert h.dtype == ref_h.dtype == x.data.dtype
    assert h.tobytes() == ref_h.tobytes()
    assert fusion.src.tolist() == src and fusion.end.tolist() == end
    assert fusion.alpha.dtype == fusion.alpha_char.dtype == x.data.dtype
    assert fusion.alpha.tobytes() == alpha.tobytes()
    assert fusion.alpha_char.tobytes() == alpha_char.tobytes()
    return h, fusion


class TestReferenceWalk:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("lattice", ["none", "empty", "overlapping"])
    def test_bit_equal_to_reference(self, rng, dtype, direction, lattice):
        p, table, x, ms = direction_case(rng, dtype=dtype)
        spans = SPANS if lattice == "overlapping" else []
        ms = {"none": None, "empty": match_set([]), "overlapping": ms}[lattice]
        _, fusion = assert_bit_equal_to_reference(x, ms, spans, table, p, direction)
        if not spans:  # nothing fused: the plain coupled LSTM at every position
            assert len(fusion.alpha) == 0 and (fusion.alpha_char == 1).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("m", [1, 2, 200])
    def test_random_lattices_bit_equal_to_reference(self, dtype, direction, m):
        rng = np.random.default_rng(m)
        spans = random_spans(rng, m)
        if direction == "backward":  # mirrored, so that each fusion position gets as many matches
            spans = [(m + 1 - e, m + 1 - b) for b, e in spans]
        p, table, x, _ = direction_case(rng, dtype=dtype, m=m, n_entries=max(len(spans), 1))
        _, fusion = assert_bit_equal_to_reference(x, match_set(spans), spans, table, p, direction)
        arriving = np.bincount(fusion.end, minlength=m + 1)[1:]
        if m == 200:
            assert set(arriving.tolist()) == set(range(7))
        else:
            assert arriving.sum() == m - 1  # length 1: no match; length 2: one
        _, fusion = assert_bit_equal_to_reference(x, None, [], table, p, direction)
        assert len(fusion.alpha) == 0 and (fusion.alpha_char == 1).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_saturated_gates_are_silent_and_exact(self, rng, dtype):
        # Gate pre-activations of +-1000: exp(1000) overflows to inf, and
        # 1 / (1 + inf) = 0 is the exact limit. Output gates (1, 0, 1), forget
        # gates 0 and control gates (1, 0, 1) must come out exactly, unreported.
        p, table, x, ms = direction_case(rng, dtype=dtype)
        p.gates_w.data[:] = 0.0
        p.gates_b.data[:6] = [1000.0, -1000.0, 1000.0, -1000.0, -1000.0, -1000.0]
        p.match_gate_b.data[:] = [1000.0, -1000.0, 1000.0]
        h_plain = np.tanh(np.tanh(p.gates_b.data[6:])) * np.array([1, 0, 1], dtype)  # c = cand unfused
        for direction in ("forward", "backward"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                h, fusion = walk(x, ms, table, p, direction)
            with np.errstate(over="ignore"):
                assert_bit_equal_to_reference(x, ms, SPANS, table, p, direction)
            for i in set(range(1, 7)) - set(fusion.end.tolist()):
                assert h[i - 1].tobytes() == h_plain.tobytes()
            assert not h[:, 1].any()
            # control gate 1 = input gate 1 - f: equal weights; control gate 0 is outweighed
            char = fusion.alpha_char[fusion.end - 1]
            np.testing.assert_array_equal(fusion.alpha[:, [0, 2]], char[:, [0, 2]])
            assert (fusion.alpha[:, 1] < char[:, 1]).all()


def assert_same_fusion(got, expect):
    assert got.src.tolist() == expect.src.tolist() and got.end.tolist() == expect.end.tolist()
    assert got.alpha.tobytes() == expect.alpha.tobytes()
    assert got.alpha_char.tobytes() == expect.alpha_char.tobytes()


class TestLanes:
    # A batch of sentences walks as lanes of one op; each sentence must come out
    # as it does alone and as the reference walk gives it. Lengths 1 and 200
    # sit in one batch, so lanes stop walking at very different steps.
    LENGTHS = [37, 1, 200, 2, 1, 64, 200, 5]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lattice", ["none", "sparse", "dense"])
    def test_batch_equals_each_sentence_alone_and_the_reference(self, dtype, lattice):
        rng = np.random.default_rng(len(lattice))
        x_dim, hidden, word_dim = 3, 4, 2
        p_f = DirectionParams.create(x_dim, hidden, rng, word_dim=word_dim, dtype=dtype, name="fwd")
        p_b = DirectionParams.create(x_dim, hidden, rng, word_dim=word_dim, dtype=dtype, name="bwd")
        spans, match_sets, first_entry = [], [], 0
        for i, m in enumerate(self.LENGTHS):
            # every third sentence has no match, its match set alternately None and empty;
            # the others end 1 to 2 (sparse) or 1 to 6 (dense) per position
            s = [] if lattice == "none" or i % 3 == 2 else random_spans(rng, m, 2 if lattice == "sparse" else 6)
            spans.append(s)
            if lattice == "none" or i % 6 == 2:
                match_sets.append(None)
            else:
                b, e = np.array(s, np.intp).reshape(-1, 2).T
                match_sets.append(LatticeMatchSet(b, e, first_entry + np.arange(len(s))))
            first_entry += len(s)
        table = random_lexicon_table(rng, max(first_entry, 1), word_dim)
        table.rows.data = table.rows.data.astype(dtype)
        xs = [rng.normal(size=(m, x_dim)).astype(dtype) for m in self.LENGTHS]
        hs, fusions = lattice_forward(const(np.concatenate(xs)), match_sets, table, (p_f, p_b), self.LENGTHS)
        assert hs.data.dtype == dtype and hs.data.shape == (sum(self.LENGTHS), 2 * hidden)

        start = 0
        for i, (x, ms, s) in enumerate(zip(xs, match_sets, spans)):
            rows_ = hs.data[start : start + len(x)]
            alone, [(fwd_alone, bwd_alone)] = lattice_forward(const(x), [ms], table, (p_f, p_b), [len(x)])
            assert rows_.tobytes() == alone.data.tobytes()
            assert_same_fusion(fusions[i][0], fwd_alone)
            assert_same_fusion(fusions[i][1], bwd_alone)
            # entry k of sentence i is lexicon row len(RESERVED) + first + k: shift the rows by first
            first = int(ms.entry[0]) if ms is not None and len(ms) else 0
            lexicon_rows = table.rows.data[first:]
            for half, (fusion, p, direction) in enumerate(zip(fusions[i], (p_f, p_b), DIRECTIONS)):
                ref_h, src, end, alpha, alpha_char = reference_walk(x, s, lexicon_rows, p, direction)
                assert rows_[:, half * hidden : (half + 1) * hidden].tobytes() == ref_h.tobytes()
                assert fusion.src.tolist() == src and fusion.end.tolist() == end
                assert fusion.alpha.tobytes() == alpha.tobytes()
                assert fusion.alpha_char.tobytes() == alpha_char.tobytes()
            start += len(x)
        arriving = set().union(*(np.bincount(fwd.end).tolist() for fwd, _ in fusions))
        most = {"none": 0, "sparse": 2, "dense": 6}[lattice]
        assert arriving - {0} == set(range(1, most + 1))  # matches arriving at one position

    def test_a_recorded_forward_takes_one_sentence(self, rng):
        p_f, table, x, ms = direction_case(rng)
        p_b = DirectionParams.create(2, 3, rng, word_dim=3, name="bwd")
        with Tape():
            with pytest.raises(UsageError, match="one sentence"):
                lattice_forward(x, [ms, ms], table, (p_f, p_b), [3, 3])

    def test_lengths_must_cover_the_rows(self, rng):
        p, table, x, ms = direction_case(rng)
        with pytest.raises(UsageError, match="lengths"):
            lattice_forward(x, [ms, None], table, (p, p), [6, 1])
