"""Numeric core: primitive semantics, gradients vs finite differences, SGD."""

import gc
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import assert_grads_match, dense_grad, weighted_sum
from latseg.crf import CrfParams, emissions, nll_loss
from latseg.encoder import _sigmoid, gate_normalize
from latseg.errors import ConfigError, NumericError, UsageError
from latseg.tensor import (
    Tape,
    Tensor,
    _acc,
    _out,
    backward,
    concat,
    const,
    dropout,
    param,
    rows,
    sgd_step,
    zero_grads,
)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """a * b elementwise as one recorded op: a test-local graph for the tape tests."""

    def bwd(g):
        _acc(a, g * b.data)
        _acc(b, g * a.data)

    return _out(a.data * b.data, bwd)


def crf_params(w, b) -> CrfParams:
    return CrfParams(emit_w=param(w, "w"), emit_b=param(b, "b"), transitions=param(np.zeros((6, 6)), "t"))


class TestAffine:
    """The model's one affine map w @ h + b: the CRF emissions."""

    def test_identity(self):
        out = emissions(const([[3.0, 4.0, 5.0, 6.0]]), crf_params(np.eye(4), np.zeros(4)))
        np.testing.assert_array_equal(out, [[3.0, 4.0, 5.0, 6.0]])

    def test_hand_multiplication(self):
        w = [[1.0, 1.0], [0.0, 2.0], [1.0, 0.0], [0.0, 0.0]]
        out = emissions(const([[1.0, 1.0]]), crf_params(w, [1.0, 0.0, 0.0, -1.0]))
        np.testing.assert_array_equal(out, [[3.0, 2.0, 1.0, -1.0]])

    def test_zero_map(self):
        out = emissions(const([[7.0, -2.0, 0.5]]), crf_params(np.zeros((4, 3)), [5.0, 0.0, 1.0, 2.0]))
        np.testing.assert_array_equal(out, [[5.0, 0.0, 1.0, 2.0]])

    def test_matrix_input_maps_rows_bit_for_bit(self, rng):
        for dtype in (np.float64, np.float32):
            p = crf_params(rng.normal(size=(4, 6)).astype(dtype), rng.normal(size=4).astype(dtype))
            x = rng.normal(size=(5, 6)).astype(dtype)
            out = emissions(const(x), p)
            assert out.dtype == dtype
            for i in range(5):
                assert out[i].tobytes() == (p.emit_w.data @ x[i] + p.emit_b.data).tobytes()


class TestActivate:
    # the sigmoid works in place inside the lattice walk; the walk's
    # TestReferenceWalk::test_saturated_gates_are_silent_and_exact checks its overflow
    def test_sigmoid_zero(self):
        assert _sigmoid(np.array([0.0]))[0] == 0.5

    # the exp-normalization (softmax) of the lattice fusion is encoder.gate_normalize
    def test_softmax_symmetry(self):
        z = np.full((3, 1), 1.7)
        out = gate_normalize(z, np.empty_like(z))
        np.testing.assert_allclose(out[:, 0], [1 / 3] * 3, rtol=0, atol=1e-15)

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_softmax_sums_to_one(self, values):
        z = np.array(values)[:, None]
        out = gate_normalize(z, np.empty_like(z))
        assert np.all(out > 0)
        assert abs(out.sum() - 1.0) <= 1e-9


class TestBackward:
    def test_affine_weight_gradient_is_outer_product(self):
        # independent oracle: d (w @ x_i)[y] / dw = outer(onehot(y), x_i); with zero
        # parameters every path scores 0, so each label's marginal is 1/4 and the
        # loss gradient is outer(1/4 - onehot(y_i), x_i), summed over i
        p = crf_params(np.zeros((4, 3)), np.zeros(4))
        x = [[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]]
        tape = Tape()
        with tape:
            loss = nll_loss(const(x), ["B", "E"], p)
        backward(loss)
        expect = np.outer([-0.75, 0.25, 0.25, 0.25], x[0]) + np.outer([0.25, 0.25, -0.75, 0.25], x[1])
        np.testing.assert_allclose(p.emit_w.grad, expect, atol=1e-12)

    def test_unreachable_param_gets_zero(self):
        # no buffer and an empty row record: the update skips it
        w = param(np.ones(3), "w")
        tape = Tape()
        with tape:
            loss = weighted_sum(const([2.0]), [1.0])
        backward(loss)
        assert w.grad is None and w.grad_rows == []
        np.testing.assert_array_equal(dense_grad(w), np.zeros(3))

    def test_no_tape_is_usage_error(self):
        loss = weighted_sum(const([1.0]), [1.0])
        with pytest.raises(UsageError):
            backward(loss)

    def test_tape_single_use(self):
        w = param(np.ones(1), "w")
        tape = Tape()
        with tape:
            loss = weighted_sum(mul(w, w), [1.0])
        backward(loss)
        assert len(tape) == 2  # still the number of recorded ops
        with pytest.raises(UsageError):
            backward(loss)

    def test_replayed_graph_freed_without_cycle_collector(self):
        w = param(np.ones(3), "w")
        gc.disable()
        try:
            tape = Tape()
            with tape:
                hidden = mul(w, w)
                loss = weighted_sum(hidden, np.ones(3))
            alive = weakref.ref(hidden.data)
            backward(loss)
            del hidden, loss, tape
            assert alive() is None
        finally:
            gc.enable()

    def test_nested_tape_rejected(self):
        with Tape():
            with pytest.raises(UsageError):
                Tape().__enter__()

    def test_unreached_node_keeps_no_grad(self):
        w = param(np.array([0.5, -1.0]), "w")
        mask = const([1.0, 1.0])
        tape = Tape()
        with tape:
            side = mul(w, w)  # recorded, but the loss does not use it
            loss = weighted_sum(mul(w, mask), [1.0, 1.0])
        backward(loss)
        assert side.grad is None and mask.grad is None
        assert loss.grad is not None and np.any(w.grad != 0.0)

    def test_threads_hold_their_own_tapes(self):
        ws = [param(np.array([float(k + 2)]), f"w{k}") for k in range(2)]
        both_open = threading.Barrier(2)
        lengths, errors = [0, 0], []

        def train_one(k):
            try:
                tape = Tape()
                with tape:
                    both_open.wait(timeout=10)  # the other thread's tape is open too
                    loss = weighted_sum(mul(ws[k], ws[k]), [1.0])
                lengths[k] = len(tape)
                backward(loss)
            except Exception as exc:  # re-raised on the main thread below
                errors.append(exc)

        threads = [threading.Thread(target=train_one, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads) and not errors
        assert lengths == [2, 2]
        assert [w.grad[0] for w in ws] == [4.0, 6.0]

    def test_gradients_accumulate_across_backward(self):
        w = param(np.array([3.0]), "w")
        for _ in range(2):
            tape = Tape()
            with tape:
                loss = weighted_sum(mul(w, w), [1.0])
            backward(loss)
        assert w.grad[0] == pytest.approx(12.0)  # 2 * (2w)


def _composite_loss(ps, weights):
    """Touches every primitive at least once; deterministic in the params."""
    m, v = ps
    x = concat([rows(m, [0, 2, 0]), mul(rows(m, [1, 1, 2]), v)])
    hidden = dropout(x, 0.25, np.random.default_rng(5))  # a fresh rng: the same mask every call
    return weighted_sum(rows(mul(hidden, hidden), [2, 0, 2, 1]), weights)


class TestFiniteDifferences:
    def test_composite_matches_central_differences(self, rng):
        ps = [
            param(rng.normal(size=(3, 4)) * 0.6, "m"),
            param(rng.normal(size=(3, 4)) * 0.8, "v"),
        ]
        weights = rng.normal(size=(4, 8))
        assert_grads_match(lambda: _composite_loss(ps, weights), ps)

    @pytest.mark.parametrize(
        "build",
        [
            lambda a, b: weighted_sum(mul(a, b), [0.5, -1.0, 2.0]),
            lambda a, b: weighted_sum(concat([a, b]), [0.0, 0.0, 0.0, 0.0, 1.0, 0.0]),
        ],
        ids=["mul", "concat"],
    )
    def test_each_primitive(self, build, rng):
        a = param(rng.normal(size=3), "a")
        b = param(rng.normal(size=3), "b")
        assert_grads_match(lambda: build(a, b), [a, b])

    def test_matrix_primitives(self, rng):
        m = param(rng.normal(size=(3, 4)), "m")
        c = param(rng.normal(size=(3, 2)), "c")
        weights = rng.normal(size=(3, 6))

        def loss():
            h = dropout(concat([rows(m, [1, 1, 0]), c]), 0.5, np.random.default_rng(3))
            return weighted_sum(rows(mul(h, h), [2, 0, 2]), weights)

        assert_grads_match(loss, [m, c])


class TestGradientMemory:
    def test_a_lookup_step_holds_only_the_rows_it_looked_up(self, rng):
        # 40 MB of parameter; its gradient and update stay within the 20 rows looked up
        status = Path("/proc/self/status")

        def rss_kb():
            line = next(l for l in status.read_text().splitlines() if l.startswith("VmRSS:"))
            return int(line.split()[1])

        data = np.ones((100_000, 50))
        ids = rng.integers(0, len(data), size=20)
        tracemalloc.start()
        try:
            before = rss_kb() if status.is_file() else 0
            table = param(data, "table")
            grown_mb = (rss_kb() - before) / 1024 if status.is_file() else 0.0
            tape = Tape()
            with tape:
                loss = weighted_sum(rows(table, ids), np.ones((len(ids), 50)))
            backward(loss)
            sgd_step([table], 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grown_mb < 5.0, f"creating the parameter added {grown_mb:.1f} MB resident"
        assert peak < 2_000_000, f"a 20-row step traced a {peak / 1e6:.1f} MB peak"
        assert np.count_nonzero((data != 1.0).any(axis=1)) == len(set(ids.tolist()))
        assert table.grad is None and table.grad_rows == []


class TestDeterminism:
    def test_same_seed_bit_identical_loss(self):
        def run():
            r = np.random.default_rng(7)
            w = param(r.normal(size=(3, 3)), "w")
            tape = Tape()
            with tape:
                hidden = dropout(rows(w, [2, 0]), 0.5, r)
                loss = weighted_sum(mul(hidden, hidden), np.ones((2, 3)))
            return loss.item()

        assert run() == run()


def write_grad(p, value):
    """A dense gradient write, as every backward but rows() makes: it ends the row record."""
    _acc(p, np.full(p.shape, value))


class TestSgd:
    def test_basic_arithmetic(self):
        p = param(np.array([1.0]), "p")
        write_grad(p, 2.0)
        sgd_step([p], 0.01)
        assert p.data[0] == pytest.approx(0.98)
        assert p.grad[0] == 0.0

    def test_zero_grad_no_change(self):
        p = param(np.array([1.5]), "p")
        sgd_step([p], 0.5)
        assert p.data[0] == 1.5

    def test_two_steps_equal_summed_deltas(self):
        # linearity of the update for fixed gradients
        p1 = param(np.array([2.0]), "p1")
        p2 = param(np.array([2.0]), "p2")
        for _ in range(2):
            write_grad(p1, 3.0)
            sgd_step([p1], 0.1)
        write_grad(p2, 2 * 3.0)
        sgd_step([p2], 0.1)
        assert p1.data[0] == pytest.approx(p2.data[0])

    def test_non_finite_gradient_names_tensor(self):
        p = param(np.array([1.0]), "bad_tensor")
        write_grad(p, np.nan)
        with pytest.raises(NumericError, match="bad_tensor"):
            sgd_step([p], 0.1)

    def test_non_finite_gradient_changes_no_parameter(self):
        good = param(np.array([1.0, 2.0]), "good")
        bad = param(np.array([3.0]), "bad")
        write_grad(good, 0.5)
        write_grad(bad, np.nan)
        with pytest.raises(NumericError, match="bad"):
            sgd_step([good, bad], 0.1)
        np.testing.assert_array_equal(good.data, [1.0, 2.0])
        np.testing.assert_array_equal(good.grad, [0.5, 0.5])

    def test_an_update_that_overflows_names_the_tensor_and_changes_nothing(self):
        # a float32 step of 1e39 * grad used to write infinities into the tensor
        good = param(np.array([1.0, 2.0]), "good")  # float64, which holds the step
        big = param(np.array([3.0], np.float32), "big_step")
        write_grad(good, 0.5)
        write_grad(big, 1.0)
        with pytest.raises(NumericError, match="non-finite update in tensor big_step"):
            sgd_step([good, big], 1e39)
        np.testing.assert_array_equal(good.data, [1.0, 2.0])
        np.testing.assert_array_equal(big.data, [3.0])
        np.testing.assert_array_equal(big.grad, [1.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_an_update_has_the_bits_of_the_in_place_subtraction(self, rng, dtype):
        p = param(rng.normal(size=(4, 3)).astype(dtype), "p")
        write_grad(p, 0.0)
        p.grad[...] = rng.normal(size=(4, 3))
        expect = p.data.copy()
        expect -= 0.37 * p.grad
        sgd_step([p], 0.37)
        assert p.data.tobytes() == expect.tobytes()

    def test_bad_learning_rate(self):
        with pytest.raises(ConfigError):
            sgd_step([param(np.zeros(1), "p")], 0.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_changes_nothing(self, lr):
        p = param(np.array([1.0, 2.0]), "p")
        write_grad(p, 0.5)
        with pytest.raises(ConfigError, match="learning rate"):
            sgd_step([p], lr)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])
        np.testing.assert_array_equal(p.grad, [0.5, 0.5])


def _table_step(ids, rng, lr=0.3):
    """Look up ``ids`` in a fresh 12-row table and backprop; return the table and
    the dense update ``data - lr * grad``."""
    table = param(rng.normal(size=(12, 3)), "table")
    tape = Tape()
    with tape:
        looked = rows(table, ids)
        loss = weighted_sum(mul(looked, looked), rng.normal(size=(len(ids), 3)))
    backward(loss)
    return table, table.data - lr * dense_grad(table)


def write_op(t: Tensor, g) -> Tensor:
    """A recorded scalar whose backward adds g into t densely, whatever gradient it gets."""

    def bwd(_):
        _acc(t, g)

    return _out(np.asarray(0.0, t.data.dtype), bwd)


def feed(pairs) -> Tensor:
    """A recorded scalar loss whose backward writes each (tensor, gradient) pair, in turn."""

    def bwd(_):
        for t, g in pairs:
            _acc(t, g)

    return _out(np.asarray(0.0), bwd)


def dense_reference(writes, like):
    """The dense accumulation every row record replaces: np.add.at into zeros.

    ``writes`` are in replay order: ``(ids, g)`` for a lookup, ``(None, g)``
    for any other write."""
    grad = np.zeros_like(like)
    for ids, g in writes:
        if ids is None:
            grad += g
        else:
            np.add.at(grad, np.asarray(ids)[::-1], g[::-1])
    return grad


# one step: its lookups' ids, and whether a dense write replays before or after them
_step_spec = st.tuples(
    st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=8), min_size=1, max_size=4),
    st.booleans(),
    st.booleans(),
)


class TestRowSparseSgd:
    def test_repeated_rows_equal_dense_formula(self, rng):
        ids = [3, 1, 3, 7, 3]
        table, dense = _table_step(ids, rng)
        before = table.data.copy()
        assert table.grad is None and [r.tolist() for r, _ in table.grad_rows] == [ids]
        sgd_step([table], 0.3)
        assert table.data.tobytes() == dense.tobytes()
        untouched = [i for i in range(12) if i not in ids]
        assert table.data[untouched].tobytes() == before[untouched].tobytes()
        assert table.grad is None and table.grad_rows == []

    def test_repeated_rows_add_in_reverse_lookup_order(self, rng):
        # one lookup per row would replay last lookup first; the sums add in that order
        table = param(rng.normal(size=(8, 3)), "table")
        writes = []
        for ids in ([3, 5, 3], [3, 1, 3, 7, 3, 3]):  # an earlier step's lookup, then this one's
            g = rng.normal(size=(len(ids), 3)) * 10.0 ** rng.integers(-8, 8, size=(len(ids), 1))
            tape = Tape()
            with tape:
                loss = weighted_sum(rows(table, ids), g)
            backward(loss)
            writes.append((ids, g))
        assert dense_grad(table).tobytes() == dense_reference(writes, table.data).tobytes()
        assert [r.tolist() for r, _ in table.grad_rows] == [ids for ids, _ in writes]

    @given(st.sampled_from([np.float32, np.float64]), st.lists(_step_spec, min_size=1, max_size=3),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_update_has_the_bits_of_the_dense_accumulation(self, dtype, steps, seed):
        # gradients from 1e-8 to 1e8, so any other order of addition shows in the bits
        rng = np.random.default_rng(seed)

        def scaled(n):
            return (rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-8, 8, size=(n, 1))).astype(dtype)

        table = param(rng.normal(size=(6, 3)).astype(dtype), "table")
        dense_seen = False  # a dense write allocates the buffer, which is then kept
        for lookups, dense_before, dense_after in steps:
            dense_seen |= dense_before or dense_after
            grads = [scaled(len(ids)) for ids in lookups]
            before, after = scaled(6), scaled(6)
            tape = Tape()
            with tape:
                late = write_op(table, after)  # recorded first, so replayed after the lookups
                looked = [rows(table, ids) for ids in lookups]
                early = write_op(table, before)
                pairs = [(early, 1.0)] * dense_before + list(zip(looked, grads)) + [(late, 1.0)] * dense_after
                loss = feed(pairs)
            backward(loss)
            writes = [(None, before)] * dense_before + list(zip(lookups, grads))[::-1] + [(None, after)] * dense_after
            grad = dense_reference(writes, table.data)
            assert dense_grad(table).tobytes() == grad.tobytes()
            expect = table.data - 0.37 * grad
            sgd_step([table], 0.37)
            assert table.data.dtype == dtype and table.data.tobytes() == expect.tobytes()
            assert table.grad_rows == [] and (table.grad is None) == (not dense_seen)
            assert table.grad is None or not table.grad.any()

    def test_nan_in_looked_up_row_changes_nothing(self, rng):
        w = param(rng.normal(size=(1, 3)), "w")
        table = param(rng.normal(size=(6, 3)), "table")
        table.data[4, 1] = np.nan
        tape = Tape()
        with tape:
            looked = rows(table, [4])
            loss = weighted_sum(concat([mul(w, w), mul(looked, looked)]), np.ones((1, 6)))
        backward(loss)
        assert [r.tolist() for r, _ in table.grad_rows] == [[4]] and np.isfinite(w.grad).all()
        saved = [(p.data.copy(), dense_grad(p)) for p in (w, table)]
        with pytest.raises(NumericError, match="table"):
            sgd_step([w, table], 0.1)
        for p, (data, grad) in zip((w, table), saved):
            assert p.data.tobytes() == data.tobytes()
            assert dense_grad(p).tobytes() == grad.tobytes()
        assert table.grad is None and len(table.grad_rows) == 1

    def test_empty_row_record_touches_nothing(self, rng):
        # [] records that no row was looked up: the update and the reset skip the table
        table = param(rng.normal(size=(5, 3)), "table")
        table.data.flags.writeable = False
        tape = Tape()
        with tape:
            loss = weighted_sum(rows(table, []), np.ones((0, 3)))  # a lookup of no ids records nothing
        backward(loss)
        sgd_step([table], 0.5)
        zero_grads([table])
        assert table.grad is None and table.grad_rows == []

    def test_zero_grads_drops_the_row_record(self, rng):
        table, _ = _table_step([2, 2, 5], rng)
        zero_grads([table])
        assert table.grad is None and table.grad_rows == []
        np.testing.assert_array_equal(dense_grad(table), np.zeros((12, 3)))

    def test_other_write_makes_update_dense(self, rng):
        table = param(rng.normal(size=(5, 3)), "table")
        tape = Tape()
        with tape:
            row = rows(concat([table]), [3])  # concat writes the whole gradient back
            picks = np.array([[1.0, 1.0, 1.0, 0.0, 1.0, 0.0]])  # row 0 and table[3, 1]
            loss = weighted_sum(concat([rows(table, [0]), row]), picks)
        backward(loss)
        assert table.grad_rows is None  # concat wrote into the gradient too
        dense = table.data - 0.5 * table.grad
        picked = table.data[3, 1]
        sgd_step([table], 0.5)
        assert table.data.tobytes() == dense.tobytes()
        assert table.data[3, 1] == picked - 0.5 and not table.grad.any()


class TestDropout:
    def test_p_zero_all_ones(self, rng):
        # p = 0 or no rng: x itself, nothing recorded and no draw from the rng
        x = param(np.ones(5), "x")
        state = rng.bit_generator.state
        tape = Tape()
        with tape:
            assert dropout(x, 0.0, rng) is x and dropout(x, 0.5, None) is x
        assert len(tape) == 0 and rng.bit_generator.state == state

    def test_inverted_scaling_mean_near_one(self, rng):
        # law of large numbers: inverted dropout has expectation 1
        out = dropout(const(np.ones(1_000_000)), 0.5, rng).data
        assert 0.99 <= out.mean() <= 1.01
        assert set(np.unique(out)) == {0.0, 2.0}

    def test_p_one_rejected(self, rng):
        with pytest.raises(ConfigError):
            dropout(const(np.ones(3)), 1.0, rng)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_one_draw_of_the_input_shape(self, dtype):
        # the mask is (rng.random(shape) >= p) / (1 - p) in x's dtype, drawn in one call
        x = np.random.default_rng(1).normal(size=(4, 5)).astype(dtype)
        out = dropout(const(x), 0.3, np.random.default_rng(9)).data
        keep = (np.random.default_rng(9).random((4, 5)) >= 0.3).astype(dtype)
        assert out.dtype == dtype and out.tobytes() == (x * (keep / (1.0 - 0.3))).tobytes()

    def test_gradient_matches_finite_differences(self, rng):
        x = param(rng.normal(size=(4, 5)), "x")
        weights = rng.normal(size=(4, 5))
        mask = dropout(const(np.ones((4, 5))), 0.4, np.random.default_rng(4)).data
        assert {0.0, 1 / 0.6} == set(np.unique(mask))  # some entries dropped, some kept
        assert_grads_match(lambda: weighted_sum(dropout(x, 0.4, np.random.default_rng(4)), weights), [x])
