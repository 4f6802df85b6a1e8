"""Numeric core: primitive semantics, gradients vs finite differences, SGD."""

import gc
import threading
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import assert_grads_match, weighted_sum
from latseg.encoder import gate_normalize
from latseg.errors import ConfigError, NumericError, ShapeError, UsageError
from latseg.tensor import (
    Tape,
    affine,
    backward,
    concat,
    const,
    dropout_mask,
    logistic,
    mul,
    param,
    rows,
    sgd_step,
)


class TestAffine:
    def test_identity(self):
        out = affine(const([[3.0, 4.0]]), const(np.eye(2)), const(np.zeros(2)))
        np.testing.assert_array_equal(out.data, [[3.0, 4.0]])

    def test_hand_multiplication(self):
        w = const([[1.0, 1.0], [0.0, 2.0]])
        out = affine(const([[1.0, 1.0]]), w, const([1.0, 0.0]))
        np.testing.assert_array_equal(out.data, [[3.0, 2.0]])

    def test_zero_map(self):
        out = affine(const([[7.0, -2.0, 0.5]]), const(np.zeros((1, 3))), const([5.0]))
        np.testing.assert_array_equal(out.data, [[5.0]])

    def test_shape_mismatch_names_operands(self):
        w = param(np.zeros((2, 3)), "weights")
        x = param(np.zeros((1, 4)), "input")
        with pytest.raises(ShapeError, match="weights.*input"):
            affine(x, w, param(np.zeros(2), "bias"))

    def test_vector_input_rejected(self):
        with pytest.raises(ShapeError, match="2-D input"):
            affine(const(np.zeros(3)), const(np.zeros((2, 3))), const(np.zeros(2)))

    def test_matrix_input_maps_rows_bit_for_bit(self, rng):
        w = const(rng.normal(size=(4, 6)))
        b = const(rng.normal(size=4))
        x = rng.normal(size=(5, 6))
        out = affine(const(x), w, b)
        for i in range(5):
            assert out.data[i].tobytes() == (w.data @ x[i] + b.data).tobytes()


class TestActivate:
    def test_sigmoid_zero(self):
        assert logistic(np.array([0.0]))[0] == 0.5

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sigmoid_overflow_is_silent_and_exact(self, dtype):
        # exp(1000) overflows to inf; 1 / (1 + inf) = 0 is the exact limit
        x = np.array([-1000.0, -88.5, 0.0, 1000.0], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = logistic(x)
            assert out[1:].tobytes() == (1.0 / (1.0 + np.exp(-x[1:]))).tobytes()
        assert out.dtype == dtype
        assert out[0] == 0.0 and out[2] == 0.5 and out[3] == 1.0

    # the exp-normalization (softmax) of the lattice fusion is encoder.gate_normalize
    def test_softmax_symmetry(self):
        alpha, rest = gate_normalize(np.array([1.7]), [np.array([1.7])] * 2)
        np.testing.assert_allclose([alpha[0], *(a[0] for a in rest)], [1 / 3] * 3, rtol=0, atol=1e-15)

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_softmax_sums_to_one(self, values):
        alpha, rest = gate_normalize(np.array(values[:1]), [np.array([v]) for v in values[1:]])
        out = np.array([alpha, *rest])
        assert np.all(out > 0)
        assert abs(out.sum() - 1.0) <= 1e-9


class TestBackward:
    def test_affine_weight_gradient_is_outer_product(self):
        # independent oracle: d sum(v * (w @ x)) / dw = outer(v, x)
        w = param(np.zeros((2, 3)), "w")
        tape = Tape()
        with tape:
            loss = weighted_sum(affine(const([[1.0, 2.0, 3.0]]), w, const([0.0, 0.0])), [[0.5, -1.0]])
        backward(loss)
        np.testing.assert_array_equal(w.grad, np.outer([0.5, -1.0], [1.0, 2.0, 3.0]))

    def test_unreachable_param_gets_zero(self):
        w = param(np.ones(3), "w")
        tape = Tape()
        with tape:
            loss = weighted_sum(const([2.0]), [1.0])
        backward(loss)
        np.testing.assert_array_equal(w.grad, np.zeros(3))

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
    w, b, m, v = ps
    x = concat([rows(m, [0, 2, 0]), mul(rows(m, [1, 1, 2]), v)])
    hidden = affine(x, w, b)
    return weighted_sum(rows(mul(hidden, hidden), [2, 0, 2, 1]), weights)


class TestFiniteDifferences:
    def test_composite_matches_central_differences(self, rng):
        ps = [
            param(rng.normal(size=(3, 8)) * 0.7, "w"),
            param(rng.normal(size=3) * 0.5, "b"),
            param(rng.normal(size=(3, 4)) * 0.6, "m"),
            param(rng.normal(size=(3, 4)) * 0.8, "v"),
        ]
        weights = rng.normal(size=(4, 3))
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
        w = param(rng.normal(size=(5, 6)), "w")
        b = param(rng.normal(size=5), "b")
        weights = rng.normal(size=(3, 5))

        def loss():
            h = affine(concat([rows(m, [1, 1, 0]), c]), w, b)
            return weighted_sum(rows(mul(h, h), [2, 0, 2]), weights)

        assert_grads_match(loss, [m, c, w, b])


class TestLazyGradientPages:
    def test_large_parameter_leaves_gradient_pages_unmapped(self):
        status = Path("/proc/self/status")
        if not status.is_file():
            pytest.skip("no /proc/self/status on this platform")

        def rss_kb():
            line = next(l for l in status.read_text().splitlines() if l.startswith("VmRSS:"))
            return int(line.split()[1])

        data = np.ones((100_000, 50))  # 40 MB, resident once written
        before = rss_kb()
        table = param(data, "table")
        grown_mb = (rss_kb() - before) / 1024
        assert table.grad.shape == data.shape and not table.grad[::997].any()
        assert grown_mb < 5.0, f"creating the parameter added {grown_mb:.1f} MB resident"


class TestDeterminism:
    def test_same_seed_bit_identical_loss(self):
        def run():
            r = np.random.default_rng(7)
            w = param(r.normal(size=(3, 3)), "w")
            x = const(r.normal(size=(1, 3)))
            mask = dropout_mask((1, 3), 0.5, "train", r)
            tape = Tape()
            with tape:
                hidden = affine(x, w, const(np.zeros(3)))
                loss = weighted_sum(mul(mul(hidden, hidden), mask), np.ones((1, 3)))
            return loss.item()

        assert run() == run()


class TestSgd:
    def test_basic_arithmetic(self):
        p = param(np.array([1.0]), "p")
        p.grad[:] = 2.0
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
            p1.grad[:] = 3.0
            sgd_step([p1], 0.1)
        p2.grad[:] = 2 * 3.0
        sgd_step([p2], 0.1)
        assert p1.data[0] == pytest.approx(p2.data[0])

    def test_non_finite_gradient_names_tensor(self):
        p = param(np.array([1.0]), "bad_tensor")
        p.grad[:] = np.nan
        with pytest.raises(NumericError, match="bad_tensor"):
            sgd_step([p], 0.1)

    def test_non_finite_gradient_changes_no_parameter(self):
        good = param(np.array([1.0, 2.0]), "good")
        bad = param(np.array([3.0]), "bad")
        good.grad[:] = 0.5
        bad.grad[:] = np.nan
        with pytest.raises(NumericError, match="bad"):
            sgd_step([good, bad], 0.1)
        np.testing.assert_array_equal(good.data, [1.0, 2.0])
        np.testing.assert_array_equal(good.grad, [0.5, 0.5])

    def test_bad_learning_rate(self):
        with pytest.raises(ConfigError):
            sgd_step([param(np.zeros(1), "p")], 0.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_changes_nothing(self, lr):
        p = param(np.array([1.0, 2.0]), "p")
        p.grad[:] = 0.5
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
    return table, table.data - lr * table.grad


class TestRowSparseSgd:
    def test_repeated_rows_equal_dense_formula(self, rng):
        ids = [3, 1, 3, 7, 3]
        table, dense = _table_step(ids, rng)
        before = table.data.copy()
        assert sorted(set(table.grad_rows)) == [1, 3, 7]
        sgd_step([table], 0.3)
        assert table.data.tobytes() == dense.tobytes()
        untouched = [i for i in range(12) if i not in ids]
        assert table.data[untouched].tobytes() == before[untouched].tobytes()
        assert not table.grad.any()
        assert table.grad_rows == []

    def test_repeated_rows_add_in_reverse_lookup_order(self, rng):
        # one lookup per row would replay last lookup first; the gather adds in that order
        ids = [3, 1, 3, 7, 3, 3]
        table = param(rng.normal(size=(8, 3)), "table")
        table.grad[:] = rng.normal(size=(8, 3))  # a gradient left by an earlier lookup
        g = rng.normal(size=(len(ids), 3)) * 10.0 ** rng.integers(-8, 8, size=(len(ids), 1))
        expect = table.grad.copy()
        for i, gi in reversed(list(zip(ids, g))):
            expect[i] += gi
        tape = Tape()
        with tape:
            loss = weighted_sum(rows(table, ids), g)
        backward(loss)
        assert table.grad.tobytes() == expect.tobytes()
        assert sorted(table.grad_rows) == sorted(ids)

    def test_nan_in_looked_up_row_changes_nothing(self, rng):
        w = param(rng.normal(size=(1, 3)), "w")
        table = param(rng.normal(size=(6, 3)), "table")
        table.data[4, 1] = np.nan
        tape = Tape()
        with tape:
            looked = rows(table, [4])
            loss = weighted_sum(concat([mul(w, w), mul(looked, looked)]), np.ones((1, 6)))
        backward(loss)
        assert table.grad_rows == [4] and np.isfinite(w.grad).all()
        saved = [(p.data.copy(), p.grad.copy()) for p in (w, table)]
        with pytest.raises(NumericError, match="table"):
            sgd_step([w, table], 0.1)
        for p, (data, grad) in zip((w, table), saved):
            assert p.data.tobytes() == data.tobytes()
            assert p.grad.tobytes() == grad.tobytes()

    def test_other_write_makes_update_dense(self, rng):
        table = param(rng.normal(size=(5, 3)), "table")
        tape = Tape()
        with tape:
            column = affine(const([[0.0, 1.0, 0.0]]), table, const(np.zeros(5)))  # table[:, 1]
            picks = np.array([[1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0]])  # row 0 and column[3]
            loss = weighted_sum(concat([rows(table, [0]), column]), picks)
        backward(loss)
        assert table.grad_rows is None  # affine wrote into the gradient too
        dense = table.data - 0.5 * table.grad
        picked = table.data[3, 1]
        sgd_step([table], 0.5)
        assert table.data.tobytes() == dense.tobytes()
        assert table.data[3, 1] == picked - 0.5 and not table.grad.any()


class TestDropout:
    def test_p_zero_all_ones(self, rng):
        mask = dropout_mask((5,), 0.0, "train", rng)
        np.testing.assert_array_equal(mask.data, np.ones(5))

    def test_eval_all_ones(self, rng):
        mask = dropout_mask((5,), 0.9, "eval", rng)
        np.testing.assert_array_equal(mask.data, np.ones(5))

    def test_inverted_scaling_mean_near_one(self, rng):
        # law of large numbers: inverted dropout has expectation 1
        mask = dropout_mask((1_000_000,), 0.5, "train", rng)
        assert 0.99 <= mask.data.mean() <= 1.01
        assert set(np.unique(mask.data)) == {0.0, 2.0}

    def test_p_one_rejected(self, rng):
        with pytest.raises(ConfigError):
            dropout_mask((3,), 1.0, "train", rng)

    def test_train_requires_rng(self):
        with pytest.raises(UsageError):
            dropout_mask((3,), 0.5, "train", None)

    def test_bad_mode(self, rng):
        with pytest.raises(ConfigError):
            dropout_mask((3,), 0.5, "predict", rng)
