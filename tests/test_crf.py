"""CRF: path scores, partition, Viterbi vs explicit 4^m enumeration."""

import itertools
import math

import numpy as np
import pytest

from gradcheck import assert_grads_match
from latseg.crf import (
    MASK_VALUE,
    N_LABELS,
    START,
    STOP,
    CrfParams,
    log_partition,
    nll_loss,
    score_path,
    viterbi,
)
from latseg.data import LABELS
from latseg.errors import ShapeError, UsageError
from latseg.tensor import LOGSPACE_TOL, Tape, backward, const, param


def make_params(rng, hidden2=6, scale=1.0):
    p = CrfParams(
        emit_w=param(rng.normal(size=(4, hidden2)) * scale, "crf_emit_w"),
        emit_b=param(rng.normal(size=4) * scale, "crf_emit_b"),
        transitions=param(rng.normal(size=(6, 6)) * scale, "crf_transitions"),
    )
    return p


def zero_params(hidden2=6):
    return CrfParams(
        emit_w=param(np.zeros((4, hidden2)), "crf_emit_w"),
        emit_b=param(np.zeros(4), "crf_emit_b"),
        transitions=param(np.zeros((6, 6)), "crf_transitions"),
    )


def make_hidden(rng, m, hidden2=6, scale=1.0):
    return param(rng.normal(size=(m, hidden2)) * scale, "h")


# -- independent oracles: explicit summation over all 4^m paths -------------

def oracle_emissions(hs, p):
    return np.stack([p.emit_w.data @ h + p.emit_b.data for h in hs.data])


def oracle_trans(p):
    trans = p.transitions.data.copy()
    trans[:, START] += MASK_VALUE
    trans[STOP, :] += MASK_VALUE
    return trans


def oracle_path_score(emit, trans, path):
    score = trans[START, path[0]] + emit[0, path[0]]
    for i in range(1, len(path)):
        score += trans[path[i - 1], path[i]] + emit[i, path[i]]
    return score + trans[path[-1], STOP]


def oracle_all_paths(emit, trans):
    m = emit.shape[0]
    return {
        path: oracle_path_score(emit, trans, path)
        for path in itertools.product(range(N_LABELS), repeat=m)
    }


def oracle_log_partition(emit, trans):
    scores = np.array(list(oracle_all_paths(emit, trans).values()))
    mx = scores.max()
    return mx + math.log(np.exp(scores - mx).sum())


class TestScorePath:
    def test_length_one_zero_params(self):
        hs = const(np.zeros((1, 6)))
        assert score_path(hs, ["B"], zero_params()).item() == 0.0

    def test_length_two_expansion(self, rng):
        p = make_params(rng)
        hs = make_hidden(rng, 2)
        emit = oracle_emissions(hs, p)
        trans = oracle_trans(p)
        labels = ["B", "E"]
        expect = (
            emit[0, 0] + emit[1, 2]
            + trans[START, 0] + trans[0, 2] + trans[2, STOP]
        )
        assert score_path(hs, labels, p).item() == pytest.approx(expect, abs=1e-12)

    def test_random_instance_term_by_term(self, rng):
        for _ in range(10):
            m = int(rng.integers(1, 7))
            p = make_params(rng)
            hs = make_hidden(rng, m)
            path = tuple(int(x) for x in rng.integers(0, 4, size=m))
            expect = oracle_path_score(oracle_emissions(hs, p), oracle_trans(p), path)
            got = score_path(hs, [LABELS[i] for i in path], p).item()
            assert got == pytest.approx(expect, abs=1e-9)

    def test_length_mismatch(self, rng):
        with pytest.raises(ShapeError):
            score_path(make_hidden(rng, 2), ["B"], make_params(rng))


class TestLogPartition:
    def test_length_one_zero_params(self):
        hs = const(np.zeros((1, 6)))
        assert log_partition(hs, zero_params()).item() == pytest.approx(math.log(4), abs=1e-12)

    def test_matches_enumeration(self, rng):
        for _ in range(15):
            m = int(rng.integers(1, 7))
            p = make_params(rng)
            hs = make_hidden(rng, m)
            expect = oracle_log_partition(oracle_emissions(hs, p), oracle_trans(p))
            assert abs(log_partition(hs, p).item() - expect) < LOGSPACE_TOL

    def test_emission_shift_adds_m_kappa(self, rng):
        p = make_params(rng)
        hs = make_hidden(rng, 4)
        base = log_partition(hs, p).item()
        kappa = 0.731
        p.emit_b.data += kappa
        assert log_partition(hs, p).item() == pytest.approx(base + 4 * kappa, abs=1e-9)

    def test_normalization_sums_to_one(self, rng):
        for m in (1, 3, 6):
            p = make_params(rng)
            hs = make_hidden(rng, m)
            logz = log_partition(hs, p).item()
            scores = oracle_all_paths(oracle_emissions(hs, p), oracle_trans(p))
            total = sum(math.exp(s - logz) for s in scores.values())
            assert abs(total - 1.0) <= 1e-9


class TestNllLoss:
    def test_non_negative(self, rng):
        for _ in range(10):
            m = int(rng.integers(1, 7))
            p = make_params(rng)
            hs = make_hidden(rng, m)
            labels = [LABELS[int(x)] for x in rng.integers(0, 4, size=m)]
            assert nll_loss(hs, labels, p).item() >= 0.0

    def test_uniform_distribution_log4(self):
        hs = const(np.zeros((1, 6)))
        for lab in LABELS:
            assert nll_loss(hs, [lab], zero_params()).item() == pytest.approx(
                math.log(4), abs=1e-12
            )

    def test_gradient_matches_finite_differences(self, rng):
        # the objective op computes the emissions, so this checks emit_w, emit_b and hs too
        p = make_params(rng, scale=0.5)
        for labels in (["S"], ["B", "M", "E", "S"]):
            hs = make_hidden(rng, len(labels), scale=0.5)
            assert_grads_match(
                lambda: nll_loss(hs, labels, p),
                p.tensors() + [hs],
            )


class TestViterbi:
    def test_zero_params_all_b(self):
        hs = const(np.zeros((5, 6)))
        path = viterbi(hs, zero_params())
        assert path.labels == ("B",) * 5

    def test_matches_brute_force_score(self, rng):
        for _ in range(15):
            m = int(rng.integers(1, 7))
            p = make_params(rng)
            hs = make_hidden(rng, m)
            best = max(oracle_all_paths(oracle_emissions(hs, p), oracle_trans(p)).values())
            assert abs(viterbi(hs, p).score - best) < LOGSPACE_TOL

    def test_score_is_score_path_of_labels(self, rng):
        p = make_params(rng)
        hs = make_hidden(rng, 5)
        path = viterbi(hs, p)
        assert path.score == pytest.approx(score_path(hs, path.labels, p).item(), abs=1e-9)

    def test_beats_random_paths(self, rng):
        p = make_params(rng)
        hs = make_hidden(rng, 6)
        best = viterbi(hs, p).score
        for _ in range(1000):
            labels = [LABELS[int(x)] for x in rng.integers(0, 4, size=6)]
            assert best >= score_path(hs, labels, p).item() - 1e-12


class TestMask:
    def test_forbidden_transitions_effectively_minus_inf(self, rng):
        p = make_params(rng)
        masked = p.masked_transitions()
        assert np.all(masked[:, START] <= MASK_VALUE / 2)
        assert np.all(masked[STOP, :] <= MASK_VALUE / 2)
        assert np.all(np.exp(masked[:, START]) == 0.0)


def oracle_marginals(emit, trans):
    """Label and transition marginals by explicit summation over all 4^m paths."""
    m = emit.shape[0]
    scores = oracle_all_paths(emit, trans)
    logz = oracle_log_partition(emit, trans)
    labels = np.zeros((m, N_LABELS))
    pairs = np.zeros((6, 6))
    for path, score in scores.items():
        w = math.exp(score - logz)
        labels[np.arange(m), list(path)] += w
        for a, b in zip((START, *path), (*path, STOP)):
            pairs[a, b] += w
    return labels, pairs


class TestObjectiveOp:
    """One recorded op per path score, log-partition or loss, with a hand-written backward."""

    def _identity_case(self, rng, m):
        # emit_w = I and emit_b = 0, so the gradient wrt each h_i is the
        # gradient wrt that position's emissions
        p = CrfParams(
            emit_w=param(np.eye(4), "crf_emit_w"),
            emit_b=param(np.zeros(4), "crf_emit_b"),
            transitions=param(rng.normal(size=(6, 6)), "crf_transitions"),
        )
        return p, make_hidden(rng, m, hidden2=4)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_partition_gradient_is_marginals(self, rng, m):
        p, hs = self._identity_case(rng, m)
        tape = Tape()
        with tape:
            logz = log_partition(hs, p)
        assert len(tape) == 1  # the op, which computes the emissions itself
        backward(logz)
        labels, pairs = oracle_marginals(oracle_emissions(hs, p), oracle_trans(p))
        np.testing.assert_allclose(hs.grad, labels, atol=1e-12)
        np.testing.assert_allclose(p.transitions.grad, pairs, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 4])
    def test_loss_gradient_is_marginals_minus_gold(self, rng, m):
        p, hs = self._identity_case(rng, m)
        gold = [int(x) for x in rng.integers(0, 4, size=m)]
        tape = Tape()
        with tape:
            loss = nll_loss(hs, [LABELS[i] for i in gold], p)
        backward(loss)
        labels, pairs = oracle_marginals(oracle_emissions(hs, p), oracle_trans(p))
        labels[np.arange(m), gold] -= 1.0
        for a, b in zip((START, *gold), (*gold, STOP)):
            pairs[a, b] -= 1.0
        np.testing.assert_allclose(hs.grad, labels, atol=1e-12)
        np.testing.assert_allclose(p.transitions.grad, pairs, atol=1e-12)

    def test_path_score_gradient_is_gold_indicators(self, rng):
        p, hs = self._identity_case(rng, 3)
        tape = Tape()
        with tape:
            score = score_path(hs, ["B", "E", "S"], p)
        backward(score)
        np.testing.assert_array_equal(hs.grad, np.eye(4)[[0, 2, 3]])
        expect = np.zeros((6, 6))
        expect[START, 0] = expect[0, 2] = expect[2, 3] = expect[3, STOP] = 1.0
        np.testing.assert_array_equal(p.transitions.grad, expect)

    def test_one_length_check_for_every_entry(self, rng):
        p = make_params(rng)
        for call in (lambda: nll_loss(make_hidden(rng, 3), ["B", "E"], p),
                     lambda: score_path(make_hidden(rng, 1), ["B", "E"], p)):
            with pytest.raises(ShapeError, match="3 hidden states but 2 labels|1 hidden states but 2 labels"):
                call()
        empty = make_hidden(rng, 0)
        for call in (lambda: nll_loss(empty, [], p), lambda: log_partition(empty, p),
                     lambda: score_path(empty, [], p), lambda: viterbi(empty, p)):
            with pytest.raises(UsageError, match="empty"):
                call()
