"""CRF: the loss's path score and partition terms, and Viterbi, vs explicit 4^m enumeration."""

import itertools
import math

import numpy as np
import pytest

from gradcheck import LOGSPACE_TOL, assert_grads_match
from latseg.crf import (
    MASK_VALUE,
    N_LABELS,
    START,
    STOP,
    CrfParams,
    nll_loss,
    viterbi,
)
from latseg.data import LABELS
from latseg.errors import ShapeError, UsageError
from latseg.tensor import Tape, backward, const, param


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


def nll_of(hs, path, p):
    """The loss of a path given as label indices, as a float."""
    return nll_loss(hs, [LABELS[i] for i in path], p).item()


class TestScorePath:
    """The loss's path-score term: log Z from the enumeration minus the loss."""

    def test_length_one_zero_params(self):
        hs = const(np.zeros((1, 6)))
        p = zero_params()
        logz = oracle_log_partition(oracle_emissions(hs, p), oracle_trans(p))
        for y in range(N_LABELS):
            assert logz - nll_of(hs, (y,), p) == pytest.approx(0.0, abs=1e-12)

    def test_length_two_expansion(self, rng):
        p = make_params(rng)
        hs = make_hidden(rng, 2)
        emit = oracle_emissions(hs, p)
        trans = oracle_trans(p)
        expect = (
            emit[0, 0] + emit[1, 2]
            + trans[START, 0] + trans[0, 2] + trans[2, STOP]
        )
        logz = oracle_log_partition(emit, trans)
        assert logz - nll_of(hs, (0, 2), p) == pytest.approx(expect, abs=LOGSPACE_TOL)

    def test_random_instance_term_by_term(self, rng):
        for _ in range(10):
            m = int(rng.integers(1, 7))
            p = make_params(rng)
            hs = make_hidden(rng, m)
            path = tuple(int(x) for x in rng.integers(0, 4, size=m))
            emit, trans = oracle_emissions(hs, p), oracle_trans(p)
            expect = oracle_path_score(emit, trans, path)
            got = oracle_log_partition(emit, trans) - nll_of(hs, path, p)
            assert got == pytest.approx(expect, abs=LOGSPACE_TOL)

    def test_length_mismatch(self, rng):
        with pytest.raises(ShapeError):
            nll_loss(make_hidden(rng, 2), ["B"], make_params(rng))


class TestLogPartition:
    """The loss's log Z term: the loss plus the enumerated gold path score."""

    def test_length_one_zero_params(self):
        hs = const(np.zeros((1, 6)))
        p = zero_params()
        emit, trans = oracle_emissions(hs, p), oracle_trans(p)
        for y in range(N_LABELS):
            got = nll_of(hs, (y,), p) + oracle_path_score(emit, trans, (y,))
            assert got == pytest.approx(math.log(4), abs=1e-12)

    def test_matches_enumeration(self, rng):
        for _ in range(15):
            m = int(rng.integers(1, 7))
            p = make_params(rng)
            hs = make_hidden(rng, m)
            emit, trans = oracle_emissions(hs, p), oracle_trans(p)
            expect = oracle_log_partition(emit, trans)
            for _ in range(2):
                path = tuple(int(x) for x in rng.integers(0, 4, size=m))
                got = nll_of(hs, path, p) + oracle_path_score(emit, trans, path)
                assert abs(got - expect) < LOGSPACE_TOL

    def test_emission_shift_adds_m_kappa(self, rng):
        # log Z and every path score gain m * kappa, so the loss itself does not move
        p = make_params(rng)
        hs = make_hidden(rng, 4)
        path = (0, 1, 2, 3)
        base_loss = nll_of(hs, path, p)
        base_z = base_loss + oracle_path_score(oracle_emissions(hs, p), oracle_trans(p), path)
        kappa = 0.731
        p.emit_b.data += kappa
        shifted_loss = nll_of(hs, path, p)
        shifted_z = shifted_loss + oracle_path_score(oracle_emissions(hs, p), oracle_trans(p), path)
        assert shifted_z == pytest.approx(base_z + 4 * kappa, abs=1e-9)
        assert shifted_loss == pytest.approx(base_loss, abs=1e-9)

    def test_normalization_sums_to_one(self, rng):
        for m in (1, 3, 6):
            p = make_params(rng)
            hs = make_hidden(rng, m)
            paths = itertools.product(range(N_LABELS), repeat=m)
            total = sum(math.exp(-nll_of(hs, path, p)) for path in paths)
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
        [labels] = viterbi(hs, zero_params(), [5])
        assert labels == "B" * 5

    def test_matches_brute_force_score(self, rng):
        for _ in range(15):
            m = int(rng.integers(1, 7))
            p = make_params(rng)
            hs = make_hidden(rng, m)
            emit, trans = oracle_emissions(hs, p), oracle_trans(p)
            best = max(oracle_all_paths(emit, trans).values())
            decoded = tuple(LABELS.index(lab) for lab in viterbi(hs, p, [m])[0])
            assert abs(oracle_path_score(emit, trans, decoded) - best) < LOGSPACE_TOL

    def test_beats_random_paths(self, rng):
        p = make_params(rng)
        hs = make_hidden(rng, 6)
        emit, trans = oracle_emissions(hs, p), oracle_trans(p)
        decoded = tuple(LABELS.index(lab) for lab in viterbi(hs, p, [6])[0])
        best = oracle_path_score(emit, trans, decoded)
        for _ in range(1000):
            path = tuple(int(x) for x in rng.integers(0, 4, size=6))
            assert best >= oracle_path_score(emit, trans, path) - 1e-12


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
    """One recorded op per loss, with a hand-written backward."""

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
        # the log Z term's share of the loss gradient: put the gold indicators back
        p, hs = self._identity_case(rng, m)
        gold = [int(x) for x in rng.integers(0, 4, size=m)]
        tape = Tape()
        with tape:
            loss = nll_loss(hs, [LABELS[i] for i in gold], p)
        backward(loss)
        hs.grad[np.arange(m), gold] += 1.0
        for a, b in zip((START, *gold), (*gold, STOP)):
            p.transitions.grad[a, b] += 1.0
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
        assert len(tape) == 1  # the op, which computes the emissions itself
        backward(loss)
        labels, pairs = oracle_marginals(oracle_emissions(hs, p), oracle_trans(p))
        labels[np.arange(m), gold] -= 1.0
        for a, b in zip((START, *gold), (*gold, STOP)):
            pairs[a, b] -= 1.0
        np.testing.assert_allclose(hs.grad, labels, atol=1e-12)
        np.testing.assert_allclose(p.transitions.grad, pairs, atol=1e-12)

    def test_one_length_check_for_every_entry(self, rng):
        p = make_params(rng)
        for call in (lambda: nll_loss(make_hidden(rng, 3), ["B", "E"], p),
                     lambda: nll_loss(make_hidden(rng, 1), ["B", "E"], p)):
            with pytest.raises(ShapeError, match="3 hidden states but 2 labels|1 hidden states but 2 labels"):
                call()
        empty = make_hidden(rng, 0)
        for call in (lambda: nll_loss(empty, [], p), lambda: viterbi(empty, p, [0])):
            with pytest.raises(UsageError, match="empty"):
                call()
