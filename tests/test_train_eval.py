"""Trainer/evaluator: metrics, schedules, determinism, coverage."""

import threading

import numpy as np
import pytest

from latseg import synth
from latseg import train as train_module
from latseg.data import EmbeddingTable, Vocab, build_vocabs, to_bmes, word_set
from latseg.errors import ConfigError, DataError, NumericError, UsageError
from latseg.model import SegmenterModel, prepare_lexicon
from latseg.tensor import Tape
from latseg.train import (
    CoverageReport,
    TrainConfig,
    coverage_report,
    error_reduction,
    evaluate_f1,
    length_bucket_f1,
    train,
)


def tiny_model(sentences, rng, mode="baseline", lexicon=(), hidden=6, dim=4, **kw):
    uni, bi = build_vocabs([s.chars for s in sentences])
    ut = EmbeddingTable.random(uni, dim, rng, name="unigram_embeddings")
    bt = EmbeddingTable.random(bi, dim, rng, name="bigram_embeddings")
    trie = table = None
    if mode != "baseline":
        trie, lvocab = prepare_lexicon(lexicon)
        table = EmbeddingTable.random(lvocab, dim, rng, name="lexicon_embeddings")
    return SegmenterModel.create(
        mode, ut, bt, hidden, rng, lexicon_table=table, trie=trie, **kw
    )


def tiny_corpus():
    words = ["中国", "人", "学院", "人民", "山", "中学"]
    sents = [
        ["中国", "人"],
        ["人民", "学院"],
        ["山", "中学"],
        ["中国", "人民"],
        ["学院", "人"],
        ["山", "人", "中国"],
    ]
    return [to_bmes(ws) for ws in sents]


class TestEvaluateF1:
    def test_hand_derived_case(self):
        # gold 中国/人 vs predicted 中/国/人: one matching span out of 3
        # predicted and 2 gold: P=1/3, R=1/2, F1=0.4
        gold = [to_bmes(["中国", "人"])]
        pred = [("S", "S", "S")]
        r = evaluate_f1(gold, pred)
        assert r.precision == pytest.approx(1 / 3)
        assert r.recall == pytest.approx(1 / 2)
        assert r.f1 == pytest.approx(0.4)

    def test_perfect_prediction(self):
        gold = [to_bmes(["中国", "人"]), to_bmes(["学院"])]
        pred = [s.labels for s in gold]
        r = evaluate_f1(gold, pred)
        assert (r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0)

    def test_iv_oov_split(self):
        gold = [to_bmes(["中国", "人"])]
        pred = [("B", "E", "S")]
        r = evaluate_f1(gold, pred, training_words={"中国"})
        assert r.n_iv == 1 and r.n_oov == 1
        assert r.r_iv == 1.0 and r.r_oov == 1.0
        r2 = evaluate_f1(gold, [("S", "S", "S")], training_words={"中国"})
        assert r2.r_iv == 0.0 and r2.r_oov == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            evaluate_f1([to_bmes(["中国"])], [("S",)])

    def test_all_wrong_zero(self):
        gold = [to_bmes(["中国"])]
        r = evaluate_f1(gold, [("S", "S")])
        assert r.f1 == 0.0


class TestErrorReduction:
    def test_table_pair(self):
        # worked example: moving F1 from 95.78 to 96.27 removes 11.6% of the residual error
        er = error_reduction(0.9627, 0.9578) * 100
        assert er == pytest.approx(11.6, abs=0.05)

    def test_sign_conventions(self):
        assert error_reduction(0.90, 0.95) < 0
        assert error_reduction(0.95, 0.95) == 0.0
        assert error_reduction(1.0, 1.0) == 0.0


class TestLengthBuckets:
    def test_single_bucket_equals_overall(self):
        gold = [to_bmes(["中国", "人"]), to_bmes(["学院"])]
        pred = [("S", "S", "S"), ("B", "E")]
        overall = evaluate_f1(gold, pred).f1
        buckets = length_bucket_f1(gold, pred, bucket_width=100)
        assert buckets == {(1, 100): pytest.approx(overall)}

    def test_buckets_partition_and_omit_empty(self):
        gold = [to_bmes(["中国"]), to_bmes(["中国", "人民", "学院"])]
        pred = [g.labels for g in gold]
        buckets = length_bucket_f1(gold, pred, bucket_width=2)
        assert set(buckets) == {(1, 2), (5, 6)}
        assert all(v == 1.0 for v in buckets.values())

    def test_counts_additive_across_buckets(self):
        gold = [to_bmes(["中国"]), to_bmes(["中国", "人民", "学院"])]
        pred = [("B", "E"), ("S", "S", "B", "E", "B", "E")]
        r_all = evaluate_f1(gold, pred)
        # recombine from per-sentence counts: tp 1+2, pred 1+4, gold 1+3
        assert r_all.precision == pytest.approx(3 / 5)
        assert r_all.recall == pytest.approx(3 / 4)

    def test_bad_width(self):
        with pytest.raises(ConfigError):
            length_bucket_f1([], [], 0)


class TestCoverage:
    def test_empty_lexicon(self):
        assert coverage_report(tiny_corpus(), set()).ratio == 0.0

    def test_full_lexicon(self):
        sents = tiny_corpus()
        assert coverage_report(sents, word_set(sents)).ratio == 1.0

    def test_token_level_counting(self):
        sents = [to_bmes(["中国", "人", "中国"])]
        r = coverage_report(sents, {"中国"})
        assert (r.word_count, r.matched_count) == (3, 2)
        assert r.ratio == pytest.approx(2 / 3)

    def test_large_scale_ratio(self):
        # ratio formula at corpus scale; counts rounded to the nearest 1k
        r = CoverageReport(word_count=641_000, matched_count=573_000)
        assert r.ratio == pytest.approx(573 / 641)
        assert abs(r.ratio * 100 - 89.35) < 0.1


class TestConfig:
    def test_default_hyperparameters(self):
        c = TrainConfig()
        assert c.lr0 == 0.01 and c.lr_decay == 0.05
        assert c.char_dropout == 0.5 and c.lattice_dropout == 0.5
        assert c.hidden == 200
        assert c.unigram_dim == c.bigram_dim == c.lexicon_dim == 50

    def test_decay_schedule(self):
        c = TrainConfig()
        assert c.learning_rate(0) == 0.01
        assert c.learning_rate(1) == pytest.approx(0.01 / 1.05)
        assert c.learning_rate(1) == pytest.approx(0.009524, abs=5e-7)

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(char_dropout=1.0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(lr0=0.0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(hidden=0).validate()

    @pytest.mark.parametrize("lr0", [float("nan"), float("inf")])
    def test_non_finite_lr0_rejected(self, lr0):
        with pytest.raises(ConfigError, match="lr0"):
            TrainConfig(lr0=lr0).validate()


class TestTrainLoop:
    def _run(self, mode="baseline", seed=5, epochs=2):
        sents = tiny_corpus()
        rng = np.random.default_rng(seed)
        lexicon = sorted(w for w in word_set(sents) if len(w) >= 2)
        model = tiny_model(sents, rng, mode=mode, lexicon=lexicon)
        config = TrainConfig(
            mode=mode, epochs=epochs, seed=seed, hidden=6,
            unigram_dim=4, bigram_dim=4, lexicon_dim=4,
            char_dropout=0.2, lattice_dropout=0.2,
        )
        return train(config, sents, sents, model), model

    @pytest.mark.parametrize("mode", ["baseline", "lattice-word"])
    def test_fixed_seed_identical_trajectory(self, mode):
        r1, _ = self._run(mode=mode)
        r2, _ = self._run(mode=mode)
        assert r1.mean_losses == r2.mean_losses
        assert [r.f1 for r in r1.reports] == [r.f1 for r in r2.reports]

    def test_best_checkpoint_restored(self):
        result, model = self._run(epochs=3)
        best = result.reports[result.best_epoch]
        pred = [model.decode(s.chars).labels for s in tiny_corpus()]
        r = evaluate_f1(tiny_corpus(), pred, word_set(tiny_corpus()))
        assert r.f1 == pytest.approx(best.f1)
        # ties break toward the earlier epoch
        firsts = [i for i, rep in enumerate(result.reports) if rep.f1 == result.best_f1]
        assert result.best_epoch == firsts[0]

    def test_loss_decreases_on_tiny_corpus(self):
        result, _ = self._run(epochs=4)
        assert result.mean_losses[-1] < result.mean_losses[0]

    def test_non_finite_loss_aborts_with_sentence_id(self):
        sents = tiny_corpus()
        rng = np.random.default_rng(0)
        model = tiny_model(sents, rng)
        model.crf.emit_w.data[:] = np.nan
        config = TrainConfig(mode="baseline", epochs=1, hidden=6, unigram_dim=4, bigram_dim=4)
        with pytest.raises(NumericError, match="sentence"):
            train(config, sents, sents, model)

    def test_empty_dataset_rejected(self):
        rng = np.random.default_rng(0)
        model = tiny_model(tiny_corpus(), rng)
        with pytest.raises(DataError):
            train(TrainConfig(epochs=1), [], tiny_corpus(), model)

    def test_stop_f1_halts_early(self):
        sents = tiny_corpus()
        rng = np.random.default_rng(5)
        model = tiny_model(sents, rng)
        config = TrainConfig(
            mode="baseline", epochs=50, seed=5, hidden=6,
            unigram_dim=4, bigram_dim=4, char_dropout=0.0, lattice_dropout=0.0,
            stop_f1=0.5,
        )
        result = train(config, sents, sents, model)
        assert len(result.reports) < 50
        assert result.best_f1 >= 0.5

    def test_one_epoch_takes_no_snapshot(self, monkeypatch):
        calls = []
        real = SegmenterModel.snapshot
        monkeypatch.setattr(SegmenterModel, "snapshot", lambda self: calls.append(1) or real(self))
        self._run(epochs=1)
        assert calls == []

    def test_earlier_best_epoch_restored_exactly(self, monkeypatch):
        scripted = iter([0.5, 0.9, 0.3, 0.2])  # dev F1 per epoch: the best is epoch 1
        real = train_module.evaluate_f1

        def scripted_f1(*args):
            report = real(*args)
            report.f1 = next(scripted)
            return report

        monkeypatch.setattr(train_module, "evaluate_f1", scripted_f1)
        sents = tiny_corpus()
        model = tiny_model(sents, np.random.default_rng(5))
        config = TrainConfig(mode="baseline", epochs=4, seed=5, hidden=6, unigram_dim=4, bigram_dim=4)
        at_epoch_end = []
        result = train(
            config, sents, sents, model,
            log=lambda _: at_epoch_end.append([p.data.copy() for p in model.parameters()]),
        )
        assert result.best_epoch == 1 and len(at_epoch_end) == 4
        assert at_epoch_end[1][0].tobytes() != at_epoch_end[3][0].tobytes()
        for p, best in zip(model.parameters(), at_epoch_end[1]):
            assert p.data.tobytes() == best.tobytes(), p.name


def test_decode_on_another_thread_records_nothing():
    sents = tiny_corpus()
    model = tiny_model(sents, np.random.default_rng(3))
    decoded = []
    tape = Tape()
    with tape:
        worker = threading.Thread(target=lambda: decoded.append(model.decode(sents[0].chars)))
        worker.start()
        worker.join(timeout=30)
    assert not worker.is_alive()
    assert len(decoded) == 1 and len(decoded[0]) == len(sents[0])
    assert len(tape) == 0


def test_desk_lattice_word_records_at_most_five_ops_per_char():
    # the benchmark's training set-up: desk corpus, gold lexicon, no dropout
    vocab = synth.make_vocab(300, seed=101)
    sents = [to_bmes(w) for w in synth.make_corpus(vocab, 60, seed=202)]
    model = tiny_model(
        sents, np.random.default_rng(7), mode="lattice-word",
        lexicon=[w for w in vocab if len(w) >= 2], hidden=32, dim=16,
    )
    rng = np.random.default_rng(7)
    nodes = chars = 0
    for s in sents:
        tape = Tape()
        with tape:
            model.loss(s, mode="train", rng=rng)
        nodes += len(tape)
        chars += len(s)
    assert nodes / chars <= 5.0, f"{nodes / chars:.2f} recorded ops per character"


def test_tape_records_a_fixed_handful_of_ops_per_sentence():
    # whatever the sentence length: two gathers, their concat and the dropout
    # mask for the characters; per direction its op, after a gather and a mask
    # of the match embeddings when anything matches; then concat, emissions, loss
    vocab = synth.make_vocab(60, seed=5)
    sents = [to_bmes(w) for w in synth.make_corpus(vocab, 30, seed=6)]
    model = tiny_model(
        sents, np.random.default_rng(7), mode="lattice-word",
        lexicon=[w for w in vocab if len(w) >= 2][:10], char_dropout=0.3, lattice_dropout=0.3,
    )
    rng = np.random.default_rng(7)
    seen = set()
    for s in sents:
        tape = Tape()
        with tape:
            model.loss(s, mode="train", rng=rng)
        fused = len(model.match(s.chars)) > 0
        assert len(tape) == 4 + 2 * (1 + 2 * fused) + 3
        seen.add((len(s), fused))
    assert len({n for n, _ in seen}) > 5 and {f for _, f in seen} == {False, True}


def test_lexicon_table_out_of_trie_order_is_rejected():
    # the encoder reads trie entry k from lexicon row k + 2, so the rows must follow the trie
    sents = tiny_corpus()
    rng = np.random.default_rng(3)
    uni, bi = build_vocabs([s.chars for s in sents])
    ut = EmbeddingTable.random(uni, 4, rng, name="unigram_embeddings")
    bt = EmbeddingTable.random(bi, 4, rng, name="bigram_embeddings")
    trie, _ = prepare_lexicon(["中国", "人民"])
    swapped = EmbeddingTable.random(Vocab.from_symbols(["人民", "中国"]), 4, rng, name="lexicon_embeddings")
    with pytest.raises(UsageError, match="trie"):
        SegmenterModel.create("lattice-word", ut, bt, 6, rng, lexicon_table=swapped, trie=trie)
