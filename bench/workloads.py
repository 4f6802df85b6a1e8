"""The benchmark's workloads: inputs made from a seed, timed operations, output checks.

Each workload is single-process, single-threaded and closed-loop: the next
operation starts when the previous one has returned. ``setup`` builds
everything the timed part needs and is repeated by the harness so that its
median can be reported; ``measure`` runs operations until its time is up.

An operation is a train step, a segmented line, a save or a load. An
exception or a failed output check marks it failed, and the run goes on.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from latseg import bpe, checkpoint, cli, data, lexicon, synth, train
from latseg.model import SegmenterModel, prepare_lexicon

HIDDEN = 32
DESK_DIM = 16  # every embedding dim of the README's desk.cfg
LR0 = 0.12  # four times desk.cfg's rate, so a short fixed budget reaches a stable F1
CJK_BASE = 0x4E00  # first CJK unified ideograph
# Rates and set-up times are scaled to a host on which host_reference_s takes this long.
REFERENCE_S = 0.04
_REF_W = np.random.default_rng(0).standard_normal((4 * HIDDEN, DESK_DIM + HIDDEN))
_REF_X = np.random.default_rng(1).standard_normal(DESK_DIM)


def host_reference_s() -> float:
    """Seconds a fixed, latseg-free mix of small numpy steps and Python bookkeeping takes.

    It has the instruction mix of the lattice LSTM (one 32-unit cell step
    per iteration, plus dict and tuple churn), so a host that runs latseg
    slower runs this slower too. About 40 ms on the host of bench/README.md.
    """
    start = time.perf_counter()
    h = np.zeros(HIDDEN)
    counts: dict[int, int] = {}
    recent = [None] * 64
    for i in range(3000):
        z = _REF_W @ np.concatenate((_REF_X, h))
        g = 1.0 / (1.0 + np.exp(-z))
        h = np.tanh(g[:HIDDEN]) * g[HIDDEN : 2 * HIDDEN]
        counts[i % 17] = counts.get(i % 17, 0) + i * i % 7
        recent[i % 64] = (h, z)
    return time.perf_counter() - start


@dataclass
class Run:
    """Everything the measured phase did, as operations, timings and checks."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)  # first few messages
    chars: int = 0  # characters trained or segmented
    op_s: list[float] = field(default_factory=list)  # one train step or segmented line
    rates: list[float] = field(default_factory=list)  # chars/s of each train call or batch
    # host_reference_s before the first rate, then after each rate
    reference_s: list[float] = field(default_factory=list)
    save_s: list[float] = field(default_factory=list)
    load_s: list[float] = field(default_factory=list)
    f1: list[float] = field(default_factory=list)
    decoded: int = 0  # label sequences the checks looked at
    repaired: int = 0  # of those, ones with a transition no segmentation has
    tracer: object | None = None  # set on traced runs

    def count_labels(self, labels) -> None:
        self.decoded += 1
        self.repaired += not strict_bmes(labels)

    def checking(self):
        """Context in which spans belong to output checks, not to the workload."""
        return self.tracer.checking() if self.tracer else contextlib.nullcontext()

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        if len(self.failures) < 10:
            self.failures.append(message)

    def did(self, chars: int, seconds: float) -> None:
        """One throughput sample, followed by a timing of the host's current speed."""
        self.chars += chars
        self.rates.append(chars / seconds)
        self.reference_s.append(host_reference_s())

    def scaled_rates(self) -> list[float]:
        """Each sample's chars/s on a host where ``host_reference_s`` takes REFERENCE_S.

        The host's speed during a sample is taken as the mean of the
        reference timings right before and right after it.
        """
        refs = self.reference_s
        return [
            r * (before + after) / 2.0 / REFERENCE_S
            for r, before, after in zip(self.rates, refs, refs[1:])
        ]

    def timed(self, samples: list[float], what: str, fn, *args):
        """One save or load: timed into ``samples``, or counted as failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.fail(1, f"{what}: {exc!r}")
            return None
        samples.append(time.perf_counter() - start)
        return result


# ---------------------------------------------------------------------------
# output checks; each returns a message, or None when the output is correct
# ---------------------------------------------------------------------------

_BMES_NEXT = {"B": "ME", "M": "ME", "E": "BS", "S": "BS"}


def strict_bmes(labels) -> bool:
    """Whether every transition is one a real segmentation can produce.

    The CRF does not forbid the others, and ``data.label_spans`` documents
    how it repairs them, so a sequence that fails this is counted, not failed.
    """
    return (
        labels[0] in "BS"
        and labels[-1] in "ES"
        and all(nxt in _BMES_NEXT[prev] for prev, nxt in zip(labels, labels[1:]))
    )


def labels_problem(chars, labels) -> str | None:
    """One B/M/E/S tag per character, or why not."""
    if len(labels) != len(chars):
        return f"{len(labels)} labels for {len(chars)} characters"
    if not set(labels) <= set("BMES"):
        return f"labels outside BMES: {sorted(set(labels) - set('BMES'))}"
    return None


def line_problem(text: str, labels, words) -> str | None:
    """A segmented line must be labelled per character and give back its input."""
    problem = labels_problem(text, labels)
    if problem:
        return problem
    if "".join(words) != text or not all(words):
        return f"segmentation {' '.join(words)!r} does not spell its input {text!r}"
    return None


def training_problem(result, model, dev, words, run) -> str | None:
    """Finite losses, labelled dev sentences, and a dev F1 that evaluate_f1 reproduces."""
    if not all(np.isfinite(result.mean_losses)):
        return f"non-finite training loss {result.mean_losses}"
    pred = [model.decode(s.chars).labels for s in dev]
    for sentence, labels in zip(dev, pred):
        problem = labels_problem(sentence.chars, labels)
        if problem:
            return f"dev decode: {problem}"
        run.count_labels(labels)
    f1 = train.evaluate_f1(dev, pred, words).f1
    if f1 != result.best_f1:
        return f"reported dev F1 {result.best_f1} but the restored model scores {f1}"
    return None


def segment_line(model: SegmenterModel, text: str):
    """What ``SegmenterModel.segment`` does, keeping the labels for the check."""
    chars = tuple(text)
    labels = model.decode(chars).labels
    return labels, data.from_bmes(chars, labels)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def desk_corpus(seed: int, work_dir: Path, sentences: int, vocab_size: int):
    """The README's synthetic corpus, made by ``latseg synth`` and read back."""
    out = work_dir / "desk"
    argv = ["synth", "--out-dir", str(out), "--sentences", str(sentences),
            "--vocab-size", str(vocab_size), "--seed", str(seed)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"latseg synth exited with {code}")
    return data.read_corpus(out / "train.txt"), data.read_corpus(out / "dev.txt"), out / "lexicon.txt"


def bigvocab_words(seed: int, n_sentences: int, n_words: int, alphabet: int) -> list[list[str]]:
    """Sentences drawn like ``synth.make_corpus``, over a large alphabet.

    ``synth.make_vocab`` and ``synth.make_corpus`` draw one character or one
    sentence per numpy call: 1.7 s at this size against 0.12 s here, with
    every draw vectorised, which would make set-up time mostly generation.
    """
    rng = np.random.default_rng(seed)
    lengths = np.array(sorted(synth.WORD_LENGTH_WEIGHTS))
    probs = np.array([synth.WORD_LENGTH_WEIGHTS[k] for k in lengths], dtype=float)
    word_len = rng.choice(lengths, size=n_words, p=probs / probs.sum())
    codes = rng.integers(CJK_BASE, CJK_BASE + alphabet, size=(n_words, lengths.max()))
    vocab = list(dict.fromkeys("".join(map(chr, codes[i, :k])) for i, k in enumerate(word_len)))
    weights = 1.0 / (np.arange(len(vocab)) + 4.0)
    counts = rng.integers(5, 15, size=n_sentences)
    picks = rng.choice(len(vocab), size=int(counts.sum()), p=weights / weights.sum())
    return [[vocab[i] for i in chunk] for chunk in np.split(picks, np.cumsum(counts)[:-1])]


def build_model(mode, vocab_source, dim, seed, symbols=None) -> SegmenterModel:
    """Random tables over ``vocab_source``'s characters and a fresh model."""
    rng = np.random.default_rng(seed)
    uvocab, bvocab = data.build_vocabs([s.chars for s in vocab_source])
    unigram = data.EmbeddingTable.random(uvocab, dim, rng, name="unigram_embeddings")
    bigram = data.EmbeddingTable.random(bvocab, dim, rng, name="bigram_embeddings")
    trie = lexicon_table = None
    if symbols is not None:
        trie, lvocab = prepare_lexicon(symbols)
        lexicon_table = data.EmbeddingTable.random(lvocab, DESK_DIM, rng, name="lexicon_embeddings")
    return SegmenterModel.create(
        mode, unigram, bigram, HIDDEN, rng, lexicon_table=lexicon_table, trie=trie
    )


def train_config(mode: str, dim: int, epochs: int, seed: int) -> train.TrainConfig:
    return train.TrainConfig(
        mode=mode, hidden=HIDDEN, unigram_dim=dim, bigram_dim=dim, lexicon_dim=DESK_DIM,
        char_dropout=0.0, lattice_dropout=0.0, lr0=LR0, epochs=epochs, seed=seed,
    )


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    config: train.TrainConfig  # one epoch per call
    model: SegmenterModel
    initial: dict  # parameters before training; every budget starts here
    calls: list[list]  # the training slice of each train.train call in a budget
    call_dev: list  # dev slice each call evaluates on
    dev_set: list  # dev slice that scores the model after the budget
    words: set
    ckpt: Path


@contextlib.contextmanager
def step_clock(samples: list[float]):
    """Time each step inside ``train.train`` from outside the package.

    A step builds a ``Tape``, runs the loss and backward, and ends with
    ``sgd_step``; rebinding those two names in ``latseg.train`` brackets it.
    """
    make_tape, sgd_step = train.Tape, train.sgd_step
    started = [0.0]

    def tape():
        started[0] = time.perf_counter()
        return make_tape()

    def step(params, lr):
        sgd_step(params, lr)
        samples.append(time.perf_counter() - started[0])

    train.Tape, train.sgd_step = tape, step
    try:
        yield
    finally:
        train.Tape, train.sgd_step = make_tape, sgd_step


def measure_train(state: TrainState, seconds: float, run: Run) -> None:
    """Run training budgets from the same start until time is up.

    A budget is a few short ``train.train`` calls, each one epoch over its own
    slice with a dev evaluation, as a user waits for it; each call is one
    throughput sample. A finished budget is scored on the dev slice, saved
    and reloaded with probe verification. The first budget always finishes;
    later ones stop when time is up.
    """
    model = state.model
    probe = "".join(state.dev_set[0].chars)
    steps = sum(len(chunk) for chunk in state.calls)
    deadline = time.perf_counter() + seconds
    with step_clock(run.op_s):
        while True:
            model.restore(state.initial)
            for chunk in state.calls:
                if run.f1 and time.perf_counter() >= deadline:
                    return
                run.attempted += len(chunk)
                start = time.perf_counter()
                try:
                    result = train.train(state.config, chunk, state.call_dev, model, state.words)
                except Exception as exc:  # a failed call fails its steps; the run goes on
                    run.fail(len(chunk), f"train: {exc!r}")
                    continue
                run.did(sum(len(s) for s in chunk), time.perf_counter() - start)
                with run.checking():
                    problem = training_problem(result, model, state.call_dev, state.words, run)
                if problem:
                    run.fail(len(chunk), problem)
            with run.checking():
                pred = [model.decode(s.chars).labels for s in state.dev_set]
                problems = [labels_problem(s.chars, p) for s, p in zip(state.dev_set, pred)]
                f1 = train.evaluate_f1(state.dev_set, pred, state.words).f1
            for labels in pred:
                run.count_labels(labels)
            if any(problems):
                run.fail(steps, f"dev decode after the budget: {next(p for p in problems if p)}")
                return
            run.f1.append(f1)
            run.timed(run.save_s, "save", checkpoint.save_checkpoint, model, state.ckpt, probe)
            run.timed(run.load_s, "load", checkpoint.load_checkpoint, state.ckpt)
            if time.perf_counter() >= deadline:
                return


def train_state(mode, model, train_set, dev_set, dim, seed, sizes, work_dir) -> TrainState:
    n = sizes.call_sentences
    return TrainState(
        train_config(mode, dim, 1, seed),
        model,
        model.snapshot(),
        [train_set[i * n : (i + 1) * n] for i in range(sizes.calls)],
        dev_set[: sizes.call_dev],
        dev_set[: sizes.dev_slice],
        data.word_set(train_set),
        work_dir / "ckpt",
    )


@dataclass
class TrainBigVocabBaseline:
    """Baseline mode over a ~108k-row bigram table; dense SGD dominates a step."""

    # Dense updates of 40 MB tables slow less than the host-speed reference
    # does: over eight seeds, scaled rates spread 18 % against 12 % unscaled.
    host_scaled: ClassVar[bool] = False

    sentences: int = 30000
    words: int = 1000
    alphabet: int = 3500
    dim: int = 50
    calls: int = 10
    call_sentences: int = 20
    call_dev: int = 10
    dev_slice: int = 400  # with 100, which words a seed's slice held moved F1 by 12 %

    def setup(self, seed: int, work_dir: Path, run: Run) -> TrainState:
        path = work_dir / "bigvocab.txt"
        synth.write_corpus(path, bigvocab_words(seed, self.sentences, self.words, self.alphabet))
        corpus = data.read_corpus(path)
        model = build_model("baseline", corpus, self.dim, seed)
        train_set = corpus[: self.calls * self.call_sentences]
        dev_set = corpus[-self.dev_slice :]
        return train_state("baseline", model, train_set, dev_set, self.dim, seed, self, work_dir)

    measure = staticmethod(measure_train)


@dataclass
class TrainDeskLatticeWord:
    """Lattice-word mode on the desk corpus with the generator's gold lexicon."""

    host_scaled: ClassVar[bool] = True

    sentences: int = 2000
    vocab_size: int = 300
    calls: int = 5
    call_sentences: int = 40
    call_dev: int = 10
    dev_slice: int = 100

    def setup(self, seed: int, work_dir: Path, run: Run) -> TrainState:
        train_all, dev_all, lexicon_path = desk_corpus(seed, work_dir, self.sentences, self.vocab_size)
        model = build_model(
            "lattice-word", train_all, DESK_DIM, seed, lexicon.read_lexicon(lexicon_path)
        )
        train_set = train_all[: self.calls * self.call_sentences]
        return train_state("lattice-word", model, train_set, dev_all, DESK_DIM, seed, self, work_dir)

    measure = staticmethod(measure_train)


# ---------------------------------------------------------------------------
# segmentation workload
# ---------------------------------------------------------------------------


@dataclass
class SegmentState:
    ckpt: Path
    lines: list[tuple[str, data.LabeledSentence]]  # raw line and its gold segmentation


@dataclass
class SegmentDeskLatticeSubword:
    """Load a lattice-subword checkpoint and segment raw lines, as ``latseg segment`` does."""

    host_scaled: ClassVar[bool] = True

    sentences: int = 2000
    vocab_size: int = 300
    merges: int = 2000
    pretrain_slice: int = 200
    pretrain_dev: int = 20
    lines: int = 400
    max_sentences_per_line: int = 6
    batch: int = 25  # lines per load, like one input file

    def setup(self, seed: int, work_dir: Path, run: Run) -> SegmentState:
        train_all, dev_all, _ = desk_corpus(seed, work_dir, self.sentences, self.vocab_size)
        merges = bpe.learn_bpe(["".join(s.chars) for s in train_all], self.merges)
        symbols = [sym for sym, _ in bpe.extract_lexicon(merges)]
        model = build_model("lattice-subword", train_all, DESK_DIM, seed, symbols)
        config = train_config("lattice-subword", DESK_DIM, 1, seed)
        train.train(config, train_all[: self.pretrain_slice], dev_all[: self.pretrain_dev], model)
        ckpt = work_dir / "ckpt"
        run.timed(run.save_s, "save", checkpoint.save_checkpoint, model, ckpt, "".join(dev_all[0].chars))

        rng = np.random.default_rng(seed)
        lines, k = [], 0
        for _ in range(self.lines):
            n = int(rng.integers(1, self.max_sentences_per_line + 1))
            group = [dev_all[(k + j) % len(dev_all)] for j in range(n)]
            k += n
            gold = data.to_bmes([w for s in group for w in s.words()])
            lines.append(("".join(gold.chars), gold))
        return SegmentState(ckpt, lines)

    def measure(self, state: SegmentState, seconds: float, run: Run) -> None:
        """Load with probe verification, then segment one batch of lines; repeat."""
        predicted: dict[int, tuple] = {}
        deadline = time.perf_counter() + seconds
        next_line = 0
        while time.perf_counter() < deadline:
            batch = [(next_line + j) % len(state.lines) for j in range(self.batch)]
            next_line += self.batch
            model = run.timed(run.load_s, "load", checkpoint.load_checkpoint, state.ckpt)
            if model is None:
                run.attempted += len(batch)
                run.fail(len(batch), "lines not segmented: the checkpoint did not load")
                continue
            busy, chars = run.load_s[-1], 0
            for idx in batch:
                text, _ = state.lines[idx]
                run.attempted += 1
                start = time.perf_counter()
                try:
                    labels, words = segment_line(model, text)
                except Exception as exc:  # a failed line is counted; the run goes on
                    run.fail(1, f"segment: {exc!r}")
                    continue
                took = time.perf_counter() - start
                run.op_s.append(took)
                busy += took
                chars += len(text)
                problem = line_problem(text, labels, words)
                if problem:
                    run.fail(1, problem)
                else:
                    run.count_labels(labels)
                    predicted[idx] = labels
            run.did(chars, busy)
        if predicted:
            gold = [state.lines[i][1] for i in sorted(predicted)]
            with run.checking():
                f1 = train.evaluate_f1(gold, [predicted[i] for i in sorted(predicted)]).f1
            run.f1.append(f1)


WORKLOADS = {
    "train-bigvocab-baseline": TrainBigVocabBaseline,
    "train-desk-lattice-word": TrainDeskLatticeWord,
    "segment-desk-lattice-subword": SegmentDeskLatticeSubword,
}
