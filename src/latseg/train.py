"""Training loop, word-level evaluation, and the analysis reports.

Training is per-sentence SGD with a decaying learning rate
lr_t = lr0 / (1 + decay * t). The best checkpoint is chosen by dev F1, with
ties going to the earlier epoch. Everything is driven by one seeded RNG, so
a fixed seed reproduces the run exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from .data import LabeledSentence, label_spans, word_set
from .errors import ConfigError, DataError, NumericError
from .model import MODES, SegmenterModel
from .tensor import Tape, backward, sgd_step


@dataclass
class TrainConfig:
    mode: str = "baseline"  # baseline | lattice-word | lattice-subword
    lr0: float = 0.01
    lr_decay: float = 0.05
    char_dropout: float = 0.5
    lattice_dropout: float = 0.5
    hidden: int = 200
    unigram_dim: int = 50
    bigram_dim: int = 50
    lexicon_dim: int = 50
    epochs: int = 30
    seed: int = 1
    dtype: str = "float64"
    stop_f1: float | None = None  # stop once dev F1 reaches this
    max_word_len: int | None = None

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if self.max_word_len is not None and self.max_word_len < 1:
            raise ConfigError(f"max_word_len must be at least 1, got {self.max_word_len}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.stop_f1 is not None and not 0.0 < self.stop_f1 <= 1.0:
            raise ConfigError(f"stop_f1 must be in (0, 1], got {self.stop_f1}")
        for name in ("lr_decay", "char_dropout", "lattice_dropout"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {v}")
        if not (math.isfinite(self.lr0) and self.lr0 > 0.0):
            raise ConfigError(f"lr0 must be positive and finite, got {self.lr0}")
        for name in ("hidden", "unigram_dim", "bigram_dim", "lexicon_dim", "epochs"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")

    def learning_rate(self, epoch: int) -> float:
        return self.lr0 / (1.0 + self.lr_decay * epoch)


@dataclass
class EvalReport:
    precision: float
    recall: float
    f1: float
    r_iv: float
    r_oov: float
    n_iv: int
    n_oov: int
    epoch: int | None = None
    bucket_f1: dict[tuple[int, int], float] | None = None
    er_percent: float | None = None  # error reduction vs the named baseline
    baseline_name: str | None = None

    def lines(self) -> list[str]:
        out = [
            f"precision={self.precision:.6f}",
            f"recall={self.recall:.6f}",
            f"f1={self.f1:.6f}",
            f"r_iv={self.r_iv:.6f}",
            f"r_oov={self.r_oov:.6f}",
            f"n_iv={self.n_iv}",
            f"n_oov={self.n_oov}",
        ]
        if self.epoch is not None:
            out.insert(0, f"epoch={self.epoch}")
        if self.er_percent is not None:
            out.append(f"er_percent={self.er_percent:.2f}")
            out.append(f"er_baseline={self.baseline_name}")
        if self.bucket_f1:
            for (lo, hi), f1 in sorted(self.bucket_f1.items()):
                out.append(f"bucket_f1[{lo}-{hi}]={f1:.6f}")
        return out


@dataclass
class CoverageReport:
    word_count: int
    matched_count: int

    @property
    def ratio(self) -> float:
        return self.matched_count / self.word_count if self.word_count else 0.0


def _f1(tp: int, n_pred: int, n_gold: int) -> tuple[float, float, float]:
    p = tp / n_pred if n_pred else 0.0
    r = tp / n_gold if n_gold else 0.0
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f


def error_reduction(f1_new: float, f1_base: float) -> float:
    """Fraction of the baseline's residual error removed (negative if worse)."""
    if f1_base >= 1.0:
        return 0.0
    return (f1_new - f1_base) / (1.0 - f1_base)


def evaluate_f1(
    gold: Sequence[LabeledSentence],
    predicted: Sequence[Sequence[str]],
    training_words: set[str] | None = None,
) -> EvalReport:
    """Word-level precision/recall/F1 plus in-/out-of-vocabulary recall.

    Words are (start, end) spans decoded from the label sequences; a
    predicted word is correct iff the same span exists in gold. IV/OOV
    splits gold words by membership in the training word set.
    """
    if len(gold) != len(predicted):
        raise DataError(f"{len(gold)} gold sentences but {len(predicted)} predictions")
    training_words = training_words or set()
    tp = n_gold = n_pred = 0
    iv_tp = iv_n = oov_tp = oov_n = 0
    for sent, pred_labels in zip(gold, predicted):
        if len(pred_labels) != len(sent):
            raise DataError(
                f"prediction length {len(pred_labels)} != sentence length {len(sent)}"
            )
        gold_spans = label_spans(sent.labels)
        pred_spans = set(label_spans(pred_labels))
        n_gold += len(gold_spans)
        n_pred += len(pred_spans)
        for span in gold_spans:
            hit = span in pred_spans
            tp += hit
            word = "".join(sent.chars[span[0] - 1 : span[1]])
            if word in training_words:
                iv_n += 1
                iv_tp += hit
            else:
                oov_n += 1
                oov_tp += hit
    p, r, f = _f1(tp, n_pred, n_gold)
    return EvalReport(
        precision=p,
        recall=r,
        f1=f,
        r_iv=iv_tp / iv_n if iv_n else 0.0,
        r_oov=oov_tp / oov_n if oov_n else 0.0,
        n_iv=iv_n,
        n_oov=oov_n,
    )


def length_bucket_f1(
    gold: Sequence[LabeledSentence],
    predicted: Sequence[Sequence[str]],
    bucket_width: int,
) -> dict[tuple[int, int], float]:
    """F1 per sentence-length bucket [k*w+1, (k+1)*w]; empty buckets omitted."""
    if bucket_width < 1:
        raise ConfigError(f"bucket width must be >= 1, got {bucket_width}")
    counts: dict[int, list[int]] = {}
    for sent, pred_labels in zip(gold, predicted):
        k = (len(sent) - 1) // bucket_width
        gold_spans = label_spans(sent.labels)
        pred_spans = set(label_spans(pred_labels))
        acc = counts.setdefault(k, [0, 0, 0])
        acc[0] += sum(1 for s in gold_spans if s in pred_spans)
        acc[1] += len(pred_spans)
        acc[2] += len(gold_spans)
    return {
        (k * bucket_width + 1, (k + 1) * bucket_width): _f1(*acc)[2]
        for k, acc in counts.items()
    }


def coverage_report(sentences: Iterable[LabeledSentence], lexicon) -> CoverageReport:
    """Token-level lexicon coverage: matched gold words / all gold words."""
    total = matched = 0
    for sent in sentences:
        for w in sent.words():
            total += 1
            matched += w in lexicon
    return CoverageReport(word_count=total, matched_count=matched)


@dataclass
class TrainResult:
    best_epoch: int
    best_f1: float
    reports: list[EvalReport] = field(default_factory=list)
    mean_losses: list[float] = field(default_factory=list)
    learning_rates: list[float] = field(default_factory=list)
    wall_seconds: float = 0.0


def train(
    config: TrainConfig,
    train_set: Sequence[LabeledSentence],
    dev_set: Sequence[LabeledSentence],
    model: SegmenterModel,
    training_words: set[str] | None = None,
    log: Callable[[str], None] | None = None,
) -> TrainResult:
    """SGD over sentences; returns per-epoch dev reports with the model left
    at its best-dev-F1 parameters."""
    config.validate()
    if not train_set or not dev_set:
        raise DataError("training and dev sets must be non-empty")
    if training_words is None:
        training_words = word_set(train_set)

    rng = np.random.default_rng(config.seed)
    params = model.parameters()
    result = TrainResult(best_epoch=-1, best_f1=-1.0)
    best_snapshot = None
    t0 = time.perf_counter()

    for epoch in range(config.epochs):
        # The parameters are still the previous epoch's: keep a copy only if
        # that epoch was a new best, which this one may not beat.
        if epoch and result.best_epoch == epoch - 1:
            best_snapshot = model.snapshot()
        lr = config.learning_rate(epoch)
        order = rng.permutation(len(train_set))
        total_loss = 0.0
        for si in order:
            sentence = train_set[si]
            tape = Tape()
            with tape:
                loss = model.loss(sentence, mode="train", rng=rng)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericError(f"non-finite loss at epoch {epoch}, sentence {si}")
            backward(loss)
            sgd_step(params, lr)
            total_loss += value

        pred = [model.decode(s.chars).labels for s in dev_set]
        report = evaluate_f1(dev_set, pred, training_words)
        report.epoch = epoch
        result.reports.append(report)
        result.mean_losses.append(total_loss / len(train_set))
        result.learning_rates.append(lr)
        if report.f1 > result.best_f1:
            result.best_f1 = report.f1
            result.best_epoch = epoch
        if log:
            log(
                f"epoch {epoch}: lr={lr:.6f} loss={result.mean_losses[-1]:.4f} "
                f"dev_f1={report.f1:.4f} (best {result.best_f1:.4f} @ {result.best_epoch})"
            )
        if config.stop_f1 is not None and result.best_f1 >= config.stop_f1:
            break

    if result.best_epoch != result.reports[-1].epoch:
        model.restore(best_snapshot)
    result.wall_seconds = time.perf_counter() - t0
    return result


def write_reports(result: TrainResult, config: TrainConfig, tsv_path, txt_path) -> None:
    """Per-epoch TSV for plotting plus a key=value summary."""
    with open(tsv_path, "w", encoding="utf-8") as fh:
        fh.write("epoch\tlr\tmean_loss\tprecision\trecall\tf1\tr_iv\tr_oov\tbest\n")
        for r, loss, lr in zip(result.reports, result.mean_losses, result.learning_rates):
            fh.write(
                f"{r.epoch}\t{lr:.8f}\t{loss:.6f}\t{r.precision:.6f}\t{r.recall:.6f}"
                f"\t{r.f1:.6f}\t{r.r_iv:.6f}\t{r.r_oov:.6f}"
                f"\t{int(r.epoch == result.best_epoch)}\n"
            )
    lines = [f"{f.name}={getattr(config, f.name)}" for f in fields(config)]
    lines += [
        f"best_epoch={result.best_epoch}",
        f"best_f1={result.best_f1:.6f}",
        f"epochs_run={len(result.reports)}",
        f"wall_seconds={result.wall_seconds:.2f}",
    ]
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
