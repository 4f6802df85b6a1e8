"""Spans around latseg's public functions, recorded from outside the package.

A :class:`Tracer` rebinds module and class attributes of ``latseg`` in this
process so that each call records a span (name, start, end, parent, phase).
Nothing under ``src/`` is edited: every call site looks the name up at call
time, so the rebinding reaches calls made inside the package too. Spans stay
in memory until :meth:`Tracer.write` saves them at the end of a run.

Per-layer metrics are self times: a span's duration minus the durations of
its direct children.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

import numpy as np

from latseg import bpe, checkpoint, crf, data, encoder, model, synth, train
from latseg.model import SegmenterModel

SETUP, MEASURE, CHECK = "setup", "measure", "check"

# (owner, attribute, span name). Names read as "<module>.<function>" or
# "<class>.<method>", the way a reader finds them in the source.
TARGETS = [
    (model, "match_sentence", "model.match_sentence"),
    (model, "char_repr", "model.char_repr"),
    (model, "encode_bidirectional", "model.encode_bidirectional"),
    (encoder, "lattice_forward", "encoder.lattice_forward"),
    (encoder, "shortcut_cell", "encoder.shortcut_cell"),
    (encoder, "gate_normalize", "encoder.gate_normalize"),
    (crf, "nll_loss", "crf.nll_loss"),
    (crf, "viterbi", "crf.viterbi"),
    (train, "backward", "train.backward"),
    (train, "sgd_step", "train.sgd_step"),
    (train, "evaluate_f1", "train.evaluate_f1"),
    (SegmenterModel, "loss", "SegmenterModel.loss"),
    (SegmenterModel, "decode", "SegmenterModel.decode"),
    (SegmenterModel, "snapshot", "SegmenterModel.snapshot"),
    (SegmenterModel, "emission_matrix", "SegmenterModel.emission_matrix"),
    (checkpoint, "save_checkpoint", "checkpoint.save_checkpoint"),
    (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint"),
    (bpe, "learn_bpe", "bpe.learn_bpe"),
    (synth, "make_vocab", "synth.make_vocab"),
    (synth, "make_corpus", "synth.make_corpus"),
    (synth, "split_corpus", "synth.split_corpus"),
    (synth, "write_corpus", "synth.write_corpus"),
    (data, "read_corpus", "data.read_corpus"),
    (data, "build_vocabs", "data.build_vocabs"),
]

# Self time per 1,000 characters the measured phase trained or segmented.
PER_KCHAR = {
    "tensor.sgd_s": ("train.sgd_step",),
    "tensor.backward_s": ("train.backward",),
    "model.loss_s": ("SegmenterModel.loss",),
    "model.snapshot_s": ("SegmenterModel.snapshot",),
    "model.decode_s": ("SegmenterModel.decode",),
    "encoder.char_repr_s": ("model.char_repr",),
    "encoder.lattice_forward_s": ("encoder.lattice_forward",),
    "encoder.shortcut_cell_s": ("encoder.shortcut_cell",),
    "encoder.fusion_s": ("encoder.gate_normalize",),
    "lexicon.match_s": ("model.match_sentence",),
    "crf.nll_s": ("crf.nll_loss",),
    "crf.viterbi_s": ("crf.viterbi",),
    "train.eval_s": ("train.evaluate_f1",),
}
# Whole duration of a training step's three calls, per 1,000 trained characters.
STEP_SPANS = ("SegmenterModel.loss", "train.backward", "train.sgd_step")
# Mean self time per call, over the whole run.
PER_CALL = {
    "checkpoint.write_s": "checkpoint.save_checkpoint",
    "checkpoint.probe_s": "SegmenterModel.emission_matrix",
    "checkpoint.load_s": "checkpoint.load_checkpoint",
}
# Self time per set-up repetition.
PER_SETUP = {
    "bpe.learn_s": ("bpe.learn_bpe",),
    "synth.generate_s": (
        "synth.make_vocab", "synth.make_corpus", "synth.split_corpus", "synth.write_corpus",
    ),
    "data.read_corpus_s": ("data.read_corpus",),
    "data.build_vocabs_s": ("data.build_vocabs",),
}


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# Counters, taken at the same boundaries as the spans, in the measured phase only.
def _count_loss(counts, args, result):
    counts["loss_chars"] += len(args[1])


def _count_backward(counts, args, result):
    counts["tape_nodes"] += len(args[0].tape)


SGD_SCAN_EVERY = 10  # the row scan reads every gradient, as costly as the update


def _count_sgd(counts, args, result):
    """Rows with a nonzero gradient against rows the dense update rewrites."""
    counts["sgd_steps"] += 1
    if counts["sgd_steps"] % SGD_SCAN_EVERY != 1:
        return
    counts["sgd_scanned_steps"] += 1
    for p in args[0]:
        if p.grad is None:
            continue
        g = np.atleast_2d(p.grad)  # a bias vector is one row
        counts["sgd_rows"] += g.shape[0]
        counts["sgd_rows_useful"] += int(np.count_nonzero(g.any(axis=1)))
        # Least traffic of a dense update: read and write each value and gradient once.
        counts["sgd_bytes"] += 2 * (p.data.nbytes + p.grad.nbytes)


def _count_match(counts, args, result):
    counts["match_chars"] += len(args[1])
    counts["matches"] += len(result)


def _count_encode(counts, args, result):
    counts["encoded_chars"] += len(args[0])


def _count_lattice(counts, args, result):
    counts["lattice_positions"] += len(args[0])


# (hook, runs before the call) per span name; a hook that reads gradients must
# run before sgd_step clears them.
HOOKS = {
    "SegmenterModel.loss": (_count_loss, True),
    "train.backward": (_count_backward, True),
    "train.sgd_step": (_count_sgd, True),
    "model.match_sentence": (_count_match, False),
    "model.encode_bidirectional": (_count_encode, True),
    "encoder.lattice_forward": (_count_lattice, True),
}


class Tracer:
    """Records spans around :data:`TARGETS` while installed (a context manager)."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1, phase]
        self.counts: Counter = Counter()
        self.phase = SETUP
        self._open: list[int] = []
        self._saved: list = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name in TARGETS:
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name):
        spans, stack, counts = self.spans, self._open, self.counts
        hook, before = HOOKS.get(name, (None, False))

        def traced(*args, **kwargs):
            measuring = self.phase == MEASURE
            if hook and before and measuring:
                hook(counts, args, None)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.phase)
            if hook and not before and measuring:
                hook(counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def checking(self):
        """Spans recorded inside belong to output checks, which no metric counts."""
        phase, self.phase = self.phase, CHECK
        try:
            yield
        finally:
            self.phase = phase

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tphase\n")
            for name, start, end, parent, phase in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{phase}\n")

    def per_layer(self, measured_chars: int, setups: int) -> dict[str, float]:
        """Every per-layer metric, from the recorded spans and counters."""
        own = self_times(self.spans)
        self_by = Counter()
        calls = Counter()
        step_s = 0.0
        for (name, start, end, _, phase), s in zip(self.spans, own):
            self_by[phase, name] += s
            calls[phase, name] += 1
            if phase == MEASURE and name in STEP_SPANS:
                step_s += end - start

        kchars = measured_chars / 1000.0
        out: dict[str, float] = {}
        for metric, names in PER_KCHAR.items():
            total = sum(self_by[MEASURE, n] for n in names)
            out[metric] = total / kchars if kchars else 0.0
        out["train.step_s"] = step_s / kchars if kchars else 0.0
        for metric, name in PER_CALL.items():
            n = calls[SETUP, name] + calls[MEASURE, name]
            out[metric] = (self_by[SETUP, name] + self_by[MEASURE, name]) / n if n else 0.0
        for metric, names in PER_SETUP.items():
            out[metric] = sum(self_by[SETUP, n] for n in names) / setups

        c = self.counts
        out["tensor.tape_nodes_per_char"] = _ratio(c["tape_nodes"], c["loss_chars"])
        out["tensor.sgd_rows_useful_frac"] = _ratio(c["sgd_rows_useful"], c["sgd_rows"])
        out["tensor.sgd_bytes_per_step"] = _ratio(c["sgd_bytes"], c["sgd_scanned_steps"])
        out["encoder.shortcut_cells_per_char"] = _ratio(
            calls[MEASURE, "encoder.shortcut_cell"], c["encoded_chars"]
        )
        out["encoder.fused_positions_frac"] = _ratio(
            calls[MEASURE, "encoder.gate_normalize"], c["lattice_positions"]
        )
        out["lexicon.matches_per_char"] = _ratio(c["matches"], c["match_chars"])
        saves = [i for i, sp in enumerate(self.spans) if sp[0] == "checkpoint.save_checkpoint"]
        save_set = set(saves)
        nested_loads = sum(
            1 for sp in self.spans if sp[0] == "checkpoint.load_checkpoint" and sp[3] in save_set
        )
        out["checkpoint.loads_per_save"] = _ratio(nested_loads, len(saves))
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
