"""Tests of the benchmark itself: metric names, self-time arithmetic, failure counting.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import harness
import tracing
import workloads
from latseg import data
from latseg.model import SegmenterModel

TINY = {
    "train-bigvocab-baseline": dict(
        sentences=200, words=100, alphabet=50, dim=8, calls=2, call_sentences=3,
        call_dev=2, dev_slice=4,
    ),
    "train-desk-lattice-word": dict(
        sentences=60, vocab_size=30, calls=2, call_sentences=3, call_dev=2, dev_slice=4,
    ),
    "segment-desk-lattice-subword": dict(
        sentences=60, vocab_size=30, merges=30, pretrain_slice=4, pretrain_dev=2, lines=6,
        batch=3,
    ),
}


@pytest.fixture(autouse=True)
def quick_setup(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_SECONDS", 0.0)


def tiny_run(name, tmp_path, trace=False):
    workload = workloads.WORKLOADS[name](**TINY[name])
    details, result, _ = harness.run_workload(workload, 3, 0.01, trace, tmp_path)
    return details, result


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path):
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = "per_layer" if trace else "end_to_end"
    _, result = tiny_run(name, tmp_path, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    json.dumps(result, allow_nan=False)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1, tracing.MEASURE),
        ("a", 1.0, 4.0, 0, tracing.MEASURE),
        ("b", 5.0, 9.0, 0, tracing.MEASURE),
        ("c", 6.0, 7.5, 2, tracing.MEASURE),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 2.5, 1.5])


def test_per_layer_sums_self_time_per_thousand_characters():
    tracer = tracing.Tracer()
    tracer.spans[:] = [
        ("SegmenterModel.loss", 0.0, 0.4, -1, tracing.MEASURE),
        ("model.char_repr", 0.1, 0.2, 0, tracing.MEASURE),
        ("train.backward", 0.5, 0.8, -1, tracing.MEASURE),
        ("train.sgd_step", 0.8, 1.0, -1, tracing.MEASURE),
        ("train.sgd_step", 2.0, 9.0, -1, tracing.SETUP),  # set-up is not measured work
        ("data.build_vocabs", 9.0, 9.6, -1, tracing.SETUP),
        ("checkpoint.save_checkpoint", 10.0, 11.0, -1, tracing.MEASURE),
        ("checkpoint.load_checkpoint", 10.2, 10.6, 6, tracing.MEASURE),
    ]
    out = tracer.per_layer(measured_chars=500, setups=2)
    assert out["model.loss_s"] == pytest.approx(0.6)  # (0.4 - 0.1) s per 0.5 kchar
    assert out["encoder.char_repr_s"] == pytest.approx(0.2)
    assert out["tensor.sgd_s"] == pytest.approx(0.4)
    assert out["train.step_s"] == pytest.approx(1.8)  # 0.4 + 0.3 + 0.2 s, whole spans
    assert out["data.build_vocabs_s"] == pytest.approx(0.3)
    assert out["checkpoint.write_s"] == pytest.approx(0.6)
    assert out["checkpoint.loads_per_save"] == 1.0


def test_a_line_that_loses_a_character_is_a_failure(tmp_path, monkeypatch):
    real = data.from_bmes
    monkeypatch.setattr(data, "from_bmes", lambda chars, labels: real(chars, labels)[:-1])
    details, result = tiny_run("segment-desk-lattice-subword", tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 3  # every line of the one batch
    assert "does not spell its input" in details["failures"][0]
    assert "chars_per_s" in result["metrics"]


def test_labels_outside_bmes_are_a_failure(tmp_path, monkeypatch):
    real = SegmenterModel.decode

    def decode(self, chars):
        path = real(self, chars)
        path.labels = ("X",) + path.labels[1:]
        return path

    monkeypatch.setattr(SegmenterModel, "decode", decode)
    details, result = tiny_run("train-desk-lattice-word", tmp_path)
    assert not result["correct"]
    assert any("labels outside BMES" in f for f in details["failures"])
    assert set(result["metrics"]) >= {"f1", "setup_s"}


def test_a_sample_is_scaled_by_the_references_timed_around_it():
    run = workloads.Run(rates=[100.0, 300.0], reference_s=[0.08, 0.08, 0.02])
    slow, changing = run.scaled_rates()  # a host twice as slow, then speeding up
    assert slow == pytest.approx(100.0 * 0.08 / workloads.REFERENCE_S)
    assert changing == pytest.approx(300.0 * 0.05 / workloads.REFERENCE_S)


def test_transition_check_and_label_check_are_separate():
    assert workloads.strict_bmes("BES")
    assert not workloads.strict_bmes("BS")
    assert not workloads.strict_bmes("M")
    assert workloads.labels_problem("abc", "BMS") is None


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(harness.BENCH_DIR, tmp_path / "bench")
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-desk-lattice-word",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
