"""Checkpoints saved by an earlier encoder still load, probe-verified, and segment the same.

The fixtures under ``fixtures/golden`` were written by ``fixtures/make_golden.py``
with the per-primitive encoder and CRF loss, before each became one recorded
op. Loading re-runs the float32 probe and refuses a checkpoint whose
emissions differ in any bit, so these tests pin the forward pass bit for bit
in float64 and float32. ``fixtures/training-sha256.txt``, written by the same
script from an earlier walk, pins training: the backward and the updates.
"""

from pathlib import Path

import pytest

from fixtures.make_golden import training_digests
from latseg.checkpoint import load_checkpoint, save_checkpoint
from latseg.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_golden_checkpoint_loads_and_segments_identically(dtype, tmp_path):
    ckpt = GOLDEN / f"lattice-word-{dtype}"
    model = load_checkpoint(ckpt)  # raises CheckpointError if the probe differs
    assert model.mode == "lattice-word"
    assert model.unigram_table.rows.data.dtype.name == dtype
    out = tmp_path / "segmented.txt"
    assert main(["segment", "--model", str(ckpt), "--input", str(GOLDEN / "raw.txt"),
                 "--output", str(out)]) == 0
    expect = (GOLDEN / f"segment-{dtype}.txt").read_text(encoding="utf-8")
    assert out.read_text(encoding="utf-8") == expect


def test_fixed_seed_training_writes_the_recorded_tensor_bytes(tmp_path, capsys):
    # lattice-word and lattice-subword, float32 and float64, dropout 0.3, one epoch
    lines = (FIXTURES / "training-sha256.txt").read_text(encoding="utf-8").splitlines()
    expect = dict(line.split("\t") for line in lines)
    got = training_digests(tmp_path)
    assert {k.split("/")[0] for k in got} == {
        f"{mode}-{dtype}" for mode in ("lattice-word", "lattice-subword") for dtype in ("float32", "float64")
    }
    assert [k for k in expect if got.get(k) != expect[k]] == [] and got.keys() == expect.keys()


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_resaving_a_golden_checkpoint_writes_its_probe_bytes(dtype, tmp_path):
    # the probe runs on a model cut down to the rows its sentence reads; its
    # emissions must be the whole model's, as the fixture recorded them
    ckpt = GOLDEN / f"lattice-word-{dtype}"
    probe = [line for line in (ckpt / "manifest.txt").read_text(encoding="utf-8").split("\n")
             if line.startswith("probe_")]
    save_checkpoint(load_checkpoint(ckpt), tmp_path / "again", probe[0].partition("=")[2])
    again = (tmp_path / "again" / "manifest.txt").read_text(encoding="utf-8").split("\n")
    assert [line for line in again if line.startswith("probe_")] == probe
