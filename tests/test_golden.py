"""Checkpoints saved by an earlier encoder still load, probe-verified, and segment the same.

The fixtures under ``fixtures/golden`` were written by ``fixtures/make_golden.py``
with the per-primitive encoder and CRF loss, before each became one recorded
op. Loading re-runs the float32 probe and refuses a checkpoint whose
emissions differ in any bit, so these tests pin the forward pass bit for bit
in float64 and float32. ``fixtures/training-sha256.txt``, written by the same
script from an earlier walk, pins training: the backward and the updates.
"""

from pathlib import Path

import numpy as np
import pytest

from fixtures.make_golden import training_digests
from latseg import bpe, synth
from latseg.checkpoint import load_checkpoint, save_checkpoint
from latseg.cli import main
from latseg.data import EmbeddingTable, build_vocabs
from latseg.model import SegmenterModel, prepare_lexicon

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_golden_checkpoint_loads_and_segments_identically(dtype, tmp_path):
    ckpt = GOLDEN / f"lattice-word-{dtype}"
    model = load_checkpoint(ckpt)  # raises CheckpointError if the probe differs
    assert model.mode == "lattice-word"
    tables = [model.unigram_table.rows, model.bigram_table.rows, model.lexicon_table.rows]
    assert [t.data.dtype.name for t in tables] == ["float32"] * 3
    assert {p.data.dtype.name for p in model.parameters() if p not in tables} == {dtype}
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


def _subword_checkpoint(out: Path, dtype: str) -> Path:
    """A lattice-subword model with random weights in ``dtype``, saved to ``out``."""
    rng = np.random.default_rng(17)
    vocab = synth.make_vocab(30, seed=41)
    lines = ["".join(words) for words in synth.make_corpus(vocab, 40, seed=42)]
    trie, lvocab = prepare_lexicon([sym for sym, _ in bpe.extract_lexicon(bpe.learn_bpe(lines, 40))])
    uni, bi = build_vocabs(lines)
    tables = [EmbeddingTable.random(v, 4, rng, dtype=dtype, name=f"{name}_embeddings")
              for v, name in ((uni, "unigram"), (bi, "bigram"), (lvocab, "lexicon"))]
    model = SegmenterModel.create("lattice-subword", *tables[:2], 6, rng, lexicon_table=tables[2], trie=trie,
                                  dtype=dtype)
    save_checkpoint(model, out, lines[0])
    return out


@pytest.mark.parametrize("case", ["golden-float64", "golden-float32", "subword-float64", "subword-float32"])
def test_float32_tables_decode_as_tables_widened_to_the_manifest_dtype(case, tmp_path):
    # a loaded model keeps its tables as stored; a float64 walk widens their
    # rows exactly, so nothing it computes may differ from widened tables
    kind, dtype = case.split("-")
    ckpt = GOLDEN / f"lattice-word-{dtype}" if kind == "golden" else _subword_checkpoint(tmp_path / "ck", dtype)
    loaded, widened = load_checkpoint(ckpt), load_checkpoint(ckpt)
    for table in (widened.unigram_table, widened.bigram_table, widened.lexicon_table):
        assert table.rows.data.dtype == np.float32
        table.rows.data = table.rows.data.astype(dtype)
    lines = [tuple(line) for line in (GOLDEN / "raw.txt").read_text(encoding="utf-8").split("\n") if line]
    if kind == "subword":
        lines = [tuple(sym) for sym in widened.trie.symbols[:6]] + [tuple("".join(widened.trie.symbols[:12]))]
    for model in (loaded, widened):
        assert model.hidden_states(lines)[0].data.dtype == dtype
    assert loaded.hidden_states(lines)[0].data.tobytes() == widened.hidden_states(lines)[0].data.tobytes()
    for line in lines:
        assert loaded.emission_matrix(line).tobytes() == widened.emission_matrix(line).tobytes()
    assert loaded.decode_many(lines) == widened.decode_many(lines)
