"""CLI flows and checkpoint persistence on a small synthetic corpus."""

import filecmp
import shutil

import numpy as np
import pytest

from latseg import synth
from latseg.checkpoint import load_checkpoint, load_train_words, save_checkpoint
from latseg.cli import _build_model, main
from latseg.data import EmbeddingTable, build_vocabs, read_corpus, to_bmes, word_set
from latseg.errors import CheckpointError
from latseg.model import SegmenterModel, prepare_lexicon
from latseg.train import TrainConfig

TINY_CONFIG = """\
# desk-scale hyperparameters for the test corpus
hidden=8
unigram_dim=6
bigram_dim=6
lexicon_dim=6
char_dropout=0.1
lattice_dropout=0.1
epochs=2
"""


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    vocab = synth.make_vocab(30, seed=11)
    sentences = synth.make_corpus(vocab, 40, seed=12, min_words=3, max_words=7)
    tr, dev = synth.split_corpus(sentences, 0.2, seed=13)
    synth.write_corpus(out / "train.txt", tr)
    synth.write_corpus(out / "dev.txt", dev)
    (out / "lexicon.txt").write_text(
        "".join(w + "\n" for w in vocab if len(w) >= 2), encoding="utf-8"
    )
    (out / "config.txt").write_text(TINY_CONFIG, encoding="utf-8")
    return out


def run(args):
    return main([str(a) for a in args])


class TestTrainCommand:
    def test_baseline_train_writes_outputs(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "model"
        rc = run([
            "train", "--train", corpus_dir / "train.txt", "--dev", corpus_dir / "dev.txt",
            "--mode", "baseline", "--config", corpus_dir / "config.txt",
            "--out", out, "--seed", "3",
        ])
        assert rc == 0
        for name in ("manifest.txt", "report.tsv", "report.txt", "train_words.txt"):
            assert (out / name).is_file()
        assert "best dev F1" in capsys.readouterr().out

    def test_lattice_requires_lexicon(self, corpus_dir, tmp_path):
        rc = run([
            "train", "--train", corpus_dir / "train.txt", "--dev", corpus_dir / "dev.txt",
            "--mode", "lattice-word", "--out", tmp_path / "x",
        ])
        assert rc == 1

    def test_baseline_warns_on_lexicon(self, corpus_dir, tmp_path, capsys):
        rc = run([
            "train", "--train", corpus_dir / "train.txt", "--dev", corpus_dir / "dev.txt",
            "--mode", "baseline", "--lexicon", corpus_dir / "lexicon.txt",
            "--config", corpus_dir / "config.txt", "--out", tmp_path / "m", "--epochs", "1",
        ])
        assert rc == 0
        assert "ignored" in capsys.readouterr().err

    def test_pretrained_embeddings_loaded(self, corpus_dir, tmp_path):
        sents = read_corpus(corpus_dir / "train.txt")
        char = sents[0].chars[0]
        emb = tmp_path / "uni.vec"
        emb.write_text(char + " " + " ".join(["0.25"] * 6) + "\n", encoding="utf-8")
        out = tmp_path / "m"
        rc = run([
            "train", "--train", corpus_dir / "train.txt", "--dev", corpus_dir / "dev.txt",
            "--mode", "baseline", "--config", corpus_dir / "config.txt",
            "--unigram-emb", emb, "--out", out, "--epochs", "1",
        ])
        assert rc == 0
        config = TrainConfig(hidden=8, unigram_dim=6, bigram_dim=6)
        model = _build_model(config, sents, None, {"unigram": emb}, np.random.default_rng(0))
        table = model.unigram_table
        np.testing.assert_array_equal(table.rows.data[table.vocab.index(char)], np.full(6, 0.25))

    def test_malformed_corpus_is_data_error(self, corpus_dir, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("好  的\n", encoding="utf-8")  # double space
        rc = run([
            "train", "--train", bad, "--dev", corpus_dir / "dev.txt",
            "--mode", "baseline", "--out", tmp_path / "m",
        ])
        assert rc == 2

    def test_unknown_flag_is_usage_error(self):
        assert run(["train", "--bogus"]) == 1

    def test_negative_seed_flag_is_config_error(self, corpus_dir, tmp_path, capsys):
        rc = run([
            "train", "--train", corpus_dir / "train.txt", "--dev", corpus_dir / "dev.txt",
            "--config", corpus_dir / "config.txt", "--out", tmp_path / "m", "--seed", "-1",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("latseg: ") and err.count("\n") == 1 and "seed" in err
        assert not (tmp_path / "m").exists()

    def test_negative_synth_seed_is_config_error(self, tmp_path, capsys):
        assert run(["synth", "--out-dir", tmp_path / "c", "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("latseg: ") and err.count("\n") == 1 and "seed" in err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize(
        "entry",
        ["mode=lattice", "dtype=float17", "max_word_len=0", "stop_f1=0", "stop_f1=1.5",
         "lr0=nan", "lr0=inf", "seed=-1"],
    )
    def test_bad_config_value_is_config_error(self, corpus_dir, tmp_path, capsys, entry):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CONFIG + entry + "\n", encoding="utf-8")
        rc = run([
            "train", "--train", corpus_dir / "train.txt", "--dev", corpus_dir / "dev.txt",
            "--config", cfg, "--out", tmp_path / "m",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("latseg: ") and err.count("\n") == 1
        assert entry.split("=")[0] in err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("flag", ["--train", "--dev", "--config"])
    def test_missing_input_file_is_data_error(self, corpus_dir, tmp_path, capsys, flag):
        paths = {"--train": corpus_dir / "train.txt", "--dev": corpus_dir / "dev.txt",
                 "--config": corpus_dir / "config.txt"}
        paths[flag] = tmp_path / "nope.txt"
        args = ["train", "--mode", "baseline", "--out", tmp_path / "m"]
        for name, path in paths.items():
            args += [name, path]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("latseg: ") and "nope.txt" in err and err.count("\n") == 1

    def test_same_seed_byte_identical_checkpoints(self, corpus_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = run([
                "train", "--train", corpus_dir / "train.txt", "--dev", corpus_dir / "dev.txt",
                "--mode", "lattice-word", "--lexicon", corpus_dir / "lexicon.txt",
                "--config", corpus_dir / "config.txt", "--out", out, "--seed", "9",
                "--epochs", "1",
            ])
            assert rc == 0
            outs.append(out)
        a, b = outs
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        for name in files:
            if name == "report.txt":  # carries wall-clock timing
                continue
            assert filecmp.cmp(a / name, b / name, shallow=False), name


    def test_diverging_training_writes_nothing_to_stderr(self, tmp_path, capfd):
        # lr0=0.9 without decay drives gate pre-activations past -700, where
        # exp overflows in the sigmoid; its exact limit 0 is silent
        data = tmp_path / "desk"
        assert run(["synth", "--out-dir", data, "--sentences", 300, "--vocab-size", 80,
                    "--seed", 101]) == 0
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("hidden=16\nunigram_dim=8\nbigram_dim=8\nlr0=0.9\nlr_decay=0\n",
                       encoding="utf-8")
        capfd.readouterr()
        rc = run(["train", "--train", data / "train.txt", "--dev", data / "dev.txt",
                  "--mode", "baseline", "--config", cfg, "--out", tmp_path / "m",
                  "--seed", 7, "--epochs", 1])
        assert rc == 0
        assert capfd.readouterr().err == ""

    def test_retrain_into_other_mode_keeps_old_checkpoint(self, corpus_dir, tmp_path):
        out = tmp_path / "m"
        common = ["train", "--train", corpus_dir / "train.txt", "--dev", corpus_dir / "dev.txt",
                  "--config", corpus_dir / "config.txt", "--out", out, "--epochs", "1"]
        assert run(common + ["--mode", "lattice-word", "--lexicon", corpus_dir / "lexicon.txt"]) == 0
        assert run(common + ["--mode", "baseline"]) == 2  # lattice tensor files would be stale
        assert load_checkpoint(out).mode == "lattice-word"


@pytest.fixture(scope="module")
def trained(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained") / "model"
    rc = run([
        "train", "--train", corpus_dir / "train.txt", "--dev", corpus_dir / "dev.txt",
        "--mode", "lattice-word", "--lexicon", corpus_dir / "lexicon.txt",
        "--config", corpus_dir / "config.txt", "--out", out, "--seed", "3",
    ])
    assert rc == 0
    return out


class TestLatticeSubwordFlow:
    def test_bpe_lexicon_feeds_training(self, corpus_dir, tmp_path):
        lex = tmp_path / "subwords.tsv"
        rc = run([
            "bpe-learn", "--corpus", corpus_dir / "train.txt", "--merges", "40",
            "--out", tmp_path / "subwords.bpe", "--lexicon-out", lex,
        ])
        assert rc == 0
        out = tmp_path / "model"
        rc = run([
            "train", "--train", corpus_dir / "train.txt", "--dev", corpus_dir / "dev.txt",
            "--mode", "lattice-subword", "--lexicon", lex,
            "--config", corpus_dir / "config.txt", "--out", out, "--epochs", "1",
        ])
        assert rc == 0
        model = load_checkpoint(out)
        assert model.mode == "lattice-subword"
        assert len(model.trie) > 0


class TestSegmentCommand:
    def test_partition_and_idempotence(self, corpus_dir, trained, tmp_path):
        inp = tmp_path / "raw.txt"
        dev = read_corpus(corpus_dir / "dev.txt")
        lines = ["".join(s.chars) for s in dev[:5]] + [""]
        inp.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
        out1 = tmp_path / "seg1.txt"
        out2 = tmp_path / "seg2.txt"
        assert run(["segment", "--model", trained, "--input", inp, "--output", out1]) == 0
        assert run(["segment", "--model", trained, "--input", inp, "--output", out2]) == 0
        got = out1.read_text(encoding="utf-8").splitlines()
        assert got == out2.read_text(encoding="utf-8").splitlines()
        assert got[-1] == ""  # empty line in, empty line out
        for raw, seg in zip(lines, got):
            assert seg.replace(" ", "") == raw

    def test_empty_probe_sentence_is_checkpoint_error(self, corpus_dir, trained, tmp_path, capsys):
        ckpt = tmp_path / "model"
        shutil.copytree(trained, ckpt)
        manifest = ckpt / "manifest.txt"
        lines = manifest.read_text(encoding="utf-8").split("\n")
        lines = ["probe_chars=" if l.startswith("probe_chars=") else l for l in lines]
        manifest.write_text("\n".join(lines), encoding="utf-8")
        out = tmp_path / "o.txt"
        rc = run(["segment", "--model", ckpt, "--input", corpus_dir / "dev.txt", "--output", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("latseg: ") and "probe" in err and err.count("\n") == 1

    def test_missing_model_is_checkpoint_error(self, corpus_dir, tmp_path):
        out = tmp_path / "o.txt"
        rc = run([
            "segment", "--model", tmp_path / "nope",
            "--input", corpus_dir / "dev.txt", "--output", out,
        ])
        assert rc == 2
        assert not out.exists()  # inputs are validated before any output write


class TestEvalCommand:
    def test_key_value_report(self, corpus_dir, trained, capsys):
        rc = run(["eval", "--model", trained, "--gold", corpus_dir / "dev.txt"])
        assert rc == 0
        out = capsys.readouterr().out
        values = dict(
            line.split("=", 1) for line in out.strip().splitlines() if "=" in line
        )
        for key in ("precision", "recall", "f1", "r_iv", "r_oov"):
            assert key in values
            assert 0.0 <= float(values[key]) <= 1.0

    def test_missing_gold_is_data_error(self, trained, tmp_path, capsys):
        assert run(["eval", "--model", trained, "--gold", tmp_path / "nope.txt"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("latseg: ") and err.count("\n") == 1

    def test_identical_gold_prediction_f1_one(self, trained, tmp_path, capsys):
        # segment dev, then score the model against its own output
        model_dir = trained
        inp = tmp_path / "in.txt"
        seg = tmp_path / "seg.txt"
        inp.write_text("天地人\n", encoding="utf-8")
        assert run(["segment", "--model", model_dir, "--input", inp, "--output", seg]) == 0
        assert run(["eval", "--model", model_dir, "--gold", seg]) == 0
        values = dict(
            line.split("=", 1)
            for line in capsys.readouterr().out.strip().splitlines()
            if "=" in line
        )
        assert float(values["f1"]) == 1.0


class TestBpeAndCoverage:
    def test_bpe_learn_zero_merges(self, corpus_dir, tmp_path):
        out = tmp_path / "model.bpe"
        rc = run(["bpe-learn", "--corpus", corpus_dir / "train.txt", "--merges", "0", "--out", out])
        assert rc == 0
        assert out.read_text(encoding="utf-8").startswith("bpe-v1 0")

    def test_bpe_learn_writes_lexicon(self, corpus_dir, tmp_path):
        out = tmp_path / "model.bpe"
        lex = tmp_path / "lex.tsv"
        rc = run([
            "bpe-learn", "--corpus", corpus_dir / "train.txt", "--merges", "25",
            "--out", out, "--lexicon-out", lex,
        ])
        assert rc == 0
        rows = [l.split("\t") for l in lex.read_text(encoding="utf-8").splitlines()]
        assert rows and all(len(sym) >= 2 and int(freq) > 0 for sym, freq in rows)

    def test_coverage_full_lexicon(self, corpus_dir, tmp_path, capsys):
        gold = read_corpus(corpus_dir / "train.txt")
        lex = tmp_path / "full.txt"
        lex.write_text("".join(w + "\n" for w in word_set(gold)), encoding="utf-8")
        assert run(["coverage", "--gold", corpus_dir / "train.txt", "--lexicon", lex]) == 0
        out = capsys.readouterr().out
        assert "ratio=1.0000" in out

    def test_coverage_empty_lexicon(self, corpus_dir, tmp_path, capsys):
        lex = tmp_path / "empty.txt"
        lex.write_text("", encoding="utf-8")
        assert run(["coverage", "--gold", corpus_dir / "train.txt", "--lexicon", lex]) == 0
        assert "ratio=0.0000" in capsys.readouterr().out


class TestCheckpoint:
    def test_probe_round_trip_bit_identical(self, trained, corpus_dir):
        model = load_checkpoint(trained)  # load verifies the probe internally
        manifest = (trained / "manifest.txt").read_text(encoding="utf-8")
        probe_chars = next(
            l.split("=", 1)[1] for l in manifest.splitlines() if l.startswith("probe_chars=")
        )
        probe_hex = next(
            l.split("=", 1)[1] for l in manifest.splitlines() if l.startswith("probe_emissions=")
        )
        got = model.emission_matrix(tuple(probe_chars)).astype("<f4").tobytes().hex()
        assert got == probe_hex

    def test_reload_fixed_point(self, trained, tmp_path):
        model = load_checkpoint(trained)
        again = tmp_path / "resaved"
        manifest = (trained / "manifest.txt").read_text(encoding="utf-8")
        probe_chars = next(
            l.split("=", 1)[1] for l in manifest.splitlines() if l.startswith("probe_chars=")
        )
        save_checkpoint(model, again, probe_chars)
        reloaded = load_checkpoint(again)
        for p, q in zip(model.parameters(), reloaded.parameters()):
            np.testing.assert_array_equal(p.data, q.data)

    def test_tamper_detection(self, trained, tmp_path):
        import shutil

        copy = tmp_path / "tampered"
        shutil.copytree(trained, copy)
        victim = next(copy.glob("*gates_w.f32"))
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(copy)

    def test_manifest_file_mismatch(self, trained, tmp_path):
        import shutil

        copy = tmp_path / "extra"
        shutil.copytree(trained, copy)
        (copy / "rogue_tensor.f32").write_bytes(b"\x00" * 8)
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(copy)

    def test_train_words_persisted(self, trained, corpus_dir):
        words = load_train_words(trained)
        assert words == word_set(read_corpus(corpus_dir / "train.txt"))


def test_float32_round_trip(tmp_path, rng):
    # a float32-mode model round-trips bit-identically vs its own forward
    sents = [to_bmes(["中国", "人"]), to_bmes(["学院"])]
    uni, bi = build_vocabs([s.chars for s in sents])
    ut = EmbeddingTable.random(uni, 4, rng, dtype=np.float32, name="unigram_embeddings")
    bt = EmbeddingTable.random(bi, 4, rng, dtype=np.float32, name="bigram_embeddings")
    model = SegmenterModel.create("baseline", ut, bt, 5, rng, dtype=np.float32)
    before = model.emission_matrix(tuple("中国人")).copy()
    save_checkpoint(model, tmp_path / "ck", "中国人")
    loaded = load_checkpoint(tmp_path / "ck")
    after = loaded.emission_matrix(tuple("中国人"))
    np.testing.assert_array_equal(before.astype("<f4"), after.astype("<f4"))


def _tiny_float64_model(rng, mode="baseline"):
    sents = [to_bmes(["中国", "人"]), to_bmes(["学院"])]
    uni, bi = build_vocabs([s.chars for s in sents])
    ut = EmbeddingTable.random(uni, 4, rng, name="unigram_embeddings")
    bt = EmbeddingTable.random(bi, 4, rng, name="bigram_embeddings")
    return SegmenterModel.create(mode, ut, bt, 5, rng)


def test_probe_with_line_separator_round_trips(tmp_path, rng):
    # U+2028 is a line boundary for str.splitlines() but not for the manifest
    model = _tiny_float64_model(rng)
    probe = "中\u2028国人"
    save_checkpoint(model, tmp_path / "ck", probe)
    load_checkpoint(tmp_path / "ck")  # verifies the probe
    manifest = (tmp_path / "ck" / "manifest.txt").read_text(encoding="utf-8")
    assert f"probe_chars={probe}\n" in manifest


def test_save_leaves_model_unchanged(tmp_path, rng):
    model = _tiny_float64_model(rng)
    for p in model.parameters():
        p.grad[...] = 0.25
    before = [(p.data.copy(), p.grad.copy()) for p in model.parameters()]
    save_checkpoint(model, tmp_path / "ck", "中国人")
    for p, (data, grad) in zip(model.parameters(), before):
        np.testing.assert_array_equal(p.data, data)
        np.testing.assert_array_equal(p.grad, grad)


def test_reserved_symbols_in_lexicon_round_trip(tmp_path, rng):
    # a vocabulary holds <unk> and </s> once, in its reserved rows, so the
    # lexicon drops them: the trained and the reloaded model match alike
    chars = tuple("x</s>ab<unk>")
    uni, bi = build_vocabs([chars])
    ut = EmbeddingTable.random(uni, 4, rng, dtype=np.float32, name="unigram_embeddings")
    bt = EmbeddingTable.random(bi, 4, rng, dtype=np.float32, name="bigram_embeddings")
    trie, lvocab = prepare_lexicon(["</s>", "ab", "<unk>", "cd"])
    assert trie.symbols == ["ab", "cd"] and lvocab.symbols()[2:] == trie.symbols
    lt = EmbeddingTable.random(lvocab, 4, rng, dtype=np.float32, name="lexicon_embeddings")
    model = SegmenterModel.create(
        "lattice-word", ut, bt, 5, rng, lexicon_table=lt, trie=trie, dtype=np.float32
    )
    save_checkpoint(model, tmp_path / "ck", "".join(chars))
    loaded = load_checkpoint(tmp_path / "ck")
    assert loaded.trie.symbols == model.trie.symbols
    assert len(loaded.match(chars)) == len(model.match(chars)) == 1
    assert loaded.emission_matrix(chars).tobytes() == model.emission_matrix(chars).tobytes()
