"""CLI flows and checkpoint persistence on a small synthetic corpus."""

import contextlib
import filecmp
import io
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latseg import bpe, checkpoint, synth
from latseg.checkpoint import load_checkpoint, load_train_words, save_checkpoint
from latseg.cli import _build_model, load_config_file, main
from latseg.data import SENTINEL, UNK, EmbeddingTable, build_vocabs, from_bmes, read_corpus, to_bmes, word_set
from latseg.errors import CheckpointError, ConfigError, NumericError, UsageError
from latseg.lexicon import read_lexicon
from latseg.model import SegmenterModel, prepare_lexicon
from latseg.tensor import _acc
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


GOLDEN = Path(__file__).parent / "fixtures" / "golden"


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

    def test_an_update_that_overflows_exits_three_and_saves_nothing(self, tmp_path, capsys):
        # float32 updates of lr0=1e39 overflowed; train printed "saved" over nine non-finite tensors
        corpus, cfg, out = tmp_path / "one.txt", tmp_path / "big.cfg", tmp_path / "model"
        corpus.write_text("中国 人\n", encoding="utf-8")
        cfg.write_text("dtype=float32\nlr0=1e39\nepochs=1\n", encoding="utf-8")
        rc = run(["train", "--train", corpus, "--dev", corpus, "--config", cfg, "--out", out])
        err = capsys.readouterr().err
        assert rc == 3
        assert re.fullmatch(r"latseg: non-finite (update|gradient) in tensor \w+\n", err)
        assert not out.exists()

    def test_a_config_with_a_byte_order_mark_reads_as_without(self, corpus_dir, tmp_path):
        # the BOM joined the first line, which was then refused as an unknown entry
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + (corpus_dir / "config.txt").read_bytes())
        values = load_config_file(corpus_dir / "config.txt")
        assert load_config_file(bom) == values and values["hidden"] == 8

    def test_out_of_memory_is_one_line_and_exit_one(self, corpus_dir, tmp_path, capsys, monkeypatch):
        # it was a traceback; a real one comes from, say, hidden=100000 (a 224 GiB table)
        def train(*args, **kwargs):
            raise MemoryError("Unable to allocate 224. GiB for an array")

        monkeypatch.setattr("latseg.cli.train", train)
        rc = run([
            "train", "--train", corpus_dir / "train.txt", "--dev", corpus_dir / "dev.txt",
            "--config", corpus_dir / "config.txt", "--out", tmp_path / "m",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "latseg: out of memory: Unable to allocate 224. GiB for an array\n"
        assert not (tmp_path / "m").exists()

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

    @pytest.mark.parametrize("value", ["nan", "-inf", "1e999"])
    def test_non_finite_embedding_is_format_error(self, corpus_dir, tmp_path, capsys, value):
        # a lexicon row that no training sentence looks up would keep the value for good
        (tmp_path / "lex.txt").write_text("天地\n", encoding="utf-8")
        emb = tmp_path / "lex.vec"  # row 1 is no lexicon entry's, so it is never parsed
        emb.write_text("zz nan 2 3 4 5 6\n天地 1 2 " + value + " 4 5 6\n", encoding="utf-8")
        rc = run(["train", "--train", corpus_dir / "train.txt", "--dev", corpus_dir / "dev.txt",
                  "--mode", "lattice-word", "--lexicon", tmp_path / "lex.txt",
                  "--config", corpus_dir / "config.txt", "--lexicon-emb", emb,
                  "--out", tmp_path / "m", "--epochs", "1"])
        assert rc == 2
        assert capsys.readouterr().err == f"latseg: {emb}: row 2: 天地 has a value that is not finite\n"
        assert not (tmp_path / "m").exists()

    def test_a_lexicon_symbol_ending_in_cr_is_refused_before_training(self, corpus_dir, tmp_path, capsys):
        # lexicon.vocab would keep the CR, and a load would read the symbol back without it
        lexicon = tmp_path / "lex.txt"
        lexicon.write_bytes((corpus_dir / "lexicon.txt").read_bytes() + "羊地\r\t5\n".encode())
        line = len(read_lexicon(corpus_dir / "lexicon.txt")) + 1
        rc = run(["train", "--train", corpus_dir / "train.txt", "--dev", corpus_dir / "dev.txt",
                  "--mode", "lattice-word", "--lexicon", lexicon,
                  "--config", corpus_dir / "config.txt", "--out", tmp_path / "m", "--epochs", "1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"latseg: {lexicon}: line {line}: U+000D")
        assert not (tmp_path / "m").exists()

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

    def test_synth_vocab_beyond_distinct_words_is_config_error(self, tmp_path, capsys):
        # 30 letters spell 30 + 30**2 + 30**3 + 30**4 = 837,930 words of length 1 to 4
        assert run(["synth", "--out-dir", tmp_path / "c", "--vocab-size", "837931"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("latseg: ") and err.count("\n") == 1
        assert "837931" in err and "837930" in err
        assert not (tmp_path / "c").exists()

    def test_make_vocab_stops_at_distinct_words(self):
        # "ab" spells 2 + 4 + 8 + 16 = 30 words of length 1 to 4
        assert sorted(map(len, synth.make_vocab(30, alphabet="ab"))) == [1] * 2 + [2] * 4 + [3] * 8 + [4] * 16
        with pytest.raises(ConfigError, match="31 distinct words .* only 30"):
            synth.make_vocab(31, alphabet="ab")

    @pytest.mark.parametrize(
        "flags",
        [["--sentences", "0"], ["--sentences", "-5"], ["--sentences", "1"],
         ["--sentences", "2", "--dev-fraction", "0.9"]],
    )
    def test_empty_synth_split_is_config_error(self, tmp_path, capsys, flags):
        assert run(["synth", "--out-dir", tmp_path / "c", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("latseg: ") and err.count("\n") == 1 and "sentences" in err
        if flags == ["--sentences", "-5"]:
            assert "-5" in err  # the count the user gave
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

    def test_retrain_into_other_mode_replaces_the_checkpoint(self, corpus_dir, tmp_path):
        out = tmp_path / "m"
        common = ["train", "--train", corpus_dir / "train.txt", "--dev", corpus_dir / "dev.txt",
                  "--config", corpus_dir / "config.txt", "--out", out, "--epochs", "1"]
        assert run(common + ["--mode", "lattice-word", "--lexicon", corpus_dir / "lexicon.txt"]) == 0
        assert run(common + ["--mode", "baseline"]) == 0
        assert load_checkpoint(out).mode == "baseline"
        assert not list(out.glob("lexicon*")) and [p.name for p in tmp_path.iterdir()] == ["m"]

    def test_failed_save_leaves_the_old_checkpoint(self, corpus_dir, tmp_path, capsys, monkeypatch):
        out = tmp_path / "m"
        common = ["train", "--train", corpus_dir / "train.txt", "--dev", corpus_dir / "dev.txt",
                  "--config", corpus_dir / "config.txt", "--out", out, "--epochs", "1"]
        assert run(common + ["--mode", "lattice-word", "--lexicon", corpus_dir / "lexicon.txt"]) == 0
        write, written = checkpoint._write_tensor, []

        def third_fails(path, data):
            written.append(path)
            if len(written) == 3:
                raise OSError(f"{path}: no space left on device")
            write(path, data)

        monkeypatch.setattr(checkpoint, "_write_tensor", third_fails)
        capsys.readouterr()
        assert run(common + ["--mode", "baseline"]) == 2
        assert capsys.readouterr().err.endswith("no space left on device\n")
        assert load_checkpoint(out).mode == "lattice-word"  # probe verified
        assert [p.name for p in tmp_path.iterdir()] == ["m"]

    def test_a_report_write_that_fails_leaves_the_old_checkpoint_whole(
        self, corpus_dir, tmp_path, capsys, monkeypatch
    ):
        # the reports and train_words.txt used to be written into the live checkpoint after its swap
        out = tmp_path / "m"
        common = ["train", "--train", corpus_dir / "train.txt", "--dev", corpus_dir / "dev.txt",
                  "--config", corpus_dir / "config.txt", "--out", out, "--epochs", "1"]
        assert run(common + ["--mode", "lattice-word", "--lexicon", corpus_dir / "lexicon.txt"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert {"train_words.txt", "report.tsv", "report.txt"} <= set(before)
        write = checkpoint.write_lines

        def report_fails(path, lines):
            if Path(path).name == "report.txt":
                raise OSError(f"{path}: no space left on device")
            write(path, lines)

        monkeypatch.setattr(checkpoint, "write_lines", report_fails)
        capsys.readouterr()
        assert run(common + ["--mode", "baseline"]) == 2
        assert capsys.readouterr().err.endswith("no space left on device\n")
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert [p.name for p in tmp_path.iterdir()] == ["m"]
        assert run(["eval", "--model", out, "--gold", corpus_dir / "dev.txt"]) == 0
        assert "f1=" in capsys.readouterr().out

    def test_out_that_holds_no_checkpoint_is_refused_before_training(self, corpus_dir, tmp_path, capsys):
        taken = tmp_path / "taken"
        (taken / "sub").mkdir(parents=True)
        (taken / "notes.txt").write_text("not a checkpoint\n", encoding="utf-8")
        (taken / "sub" / "unigram_embeddings.f32").write_bytes(b"\x00" * 12)
        before = {p: p.read_bytes() for p in taken.rglob("*") if p.is_file()}
        rc = run(["train", "--train", corpus_dir / "train.txt", "--dev", corpus_dir / "dev.txt",
                  "--mode", "baseline", "--config", corpus_dir / "config.txt", "--out", taken, "--epochs", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "epoch " not in captured.out
        assert captured.err.startswith(f"latseg: {taken}: ") and captured.err.count("\n") == 1
        assert {p: p.read_bytes() for p in taken.rglob("*") if p.is_file()} == before
        assert sorted(p.name for p in taken.rglob("*")) == ["notes.txt", "sub", "unigram_embeddings.f32"]

    @pytest.mark.parametrize("kind", ["foreign manifest", "checkpoint with more files"])
    def test_out_that_is_not_only_a_checkpoint_is_refused_before_training(
        self, corpus_dir, trained, tmp_path, capsys, kind
    ):
        taken = tmp_path / "taken"
        if kind == "foreign manifest":
            taken.mkdir()
            (taken / "manifest.txt").write_text("name=a project\nversion=2\n", encoding="utf-8")
            (taken / "unigram.vocab").write_text("not a vocabulary\n", encoding="utf-8")
        else:
            shutil.copytree(trained, taken)
            (taken / "segmented.txt").write_text("人民 中国\n", encoding="utf-8")
            (taken / "runs").mkdir()
        before = {p: p.read_bytes() if p.is_file() else None for p in taken.rglob("*")}
        rc = run(["train", "--train", corpus_dir / "train.txt", "--dev", corpus_dir / "dev.txt",
                  "--mode", "baseline", "--config", corpus_dir / "config.txt", "--out", taken, "--epochs", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "epoch " not in captured.out
        assert captured.err.startswith(f"latseg: {taken}: ") and captured.err.count("\n") == 1
        if kind != "foreign manifest":
            assert "runs, segmented.txt" in captured.err
        assert {p: p.read_bytes() if p.is_file() else None for p in taken.rglob("*")} == before
        with pytest.raises(CheckpointError, match="segmented.txt" if kind != "foreign manifest" else "manifest"):
            save_checkpoint(load_checkpoint(trained), taken, "人民")
        assert {p: p.read_bytes() if p.is_file() else None for p in taken.rglob("*")} == before
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    @pytest.mark.parametrize("putting_back_fails", [False, True])
    def test_a_save_interrupted_between_its_renames_keeps_the_old_checkpoint(
        self, trained, tmp_path, monkeypatch, putting_back_fails
    ):
        out = tmp_path / "m"
        shutil.copytree(trained, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        rename, calls = checkpoint.Path.rename, []

        def interrupted(self, target):  # out aside succeeds; new into place is interrupted
            calls.append(self)
            if len(calls) == 2:
                raise RuntimeError("interrupted")
            if len(calls) == 3 and putting_back_fails:
                raise OSError(f"{self}: device busy")
            return rename(self, target)

        monkeypatch.setattr(checkpoint.Path, "rename", interrupted)
        expected = CheckpointError if putting_back_fails else RuntimeError
        with pytest.raises(expected, match="old checkpoint is kept at" if putting_back_fails else "interrupted") as exc:
            save_checkpoint(load_checkpoint(trained), out, "人民")
        monkeypatch.undo()
        assert len(calls) == 3
        kept = Path(str(exc.value).rsplit(" at ", 1)[1]) if putting_back_fails else out
        assert out.exists() != putting_back_fails
        assert {p.name: p.read_bytes() for p in kept.iterdir()} == before
        assert load_checkpoint(kept).mode == "lattice-word"  # probe verified
        if not putting_back_fails:
            assert [p.name for p in tmp_path.iterdir()] == ["m"]

    @pytest.mark.parametrize("under", [False, True])
    def test_out_that_is_a_file_is_refused_before_training(self, corpus_dir, tmp_path, capsys, under):
        taken = tmp_path / "taken"
        taken.write_text("not a checkpoint\n", encoding="utf-8")
        rc = run(["train", "--train", corpus_dir / "train.txt", "--dev", corpus_dir / "dev.txt",
                  "--mode", "baseline", "--config", corpus_dir / "config.txt",
                  "--out", taken / "m" if under else taken, "--epochs", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "epoch " not in captured.out
        assert captured.err == f"latseg: {taken}: not a directory\n"
        assert taken.read_text(encoding="utf-8") == "not a checkpoint\n"


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
        assert model.trie.symbols

    def test_training_saving_and_loading_never_import_numpy_ma(self, corpus_dir, tmp_path):
        # np.unique imports numpy.ma on first use (10-17 ms a process); the SGD
        # step and the save's probe called it
        script = (
            "import sys\n"
            "from latseg.checkpoint import load_checkpoint\n"
            "from latseg.cli import main\n"
            "d, out = sys.argv[1:]\n"
            "assert main(['bpe-learn', '--corpus', d + '/train.txt', '--merges', '40',\n"
            "             '--out', out + '.bpe', '--lexicon-out', out + '.tsv']) == 0\n"
            "assert main(['train', '--train', d + '/train.txt', '--dev', d + '/dev.txt',\n"
            "             '--mode', 'lattice-subword', '--lexicon', out + '.tsv', '--config',\n"
            "             d + '/config.txt', '--out', out, '--epochs', '1']) == 0\n"
            "assert load_checkpoint(out).trie.symbols\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script, str(corpus_dir), str(tmp_path / "model")],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"


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

    @pytest.mark.parametrize("space", [" ", "\t", "\u3000"], ids=["space", "tab", "ideographic"])
    def test_whitespace_in_raw_line_is_data_error(self, trained, tmp_path, capsys, space):
        # the output joins words with spaces, so a word holding one would read back as two
        inp = tmp_path / "raw.txt"
        inp.write_text(f"天地人\n天地{space}人\n", encoding="utf-8")
        out = tmp_path / "o.txt"
        rc = run(["segment", "--model", trained, "--input", inp, "--output", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"latseg: {inp}: line 2: ") and err.count("\n") == 1
        assert not out.exists()

    def test_a_byte_order_mark_is_not_part_of_the_first_line(self, trained, tmp_path):
        # it was segmented as a character of line 1
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_bytes("天地人山\n水火\n".encode("utf-8"))
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for inp in (plain, bom):
            assert run(["segment", "--model", trained, "--input", inp, "--output", inp.with_suffix(".seg")]) == 0
        assert bom.with_suffix(".seg").read_bytes() == plain.with_suffix(".seg").read_bytes()

    def test_a_lone_cr_in_a_raw_line_is_data_error(self, trained, tmp_path, capsys):
        # a CR used to end the line: segment exited 0 and wrote 3 lines for 2
        inp = tmp_path / "raw.txt"
        inp.write_bytes("天地人山\r水火\n天地\n".encode("utf-8"))
        out = tmp_path / "o.txt"
        assert run(["segment", "--model", trained, "--input", inp, "--output", out]) == 2
        err = capsys.readouterr().err
        assert err == f"latseg: {inp}: line 1: U+000D in raw text\n"
        assert not out.exists()

    # corpus characters and characters outside the vocabulary, in lines of
    # length 0, 1, 200 or a few, each maybe holding one separator or lone CR
    _char = st.sampled_from(synth.ALPHABET + "龘x😀")
    _line = st.tuples(
        st.one_of(st.just(""), st.text(_char, min_size=1, max_size=1),
                  st.text(_char, min_size=200, max_size=200), st.text(_char, max_size=12)),
        st.one_of(st.just(""), st.sampled_from("\u3000\u00a0\u2028\r")),
        st.integers(0, 200),
    )

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_line, min_size=1, max_size=5))
    def test_fuzzed_input_segments_whole_or_is_data_error(self, trained, tmp_path_factory, drawn):
        lines = [text[:at] + odd + text[at:] for text, odd, at in drawn]
        work = tmp_path_factory.mktemp("fuzz")
        inp, out = work / "raw.txt", work / "seg.txt"
        inp.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run(["segment", "--model", trained, "--input", inp, "--output", out])
        kept = [line.removesuffix("\r") for line in lines]  # a CR before the line feed ends the line
        if any(c.isspace() for line in kept for c in line):
            assert rc == 2 and err.getvalue().count("\n") == 1 and not out.exists()
        else:
            assert rc == 0 and err.getvalue() == ""
            got = out.read_text(encoding="utf-8").split("\n")
            assert [seg.replace(" ", "") for seg in got[:-1]] == kept and got[-1] == ""

    def test_cr_lf_input_segments_as_lf_input(self, trained, tmp_path):
        outs = []
        for newline in ("\n", "\r\n"):
            inp, out = tmp_path / f"raw{len(outs)}.txt", tmp_path / f"seg{len(outs)}.txt"
            inp.write_bytes(newline.join(["天地人山", "", "水火"]).encode("utf-8") + newline.encode())
            assert run(["segment", "--model", trained, "--input", inp, "--output", out]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] and outs[0].count(b"\n") == 3 and b"\r" not in outs[0]

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

    @pytest.mark.parametrize(
        "prefix, replacement",
        [("tensor=fwd_shortcut_w:", None), ("hidden=", None), ("hidden=", "hidden=x"),
         ("mode=", "mode=bogus"), ("max_word_len=", None), ("probe_chars=", None),
         ("probe_emissions=", None), ("probe_", None)],
        ids=["missing-tensor", "missing-hidden", "unparsable-hidden", "unknown-mode", "missing-max-word-len",
             "missing-probe-chars", "missing-probe-emissions", "missing-probe"],
    )
    def test_malformed_manifest_is_checkpoint_error(
        self, corpus_dir, trained, tmp_path, capsys, prefix, replacement
    ):
        ckpt = tmp_path / "model"
        shutil.copytree(trained, ckpt)
        if prefix.startswith("tensor="):  # the manifest must still list every tensor file
            (ckpt / "fwd_shortcut_w.f32").unlink()
        manifest = ckpt / "manifest.txt"
        lines = manifest.read_text(encoding="utf-8").split("\n")
        lines = [replacement if l.startswith(prefix) else l for l in lines]
        manifest.write_text("\n".join(l for l in lines if l is not None), encoding="utf-8")
        out = tmp_path / "o.txt"
        rc = run(["segment", "--model", ckpt, "--input", corpus_dir / "dev.txt", "--output", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"latseg: {ckpt}: ") and err.count("\n") == 1
        assert "manifest" in err

    @pytest.mark.parametrize("head", [b"\xef", b"\xef\xbb"], ids=["ef", "ef-bb"])
    def test_a_cut_byte_order_mark_is_data_error(self, trained, tmp_path, capsys, head):
        # it read as an empty file, and segment wrote an empty output
        inp, out = tmp_path / "raw.txt", tmp_path / "seg.txt"
        inp.write_bytes(head)
        assert run(["segment", "--model", trained, "--input", inp, "--output", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"latseg: {inp}: 'utf-8' codec can't decode") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "line",
        ["{c}{c}{c}", "{c}", "", "Ω{c}", "{c}Ω", "Ω" + SENTINEL, "{c}" + UNK, "{c}</S>", "{c}{c}" + SENTINEL,
         SENTINEL, "repeat"],
        ids=["three-chars", "one-char", "empty", "unknown-left", "unknown-right", "unknown-then-sentinel",
             "reserved-suffix", "not-the-sentinel", "two-then-sentinel", "sentinel-alone", "repeated"],
    )
    def test_a_bigram_line_that_is_no_pair_of_unigrams_is_checkpoint_error(
        self, corpus_dir, trained, tmp_path, capsys, line
    ):
        ckpt = tmp_path / "model"
        shutil.copytree(trained, ckpt)
        char = (ckpt / "unigram.vocab").read_text(encoding="utf-8").split("\n")[2]
        vocab = ckpt / "bigram.vocab"
        lines = vocab.read_text(encoding="utf-8").split("\n")
        lines[3] = lines[2] if line == "repeat" else line.format(c=char)
        vocab.write_text("\n".join(lines), encoding="utf-8")
        out = tmp_path / "o.txt"
        rc = run(["segment", "--model", ckpt, "--input", corpus_dir / "dev.txt", "--output", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"latseg: {vocab}: ") and err.count("\n") == 1
        assert ("listed twice" if line == "repeat" else "line 4: not two characters of unigram.vocab") in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, why",
        [("", "under two characters"), ("Ω", "under two characters"), ("repeat", "listed before"),
         (UNK, "reserved")],
        ids=["empty", "one-char", "repeated", "reserved"],
    )
    @pytest.mark.parametrize("at", [3, -2], ids=["line-4", "last-line"])  # the file ends with a newline
    def test_lexicon_vocab_off_the_trie_is_checkpoint_error(
        self, corpus_dir, trained, tmp_path, capsys, line, why, at
    ):
        ckpt = tmp_path / "model"
        shutil.copytree(trained, ckpt)
        vocab = ckpt / "lexicon.vocab"
        lines = vocab.read_text(encoding="utf-8").split("\n")
        lines[at] = lines[2] if line == "repeat" else line
        vocab.write_text("\n".join(lines), encoding="utf-8")
        out = tmp_path / "o.txt"
        rc = run(["segment", "--model", ckpt, "--input", corpus_dir / "dev.txt", "--output", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"latseg: {vocab}: line {at % len(lines) + 1}: ") and err.count("\n") == 1
        assert err.endswith(f"gets no row: {why}\n")
        assert not out.exists()

    def test_a_repeated_unigram_line_is_refused_with_its_number(self, corpus_dir, trained, tmp_path, capsys):
        ckpt = tmp_path / "model"
        shutil.copytree(trained, ckpt)
        vocab = ckpt / "unigram.vocab"
        lines = vocab.read_text(encoding="utf-8").split("\n")
        lines[3] = lines[2]
        vocab.write_text("\n".join(lines), encoding="utf-8")
        rc = run(["segment", "--model", ckpt, "--input", corpus_dir / "dev.txt", "--output", tmp_path / "o.txt"])
        assert rc == 2
        assert capsys.readouterr().err == f"latseg: {vocab}: line 4: {lines[2]!r} gets no row: listed before\n"

    def test_vocab_longer_than_table_is_checkpoint_error(self, corpus_dir, trained, tmp_path, capsys):
        # one more unigram symbol than embedding rows: refused at load, not at
        # the first input line that holds the new symbol
        ckpt = tmp_path / "model"
        shutil.copytree(trained, ckpt)
        with open(ckpt / "unigram.vocab", "a", encoding="utf-8") as fh:
            fh.write("Ω\n")
        manifest = ckpt / "manifest.txt"
        lines = manifest.read_text(encoding="utf-8").split("\n")
        for k, line in enumerate(lines):
            key, _, size = line.partition("=")
            if key == "unigram_vocab_size":
                lines[k] = f"{key}={int(size) + 1}"
        manifest.write_text("\n".join(lines), encoding="utf-8")
        inp = tmp_path / "raw.txt"
        inp.write_text("Ω\n", encoding="utf-8")
        rc = run(["segment", "--model", ckpt, "--input", inp, "--output", tmp_path / "o.txt"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"latseg: {ckpt}: ") and err.count("\n") == 1
        assert "unigram_embeddings" in err and "unigram.vocab" in err

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

    def test_checkpoint_without_train_words_is_data_error(self, corpus_dir, trained, tmp_path, capsys):
        # it used to exit 0 and report every gold word as out of vocabulary (r_iv=0, n_iv=0)
        ckpt = tmp_path / "model"
        shutil.copytree(trained, ckpt)
        (ckpt / "train_words.txt").unlink()
        assert run(["eval", "--model", ckpt, "--gold", corpus_dir / "dev.txt"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("latseg: ") and captured.err.count("\n") == 1
        assert str(ckpt / "train_words.txt") in captured.err

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

    def test_bucket_width_below_one_is_refused_before_the_load(self, corpus_dir, tmp_path, capsys):
        # the width used to be checked after the load and the decode: a missing model exited 2
        rc = run(["eval", "--model", tmp_path / "nope", "--gold", corpus_dir / "dev.txt", "--bucket-width", "0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "latseg: bucket width must be >= 1, got 0\n"

    # gold files of up to three well-formed lines of corpus characters and
    # characters outside the vocabulary, and maybe one odd line: words joined
    # by other whitespace, leading or trailing spaces, tabs, U+3000, U+00A0
    # or a lone CR, or a blank line
    _word = st.text(st.sampled_from(synth.ALPHABET + "龘x😀"), min_size=1, max_size=4)
    _odd = st.sampled_from(["  ", "   ", "\t", "\u3000", "\u00a0", "\r", " \r"])
    _odd_line = st.one_of(
        st.tuples(st.sampled_from(["", " ", "\t", "\u3000"]), st.lists(st.tuples(_word, st.one_of(st.just(" "), _odd)),
                  min_size=1, max_size=4), st.sampled_from(["", " ", "\r", "\u00a0"]))
        .map(lambda t: t[0] + "".join(w + sep for w, sep in t[1])[:-1] + t[2]),
        st.sampled_from(["", " ", "\r", "\u3000"]),
    )

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(_word, min_size=1, max_size=5).map(" ".join), max_size=3),
           st.one_of(st.none(), _odd_line), st.integers(0, 3))
    def test_fuzzed_gold_reports_every_word_or_is_data_error(self, trained, tmp_path_factory, lines, odd, at):
        lines = lines[:at] + [odd] * (odd is not None) + lines[at:]
        gold = tmp_path_factory.mktemp("fuzz") / "gold.txt"
        gold.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run(["eval", "--model", trained, "--gold", gold])
        kept = [line for line in (line.removesuffix("\r") for line in lines) if line.strip()]
        words = [line.split(" ") for line in kept]
        if kept and all("" not in ws and not any(c.isspace() for w in ws for c in w) for ws in words):
            assert rc == 0 and err.getvalue() == ""
            values = dict(line.split("=", 1) for line in out.getvalue().splitlines())
            assert 0.0 <= float(values["f1"]) <= 1.0
            assert int(values["n_iv"]) + int(values["n_oov"]) == sum(map(len, words))
        else:
            assert rc == 2 and out.getvalue() == "" and err.getvalue().count("\n") == 1


@pytest.mark.parametrize("command", ["eval", "coverage"])
@pytest.mark.parametrize("text", ["", "\n \n\t\n"], ids=["empty", "blank-lines"])
def test_gold_without_sentences_is_data_error(corpus_dir, trained, tmp_path, capsys, command, text):
    # both used to exit 0 with f1=0.000000 or ratio=0.0000
    gold = tmp_path / "gold.txt"
    gold.write_text(text, encoding="utf-8")
    other = ["--model", trained] if command == "eval" else ["--lexicon", corpus_dir / "lexicon.txt"]
    assert run([command, "--gold", gold, *other]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"latseg: {gold}: no gold sentences\n"


class TestBpeAndCoverage:
    def test_bpe_learn_zero_merges(self, corpus_dir, tmp_path):
        out = tmp_path / "model.bpe"
        rc = run(["bpe-learn", "--corpus", corpus_dir / "train.txt", "--merges", "0", "--out", out])
        assert rc == 0
        assert out.read_text(encoding="utf-8").startswith("bpe-v1 0")

    def test_bpe_learn_negative_merges_is_config_error(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "model.bpe"
        rc = run(["bpe-learn", "--corpus", corpus_dir / "train.txt", "--merges", "-1", "--out", out])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("latseg: ") and err.count("\n") == 1 and "merge" in err
        assert not out.exists()

    def test_bpe_learn_drops_all_whitespace(self, tmp_path):
        corpus = tmp_path / "raw.txt"
        corpus.write_text("ab\tab\tab\nab\u3000ab ab\nab\u2028abab\n" * 3, encoding="utf-8")
        out = tmp_path / "model.bpe"
        lex = tmp_path / "lex.tsv"
        rc = run(["bpe-learn", "--corpus", corpus, "--merges", "10", "--out", out, "--lexicon-out", lex])
        assert rc == 0
        model = bpe.learn_bpe(["ababab"] * 9, 10)
        assert out.read_text(encoding="utf-8").split("\n") == [
            f"bpe-v1 {model.merge_count}", *map("\t".join, model.merges), ""
        ]
        symbols = read_lexicon(lex)
        assert symbols == [sym for sym, _ in bpe.extract_lexicon(model)]
        assert symbols and not any(ch.isspace() for sym in symbols for ch in sym)

    def test_bpe_learn_keeps_a_line_with_a_lone_cr_whole(self, tmp_path):
        # split at its CR, each line held one character and no pair
        corpus, out = tmp_path / "raw.txt", tmp_path / "model.bpe"
        corpus.write_bytes(b"a\rb\na\rb\n")
        assert run(["bpe-learn", "--corpus", corpus, "--merges", "5", "--out", out]) == 0
        assert out.read_text(encoding="utf-8") == "bpe-v1 1\na\tb\n"

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


@pytest.mark.parametrize(
    "command, flag",
    [("train", "--train"), ("train", "--dev"), ("train", "--lexicon"), ("train", "--config"),
     ("segment", "--input"), ("eval", "--gold"), ("bpe-learn", "--corpus"),
     ("coverage", "--gold"), ("coverage", "--lexicon")],
)
def test_non_utf8_input_is_data_error(corpus_dir, trained, tmp_path, capsys, command, flag):
    args = {
        "train": {"--train": corpus_dir / "train.txt", "--dev": corpus_dir / "dev.txt", "--mode": "lattice-word",
                  "--lexicon": corpus_dir / "lexicon.txt", "--config": corpus_dir / "config.txt",
                  "--out": tmp_path / "m"},
        "segment": {"--model": trained, "--input": None, "--output": tmp_path / "seg.txt"},
        "eval": {"--model": trained, "--gold": None},
        "bpe-learn": {"--corpus": None, "--merges": 5, "--out": tmp_path / "model.bpe"},
        "coverage": {"--gold": corpus_dir / "train.txt", "--lexicon": corpus_dir / "lexicon.txt"},
    }[command]
    args[flag] = tmp_path / "latin1.txt"
    args[flag].write_bytes(b"\xff\n")
    assert run([command, *(v for pair in args.items() for v in pair)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("latseg: ") and err.count("\n") == 1 and "Traceback" not in err
    assert "can't decode byte 0xff" in err and f"{args[flag]}: " in err


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

    def test_partial_value_names_the_tensor_file(self, trained, tmp_path):
        # it used to be reported as a malformed manifest
        copy = tmp_path / "partial"
        shutil.copytree(trained, copy)
        victim = copy / "crf_transitions.f32"
        size = victim.stat().st_size
        with open(victim, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(copy)
        assert str(info.value).startswith(f"{victim}: ") and f"{size - 8 + 1} bytes" in str(info.value)
        assert "manifest" not in str(info.value)

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


@pytest.mark.parametrize("probe", ["中国\r", "中\n国"], ids=["trailing-cr", "line-feed"])
def test_probe_holding_a_line_break_is_refused_before_writing(tmp_path, rng, probe):
    # the line-based manifest would read it back cut or stripped, and the save would never load
    model = _tiny_float64_model(rng)
    ck = tmp_path / "ck"
    save_checkpoint(model, ck, "中国人")
    before = {f.name: f.read_bytes() for f in ck.iterdir()}
    with pytest.raises(UsageError, match="probe"):
        save_checkpoint(model, ck, probe)
    assert list(tmp_path.iterdir()) == [ck]
    assert {f.name: f.read_bytes() for f in ck.iterdir()} == before


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_tensor_is_refused_before_writing(tmp_path, rng, value):
    model = _tiny_float64_model(rng)
    ck = tmp_path / "ck"
    save_checkpoint(model, ck, "中国人")
    before = {f.name: f.read_bytes() for f in ck.iterdir()}
    model.crf.transitions.data[1, 2] = value
    with pytest.raises(NumericError, match="tensor crf_transitions holds a value that is not finite"):
        save_checkpoint(model, ck, "中国人")
    assert list(tmp_path.iterdir()) == [ck]
    assert {f.name: f.read_bytes() for f in ck.iterdir()} == before


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_resaving_a_golden_checkpoint_writes_its_vocab_bytes(dtype, tmp_path):
    # the bigram index writes its rows back as the strings the fixture holds
    ckpt = GOLDEN / f"lattice-word-{dtype}"
    save_checkpoint(load_checkpoint(ckpt), tmp_path / "again", "中国")
    for name in ("unigram.vocab", "bigram.vocab", "lexicon.vocab"):
        assert (tmp_path / "again" / name).read_bytes() == (ckpt / name).read_bytes(), name


def test_bigram_index_memory_per_bigram(tmp_path):
    # the string-keyed bigram Vocab held about 145 bytes per bigram when built,
    # and a load built another one
    rng = np.random.default_rng(5)
    alphabet = np.array([chr(0x4E00 + k) for k in range(3000)])
    corpus = ["".join(rng.choice(alphabet, 30)) for _ in range(2000)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        uni, bi = build_vocabs(corpus)
        built = tracemalloc.get_traced_memory()[0] - base
        tables = [EmbeddingTable.random(v, 1, rng, dtype=np.float32, name=f"{name}_embeddings")
                  for v, name in ((uni, "unigram"), (bi, "bigram"))]
        save_checkpoint(SegmenterModel.create("baseline", *tables, 1, rng, dtype=np.float32), tmp_path / "ck",
                        corpus[0])
        base = tracemalloc.get_traced_memory()[0]
        loaded = load_checkpoint(tmp_path / "ck")
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(loaded.bigram_table.vocab) == len(bi) > 55_000
    assert built / len(bi) < 40 and held / len(bi) < 40, (built / len(bi), held / len(bi))


def test_loaded_lexicon_memory_per_entry(tmp_path):
    # a load that built a Vocab of the lexicon beside its trie held 312 bytes
    # an entry here; with the trie as the table's vocabulary it holds 264
    draw = random.Random(11)
    alphabet = [chr(0x4E00 + k) for k in range(3500)]
    words = ["".join(draw.choices(alphabet, k=draw.randint(2, 4))) for _ in range(20_000)]
    corpus = ["".join(draw.choices(words, k=6)) for _ in range(50)]
    rng = np.random.default_rng(11)
    trie, lvocab = prepare_lexicon(words)
    uni, bi = build_vocabs(corpus)
    tables = [EmbeddingTable.random(v, 1, rng, dtype=np.float32, name=f"{name}_embeddings")
              for v, name in ((uni, "unigram"), (bi, "bigram"), (lvocab, "lexicon"))]
    model = SegmenterModel.create("lattice-word", tables[0], tables[1], 1, rng, lexicon_table=tables[2], trie=trie,
                                  dtype=np.float32)
    save_checkpoint(model, tmp_path / "ck", corpus[0])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loaded = load_checkpoint(tmp_path / "ck")
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert loaded.lexicon_table.vocab is loaded.trie and loaded.trie.symbols == trie.symbols
    assert len(trie.symbols) > 19_000 and held / len(trie.symbols) < 290, held / len(trie.symbols)


def test_save_leaves_model_unchanged(tmp_path, rng):
    model = _tiny_float64_model(rng)
    for p in model.parameters():
        _acc(p, np.full(p.shape, 0.25))
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
    assert trie.symbols == ["ab", "cd"] and lvocab is trie and list(lvocab)[2:] == trie.symbols
    lt = EmbeddingTable.random(lvocab, 4, rng, dtype=np.float32, name="lexicon_embeddings")
    model = SegmenterModel.create(
        "lattice-word", ut, bt, 5, rng, lexicon_table=lt, trie=trie, dtype=np.float32
    )
    save_checkpoint(model, tmp_path / "ck", "".join(chars))
    loaded = load_checkpoint(tmp_path / "ck")
    assert loaded.trie.symbols == model.trie.symbols
    assert len(loaded.match(chars)) == len(model.match(chars)) == 1
    assert loaded.emission_matrix(chars).tobytes() == model.emission_matrix(chars).tobytes()


def _reference_tensor_bytes(a: np.ndarray) -> bytes:
    return np.uint64(a.size).astype("<u8").tobytes() + np.ascontiguousarray(a, "<f4").tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("size", [1, 6, 7, 8, 29], ids=["one", "block-1", "block", "block+1", "blocks"])
def test_tensor_io_at_block_edges(tmp_path, monkeypatch, rng, dtype, size):
    monkeypatch.setattr(checkpoint, "BLOCK", 7)
    a = rng.standard_normal(size).astype(dtype)
    shape = (size,) if size % 2 else (2, size // 2)
    a = a.reshape(shape)
    path = tmp_path / "t.f32"
    checkpoint._write_tensor(path, a)
    assert path.read_bytes() == _reference_tensor_bytes(a)
    got = checkpoint._read_tensor(path, shape, dtype)
    assert got.dtype == dtype and got.shape == shape
    assert got.tobytes() == a.astype("<f4").astype(dtype).tobytes()


@pytest.mark.parametrize(
    "body, message",
    [
        (lambda ref: ref[:5], "truncated tensor file"),
        (lambda ref: ref[:-4], "expected 9 values, header says 9, file has 8$"),
        (lambda ref: ref + ref[-4:], "expected 9 values, header says 9, file has 10$"),
        (lambda ref: ref + b"\x00", "file has 37 bytes of values, not a multiple of 4$"),
    ],
    ids=["short-header", "short-body", "trailing-values", "partial-value"],
)
def test_tensor_file_refusals(tmp_path, monkeypatch, body, message):
    monkeypatch.setattr(checkpoint, "BLOCK", 4)
    path = tmp_path / "t.f32"
    path.write_bytes(body(_reference_tensor_bytes(np.arange(9.0))))
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: .*{message}"):
        checkpoint._read_tensor(path, (3, 3), np.float64)


def _wide_table_model(dtype):
    """A baseline model whose 514 x 2,048 unigram values dominate its parameters."""
    rng = np.random.default_rng(5)
    chars = tuple(chr(0x4E00 + k) for k in range(512))
    uni, bi = build_vocabs([chars])
    ut = EmbeddingTable.random(uni, 1 << 11, rng, dtype=dtype, name="unigram_embeddings")
    bt = EmbeddingTable.random(bi, 2, rng, dtype=dtype, name="bigram_embeddings")
    model = SegmenterModel.create("baseline", ut, bt, 1, rng, dtype=dtype)
    assert ut.rows.data.size >= 1 << 20
    return model, chars


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_save_and_load_hold_the_parameters_once(tmp_path, dtype):
    # a load may hold the unigram values once, as the stored float32 even for
    # a float64 model, and no bytes or widened copy. A save holds no copy of
    # them at all: blocks, and a probe model of the rows the probe sentence reads
    model, chars = _wide_table_model(dtype)
    param_bytes = sum(p.data.nbytes for p in model.parameters())
    stored_bytes = 4 * sum(p.data.size for p in model.parameters())
    tracemalloc.start()
    try:
        save_checkpoint(model, tmp_path / "ck", chars[0])
        _, save_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before_load, _ = tracemalloc.get_traced_memory()
        loaded = load_checkpoint(tmp_path / "ck")
        _, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert save_peak < 0.25 * param_bytes
    # a loaded model is for decoding: its tensors hold no gradient buffers
    assert all(p.grad is None for p in loaded.parameters())
    assert load_peak - before_load < 1.1 * stored_bytes


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_load_maps_float32_tensors_without_copying(tmp_path, dtype):
    # a load maps each tensor file: the tables are read-only views of their
    # files, and only a float64 model's small direction and CRF tensors are
    # widened into memory (copying every file peaked at 1.05x and 1.09x)
    model, chars = _wide_table_model(dtype)
    stored_bytes = 4 * sum(p.data.size for p in model.parameters())
    save_checkpoint(model, tmp_path / "ck", chars[0])
    tracemalloc.start()
    try:
        before_load, _ = tracemalloc.get_traced_memory()
        loaded = load_checkpoint(tmp_path / "ck")
        _, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert load_peak - before_load < 0.25 * stored_bytes
    for table in (loaded.unigram_table, loaded.bigram_table):
        assert table.rows.data.dtype == np.float32 and not table.rows.data.flags.writeable
        with pytest.raises(ValueError):
            table.rows.data[0, 0] = 1.0


def _tiny_float32_lattice_model(rng, chars):
    uni, bi = build_vocabs([chars])
    ut = EmbeddingTable.random(uni, 4, rng, dtype=np.float32, name="unigram_embeddings")
    bt = EmbeddingTable.random(bi, 4, rng, dtype=np.float32, name="bigram_embeddings")
    trie, lvocab = prepare_lexicon(["中国", "学院", "国人"])
    lt = EmbeddingTable.random(lvocab, 4, rng, dtype=np.float32, name="lexicon_embeddings")
    return SegmenterModel.create(
        "lattice-word", ut, bt, 5, rng, lexicon_table=lt, trie=trie, dtype=np.float32
    )


def test_a_loaded_model_outlives_a_save_into_its_directory(tmp_path, rng):
    # every tensor of a float32 model maps its file; the save renames the
    # directory aside and removes it, and the unlinked files stay mapped
    chars = tuple("中国人学院")
    first, second = (_tiny_float32_lattice_model(rng, chars) for _ in range(2))
    ck = tmp_path / "ck"
    save_checkpoint(first, ck, "".join(chars))
    loaded = load_checkpoint(ck)
    assert not any(p.data.flags.writeable for p in loaded.parameters())
    emissions = loaded.emission_matrix(chars).tobytes()
    labels = loaded.decode_many([chars, chars[:2]])
    save_checkpoint(second, ck, "".join(chars))
    assert list(tmp_path.iterdir()) == [ck]
    assert loaded.emission_matrix(chars).tobytes() == emissions
    assert loaded.decode_many([chars, chars[:2]]) == labels
    swapped = load_checkpoint(ck)  # verifies its own probe
    assert swapped.emission_matrix(chars).tobytes() != emissions


def test_segment_decodes_mixed_chunks_as_per_line_segment(corpus_dir, trained, tmp_path):
    # 150 lines, so 64-line chunks; each mixes empty, 1-character and 200-character lines
    text = "".join("".join(s.chars) for s in read_corpus(corpus_dir / "train.txt"))
    long_line = (text * (1 + 200 // len(text)))[:200]
    kinds = ["", text[0], long_line, text[3:40], text[7]]
    lines = [kinds[i % len(kinds)] for i in range(150)]
    inp, out = tmp_path / "raw.txt", tmp_path / "seg.txt"
    inp.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert run(["segment", "--model", trained, "--input", inp, "--output", out]) == 0
    model = load_checkpoint(trained)
    # each line decoded alone, as the command would without batches
    words = [from_bmes(line, model.decode(tuple(line)).labels) if line else [] for line in lines]
    expect = "".join(" ".join(w) + "\n" for w in words)
    assert out.read_text(encoding="utf-8") == expect


@settings(max_examples=25, deadline=None)
@given(st.integers(-2, 60), st.integers(-2, 1_000),
       st.sampled_from([math.nan, math.inf, 0.0, 1e-9, 0.5, 0.999999, 1.0]), st.integers(-2, 2**70))
def test_fuzzed_synth_writes_a_readable_split_or_is_config_error(tmp_path_factory, sentences, vocab_size, fraction, seed):
    # vocabulary sizes stay small: make_vocab draws words by rejection, so a size
    # near its 837,930-word limit needs on the order of 10^8 draws
    out = tmp_path_factory.mktemp("synth") / "c"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = run(["synth", "--out-dir", out, "--sentences", sentences, "--vocab-size", vocab_size,
                  "--dev-fraction", fraction, "--seed", seed])
    if rc == 0:
        assert read_corpus(out / "train.txt") and read_corpus(out / "dev.txt")
    else:
        assert rc == 1 and err.getvalue().startswith("latseg: ") and err.getvalue().count("\n") == 1
        assert not out.exists()


@pytest.fixture(scope="module")
def fuzz_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz-corpus")
    vocab = synth.make_vocab(20, seed=21)
    tr, dev = synth.split_corpus(synth.make_corpus(vocab, 12, seed=22, min_words=2, max_words=5), 0.25, seed=23)
    synth.write_corpus(out / "train.txt", tr)
    synth.write_corpus(out / "dev.txt", dev)
    text = ["".join(s) for s in tr + dev]
    bigrams = sorted({line[i : i + 2] for line in text for i in range(len(line) - 1)})
    (out / "lexicon.txt").write_text("".join(w + "\n" for w in vocab if len(w) >= 2), encoding="utf-8")
    (out / "bigrams.txt").write_text("".join(b + "\n" for b in bigrams), encoding="utf-8")
    return out


# at most one odd input: a whitespace-only or tabbed corpus line, an odd
# --unigram-emb row, a lexicon of every corpus bigram, or an out-of-range config value
_odd_train_input = st.one_of(
    st.none(),
    st.tuples(st.just("corpus"), st.sampled_from(["train.txt", "dev.txt"]), st.integers(0, 9),
              st.sampled_from([" ", "\t", "\u3000", "\u00a0", " \t\r", "天\t地", "天 \t地", "\t天"])),
    st.tuples(st.just("emb"), st.sampled_from(["天 nan 0.5", "天 inf 0.5", "天 0.5", "天 0.5 0.5 0.5", "2 2",
                                               "\ufeff天 0.5 0.5", "天 -inf 1e400", "龘 nan nan"])),
    st.tuples(st.just("lexicon")),
    st.tuples(st.just("config"), st.sampled_from([
        "hidden=0", "epochs=-1", "lr0=-1", "lr0=1e300", "lr_decay=nan", "char_dropout=1",
        "lattice_dropout=-0.1", "max_word_len=0", "max_word_len=1", "stop_f1=2", "dtype=float16",
        "unigram_dim=0", "seed=-1", "mode=lattice", "hidden=x", "epochs=1.5"])),
)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["baseline", "lattice-word"]), st.sampled_from(["float32", "float64"]), _odd_train_input)
# learning rates that overflow the CRF and encoder backwards: numpy must not warn before the one line
@example(mode="baseline", dtype="float64", odd=("config", "lr0=1e30"))
@example(mode="lattice-word", dtype="float64", odd=("config", "lr0=1e100"))
@example(mode="lattice-word", dtype="float32", odd=("config", "lr0=1e10"))
@example(mode="lattice-word", dtype="float64", odd=("config", "lr0=1e300"))
def test_fuzzed_train_saves_a_scorable_checkpoint_or_exits_with_one_line(fuzz_corpus, tmp_path_factory, mode, dtype, odd):
    work = tmp_path_factory.mktemp("fuzz-train")
    paths = {name: fuzz_corpus / name for name in ("train.txt", "dev.txt", "lexicon.txt")}
    config = [f"mode={mode}", f"dtype={dtype}", "hidden=2", "unigram_dim=2", "bigram_dim=2",
              "lexicon_dim=2", "epochs=1"]
    flags = []
    kind = odd[0] if odd else None
    if kind == "corpus":
        _, name, at, line = odd
        lines = (fuzz_corpus / name).read_text(encoding="utf-8").splitlines()
        paths[name] = work / name
        paths[name].write_bytes("".join(l + "\n" for l in lines[:at] + [line] + lines[at:]).encode("utf-8"))
    elif kind == "emb":
        emb = work / "emb.txt"
        emb.write_bytes(f"地 0.25 -0.25\n{odd[1]}\n".encode("utf-8"))
        flags = ["--unigram-emb", emb]
    elif kind == "lexicon":
        paths["lexicon.txt"] = fuzz_corpus / "bigrams.txt"
        config[0] = "mode=lattice-word"
    elif kind == "config":
        config.append(odd[1])
    (work / "fuzz.cfg").write_text("".join(l + "\n" for l in config), encoding="utf-8")
    if "mode=lattice-word" in config:
        flags += ["--lexicon", paths["lexicon.txt"]]
    out = work / "model"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run(["train", "--train", paths["train.txt"], "--dev", paths["dev.txt"], "--config", work / "fuzz.cfg",
                  "--out", out, "--seed", "5", *flags])
    assert rc in (0, 1, 2, 3)
    assert not [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]  # printed before the one line
    if rc:
        assert err.getvalue().startswith("latseg: ") and err.getvalue().count("\n") == 1
        return
    load_checkpoint(out)
    for tensor in out.glob("*.f32"):
        assert np.isfinite(np.fromfile(tensor, "<f4", offset=8)).all(), tensor.name
    with contextlib.redirect_stdout(io.StringIO()) as report:
        assert run(["eval", "--model", out, "--gold", fuzz_corpus / "dev.txt"]) == 0
    assert "f1=" in report.getvalue()
