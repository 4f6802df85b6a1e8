"""Command-line entry points: train, segment, eval, bpe-learn, coverage, synth.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import bpe as bpe_mod
from . import synth
from .checkpoint import load_checkpoint, load_train_words, save_checkpoint, save_train_words
from .data import (
    EmbeddingTable,
    build_vocabs,
    load_embeddings,
    read_corpus,
    read_raw_sentences,
    word_set,
)
from .errors import ConfigError, DataError, LatsegError, UsageError
from .lexicon import read_lexicon
from .model import MODES, SegmenterModel, prepare_lexicon
from .train import (
    TrainConfig,
    coverage_report,
    evaluate_f1,
    length_bucket_f1,
    train,
    write_reports,
)

_CONFIG_TYPES = {f.name: f.type for f in fields(TrainConfig)}
_PARSERS = {"str": str, "int": int, "float": float}


def _parse_config_value(key: str, raw: str):
    """Parse by the TrainConfig field's declared type; optional fields take none or ''."""
    kind = _CONFIG_TYPES[key]
    if kind.endswith(" | None"):
        if raw.lower() in ("none", ""):
            return None
        kind = kind.removesuffix(" | None")
    return _PARSERS[kind](raw)


def load_config_file(path) -> dict:
    """line-oriented key=value config; '#' starts a comment line."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            raw = line.strip()
            if not raw or raw.startswith("#"):
                continue
            key, sep, val = raw.partition("=")
            key = key.strip()
            if not sep or key not in _CONFIG_TYPES:
                raise UsageError(f"{path}: line {lineno}: unknown config entry {raw!r}")
            try:
                values[key] = _parse_config_value(key, val.strip())
            except ValueError as exc:
                raise UsageError(f"{path}: line {lineno}: {exc}") from None
    return values


def _build_model(config: TrainConfig, train_sentences, lexicon_path, emb_paths, rng):
    dtype = np.dtype(config.dtype)
    uvocab, bvocab = build_vocabs([s.chars for s in train_sentences])

    def table(vocab, dim, path, name):
        if path:
            return load_embeddings(path, vocab, dim, rng, dtype=dtype, name=name)
        return EmbeddingTable.random(vocab, dim, rng, dtype=dtype, name=name)

    unigram_table = table(uvocab, config.unigram_dim, emb_paths.get("unigram"), "unigram_embeddings")
    bigram_table = table(bvocab, config.bigram_dim, emb_paths.get("bigram"), "bigram_embeddings")

    trie = lexicon_table = None
    if config.mode != "baseline":
        trie, lvocab = prepare_lexicon(read_lexicon(lexicon_path))
        lexicon_table = table(lvocab, config.lexicon_dim, emb_paths.get("lexicon"), "lexicon_embeddings")

    return SegmenterModel.create(
        config.mode,
        unigram_table,
        bigram_table,
        config.hidden,
        rng,
        lexicon_table=lexicon_table,
        trie=trie,
        char_dropout=config.char_dropout,
        lattice_dropout=config.lattice_dropout,
        max_word_len=config.max_word_len,
        dtype=dtype,
    )


def cmd_train(args) -> int:
    overrides = load_config_file(args.config) if args.config else {}
    for key in ("mode", "seed", "epochs"):  # command-line flags win
        if getattr(args, key) is not None:
            overrides[key] = getattr(args, key)
    config = TrainConfig(**overrides)
    config.validate()

    if config.mode == "baseline" and args.lexicon:
        print("warning: --lexicon is ignored in baseline mode", file=sys.stderr)
    if config.mode != "baseline" and not args.lexicon:
        raise UsageError(f"mode {config.mode} requires --lexicon")

    train_sentences = read_corpus(args.train)
    dev_sentences = read_corpus(args.dev)
    emb_paths = {"unigram": args.unigram_emb, "bigram": args.bigram_emb, "lexicon": args.lexicon_emb}

    rng = np.random.default_rng(config.seed)
    model = _build_model(config, train_sentences, args.lexicon, emb_paths, rng)
    training_words = word_set(train_sentences)
    result = train(config, train_sentences, dev_sentences, model, training_words, log=print)

    out = Path(args.out)
    save_checkpoint(model, out, "".join(dev_sentences[0].chars))
    save_train_words(sorted(training_words), out)
    write_reports(result, config, out / "report.tsv", out / "report.txt")
    print(f"best dev F1 {result.best_f1:.4f} at epoch {result.best_epoch}; saved to {out}")
    return 0


def cmd_segment(args) -> int:
    model = load_checkpoint(args.model)
    sentences = read_raw_sentences(args.input)
    with open(args.output, "w", encoding="utf-8") as fh:
        for text in sentences:
            fh.write(" ".join(model.segment(text)) + "\n")
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.model)
    gold = read_corpus(args.gold)
    training_words = load_train_words(args.model)
    predicted = [model.decode(s.chars).labels for s in gold]
    report = evaluate_f1(gold, predicted, training_words)
    report.bucket_f1 = length_bucket_f1(gold, predicted, args.bucket_width)
    for line in report.lines():
        print(line)
    return 0


def cmd_bpe_learn(args) -> int:
    lines = [line.replace(" ", "") for line in read_raw_sentences(args.corpus)]
    lines = [line for line in lines if line]
    model = bpe_mod.learn_bpe(lines, args.merges)
    bpe_mod.save_bpe_model(model, args.out)
    lexicon = bpe_mod.extract_lexicon(model)
    if args.lexicon_out:
        bpe_mod.save_lexicon(lexicon, args.lexicon_out)
    print(f"learned {model.merge_count} merges; {len(lexicon)} multi-char subwords")
    return 0


def cmd_coverage(args) -> int:
    gold = read_corpus(args.gold)
    lexicon = set(read_lexicon(args.lexicon))
    report = coverage_report(gold, lexicon)
    print(f"word_count={report.word_count}")
    print(f"matched_count={report.matched_count}")
    print(f"ratio={report.ratio:.4f}")
    return 0


def cmd_synth(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {args.seed}")
    vocab = synth.make_vocab(args.vocab_size, seed=args.seed)
    corpus = synth.make_corpus(vocab, args.sentences, seed=args.seed + 1)
    tr, dev = synth.split_corpus(corpus, args.dev_fraction, seed=args.seed + 2)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    synth.write_corpus(out / "train.txt", tr)
    synth.write_corpus(out / "dev.txt", dev)
    with open(out / "lexicon.txt", "w", encoding="utf-8") as fh:
        for w in vocab:
            if len(w) >= 2:
                fh.write(w + "\n")
    print(f"wrote {len(tr)} train / {len(dev)} dev sentences to {out}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors exit 1
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="latseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a segmenter")
    p.add_argument("--train", required=True, help="segmented training corpus")
    p.add_argument("--dev", required=True, help="segmented development corpus")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--lexicon", help="lexicon file for lattice modes")
    p.add_argument("--unigram-emb", help="pretrained character embeddings")
    p.add_argument("--bigram-emb", help="pretrained bigram embeddings")
    p.add_argument("--lexicon-emb", help="pretrained word/subword embeddings")
    p.add_argument("--config", help="key=value hyperparameter file")
    p.add_argument("--out", required=True, help="output checkpoint directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("segment", help="segment raw text with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("eval", help="score a model against gold segmentation")
    p.add_argument("--model", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--bucket-width", type=int, default=10)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bpe-learn", help="learn BPE merges from raw text")
    p.add_argument("--corpus", required=True)
    p.add_argument("--merges", type=int, default=bpe_mod.DEFAULT_MERGES)
    p.add_argument("--out", required=True, help="merge list output file")
    p.add_argument("--lexicon-out", help="also write the subword lexicon here")
    p.set_defaults(func=cmd_bpe_learn)

    p = sub.add_parser("coverage", help="lexicon coverage of a gold corpus")
    p.add_argument("--gold", required=True)
    p.add_argument("--lexicon", required=True)
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("synth", help="generate a synthetic segmentation corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--sentences", type=int, default=2000)
    p.add_argument("--vocab-size", type=int, default=300)
    p.add_argument("--dev-fraction", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=101)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (LatsegError, OSError) as exc:  # an unreadable or missing file is a data error
        print(f"latseg: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, LatsegError) else DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())
