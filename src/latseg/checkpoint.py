"""Checkpoint persistence: plain-text manifest plus one raw file per tensor.

Tensor files hold an 8-byte little-endian value count followed by the values
as little-endian float32, row-major. A save converts and writes them
:data:`BLOCK` values at a time; a load maps each file read-only, in the same
format. A loaded model keeps its embedding tables float32, since they are only
gathered and a float64 walk widens their rows exactly, and its other tensors
at the manifest's ``dtype``: a float32 tensor is a view of its file, and only
a float64 one is widened into memory. Each live view holds a file descriptor,
and a file rewritten in place under a loaded model may fault with SIGBUS (a
save renames a new directory in, and an unlinked file stays mapped). The
manifest records the probe sentence and its emission bytes as computed from
the stored (rounded) parameters, so a reload must reproduce them bit for bit;
a manifest without them is refused.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from functools import partial
from itertools import count, islice, zip_longest
from operator import add, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .crf import CrfParams, N_LABELS, N_STATES
from .data import RESERVED, SENTINEL, BigramIndex, EmbeddingTable, Vocab, read_lines, write_lines
from .encoder import DirectionParams
from .errors import CheckpointError, DataError, NumericError, UsageError
from .lexicon import Trie, build_trie
from .model import SegmenterModel
from .tensor import Tensor, const

FORMAT = "latseg-ckpt-v1"
MANIFEST = "manifest.txt"
TENSOR_SUFFIX = ".f32"
TRAIN_WORDS = "train_words.txt"
REPORTS = ("report.tsv", "report.txt")
BLOCK = 1 << 18  # tensor values converted and written at a time


def _write_tensor(path: Path, data: np.ndarray) -> None:
    flat = data.reshape(-1)
    with open(path, "wb") as fh:
        fh.write(np.uint64(flat.size).astype("<u8").tobytes())
        for start in range(0, flat.size, BLOCK):
            fh.write(flat[start : start + BLOCK].astype("<f4", copy=False))


def _read_tensor(path: Path, shape: tuple[int, ...], dtype) -> np.ndarray:
    expected = int(np.prod(shape)) if shape else 1
    with open(path, "rb") as fh:
        head = fh.read(8)
        if len(head) != 8:
            raise CheckpointError(f"{path}: truncated tensor file")
        count = int(np.frombuffer(head, dtype="<u8")[0])
        size = os.fstat(fh.fileno()).st_size - 8
        values, partial = divmod(size, 4)
        if partial or count != values or count != expected:
            has = f"{size} bytes of values, not a multiple of 4" if partial else values
            raise CheckpointError(
                f"{path}: expected {expected} values, header says {count}, file has {has}"
            )
        return np.memmap(fh, "<f4", "r", offset=8, shape=shape).astype(dtype, copy=False)


_Vocabulary = TypeVar("_Vocabulary", Vocab, BigramIndex, Trie)


def _read_vocab(path: Path, expected_size: int, build: Callable[[Iterator[str]], _Vocabulary]) -> _Vocabulary:
    """What ``build`` makes of the lines of ``path`` after the reserved ones.

    A DataError from ``build`` is refused under the file's name, and so is a line that gets no
    row of its own: a repeat, a reserved symbol, or in a trie, a line under two characters.
    """
    lines = read_lines(path)
    if tuple(islice(lines, len(RESERVED))) != RESERVED:
        raise CheckpointError(f"{path}: missing reserved vocabulary entries")
    read = count()  # zip takes each line before a count, so next(read) is the number of lines
    try:
        vocab = build(map(itemgetter(0), zip(lines, read)))
    except DataError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    if len(vocab) != len(RESERVED) + next(read):
        rows = zip_longest(enumerate(read_lines(path), 1), vocab)  # the reserved lines match
        lineno, line = next((k, line) for (k, line), sym in rows if line != sym)
        why = "reserved" if line in RESERVED else "listed before" if line in vocab else "under two characters"
        raise CheckpointError(f"{path}: line {lineno}: {line!r} gets no row: {why}")
    if len(vocab) != expected_size:
        raise CheckpointError(f"{path}: manifest declares {expected_size} symbols, file has {len(vocab)}")
    return vocab


def _bigram_index(unigrams: Vocab, lines: Iterator[str]) -> BigramIndex:
    """The bigram index of ``lines``; a line that is no pair of ``unigrams`` raises DataError."""
    keys = BigramIndex.keys_of(unigrams, lines)
    bad = np.flatnonzero(keys < 0)
    if bad.size:
        lineno = len(RESERVED) + bad[0] + 1
        raise DataError(f"line {lineno}: not two characters of unigram.vocab or one and {SENTINEL}")
    return BigramIndex(unigrams, keys)


def _manifest_lines(model: SegmenterModel) -> list[str]:
    lines = [
        f"format={FORMAT}",
        f"mode={model.mode}",
        f"hidden={model.fwd.hidden}",
        f"unigram_dim={model.unigram_table.dim}",
        f"bigram_dim={model.bigram_table.dim}",
        f"lexicon_dim={model.lexicon_table.dim if model.lexicon_table else 0}",
        f"char_dropout={model.char_dropout}",
        f"lattice_dropout={model.lattice_dropout}",
        f"max_word_len={model.max_word_len or 0}",
        f"dtype={model.fwd.gates_b.data.dtype.name}",  # a loaded model's tables are float32
        f"unigram_vocab_size={len(model.unigram_table.vocab)}",
        f"bigram_vocab_size={len(model.bigram_table.vocab)}",
        f"lexicon_vocab_size={len(model.lexicon_table.vocab) if model.lexicon_table else 0}",
    ]
    for p in model.parameters():
        shape = "x".join(str(d) for d in p.data.shape)
        lines.append(f"tensor={p.name}:{shape}")
    return lines


def _probe_hex(model: SegmenterModel, chars: str) -> str:
    """The probe's float32 emission bytes, as stored in the manifest."""
    return model.emission_matrix(chars).astype("<f4").tobytes().hex()


def check_out_dir(out_dir) -> None:
    """Refuse an ``out_dir`` that a checkpoint could not be saved into.

    Its nearest existing path must be a directory. A save replaces ``out_dir``
    whole, so an existing one must be empty or a checkpoint: a manifest of
    this format, beside only files that a save writes.
    """
    out = Path(out_dir)
    nearest = next(d for d in (out, *out.parents) if d.exists())
    if not nearest.is_dir():
        raise CheckpointError(f"{nearest}: not a directory")
    if nearest != out or not any(out.iterdir()):
        return
    if not (out / MANIFEST).is_file() or _parse_manifest(read_lines(out / MANIFEST))[0].get("format") != FORMAT:
        raise CheckpointError(f"{out}: holds files but no {FORMAT} {MANIFEST}, so a save would not replace it")
    written = {MANIFEST, TRAIN_WORDS, *REPORTS}
    foreign = sorted(
        f.name for f in out.iterdir()
        if not (f.is_file() and (f.name in written or f.suffix in (".vocab", TENSOR_SUFFIX)))
    )
    if foreign:
        raise CheckpointError(f"{out}: holds {', '.join(foreign)} beside its checkpoint; a save would remove them")


def _probe_model(model: SegmenterModel, lines: list[str], chars: str, out: Path) -> SegmenterModel:
    """The model a future load of ``lines`` would reconstruct, cut down to what ``chars`` reads.

    It has the same manifest values and the tensors a load would give: its
    embedding tables keep, as float32, only the reserved rows and the rows of
    the probe's characters, bigrams and lexicon matches, under a trie of just
    the matched entries, and every other tensor is rounded whole. The probe's
    emissions are the full model's, bit for bit, without a copy of every table.
    """
    values, _ = _parse_manifest(lines)
    dtype_name = values["dtype"]
    read = {"unigram": chars, "bigram": list(map(add, chars, [*chars[1:], SENTINEL]))}
    if model.lexicon_table is not None:
        read["lexicon"] = [model.trie.symbols[k] for k in sorted(set(model.match(chars).entry.tolist()))]
    arrays, vocabs = {}, {}
    for name, symbols in read.items():
        table = getattr(model, f"{name}_table")
        held = list(dict.fromkeys(sym for sym in symbols if sym in table.vocab))
        if name == "bigram":
            vocabs[name] = BigramIndex(vocabs["unigram"], BigramIndex.keys_of(vocabs["unigram"], held))
        else:
            vocabs[name] = (build_trie if name == "lexicon" else Vocab)(held)
        kept = table.rows.data[[table.vocab.index(sym) for sym in vocabs[name]]]
        arrays[table.rows.name] = const(kept.astype("<f4"), table.rows.name)
    for p in model.parameters():
        if p.name not in arrays:
            arrays[p.name] = const(p.data.astype("<f4").astype(dtype_name), p.name)
    return _assemble(values, arrays, vocabs["unigram"], vocabs["bigram"], vocabs.get("lexicon"), out)


def save_checkpoint(
    model: SegmenterModel,
    out_dir,
    probe_chars: str,
    train_words: Iterable[str] | None = None,
    reports: Sequence[Sequence[str]] = (),
) -> None:
    """Write vocabularies, tensors, and a manifest with a verification probe.

    Given ``train_words``, they go sorted into ``train_words.txt``, which
    ``eval`` needs; ``reports`` holds the lines of :data:`REPORTS`, in turn.
    The files go into a new sibling directory, which then takes the place of
    ``out_dir``: an existing checkpoint there is renamed aside, the new one is
    renamed into place, and only then is the old one removed. If neither
    can be put back in place, the old one is kept where it was renamed to.
    A tensor holding a NaN or an infinity raises NumericError before anything
    is written.
    """
    if not probe_chars or "\n" in probe_chars or "\r" in probe_chars:
        raise UsageError(f"checkpoint probe sentence must be one non-empty line, got {probe_chars!r}")
    for p in model.parameters():  # a NaN or infinity is its tensor's min or max
        if not np.isfinite([p.data.min(), p.data.max()]).all():
            raise NumericError(f"tensor {p.name} holds a value that is not finite; nothing was saved")
    check_out_dir(out_dir)
    out = Path(out_dir).resolve()
    lines = _manifest_lines(model)

    lines.append(f"probe_chars={probe_chars}")
    lines.append(f"probe_emissions={_probe_hex(_probe_model(model, lines, probe_chars, out), probe_chars)}")

    out.parent.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    new, old = work / "new", work / "old"
    try:
        new.mkdir()
        write_lines(new / "unigram.vocab", model.unigram_table.vocab)
        write_lines(new / "bigram.vocab", model.bigram_table.vocab)
        if model.lexicon_table is not None:
            write_lines(new / "lexicon.vocab", model.lexicon_table.vocab)
        for p in model.parameters():
            _write_tensor(new / f"{p.name}{TENSOR_SUFFIX}", p.data)
        write_lines(new / MANIFEST, lines)
        if train_words is not None:
            write_lines(new / TRAIN_WORDS, sorted(train_words))
        for name, report in zip(REPORTS, reports):
            write_lines(new / name, report)
        if out.exists():
            out.rename(old)
        try:
            new.rename(out)
        except BaseException:
            if old.exists():
                old.rename(out)
            raise
    except BaseException as exc:
        if old.exists() and not out.exists():
            raise CheckpointError(f"{out}: save failed; the old checkpoint is kept at {old}") from exc
        raise
    finally:
        if out.exists() or not old.exists():
            shutil.rmtree(work, ignore_errors=True)


def _parse_manifest(lines: Iterable[str]) -> tuple[dict[str, str], list[tuple[str, tuple[int, ...]]]]:
    values: dict[str, str] = {}
    tensors: list[tuple[str, tuple[int, ...]]] = []
    for raw in lines:
        if not raw:
            continue
        key, _, val = raw.partition("=")
        if key == "tensor":
            name, _, shape = val.partition(":")
            tensors.append((name, tuple(int(d) for d in shape.split("x"))))
        else:
            values[key] = val
    return values, tensors


def _assemble(
    values: dict[str, str],
    arrays: dict[str, Tensor],
    uvocab: Vocab,
    bvocab: BigramIndex,
    trie: Trie | None,
    ckpt: Path,
) -> SegmenterModel:
    """The model that manifest values, vocabularies and named tensors describe."""
    mode = values["mode"]
    hidden = int(values["hidden"])

    def table(name: str, vocab: Vocab | BigramIndex | Trie) -> EmbeddingTable:
        rows, dim = arrays[f"{name}_embeddings"], int(values[f"{name}_dim"])
        if rows.shape != (len(vocab), dim):
            raise CheckpointError(
                f"{ckpt}: {name}_embeddings{TENSOR_SUFFIX} has shape {rows.shape}, but "
                f"{name}.vocab has {len(vocab)} symbols and the manifest says {name}_dim={dim}"
            )
        return EmbeddingTable(vocab, rows)

    unigram_table, bigram_table = table("unigram", uvocab), table("bigram", bvocab)
    lexicon_table = None if trie is None else table("lexicon", trie)

    fields = ["gates_w", "gates_b"]
    if mode != "baseline":
        fields += ["shortcut_w", "shortcut_b", "match_gate_w", "match_gate_b"]

    def direction(name: str) -> DirectionParams:
        return DirectionParams(hidden=hidden, **{f: arrays[f"{name}_{f}"] for f in fields})

    crf_params = CrfParams(**{f: arrays[f"crf_{f}"] for f in ("emit_w", "emit_b", "transitions")})
    if crf_params.emit_w.shape != (N_LABELS, 2 * hidden) or crf_params.transitions.shape != (
        N_STATES, N_STATES
    ):
        raise CheckpointError(f"{ckpt}: CRF tensor shapes do not match hidden={hidden}")

    return SegmenterModel(
        mode,
        unigram_table,
        bigram_table,
        direction("fwd"),
        direction("bwd"),
        crf_params,
        lexicon_table=lexicon_table,
        trie=trie,
        char_dropout=float(values["char_dropout"]),
        lattice_dropout=float(values["lattice_dropout"]),
        max_word_len=int(values["max_word_len"]) or None,
    )


def load_checkpoint(ckpt_dir) -> SegmenterModel:
    """Rebuild a model for decoding from disk and verify the manifest probe.

    Its tensors are constants without gradient buffers, and its float32 ones
    read-only maps of their files: the model is not for training.

    Any missing or unparsable manifest value or tensor raises
    :class:`CheckpointError` naming the directory.
    """
    ckpt = Path(ckpt_dir)
    try:
        return _load(ckpt)
    except KeyError as exc:
        raise CheckpointError(f"{ckpt}: manifest has no {exc.args[0]!r}") from None
    except (ValueError, TypeError, UsageError) as exc:
        raise CheckpointError(f"{ckpt}: malformed manifest: {exc}") from None


def _load(ckpt: Path) -> SegmenterModel:
    manifest = ckpt / MANIFEST
    if not manifest.is_file():
        raise CheckpointError(f"{ckpt}: no {MANIFEST}")
    values, tensor_list = _parse_manifest(read_lines(manifest))
    if values.get("format") != FORMAT:
        raise CheckpointError(f"{ckpt}: unsupported format {values.get('format')!r}")

    listed = {name for name, _ in tensor_list}
    present = {f.name[: -len(TENSOR_SUFFIX)] for f in ckpt.glob(f"*{TENSOR_SUFFIX}")}
    if listed != present:
        raise CheckpointError(
            f"{ckpt}: manifest tensors {sorted(listed)} do not match files {sorted(present)}"
        )

    dtype = np.dtype(values["dtype"])
    arrays: dict[str, Tensor] = {}
    for name, shape in tensor_list:
        stored = np.float32 if name.endswith("_embeddings") else dtype  # tables stay float32 (module docstring)
        arrays[name] = const(_read_tensor(ckpt / f"{name}{TENSOR_SUFFIX}", shape, stored), name)

    uvocab = _read_vocab(ckpt / "unigram.vocab", int(values["unigram_vocab_size"]), Vocab)
    bvocab = _read_vocab(ckpt / "bigram.vocab", int(values["bigram_vocab_size"]), partial(_bigram_index, uvocab))
    trie = None
    if values["mode"] != "baseline":
        trie = _read_vocab(ckpt / "lexicon.vocab", int(values["lexicon_vocab_size"]), build_trie)
    model = _assemble(values, arrays, uvocab, bvocab, trie, ckpt)

    probe, emissions = values["probe_chars"], values["probe_emissions"]  # every save writes both
    if not probe:
        raise CheckpointError(f"{ckpt}: manifest has probe emissions but no probe sentence")
    if _probe_hex(model, probe) != emissions:
        raise CheckpointError(f"{ckpt}: probe forward pass does not match manifest")
    return model


def load_train_words(ckpt_dir) -> set[str]:
    """The training words saved beside a checkpoint; a missing file is an OSError."""
    return {w for w in read_lines(Path(ckpt_dir) / TRAIN_WORDS) if w}
