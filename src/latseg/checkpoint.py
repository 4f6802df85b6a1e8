"""Checkpoint persistence: plain-text manifest plus one raw file per tensor.

Tensor files hold an 8-byte little-endian value count followed by the values
as little-endian float32, row-major. The manifest records the probe sentence
and its emission bytes as computed from the stored (rounded) parameters, so
a reload must reproduce them bit for bit.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .crf import CrfParams, N_LABELS, N_STATES
from .data import RESERVED, EmbeddingTable, Vocab
from .encoder import DirectionParams
from .errors import CheckpointError, UsageError
from .model import SegmenterModel, prepare_lexicon
from .tensor import Tensor, const, param

FORMAT = "latseg-ckpt-v1"
MANIFEST = "manifest.txt"
TENSOR_SUFFIX = ".f32"


def _write_tensor(path: Path, data: np.ndarray) -> None:
    flat = np.ascontiguousarray(data, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(np.uint64(flat.size).astype("<u8").tobytes())
        fh.write(flat.tobytes())


def _read_tensor(path: Path, shape: tuple[int, ...], dtype) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(8)
        if len(head) != 8:
            raise CheckpointError(f"{path}: truncated tensor file")
        count = int(np.frombuffer(head, dtype="<u8")[0])
        body = np.frombuffer(fh.read(), dtype="<f4")
    expected = int(np.prod(shape)) if shape else 1
    if count != body.size or count != expected:
        raise CheckpointError(
            f"{path}: expected {expected} values, header says {count}, file has {body.size}"
        )
    return body.reshape(shape).astype(dtype)


def _write_vocab(path: Path, vocab: Vocab) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sym in vocab.symbols():
            fh.write(sym + "\n")


def _read_vocab(path: Path, expected_size: int) -> Vocab:
    with open(path, encoding="utf-8") as fh:
        symbols = [line.rstrip("\n") for line in fh]
    if tuple(symbols[: len(RESERVED)]) != RESERVED:
        raise CheckpointError(f"{path}: missing reserved vocabulary entries")
    vocab = Vocab.from_symbols(symbols[len(RESERVED) :])
    if len(vocab) != expected_size:
        raise CheckpointError(
            f"{path}: manifest declares {expected_size} symbols, file has {len(vocab)}"
        )
    return vocab


def _manifest_lines(model: SegmenterModel, dtype_name: str) -> list[str]:
    lines = [
        f"format={FORMAT}",
        f"mode={model.mode}",
        f"hidden={model.hidden}",
        f"unigram_dim={model.unigram_table.dim}",
        f"bigram_dim={model.bigram_table.dim}",
        f"lexicon_dim={model.lexicon_table.dim if model.lexicon_table else 0}",
        f"char_dropout={model.char_dropout}",
        f"lattice_dropout={model.lattice_dropout}",
        f"max_word_len={model.max_word_len or 0}",
        f"dtype={dtype_name}",
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
    return model.emission_matrix(tuple(chars)).astype("<f4").tobytes().hex()


def save_checkpoint(model: SegmenterModel, out_dir, probe_chars: str) -> None:
    """Write vocabularies, tensors, and a manifest with a verification probe."""
    if not probe_chars:
        raise UsageError("checkpoint probe sentence must be non-empty")
    out = Path(out_dir)
    dtype_name = np.dtype(model.unigram_table.rows.data.dtype).name
    lines = _manifest_lines(model, dtype_name)

    # The probe runs on the model a future load will reconstruct: the same
    # manifest values and vocabularies, and float32-rounded parameters.
    values, _ = _parse_manifest(lines)
    rounded = {
        p.name: const(p.data.astype("<f4").astype(dtype_name), p.name) for p in model.parameters()
    }
    lexicon_vocab = model.lexicon_table.vocab if model.lexicon_table else None
    stored = _assemble(
        values, rounded, model.unigram_table.vocab, model.bigram_table.vocab, lexicon_vocab, out
    )
    lines.append(f"probe_chars={probe_chars}")
    lines.append(f"probe_emissions={_probe_hex(stored, probe_chars)}")

    # Load requires the manifest to list every tensor file in the directory.
    names = {f"{p.name}{TENSOR_SUFFIX}" for p in model.parameters()}
    stale = sorted(f.name for f in out.glob(f"*{TENSOR_SUFFIX}") if f.name not in names)
    if stale:
        raise CheckpointError(f"{out}: holds tensor files this model does not have: {stale}")
    out.mkdir(parents=True, exist_ok=True)
    _write_vocab(out / "unigram.vocab", model.unigram_table.vocab)
    _write_vocab(out / "bigram.vocab", model.bigram_table.vocab)
    if lexicon_vocab is not None:
        _write_vocab(out / "lexicon.vocab", lexicon_vocab)
    for p in model.parameters():
        _write_tensor(out / f"{p.name}{TENSOR_SUFFIX}", p.data)
    (out / MANIFEST).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_manifest(lines: list[str]) -> tuple[dict[str, str], list[tuple[str, tuple[int, ...]]]]:
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
    bvocab: Vocab,
    lvocab: Vocab | None,
    ckpt: Path,
) -> SegmenterModel:
    """The model that manifest values, vocabularies and named tensors describe."""
    mode = values["mode"]
    hidden = int(values["hidden"])
    u_dim, b_dim, l_dim = (int(values[k]) for k in ("unigram_dim", "bigram_dim", "lexicon_dim"))
    unigram_table = EmbeddingTable(uvocab, arrays["unigram_embeddings"], u_dim)
    bigram_table = EmbeddingTable(bvocab, arrays["bigram_embeddings"], b_dim)

    lexicon_table = trie = None
    if mode != "baseline":
        trie, rebuilt = prepare_lexicon(lvocab.symbols()[len(RESERVED) :])
        if rebuilt.symbols() != lvocab.symbols():
            raise CheckpointError(f"{ckpt}: lexicon vocabulary is not trie-consistent")
        lexicon_table = EmbeddingTable(lvocab, arrays["lexicon_embeddings"], l_dim)

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
        max_word_len=int(values.get("max_word_len", "0")) or None,
    )


def load_checkpoint(ckpt_dir) -> SegmenterModel:
    """Rebuild a model from disk and verify the manifest probe."""
    ckpt = Path(ckpt_dir)
    manifest = ckpt / MANIFEST
    if not manifest.is_file():
        raise CheckpointError(f"{ckpt}: no {MANIFEST}")
    # Split on "\n" only: str.splitlines() would also split a probe sentence
    # at characters such as U+2028.
    values, tensor_list = _parse_manifest(manifest.read_text(encoding="utf-8").split("\n"))
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
        arrays[name] = param(_read_tensor(ckpt / f"{name}{TENSOR_SUFFIX}", shape, dtype), name)

    uvocab = _read_vocab(ckpt / "unigram.vocab", int(values["unigram_vocab_size"]))
    bvocab = _read_vocab(ckpt / "bigram.vocab", int(values["bigram_vocab_size"]))
    lvocab = None
    if values["mode"] != "baseline":
        lvocab = _read_vocab(ckpt / "lexicon.vocab", int(values["lexicon_vocab_size"]))
    model = _assemble(values, arrays, uvocab, bvocab, lvocab, ckpt)

    if "probe_emissions" in values:
        if not values.get("probe_chars"):
            raise CheckpointError(f"{ckpt}: manifest has probe emissions but no probe sentence")
        if _probe_hex(model, values["probe_chars"]) != values["probe_emissions"]:
            raise CheckpointError(f"{ckpt}: probe forward pass does not match manifest")
    return model


def save_train_words(words: Sequence[str], ckpt_dir) -> None:
    path = Path(ckpt_dir) / "train_words.txt"
    with open(path, "w", encoding="utf-8") as fh:
        for w in sorted(words):
            fh.write(w + "\n")


def load_train_words(ckpt_dir) -> set[str]:
    path = Path(ckpt_dir) / "train_words.txt"
    if not path.is_file():
        return set()
    with open(path, encoding="utf-8") as fh:
        return {line.rstrip("\n") for line in fh if line.rstrip("\n")}
