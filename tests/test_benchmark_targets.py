"""The benchmark's tracer finds every latseg function it wraps and reads what it expects.

``bench/tracing.py`` rebinds ``(owner, attribute)`` pairs of latseg at run
time; a rename in the package would make ``bench/run.py --trace 1`` die with
an AttributeError. The file is loaded here read-only, without importing the
rest of the benchmark.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from latseg import model
from latseg.data import EmbeddingTable, build_vocabs, to_bmes
from latseg.tensor import Tape

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("latseg_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_target_resolves():
    tracing = load_tracing()
    missing = []
    for owner, attr, name in tracing.TARGETS:
        # the tracer reads a class's own __dict__ and a module's attributes
        found = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        if not found or not callable(getattr(owner, attr)):
            missing.append(name)
    assert not missing, f"bench/tracing.py wraps names latseg no longer has: {missing}"
    assert set(tracing.HOOKS) <= {name for _, _, name in tracing.TARGETS}


def test_match_hook_counts_every_match():
    # lexicon.matches_per_char is the hook's count over the characters it saw
    hook, before = load_tracing().HOOKS["model.match_sentence"]
    lexicon = ["ab", "abc", "bc", "ca", "cab", "a"]
    chars = "abcabcab"
    words = {w for w in lexicon if len(w) >= 2}
    brute = sum(
        chars[b : e + 1] in words for b in range(len(chars)) for e in range(b + 1, len(chars))
    )
    counts = Counter()
    args = (model.build_trie(lexicon), chars)  # as SegmenterModel.match passes them
    hook(counts, args, model.match_sentence(*args))
    assert not before
    assert counts["matches"] == brute == 11 and counts["match_chars"] == len(chars)


def test_encoder_spans_nest_and_count_the_characters_encoded():
    # encoder.lattice_forward_s and the per-character encoder metrics divide by
    # the characters these two hooks count, and the model's span must hold the kernel's
    tracing = load_tracing()
    sentences = [to_bmes(ws) for ws in (["中国", "人民"], ["学院"], ["人"], ["中国", "学院", "人民", "人"])]
    rng = np.random.default_rng(4)
    uni, bi = build_vocabs([s.chars for s in sentences])
    trie, lvocab = model.prepare_lexicon(["中国", "人民", "学院"])
    segmenter = model.SegmenterModel.create(
        "lattice-word",
        EmbeddingTable.random(uni, 3, rng, name="unigram_embeddings"),
        EmbeddingTable.random(bi, 3, rng, name="bigram_embeddings"),
        4,
        rng,
        lexicon_table=EmbeddingTable.random(lvocab, 3, rng, name="lexicon_embeddings"),
        trie=trie,
    )
    batch = [s.chars for s in sentences]
    with tracing.Tracer() as tracer:
        tracer.phase = tracing.MEASURE
        segmenter.decode_many(batch)
        with Tape():
            segmenter.loss(sentences[0])
    kernels = [span for span in tracer.spans if span[0] == "encoder.lattice_forward"]
    assert len(kernels) == 2
    assert all(tracer.spans[parent][0] == "model.encode_bidirectional" for _, _, _, parent, _ in kernels)
    encoded = sum(map(len, batch)) + len(sentences[0])
    assert tracer.counts["encoded_chars"] == tracer.counts["lattice_positions"] == encoded
