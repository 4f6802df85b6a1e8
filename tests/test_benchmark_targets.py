"""The benchmark's tracer finds every latseg function it wraps and reads what it expects.

``bench/tracing.py`` rebinds ``(owner, attribute)`` pairs of latseg at run
time; a rename in the package would make ``bench/run.py --trace 1`` die with
an AttributeError. The file is loaded here read-only, without importing the
rest of the benchmark; so is ``tools/ab_bench.py``, whose argument checks are
tested without running anything.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from latseg import model
from latseg.data import EmbeddingTable, build_vocabs, to_bmes
from latseg.tensor import Tape

ROOT = Path(__file__).resolve().parent.parent
TRACING, AB_BENCH = ROOT / "bench" / "tracing.py", ROOT / "tools" / "ab_bench.py"


def load(path: Path):
    spec = importlib.util.spec_from_file_location(f"latseg_{path.parent.name}_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = load(TRACING)
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
    hook, before = load(TRACING).HOOKS["model.match_sentence"]
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
    tracing = load(TRACING)
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


def test_ab_bench_refuses_a_single_seed_before_running(monkeypatch, capsys, tmp_path):
    # quartiles need two runs per tree, and one seed would fail only after every run
    ab_bench = load(AB_BENCH)

    def never(*args):
        raise AssertionError("ran before the seeds were checked")

    monkeypatch.setattr(ab_bench, "export", never)
    monkeypatch.setattr(ab_bench, "run_bench", never)
    monkeypatch.setattr(ab_bench.subprocess, "run", never)  # git rev-parse
    out = tmp_path / "ab.json"
    for seeds, reason in [
        ("4", "quartiles need at least two seeds"),
        ("abc", "not a seed or an inclusive range of seeds"),  # these two used to raise a ValueError
        ("3-x", "not a seed or an inclusive range of seeds"),
    ]:
        with pytest.raises(SystemExit) as exit_:
            ab_bench.main(["--parent", "HEAD", "--out", str(out), "--seeds", seeds])
        assert exit_.value.code == 2
        assert f"--seeds {seeds}: {reason}" in capsys.readouterr().err
        assert not out.exists()


def _runs(metric: str, parent: list[float], change: list[float]) -> list[dict]:
    """Synthetic runs of one workload: ``metric`` as given, every other end-to-end metric 1.0."""
    runs = []
    for tree, values in (("parent", parent), ("change", change)):
        for seed, value in enumerate(values, start=1):
            metrics = {name: {"value": 1.0} for name in ("chars_per_s", "f1", "peak_rss_mb", "setup_s")}
            metrics[metric] = {"value": value}
            runs.append({"tree": tree, "workload": "w", "seed": seed, "result": {"metrics": metrics, "failed": 0}})
    return runs


@pytest.mark.parametrize(
    "metric, change, gain_shown, worse_beyond_bound",
    [
        ("peak_rss_mb", [80.0] * 9 + [110.0], True, False),  # 9 of 10 pairs and a gap past the quartiles
        ("peak_rss_mb", [80.0] * 8 + [110.0] * 2, False, False),  # 8 of 10 pairs
        ("peak_rss_mb", [89.0 + 2 * k for k in range(10)], False, False),  # every pair, but within the spread
        ("chars_per_s", [1.5] * 10, True, False),
        ("chars_per_s", [0.8] * 10, False, False),  # 20 % slower is inside the 0.24 bound
        ("chars_per_s", [0.7] * 10, False, True),
        ("peak_rss_mb", [111.0] * 10, False, True),  # 11 % more memory is past the 0.1 bound
    ],
)
def test_ab_bench_summary_judges_gains_and_bounds(metric, change, gain_shown, worse_beyond_bound):
    ab_bench = load(AB_BENCH)
    # medians 99 MB and 0.99, interquartile distances 9 MB and 0.09
    scale = 100.0 if metric == "peak_rss_mb" else 1.0
    parent = [scale * (1.0 + 0.02 * k) for k in range(-5, 5)]
    got = ab_bench.summarize(_runs(metric, parent, change), "w")[metric]
    assert (got["gain_shown"], got["worse_beyond_bound"]) == (gain_shown, worse_beyond_bound)


@pytest.mark.parametrize(
    "change, worse_beyond_bound",
    [
        ([1.05] * 10, None),  # the parent's own spread is wider than the bound
        ([0.5] * 10, None),
        ([1.6] * 10, False),  # every change run is faster than every parent run
    ],
)
def test_ab_bench_summary_leaves_a_bound_inside_the_parents_spread_unresolved(change, worse_beyond_bound):
    ab_bench = load(AB_BENCH)
    parent = [0.6 + 0.1 * k for k in range(10)]  # median 1.05, interquartile distance 0.45, bound 0.252
    got = ab_bench.summarize(_runs("chars_per_s", parent, change), "w")["chars_per_s"]
    assert got["worse_beyond_bound"] is worse_beyond_bound
