"""The benchmark's tracer finds every latseg function it wraps and reads what it expects.

``bench/tracing.py`` rebinds ``(owner, attribute)`` pairs of latseg at run
time; a rename in the package would make ``bench/run.py --trace 1`` die with
an AttributeError. The file is loaded here read-only, without importing the
rest of the benchmark.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from latseg import model

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
