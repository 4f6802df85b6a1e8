#!/usr/bin/env python3
"""Run the README desk recipe on a parent commit and on the working tree, and compare every output.

    python3 tools/recipe_ab.py --parent REV

Run from the root of a source checkout. The parent is exported with
``git archive REV`` as ``tools/ab_bench.py`` does. In each tree, with that
tree's ``src`` on ``PYTHONPATH`` and one BLAS thread, the recipe runs the
``latseg`` commands of the README's quick start with fixed seeds:

- ``synth`` of 600 sentences (seed 101), and the training text with its spaces taken out
  as the raw text;
- ``bpe-learn`` of 300 merges on the raw text;
- ``train`` of a baseline, a lattice-word and a lattice-subword model, each
  in float32 and in float64, under the README's ``desk.cfg`` with dropout on
  and 3 epochs (seed 7);
- ``segment`` of the dev text and ``eval`` on the dev corpus with each
  model, and ``coverage`` of the dev corpus by both lexicons.

Every file the recipe leaves is compared byte for byte with the other tree's,
the output each command prints and its exit status included; a
``wall_seconds=`` value and the absolute path of the tree's output directory
(``train`` prints where it saved) are masked before the comparison. Every
path the recipe passes is relative to that directory. It prints each file
that differs or exists in one tree only and exits 1, or exits 0 when every
file is the same.
A command that fails in either tree stops the run with exit 2. The corpus,
merges and epochs are smaller than the README's (2,000 sentences, 10,000
merges, 15 epochs), so both trees run in about a minute.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from ab_bench import export  # noqa: E402

WALL = re.compile(rb"wall_seconds=[^\s,]*")
SENTENCES, MERGES, EPOCHS = 600, 300, 3
MODES = {"baseline": None, "lattice-word": "data/lexicon.txt", "lattice-subword": "runs/subwords.tsv"}


def desk_config(dtype: str) -> str:
    """The README's desk.cfg with dropout on, EPOCHS epochs and the given dtype."""
    return (
        "hidden=32\nunigram_dim=16\nbigram_dim=16\nlexicon_dim=16\n"
        "char_dropout=0.2\nlattice_dropout=0.2\nlr0=0.03\n"
        f"epochs={EPOCHS}\nstop_f1=0.97\ndtype={dtype}\n"
    )


def recipe() -> list[tuple[str, list[str]]]:
    """The recipe's commands after ``synth``, each with the name of its log."""
    steps = [("bpe-learn", ["bpe-learn", "--corpus", "raw.txt", "--merges", str(MERGES),
                            "--out", "runs/subwords.bpe", "--lexicon-out", "runs/subwords.tsv"])]
    for dtype in ("float32", "float64"):
        for mode, lexicon in MODES.items():
            model = f"runs/{mode}-{dtype}"
            train = ["train", "--train", "data/train.txt", "--dev", "data/dev.txt", "--mode", mode,
                     "--config", f"{dtype}.cfg", "--out", model, "--seed", "7"]
            steps += [
                (f"train-{mode}-{dtype}", train + (["--lexicon", lexicon] if lexicon else [])),
                (f"segment-{mode}-{dtype}", ["segment", "--model", model, "--input", "dev-raw.txt",
                                             "--output", f"segmented/{mode}-{dtype}.txt"]),
                (f"eval-{mode}-{dtype}", ["eval", "--model", model, "--gold", "data/dev.txt"]),
            ]
    for mode in ("lattice-word", "lattice-subword"):
        steps.append((f"coverage-{mode}", ["coverage", "--gold", "data/dev.txt", "--lexicon", MODES[mode]]))
    return steps


def run_recipe(tree: Path, out: Path) -> None:
    """The recipe with ``tree``'s package, its outputs and command logs under ``out``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    (out / "logs").mkdir(parents=True)
    (out / "segmented").mkdir()
    (out / "runs").mkdir()

    def latseg(n: int, name: str, argv: list[str]) -> None:
        proc = subprocess.run([sys.executable, "-m", "latseg.cli", *argv], cwd=out, env=env,
                              capture_output=True, timeout=3600)
        log = b"$ latseg %s\n%s--- stderr\n%s--- exit %d\n" % (
            " ".join(argv).encode(), proc.stdout, proc.stderr, proc.returncode)
        (out / "logs" / f"{n:02d}-{name}.txt").write_bytes(log)
        if proc.returncode != 0:
            print(f"{tree}: latseg {' '.join(argv)} exited with {proc.returncode}:\n"
                  f"{proc.stderr.decode(errors='replace')}", file=sys.stderr)
            raise SystemExit(2)

    latseg(0, "synth", ["synth", "--out-dir", "data", "--sentences", str(SENTENCES),
                        "--vocab-size", "300", "--seed", "101"])
    for corpus, raw in (("train.txt", "raw.txt"), ("dev.txt", "dev-raw.txt")):
        text = (out / "data" / corpus).read_text(encoding="utf-8")
        (out / raw).write_text(re.sub(r"[ \t]+", "", text), encoding="utf-8")
    for dtype in ("float32", "float64"):
        (out / f"{dtype}.cfg").write_text(desk_config(dtype), encoding="utf-8")
    for n, (name, argv) in enumerate(recipe(), start=1):
        latseg(n, name, argv)


def masked(path: Path, root: Path) -> bytes:
    """A file's bytes with its output directory's absolute path and any ``wall_seconds`` value masked."""
    text = path.read_bytes().replace(str(root.resolve()).encode(), b"<out>")
    return WALL.sub(b"wall_seconds=*", text)


def differing(a: Path, b: Path) -> list[str]:
    """Relative paths of the files that differ between two output trees, or exist in one only."""
    files = {p.relative_to(root).as_posix() for root in (a, b) for p in root.rglob("*") if p.is_file()}
    out = []
    for rel in sorted(files):
        pa, pb = a / rel, b / rel
        if not (pa.is_file() and pb.is_file()):
            out.append(f"{rel} (only in {'parent' if pa.is_file() else 'change'})")
        elif masked(pa, a) != masked(pb, b):
            out.append(rel)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/recipe_ab.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="recipe_ab.") as tmp:
        trees = {"parent": export(args.parent, Path(tmp)), "change": ROOT}
        outs = {name: Path(tmp) / f"{name}-out" for name in trees}
        for name, tree in trees.items():
            run_recipe(tree, outs[name])
        files = sum(1 for p in outs["change"].rglob("*") if p.is_file())
        diff = differing(outs["parent"], outs["change"])
    for rel in diff:
        print(f"differs: {rel}")
    print(f"{len(diff)} of {files} files differ from {args.parent}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
