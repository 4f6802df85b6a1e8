#!/usr/bin/env python3
"""Print a benchmark workload's memory after each of its stages.

    python3 tools/rss_stages.py --workload NAME [--seed N] [--train-sentences N]

Run from the root of a source checkout. It imports ``bench/workloads.py``
without changing it, runs one set-up of the workload, then the stages its
measured phase goes through once:

- a training workload: its first budget (every ``train.train`` call of one
  budget), a save of the trained model and a load of that checkpoint;
- the segment workload: a load of the checkpoint its set-up saved, and one
  batch of lines segmented with that model.

With ``--train-sentences N`` a training workload runs one stage instead:
one epoch of ``train.train`` over the first N sentences of the corpus its
set-up wrote (the whole generated corpus, of which the benchmark trains on
a slice), read back with ``data.read_corpus``. It shows what training at
scale keeps resident, such as the gradient pages a table's rows touch.

After set-up and after each stage it prints the process's peak resident set
(``ru_maxrss``) and its current one, in MB (10^6 bytes). What a stage made
stays alive until the end, as it does in the benchmark.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as bench/run.py does, before numpy is imported

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from latseg import checkpoint, data, train  # noqa: E402

# the training corpus each training workload's set-up writes under its work directory
CORPORA = {"train-bigvocab-baseline": "bigvocab.txt", "train-desk-lattice-word": "desk/train.txt"}


def rss_mb() -> tuple[float, float]:
    """The peak and current resident set of this process, in MB."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    return peak_kb * 1024 / 1e6, pages * os.sysconf("SC_PAGE_SIZE") / 1e6


def report(stage: str) -> None:
    peak, now = rss_mb()
    print(f"{stage:<16} ru_maxrss {peak:7.1f} MB   current {now:7.1f} MB", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--train-sentences", type=int, metavar="N",
                        help="train one epoch over the corpus's first N sentences instead")
    args = parser.parse_args(argv)
    if args.train_sentences is not None and args.workload not in CORPORA:
        parser.error(f"--train-sentences: {args.workload} trains no model")

    workload = workloads.WORKLOADS[args.workload]()
    kept = []  # every stage's result stays alive, as in the benchmark
    with tempfile.TemporaryDirectory(prefix="rss_stages.") as tmp:
        state = workload.setup(args.seed, Path(tmp), workloads.Run())
        report("set-up")
        if args.train_sentences is not None:
            sentences = data.read_corpus(Path(tmp) / CORPORA[args.workload])[: args.train_sentences]
            report("corpus read")
            before = rss_mb()[1]
            kept.append(train.train(state.config, sentences, state.call_dev, state.model, state.words))
            report(f"{len(sentences)} trained")
            print(f"current grew by {rss_mb()[1] - before:.1f} MB over the epoch")
        elif isinstance(state, workloads.TrainState):
            state.model.restore(state.initial)
            for chunk in state.calls:
                kept.append(train.train(state.config, chunk, state.call_dev, state.model, state.words))
            report("first budget")
            checkpoint.save_checkpoint(state.model, state.ckpt, "".join(state.dev_set[0].chars))
            report("save")
            kept.append(checkpoint.load_checkpoint(state.ckpt))
            report("load")
        else:
            model = checkpoint.load_checkpoint(state.ckpt)
            report("load")
            kept.append([workloads.segment_line(model, text) for text, _ in state.lines[: workload.batch]])
            report("segmented batch")
    return 0


if __name__ == "__main__":
    sys.exit(main())
