"""One counting stage of the traced run, in a process of its own so that
its peak RSS is the stage's own.

    python3 bench/stage.py SOURCE TARGET THREADS MIN_COOC [OUT]

Reads and tokenizes the corpus and builds both vocabularies untimed, then
times ``build_wcm`` on the pre-tokenized pairs and, given OUT, saves the
matrix. Prints one JSON line: the span of the ``build_wcm`` call on the
shared monotonic clock, and the number of surviving entries.
"""

from __future__ import annotations

import json
import sys
import time

from deqe.corpus import build_vocabulary, load_parallel_corpus, tokenize
from deqe.wcm import WcmConfig, build_wcm, save_wcm


def main(argv: list[str]) -> int:
    source, target, threads, min_cooc, *out = argv
    pairs = [(tokenize(p.source), tokenize(p.target)) for p in load_parallel_corpus(source, target)]
    source_vocab = build_vocabulary((s for s, _ in pairs), "source")
    target_vocab = build_vocabulary((t for _, t in pairs), "target")
    config = WcmConfig(min_cooccurrence=int(min_cooc))
    start = time.perf_counter()
    matrix = build_wcm(pairs, source_vocab, target_vocab, config, threads=int(threads), progress_every=0)
    end = time.perf_counter()
    if out:
        save_wcm(matrix, out[0])
    print(json.dumps({"start": start, "end": end, "entries": matrix.n_entries}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
