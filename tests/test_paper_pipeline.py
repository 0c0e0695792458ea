"""The paper's experiment end to end through the CLI.

A seeded training bitext and a test set with graded corruption (the corpus
of acceptance criterion 6) go through ``build-wcm``, ``score``,
``bleu --sentence-level``, ``correlate``, ``bucket-eval`` and ``histogram``,
each reading the files the ones before it wrote. Criterion 6's bounds are
asserted on the reports: bucketed BLEU rises by at least 5 from the ``<50``
to the ``>=50`` bucket, and DE correlates with sentence BLEU at r > 0.3
with p < 0.001.
"""

import random

from deqe.cli import main

from helpers import write_lines
from synthgen import corrupt_targets, gen_pairs, make_lexicon, write_corpus


def _run(*argv: str) -> None:
    assert main([*argv, "--quiet"]) == 0


def _rows(path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split("\t") for line in lines if line and not line.startswith("#")]


def test_de_tracks_bleu_through_the_cli(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lexicon = make_lexicon(500)
    write_corpus(gen_pairs(random.Random(60_001), lexicon, 20_000), "train.src", "train.tgt")
    rng = random.Random(60_002)
    test = gen_pairs(rng, lexicon, 2_000)
    hypotheses, _ = corrupt_targets(rng, test, 0.30)
    write_corpus(test, "test.src", "test.ref")
    write_lines("test.hyp", [h for _, h in hypotheses])

    _run("build-wcm", "--source", "train.src", "--target", "train.tgt", "--out", "train.wcm",
         "--min-cooc", "20", "--threads", "1")
    _run("score", "--wcm", "train.wcm", "--source", "test.src", "--hypothesis", "test.hyp",
         "--out", "score.tsv")
    _run("bleu", "--hypothesis", "test.hyp", "--reference", "test.ref", "--sentence-level",
         "--out", "bleu.tsv")
    _run("correlate", "--x", "score.tsv", "--y", "bleu.tsv", "--out", "correlate.tsv")
    _run("bucket-eval", "--wcm", "train.wcm", "--source", "test.src", "--hypothesis", "test.hyp",
         "--reference", "test.ref", "--buckets", "<50,>=50", "--out", "bucket.tsv")
    _run("histogram", "--scores", "score.tsv", "--out", "histogram.tsv")

    (r, _, p, n), = _rows(tmp_path / "correlate.tsv")
    assert int(n) == 2_000
    assert float(r) > 0.3
    assert float(p) < 0.001

    (low, low_n, low_bleu), (high, high_n, high_bleu) = _rows(tmp_path / "bucket.tsv")
    assert (low, high) == ("<50", ">=50")
    assert int(low_n) > 0 and int(high_n) > 0
    assert int(low_n) + int(high_n) == 2_000
    assert float(high_bleu) - float(low_bleu) >= 5.0

    assert sum(int(count) for _, count in _rows(tmp_path / "histogram.tsv")) == 2_000
