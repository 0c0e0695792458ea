"""Byte-identity of CLI outputs on one seeded corpus.

The SHA-256 digests below are of the files the earlier implementation
wrote from the same inputs, when reverse DE had its own loop, each bucket
recounted its n-grams, the filter command kept its own tally, and
`correlate` and `histogram` each had a reader of their own. Any change to
scoring, BLEU, bucketing, filtering or report reading that alters one
output byte fails here. `correlate_reports.tsv`, the correlation read
straight from the `score` and `bleu --sentence-level` reports, was first
written by the shared reader; its r is also checked against the library.
`train.wcm`'s digest is of the v2 file, which ends its header with a
`#tokenizer` line; its other lines are those of the earlier v1 file.
"""

import hashlib
import random

import pytest

from deqe.cli import main
from deqe.corpus import iter_aligned, tokenize
from deqe.metrics import pearson, sentence_bleu
from deqe.scoring import de_score
from deqe.wcm import load_wcm

from helpers import write_lines

GOLDEN = {
    "train.wcm": "1d9bbee45a29825db680dcbdbd2beab5b601086c8c2581e4a53544b36c409ae7",
    "score_reverse.tsv": "805e71e6c0f4809591fb644fed6b06f6ce7c84adf9721034b60bf76e2172f301",
    "bucket_default.tsv": "200b78e708cd090010fcb2f5f8e3173d8759a6b54cc3c9bf166370fe75614189",
    "bucket_empty.tsv": "15246461c3912296c8d0f87d6191e9bae9d9e17868ff08055efbf3a8246b6cd4",
    "bleu.tsv": "0d2baa5a48a9dbcc35797af17a1e20d9c0f0b61a6130aa6f1fe7b94f84f7c428",
    "bleu_sentence.tsv": "067c195d8ea4f0b4f584884b68ab5e9ac670b657c10a7fcd6ffc7eb398285e26",
    "filter_tsv.tsv": "b3b66a111e6acbad339d88045e20b47fb7289e7e5d23d6fd991cbc2361c3f815",
    "tsv_kept.source": "91afcabf37886b14e584d736744d7f302dab0facffc77ea63add37baa03823d5",
    "tsv_kept.target": "494886906c593b59dc19b620b8c1f3c803689c7f775d9844f8a228fae2336135",
    "tsv_dropped.source": "4502e78c23f43d4c9e7e7513b81bfc001a530d6a9f019189677411e55693c87b",
    "tsv_dropped.target": "b8c74147d44dfb1b0aeb24a356e46e4b9dd567ad1f3c188e278e36d4f6418d56",
    "filter_files.tsv": "b022001f3b0bf055200e29ea9c4c591edac42d22a3b6fd1510ee9f4344b91e1c",
    "files_kept.source": "91afcabf37886b14e584d736744d7f302dab0facffc77ea63add37baa03823d5",
    "files_kept.target": "494886906c593b59dc19b620b8c1f3c803689c7f775d9844f8a228fae2336135",
    "files_dropped.source": "4502e78c23f43d4c9e7e7513b81bfc001a530d6a9f019189677411e55693c87b",
    "files_dropped.target": "b8c74147d44dfb1b0aeb24a356e46e4b9dd567ad1f3c188e278e36d4f6418d56",
    "correlate_bare.tsv": "caa7065b49d577607790821eceed89f961ccdc0076eb1620ed4c7a01f316e5df",
    "histogram.tsv": "b3e50bb5e692daf03f8fc3db78d42d4b6d84adc0f0b8d02b6fc10eb80dd1e8b6",
    "histogram.svg": "de3422722f92e6e8503af07be1da8f5ceb06ec238b46669e5a38a002e62722be",
    "correlate_reports.tsv": "1a31db2838e29d30e6b023ca8ea19a1013c189860f6efe630117a679888088ed",
}


def _write_inputs(rng: random.Random) -> None:
    """A Zipfian training corpus with 10 % noisy targets, and a test set
    whose hypotheses range from the reference to unrelated words, with an
    empty line, an out-of-vocabulary segment and a repeated word."""
    n_types = 120
    weights = [1.0 / r for r in range(1, n_types + 1)]

    def segment(k: int) -> tuple[str, str]:
        ranks = rng.choices(range(n_types), weights, k=k)
        tgt = [f"t{r}" for r in ranks]
        rng.shuffle(tgt)
        return " ".join(f"s{r}" for r in ranks), " ".join(tgt)

    train = [segment(rng.randint(2, 12)) for _ in range(600)]
    for i in rng.sample(range(len(train)), 60):
        src, tgt = train[i]
        train[i] = (src, " ".join(f"junk{i}_{j}" for j in range(len(tgt.split()))))
    write_lines("train.src", [s for s, _ in train])
    write_lines("train.tgt", [t for _, t in train])
    write_lines("train.tsv", [f"{s}\t{t}" for s, t in train])

    sources, hyps, refs = [], [], []
    for _ in range(80):
        src, ref = segment(rng.randint(1, 10))
        words = ref.split()
        for pos in range(len(words)):
            if rng.random() < rng.choice((0.0, 0.3, 0.7)):
                words[pos] = rng.choice((f"t{rng.randrange(n_types)}", "oov"))
        sources.append(src)
        refs.append(ref)
        hyps.append(" ".join(words))
    sources += ["", "unseen words only", "s0 s0 s0 s1"]
    hyps += ["t0", "t1 t2", "t0 t0 t1 t1 t0"]
    refs += ["t0 t1", "", "t0 t1 t0 t0"]
    write_lines("test.src", sources)
    write_lines("test.hyp", hyps)
    write_lines("test.ref", refs)


def _run(*argv: str) -> None:
    assert main([*argv, "--quiet"]) == 0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        _write_inputs(random.Random(20_231))
        _run("build-wcm", "--source", "train.src", "--target", "train.tgt", "--out", "train.wcm",
             "--min-cooc", "3", "--hifreq-cutoff", "400", "--threads", "1")
        test = ["--source", "test.src", "--hypothesis", "test.hyp"]
        _run("score", "--wcm", "train.wcm", *test, "--reverse", "--out", "score_reverse.tsv")
        _run("bucket-eval", "--wcm", "train.wcm", *test, "--reference", "test.ref",
             "--out", "bucket_default.tsv")
        _run("bucket-eval", "--wcm", "train.wcm", *test, "--reference", "test.ref",
             "--buckets", "<0,<50,>=50,>=100", "--out", "bucket_empty.tsv")
        bleu = ["--hypothesis", "test.hyp", "--reference", "test.ref"]
        _run("bleu", *bleu, "--out", "bleu.tsv")
        _run("bleu", *bleu, "--sentence-level", "--out", "bleu_sentence.tsv")
        # The second field of each report row, as bare one-real-per-line files.
        for report, bare in (("score_reverse.tsv", "de.txt"), ("bleu_sentence.tsv", "sbleu.txt")):
            rows = [line.split("\t") for line in (work / report).read_text().splitlines()]
            write_lines(bare, [row[1] for row in rows if not row[0].startswith("#")])
        _run("correlate", "--x", "de.txt", "--y", "sbleu.txt", "--out", "correlate_bare.tsv")
        _run("correlate", "--x", "score_reverse.tsv", "--y", "bleu_sentence.tsv",
             "--out", "correlate_reports.tsv")
        _run("histogram", "--scores", "score_reverse.tsv", "--chart", "histogram.svg",
             "--out", "histogram.tsv")
        _run("filter", "--wcm", "train.wcm", "--tsv", "train.tsv", "--min-de", "50",
             "--kept-prefix", "tsv_kept", "--dropped-prefix", "tsv_dropped", "--out", "filter_tsv.tsv")
        _run("filter", "--wcm", "train.wcm", "--source", "train.src", "--target", "train.tgt",
             "--min-de", "50", "--bin-width", "10", "--kept-prefix", "files_kept",
             "--dropped-prefix", "files_dropped", "--out", "filter_files.tsv")
    return work


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_golden_digest(outputs, name):
    data = (outputs / name).read_bytes()
    assert data, f"{name} is empty"
    assert hashlib.sha256(data).hexdigest() == GOLDEN[name]


def test_correlate_of_reports_matches_library(outputs):
    matrix = load_wcm(outputs / "train.wcm")
    de, bleu = [], []
    for src, hyp, ref in iter_aligned(*(outputs / f"test.{ext}" for ext in ("src", "hyp", "ref"))):
        de.append(de_score(matrix, tokenize(src), tokenize(hyp)).value)
        bleu.append(sentence_bleu(tokenize(hyp), tokenize(ref)).score)
    expected = pearson(de, bleu)
    (row,) = [line for line in (outputs / "correlate_reports.tsv").read_text().splitlines()
              if not line.startswith("#")]
    r, _, _, n = row.split("\t")
    assert int(n) == expected.n == 83
    assert abs(float(r) - expected.r) <= 1e-6
