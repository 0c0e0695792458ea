"""The benchmark workloads and their seeded input generator.

Inputs are drawn from a ``random.Random`` seeded with the workload's name
and the run's seed, and written as plain one-segment-per-line files; the
program under test sees only those files. The same seed gives the same
bytes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class CorpusShape:
    """How a training or test corpus is drawn.

    Segments have 5-30 source tokens drawn with Zipf weights 1/r**exponent
    over ``types`` ranks; the target side is the word-for-word translation
    in shuffled order. ``junk_share`` of the targets have 50-100 % of their
    words replaced by globally unique junk tokens.
    """

    types: int
    exponent: float
    junk_share: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # The CLI subcommands the end-to-end run repeats, in order.
    sequence: tuple[str, ...]
    shape: CorpusShape
    train_segments: int
    test_segments: int
    # Threshold for `filter`; chosen so that neither output side is empty.
    min_de: float

    @property
    def uses_test_set(self) -> bool:
        """Whether the end-to-end sequence reads the test set; otherwise it
        is generated only for the traced run."""
        return any(not _READS_TRAIN[c] for c in self.sequence)


# Whether each subcommand reads the training corpus (else the test set).
_READS_TRAIN = {
    "vocab-stats": True,
    "build-wcm": True,
    "filter": True,
    "score": False,
    "bucket-eval": False,
    "bleu": False,
    "correlate": False,
    "histogram": False,
}

ZIPF = CorpusShape(types=20_000, exponent=1.0)
HAPAX = CorpusShape(types=200_000, exponent=0.8, junk_share=0.2)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "build-zipf",
            "realistic Zipfian build: read+tokenize and the pre-prune pair "
            "Counter do the work; scoring and BLEU do none",
            ("vocab-stats", "build-wcm"),
            ZIPF,
            train_segments=10_000,
            test_segments=1_000,
            min_de=50.0,
        ),
        Workload(
            "score-eval",
            "test-time path on a WCM built in set-up: load, transpose, forward "
            "and reverse DE, BLEU and buckets; no counting",
            ("score", "bucket-eval", "bleu", "correlate", "histogram"),
            ZIPF,
            train_segments=8_000,
            test_segments=3_000,
            min_de=50.0,
        ),
        Workload(
            "filter-hapax",
            "hapax-heavy noisy corpus, build-wcm then filter: almost every "
            "counted pair is pruned, where prefiltering would show",
            ("build-wcm", "filter"),
            HAPAX,
            train_segments=8_000,
            test_segments=1_000,
            min_de=20.0,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Paths of one workload's generated files."""

    train_source: Path
    train_target: Path
    test_source: Path
    test_reference: Path
    test_hypothesis: Path


class _Sampler:
    def __init__(self, shape: CorpusShape):
        self.shape = shape
        weights = [1.0 / r**shape.exponent for r in range(1, shape.types + 1)]
        self.cum_weights = list(itertools.accumulate(weights))
        self.ranks = range(shape.types)

    def target_word(self, rng: random.Random) -> str:
        return f"t{rng.choices(self.ranks, cum_weights=self.cum_weights)[0]}"

    def segment(self, rng: random.Random) -> tuple[list[str], list[str]]:
        length = rng.randint(5, 30)
        ids = rng.choices(self.ranks, cum_weights=self.cum_weights, k=length)
        target = [f"t{i}" for i in ids]
        rng.shuffle(target)
        return [f"s{i}" for i in ids], target


def _write(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _junk(rng: random.Random, target: list[str], counter: itertools.count) -> list[str]:
    words = list(target)
    k = max(1, round(rng.uniform(0.5, 1.0) * len(words)))
    for pos in rng.sample(range(len(words)), k):
        words[pos] = f"junk{next(counter)}"
    return words


def _corrupt(
    rng: random.Random, reference: list[str], sampler: _Sampler, counter: itertools.count
) -> list[str]:
    """Hypothesis from a reference at a per-segment corruption level drawn
    uniformly: each token is kept, or with that probability replaced by a
    wrong in-vocabulary word, deleted, or followed by an OOV insertion."""
    level = rng.random()
    out = []
    for tok in reference:
        if rng.random() >= level:
            out.append(tok)
            continue
        op = rng.randrange(3)
        if op == 0:
            out.append(sampler.target_word(rng))
        elif op == 2:
            out.append(tok)
            out.append(f"oov{next(counter)}")
    return out


def generate(workload: Workload, seed: int, directory: Path, *, with_test_set: bool) -> Inputs:
    """Write the workload's training corpus (and test set) under
    ``directory``; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = Inputs(*(directory / name for name in ("train.src", "train.tgt", "test.src", "test.ref", "test.hyp")))
    rng = random.Random(f"{workload.name}:{seed}")
    sampler = _Sampler(workload.shape)
    junk = itertools.count()
    src_lines, tgt_lines = [], []
    for _ in range(workload.train_segments):
        src, tgt = sampler.segment(rng)
        if workload.shape.junk_share and rng.random() < workload.shape.junk_share:
            tgt = _junk(rng, tgt, junk)
        src_lines.append(" ".join(src))
        tgt_lines.append(" ".join(tgt))
    _write(paths.train_source, src_lines)
    _write(paths.train_target, tgt_lines)
    if with_test_set:
        oov = itertools.count()
        src_lines, ref_lines, hyp_lines = [], [], []
        for _ in range(workload.test_segments):
            src, ref = sampler.segment(rng)
            src_lines.append(" ".join(src))
            ref_lines.append(" ".join(ref))
            hyp_lines.append(" ".join(_corrupt(rng, ref, sampler, oov)))
        _write(paths.test_source, src_lines)
        _write(paths.test_reference, ref_lines)
        _write(paths.test_hypothesis, hyp_lines)
    return paths


def command_args(workload: Workload, inputs: Inputs, wcm: Path, out: Path) -> dict[str, tuple]:
    """Arguments of every CLI subcommand the benchmark runs, with its
    outputs under ``out``, keyed by subcommand."""
    train = ("--source", inputs.train_source, "--target", inputs.train_target)
    test = ("--source", inputs.test_source, "--hypothesis", inputs.test_hypothesis)
    return {
        "vocab-stats": (*train, "--out", out / "vocab.tsv"),
        "build-wcm": (*train, "--out", wcm),
        "score": ("--wcm", wcm, *test, "--reverse", "--out", out / "score.tsv"),
        "bucket-eval": ("--wcm", wcm, *test, "--reference", inputs.test_reference, "--out", out / "bucket.tsv"),
        "bleu": (
            "--hypothesis", inputs.test_hypothesis, "--reference", inputs.test_reference,
            "--sentence-level", "--out", out / "bleu.tsv",
        ),
        "correlate": ("--x", out / "de.txt", "--y", out / "sbleu.txt", "--out", out / "correlate.tsv"),
        "histogram": ("--scores", out / "score.tsv", "--out", out / "histogram.tsv"),
        "filter": (
            "--wcm", wcm, *train, "--min-de", workload.min_de,
            "--kept-prefix", out / "kept", "--dropped-prefix", out / "dropped", "--out", out / "filter.tsv",
        ),
    }


def segments_read(workload: Workload, subcommand: str) -> int:
    """Input segments one run of ``subcommand`` handles."""
    return workload.train_segments if _READS_TRAIN[subcommand] else workload.test_segments
