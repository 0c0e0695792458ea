"""Bench-owned oracles and output checks.

The oracles are brute-force reimplementations in the style of
``tests/oracles.py``: plain dicts, no code shared with the package. The only
package call is ``deqe.wcm.load_wcm``, used to read a matrix the CLI wrote,
so the checks compare meaning rather than bytes and survive a change of the
WCM file format. Tokens are whitespace-split: the generated inputs are
ASCII, where that equals the package's default tokenizer.

Each check returns ``None`` when the output is right and a one-line
description of the first difference otherwise.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from pathlib import Path

from harness import Tally
from workloads import Inputs, Workload

# The CLI defaults every workload runs with.
MIN_COOC = 20
HIFREQ_CUTOFF = 10_000
BIN_WIDTH = 5.0
BUCKETS = ("<20", "<30", "<40", "<50", ">=50", ">=60", ">=70", ">=80", ">=90")

SAMPLED_TYPES = 24
SAMPLED_SEGMENTS = 200


def read_lines(path: Path) -> list[str]:
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read().split("\n")[:-1]


def read_tokens(path: Path) -> list[list[str]]:
    return [line.split() for line in read_lines(path)]


def report_rows(path: Path) -> list[list[str]]:
    """Data rows of a report, split on tabs; '#' lines are skipped."""
    return [line.split("\t") for line in read_lines(path) if not line.startswith("#")]


def report_columns(path: Path) -> dict[str, int]:
    for line in read_lines(path):
        if line.startswith("# columns: "):
            return {name: i for i, name in enumerate(line[len("# columns: ") :].split())}
    raise ValueError(f"{path.name}: no '# columns:' line")


class CorpusOracle:
    """Brute-force frequencies, exclusions and binary co-occurrence counts
    of one tokenized training corpus."""

    def __init__(self, source: list[list[str]], target: list[list[str]]):
        self.source = source
        self.target = target
        self.source_freq = Counter(tok for seg in source for tok in seg)
        self.target_freq = Counter(tok for seg in target for tok in seg)
        self.excluded_source = {w for w, f in self.source_freq.items() if f > HIFREQ_CUTOFF}
        self.excluded_target = {w for w, f in self.target_freq.items() if f > HIFREQ_CUTOFF}

    def links(self, source_types) -> dict[str, dict[str, int]]:
        """Surviving (>= MIN_COOC) counts of each non-excluded source type
        in ``source_types`` that occurs in the corpus."""
        wanted = (set(source_types) & self.source_freq.keys()) - self.excluded_source
        counts: dict[str, dict[str, int]] = {s: {} for s in wanted}
        for src, tgt in zip(self.source, self.target):
            hit = wanted.intersection(src)
            if not hit:
                continue
            targets = set(tgt) - self.excluded_target
            for s in hit:
                row = counts[s]
                for t in targets:
                    row[t] = row.get(t, 0) + 1
        return {s: {t: c for t, c in row.items() if c >= MIN_COOC} for s, row in counts.items()}

    def sample_source_types(self, rng: random.Random) -> list[str]:
        """Types at log-spaced frequency ranks (the most frequent, which the
        cutoff may exclude, down to hapaxes) plus a few at random ranks."""
        ranked = sorted(self.source_freq, key=lambda w: (-self.source_freq[w], w))
        n = len(ranked)
        k = SAMPLED_TYPES // 2
        picks = {round(n ** (i / (k - 1))) - 1 for i in range(k)}
        picks.update(rng.sample(range(n), min(n, SAMPLED_TYPES - len(picks))))
        return [ranked[i] for i in sorted(picks)]


def oracle_de(
    oracle: CorpusOracle, links: dict[str, dict[str, int]], src: list[str], hyp: list[str]
) -> tuple[float, int, int]:
    """Forward DE as (value, eligible, evidenced): the share of
    non-excluded source tokens linked to any hypothesis token."""
    hyp_set = set(hyp)
    eligible = evidenced = 0
    for tok, mult in Counter(src).items():
        if tok in oracle.excluded_source:
            continue
        eligible += mult
        if hyp_set.intersection(links.get(tok, ())):
            evidenced += mult
    return _de_value(eligible, evidenced), eligible, evidenced


def oracle_reverse_de(
    oracle: CorpusOracle, links: dict[str, dict[str, int]], src: list[str], hyp: list[str]
) -> float:
    """Reverse DE: the share of non-excluded hypothesis tokens linked to any
    source token."""
    linked = set()
    for tok in set(src):
        linked.update(links.get(tok, ()))
    eligible = evidenced = 0
    for tok, mult in Counter(hyp).items():
        if tok in oracle.excluded_target:
            continue
        eligible += mult
        if tok in linked:
            evidenced += mult
    return _de_value(eligible, evidenced)


def _de_value(eligible: int, evidenced: int) -> float:
    return 100.0 * evidenced / eligible if eligible else 0.0


def _ngrams(tokens: list[str], n: int) -> dict[tuple[str, ...], int]:
    counts: dict[tuple[str, ...], int] = {}
    for i in range(len(tokens) - n + 1):
        gram = tuple(tokens[i : i + n])
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def _clipped(hyp: list[str], ref: list[str], n: int) -> tuple[int, int]:
    h = _ngrams(hyp, n)
    r = _ngrams(ref, n)
    return sum(min(c, r.get(g, 0)) for g, c in h.items()), max(0, len(hyp) - n + 1)


def _brevity(hyp_len: int, ref_len: int) -> float:
    if hyp_len == 0:
        return 0.0
    return 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)


def _geometric(precisions: list[float], bp: float) -> float:
    if bp == 0.0 or min(precisions) == 0.0:
        return 0.0
    return 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / 4)


def pooled_bleu(hyps: list[list[str]], refs: list[list[str]]) -> float:
    """Corpus BLEU-4: clipped n-gram counts pooled over all segments."""
    matches = [0] * 4
    totals = [0] * 4
    for hyp, ref in zip(hyps, refs):
        for n in range(1, 5):
            m, t = _clipped(hyp, ref, n)
            matches[n - 1] += m
            totals[n - 1] += t
    precisions = [m / t if t else 0.0 for m, t in zip(matches, totals)]
    bp = _brevity(sum(map(len, hyps)), sum(map(len, refs)))
    return _geometric(precisions, bp)


def smoothed_sentence_bleu(hyp: list[str], ref: list[str]) -> float:
    """Sentence BLEU-4, add-one smoothing for n >= 2; 0 for an empty
    hypothesis."""
    if not hyp:
        return 0.0
    precisions = []
    for n in range(1, 5):
        m, t = _clipped(hyp, ref, n)
        precisions.append(m / t if n == 1 else (m + 1) / (t + 1))
    return _geometric(precisions, _brevity(len(hyp), len(ref)))


def pearson_r(xs: list[float], ys: list[float]) -> float:
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def _in_bucket(label: str, value: float) -> bool:
    if label.startswith(">="):
        return value >= float(label[2:])
    return value < float(label[1:])


# ---------------------------------------------------------------------------
# checks


def check_vocab_stats(report: Path, oracle: CorpusOracle) -> str | None:
    got = {(row[0], row[1]): row[2] for row in report_rows(report)}
    for side, freq in (("source", oracle.source_freq), ("target", oracle.target_freq)):
        expected = {
            "vocab_size": len(freq),
            "token_count": sum(freq.values()),
            "types_freq_eq_1": sum(1 for f in freq.values() if f == 1),
            "hifreq_type_count": sum(1 for f in freq.values() if f > HIFREQ_CUTOFF),
        }
        for key, value in expected.items():
            if got.get((side, key)) != str(value):
                return f"{side} {key}: report {got.get((side, key))}, oracle {value}"
    return None


def _load_matrix(path: Path):
    # The checkout's own loader, importable once run.py has put its src/ on
    # the path; it reads every format version the package supports.
    from deqe.wcm import load_wcm

    return load_wcm(path)


def check_wcm(path: Path, oracle: CorpusOracle, sample: list[str]) -> str | None:
    """Exact exclusion sets and exact surviving rows for sampled types."""
    matrix = _load_matrix(path)
    if matrix.excluded_source_tokens() != oracle.excluded_source:
        return "excluded source types differ from the oracle"
    if matrix.excluded_target_tokens() != oracle.excluded_target:
        return "excluded target types differ from the oracle"
    expected = oracle.links(sample)
    got: dict[str, dict[str, int]] = {s: {} for s in sample}
    for s, t, c in matrix.entries():
        if s in got:
            got[s][t] = c
    for s in sample:
        if got[s] != expected.get(s, {}):
            return f"row of {s!r}: {len(got[s])} entries, oracle {len(expected.get(s, {}))}"
    return None


def matrix_links(path: Path) -> dict[str, dict[str, int]]:
    """The rows of a matrix file, in the shape ``CorpusOracle.links`` gives."""
    links: dict[str, dict[str, int]] = {}
    for s, t, c in _load_matrix(path).entries():
        links.setdefault(s, {})[t] = c
    return links


def check_same_matrix(path_a: Path, path_b: Path) -> str | None:
    if _load_matrix(path_a) != _load_matrix(path_b):
        return f"{path_a.name} and {path_b.name} hold different matrices"
    return None


def check_scores(
    report: Path,
    oracle: CorpusOracle,
    links: dict[str, dict[str, int]],
    sources: list[list[str]],
    hyps: list[list[str]],
    sample,
) -> str | None:
    """Forward (value, eligible, evidenced) and reverse DE of the segments
    in ``sample`` match the oracle; one row per segment, in order."""
    cols = report_columns(report)
    rows = report_rows(report)
    if [int(r[cols["index"]]) for r in rows] != list(range(len(sources))):
        return f"{len(rows)} rows for {len(sources)} segments, or out of order"
    for i in sample:
        row = rows[i]
        value, eligible, evidenced = oracle_de(oracle, links, sources[i], hyps[i])
        if (int(row[cols["eligible"]]), int(row[cols["evidenced"]])) != (eligible, evidenced):
            got = f"{row[cols['eligible']]}/{row[cols['evidenced']]}"
            return f"segment {i}: eligible/evidenced {got}, oracle {eligible}/{evidenced}"
        if abs(float(row[cols["de"]]) - value) > 1e-6:
            return f"segment {i}: de {row[cols['de']]}, oracle {value:.6f}"
        reverse = oracle_reverse_de(oracle, links, sources[i], hyps[i])
        if abs(float(row[cols["reverse_de"]]) - reverse) > 1e-6:
            return f"segment {i}: reverse_de {row[cols['reverse_de']]}, oracle {reverse:.6f}"
    return None


def de_values(score_report: Path) -> list[float]:
    cols = report_columns(score_report)
    return [float(r[cols["de"]]) for r in report_rows(score_report)]


def check_buckets(
    report: Path,
    scores: list[float],
    hyps: list[list[str]],
    refs: list[list[str]],
    rng: random.Random,
) -> str | None:
    """Bucket sizes agree with the score report; one sampled non-empty
    bucket's BLEU equals a naive pooled BLEU over its members."""
    rows = report_rows(report)
    if [r[0] for r in rows] != list(BUCKETS):
        return f"buckets {[r[0] for r in rows]}, expected {list(BUCKETS)}"
    members = {label: [i for i, v in enumerate(scores) if _in_bucket(label, v)] for label in BUCKETS}
    for label, count, _ in rows:
        if int(count) != len(members[label]):
            return f"bucket {label}: {count} segments, score report gives {len(members[label])}"
    label, _, reported = rng.choice([r for r in rows if r[2] != "NA"])
    idx = members[label]
    expected = pooled_bleu([hyps[i] for i in idx], [refs[i] for i in idx])
    if abs(float(reported) - expected) > 0.005 + 1e-9:
        return f"bucket {label}: BLEU {reported}, oracle {expected:.4f}"
    return None


def sentence_bleu_values(report: Path) -> list[float]:
    return [float(r[1]) for r in report_rows(report)]


def check_sentence_bleu(
    report: Path, hyps: list[list[str]], refs: list[list[str]], sample: list[int]
) -> str | None:
    values = sentence_bleu_values(report)
    if len(values) != len(hyps):
        return f"{len(values)} sentence BLEU rows for {len(hyps)} segments"
    for i in sample:
        expected = smoothed_sentence_bleu(hyps[i], refs[i])
        if abs(values[i] - expected) > 1e-6:
            return f"segment {i}: sentence BLEU {values[i]}, oracle {expected:.6f}"
    return None


def check_correlation(report: Path, xs: list[float], ys: list[float]) -> str | None:
    (row,) = report_rows(report)
    expected = pearson_r(xs, ys)
    if abs(float(row[0]) - expected) > 1e-6 or int(row[3]) != len(xs):
        return f"r={row[0]} n={row[3]}, oracle r={expected:.6f} n={len(xs)}"
    return None


def check_histogram(report: Path, scores: list[float]) -> str | None:
    n_bins = round(100.0 / BIN_WIDTH)
    counts = [0] * n_bins
    for v in scores:
        counts[min(int(v // BIN_WIDTH), n_bins - 1)] += 1
    got = [int(r[1]) for r in report_rows(report)]
    if got != counts:
        return f"bin counts {got}, oracle {counts}"
    return None


def check_filter(
    summary: Path,
    kept_prefix: Path,
    dropped_prefix: Path,
    source_lines: list[str],
    target_lines: list[str],
    oracle: CorpusOracle,
    links: dict[str, dict[str, int]],
    min_de: float,
    sample,
) -> str | None:
    """The kept and dropped files are an order-preserving partition of the
    input, the decisions on segments in ``sample`` follow the oracle DE,
    and the summary counts agree with the files."""
    kept = list(zip(read_lines(Path(f"{kept_prefix}.source")), read_lines(Path(f"{kept_prefix}.target"))))
    dropped = list(
        zip(read_lines(Path(f"{dropped_prefix}.source")), read_lines(Path(f"{dropped_prefix}.target")))
    )
    # Equal pairs get equal scores, so taking the kept side first whenever
    # it matches cannot mis-assign a duplicate.
    k = d = 0
    decisions = []
    for pair in zip(source_lines, target_lines):
        if k < len(kept) and kept[k] == pair:
            k += 1
            decisions.append(True)
        elif d < len(dropped) and dropped[d] == pair:
            d += 1
            decisions.append(False)
        else:
            return f"input segment {len(decisions)} is in neither output in order"
    if k != len(kept) or d != len(dropped):
        return "the outputs hold segments that are not in the input"
    if not kept or not dropped:
        return f"min_de {min_de:g} leaves an output empty ({len(kept)} kept, {len(dropped)} dropped)"
    for i in sample:
        value, _, _ = oracle_de(oracle, links, source_lines[i].split(), target_lines[i].split())
        if decisions[i] != (value >= min_de):
            return f"segment {i}: kept={decisions[i]}, oracle DE {value:.6f}"
    stats = {r[0]: r[1] for r in report_rows(summary) if r[0] != "bin"}
    expected = {"total": len(source_lines), "kept": len(kept), "dropped": len(dropped)}
    for key, value in expected.items():
        if stats.get(key) != str(value):
            return f"summary {key}={stats.get(key)}, outputs give {value}"
    return None


def verify(tally: Tally, workload: Workload, inputs: Inputs, out: Path, wcm: Path, seed: int) -> None:
    """Check every output present under ``out`` (and the matrix) against
    the oracles; each check counts as one operation.

    Scores are checked twice: on sampled segments against counts taken
    from the corpus, and on every segment against the rows of the matrix
    itself, whose sampled rows were checked against the corpus first.
    """
    rng = random.Random(f"check:{seed}")
    train_src = read_tokens(inputs.train_source)
    train_tgt = read_tokens(inputs.train_target)
    oracle = CorpusOracle(train_src, train_tgt)
    tally.check("wcm rows and exclusions", check_wcm, wcm, oracle, oracle.sample_source_types(rng))
    try:
        rows = matrix_links(wcm)
    except Exception:  # an unreadable matrix fails the check above and every check below
        rows = None
    if (out / "t1.wcm").exists():
        tally.check("--threads 1 equals default", check_same_matrix, out / "t1.wcm", wcm)
    if (out / "vocab.tsv").exists():
        tally.check("vocab-stats", check_vocab_stats, out / "vocab.tsv", oracle)
    if (out / "score.tsv").exists():
        sources = read_tokens(inputs.test_source)
        hyps = read_tokens(inputs.test_hypothesis)
        refs = read_tokens(inputs.test_reference)
        sample = sorted(rng.sample(range(len(sources)), min(len(sources), SAMPLED_SEGMENTS)))
        links = oracle.links({tok for i in sample for tok in sources[i]})
        score = out / "score.tsv"
        for label, linked, segments in (("sampled", links, sample), ("all", rows, range(len(sources)))):
            tally.check(f"score DE, {label} segments", check_scores, score, oracle, linked, sources, hyps, segments)
        scores = de_values(score)
        if (out / "bucket.tsv").exists():
            tally.check("bucket-eval", check_buckets, out / "bucket.tsv", scores, hyps, refs, rng)
        if (out / "bleu.tsv").exists():
            tally.check("sentence bleu", check_sentence_bleu, out / "bleu.tsv", hyps, refs, sample)
        if (out / "correlate.tsv").exists():
            sbleu = sentence_bleu_values(out / "bleu.tsv")
            tally.check("correlate", check_correlation, out / "correlate.tsv", scores, sbleu)
        if (out / "histogram.tsv").exists():
            tally.check("histogram", check_histogram, out / "histogram.tsv", scores)
    if (out / "filter.tsv").exists():
        source_lines = read_lines(inputs.train_source)
        target_lines = read_lines(inputs.train_target)
        sample = sorted(rng.sample(range(len(train_src)), SAMPLED_SEGMENTS))
        links = oracle.links({tok for i in sample for tok in train_src[i]})
        for label, linked, segments in (("sampled", links, sample), ("all", rows, range(len(train_src)))):
            tally.check(
                f"filter partition, {label} decisions",
                check_filter,
                out / "filter.tsv",
                out / "kept",
                out / "dropped",
                source_lines,
                target_lines,
                oracle,
                linked,
                workload.min_de,
                segments,
            )
