import random

import pytest

from deqe.analysis import (
    DEFAULT_BUCKETS,
    MAX_BINS,
    MAX_CHART_BINS,
    BucketSpec,
    _bin_count,
    bucket_eval,
    filter_corpus,
    fold_buckets,
    histogram,
    iter_filter,
    render_histogram_svg,
)
from deqe.corpus import SegmentPair, TokenizerConfig, load_parallel_corpus, tokenize
from deqe.metrics import bleu_stats, corpus_bleu
from deqe.scoring import DeScore, de_score

from helpers import build_from_raw, make_matrix, tokenizer_pairs, write_lines


def _scores(values):
    return [DeScore.from_counts(100, round(v)) for v in values]


# ---------------------------------------------------------------------------
# bucket specs


def test_bucket_parse():
    below = BucketSpec.parse("<20")
    assert below.kind == "below" and below.threshold == 20.0
    above = BucketSpec.parse(">=50")
    assert above.kind == "at_or_above" and above.threshold == 50.0
    assert below.label == "<20"
    assert above.label == ">=50"


def test_bucket_parse_errors():
    for bad in ("20", ">20", "<=20", "<abc", "<120"):
        with pytest.raises(ValueError):
            BucketSpec.parse(bad)


def test_bucket_boundaries():
    above = BucketSpec.parse(">=50")
    below = BucketSpec.parse("<50")
    assert above.contains(50.0) and not below.contains(50.0)
    assert below.contains(49.999) and not above.contains(49.999)


def test_default_buckets_mirror_tables():
    labels = [b.label for b in DEFAULT_BUCKETS]
    assert labels == ["<20", "<30", "<40", "<50", ">=50", ">=60", ">=70", ">=80", ">=90"]


# ---------------------------------------------------------------------------
# bucket eval


def test_bucket_eval_full_bucket():
    scores = _scores([100, 100, 100])
    hyps = [["a", "b", "c", "d"]] * 3
    refs = [["a", "b", "c", "d"]] * 3
    report = bucket_eval(scores, hyps, refs, [BucketSpec.parse(">=50")])
    row = report.rows[0]
    assert row.segment_count == 3
    assert row.bleu.score == corpus_bleu(hyps, refs).score == 100.0


def test_bucket_eval_empty_bucket_reports_no_bleu():
    scores = _scores([80, 90])
    hyps = refs = [["a", "b"], ["c", "d"]]
    report = bucket_eval(scores, hyps, refs, [BucketSpec.parse("<20")])
    assert report.rows[0].segment_count == 0
    assert report.rows[0].bleu is None


def test_bucket_eval_misaligned():
    with pytest.raises(ValueError):
        bucket_eval(_scores([50]), [["a"]], [["a"], ["b"]])


def test_bucket_eval_and_fold_read_one_shot_iterables():
    rng = random.Random(41)
    n = 60
    eligible = [rng.randint(0, 6) for _ in range(n)]
    scores = [DeScore.from_counts(e, rng.randint(0, e)) for e in eligible]
    refs = [[rng.choice("abcdef") for _ in range(rng.randint(0, 8))] for _ in range(n)]
    hyps = [rng.sample(ref, len(ref)) + ["z"] * rng.randint(0, 2) for ref in refs]
    expected = bucket_eval(scores, hyps, refs)
    assert expected.total_segments == n
    assert bucket_eval((s for s in scores), (h for h in hyps), (r for r in refs)) == expected
    pairs = list(zip(scores, map(bleu_stats, hyps, refs)))
    assert fold_buckets(pairs) == fold_buckets(p for p in pairs) == expected


@pytest.mark.parametrize(
    "n_scores,n_hyps,n_refs",
    [(1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 2, 2), (0, 0, 0)],
    ids=["short-hyps-refs", "short-refs", "long-scores", "short-scores", "empty"],
)
def test_bucket_eval_one_shot_errors(n_scores, n_hyps, n_refs):
    with pytest.raises(ValueError):
        bucket_eval(
            (s for s in _scores([50] * n_scores)),
            (["a"] for _ in range(n_hyps)),
            (["a"] for _ in range(n_refs)),
        )


def test_fold_buckets_empty_input():
    with pytest.raises(ValueError):
        fold_buckets(p for p in [])


def test_bucket_eval_counts_monotone_and_union():
    rng = random.Random(23)
    scores = [DeScore.from_counts(10, rng.randint(0, 10)) for _ in range(200)]
    hyps = refs = [["w"]] * 200
    report = bucket_eval(scores, hyps, refs, DEFAULT_BUCKETS)
    below = [r.segment_count for r in report.rows if r.spec.kind == "below"]
    above = [r.segment_count for r in report.rows if r.spec.kind == "at_or_above"]
    assert below == sorted(below)
    assert above == sorted(above, reverse=True)
    # complementary buckets partition the corpus
    lt50 = next(r for r in report.rows if r.spec.label == "<50")
    ge50 = next(r for r in report.rows if r.spec.label == ">=50")
    assert lt50.segment_count + ge50.segment_count == report.total_segments == 200


def test_bucket_eval_counts_degenerates():
    scores = [DeScore.from_counts(0, 0), DeScore.from_counts(2, 1)]
    hyps = refs = [["a"], ["b"]]
    report = bucket_eval(scores, hyps, refs, [BucketSpec.parse("<50")])
    assert report.degenerate_segments == 1
    # the degenerate segment participates at value 0
    assert report.rows[0].segment_count == 1


# ---------------------------------------------------------------------------
# histogram


def test_histogram_hand_case():
    report = histogram([0.0, 50.0, 100.0], bin_width=50)
    assert report.bins == ((0.0, 1), (50.0, 2))


def test_histogram_empty():
    report = histogram([], bin_width=5)
    assert len(report.bins) == 20
    assert report.total == 0


def test_histogram_boundary_100_in_last_bin():
    report = histogram([100.0], bin_width=5)
    assert report.bins[-1] == (95.0, 1)


def test_histogram_bad_widths():
    for bad in (7, 0, -5, 33.4):
        with pytest.raises(ValueError):
            histogram([], bin_width=bad)
    # fractional widths that do divide 100 are fine
    assert len(histogram([], bin_width=2.5).bins) == 40


def test_bin_count_bounded():
    """A width finer than 100 / MAX_BINS is refused before any bin is made,
    and a NaN width is not positive."""
    assert _bin_count(0.0001) == MAX_BINS == 1_000_000
    for fine in (0.00005, 1e-300, 5e-324):
        with pytest.raises(ValueError, match=f"makes more than {MAX_BINS} bins"):
            _bin_count(fine)
    with pytest.raises(ValueError, match="bin width must be positive, got nan"):
        _bin_count(float("nan"))


@pytest.mark.parametrize("width", [0.1, 0.2, 0.4, 0.8, 1.25, 2.5, 5, 12.5])
def test_histogram_edge_values_open_their_bin(width):
    n = round(100 / width)
    report = histogram([k * 100 / n for k in range(n + 1)], width)
    # edge k opens bin k, even where dividing by the width falls short of k
    # (30.0 // 0.2 == 149.0); 100 closes the last bin
    assert [c for _, c in report.bins] == [1] * (n - 1) + [2]
    assert [lower for lower, _ in report.bins] == [k * 100 / n for k in range(n)]


def test_histogram_out_of_range_score():
    with pytest.raises(ValueError):
        histogram([101.0], bin_width=5)
    with pytest.raises(ValueError):
        histogram([-0.5], bin_width=5)


def test_histogram_permutation_invariant_and_total():
    rng = random.Random(29)
    values = [rng.uniform(0, 100) for _ in range(500)]
    base = histogram(values, 10)
    rng.shuffle(values)
    assert histogram(values, 10).bins == base.bins
    assert base.total == 500


def test_render_histogram_svg_draws_at_most_one_bin_per_pixel():
    assert MAX_CHART_BINS == 560  # the 640-pixel chart less two 40-pixel margins
    assert render_histogram_svg(histogram([50.0], 100 / MAX_CHART_BINS)).count("<rect") == 561
    with pytest.raises(ValueError, match="a chart draws at most 560 bins, found 1000"):
        render_histogram_svg(histogram([50.0], 0.1))


def test_render_histogram_svg_deterministic():
    report = histogram([5, 5, 60, 99.9], 10)
    svg = render_histogram_svg(report)
    assert svg.startswith("<svg") or "<svg" in svg
    assert svg.count("<rect") == len(report.bins) + 1  # bars + background
    assert render_histogram_svg(report) == svg


# ---------------------------------------------------------------------------
# corpus filtering


@pytest.fixture
def toy_filter_setup(tmp_path):
    # every aligned word pair co-occurs 5 times; one shuffled pair is noise
    raw = [("a b", "x y")] * 5 + [("c", "z")] * 5 + [("a c", "q r")]
    matrix = build_from_raw(raw, min_cooccurrence=5)
    write_lines(tmp_path / "src", [s for s, _ in raw])
    write_lines(tmp_path / "tgt", [t for _, t in raw])
    return matrix, tmp_path / "src", tmp_path / "tgt", raw


def test_filter_min_de_zero_keeps_all(toy_filter_setup):
    matrix, src, tgt, raw = toy_filter_setup
    kept, dropped = [], []
    summary = filter_corpus(
        matrix, load_parallel_corpus(src, tgt), 0.0, keep=kept.append, drop=dropped.append
    )
    assert len(kept) == len(raw)
    assert dropped == []
    assert summary.total == len(raw)
    assert summary.kept == len(raw)


def test_filter_drops_mismatched_pair(toy_filter_setup):
    matrix, src, tgt, raw = toy_filter_setup
    kept, dropped = [], []
    summary = filter_corpus(
        matrix, load_parallel_corpus(src, tgt), 50.0, keep=kept.append, drop=dropped.append
    )
    assert [p.index for p in dropped] == [10]
    assert len(kept) == 10
    assert summary.dropped == 1
    assert summary.histogram.total == summary.total == 11


def test_filter_partition_preserves_order(toy_filter_setup):
    matrix, src, tgt, raw = toy_filter_setup
    kept, dropped = [], []
    summary = filter_corpus(
        matrix, load_parallel_corpus(src, tgt), 50.0, keep=kept.append, drop=dropped.append
    )
    merged = sorted(kept + dropped, key=lambda p: p.index)
    assert [p.index for p in merged] == list(range(len(raw)))
    assert [p.index for p in kept] == sorted(p.index for p in kept)
    assert summary.kept + summary.dropped == summary.total


def test_filter_min_de_out_of_range(toy_filter_setup):
    matrix, src, tgt, _ = toy_filter_setup
    for bad in (-1.0, 100.5):
        with pytest.raises(ValueError):
            list(iter_filter(matrix, [SegmentPair(0, "a", "x")], bad))
        with pytest.raises(ValueError):
            filter_corpus(
                matrix, load_parallel_corpus(src, tgt), bad, keep=[].append, drop=[].append
            )


_TOKENIZERS = [TokenizerConfig(lower, strip) for lower in (False, True) for strip in (False, True)]


@pytest.mark.parametrize(
    "tokenizer", _TOKENIZERS, ids=["default", "strip-punct", "lowercase", "lowercase-strip-punct"]
)
def test_iter_filter_scores_each_pair_as_tokenize_does(tokenizer):
    """``iter_filter`` tokenizes its pairs with the matrix's tokenizer as one
    stream of texts; each decision is the one ``tokenize`` gives its pair
    alone, in input order, on texts of NFD accents, case pairs, edge
    punctuation, BOMs inside words and separators that ``str.split`` cuts
    at."""
    rng = random.Random(2000)
    pairs = tokenizer_pairs(rng, 200)
    tokens = sorted({t for p in pairs for text in p[1:] for t in tokenize(text, tokenizer)})
    entries = {(s, t): 20 for s in tokens for t in tokens if rng.random() < 0.3}
    matrix = make_matrix(entries, tokenizer=tokenizer)
    for by_type in (False, True):
        expected = [
            de_score(
                matrix,
                tokenize(p.source, tokenizer),
                tokenize(p.target, tokenizer),
                by_type=by_type,
            )
            for p in pairs
        ]
        decisions = list(iter_filter(matrix, iter(pairs), 40.0, by_type=by_type))
        assert [d.pair for d in decisions] == pairs
        assert [d.de for d in decisions] == expected
        assert [d.kept for d in decisions] == [de.value >= 40.0 for de in expected]


@pytest.mark.parametrize("k", [0, 1, 2, 7])
def test_iter_filter_decides_each_pair_before_the_stream_fails(k):
    """A pair stream that raises after ``k`` pairs first gives ``k``
    decisions, each made when no later pair has been read."""
    pairs = tokenizer_pairs(random.Random(k), k)
    matrix = make_matrix({("a", "a"): 20})
    read = []

    def failing():
        for pair in pairs:
            read.append(pair)
            yield pair
        raise OSError("pair stream failed")

    decisions = iter_filter(matrix, failing(), 50.0)
    for i, pair in enumerate(pairs):
        assert next(decisions).pair == pair
        assert read == pairs[: i + 1]
    with pytest.raises(OSError, match="pair stream failed"):
        next(decisions)
