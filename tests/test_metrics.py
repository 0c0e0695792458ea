import math
import random
from collections import Counter

import pytest

from deqe.analysis import DEFAULT_BUCKETS, BucketSpec, bucket_eval
from deqe.errors import UndefinedCorrelationError
from deqe.metrics import (
    bleu_stats,
    corpus_bleu,
    pearson,
    sentence_bleu,
    student_t_two_tailed,
)
from deqe.scoring import DeScore

from oracles import naive_bleu_stats, naive_corpus_bleu


def _random_segments(rng, n_max=10, vocab=8, len_max=12, allow_empty=True):
    alphabet = [f"w{i}" for i in range(vocab)]
    lo = 0 if allow_empty else 1
    return [
        [rng.choice(alphabet) for _ in range(rng.randint(lo, len_max))]
        for _ in range(rng.randint(1, n_max))
    ]


# ---------------------------------------------------------------------------
# corpus BLEU


def test_corpus_bleu_identity():
    segs = [["the", "cat", "sat", "down"], ["a", "b", "c", "d", "e"]]
    result = corpus_bleu(segs, segs)
    assert result.score == 100.0
    assert result.brevity_penalty == 1.0
    assert result.precisions == (1.0, 1.0, 1.0, 1.0)


def test_corpus_bleu_disjoint_is_zero():
    result = corpus_bleu([["p", "q", "r", "s"]], [["a", "b", "c", "d"]])
    assert result.score == 0.0
    assert result.precisions[0] == 0.0


def test_corpus_bleu_hand_computed():
    hyp = "the cat sat on the mat".split()
    ref = "the cat sat on a mat".split()
    result = corpus_bleu([hyp], [ref])
    assert result.precisions == (5 / 6, 3 / 5, 2 / 4, 1 / 3)
    assert result.brevity_penalty == 1.0
    expected = 100.0 * (5 / 6 * 3 / 5 * 2 / 4 * 1 / 3) ** 0.25
    assert result.score == pytest.approx(expected, abs=1e-9)
    assert result.score == pytest.approx(53.73, abs=0.01)


def test_corpus_bleu_brevity_penalty():
    hyp = [["a", "b"]]
    ref = [["a", "b", "c", "d"]]
    result = corpus_bleu(hyp, ref)
    assert result.brevity_penalty == pytest.approx(math.exp(1 - 4 / 2))
    assert result.hypothesis_length == 2
    assert result.reference_length == 4


def test_corpus_bleu_empty_hypotheses_allowed():
    result = corpus_bleu([[], ["a", "b", "c", "d"]], [["x"], ["a", "b", "c", "d"]])
    assert result.score > 0
    all_empty = corpus_bleu([[], []], [["x"], ["y"]])
    assert all_empty.score == 0.0
    assert all_empty.brevity_penalty == 0.0


def test_corpus_bleu_errors():
    with pytest.raises(ValueError):
        corpus_bleu([], [])
    with pytest.raises(ValueError):
        corpus_bleu([["a"]], [["a"], ["b"]])


def test_corpus_bleu_reads_one_shot_iterables():
    rng = random.Random(31)
    refs = _random_segments(rng, n_max=40)
    hyps = [rng.sample(ref, len(ref)) + ["w0"] * rng.randint(0, 2) for ref in refs]
    assert corpus_bleu((h for h in hyps), (r for r in refs)) == corpus_bleu(hyps, refs)


@pytest.mark.parametrize(
    "n_hyps,n_refs", [(1, 2), (2, 1), (0, 0)], ids=["short-hyps", "short-refs", "empty"]
)
def test_corpus_bleu_one_shot_errors(n_hyps, n_refs):
    with pytest.raises(ValueError):
        corpus_bleu((["a"] for _ in range(n_hyps)), (["a"] for _ in range(n_refs)))


def test_corpus_bleu_permutation_invariant():
    rng = random.Random(14)
    for _ in range(20):
        refs = _random_segments(rng, allow_empty=False)
        hyps = [
            [rng.choice(r) for _ in range(rng.randint(1, len(r) + 2))] for r in refs
        ]
        base = corpus_bleu(hyps, refs)
        order = list(range(len(refs)))
        rng.shuffle(order)
        shuffled = corpus_bleu([hyps[i] for i in order], [refs[i] for i in order])
        assert shuffled.score == pytest.approx(base.score, abs=1e-12)


def test_corpus_bleu_matches_naive_oracle():
    """Corpus BLEU against the naive oracle, over whole random corpora and
    over the members of every DE bucket; each bucket_eval row must equal
    corpus BLEU of its members exactly."""
    rng = random.Random(15)
    buckets = [*DEFAULT_BUCKETS, BucketSpec.parse("<0")]
    for _ in range(40):
        refs = _random_segments(rng)
        hyps = _random_segments(rng)
        n = min(len(refs), len(hyps))
        refs, hyps = refs[:n], hyps[:n]
        # eligible == 0 makes a degenerate segment, at DE 0
        eligible = [rng.randint(0, 4) for _ in range(n)]
        scores = [DeScore.from_counts(e, rng.randint(0, e)) for e in eligible]
        report = bucket_eval(scores, hyps, refs, buckets)
        cases = [(hyps, refs, corpus_bleu(hyps, refs))]
        for row in report.rows:
            members = [i for i, s in enumerate(scores) if row.spec.contains(s.value)]
            assert row.segment_count == len(members)
            if not members:
                assert row.bleu is None
                continue
            member_hyps = [hyps[i] for i in members]
            member_refs = [refs[i] for i in members]
            assert row.bleu == corpus_bleu(member_hyps, member_refs)
            cases.append((member_hyps, member_refs, row.bleu))
        for case_hyps, case_refs, result in cases:
            score, precisions, bp = naive_corpus_bleu(case_hyps, case_refs)
            assert result.score == pytest.approx(score, abs=1e-9)
            assert result.brevity_penalty == pytest.approx(bp, abs=1e-12)
            for got, want in zip(result.precisions, precisions):
                assert got == pytest.approx(want, abs=1e-12)


def test_bleu_stats_matches_naive_oracle():
    """Per-segment statistics against the list.count oracle: sides shorter
    than 4 tokens and empty sides, and a 2- or 3-word alphabet so that
    n-grams repeat and clipping matters."""
    rng = random.Random(16)
    cases = [([], []), ([], ["a"]), (["a"], []), (["a", "a", "a", "a", "a"], ["a", "a"])]
    for _ in range(3000):
        alphabet = "abc"[: rng.randint(1, 3)] if rng.random() < 0.5 else "abcdefgh"
        hyp = [rng.choice(alphabet) for _ in range(rng.randint(0, rng.choice((4, 12))))]
        ref = [rng.choice(alphabet) for _ in range(rng.randint(0, rng.choice((4, 12))))]
        cases.append((hyp, ref))
    for hyp, ref in cases:
        assert bleu_stats(hyp, ref) == naive_bleu_stats(hyp, ref), (hyp, ref)


def _order_kinds(hyp, ref):
    """How each order of one pair must be counted, up to and including the
    first order with no shared n-gram ("stop"): "unique" when neither side
    repeats an n-gram, "hyp-repeats" or "ref-repeats" when one side does,
    and "both-repeat" when both do; "clipped" is "both-repeat" with a shared
    n-gram that occurs at least twice on each side, so that its clipped
    count exceeds 1."""
    kinds = []
    for n in range(1, 5):
        hyp_grams = [tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1)]
        ref_grams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
        common = set(hyp_grams) & set(ref_grams)
        if not common:
            kinds.append((n, "stop"))
            break
        hyp_repeats = len(set(hyp_grams)) < len(hyp_grams)
        ref_repeats = len(set(ref_grams)) < len(ref_grams)
        if hyp_repeats and ref_repeats:
            clipped = any(min(hyp_grams.count(g), ref_grams.count(g)) > 1 for g in common)
            kind = "clipped" if clipped else "both-repeat"
        elif hyp_repeats or ref_repeats:
            kind = "hyp-repeats" if hyp_repeats else "ref-repeats"
        else:
            kind = "unique"
        kinds.append((n, kind))
    return kinds


def test_bleu_stats_each_order_kind_matches_naive_oracle():
    """Per-segment statistics against the list.count oracle on sides of up
    to 40 tokens, lists and tuples, with every way an order can be counted
    met at each order 1-4 (see _order_kinds) at least 20 times: repeats on
    one side only, on both sides with and without a count clipped above 1,
    none at all, and an order with no shared n-gram."""
    rng = random.Random(23)
    cases = [
        ("a b a b a b a".split(), "b a b a b a b".split()),
        ("a b a b a b".split(), "b a b a".split()),
        (tuple("a a b c".split()), tuple("a b c d".split())),
        (tuple("a b c d".split()), tuple("a b b c".split())),
        ("a b c d".split(), "d c b a".split()),
    ]
    for _ in range(3000):
        alphabet = "abcdefghijklmnopqrst"[: rng.choice((1, 2, 3, 4, 6, 20))]
        hyp = [rng.choice(alphabet) for _ in range(rng.randint(0, rng.choice((8, 40))))]
        ref = [rng.choice(alphabet) for _ in range(rng.randint(0, rng.choice((8, 40))))]
        if rng.random() < 0.5:
            hyp, ref = tuple(hyp), tuple(ref)
        cases.append((hyp, ref))
    met = Counter()
    for hyp, ref in cases:
        assert bleu_stats(hyp, ref) == naive_bleu_stats(hyp, ref), (hyp, ref)
        met.update(_order_kinds(hyp, ref))
    for n in range(1, 5):
        for kind in ("unique", "hyp-repeats", "ref-repeats", "both-repeat", "clipped", "stop"):
            assert met[n, kind] >= 20, (n, kind, met)
    assert [kind for _, kind in _order_kinds(*cases[0])] == ["clipped"] * 4


# ---------------------------------------------------------------------------
# sentence BLEU


def test_sentence_bleu_identity():
    assert sentence_bleu(["a", "b", "c", "d"], ["a", "b", "c", "d"]).score == 100.0


def test_sentence_bleu_short_identity_smoothing():
    # two-token identity: p1 = 1, p2 = (1+1)/(1+1), p3 = p4 = (0+1)/(0+1)
    result = sentence_bleu(["a", "b"], ["a", "b"])
    assert result.precisions == (1.0, 1.0, 1.0, 1.0)
    assert result.score == 100.0


def test_sentence_bleu_no_unigram_overlap_is_zero():
    assert sentence_bleu(["c", "d"], ["a", "b"]).score == 0.0


def test_sentence_bleu_hand_computed_smoothing():
    # hyp "a b c" vs ref "a x b": p1 = 2/3, p2 = (0+1)/(2+1),
    # p3 = (0+1)/(1+1), p4 = (0+1)/(0+1), bp = 1
    result = sentence_bleu(["a", "b", "c"], ["a", "x", "b"])
    assert result.precisions == (2 / 3, 1 / 3, 1 / 2, 1.0)
    expected = 100.0 * (2 / 3 * 1 / 3 * 1 / 2) ** 0.25
    assert result.score == pytest.approx(expected, abs=1e-9)


def test_sentence_bleu_empty_hypothesis():
    result = sentence_bleu([], ["a", "b"])
    assert result.score == 0.0
    assert result.brevity_penalty == 0.0


def test_sentence_bleu_identity_random():
    rng = random.Random(16)
    for _ in range(50):
        seg = [rng.choice("abcdef") for _ in range(rng.randint(1, 15))]
        assert sentence_bleu(seg, seg).score == 100.0


# ---------------------------------------------------------------------------
# Pearson


def test_pearson_identity_vectors():
    xs = [1.0, 2.0, 5.0, 3.0, 9.0]
    assert abs(pearson(xs, xs).r - 1.0) <= 1e-12
    assert abs(pearson(xs, [-x for x in xs]).r + 1.0) <= 1e-12
    assert pearson(xs, xs).p_value == 0.0


def test_pearson_hand_case():
    result = pearson([1, 2, 3, 4, 5], [2, 1, 4, 3, 5])
    assert result.r == pytest.approx(0.8, abs=1e-12)
    assert result.n == 5
    expected_t = 0.8 * math.sqrt(3 / (1 - 0.64))
    assert result.t_statistic == pytest.approx(expected_t, abs=1e-12)


def test_pearson_affine_invariance():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(3, 40)
        xs = [rng.uniform(-5, 5) for _ in range(n)]
        ys = [rng.uniform(-5, 5) for _ in range(n)]
        try:
            base = pearson(xs, ys).r
        except UndefinedCorrelationError:
            continue
        a = rng.uniform(0.1, 10)
        b = rng.uniform(-100, 100)
        assert pearson([a * x + b for x in xs], ys).r == pytest.approx(base, abs=1e-12)


def test_pearson_symmetry_exact():
    rng = random.Random(18)
    xs = [rng.uniform(0, 1) for _ in range(25)]
    ys = [rng.uniform(0, 1) for _ in range(25)]
    assert pearson(xs, ys).r == pearson(ys, xs).r


@pytest.mark.parametrize("exponent", [-600, 600])
def test_pearson_exact_under_power_of_two_scaling(exponent):
    """Scaling both vectors by 2**600 or 2**-600 is exact, and so is the
    result: no square or product overflows or underflows on the way."""
    rng = random.Random(19)
    for _ in range(50):
        n = rng.choice([3, 5, 20, 250])
        xs = [rng.gauss(0, 1) for _ in range(n)]
        ys = [x * rng.uniform(-2, 2) + rng.gauss(0, 1) for x in xs]
        scaled = pearson([math.ldexp(x, exponent) for x in xs],
                         [math.ldexp(y, exponent) for y in ys])
        assert scaled == pearson(xs, ys)
    assert pearson([1e100, 2e100, 3e100], [1e100, 2e100, 4e100]).r == pytest.approx(0.98198)
    assert pearson([1e-170, 2e-170, 4e-170], [1, 2, 3]).r == pytest.approx(0.98198)


def test_pearson_errors():
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson([1, 2], [3, 4])
    with pytest.raises(UndefinedCorrelationError):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(UndefinedCorrelationError):
        pearson([1, 2, 3], [5, 5, 5])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            pearson([1, 2, bad, 4], [1, 3, 2, 4])
        with pytest.raises(ValueError, match="finite"):
            pearson([1, 2, 3, 4], [1, bad, 2, 4])


def test_pearson_strong_correlation_significant():
    # a correlation of ~0.2094 over ~5k samples is significant far below 1e-5
    r, n = 0.209405, 5037
    t = r * math.sqrt((n - 2) / (1 - r * r))
    assert student_t_two_tailed(t, n - 2, method="exact") < 1e-5
    assert student_t_two_tailed(t, n - 2, method="normal") < 1e-5


def test_t_pvalue_reference_points():
    # classic table quantiles: t_(0.975, 20) = 2.086, two-tailed p = 0.05
    assert student_t_two_tailed(2.086, 20, method="exact") == pytest.approx(0.05, abs=1e-3)
    # one more: t_(0.975, 10) = 2.228
    assert student_t_two_tailed(2.228, 10, method="exact") == pytest.approx(0.05, abs=1e-3)
    # large-df normal route approaches the z quantile
    assert student_t_two_tailed(1.959964, 10**6, method="normal") == pytest.approx(
        0.05, abs=1e-4
    )


def test_t_pvalue_monotone_in_t():
    previous = 1.0
    for t in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
        p = student_t_two_tailed(t, 30, method="exact")
        assert p <= previous
        previous = p
    assert student_t_two_tailed(0.0, 30, method="exact") == pytest.approx(1.0, abs=1e-12)


def test_t_pvalue_exact_and_normal_agree_at_boundary():
    df = 198  # n = 200
    worst = 0.0
    for i in range(0, 81):
        t = i * 0.1
        gap = abs(
            student_t_two_tailed(t, df, method="exact")
            - student_t_two_tailed(t, df, method="normal")
        )
        worst = max(worst, gap)
    assert worst <= 1e-4


def test_t_pvalue_argument_validation():
    with pytest.raises(ValueError):
        student_t_two_tailed(1.0, 0)
    with pytest.raises(ValueError):
        student_t_two_tailed(1.0, 10, method="guess")
    assert student_t_two_tailed(math.inf, 10) == 0.0


def test_pearson_switches_method_by_sample_size():
    rng = random.Random(19)

    def vectors(n):
        xs = [rng.uniform(0, 1) for _ in range(n)]
        ys = [x + rng.uniform(-0.2, 0.2) for x in xs]
        return xs, ys

    small = pearson(*vectors(200))
    big = pearson(*vectors(201))
    # both must agree with their own method's direct computation
    assert small.p_value == student_t_two_tailed(small.t_statistic, 198, "exact")
    assert big.p_value == student_t_two_tailed(big.t_statistic, 199, "normal")
