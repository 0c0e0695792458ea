"""Reference-based BLEU (corpus and sentence level) and Pearson
correlation with two-tailed significance."""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .errors import UndefinedCorrelationError

MAX_ORDER = 4


class BleuResult(NamedTuple):
    """BLEU-4 with its components.

    score = 100 * brevity_penalty * geometric mean of the four modified
    n-gram precisions; 0 when any (unsmoothed) precision is 0.
    """

    score: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    hypothesis_length: int
    reference_length: int


def bleu_stats(hypothesis: Sequence[str], reference: Sequence[str]) -> tuple[int, ...]:
    """BLEU sufficient statistics of one segment pair.

    Returns (hyp_len, ref_len, matches[1..4], totals[1..4]) as one flat
    tuple of ints, where matches[n] counts the hypothesis n-grams clipped by
    their count in the reference and totals[n] all hypothesis n-grams. The
    statistics of a set of segments are the element-wise sums of theirs.
    """
    hyp_len, ref_len = len(hypothesis), len(reference)
    matches = [0] * MAX_ORDER
    # The n slices of each side shifted by 0 .. n-1 tokens; zipped, they
    # give its n-grams (see _ngrams).
    hyp_shifted, ref_shifted = [hypothesis], [reference]
    for n in range(1, MAX_ORDER + 1):
        if n > 1:
            hyp_shifted.append(hypothesis[n - 1 :])
            ref_shifted.append(reference[n - 1 :])
        hyp_set = set(_ngrams(hyp_shifted))
        if len(hyp_set) == hyp_len - n + 1:
            # No hypothesis n-gram repeats, so each shared one is clipped
            # to a count of 1.
            matched = len(hyp_set.intersection(_ngrams(ref_shifted)))
        else:
            ref_set = set(_ngrams(ref_shifted))
            common = hyp_set & ref_set
            if len(ref_set) == ref_len - n + 1:
                matched = len(common)
            else:
                # Both sides repeat an n-gram: clip by the two counts.
                hyp_counts = Counter(_ngrams(hyp_shifted))
                ref_counts = Counter(_ngrams(ref_shifted))
                matched = sum(min(hyp_counts[g], ref_counts[g]) for g in common)
        if not matched:
            # Every longer shared n-gram would contain a shared one of this
            # order, so the higher orders match nothing either.
            break
        matches[n - 1] = matched
    totals = [max(0, hyp_len - n) for n in range(MAX_ORDER)]
    return (hyp_len, ref_len, *matches, *totals)


def _ngrams(shifted: list[Sequence[str]]) -> Iterable:
    """The n-grams of one side, n = len(shifted): its tokens for n = 1, else
    tuples zipped from the shifted slices. A fresh iterable on each call."""
    return shifted[0] if len(shifted) == 1 else zip(*shifted)


def _brevity_penalty(hyp_len: int, ref_len: int) -> float:
    if hyp_len == 0:
        return 0.0
    if hyp_len >= ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / hyp_len)


def _geometric_score(precisions: Sequence[float], bp: float) -> float:
    if bp == 0.0 or any(p == 0.0 for p in precisions):
        return 0.0
    return 100.0 * bp * math.exp(math.fsum(math.log(p) for p in precisions) / len(precisions))


def corpus_bleu(
    hypotheses: Iterable[Sequence[str]], references: Iterable[Sequence[str]]
) -> BleuResult:
    """Corpus-level BLEU-4, single reference, no smoothing.

    Clipped n-gram counts are pooled over all segments before the
    precisions are taken, so the result is invariant under permutation of
    the segment pairs. The inputs may be any iterables, read once in step.
    Empty individual hypotheses are allowed (they contribute nothing);
    inputs of unequal length or an empty corpus are a ValueError.
    """
    return pooled_bleu(itertools.starmap(bleu_stats, zip(hypotheses, references, strict=True)))


def pooled_bleu(per_segment: Iterable[tuple[int, ...]]) -> BleuResult:
    """Unsmoothed BLEU-4 of the summed statistics of one or more segments
    (see ``bleu_stats``), read once and summed as they come; all sums are of
    ints, so the result does not depend on how or in what order the segments
    were grouped. No segment at all is a ValueError."""
    summed = None
    for stats in per_segment:
        summed = stats if summed is None else [*map(operator.add, summed, stats)]
    if summed is None:
        raise ValueError("BLEU needs at least one segment")
    hyp_len, ref_len, *counts = summed
    matches, totals = counts[:MAX_ORDER], counts[MAX_ORDER:]
    precisions = tuple(m / t if t else 0.0 for m, t in zip(matches, totals))
    bp = _brevity_penalty(hyp_len, ref_len)
    return BleuResult(_geometric_score(precisions, bp), precisions, bp, hyp_len, ref_len)


def sentence_bleu(hypothesis: list[str], reference: list[str]) -> BleuResult:
    """Sentence-level BLEU-4 with add-one smoothing for n >= 2.

    The unigram precision is unsmoothed, so a hypothesis sharing no word
    with the reference scores 0. For n >= 2 both numerator and denominator
    get +1; orders longer than the hypothesis therefore contribute a
    precision of (0+1)/(0+1) = 1. An empty hypothesis scores 0 with a
    brevity penalty of 0 by convention.
    """
    hyp_len, ref_len, *counts = bleu_stats(hypothesis, reference)
    if hyp_len == 0:
        return BleuResult(0.0, (0.0, 0.0, 0.0, 0.0), 0.0, 0, ref_len)
    matches, totals = counts[:MAX_ORDER], counts[MAX_ORDER:]
    precisions = (matches[0] / totals[0],) + tuple(
        (m + 1) / (t + 1) for m, t in zip(matches[1:], totals[1:])
    )
    bp = _brevity_penalty(hyp_len, ref_len)
    return BleuResult(_geometric_score(precisions, bp), precisions, bp, hyp_len, ref_len)


class CorrelationResult(NamedTuple):
    r: float
    n: int
    t_statistic: float
    p_value: float


# Exact Student-t tails are used up to this sample size; beyond it a
# corrected normal approximation is accurate to well under 1e-4.
EXACT_T_MAX_N = 200


def pearson(xs: Sequence[float], ys: Sequence[float]) -> CorrelationResult:
    """Pearson correlation with a two-tailed p-value (n - 2 df).

    Requires n >= 3 finite pairs and both vectors non-constant; the p-value
    uses the exact t distribution for n <= 200 and a normal approximation
    beyond.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 3:
        raise ValueError(f"need at least 3 paired values, got {n}")
    if not all(map(math.isfinite, itertools.chain(xs, ys))):
        raise ValueError("correlation needs finite values; found nan or inf")
    # r is unchanged by scaling either vector, and scaling by a power of two
    # is exact: each vector's largest magnitude is brought into [0.5, 1), so
    # no square or product below overflows or underflows to zero.
    xs, ys = _scaled(xs), _scaled(ys)
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    sxx = math.fsum((x - mean_x) * (x - mean_x) for x in xs)
    syy = math.fsum((y - mean_y) * (y - mean_y) for y in ys)
    if sxx == 0.0 or syy == 0.0:
        which = "both inputs are" if sxx == syy == 0.0 else (
            "xs is" if sxx == 0.0 else "ys is"
        )
        raise UndefinedCorrelationError(
            f"correlation undefined: {which} constant (zero variance)"
        )
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    r = sxy / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    df = n - 2
    if abs(r) >= 1.0:
        return CorrelationResult(r, n, math.inf if r > 0 else -math.inf, 0.0)
    t = r * math.sqrt(df / (1.0 - r * r))
    method = "exact" if n <= EXACT_T_MAX_N else "normal"
    return CorrelationResult(r, n, t, student_t_two_tailed(t, df, method=method))


def _scaled(values: Sequence[float]) -> list[float]:
    """``values`` times the power of two that brings the largest magnitude
    into [0.5, 1)."""
    _, exponent = math.frexp(max(map(abs, values)))
    return [math.ldexp(v, -exponent) for v in values]


def student_t_two_tailed(t: float, df: int, method: str = "exact") -> float:
    """Two-tailed P(|T| >= |t|) for Student's t with ``df`` degrees of
    freedom. ``method`` is "exact" (regularized incomplete beta via
    continued fraction) or "normal" (moment-corrected normal tail)."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if math.isinf(t):
        return 0.0
    if method == "exact":
        x = df / (df + t * t)
        return _betai(df / 2.0, 0.5, x)
    if method == "normal":
        ta = abs(t)
        z = ta * (1.0 - 1.0 / (4.0 * df)) / math.sqrt(1.0 + ta * ta / (2.0 * df))
        return math.erfc(z / math.sqrt(2.0))
    raise ValueError(f"unknown method {method!r}")


def _betai(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast only for x below the split
    # point; otherwise evaluate the complement.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _betacf(a: float, b: float, x: float, max_iter: int = 300, eps: float = 3e-12) -> float:
    """Lentz continued-fraction evaluation for the incomplete beta."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")
