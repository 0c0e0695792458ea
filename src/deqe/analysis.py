"""DE-range bucketing with per-bucket BLEU, DE histograms, and DE-based
corpus filtering."""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_right
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from .corpus import PROGRESS_EVERY, SegmentPair, _tokenized

if TYPE_CHECKING:
    from .metrics import BleuResult
    from .scoring import DeScore
    from .wcm import CooccurrenceMatrix

KIND_BELOW = "below"
KIND_AT_OR_ABOVE = "at_or_above"
_SVG_WIDTH, _SVG_HEIGHT, _SVG_MARGIN = 640, 400, 40  # the histogram chart, in pixels
# The most bins a chart draws: one per pixel of its plot's width.
MAX_CHART_BINS = _SVG_WIDTH - 2 * _SVG_MARGIN


def _float_text(value: float) -> str:
    """``value`` as ``:g`` writes it when that reads back as the same float,
    else in full, so a report that echoes a setting can be re-run from."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


class _BucketSpecFields(NamedTuple):
    kind: str
    threshold: float


class BucketSpec(_BucketSpecFields):
    """One DE-score range: strictly below or at-or-above a threshold. An
    unknown kind or a threshold outside [0, 100] raises ValueError."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "BucketSpec":
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in (KIND_BELOW, KIND_AT_OR_ABOVE):
            raise ValueError(f"unknown bucket kind {self.kind!r}")
        if not 0.0 <= self.threshold <= 100.0:
            raise ValueError(f"bucket threshold {self.threshold} outside [0, 100]")
        return self

    @classmethod
    def _make(cls, iterable) -> "BucketSpec":
        # So that ``_replace`` checks the new values too.
        return cls(*iterable)

    @classmethod
    def parse(cls, text: str) -> "BucketSpec":
        text = text.strip()
        if text.startswith(">="):
            return cls(KIND_AT_OR_ABOVE, float(text[2:]))
        if text.startswith("<"):
            return cls(KIND_BELOW, float(text[1:]))
        raise ValueError(f"cannot parse bucket {text!r}; expected '<N' or '>=N'")

    def contains(self, value: float) -> bool:
        if self.kind == KIND_BELOW:
            return value < self.threshold
        return value >= self.threshold

    @property
    def label(self) -> str:
        op = "<" if self.kind == KIND_BELOW else ">="
        return f"{op}{_float_text(self.threshold)}"


DEFAULT_BUCKETS: tuple[BucketSpec, ...] = tuple(
    [BucketSpec(KIND_BELOW, t) for t in (20, 30, 40, 50)]
    + [BucketSpec(KIND_AT_OR_ABOVE, t) for t in (50, 60, 70, 80, 90)]
)


class BucketRow(NamedTuple):
    spec: BucketSpec
    segment_count: int
    bleu: BleuResult | None


class BucketReport(NamedTuple):
    rows: tuple[BucketRow, ...]
    total_segments: int
    degenerate_segments: int


def fold_buckets(
    segments: Iterable[tuple[DeScore, Sequence[int]]],
    buckets: Sequence[BucketSpec] = DEFAULT_BUCKETS,
) -> BucketReport:
    """Corpus BLEU per DE bucket from one pass over (DE score, ``bleu_stats``)
    pairs, which may be any iterable. Each bucket keeps a segment count and
    the running sum of its members' statistics, not the segments. Degenerate
    (no eligible token) segments take part at value 0 and are also counted
    apart. An empty bucket reports no BLEU; an empty input is a ValueError."""
    from .metrics import pooled_bleu

    counts = [0] * len(buckets)
    sums: list[Sequence[int] | None] = [None] * len(buckets)
    total = degenerate = 0
    for score, stats in segments:
        total += 1
        degenerate += score.degenerate
        for i, spec in enumerate(buckets):
            if spec.contains(score.value):
                counts[i] += 1
                sums[i] = stats if sums[i] is None else [*map(operator.add, sums[i], stats)]
    if not total:
        raise ValueError("bucket evaluation needs at least one segment")
    rows = tuple(
        BucketRow(spec, n, pooled_bleu([summed]) if n else None)
        for spec, n, summed in zip(buckets, counts, sums)
    )
    return BucketReport(rows, total, degenerate)


def bucket_eval(
    scores: Iterable[DeScore],
    hypotheses: Iterable[Sequence[str]],
    references: Iterable[Sequence[str]],
    buckets: Sequence[BucketSpec] = DEFAULT_BUCKETS,
) -> BucketReport:
    """``fold_buckets`` over aligned iterables, read once in step; unequal
    lengths raise ValueError."""
    from .metrics import bleu_stats

    stats = itertools.starmap(bleu_stats, zip(hypotheses, references, strict=True))
    return fold_buckets(zip(scores, stats, strict=True), buckets)


class HistogramReport(NamedTuple):
    """Counts of scores per half-open bin [k*100/n, (k+1)*100/n) of n bins
    of width w, each paired with its lower edge; the final bin is closed at
    100 so a perfect score lands in it."""

    bin_width: float
    bins: tuple[tuple[float, int], ...]

    @property
    def total(self) -> int:
        return sum(c for _, c in self.bins)


# The most bins a histogram has; at this many, ``:g`` still writes each lower edge apart.
MAX_BINS = 1_000_000


def _bin_count(bin_width: float) -> int:
    if not bin_width > 0:  # NaN too
        raise ValueError(f"bin width must be positive, got {bin_width}")
    if 100.0 / bin_width >= MAX_BINS + 0.5:
        raise ValueError(f"bin width {bin_width} makes more than {MAX_BINS} bins")
    n_bins = round(100.0 / bin_width)
    if n_bins < 1 or abs(n_bins * bin_width - 100.0) > 1e-9:
        raise ValueError(f"bin width {bin_width} does not divide 100 evenly")
    return n_bins


def histogram(scores: Iterable[float], bin_width: float = 5.0) -> HistogramReport:
    """Distribution of DE scores over [0, 100] in equal bins.

    A score is placed by comparing it with the edges k*100/n, not by
    dividing it by ``bin_width``: with a width such as 0.2, which a float
    holds inexactly, division puts a score that sits on an edge in the bin
    below it.
    """
    n_bins = _bin_count(bin_width)
    edges = [k * 100 / n_bins for k in range(n_bins)]
    counts = [0] * n_bins
    for v in scores:
        if not 0.0 <= v <= 100.0:
            raise ValueError(f"score {v} outside [0, 100]")
        counts[bisect_right(edges, v) - 1] += 1
    return HistogramReport(bin_width, tuple(zip(edges, counts)))


def render_histogram_svg(report: HistogramReport) -> str:
    """A minimal deterministic SVG bar chart; the TSV report remains the
    data contract, this is a convenience rendering. A report of more than
    ``MAX_CHART_BINS`` bins is a ValueError."""
    n = len(report.bins)
    if n > MAX_CHART_BINS:
        raise ValueError(f"a chart draws at most {MAX_CHART_BINS} bins, found {n}")
    margin = _SVG_MARGIN
    plot_w = _SVG_WIDTH - 2 * margin
    plot_h = _SVG_HEIGHT - 2 * margin
    peak = max((c for _, c in report.bins), default=0) or 1
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}">',
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<line x1="{margin}" y1="{_SVG_HEIGHT - margin}" x2="{_SVG_WIDTH - margin}" '
        f'y2="{_SVG_HEIGHT - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{_SVG_HEIGHT - margin}" stroke="black"/>',
    ]
    for i, (lower, count) in enumerate(report.bins):
        bar_h = plot_h * count / peak
        x = margin + plot_w * i / n
        y = _SVG_HEIGHT - margin - bar_h
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{plot_w / n:.2f}" '
            f'height="{bar_h:.2f}" fill="steelblue" stroke="black" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_SVG_HEIGHT - margin + 14}" font-size="9">{lower:g}</text>'
        )
    parts.append(
        f'<text x="{margin}" y="{margin - 8}" font-size="10">count (max {peak})</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


class FilterDecision(NamedTuple):
    pair: SegmentPair
    de: DeScore
    kept: bool


class FilterSummary(NamedTuple):
    total: int
    kept: int
    dropped: int
    degenerate: int
    min_de: float
    histogram: HistogramReport


def iter_filter(
    matrix: CooccurrenceMatrix,
    pairs: Iterable[SegmentPair],
    min_de: float,
    *,
    by_type: bool = False,
) -> Iterator[FilterDecision]:
    """Score each pair (target side as hypothesis) and decide keep/drop.

    Streams in input order; pairs with DE >= min_de are kept. ``pairs`` may be
    any objects with ``source`` and ``target`` texts, mapped through the
    stages of ``matrix.tokenizer`` as one stream of line texts, as iterating
    ``CorpusFiles`` does.
    """
    from .scoring import de_score

    if not 0.0 <= min_de <= 100.0:
        raise ValueError(f"min_de {min_de} outside [0, 100]")
    pairs, texts = itertools.tee(pairs)
    tokens = _tokenized(map(operator.attrgetter("source", "target"), texts), 2, matrix.tokenizer)
    for pair, (source, target) in zip(pairs, tokens):
        de = de_score(matrix, source, target, by_type=by_type)
        yield FilterDecision(pair, de, de.value >= min_de)


def filter_corpus(
    matrix: CooccurrenceMatrix,
    pairs: Iterable[SegmentPair],
    min_de: float,
    *,
    keep: Callable[[SegmentPair], object],
    drop: Callable[[SegmentPair], object],
    by_type: bool = False,
    bin_width: float = 5.0,
) -> FilterSummary:
    """Route each pair of an aligned stream to ``keep`` or ``drop`` by DE.

    Pairs are scored and passed on one at a time in input order, so the two
    sinks partition the input and each sees it in order. The summary carries
    the counts and the DE histogram of the whole input.
    """
    kept = degenerate = 0

    def routed() -> Iterator[float]:
        nonlocal kept, degenerate
        for n, decision in enumerate(
            iter_filter(matrix, pairs, min_de, by_type=by_type), start=1
        ):
            (keep if decision.kept else drop)(decision.pair)
            kept += decision.kept
            degenerate += decision.de.degenerate
            if n % PROGRESS_EVERY == 0:
                import logging

                logging.getLogger(__name__).info("filter: %d segments scored", n)
            yield decision.de.value

    report = histogram(routed(), bin_width)
    dropped = report.total - kept
    return FilterSummary(report.total, kept, dropped, degenerate, min_de, report)
