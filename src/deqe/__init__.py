"""Reference-free MT quality estimation from training-data word
co-occurrence.

Builds a sparse bilingual word co-occurrence matrix from an aligned
parallel corpus and scores translations by the share of source words with
strong co-occurrence evidence in the hypothesis, with the evaluation and
filtering analyses that go with it.
"""

__version__ = "0.1.0"

from .analysis import (
    DEFAULT_BUCKETS,
    BucketReport,
    BucketRow,
    BucketSpec,
    FilterDecision,
    FilterSummary,
    HistogramReport,
    bucket_eval,
    filter_corpus,
    histogram,
    iter_filter,
    render_histogram_svg,
)
from .corpus import (
    CorpusFiles,
    SegmentPair,
    ThresholdCount,
    TokenizerConfig,
    VocabStats,
    Vocabulary,
    build_parallel_vocabularies,
    build_vocabulary,
    load_parallel_corpus,
    load_tsv_corpus,
    tokenize,
    vocab_stats,
)
from .errors import (
    AlignmentError,
    DataError,
    DeqeError,
    EncodingError,
    UndefinedCorrelationError,
    UsageError,
    VocabularyMismatchError,
    WcmFormatError,
)
from .metrics import (
    BleuResult,
    CorrelationResult,
    corpus_bleu,
    pearson,
    sentence_bleu,
    student_t_two_tailed,
)
from .scoring import DeScore, ScoredSegment, de_score, reverse_de_score, score_file
from .wcm import (
    CooccurrenceMatrix,
    WcmConfig,
    build_wcm,
    build_wcm_with_vocabularies,
    load_wcm,
    save_wcm,
)

__all__ = [
    "__version__",
    "AlignmentError",
    "BleuResult",
    "BucketReport",
    "BucketRow",
    "BucketSpec",
    "CooccurrenceMatrix",
    "CorpusFiles",
    "CorrelationResult",
    "DEFAULT_BUCKETS",
    "DataError",
    "DeScore",
    "DeqeError",
    "EncodingError",
    "FilterDecision",
    "FilterSummary",
    "HistogramReport",
    "ScoredSegment",
    "SegmentPair",
    "ThresholdCount",
    "TokenizerConfig",
    "UndefinedCorrelationError",
    "UsageError",
    "VocabStats",
    "Vocabulary",
    "VocabularyMismatchError",
    "WcmConfig",
    "WcmFormatError",
    "bucket_eval",
    "build_parallel_vocabularies",
    "build_vocabulary",
    "build_wcm",
    "build_wcm_with_vocabularies",
    "corpus_bleu",
    "de_score",
    "filter_corpus",
    "histogram",
    "iter_filter",
    "load_parallel_corpus",
    "load_tsv_corpus",
    "load_wcm",
    "pearson",
    "render_histogram_svg",
    "reverse_de_score",
    "save_wcm",
    "score_file",
    "sentence_bleu",
    "student_t_two_tailed",
    "tokenize",
    "vocab_stats",
]
