"""Reference-free MT quality estimation from training-data word
co-occurrence.

Builds a sparse bilingual word co-occurrence matrix from an aligned
parallel corpus and scores translations by the share of source words with
strong co-occurrence evidence in the hypothesis, with the evaluation and
filtering analyses that go with it.

The public names below are imported from their submodules on first
access (PEP 562), so importing the package, or one submodule, loads no
other submodule.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "DEFAULT_BUCKETS",
        "BucketReport",
        "BucketRow",
        "BucketSpec",
        "FilterDecision",
        "FilterSummary",
        "HistogramReport",
        "bucket_eval",
        "filter_corpus",
        "fold_buckets",
        "histogram",
        "iter_filter",
        "render_histogram_svg",
    ),
    "corpus": (
        "CorpusFiles",
        "SegmentPair",
        "ThresholdCount",
        "TokenizerConfig",
        "VocabStats",
        "Vocabulary",
        "build_parallel_vocabularies",
        "build_vocabulary",
        "load_parallel_corpus",
        "tokenize",
        "vocab_stats",
    ),
    "errors": (
        "AlignmentError",
        "DataError",
        "DeqeError",
        "EncodingError",
        "UndefinedCorrelationError",
        "UsageError",
        "VocabularyMismatchError",
        "WcmFormatError",
    ),
    "metrics": (
        "BleuResult",
        "CorrelationResult",
        "corpus_bleu",
        "pearson",
        "sentence_bleu",
        "student_t_two_tailed",
    ),
    "scoring": ("DeScore", "de_score", "reverse_de_score"),
    "wcm": (
        "CooccurrenceMatrix",
        "WcmConfig",
        "build_wcm",
        "build_wcm_with_vocabularies",
        "load_wcm",
        "save_wcm",
    ),
}

# Public name -> the submodule that defines it.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name: str) -> object:
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
