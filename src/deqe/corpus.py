"""Parallel corpus ingestion, tokenization, and vocabulary statistics."""

from __future__ import annotations

import contextlib
import itertools
import operator
import os
import stat
import unicodedata
from collections import Counter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

from .errors import AlignmentError, DataError, EncodingError

# The build, ``score`` and ``filter`` log a progress record after every this
# many segments.
PROGRESS_EVERY = 100_000

# A file's device, inode, size and modification time: rewriting, replacing
# or touching it changes at least one of them.
_file_identity = operator.attrgetter("st_dev", "st_ino", "st_size", "st_mtime_ns")


class TokenizerConfig(NamedTuple):
    """Tokenization settings.

    Every file that feeds one matrix (training corpus, test source, MT
    output) must be tokenized with the same config, or tokens will not
    line up with the vocabulary.
    """

    lowercase: bool = False
    strip_punct: bool = False


_DEFAULT_TOKENIZER = TokenizerConfig()


def tokenize(text: str, config: TokenizerConfig = _DEFAULT_TOKENIZER) -> list[str]:
    """Split raw text into tokens.

    NFC-normalizes, then splits on Unicode whitespace. With
    ``config.lowercase`` tokens are case-folded; with ``config.strip_punct``
    leading/trailing punctuation is removed and tokens that were pure
    punctuation are dropped. Total function: empty or whitespace-only text
    yields an empty list.
    """
    text = unicodedata.normalize("NFC", text)
    if config.lowercase:
        text = text.casefold()
    tokens = text.split()
    if config.strip_punct:
        tokens = [t for t in (_strip_edge_punct(t) for t in tokens) if t]
    return tokens


def _strip_edge_punct(token: str) -> str:
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


class SegmentPair(NamedTuple):
    """One aligned sentence pair; ``index`` is the 0-based line ordinal."""

    index: int
    source: str
    target: str


def iter_lines(path) -> Iterator[str]:
    """Yield decoded lines without their line terminator.

    Reads in binary so an invalid byte can be reported with its line
    number. Accepts LF or CRLF endings (a single trailing CR is stripped)
    and drops a UTF-8 BOM on the first line.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if raw.endswith(b"\n"):
                raw = raw[:-1]
            if raw.endswith(b"\r"):
                raw = raw[:-1]
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise EncodingError(
                    f"{path}: invalid UTF-8 on line {lineno}: {exc.reason}"
                ) from None
            if lineno == 1 and line.startswith("\ufeff"):
                line = line[1:]
            yield line


@contextlib.contextmanager
def atomic_write(path) -> Iterator[TextIO]:
    """Open ``path`` for writing UTF-8 text with LF line endings, all or
    nothing.

    The text goes to ``<path>.<pid>.tmp`` in the same directory, which
    replaces ``path`` only when the block exits normally; otherwise it is
    deleted and ``path`` is left as it was.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            # Name the file the caller asked for, not its stand-in.
            exc.filename, exc.filename2 = os.fspath(path), None
        raise


def iter_aligned(*paths) -> Iterator[tuple[str, ...]]:
    """Stream the lines of several one-segment-per-line files in step, one
    tuple per line number.

    Raises AlignmentError naming every file's line count if the files
    disagree in length (the remainder of each longer file is consumed to
    count it).
    """
    return _in_step([iter_lines(path) for path in paths], paths, "line")


def _in_step(readers: Sequence[Iterator], names: Sequence, unit: str) -> Iterator[tuple]:
    """One tuple of the items of ``readers`` per position, read in step. A
    reader that ends early is an AlignmentError naming each one's count of
    ``unit``s (the rest of each longer one is consumed to count it)."""
    for index, items in enumerate(itertools.zip_longest(*readers)):
        if None in items:
            counts = (
                index + (item is not None) + sum(1 for _ in reader)
                for item, reader in zip(items, readers)
            )
            raise AlignmentError(
                f"{unit} count mismatch: "
                + ", ".join(f"{name} has {n} {unit}s" for name, n in zip(names, counts))
            )
        yield items


def load_parallel_corpus(source_path, target_path) -> Iterator[SegmentPair]:
    """Stream aligned segment pairs from two one-segment-per-line files.

    Raises AlignmentError naming both line counts if the files disagree
    in length.
    """
    return CorpusFiles((source_path, target_path)).segments()


def _tsv_fields(path) -> Iterator[list[str]]:
    """The [source, target] fields of each line of a TSV corpus; a line
    without exactly one tab is a DataError naming the file and line."""
    for lineno, line in enumerate(iter_lines(path), start=1):
        fields = line.split("\t")
        if len(fields) != 2:
            raise DataError(
                f"{path}: line {lineno}: expected exactly one tab, found {len(fields) - 1}"
            )
        yield fields


class CorpusFiles:
    """Aligned files on disk, read with one tokenizer.

    ``paths`` is any number of one-segment-per-line files read in step, or
    (tsv,) with ``tsv`` set. Iterating reads the files once and yields one
    tuple of token lists per line, one list per file (two for a TSV).
    """

    def __init__(
        self,
        paths: tuple[str, ...],
        tsv: bool = False,
        tokenizer: TokenizerConfig = _DEFAULT_TOKENIZER,
    ):
        self.paths = paths
        self.tsv = tsv
        self.tokenizer = tokenizer

    def _texts(self) -> Iterator[Sequence[str]]:
        if self.tsv:
            return _tsv_fields(*self.paths)
        return iter_aligned(*self.paths)

    def segments(self) -> Iterator[SegmentPair]:
        """The untokenized (source, target) pairs, numbered from 0."""
        return (SegmentPair(index, *texts) for index, texts in enumerate(self._texts()))

    def __iter__(self) -> Iterator[tuple[list[str], ...]]:
        configs = itertools.repeat(self.tokenizer)  # ``map`` stops at the last text
        for texts in self._texts():
            yield tuple(map(tokenize, texts, configs))

    def token_counts(self) -> Iterator[Counter[str]]:
        """Each side's {token: count}, counted only when it is asked for, in
        one pass that checks nothing: a line without its tab, a byte
        that is not UTF-8 or files of unequal length are raised only by
        iterating, which yields the same tokens from a valid corpus. Lines
        split on "\\n" only and a leading BOM is dropped, as ``iter_lines``
        reads them; a TSV side is field 0 or 2 of ``str.partition("\\t")``.
        Each line is split by ``tokenize``, as iterating splits it.
        """
        paths = self.paths * 2 if self.tsv else self.paths
        fields = (0, 2) if self.tsv else (None,) * len(paths)
        configs = itertools.repeat(self.tokenizer)
        for path, field in zip(paths, fields):
            with open(path, encoding="utf-8-sig", errors="surrogateescape", newline="\n") as fh:
                texts: Iterable[str] = fh
                if field is not None:
                    partitions = map(str.partition, fh, itertools.repeat("\t"))
                    texts = map(operator.itemgetter(field), partitions)
                # Not bound to a name here, so the caller can free one side's
                # counts before the next side is counted.
                yield Counter(itertools.chain.from_iterable(map(tokenize, texts, configs)))

    @contextlib.contextmanager
    def unchanged(self) -> Iterator[None]:
        """Hold the files to what they are on entry, for a block that reads
        them more than once. A path that is not a regular file (a named pipe
        would wait on its second open) is a DataError before any file is
        opened, and so is, on a normal exit, a file whose device, inode, size
        or modification time differs from on entry."""
        before = [os.stat(path) for path in self.paths]
        for path, st in zip(self.paths, before):
            if not stat.S_ISREG(st.st_mode):
                raise DataError(f"{path}: not a regular file; the corpus is read twice")
        yield
        for path, st in zip(self.paths, before):
            if _file_identity(os.stat(path)) != _file_identity(st):
                raise DataError(f"{path}: changed while being read")


class Vocabulary:
    """One side's token types and their raw corpus frequencies, in
    first-occurrence order over the corpus, which makes downstream
    artifacts reproducible byte for byte."""

    __slots__ = ("side", "tokens", "frequencies")

    def __init__(self, side: str, tokens: list[str], frequencies: list[int]):
        if len(tokens) != len(frequencies):
            raise ValueError("tokens and frequencies must have equal length")
        self.side = side
        self.tokens = tokens
        self.frequencies = frequencies

    def __len__(self) -> int:
        return len(self.tokens)

    def items(self) -> Iterator[tuple[str, int, int]]:
        """Iterate (token, id, frequency), where the id is the token's
        0-based rank in first-occurrence order."""
        return zip(self.tokens, itertools.count(), self.frequencies)


def build_vocabulary(segments: Iterable[list[str]], side: str = "source") -> Vocabulary:
    """Build a vocabulary from a stream of tokenized segments."""
    counts: Counter[str] = Counter()
    for tokens in segments:
        counts.update(tokens)
    # Counter preserves first-insertion order, i.e. first occurrence.
    return Vocabulary(side, list(counts.keys()), list(counts.values()))


def build_parallel_vocabularies(
    pairs: Iterable[SegmentPair], config: TokenizerConfig = _DEFAULT_TOKENIZER
) -> tuple[Vocabulary, Vocabulary, int]:
    """Tokenize both sides of an aligned stream in one pass.

    Returns (source vocabulary, target vocabulary, segment count).
    """
    source_counts: Counter[str] = Counter()
    target_counts: Counter[str] = Counter()
    n = 0
    for pair in pairs:
        source_counts.update(tokenize(pair.source, config))
        target_counts.update(tokenize(pair.target, config))
        n += 1
    source = Vocabulary("source", list(source_counts.keys()), list(source_counts.values()))
    target = Vocabulary("target", list(target_counts.keys()), list(target_counts.values()))
    return source, target, n


class ThresholdCount(NamedTuple):
    """How many vocabulary types sit at or above / below one frequency bar."""

    threshold: int
    at_or_above: int
    below: int


class VocabStats(NamedTuple):
    side: str
    vocab_size: int
    token_count: int
    singleton_types: int
    thresholds: tuple[ThresholdCount, ...]
    hifreq_cutoff: int | None = None
    hifreq_types: tuple[str, ...] = ()

    def pct_of_vocab(self, count: int) -> float:
        return 100.0 * count / self.vocab_size if self.vocab_size else 0.0


def vocab_stats(
    side: str,
    counts: Mapping[str, int],
    thresholds: Sequence[int],
    hifreq_cutoff: int | None = None,
) -> VocabStats:
    """Frequency-distribution summary of one side's {token: count}, such as
    a Counter that ``CorpusFiles.token_counts`` yields.

    For each threshold t, counts types with frequency >= t and < t. When
    ``hifreq_cutoff`` is given, also lists the types whose frequency
    exceeds it, most frequent first, then by token.
    """
    if not thresholds:
        raise ValueError("thresholds must be non-empty")
    freqs = counts.values()
    rows = []
    for t in thresholds:
        ge = sum(1 for f in freqs if f >= t)
        rows.append(ThresholdCount(t, ge, len(freqs) - ge))
    singletons = sum(1 for f in freqs if f == 1)
    hifreq: tuple[str, ...] = ()
    if hifreq_cutoff is not None:
        over = [(tok, f) for tok, f in counts.items() if f > hifreq_cutoff]
        over.sort(key=lambda pair: (-pair[1], pair[0]))
        hifreq = tuple(tok for tok, _ in over)
    return VocabStats(
        side=side,
        vocab_size=len(counts),
        token_count=sum(freqs),
        singleton_types=singletons,
        thresholds=tuple(rows),
        hifreq_cutoff=hifreq_cutoff,
        hifreq_types=hifreq,
    )
