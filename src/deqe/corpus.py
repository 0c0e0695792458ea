"""Parallel corpus ingestion, tokenization, and vocabulary statistics."""

from __future__ import annotations

import contextlib
import itertools
import operator
import os
import stat
import unicodedata
from collections import Counter
from functools import partial
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
    yields an empty list. These are the stages every tokenizing read maps
    over its line texts (``_normalized``, then ``_tokens``), run on one text.
    """
    (tokens,) = _tokens(_normalized((text,), config), config)
    return tokens


def _without_edge_punct(tokens: list[str]) -> list[str]:
    """``tokens`` with their leading and trailing punctuation removed, and
    those that were only punctuation dropped."""
    return [t for t in map(_strip_edge_punct, tokens) if t]


class _PunctuationMemo(dict):
    """Whether a character is punctuation (a Unicode P category), each
    character classified on its first lookup: classifying every code point
    up front costs a quarter of a second per process."""

    def __missing__(self, char: str) -> bool:
        self[char] = punct = unicodedata.category(char).startswith("P")
        return punct


_is_punct = _PunctuationMemo().__getitem__


def _strip_edge_punct(token: str) -> str:
    # Most tokens have no punctuation at either end, and return at once.
    if not (_is_punct(token[0]) or _is_punct(token[-1])):
        return token
    start, end = 0, len(token)
    while start < end and _is_punct(token[start]):
        start += 1
    while end > start and _is_punct(token[end - 1]):
        end -= 1
    return token[start:end]


class SegmentPair(NamedTuple):
    """One aligned sentence pair; ``index`` is the 0-based line ordinal."""

    index: int
    source: str
    target: str


# The strict reader reads a file this many bytes at a time, and decodes and
# splits the whole lines of each read in one call each.
_BLOCK_BYTES = 1 << 16


def _whole_line_blocks(chunks: Iterable[bytes]) -> Iterator[bytes]:
    """Join ``chunks`` into blocks that each end just after a LF; the last
    holds what follows the last LF, and is left out when that is nothing. A
    chunk without a LF is held until one arrives."""
    pending: list[bytes] = []
    for chunk in chunks:
        end = chunk.rfind(b"\n") + 1
        if not end:
            pending.append(chunk)
            continue
        pending.append(chunk[:end])
        yield b"".join(pending)
        pending = [chunk[end:]]
    tail = b"".join(pending)
    if tail:
        yield tail


def _runs(path) -> Iterator[str]:
    """The lines of ``path``, as ``iter_lines`` yields them, joined by "\\n"
    in runs of the whole lines of about ``_BLOCK_BYTES`` bytes.

    Each run is decoded in one call. A byte that is not UTF-8 is an
    EncodingError naming its line and the reason that decoding that line
    alone gives, raised once the runs of the lines before it are yielded.
    Each read returns what the file has ready, so a pipe is read as its
    writer writes.
    """
    with open(path, "rb") as fh:
        lineno = 1  # of the first line of ``block``
        for block in _whole_line_blocks(iter(partial(fh.read1, _BLOCK_BYTES), b"")):
            try:
                text = block.decode("utf-8")
            except UnicodeDecodeError as exc:
                good = block.rfind(b"\n", 0, exc.start) + 1
                if good:
                    yield _run(block[:good].decode("utf-8"), lineno)
                raise _encoding_error(path, block[good:], lineno + block.count(b"\n", 0, good))
            yield _run(text, lineno)
            lineno += block.count(b"\n")


def _run(text: str, lineno: int) -> str:
    """The decoded lines ``text``, the first of which is line ``lineno``,
    joined by "\\n" without the last one's line break: a single CR before
    each LF, or at the end, goes, and so does a BOM at the start of line 1."""
    if "\r" in text:  # a cheap test that spares LF-only files the scan
        text = text.replace("\r\n", "\n")
    if text.endswith(("\n", "\r")):
        text = text[:-1]
    if lineno == 1 and text.startswith("\ufeff"):
        text = text[1:]
    return text


def _encoding_error(path, rest: bytes, lineno: int) -> EncodingError:
    """The EncodingError of line ``lineno`` of ``path``, the first line of
    ``rest`` and the first that is not UTF-8, with the reason that decoding
    that line alone gives. The reason of its block can differ: a sequence
    cut short just before a line break is an "invalid continuation byte"
    in the block and "unexpected end of data" on its own."""
    raw = rest.split(b"\n", 1)[0]
    if raw.endswith(b"\r"):
        raw = raw[:-1]
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        reason = exc.reason
    return EncodingError(f"{path}: invalid UTF-8 on line {lineno}: {reason}")


def iter_lines(path) -> Iterator[str]:
    """Yield decoded lines without their line terminator.

    Reads in binary, a block of lines at a time (see ``_runs``), so an
    invalid byte can be reported with its line number. Accepts LF or CRLF
    endings (a single trailing CR is stripped) and drops a UTF-8 BOM on the
    first line.
    """
    return itertools.chain.from_iterable(map(str.split, _runs(path), itertools.repeat("\n")))


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
        # The stand-in may never have been made, and failing to remove it
        # must not hide the error that ended the write.
        with contextlib.suppress(OSError):
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
    """One tuple of the items of ``readers`` per position. A reader that
    ends early is an AlignmentError naming each one's count of ``unit``s,
    raised after the last full tuple.

    An error a reader raises wins as it would in a read that takes one item
    from every reader at each position, then consumes the rest of each, in
    order, to count it. No reader yields None, ``zip_longest``'s fill.
    """
    for index, items in enumerate(itertools.zip_longest(*readers)):
        if None in items:
            totals = [
                index + (item is not None) + sum(1 for _ in reader)
                for item, reader in zip(items, readers)
            ]
            raise AlignmentError(
                f"{unit} count mismatch: "
                + ", ".join(f"{name} has {n} {unit}s" for name, n in zip(names, totals))
            )
        yield items


def load_parallel_corpus(source_path, target_path) -> Iterator[SegmentPair]:
    """Stream aligned segment pairs from two one-segment-per-line files.

    Raises AlignmentError naming both line counts if the files disagree
    in length.
    """
    return CorpusFiles((source_path, target_path)).segments()


def _tsv_columns(path, runs: Iterable[str]) -> Iterator[tuple[list[str], list[str]]]:
    """The source and target fields of the lines of each of ``runs``, the
    runs of a TSV corpus; a line without exactly one tab is a DataError
    naming the file and line, raised once the fields of the lines before
    it are yielded."""
    lineno = 0  # lines in the runs before ``run``
    for run in runs:
        lines = run.split("\n")
        parts = list(map(str.partition, lines, itertools.repeat("\t")))
        # As many tabs as lines, and a tab in every line: one in each.
        good = len(lines)
        if run.count("\t") != good or not all(map(_second, parts)):
            good = next(i for i, line in enumerate(lines) if line.count("\t") != 1)
            del parts[good:]
        yield list(map(_first, parts)), list(map(_third, parts))
        if good < len(lines):
            found = lines[good].count("\t")
            raise DataError(
                f"{path}: line {lineno + good + 1}: expected exactly one tab, found {found}"
            )
        lineno += len(lines)


_first, _second, _third = operator.itemgetter(0), operator.itemgetter(1), operator.itemgetter(2)


def _normalized(texts: Iterable[str], config: TokenizerConfig) -> Iterator[str]:
    """``tokenize``'s first stage on each of ``texts``: NFC, then case
    folding with ``config.lowercase``. Case folding maps one code point at a
    time, and NFC never composes or reorders across "\\n", a starter that
    composes with nothing, so the count pass may map both over whole runs."""
    texts = map(unicodedata.normalize, itertools.repeat("NFC"), texts)
    return map(str.casefold, texts) if config.lowercase else texts


def _tokens(texts: Iterable[str], config: TokenizerConfig) -> Iterator[list[str]]:
    """``tokenize``'s second stage: the tokens of each of ``texts``, as
    ``_normalized`` leaves them. "\\n" is whitespace to ``str.split`` and
    ``strip_punct`` works token by token, so a run's tokens are its lines'."""
    tokens = map(str.split, texts)
    return map(_without_edge_punct, tokens) if config.strip_punct else tokens


def _tokenized(
    rows: Iterable[tuple[str, ...]], width: int, config: TokenizerConfig
) -> Iterator[tuple[list[str], ...]]:
    """The token lists of ``rows``, tuples of ``width`` texts, a tuple of
    ``width`` lists per row: the stages run once over the flattened texts,
    and no row is read before its tokens are asked for."""
    tokens = _tokens(_normalized(itertools.chain.from_iterable(rows), config), config)
    return zip(*[tokens] * width)


def _counted(texts: Iterable[str], config: TokenizerConfig) -> Counter[str]:
    """The tokens of ``texts``, counted up to their first DataError."""
    counts: Counter[str] = Counter()
    with contextlib.suppress(DataError):
        counts.update(itertools.chain.from_iterable(_tokens(texts, config)))
    return counts


class CorpusFiles:
    """Aligned files on disk, read with one tokenizer.

    ``paths`` is any number of one-segment-per-line files read in step, or
    (tsv,) with ``tsv`` set. Iterating reads the files once and yields one
    tuple of token lists per line, one list per file (two for a TSV). Every
    read, the count pass's too, decodes a block of lines at a time (``_runs``);
    only the count pass normalizes whole runs, and every other tokenizing
    read maps the stages over line texts.
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

    def _texts(self) -> Iterator[tuple[str, ...]]:
        if self.tsv:
            (path,) = self.paths
            columns = _tsv_columns(path, _runs(path))
            return itertools.chain.from_iterable(itertools.starmap(zip, columns))
        return iter_aligned(*self.paths)

    def segments(self) -> Iterator[SegmentPair]:
        """The untokenized (source, target) pairs, numbered from 0."""
        return (SegmentPair(index, *texts) for index, texts in enumerate(self._texts()))

    def __iter__(self) -> Iterator[tuple[list[str], ...]]:
        """The token lists of the lines ``segments()`` reads, tokenized line
        text by line text as they are asked for."""
        return _tokenized(self._texts(), 2 if self.tsv else len(self.paths), self.tokenizer)

    def token_counts(self) -> Iterator[Counter[str]]:
        """Each side's {token: count}, counted when it is asked for by the
        reader iterating uses: each file is read alone and its normalized runs
        are counted whole (``_tokens``), and a TSV is read once for its source
        fields, then once for its target fields. A side is counted up to its
        first DataError and no further; iterating raises the errors in order."""
        config = self.tokenizer
        if self.tsv:
            (path,) = self.paths
            columns = (_tsv_columns(path, _normalized(_runs(path), config)) for _ in range(2))
            sides = map(itertools.chain.from_iterable, map(map, (_first, _second), columns))
        else:
            sides = (_normalized(_runs(path), config) for path in self.paths)
        # ``map`` keeps no side's counts once it has handed them over.
        return map(_counted, sides, itertools.repeat(config))

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
    texts = map(operator.attrgetter("source", "target"), pairs)
    for n, (source, target) in enumerate(_tokenized(texts, 2, config), start=1):
        source_counts.update(source)
        target_counts.update(target)
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
    # The number of types at each frequency: far fewer entries than types,
    # so each threshold sums over these, and the types are listed only when
    # some type is over the cutoff.
    types_at = Counter(counts.values())
    rows = []
    for t in thresholds:
        ge = sum(n for f, n in types_at.items() if f >= t)
        rows.append(ThresholdCount(t, ge, len(counts) - ge))
    hifreq: tuple[str, ...] = ()
    if hifreq_cutoff is not None and max(types_at, default=0) > hifreq_cutoff:
        over = [(tok, f) for tok, f in counts.items() if f > hifreq_cutoff]
        over.sort(key=lambda pair: (-pair[1], pair[0]))
        hifreq = tuple(tok for tok, _ in over)
    return VocabStats(
        side=side,
        vocab_size=len(counts),
        token_count=sum(map(operator.mul, types_at, types_at.values())),
        singleton_types=types_at[1],
        thresholds=tuple(rows),
        hifreq_cutoff=hifreq_cutoff,
        hifreq_types=hifreq,
    )
