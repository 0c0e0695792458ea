"""Build, prune, serialize, and query the sparse bilingual word
co-occurrence matrix.

A cell (i, j) counts how often source word i and target word j appear in
the same aligned segment pair. The build counts each side's types, numbers
only those that can reach a surviving cell as it reads the corpus again,
then counts one source word's row at a time and prunes the cells below the
minimum co-occurrence threshold before it counts the next, so the mere
presence of an entry is the strong-evidence predicate used by scoring. The
matrix it returns is keyed by tokens, as its file is.
"""

from __future__ import annotations

import logging
import os
import reprlib
import sys
from collections import Counter
from contextlib import closing
from functools import partial
from itertools import chain, compress, count, islice, product, repeat, zip_longest
from operator import is_not, itemgetter
from types import MappingProxyType
from typing import TYPE_CHECKING, Collection, Iterable, Iterator, Mapping, NamedTuple

from .corpus import _DEFAULT_TOKENIZER, PROGRESS_EVERY, TokenizerConfig, _runs, atomic_write
from .errors import VocabularyMismatchError, WcmFormatError

if TYPE_CHECKING:
    from array import array

    from .corpus import CorpusFiles, Vocabulary

log = logging.getLogger(__name__)

FORMAT_VERSION = "v2"
COUNT_MODE_BINARY = "binary"
COUNT_MODE_PRODUCT = "product"
COUNT_MODES = (COUNT_MODE_BINARY, COUNT_MODE_PRODUCT)

LONG_SEGMENT_TOKENS = 1_000


class _WcmConfigFields(NamedTuple):
    min_cooccurrence: int = 20
    hifreq_cutoff: int = 10_000
    count_mode: str = COUNT_MODE_BINARY


class WcmConfig(_WcmConfigFields):
    """Thresholds and counting semantics a matrix is built under.

    ``binary`` counting adds 1 per segment in which both types co-occur,
    regardless of repetition; ``product`` adds occurrences(i) *
    occurrences(j) instead. A value out of range raises ValueError.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "WcmConfig":
        self = super().__new__(cls, *args, **kwargs)
        if self.min_cooccurrence < 1:
            raise ValueError("min_cooccurrence must be >= 1")
        if self.hifreq_cutoff < 1:
            raise ValueError("hifreq_cutoff must be >= 1")
        if self.count_mode not in COUNT_MODES:
            raise ValueError(
                f"count_mode must be one of {COUNT_MODES}, got {self.count_mode!r}"
            )
        return self

    @classmethod
    def _make(cls, iterable) -> "WcmConfig":
        # So that ``_replace`` checks the new values too.
        return cls(*iterable)


class CooccurrenceMatrix:
    """Pruned co-occurrence counts, row-indexed by source token.

    ``rows`` maps each source token to its {target token: count} row, and
    holds no empty row. Immutable once built; safe to share across workers
    for concurrent lookups. Types whose raw frequency exceeded the
    high-frequency cutoff were skipped at build time and are recorded in
    the exclusion sets. A pruned word and an unseen word alike have no row.
    ``tokenizer`` is the config the training corpus was tokenized with; a
    text scored against the matrix must be tokenized with it too.
    """

    def __init__(
        self,
        config: WcmConfig,
        rows: dict[str, dict[str, int]],
        excluded_source: Iterable[str] = (),
        excluded_target: Iterable[str] = (),
        tokenizer: TokenizerConfig = _DEFAULT_TOKENIZER,
    ):
        self.config = config
        self.tokenizer = tokenizer
        self._rows = rows
        self._excluded_source = frozenset(excluded_source)
        self._excluded_target = frozenset(excluded_target)
        self._transposed: "CooccurrenceMatrix | None" = None

    @property
    def n_entries(self) -> int:
        return sum(len(row) for row in self._rows.values())

    def row(self, token: str) -> Mapping[str, int]:
        """Target-token -> count map for one source token; empty if it has
        no row."""
        return self._rows.get(token, _NO_ROW)

    def entries(self) -> Iterator[tuple[str, str, int]]:
        """Yield (source token, target token, count) in unspecified order."""
        for s, row in self._rows.items():
            for t, c in row.items():
                yield s, t, c

    def excluded_source_tokens(self) -> frozenset[str]:
        return self._excluded_source

    def excluded_target_tokens(self) -> frozenset[str]:
        return self._excluded_target

    def transposed(self) -> "CooccurrenceMatrix":
        """The target -> source view; built once and cached both ways."""
        if self._transposed is None:
            rows_t: dict[str, dict[str, int]] = {}
            for s, row in self._rows.items():
                for t, c in row.items():
                    col = rows_t.get(t)
                    if col is None:
                        rows_t[t] = col = {}
                    col[s] = c
            flipped = CooccurrenceMatrix(
                self.config, rows_t, self._excluded_target, self._excluded_source, self.tokenizer
            )
            flipped._transposed = self
            self._transposed = flipped
        return self._transposed

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CooccurrenceMatrix):
            return NotImplemented
        return (
            self.config == other.config
            and self.tokenizer == other.tokenizer
            and self._excluded_source == other._excluded_source
            and self._excluded_target == other._excluded_target
            and self._rows == other._rows
        )

    def __repr__(self) -> str:
        return (
            f"CooccurrenceMatrix({self.n_entries} entries, "
            f"min_cooccurrence={self.config.min_cooccurrence}, "
            f"count_mode={self.config.count_mode})"
        )


_NO_ROW: Mapping[str, int] = MappingProxyType({})


class _Side(NamedTuple):
    """One side as the build numbers it: id i is ``tokens[i]``, and only
    the types it counts have an id; ``excluded`` holds the types over the
    high-frequency cutoff."""

    tokens: list[str]
    excluded: frozenset[str]


def _side(tokens: Collection[str], frequencies: Collection[int], config: WcmConfig) -> _Side:
    """Number, in the order of ``tokens``, the types that are neither
    excluded for high frequency nor, in binary mode, rare. A binary count
    never exceeds either type's corpus frequency, so a type rarer than
    ``min_cooccurrence`` has no cell that survives pruning.
    """
    floor = config.min_cooccurrence if config.count_mode == COUNT_MODE_BINARY else 0
    cutoff = config.hifreq_cutoff
    excluded: list[str] = []
    # One pass: a type over the cutoff is appended to ``excluded``, and
    # ``append`` returns None, so it is not counted.
    counted = [
        tok
        for tok, f in zip(tokens, frequencies)
        if (f <= cutoff or excluded.append(tok)) and f >= floor
    ]
    return _Side(counted, frozenset(excluded))


_is_not_none = partial(is_not, None)


def _encode(
    pairs: Iterable[tuple[list[str], list[str]]],
    source: _Side,
    target: _Side,
    config: WcmConfig,
    progress_every: int,
) -> tuple[tuple[list[array], list[tuple[int, ...]], int], int]:
    """Read ``pairs`` once into ``(postings, targets, pair_updates)``, and
    the number of segments read.

    The counted types of ``source`` and ``target`` are numbered here, in
    their order, and a token of no counted type is skipped.
    ``targets[n]`` holds the counted target ids of the n-th segment that
    has both counted source and counted target types, and
    ``postings[sid]`` the numbers n of the segments source id ``sid`` is
    counted in. Binary mode keeps each type once per segment; product mode
    keeps one entry per occurrence, so counting the targets of a row's
    postings gives occurrences(i) * occurrences(j) summed over segments.
    ``pair_updates`` is the number of increments that counting takes.
    """
    # Imported here, as loading it costs every CLI command memory.
    from array import array

    source_id = dict(zip(source.tokens, count())).get
    target_id = dict(zip(target.tokens, count())).get
    # Segment numbers as 4-byte unsigned integers, indexed by source id.
    postings = [array("I") for _ in source.tokens]
    targets: list[tuple[int, ...]] = []
    binary = config.count_mode == COUNT_MODE_BINARY
    pair_updates = 0
    index = -1
    for index, (src_tokens, tgt_tokens) in enumerate(pairs):
        n_src, n_tgt = len(src_tokens), len(tgt_tokens)
        if n_src > LONG_SEGMENT_TOKENS or n_tgt > LONG_SEGMENT_TOKENS:
            log.warning(
                "segment %d is very long (%d/%d tokens); pair counting is quadratic",
                index,
                n_src,
                n_tgt,
            )
        if binary:
            src = {*map(source_id, src_tokens)}
            tgt = {*map(target_id, tgt_tokens)}
            src.discard(None)
            tgt.discard(None)
        else:
            src = tuple(filter(_is_not_none, map(source_id, src_tokens)))
            tgt = tuple(filter(_is_not_none, map(target_id, tgt_tokens)))
        if src and tgt:
            seg = len(targets)
            targets.append(tuple(tgt))
            for sid in src:
                postings[sid].append(seg)
            pair_updates += len(src) * len(tgt)
        if progress_every and (index + 1) % progress_every == 0:
            log.info("build-wcm: %d segments read", index + 1)
    return (postings, targets, pair_updates), index + 1


def _count_rows(
    postings: list[array],
    targets: list[tuple[int, ...]],
    floor: int,
    source_tokens: list[str],
    target_tokens: list[str],
    part: int = 0,
    n_parts: int = 1,
) -> dict[str, dict[str, int]]:
    """Count and prune, one row at a time, the rows of the source ids with
    ``sid % n_parts == part``; return the survivors as {source token:
    {target token: count}}, with the tokens the ids number.

    Only one row's unpruned counts exist at a time, and each row is keyed by
    token as it survives, so no id-keyed copy of the survivors is held. The
    tokens are the build's own strings, so a cell costs one dict slot.
    """
    segment_targets = targets.__getitem__
    target_token = target_tokens.__getitem__
    at_floor = floor.__le__
    survivors: dict[str, dict[str, int]] = {}
    for sid in range(part, len(postings), n_parts):
        segs = postings[sid]
        if segs:
            row = Counter(chain.from_iterable(map(segment_targets, segs)))
            kept = dict(compress(row.items(), map(at_floor, row.values())))
            if kept:
                survivors[source_tokens[sid]] = dict(zip(map(target_token, kept), kept.values()))
    return survivors


# Below this many pair updates a build counts in process whatever
# ``threads`` is. Measured on a 2-vCPU VM (Python 3.11): importing the pool
# modules took 35-50 ms, and forking two workers and collecting their rows
# 40-80 ms more, while row counting ran at 7-12M pair updates/s. Two workers
# save half the counting time, so they pay only once counting takes about
# 0.2 s, some 2M pair updates.
POOL_MIN_PAIR_UPDATES = 2_000_000

# The arguments of _count_rows except the partition number, set in each
# worker process by its initializer. Under the fork start method (the Linux
# default) workers inherit them, so neither the encoded corpus nor the
# tokens are pickled; only the token-keyed rows a worker returns are.
_worker_args: tuple = ()


def _init_worker(*args) -> None:
    global _worker_args
    _worker_args = args


def _count_worker_rows(part: int) -> bytes:
    """The rows of partition ``part``, pickled; ``_count`` unpickles them."""
    import pickle

    *job, n_parts = _worker_args
    return pickle.dumps(_count_rows(*job, part, n_parts))


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _resolve_threads(threads: int | None) -> int:
    """The number of worker processes a build may use: ``threads``, or every
    usable CPU for None. A request for more than the usable CPUs is clamped
    to them with a warning; one below 1 raises ValueError."""
    usable = _usable_cpus()
    if threads is None:
        return usable
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if threads > usable:
        log.warning(
            "%d threads requested, but only %d CPUs are usable; using %d", threads, usable, usable
        )
    return min(threads, usable)


def build_wcm(
    pairs: Iterable[tuple[list[str], list[str]]],
    source_vocab: Vocabulary,
    target_vocab: Vocabulary,
    config: WcmConfig | None = None,
    *,
    threads: int | None = 1,
    progress_every: int = PROGRESS_EVERY,
    tokenizer: TokenizerConfig = _DEFAULT_TOKENIZER,
) -> CooccurrenceMatrix:
    """Count co-occurrences over a stream of tokenized segment pairs, with
    vocabularies the caller built.

    Types whose raw frequency exceeds ``config.hifreq_cutoff`` on their own
    side are skipped and recorded as exclusions, and cells below
    ``config.min_cooccurrence`` are pruned. In binary mode, types rarer than
    ``config.min_cooccurrence`` are skipped too; that is exact, and they are
    not exclusions. Frequencies are the vocabularies' own. The vocabularies
    must come from this corpus or a superset of it: each segment is checked
    against them as it is read, and the first segment holding a token they
    lack raises VocabularyMismatchError naming the first such token, source
    side first, before any later segment is read.

    ``pairs`` may be any iterable; it is read once, in this process, and
    counted as ``build_wcm_with_vocabularies`` counts the strict read of its
    files, with the counted types of each vocabulary numbered in its token
    order and ``threads`` taken as it takes it; the matrix is the same for
    every thread count. It carries ``tokenizer``, which should be the config
    the caller tokenized ``pairs`` with.
    """
    threads = _resolve_threads(threads)
    if config is None:
        config = WcmConfig()
    vocabularies = (
        ("source", frozenset(source_vocab.tokens)),
        ("target", frozenset(target_vocab.tokens)),
    )

    def checked() -> Iterator[tuple[list[str], list[str]]]:
        for index, segment in enumerate(pairs):
            for (side, known), tokens in zip(vocabularies, segment):
                if not known.issuperset(tokens):
                    token = next(tok for tok in tokens if tok not in known)
                    raise VocabularyMismatchError(
                        f"{side} token {token!r} in segment {index} is not in the "
                        f"{side} vocabulary; rebuild vocabularies from this corpus"
                    )
            yield segment

    source = _side(source_vocab.tokens, source_vocab.frequencies, config)
    target = _side(target_vocab.tokens, target_vocab.frequencies, config)
    encoded, _ = _encode(checked(), source, target, config, progress_every)
    return _count(encoded, source, target, config, threads, tokenizer)


def build_wcm_with_vocabularies(
    corpus: CorpusFiles,
    config: WcmConfig | None = None,
    *,
    threads: int | None = 1,
) -> CooccurrenceMatrix:
    """Build the matrix from the files of ``corpus`` in two passes.

    The first counts each side's types (``CorpusFiles.token_counts``), and
    only the types that can reach a surviving cell get an id, in
    first-occurrence order. The second is the strict read of ``corpus``,
    which raises every input error, and derives what counting needs from
    each segment. The matrix is the one ``build_wcm`` counts with the
    vocabularies ``build_vocabulary`` makes from the same corpus, and
    carries ``corpus.tokenizer``. Both passes run under
    ``CorpusFiles.unchanged``: a path that is not a regular file, or a file
    that changes between them, is a DataError. A progress record is logged
    at INFO every ``PROGRESS_EVERY`` segments.

    With ``threads > 1`` (None: every usable CPU) and enough pair updates to
    pay for the pool, the rows are counted in that many worker processes. A
    request for more than the usable CPUs is clamped to them with a warning
    before the corpus is read, and one below 1 is a ValueError.
    """
    threads = _resolve_threads(threads)
    if config is None:
        config = WcmConfig()
    sides, n_types = [], []
    with corpus.unchanged():
        for counts in corpus.token_counts():
            sides.append(_side(counts.keys(), counts.values(), config))
            n_types.append(len(counts))
            # Only the counted types are kept, and one side's counts at a time.
            del counts
        source, target = sides
        encoded, segments = _encode(corpus, source, target, config, PROGRESS_EVERY)
    log.info("build-wcm: read %d segments, %d source types, %d target types", segments, *n_types)
    return _count(encoded, source, target, config, threads, corpus.tokenizer)


def _count(
    encoded: tuple[list[array], list[tuple[int, ...]], int],
    source: _Side,
    target: _Side,
    config: WcmConfig,
    threads: int,
    tokenizer: TokenizerConfig,
) -> CooccurrenceMatrix:
    """Count and prune each row of ``encoded`` on its own, keyed by token,
    in a matrix that carries ``tokenizer``. With ``threads > 1`` and enough
    pair updates to pay for the pool, the rows are split by source id
    modulo ``threads`` among worker processes; the survivors are disjoint,
    so the matrix is the same for every thread count."""
    postings, targets, pair_updates = encoded
    job = (postings, targets, config.min_cooccurrence, source.tokens, target.tokens)
    if threads > 1 and pair_updates >= POOL_MIN_PAIR_UPDATES:
        # Imported here, as importing them costs every CLI command start-up time.
        import pickle
        from concurrent.futures import ProcessPoolExecutor

        # A partition brings its own copies of the target strings; its rows
        # are re-keyed by the build's own as they are taken out, so a token
        # is held once. It is unpickled in this thread, as rows rebuilt here
        # would not reuse memory freed in another thread's malloc arena.
        own = {token: token for token in target.tokens}.__getitem__
        rows: dict[str, dict[str, int]] = {}
        with ProcessPoolExecutor(
            threads, initializer=_init_worker, initargs=(*job, threads)
        ) as pool:
            for part_rows in map(pickle.loads, pool.map(_count_worker_rows, range(threads))):
                while part_rows:
                    source_token, row = part_rows.popitem()
                    rows[source_token] = dict(zip(map(own, row), row.values()))
    else:
        rows = _count_rows(*job)
    return CooccurrenceMatrix(config, rows, source.excluded, target.excluded, tokenizer)


# The header of a WCM file, one line per tag in file order: the tag, then
# its value, or an exclusion set's tokens, each after one space. The three
# config lines follow ``WcmConfig``'s field order. A v1 file has every line
# but the last, as it records no tokenizer.
_HEADER_TAGS = (
    "#wcm", "#min_cooccurrence", "#hifreq_cutoff", "#count_mode", "#entries",
    "#excluded_source", "#excluded_target", "#tokenizer",
)
_V1 = "v1"

# The '#tokenizer' line's value for each tokenizer config, and back.
_TOKENIZER_TEXT = {
    config: " ".join(f"{key}={str(on).lower()}" for key, on in zip(config._fields, config))
    for config in map(TokenizerConfig._make, product((False, True), repeat=2))
}
_TEXT_TOKENIZER = {text: config for config, text in _TOKENIZER_TEXT.items()}


def save_wcm(matrix: CooccurrenceMatrix, path) -> None:
    """Write the matrix in the v2 text format.

    Entries are sorted by (source token, target token) so identical
    matrices serialize to identical bytes. The file is replaced only once it
    is complete (see ``corpus.atomic_write``). Only the tokens the file
    holds, those of the entries and the exclusion sets, must be free of
    whitespace.
    """
    entries = sorted(matrix.entries())
    excluded_source = matrix.excluded_source_tokens()
    excluded_target = matrix.excluded_target_tokens()
    written = set(map(itemgetter(0), entries))
    written.update(map(itemgetter(1), entries), excluded_source, excluded_target)
    if (token := _spaced_token(written)) is not None:
        raise ValueError(f"token {token!r} contains whitespace and cannot be serialized")
    header = [[str(value)] for value in (FORMAT_VERSION, *matrix.config, len(entries))]
    header += [sorted(excluded_source), sorted(excluded_target)]
    header.append([_TOKENIZER_TEXT[matrix.tokenizer]])
    with atomic_write(path) as fh:
        for tag, fields in zip(_HEADER_TAGS, header, strict=True):
            fh.write(" ".join([tag, *fields]) + "\n")
        for s, t, c in entries:
            fh.write(f"{s}\t{t}\t{c}\n")


def _spaced_token(tokens: Collection[str]) -> str | None:
    """The least of ``tokens`` that holds whitespace, or None: one C-level
    pass over every character, and the offender is looked up only once
    there is one."""
    joined = "".join(tokens)
    # ``str.split`` cuts at the characters ``str.isspace`` accepts, and
    # gives back ``[joined]`` itself when it finds none.
    if joined and joined.split() != [joined]:
        return min(tok for tok in tokens if any(map(str.isspace, tok)))
    return None


def _read_header(
    lines: list[str], path
) -> tuple[WcmConfig, TokenizerConfig | None, int, frozenset[str], frozenset[str]]:
    """The config, the tokenizer (None in a v1 file, which records none),
    the declared entry count and the two exclusion sets, from a WCM file's
    first lines, checked in file order."""
    values: list = []
    for lineno, (tag, line) in enumerate(zip_longest(_HEADER_TAGS, lines), 1):
        if tag == "#tokenizer" and values[0] == _V1:
            values.append(None)
            break
        if line is not None and (line == tag or line.startswith(tag + " ")):
            value = line[len(tag) + 1 :]
        elif lineno == 1:
            raise WcmFormatError(f"{path}: not a WCM file (missing '#wcm' header)")
        elif line is None:
            raise WcmFormatError(f"{path}: truncated header, missing {tag!r} line")
        else:
            raise WcmFormatError(f"{path}: expected {tag!r} header on line {lineno}")
        if tag == "#wcm" and (value := value.strip()) not in (FORMAT_VERSION, _V1):
            # Cut short: a first line that never ends would quote the whole file.
            raise WcmFormatError(
                f"{path}: unsupported WCM format version: expected "
                f"{FORMAT_VERSION!r} or {_V1!r}, found {reprlib.repr(value)}"
            )
        if tag in ("#min_cooccurrence", "#hifreq_cutoff", "#entries"):
            try:
                value = int(value)
            except ValueError:
                raise WcmFormatError(
                    f"{path}: invalid integer {value!r} in {tag!r} header"
                ) from None
            if tag == "#entries" and not 0 <= value <= sys.maxsize:
                raise WcmFormatError(f"{path}: invalid entry count {value} in {tag!r} header")
        if tag == "#tokenizer":
            if value not in _TEXT_TOKENIZER:
                raise WcmFormatError(
                    f"{path}: line {lineno}: invalid '#tokenizer' header {value!r}; "
                    "expected 'lowercase=<true|false> strip_punct=<true|false>'"
                )
            value = _TEXT_TOKENIZER[value]
        values.append(value)
    _, min_cooc, cutoff, mode, declared, excl_s, excl_t, tokenizer = values
    try:
        config = WcmConfig(min_cooc, cutoff, mode)
    except ValueError as exc:
        raise WcmFormatError(f"{path}: {exc}") from None
    return config, tokenizer, declared, frozenset(excl_s.split()), frozenset(excl_t.split())


def load_wcm(path) -> CooccurrenceMatrix:
    """Read a matrix from the v2 text format, or from v1.

    The loaded matrix is exactly the file: its rows, its exclusion sets and
    its tokenizer. A v1 file records no tokenizer, so it is read as one
    built with the default tokenizer, with a warning naming the file.
    Corpus frequencies are not stored, and a pruned word and an unseen word
    alike have no row. The file is read as a corpus file is (``corpus._runs``):
    LF lines, CRLF and a leading BOM tolerated, a byte that is not UTF-8 an
    EncodingError naming its line. Each entry is checked as it is read, and
    its tokens, which hold no whitespace, once all are read, so an entry
    error is reported before a wrong declared entry count.
    """
    rows: dict[str, dict[str, int]] = {}
    # Each target token string, kept once however many rows hold it.
    target_tokens: dict[str, str] = {}
    with closing(_runs(path)) as runs:
        lines = chain.from_iterable(map(str.split, runs, repeat("\n")))
        # Read whole before it is checked, so a byte in it that is not UTF-8
        # is reported before a bad header line.
        header = list(islice(lines, len(_HEADER_TAGS)))
        config, tokenizer, declared, excl_s, excl_t = _read_header(header, path)
        # A v1 header is a line shorter: give back the line read after it.
        header_lines = len(_HEADER_TAGS) - (tokenizer is None)
        lines = chain(header[header_lines:], lines)
        lineno = header_lines
        for lineno, line in enumerate(islice(lines, declared), lineno + 1):
            fields = line.split("\t")
            if len(fields) != 3:
                raise WcmFormatError(
                    f"{path}: line {lineno}: expected 3 tab-separated fields, found {len(fields)}"
                )
            s, t, raw_count = fields
            try:
                c = int(raw_count)
            except ValueError:
                raise WcmFormatError(
                    f"{path}: line {lineno}: invalid count {raw_count!r}"
                ) from None
            if c < config.min_cooccurrence:
                raise WcmFormatError(
                    f"{path}: line {lineno}: count {c} is below the declared "
                    f"min_cooccurrence {config.min_cooccurrence}"
                )
            if s in excl_s or t in excl_t:
                raise WcmFormatError(f"{path}: entry ({s!r}, {t!r}) uses an excluded token")
            row = rows.setdefault(s, {})
            if t in row:
                raise WcmFormatError(f"{path}: duplicate entry ({s!r}, {t!r})")
            row[target_tokens.setdefault(t, t)] = c
        if (token := _spaced_token([*rows, *target_tokens])) is not None:
            raise WcmFormatError(f"{path}: token {token!r} contains whitespace")
        trailing = sum(1 for _ in lines)
    found = lineno - header_lines
    if found < declared:
        raise WcmFormatError(
            f"{path}: truncated WCM file: header declares {declared} entries, found {found}"
        )
    if trailing:
        raise WcmFormatError(
            f"{path}: trailing data: header declares {declared} entries, "
            f"found {found + trailing} lines"
        )
    if tokenizer is None:
        log.warning(
            "%s: a v1 WCM file records no tokenizer, so it is read as built with the "
            "default one; rebuild it if it was built with --lowercase or --strip-punct",
            path,
        )
        tokenizer = _DEFAULT_TOKENIZER
    return CooccurrenceMatrix(config, rows, excl_s, excl_t, tokenizer)
