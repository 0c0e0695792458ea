"""Command-line interface: one binary, eight subcommands.

Exit codes: 0 success, 1 usage error (usage text on stderr), 2 data error
(mismatched files, format violations, files that cannot be read or
written). Diagnostics go to stderr; report data goes to stdout or --out.

A handler, ``cmd_x(args, stack)``, returns its report's lines (after the
header), or None when it writes no report; the lines may be a lazy
iterator. It puts each side file it writes on ``stack``, and a handler
whose run can log enters ``_logging_to_stderr`` there first. ``main`` checks
that no two file flags name one file and that each output's directory
exists, then writes the header and the lines to stdout or, through
``atomic_write``, to --out on that same stack, so output files are
replaced only when the command succeeds; with no --out, a command that
streams its rows (score, bleu --sentence-level) may already have written
some to stdout when it meets a data error. Every report
starts with '#' comment lines echoing the resolved run configuration, so a
run can be reproduced from its output; execution-only knobs (--threads,
--quiet, --out) are left out so thread count and destination never change
report bytes.

Only what parsing and error handling need is imported here; each handler
imports the library modules it runs, so a command pays start-up time for
no module it does not use, and a run builds the flags of its own
subcommand alone.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import math
import os
import sys
from typing import TYPE_CHECKING

from . import __version__
from .errors import AlignmentError, DataError, UsageError

if TYPE_CHECKING:
    from logging import Logger
    from typing import Callable, Iterable, Iterator, Sequence

    from .analysis import BucketSpec
    from .corpus import CorpusFiles, SegmentPair, TokenizerConfig
    from .wcm import CooccurrenceMatrix

PROG = "de-qe"

# Namespace entries that configure execution rather than the computation;
# they are excluded from report headers so identical analyses emit
# identical bytes regardless of thread count or destination.
_EXECUTION_KEYS = {"handler", "parser", "subcommand", "threads", "quiet", "out"}

# The header line of the per-segment reports (``score``, ``bleu
# --sentence-level``), whose rows carry a segment index in field 1 and a
# value in field 2; no other report writes it.
_INDEX_COLUMNS = "# columns: index"

# --buckets and --count-mode values, spelled out so parsing imports neither
# ``analysis`` nor ``wcm``; tests hold them equal to ``DEFAULT_BUCKETS`` and
# ``COUNT_MODES``.
_DEFAULT_BUCKETS = "<20,<30,<40,<50,>=50,>=60,>=70,>=80,>=90"
_COUNT_MODES = ("binary", "product")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message, usage=self.format_usage())


@contextlib.contextmanager
def _logging_to_stderr(quiet: bool) -> Iterator[Logger]:
    """Send the package's log records to stderr for one invocation, and
    yield this module's logger. Only a handler whose run logs enters it, so
    no other run imports ``logging``.

    The handler writes to the ``sys.stderr`` of this invocation, so a
    stream a caller put in its place receives the records. The handler and
    level are removed again on exit, so library callers and later
    invocations in the same process see the logger as it was.
    """
    import logging

    logger = logging.getLogger("deqe")
    level = logging.WARNING if quiet else logging.INFO
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter(f"{PROG}: %(message)s"))
    saved_level = logger.level
    logger.setLevel(level)
    logger.addHandler(handler)
    try:
        yield logging.getLogger(__name__)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(saved_level)


def _format_param(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        from .analysis import _float_text

        return _float_text(value)
    if hasattr(value, "label"):  # a BucketSpec, which is also a tuple
        return value.label
    if isinstance(value, (list, tuple)):
        return ",".join(_format_param(v) for v in value)
    return str(value)


def config_header(args: argparse.Namespace) -> list[str]:
    lines = [f"# {PROG} {args.subcommand}"]
    for key, value in sorted(vars(args).items()):
        if key in _EXECUTION_KEYS:
            continue
        lines.append(f"# {key}={_format_param(value)}")
    return lines


def _tokenizer(args: argparse.Namespace) -> TokenizerConfig:
    from .corpus import TokenizerConfig

    return TokenizerConfig(lowercase=args.lowercase, strip_punct=args.strip_punct)


def _corpus_files(
    args: argparse.Namespace, tokenizer: TokenizerConfig | None = None
) -> CorpusFiles:
    """The corpus the corpus flags name, read with ``tokenizer`` (None: the
    default one)."""
    from .corpus import CorpusFiles, TokenizerConfig

    tokenizer = tokenizer or TokenizerConfig()
    if args.tsv is not None:
        if args.source or args.target:
            raise UsageError("--tsv cannot be combined with --source/--target")
        return CorpusFiles((args.tsv,), tsv=True, tokenizer=tokenizer)
    if not args.source or not args.target:
        raise UsageError("either --tsv or both --source and --target are required")
    return CorpusFiles((args.source, args.target), tokenizer=tokenizer)


def _test_segments(tokenizer: TokenizerConfig, *paths: str) -> Iterator[tuple[list[str], ...]]:
    """The lines of the aligned files ``paths``, tokenized with
    ``tokenizer``; no line is a DataError, raised before any output is
    written."""
    from .corpus import CorpusFiles

    segments = iter(CorpusFiles(paths, tokenizer=tokenizer))
    first = next(segments, None)
    if first is None:
        raise DataError(f"empty corpus: no segments in {', '.join(paths)}")
    return itertools.chain([first], segments)


def _load_matrix(args: argparse.Namespace) -> CooccurrenceMatrix:
    """The matrix --wcm names. Its tokenizer settings join ``args``, so the
    report header echoes them as a tokenizer flag is echoed."""
    from .wcm import load_wcm

    matrix = load_wcm(args.wcm)
    vars(args).update(matrix.tokenizer._asdict())
    return matrix


def _distinct_outputs(args: argparse.Namespace) -> None:
    """Raise UsageError if an output flag names a file that one of the
    command's input flags names, which writing it would replace, or the file
    another output flag names, which both would write through one temporary
    file, and the OSError that writing it would raise naming an output file
    that is a directory, or whose directory does not exist or is not a
    directory, so that no input is read for a report that cannot be
    written; an unset output flag (--out of None is stdout) names no file."""
    # The running subcommand's file flags, inputs first, each in the order
    # the table first declares it: of two inputs naming one file, the one
    # declared later is named, and --out is the first output.
    order = [flag for *_, flags in _SUBCOMMANDS.values() for flag, _, _ in flags]
    named = sorted(
        ((flag, names) for flag, names, _ in _SUBCOMMANDS[args.subcommand][2] if names),
        key=lambda item: (item[1] != _READS, order.index(item[0])),
    )
    flags = {}
    for flag, names in named:
        if (value := getattr(args, flag[2:].replace("-", "_"))) is None:
            continue
        if names == _READS:
            flags[os.path.realpath(value)] = flag
            continue
        for path in (value + suffix for suffix in names):
            real = os.path.realpath(path)
            if os.path.isdir(real):
                # os.replace could not put the finished file in its place.
                raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            if not os.path.isdir(directory := os.path.dirname(real)):
                code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
                # OSError makes FileNotFoundError or NotADirectoryError of it.
                raise OSError(code, os.strerror(code), path)
            other = flags.setdefault(real, flag)
            if other != flag:
                raise UsageError(f"{other} and {flag} name the same file: {path}")


def _read_values(path) -> Iterator[tuple[int, str | None, float]]:
    """Yield (line number, index, value) for each data line of ``path``.

    After a ``# columns: index ...`` line, which the per-segment reports
    (``score``, ``bleu --sentence-level``) write and no other report does, a
    line of several tab-separated fields is a row: its index is the first
    field and its value the second. Any other data line holds one real and
    has no index, so the rows of another report are a DataError, not
    misread. Blank and '#' comment lines are skipped; a value that is not a
    finite real is a DataError naming the file and line.
    """
    from .corpus import iter_lines

    indexed = False
    for lineno, line in enumerate(iter_lines(path), start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            indexed = indexed or text.startswith(_INDEX_COLUMNS + " ")
            continue
        fields = text.split("\t")
        index = None
        if len(fields) > 1:
            if not indexed:
                raise DataError(
                    f"{path}: line {lineno}: {len(fields)} tab-separated fields, but the "
                    f"file is not a per-segment report (no '{_INDEX_COLUMNS} ...' line)"
                )
            index, text = fields[0], fields[1]
        try:
            value = float(text)
        except ValueError:
            raise DataError(f"{path}: line {lineno}: not a number: {text!r}") from None
        if not math.isfinite(value):
            raise DataError(f"{path}: line {lineno}: not a finite number: {text!r}")
        yield lineno, index, value


# ---------------------------------------------------------------------------
# argparse value types


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _score_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 <= value <= 100.0:
        raise argparse.ArgumentTypeError("must be in [0, 100]")
    return value


def _bin_width(text: str) -> float:
    from .analysis import _bin_count

    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    try:
        _bin_count(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _threshold_list(text: str) -> list[int]:
    try:
        values = [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from None
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("thresholds must be positive integers")
    return values


def _bucket_list(text: str) -> list[BucketSpec]:
    from .analysis import BucketSpec

    try:
        buckets = [BucketSpec.parse(piece) for piece in text.split(",") if piece.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not buckets:
        raise argparse.ArgumentTypeError("no buckets given")
    return buckets


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_vocab_stats(args: argparse.Namespace, stack: contextlib.ExitStack) -> list[str]:
    from .corpus import vocab_stats

    log = stack.enter_context(_logging_to_stderr(args.quiet))
    corpus = _corpus_files(args, _tokenizer(args))
    with corpus.unchanged():
        # The strict read raises every input error; the count pass reports none.
        log.info("vocab-stats: %d segments read", sum(1 for _ in corpus._texts()))
        # ``map`` drops each side's counts before the next side is counted.
        settings = itertools.repeat(args.thresholds), itertools.repeat(args.hifreq_cutoff)
        report = list(map(vocab_stats, ("source", "target"), corpus.token_counts(), *settings))
    rows = []
    for stats in report:
        side = stats.side
        rows.append(f"{side}\tvocab_size\t{stats.vocab_size}\t-")
        rows.append(f"{side}\ttoken_count\t{stats.token_count}\t-")
        for line in stats.thresholds:
            rows.append(
                f"{side}\ttypes_freq_ge_{line.threshold}\t{line.at_or_above}\t"
                f"{stats.pct_of_vocab(line.at_or_above):.2f}"
            )
            rows.append(
                f"{side}\ttypes_freq_lt_{line.threshold}\t{line.below}\t"
                f"{stats.pct_of_vocab(line.below):.2f}"
            )
        rows.append(
            f"{side}\ttypes_freq_eq_1\t{stats.singleton_types}\t"
            f"{stats.pct_of_vocab(stats.singleton_types):.2f}"
        )
        rows.append(
            f"{side}\thifreq_type_count\t{len(stats.hifreq_types)}\t"
            f"{stats.pct_of_vocab(len(stats.hifreq_types)):.2f}"
        )
        rows.append(f"{side}\thifreq_types\t{' '.join(stats.hifreq_types)}\t-")
    return rows


def cmd_build_wcm(args: argparse.Namespace, stack: contextlib.ExitStack) -> None:
    from .wcm import WcmConfig, build_wcm_with_vocabularies, save_wcm

    log = stack.enter_context(_logging_to_stderr(args.quiet))
    corpus = _corpus_files(args, _tokenizer(args))
    config = WcmConfig(
        min_cooccurrence=args.min_cooc,
        hifreq_cutoff=args.hifreq_cutoff,
        count_mode=args.count_mode,
    )
    matrix = build_wcm_with_vocabularies(corpus, config, threads=args.threads)
    save_wcm(matrix, args.out)
    log.info(
        "build-wcm: wrote %d entries to %s (excluded %d source / %d target types)",
        matrix.n_entries,
        args.out,
        len(matrix.excluded_source_tokens()),
        len(matrix.excluded_target_tokens()),
    )


def cmd_score(args: argparse.Namespace, stack: contextlib.ExitStack) -> Iterator[str]:
    from .corpus import PROGRESS_EVERY
    from .scoring import de_score, reverse_de_score

    log = stack.enter_context(_logging_to_stderr(args.quiet))
    matrix = _load_matrix(args)
    segments = _test_segments(matrix.tokenizer, args.source, args.hypothesis)

    def rows() -> Iterator[str]:
        yield f"{_INDEX_COLUMNS} de eligible evidenced" + (" reverse_de" if args.reverse else "")
        for index, (src, hyp) in enumerate(segments):
            de = de_score(matrix, src, hyp, by_type=args.by_type)
            row = f"{index}\t{de.value:.6f}\t{de.eligible}\t{de.evidenced}"
            if args.reverse:
                row += f"\t{reverse_de_score(matrix, src, hyp, by_type=args.by_type).value:.6f}"
            yield row
            if (index + 1) % PROGRESS_EVERY == 0:
                log.info("score: %d segments scored", index + 1)

    return rows()


def cmd_bleu(args: argparse.Namespace, stack: contextlib.ExitStack) -> Iterable[str]:
    from .metrics import bleu_stats, pooled_bleu, sentence_bleu

    segments = _test_segments(_tokenizer(args), args.hypothesis, args.reference)
    if args.sentence_level:
        rows = (f"{i}\t{sentence_bleu(h, r).score:.6f}" for i, (h, r) in enumerate(segments))
        return itertools.chain([f"{_INDEX_COLUMNS} bleu"], rows)
    result = pooled_bleu(bleu_stats(h, r) for h, r in segments)
    p1, p2, p3, p4 = result.precisions
    return [
        "# columns: bleu p1 p2 p3 p4 brevity_penalty hyp_len ref_len",
        f"{result.score:.4f}\t{p1:.6f}\t{p2:.6f}\t{p3:.6f}\t{p4:.6f}\t"
        f"{result.brevity_penalty:.6f}\t{result.hypothesis_length}\t"
        f"{result.reference_length}",
    ]


def cmd_correlate(args: argparse.Namespace, stack: contextlib.ExitStack) -> list[str]:
    from array import array

    from .corpus import _in_step
    from .metrics import pearson

    # Only the two value columns are kept.
    xs, ys = array("d"), array("d")
    rows = _in_step((_read_values(args.x), _read_values(args.y)), (args.x, args.y), "value")
    for (x_line, x_index, x_value), (y_line, y_index, y_value) in rows:
        if x_index is not None and y_index is not None and x_index != y_index:
            raise AlignmentError(
                f"index mismatch: {args.x} line {x_line} has index {x_index}, "
                f"{args.y} line {y_line} has index {y_index}"
            )
        xs.append(x_value)
        ys.append(y_value)
    if len(xs) < 3:
        raise DataError(f"need at least 3 paired values, found {len(xs)}")
    result = pearson(xs, ys)
    return [
        "# columns: r t_statistic p_value n",
        f"{result.r:.6f}\t{result.t_statistic:.4f}\t{result.p_value:.6g}\t{result.n}",
    ]


def cmd_bucket_eval(args: argparse.Namespace, stack: contextlib.ExitStack) -> list[str]:
    from .analysis import fold_buckets
    from .metrics import bleu_stats
    from .scoring import de_score

    stack.enter_context(_logging_to_stderr(args.quiet))
    matrix = _load_matrix(args)
    segments = _test_segments(matrix.tokenizer, args.source, args.hypothesis, args.reference)
    report = fold_buckets(
        ((de_score(matrix, s, h, by_type=args.by_type), bleu_stats(h, r)) for s, h, r in segments),
        args.buckets,
    )
    rows = [
        f"# total_segments={report.total_segments}",
        f"# degenerate_segments={report.degenerate_segments}",
        "# columns: bucket segments bleu",
    ]
    for row in report.rows:
        bleu = f"{row.bleu.score:.2f}" if row.bleu is not None else "NA"
        rows.append(f"{row.spec.label}\t{row.segment_count}\t{bleu}")
    return rows


def cmd_histogram(args: argparse.Namespace, stack: contextlib.ExitStack) -> list[str]:
    from .analysis import MAX_CHART_BINS, _bin_count, _float_text, histogram, render_histogram_svg
    from .corpus import atomic_write

    if args.chart and (n_bins := _bin_count(args.bin_width)) > MAX_CHART_BINS:
        raise UsageError(
            f"--chart draws at most {MAX_CHART_BINS} bins, one per pixel, and "
            f"--bin-width {_float_text(args.bin_width)} makes {n_bins}"
        )
    values = []
    for lineno, _, value in _read_values(args.scores):
        if not 0.0 <= value <= 100.0:
            score = _float_text(value)
            raise DataError(f"{args.scores}: line {lineno}: score {score} outside [0, 100]")
        values.append(value)
    report = histogram(values, args.bin_width)
    if args.chart:
        stack.enter_context(atomic_write(args.chart)).write(render_histogram_svg(report))
    return ["# columns: bin_lower count", *(f"{lower:g}\t{count}" for lower, count in report.bins)]


def cmd_filter(args: argparse.Namespace, stack: contextlib.ExitStack) -> list[str]:
    from .analysis import filter_corpus

    stack.enter_context(_logging_to_stderr(args.quiet))
    corpus = _corpus_files(args)
    matrix = _load_matrix(args)
    summary = filter_corpus(
        matrix,
        corpus.segments(),
        args.min_de,
        keep=_pair_sink(stack, args.kept_prefix),
        drop=_pair_sink(stack, args.dropped_prefix),
        by_type=args.by_type,
        bin_width=args.bin_width,
    )
    rows = [
        "# columns: stat value",
        f"total\t{summary.total}",
        f"kept\t{summary.kept}",
        f"dropped\t{summary.dropped}",
        f"degenerate\t{summary.degenerate}",
        "# columns: bin bin_lower count",
    ]
    return rows + [f"bin\t{lower:g}\t{count}" for lower, count in summary.histogram.bins]


def _pair_sink(stack: contextlib.ExitStack, prefix: str) -> Callable[[SegmentPair], None]:
    """Open ``prefix.source`` and ``prefix.target`` on ``stack`` with
    ``atomic_write``, so they replace earlier files only when the stack
    closes without an exception; the returned function appends one pair to
    them."""
    from .corpus import atomic_write

    source = stack.enter_context(atomic_write(f"{prefix}.source"))
    target = stack.enter_context(atomic_write(f"{prefix}.target"))

    def write(pair: SegmentPair) -> None:
        source.write(pair.source + "\n")
        target.write(pair.target + "\n")

    return write


# ---------------------------------------------------------------------------
# parser assembly

# What a flag's value names: no file (None), a file the command reads, or
# the files it writes, by the suffixes that make their names from the value.
_READS = "reads"
_WRITES = ("",)


def _flag(flag: str, names: str | tuple[str, ...] | None = None, **kwargs: object) -> tuple:
    return flag, names, kwargs


_CORPUS_FLAGS = (
    _flag("--source", _READS, help="source-side file, one segment per line"),
    _flag("--target", _READS, help="target-side file, one segment per line"),
    _flag("--tsv", _READS, help="single corpus file, source TAB target per line"),
)
_TOKENIZER_FLAGS = (
    _flag("--lowercase", action="store_true", help="case-fold tokens"),
    _flag("--strip-punct", action="store_true",
          help="strip leading/trailing punctuation from tokens"),
)
_WCM = _flag("--wcm", _READS, required=True)
_SOURCE = _flag("--source", _READS, required=True)
_HYPOTHESIS = _flag("--hypothesis", _READS, required=True)
_REFERENCE = _flag("--reference", _READS, required=True)
_OUT = _flag("--out", _WRITES)
_HIFREQ_CUTOFF = _flag("--hifreq-cutoff", type=_positive_int, default=10_000)
_BY_TYPE = _flag("--by-type", action="store_true")
_BIN_WIDTH = _flag("--bin-width", type=_bin_width, default=5.0)
_VALUES_HELP = "report with index, value in fields 1-2 (score, bleu), or one real per line"

# Each subcommand's help, handler and flags after --quiet, which all take.
_SUBCOMMANDS = {
    "vocab-stats": ("per-side vocabulary frequency statistics", cmd_vocab_stats, (
        *_CORPUS_FLAGS, *_TOKENIZER_FLAGS,
        _flag("--thresholds", type=_threshold_list, default=(1, 5, 10, 20)),
        _HIFREQ_CUTOFF,
        _flag("--out", _WRITES, help="write report here instead of stdout"),
    )),
    "build-wcm": ("build and serialize the co-occurrence matrix", cmd_build_wcm, (
        *_CORPUS_FLAGS, *_TOKENIZER_FLAGS,
        _flag("--out", _WRITES, required=True, help="output WCM file"),
        _flag("--min-cooc", type=_positive_int, default=20),
        _HIFREQ_CUTOFF,
        _flag("--count-mode", choices=_COUNT_MODES, default="binary"),
        _flag("--threads", type=_positive_int,
              help="worker processes that count the matrix (default and cap: the usable CPUs)"),
    )),
    "score": ("per-segment Direct Evidence scores", cmd_score, (
        _WCM, _SOURCE, _HYPOTHESIS,
        _flag("--reverse", action="store_true", help="add reverse (TL-to-SL) scores"),
        _flag("--by-type", action="store_true", help="count types, not tokens"),
        _OUT,
    )),
    "bleu": ("corpus or sentence-level BLEU", cmd_bleu, (
        _HYPOTHESIS, _REFERENCE, *_TOKENIZER_FLAGS,
        _flag("--sentence-level", action="store_true"), _OUT,
    )),
    "correlate": ("Pearson correlation of two value files", cmd_correlate, (
        _flag("--x", _READS, required=True, help=_VALUES_HELP),
        _flag("--y", _READS, required=True, help=_VALUES_HELP),
        _OUT,
    )),
    "bucket-eval": ("per-DE-bucket segment counts and BLEU", cmd_bucket_eval, (
        _WCM, _SOURCE, _HYPOTHESIS, _REFERENCE,
        _flag("--buckets", type=_bucket_list, default=_DEFAULT_BUCKETS,
              help='comma-separated specs like "<20,<50,>=50,>=80"'),
        _BY_TYPE, _OUT,
    )),
    "histogram": ("DE score histogram", cmd_histogram, (
        _flag("--scores", _READS, required=True,
              help="score report (DE in field 2) or one real per line"),
        _BIN_WIDTH,
        _flag("--chart", _WRITES, help="also render an SVG bar chart here"),
        _OUT,
    )),
    "filter": ("split a corpus into kept/dropped by DE", cmd_filter, (
        _WCM, *_CORPUS_FLAGS,
        _flag("--min-de", type=_score_value, required=True),
        _flag("--kept-prefix", (".source", ".target"), required=True),
        _flag("--dropped-prefix", (".source", ".target"), required=True),
        _BY_TYPE, _BIN_WIDTH,
        _flag("--out", _WRITES, help="write the summary report here instead of stdout"),
    )),
}


def build_parser(subcommand: str | None = None) -> _Parser:
    """The parser of every subcommand, each with its flags, or only
    ``subcommand`` with its flags when one is named."""
    parser = _Parser(prog=PROG, description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")
    for name, (summary, handler, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler, parser=p)
        if subcommand in (None, name):
            p.add_argument("--quiet", action="store_true", help="suppress progress messages")
            for flag, _, kwargs in flags:
                p.add_argument(flag, **kwargs)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        # A run builds the flags of its own subcommand alone.
        subcommand = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
        args = build_parser(subcommand).parse_args(argv)
        _distinct_outputs(args)
        # One stack holds every file the run writes, so a failure before the
        # end replaces none of them.
        with contextlib.ExitStack() as stack:
            lines = args.handler(args, stack)
            if lines is not None:
                if args.out is None:
                    fh = sys.stdout
                else:
                    from .corpus import atomic_write

                    fh = stack.enter_context(atomic_write(args.out))
                for line in itertools.chain(config_header(args), lines):
                    fh.write(line + "\n")
        return 0
    except SystemExit as exc:  # argparse --help / --version
        return int(exc.code or 0)
    except UsageError as err:
        # A parse error carries its parser's usage; a handler's takes its subcommand's.
        sys.stderr.write(err.usage or args.parser.format_usage())
        sys.stderr.write(f"{PROG}: error: {err}\n")
        return 1
    except DataError as err:
        sys.stderr.write(f"{PROG}: error: {err}\n")
        return 2
    except OSError as err:  # an input or output file that cannot be opened, read or written
        where = f"{err.filename}: " if err.filename is not None else ""
        sys.stderr.write(f"{PROG}: error: {where}{err.strerror or err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
