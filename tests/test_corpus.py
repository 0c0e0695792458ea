import pickle
import random
import weakref
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest

import deqe.corpus
from deqe.corpus import (
    CorpusFiles,
    SegmentPair,
    TokenizerConfig,
    Vocabulary,
    atomic_write,
    build_parallel_vocabularies,
    build_vocabulary,
    iter_aligned,
    iter_lines,
    load_parallel_corpus,
    tokenize,
    vocab_stats,
)
from deqe.errors import AlignmentError, DataError, EncodingError

import oracles
from helpers import (
    _EQUIVALENCE_SEPARATORS,
    _EQUIVALENCE_WORDS,
    _TOKENIZE_SEPARATORS,
    _TOKENIZE_WORDS,
    equivalence_corpus,
    tokenizer_pairs,
    write_lines,
)


# ---------------------------------------------------------------------------
# tokenize


def test_tokenize_whitespace_split():
    assert tokenize("the cat  sat") == ["the", "cat", "sat"]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize("   \t ") == []


def test_tokenize_lowercase():
    assert tokenize("The Cat", TokenizerConfig(lowercase=True)) == ["the", "cat"]


def test_tokenize_default_keeps_case_and_punct():
    assert tokenize("The cat.") == ["The", "cat."]


def test_tokenize_nfc_normalization():
    # e + combining acute collapses to the precomposed form
    assert tokenize("cafe\u0301") == ["caf\u00e9"]


def test_tokenize_strip_punct():
    cfg = TokenizerConfig(strip_punct=True)
    assert tokenize('"hello," she said.', cfg) == ["hello", "she", "said"]
    assert tokenize("- -- ...", cfg) == []
    assert tokenize("don't", cfg) == ["don't"]


@pytest.mark.parametrize(
    "config",
    [
        TokenizerConfig(),
        TokenizerConfig(lowercase=True),
        TokenizerConfig(strip_punct=True),
        TokenizerConfig(lowercase=True, strip_punct=True),
    ],
)
def test_tokenize_round_trip(config):
    rng = random.Random(7)
    alphabet = "aBéक, .;'—x\t"
    for _ in range(200):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        tokens = tokenize(text, config)
        assert tokenize(" ".join(tokens), config) == tokens
        assert all(" " not in t and t for t in tokens)


# ---------------------------------------------------------------------------
# corpus loading


def test_load_single_pair(tmp_path):
    write_lines(tmp_path / "s", ["a b"])
    write_lines(tmp_path / "t", ["x y"])
    pairs = list(load_parallel_corpus(tmp_path / "s", tmp_path / "t"))
    assert pairs == [SegmentPair(0, "a b", "x y")]


def test_load_line_count_mismatch(tmp_path):
    write_lines(tmp_path / "s", ["1", "2", "3"])
    write_lines(tmp_path / "t", ["1", "2", "3", "4"])
    with pytest.raises(AlignmentError) as err:
        list(load_parallel_corpus(tmp_path / "s", tmp_path / "t"))
    assert "3" in str(err.value) and "4" in str(err.value)


def test_load_mismatch_other_direction(tmp_path):
    write_lines(tmp_path / "s", ["1", "2", "3", "4", "5"])
    write_lines(tmp_path / "t", ["1"])
    with pytest.raises(AlignmentError) as err:
        list(load_parallel_corpus(tmp_path / "s", tmp_path / "t"))
    assert "5" in str(err.value) and "1" in str(err.value)


def test_iter_aligned_names_every_line_count(tmp_path):
    paths = [str(tmp_path / name) for name in ("a", "b", "c")]
    for lengths in ((2, 2, 2), (0, 0, 0), (3, 2, 2), (2, 3, 2), (2, 2, 3), (1, 3, 0)):
        for path, n in zip(paths, lengths):
            write_lines(path, [f"{path} {i}" for i in range(n)])
        stream = iter_aligned(*paths)
        if len(set(lengths)) == 1:
            assert list(stream) == [tuple(f"{p} {i}" for p in paths) for i in range(lengths[0])]
            continue
        with pytest.raises(AlignmentError) as err:
            list(stream)
        assert str(err.value) == "line count mismatch: " + ", ".join(
            f"{p} has {n} lines" for p, n in zip(paths, lengths)
        )


def test_load_crlf_and_missing_final_newline(tmp_path):
    (tmp_path / "s").write_bytes(b"a b\r\nc d\r\ne")
    (tmp_path / "t").write_bytes(b"x\ny\nz\n")
    pairs = list(load_parallel_corpus(tmp_path / "s", tmp_path / "t"))
    assert [p.source for p in pairs] == ["a b", "c d", "e"]


def test_load_keeps_blank_lines(tmp_path):
    write_lines(tmp_path / "s", ["a", "", "b"])
    write_lines(tmp_path / "t", ["x", "y", ""])
    pairs = list(load_parallel_corpus(tmp_path / "s", tmp_path / "t"))
    assert len(pairs) == 3
    assert pairs[1].source == ""
    assert pairs[2].target == ""
    assert [p.index for p in pairs] == [0, 1, 2]


def test_load_invalid_utf8_names_line(tmp_path):
    (tmp_path / "s").write_bytes(b"ok\n\xff\xfe\n")
    write_lines(tmp_path / "t", ["x", "y"])
    with pytest.raises(EncodingError) as err:
        list(load_parallel_corpus(tmp_path / "s", tmp_path / "t"))
    assert "line 2" in str(err.value)


def test_load_strips_bom(tmp_path):
    (tmp_path / "s").write_bytes("\ufeffa b\nc\n".encode("utf-8"))
    write_lines(tmp_path / "t", ["x", "y"])
    pairs = list(load_parallel_corpus(tmp_path / "s", tmp_path / "t"))
    assert pairs[0].source == "a b"


def test_atomic_write_replaces_only_on_success(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(target) as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    with atomic_write(target) as fh:
        fh.write("new\n")
    assert target.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    # A path under a file is named as given, not as its stand-in.
    with pytest.raises(NotADirectoryError) as err:
        with atomic_write(target / "under"):
            pass
    assert err.value.filename == str(target / "under")


def test_load_tsv(tmp_path):
    write_lines(tmp_path / "c.tsv", ["a b\tx y", "c\tz"])
    pairs = list(CorpusFiles((tmp_path / "c.tsv",), tsv=True).segments())
    assert pairs == [SegmentPair(0, "a b", "x y"), SegmentPair(1, "c", "z")]


def test_corpus_files_reiterable_and_picklable(tmp_path):
    write_lines(tmp_path / "c.src", ["The cat", "A dog"])
    write_lines(tmp_path / "c.tgt", ["le Chat", "un chien"])
    write_lines(tmp_path / "c.tsv", ["The cat\tle Chat", "A dog\tun chien"])
    config = TokenizerConfig(lowercase=True)
    expected = [(["the", "cat"], ["le", "chat"]), (["a", "dog"], ["un", "chien"])]
    files = CorpusFiles((str(tmp_path / "c.src"), str(tmp_path / "c.tgt")), tokenizer=config)
    tsv = CorpusFiles((str(tmp_path / "c.tsv"),), tsv=True, tokenizer=config)
    for corpus in (files, tsv, pickle.loads(pickle.dumps(files))):
        assert list(corpus) == list(corpus) == expected
    assert [p.source for p in tsv.segments()] == ["The cat", "A dog"]


@pytest.mark.parametrize("tsv", [False, True], ids=["two-files", "tsv"])
def test_token_counts_frees_each_side_before_the_next(tmp_path, tsv):
    """The count pass keeps no reference to a side's counts once it has
    handed them over, so a build holds one side's counts at a time."""
    write_lines(tmp_path / "c.src", ["The cat", "A dog"])
    write_lines(tmp_path / "c.tgt", ["le Chat", "un chien"])
    write_lines(tmp_path / "c.tsv", ["The cat\tle Chat", "A dog\tun chien"])
    corpus = CorpusFiles((tmp_path / "c.tsv",), tsv=True) if tsv else CorpusFiles(
        (tmp_path / "c.src", tmp_path / "c.tgt")
    )
    sides = corpus.token_counts()
    counts = next(sides)
    assert counts == {"The": 1, "cat": 1, "A": 1, "dog": 1}
    freed = weakref.ref(counts)
    del counts
    assert freed() is None
    assert next(sides) == {"le": 1, "Chat": 1, "un": 1, "chien": 1}
    assert next(sides, None) is None


@pytest.mark.parametrize("line,ntabs", [("no tabs here", 0), ("a\tb\tc", 2)])
def test_load_tsv_requires_one_tab(tmp_path, line, ntabs):
    write_lines(tmp_path / "c.tsv", ["ok\tok", line])
    with pytest.raises(DataError) as err:
        list(CorpusFiles((tmp_path / "c.tsv",), tsv=True).segments())
    assert "line 2" in str(err.value)
    assert str(ntabs) in str(err.value)


# ---------------------------------------------------------------------------
# vocabulary


def test_build_vocabulary_hand_count():
    vocab = build_vocabulary([["a", "b"], ["a", "c"]])
    assert len(vocab) == 3
    frequencies = {tok: f for tok, _, f in vocab.items()}
    assert frequencies["a"] == 2
    assert frequencies["b"] == 1
    assert frequencies["c"] == 1
    # ids follow first occurrence
    assert {tok: i for tok, i, _ in vocab.items()} == {"a": 0, "b": 1, "c": 2}
    assert list(vocab.items()) == [("a", 0, 2), ("b", 1, 1), ("c", 2, 1)]
    assert sum(vocab.frequencies) == 4


def test_build_vocabulary_empty():
    vocab = build_vocabulary([])
    assert len(vocab) == 0
    assert sum(vocab.frequencies) == 0
    assert "anything" not in {tok for tok, _, _ in vocab.items()}
    assert list(vocab.items()) == []


def test_build_vocabulary_all_unique():
    segments = [[f"w{i}" for i in range(5)], [f"w{i}" for i in range(5, 9)]]
    vocab = build_vocabulary(segments)
    assert len(vocab) == 9
    assert all(f == 1 for _, _, f in vocab.items())


def test_vocabulary_frequencies_order_insensitive():
    rng = random.Random(3)
    segments = [[rng.choice("abcde") for _ in range(rng.randint(0, 6))] for _ in range(30)]
    base = build_vocabulary(segments)
    shuffled = segments[:]
    rng.shuffle(shuffled)
    other = build_vocabulary(shuffled)
    assert {t: f for t, _, f in base.items()} == {t: f for t, _, f in other.items()}


def test_vocabulary_streaming_matches_list():
    segments = [["a", "b"], ["b", "c"], []]
    from_list = build_vocabulary(segments)
    from_stream = build_vocabulary(iter(segments))
    assert list(from_list.items()) == list(from_stream.items())


def test_vocabulary_rejects_ragged_input():
    with pytest.raises(ValueError):
        Vocabulary("source", ["a", "b"], [1])


# ---------------------------------------------------------------------------
# vocab stats


def _counts(segments):
    return Counter(chain.from_iterable(segments))


def test_vocab_stats_hand_case():
    stats = vocab_stats("source", _counts([["a", "b"], ["a", "c"]]), [2])
    line = stats.thresholds[0]
    assert (line.threshold, line.at_or_above, line.below) == (2, 1, 2)
    assert stats.pct_of_vocab(line.at_or_above) == pytest.approx(100.0 / 3.0)
    assert stats.singleton_types == 2
    assert stats.token_count == 4


def test_vocab_stats_empty_vocab():
    stats = vocab_stats("source", _counts([]), [1, 5])
    assert stats.vocab_size == 0
    assert all(t.at_or_above == 0 and t.below == 0 for t in stats.thresholds)
    assert stats.pct_of_vocab(0) == 0.0


def test_vocab_stats_requires_thresholds():
    with pytest.raises(ValueError):
        vocab_stats("source", _counts([["a"]]), [])


def test_vocab_stats_monotone():
    rng = random.Random(5)
    segments = [[rng.choice("abcdefgh") for _ in range(rng.randint(1, 10))] for _ in range(50)]
    stats = vocab_stats("source", _counts(segments), [1, 2, 3, 5, 8, 13])
    counts = [t.at_or_above for t in stats.thresholds]
    assert counts == sorted(counts, reverse=True)
    # complementary split
    assert all(t.at_or_above + t.below == stats.vocab_size for t in stats.thresholds)


def test_vocab_stats_hifreq_list():
    counts = _counts([["a"] * 7 + ["b"] * 5 + ["c"] * 5 + ["d"]])
    stats = vocab_stats("source", counts, [1], hifreq_cutoff=4)
    assert stats.hifreq_types == ("a", "b", "c")  # freq desc, then token
    # boundary: frequency equal to the cutoff is not excluded
    stats = vocab_stats("source", counts, [1], hifreq_cutoff=5)
    assert stats.hifreq_types == ("a",)


def test_vocab_stats_of_the_count_pass_equal_those_of_the_strict_read(tmp_path):
    """``vocab_stats`` over the Counters of ``CorpusFiles.token_counts``
    equals it over the vocabularies that ``build_parallel_vocabularies``
    makes from the strict read: for two files and TSV, every tokenizer, and
    text with a BOM, CRLF and the line boundaries that only
    ``str.splitlines`` cuts at."""
    rng = random.Random(1600)
    saw_hifreq = 0
    for trial in range(32):
        tsv = trial % 2 == 1
        tokenizer = TokenizerConfig(lowercase=bool(trial & 2), strip_punct=bool(trial & 4))
        corpus = equivalence_corpus(tmp_path, rng, tsv, tokenizer)
        thresholds = rng.sample(range(1, 9), rng.randint(1, 3))
        cutoff = rng.choice([None, 1, 4, 12])
        vocabularies = build_parallel_vocabularies(corpus.segments(), tokenizer)[:2]
        expected = [
            vocab_stats(v.side, dict(zip(v.tokens, v.frequencies)), thresholds, cutoff)
            for v in vocabularies
        ]
        counted = [
            vocab_stats(side, counts, thresholds, cutoff)
            for side, counts in zip(("source", "target"), corpus.token_counts())
        ]
        assert counted == expected, trial
        saw_hifreq += any(stats.hifreq_types for stats in counted)
    assert saw_hifreq > 10


# ---------------------------------------------------------------------------
# the block reader against the per-line reader

_BLOCK_SIZES = [1, 2, 3, 5, 65_536]
_TOKENIZERS = [TokenizerConfig(lower, strip) for lower in (False, True) for strip in (False, True)]
# Characters of 2, 3 and 4 bytes in UTF-8.
_WIDE = ["\u00e9", "\u20ac", "\U0001f600"]
_ORACLE_ERRORS = {
    EncodingError: "encoding",
    AlignmentError: "alignment",
    DataError: "tab",
    oracles.OracleEncodingError: "encoding",
    oracles.OracleAlignmentError: "alignment",
    oracles.OracleTabError: "tab",
}


def _outcome(items):
    """The items of ``items`` and the kind and text of the error that ends
    them, if any."""
    seen = []
    try:
        for item in items:
            seen.append(item)
    except tuple(_ORACLE_ERRORS) as exc:
        return seen, (_ORACLE_ERRORS[type(exc)], str(exc))
    return seen, None


def _block_text(rng, tsv):
    """A line of the equivalence words, wide characters and separators, a
    lone CR among them, perhaps starting with a BOM that is not the file's;
    a TSV line holds its one tab in the middle."""
    words = _EQUIVALENCE_WORDS + _WIDE + [w * 3 for w in _WIDE] + ["\ufeffw"]
    separators = _EQUIVALENCE_SEPARATORS + ([] if tsv else ["\t"])

    def text():
        if rng.random() < 0.15:  # blank, or only separators
            return "".join(rng.choices(separators, k=rng.randint(0, 2)))
        return "".join(
            rng.choice(words) + rng.choice(separators) for _ in range(rng.randint(1, 5))
        )

    return f"{text()}\t{text()}" if tsv else text()


def _block_file(path, rng, lines):
    """Write ``lines`` with LF or CRLF breaks, perhaps a BOM and perhaps no
    break after the last line; no lines is an empty file."""
    breaks = rng.choices(["\n", "\r\n"], k=len(lines))
    if lines and rng.random() < 0.3:
        breaks[-1] = ""
    text = "".join(map(str.__add__, lines, breaks))
    if lines and rng.random() < 0.3:
        text = "\ufeff" + text
    path.write_bytes(text.encode("utf-8"))


def _per_line_corpus(paths, tsv, tokenizer=None):
    """The tuples the per-line reader yields for the corpus at ``paths``:
    lines, or token lists with ``tokenizer``."""
    if tsv:
        rows = oracles.per_line_tsv(*paths)
    else:
        readers = [oracles.per_line_iter_lines(path) for path in paths]
        rows = oracles.per_line_aligned(readers, paths)
    if tokenizer is None:
        return rows
    return (tuple(oracles.per_line_tokens(text, *tokenizer) for text in row) for row in rows)


@pytest.mark.parametrize("layout", ["two-files", "three-files", "tsv"])
def test_block_reader_equals_the_per_line_reader(tmp_path, monkeypatch, layout):
    """At blocks of 1, 2, 3, 5 and 65,536 bytes, ``iter_lines``,
    ``iter_aligned``, ``segments()``, iteration and ``token_counts()`` give
    what the per-line reader gives, under every tokenizer: wide characters
    fall across every block edge, and the files may be empty, lack a final
    line break, start with a BOM or hold a lone CR."""
    tsv = layout == "tsv"
    n_files = {"two-files": 2, "three-files": 3, "tsv": 1}[layout]
    rng = random.Random(f"1700:{layout}")
    paths = [str(tmp_path / f"c{i}") for i in range(n_files)]
    for trial in range(12):
        n = 0 if trial == 0 else rng.randint(1, 25)
        for path in paths:
            _block_file(Path(path), rng, [_block_text(rng, tsv) for _ in range(n)])
        for size in _BLOCK_SIZES:
            monkeypatch.setattr(deqe.corpus, "_BLOCK_BYTES", size)
            where = (trial, size)
            for path in paths:
                expected = _outcome(oracles.per_line_iter_lines(path))
                assert _outcome(iter_lines(path)) == expected, where
            if not tsv:
                expected = _outcome(_per_line_corpus(paths, tsv))
                assert _outcome(iter_aligned(*paths)) == expected, where
            for tokenizer in _TOKENIZERS:
                corpus = CorpusFiles(tuple(paths), tsv=tsv, tokenizer=tokenizer)
                expected = _outcome(_per_line_corpus(paths, tsv, tokenizer))
                assert expected[1] is None
                assert _outcome(corpus) == expected, (where, tokenizer)
                if layout != "three-files":
                    segments = [tuple(pair) for pair in corpus.segments()]
                    texts = list(_per_line_corpus(paths, tsv))
                    assert segments == [(i, *row) for i, row in enumerate(texts)], where
                sides = zip(*expected[0]) if n else [()] * (2 if tsv else n_files)
                assert list(corpus.token_counts()) == [
                    Counter(chain.from_iterable(side)) for side in sides
                ], (where, tokenizer)


def _bad_bytes(rng):
    """An invalid byte sequence: a stray continuation or invalid byte, or a
    wide character cut short."""
    wide = rng.choice(_WIDE).encode("utf-8")
    return rng.choice([b"\xff", b"\x80", b"\xc0\xaf", wide[: rng.randint(1, len(wide) - 1)]])


def _corrupt(path, rng):
    """Put an invalid sequence into a random line of ``path``, at a random
    byte or right before the line break."""
    lines = Path(path).read_bytes().split(b"\n")
    if not lines[-1]:
        lines.pop()
    at = rng.randrange(len(lines))
    line = lines[at]
    body, cr = (line[:-1], b"\r") if line.endswith(b"\r") else (line, b"")
    col = len(body) if rng.random() < 0.4 else rng.randint(0, len(body))
    lines[at] = body[:col] + _bad_bytes(rng) + body[col:] + cr
    Path(path).write_bytes(b"\n".join(lines) + b"\n")


@pytest.mark.parametrize("layout", ["two-files", "three-files", "tsv"])
def test_block_reader_raises_the_per_line_readers_error(tmp_path, monkeypatch, layout):
    """Invalid bytes at seeded lines and columns, a wide character cut
    short just before a line break among them, in files of equal or
    unequal length: at every block size the block reader yields the same
    items as the per-line reader before the same error, with the same text,
    whichever error that is."""
    tsv = layout == "tsv"
    n_files = {"two-files": 2, "three-files": 3, "tsv": 1}[layout]
    rng = random.Random(f"1701:{layout}")
    paths = [str(tmp_path / f"c{i}") for i in range(n_files)]
    kinds = Counter()
    for trial in range(30):
        n = rng.randint(1, 12)
        for path in paths:
            length = n if rng.random() < 0.5 else rng.randint(1, n)
            lines = [_block_text(rng, tsv) for _ in range(length)]
            if tsv and rng.random() < 0.2:
                lines[rng.randrange(length)] += "\t"
            _block_file(Path(path), rng, lines)
            if rng.random() < 0.8 / n_files:
                _corrupt(path, rng)
        expected_lines = _outcome(_per_line_corpus(paths, tsv))
        kinds[expected_lines[1] and expected_lines[1][0]] += 1
        for size in _BLOCK_SIZES:
            monkeypatch.setattr(deqe.corpus, "_BLOCK_BYTES", size)
            for path in paths:
                expected = _outcome(oracles.per_line_iter_lines(path))
                assert _outcome(iter_lines(path)) == expected, (trial, size)
            corpus = CorpusFiles(tuple(paths), tsv=tsv)
            assert _outcome(corpus._texts()) == expected_lines, (trial, size)
            tokenizer = rng.choice(_TOKENIZERS)
            corpus = CorpusFiles(tuple(paths), tsv=tsv, tokenizer=tokenizer)
            expected = _outcome(_per_line_corpus(paths, tsv, tokenizer))
            assert _outcome(corpus) == expected, (trial, size, tokenizer)
    assert kinds["encoding"] >= 10
    if not tsv:
        assert kinds["alignment"] >= 2


@pytest.mark.parametrize("shorter", [0, 1])
def test_block_reader_error_precedence_past_the_shorter_end(tmp_path, monkeypatch, shorter):
    """One file is shorter and the other has a bad byte past its end: the
    per-line reader reads the longer file on to count its lines and meets
    the bad byte, so the EncodingError wins over the AlignmentError; without
    the bad byte the AlignmentError is raised."""
    paths = [str(tmp_path / "a"), str(tmp_path / "b")]
    longer = 1 - shorter
    write_lines(paths[shorter], ["x", "y"])
    Path(paths[longer]).write_bytes(b"x\ny\nz\n\xe2\x82\n")
    for size in _BLOCK_SIZES:
        monkeypatch.setattr(deqe.corpus, "_BLOCK_BYTES", size)
        expected = _outcome(_per_line_corpus(paths, False))
        assert expected == (
            [("x", "x"), ("y", "y")],
            ("encoding", f"{paths[longer]}: invalid UTF-8 on line 4: unexpected end of data"),
        )
        assert _outcome(iter_aligned(*paths)) == expected
    write_lines(paths[longer], ["x", "y", "z", "w"])
    assert _outcome(iter_aligned(*paths))[1][0] == "alignment"


def test_block_reader_error_precedence_at_the_shorter_end(tmp_path, monkeypatch):
    """Where the shortest file ends, every longer file is read at that line
    before any is read on: the third file's bad line 3 wins over the first
    file's bad line 4, though the first is read first."""
    paths = [str(tmp_path / name) for name in "abc"]
    Path(paths[0]).write_bytes(b"x\ny\nz\n\xff\n")
    write_lines(paths[1], ["x", "y"])
    Path(paths[2]).write_bytes(b"x\ny\n\xff\n")
    for size in _BLOCK_SIZES:
        monkeypatch.setattr(deqe.corpus, "_BLOCK_BYTES", size)
        expected = _outcome(_per_line_corpus(paths, False))
        assert expected == (
            [("x", "x", "x"), ("y", "y", "y")],
            ("encoding", f"{paths[2]}: invalid UTF-8 on line 3: invalid start byte"),
        )
        assert _outcome(iter_aligned(*paths)) == expected


# ---------------------------------------------------------------------------
# tokenize against the per-line oracle


@pytest.mark.parametrize(
    "tokenizer", _TOKENIZERS, ids=["default", "strip-punct", "lowercase", "lowercase-strip-punct"]
)
def test_tokenize_equals_the_per_line_oracle(tokenizer):
    """``tokenize`` gives the oracle's tokens for seeded texts of one to four
    lines, built from NFD accents, characters whose case folding NFC
    recomposes, BOMs inside words, edge punctuation and every separator the
    block reader must not cut a line at; a text's tokens are its lines'
    tokens, one line after another."""
    rng = random.Random(1900)
    for trial in range(300):
        lines = [
            "".join(
                rng.choice(_TOKENIZE_WORDS) + rng.choice(_TOKENIZE_SEPARATORS)
                for _ in range(rng.randint(0, 6))
            )
            for _ in range(rng.randint(1, 4))
        ]
        text = "\n".join(lines)
        per_line = chain.from_iterable(oracles.per_line_tokens(line, *tokenizer) for line in lines)
        assert tokenize(text, tokenizer) == oracles.per_line_tokens(text, *tokenizer), trial
        assert tokenize(text, tokenizer) == list(per_line), trial


# ---------------------------------------------------------------------------
# one tokenizing stream


@pytest.mark.parametrize(
    "tokenizer", _TOKENIZERS, ids=["default", "strip-punct", "lowercase", "lowercase-strip-punct"]
)
def test_build_parallel_vocabularies_count_each_pair_as_tokenize_does(tokenizer):
    """Each side's vocabulary holds the counts of ``tokenize`` over that
    side's texts, pair by pair, in first-occurrence order."""
    pairs = tokenizer_pairs(random.Random(2001), 200)
    source, target, n = build_parallel_vocabularies(iter(pairs), tokenizer)
    assert n == len(pairs)
    for vocab, side in ((source, "source"), (target, "target")):
        counts = Counter()
        for pair in pairs:
            counts.update(tokenize(getattr(pair, side), tokenizer))
        assert vocab.side == side
        assert list(zip(vocab.tokens, vocab.frequencies)) == list(counts.items())


@pytest.mark.parametrize("tsv", [False, True], ids=["two-files", "tsv"])
def test_iterating_reads_nothing_before_the_first_row_is_asked_for(tmp_path, tsv):
    write_lines(tmp_path / "other", ["a"])
    missing = tmp_path / "missing"
    paths = (missing,) if tsv else (missing, tmp_path / "other")
    rows = iter(CorpusFiles(paths, tsv=tsv))
    with pytest.raises(FileNotFoundError):
        next(rows)
