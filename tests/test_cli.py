import argparse
import hashlib
import logging
import os
import random
import re
import subprocess
import sys

import pytest

import deqe.corpus
import deqe.wcm
from deqe import cli
from deqe.cli import main
from deqe.corpus import CorpusFiles, build_vocabulary
from deqe.errors import EncodingError, UsageError
from deqe.wcm import WcmConfig, build_wcm, save_wcm

import oracles
from helpers import make_matrix, write_lines
from oracles import naive_de_score


@pytest.fixture
def toy_corpus(tmp_path):
    src = tmp_path / "train.src"
    tgt = tmp_path / "train.tgt"
    raw = [("a b", "x y")] * 5 + [("a c", "x z")] * 5
    write_lines(src, [s for s, _ in raw])
    write_lines(tgt, [t for _, t in raw])
    return src, tgt


@pytest.fixture
def toy_wcm(tmp_path, toy_corpus):
    src, tgt = toy_corpus
    out = tmp_path / "toy.wcm"
    rc = main(
        [
            "build-wcm",
            "--source", str(src),
            "--target", str(tgt),
            "--out", str(out),
            "--min-cooc", "5",
            "--threads", "1",
            "--quiet",
        ]
    )
    assert rc == 0
    return out


def _data_lines(text):
    return [line for line in text.splitlines() if line and not line.startswith("#")]


# ---------------------------------------------------------------------------
# exit-code discipline


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "SUBCOMMAND" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["build-wcm"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err and "--out" in err


def test_missing_source_is_usage_error(tmp_path, capsys):
    assert main(["build-wcm", "--out", str(tmp_path / "o.wcm")]) == 1
    assert "--source" in capsys.readouterr().err


def test_tsv_conflicts_with_source(tmp_path, capsys):
    write_lines(tmp_path / "c.tsv", ["a\tx"])
    rc = main(
        [
            "vocab-stats",
            "--tsv", str(tmp_path / "c.tsv"),
            "--source", str(tmp_path / "c.tsv"),
            "--target", str(tmp_path / "c.tsv"),
        ]
    )
    assert rc == 1
    assert "--tsv" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["build-wcm", "--source", "s", "--target", "t"],
            "usage: de-qe build-wcm [-h] [--quiet] [--source SOURCE] [--target TARGET]\n"
            "                       [--tsv TSV] [--lowercase] [--strip-punct] --out OUT\n"
            "                       [--min-cooc MIN_COOC] [--hifreq-cutoff HIFREQ_CUTOFF]\n"
            "                       [--count-mode {binary,product}] [--threads THREADS]\n"
            "de-qe: error: the following arguments are required: --out\n",
        ),
        (
            ["vocab-stats", "--tsv", "x", "--source", "y", "--target", "y"],
            "usage: de-qe vocab-stats [-h] [--quiet] [--source SOURCE] [--target TARGET]\n"
            "                         [--tsv TSV] [--lowercase] [--strip-punct]\n"
            "                         [--thresholds THRESHOLDS]\n"
            "                         [--hifreq-cutoff HIFREQ_CUTOFF] [--out OUT]\n"
            "de-qe: error: --tsv cannot be combined with --source/--target\n",
        ),
    ],
    ids=["parse-error", "handler-error"],
)
def test_usage_error_prints_the_subcommands_usage(monkeypatch, capsys, argv, expected):
    """A usage error found by the parser and one found by the handler each
    print the subcommand's own usage, then one error line, and exit 1."""
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == 1
    assert capsys.readouterr() == ("", expected)


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1


def test_mismatched_line_counts_exit_2(tmp_path, capsys):
    write_lines(tmp_path / "s", ["1", "2", "3"])
    write_lines(tmp_path / "t", ["1", "2", "3", "4"])
    rc = main(
        ["vocab-stats", "--source", str(tmp_path / "s"), "--target", str(tmp_path / "t")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "3" in err and "4" in err


def test_bad_wcm_file_exit_2(tmp_path, toy_corpus, capsys):
    src, tgt = toy_corpus
    bad = tmp_path / "bad.wcm"
    bad.write_text("#wcm v9\n")
    rc = main(
        ["score", "--wcm", str(bad), "--source", str(src), "--hypothesis", str(tgt)]
    )
    assert rc == 2
    assert "v9" in capsys.readouterr().err


def test_wcm_with_negative_entry_count_exit_2(tmp_path, toy_corpus, toy_wcm, capsys):
    src, tgt = toy_corpus
    path = tmp_path / "bad.wcm"
    path.write_text(re.sub(r"#entries \d+", "#entries -1", toy_wcm.read_text(), count=1))
    rc = main(["score", "--wcm", str(path), "--source", str(src), "--hypothesis", str(tgt)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"de-qe: error: {path}: invalid entry count -1 in '#entries' header\n"
    )


def test_wcm_with_bad_tokenizer_line_exit_2(tmp_path, toy_corpus, toy_wcm, capsys):
    src, tgt = toy_corpus
    path = tmp_path / "bad.wcm"
    path.write_text(toy_wcm.read_text().replace("lowercase=false", "lowercase=maybe", 1))
    rc = main(["score", "--wcm", str(path), "--source", str(src), "--hypothesis", str(tgt)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"de-qe: error: {path}: line 8: invalid '#tokenizer' header "
        "'lowercase=maybe strip_punct=false'; "
        "expected 'lowercase=<true|false> strip_punct=<true|false>'\n"
    )


@pytest.mark.parametrize(
    "good, bad",
    [(b"#count_mode binary", b"#count_mode bin\xffary"), (b"a\tx\t", b"a\t\xffx\t")],
    ids=["header", "entry"],
)
def test_wcm_not_utf8_is_one_line_data_error(tmp_path, toy_corpus, toy_wcm, capsys, good, bad):
    src, tgt = toy_corpus
    path = tmp_path / "bad.wcm"
    data = toy_wcm.read_bytes()
    lineno = data[: data.index(good)].count(b"\n") + 1
    path.write_bytes(data.replace(good, bad, 1))
    rc = main(["score", "--wcm", str(path), "--source", str(src), "--hypothesis", str(tgt)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"de-qe: error: {path}: invalid UTF-8 on line {lineno}: invalid start byte\n"
    )


@pytest.mark.parametrize(
    "argv, named",
    [
        (["score", "--wcm", "{tmp}/missing.wcm", "--source", "{src}", "--hypothesis", "{tgt}"],
         "{tmp}/missing.wcm"),
        (["build-wcm", "--source", "{tmp}/nope.src", "--target", "{tgt}", "--out", "{tmp}/o.wcm",
          "--threads", "1"],
         "{tmp}/nope.src"),
        (["bleu", "--hypothesis", "{tmp}", "--reference", "{tgt}"], "{tmp}"),
        (["bleu", "--hypothesis", "{src}", "--reference", "{tgt}", "--out", "{tmp}/no/out.tsv"],
         "{tmp}/no/out.tsv"),
        # named before any input is opened: the source here is a directory
        (["build-wcm", "--source", "{tmp}", "--target", "{tgt}", "--out", "{tmp}/no/o.wcm"],
         "{tmp}/no/o.wcm"),
        (["build-wcm", "--source", "{tmp}", "--target", "{tgt}", "--out", "{src}/o.wcm"],
         "{src}/o.wcm"),
        # an output that is a directory is named before any input is read
        (["build-wcm", "--source", "{tmp}/nope.src", "--target", "{tgt}", "--out", "{tmp}"],
         "{tmp}"),
    ],
    ids=["missing-wcm", "missing-source", "directory-as-input", "output-in-missing-directory",
         "output-directory-checked-first", "output-under-a-file", "output-is-a-directory"],
)
def test_unopenable_file_is_one_line_data_error(tmp_path, toy_corpus, argv, named, capsys):
    src, tgt = toy_corpus
    fill = {"tmp": tmp_path, "src": src, "tgt": tgt}
    assert main([a.format(**fill) for a in argv] + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"de-qe: error: {named.format(**fill)}: ")


def test_invalid_flag_values_exit_1(tmp_path, capsys):
    rc = main(
        [
            "filter",
            "--wcm", "w",
            "--source", "s",
            "--target", "t",
            "--min-de", "150",
            "--kept-prefix", "k",
            "--dropped-prefix", "d",
        ]
    )
    assert rc == 1
    assert "[0, 100]" in capsys.readouterr().err
    assert main(["histogram", "--scores", "s", "--bin-width", "7"]) == 1
    assert main(["bucket-eval", "--wcm", "w", "--source", "s", "--hypothesis", "h",
                 "--reference", "r", "--buckets", "oops"]) == 1
    assert main(["build-wcm", "--source", "s", "--target", "t", "--out", "o", "--threads", "0"]) == 1


def test_bin_width_bounded_at_parse():
    """--bin-width is checked as it is parsed: a width that makes too many
    bins, or NaN, is a usage error, and the finest allowed width parses."""
    parser = cli.build_parser()
    histogram = ["histogram", "--scores", "s"]
    filter_ = ["filter", "--wcm", "w", "--source", "s", "--target", "t", "--min-de", "50",
               "--kept-prefix", "k", "--dropped-prefix", "d"]
    for command in (histogram, filter_):
        assert parser.parse_args([*command, "--bin-width", "0.0001"]).bin_width == 0.0001
        for bad, reason in (("1e-300", "more than 1000000 bins"), ("nan", "must be positive")):
            with pytest.raises(UsageError, match=reason):
                parser.parse_args([*command, "--bin-width", bad])


# ---------------------------------------------------------------------------
# vocab-stats


def test_vocab_stats_report(toy_corpus, capsys):
    src, tgt = toy_corpus
    rc = main(
        [
            "vocab-stats",
            "--source", str(src),
            "--target", str(tgt),
            "--thresholds", "1,5",
            "--quiet",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("# de-qe vocab-stats\n")
    rows = {tuple(line.split("\t")[:2]): line.split("\t")[2:] for line in _data_lines(out)}
    assert rows[("source", "vocab_size")][0] == "3"
    assert rows[("source", "token_count")][0] == "20"
    assert rows[("target", "types_freq_ge_5")][0] == "3"


def test_vocab_stats_tsv_variant(tmp_path, capsys):
    write_lines(tmp_path / "c.tsv", ["a b\tx y", "a\tx"])
    rc = main(["vocab-stats", "--tsv", str(tmp_path / "c.tsv"), "--quiet"])
    assert rc == 0
    out = capsys.readouterr().out
    rows = {tuple(line.split("\t")[:2]): line.split("\t")[2] for line in _data_lines(out)}
    assert rows[("source", "vocab_size")] == "2"
    assert rows[("target", "vocab_size")] == "2"


# ---------------------------------------------------------------------------
# build-wcm and score


def test_build_wcm_writes_valid_artifact(toy_wcm):
    text = toy_wcm.read_text()
    assert text.startswith("#wcm v2\n")
    assert "#min_cooccurrence 5\n" in text
    assert "#excluded_target\n#tokenizer lowercase=false strip_punct=false\na\tx\t" in text
    assert "a\tx\t10" in text


def test_build_wcm_byte_identical_across_threads(tmp_path, toy_corpus, monkeypatch):
    # four partitions in four workers, whatever this machine's CPU count
    # and however few pair updates the corpus takes
    monkeypatch.setattr(deqe.wcm, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(deqe.wcm, "POOL_MIN_PAIR_UPDATES", 0)
    src, tgt = toy_corpus
    outs = []
    for threads in ("1", "4"):
        out = tmp_path / f"t{threads}.wcm"
        rc = main(
            [
                "build-wcm",
                "--source", str(src),
                "--target", str(tgt),
                "--out", str(out),
                "--min-cooc", "2",
                "--threads", threads,
                "--quiet",
            ]
        )
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_build_wcm_counts_then_reads_each_input_once(tmp_path, toy_corpus, monkeypatch):
    """``build-wcm`` counts each side in a pass of its own, then the strict
    read reads each file once; ``vocab-stats`` makes the strict read first.
    Every pass reads in binary. A TSV file is counted once per side."""
    src, tgt = toy_corpus
    tsv = tmp_path / "train.tsv"
    write_lines(
        tsv, [f"{s}\t{t}" for s, t in zip(src.read_text().splitlines(), tgt.read_text().splitlines())]
    )
    opened = []

    def logged(path, mode="r", *args, **kwargs):
        if mode in ("r", "rb"):
            opened.append((mode, os.fspath(path)))
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(deqe.corpus, "open", logged, raising=False)
    files = ["--source", str(src), "--target", str(tgt)]
    counted = [("rb", str(src)), ("rb", str(tgt))]
    read = [("rb", str(src)), ("rb", str(tgt))]
    for n, (command, inputs, expected) in enumerate((
        ("build-wcm", files, counted + read),
        ("build-wcm", ["--tsv", str(tsv)], [("rb", str(tsv)), ("rb", str(tsv)), ("rb", str(tsv))]),
        ("vocab-stats", files, read + counted),
        ("vocab-stats", ["--tsv", str(tsv)], [("rb", str(tsv)), ("rb", str(tsv)), ("rb", str(tsv))]),
    )):
        opened.clear()
        extra = ["--min-cooc", "2"] if command == "build-wcm" else []
        assert main([command, *inputs, *extra, "--out", str(tmp_path / f"{n}.out"), "--quiet"]) == 0
        assert opened == expected, (command, inputs)
    # two files and one TSV give the same matrix
    assert (tmp_path / "0.out").read_bytes() == (tmp_path / "1.out").read_bytes()


def test_the_first_bad_byte_in_step_is_reported(tmp_path):
    """The count pass reports no error, so of a bad byte on target line 3
    and another on source line 7, ``build-wcm`` and ``vocab-stats`` both
    report the target's, the first that reading both files in step meets,
    and write nothing."""
    src, tgt = tmp_path / "train.src", tmp_path / "train.tgt"
    for path, bad in ((src, 6), (tgt, 2)):
        path.write_bytes(b"".join(b"w\xff\n" if i == bad else b"w v\n" for i in range(10)))
    message = f"{tgt}: invalid UTF-8 on line 3: invalid start byte"
    corpus = CorpusFiles((str(src), str(tgt)))
    assert len(list(corpus.token_counts())) == 2
    with pytest.raises(EncodingError) as err:
        list(corpus)
    assert str(err.value) == message
    inputs = ["--source", str(src), "--target", str(tgt)]
    for command in ("build-wcm", "vocab-stats"):
        out = tmp_path / f"{command}.out"
        result = subprocess.run(
            [sys.executable, "-m", "deqe.cli", command, *inputs, "--out", str(out)],
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 2, command
        assert result.stderr == f"de-qe: error: {message}\n", command
        assert not out.exists()
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("flag", ["--target", "--tsv"])
def test_build_wcm_refuses_a_pipe(tmp_path, toy_corpus, flag):
    """``build-wcm`` and ``vocab-stats`` read their corpus twice, so a named
    pipe is refused before it is opened; opening it would wait for a
    writer."""
    src, _ = toy_corpus
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    inputs = ["--tsv", str(fifo)] if flag == "--tsv" else ["--source", str(src), "--target", str(fifo)]
    for command in ("build-wcm", "vocab-stats"):
        result = subprocess.run(
            [sys.executable, "-m", "deqe.cli", command, *inputs, "--out", str(tmp_path / "o.out")],
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 2, command
        assert result.stderr == (
            f"de-qe: error: {fifo}: not a regular file; the corpus is read twice\n"
        )
        assert not (tmp_path / "o.out").exists()


# The golden bytes below are what the build and the score report were before
# binary builds skipped rare types: "rare" occurs once, under --min-cooc 5.
RARE_WCM = """#wcm v2
#min_cooccurrence 5
#hifreq_cutoff 10000
#count_mode binary
#entries 4
#excluded_source
#excluded_target
#tokenizer lowercase=false strip_punct=false
a\tx\t7
a\ty\t6
b\tx\t6
b\ty\t6
"""
RARE_SCORES = """# de-qe score
# by_type=false
# hypothesis=test.hyp
# lowercase=false
# reverse=true
# source=test.src
# strip_punct=false
# wcm=r.wcm
# columns: index de eligible evidenced reverse_de
0\t50.000000\t2\t1\t50.000000
1\t0.000000\t1\t0\t0.000000
2\t33.333333\t3\t1\t100.000000
"""


def test_rare_source_word_stays_eligible(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_lines("train.src", ["a b"] * 6 + ["a rare"])
    write_lines("train.tgt", ["x y"] * 6 + ["x z"])
    write_lines("test.src", ["a rare", "rare", "rare rare b"])
    write_lines("test.hyp", ["x z", "z", "y"])
    for threads in ("1", "2"):
        assert main(["build-wcm", "--source", "train.src", "--target", "train.tgt",
                     "--out", "r.wcm", "--min-cooc", "5", "--threads", threads, "--quiet"]) == 0
        assert (tmp_path / "r.wcm").read_text() == RARE_WCM
    assert main(["score", "--wcm", "r.wcm", "--source", "test.src", "--hypothesis", "test.hyp",
                 "--reverse", "--out", "s.tsv", "--quiet"]) == 0
    assert (tmp_path / "s.tsv").read_text() == RARE_SCORES


_V1_RUNS = {
    "score": ["--source", "test.src", "--hypothesis", "test.hyp", "--reverse"],
    "bucket-eval": ["--source", "test.src", "--hypothesis", "test.hyp", "--reference", "test.hyp"],
    "filter": ["--source", "test.src", "--target", "test.hyp", "--min-de", "50",
               "--kept-prefix", "k", "--dropped-prefix", "d"],
}


@pytest.mark.parametrize("command", _V1_RUNS)
def test_v1_wcm_scores_as_the_default_tokenizer_with_one_warning(
    tmp_path, monkeypatch, capsys, command
):
    """A v1 file, which records no tokenizer, is scored as a v2 file of the
    default tokenizer is, and every command that reads a matrix warns once,
    naming the file, even with --quiet."""
    monkeypatch.chdir(tmp_path)
    write_lines("test.src", ["a rare", "rare", "rare rare b"])
    write_lines("test.hyp", ["x z", "z", "y"])
    argv = [command, "--wcm", "r.wcm", *_V1_RUNS[command], "--out", "s.tsv", "--quiet"]
    (tmp_path / "r.wcm").write_text(RARE_WCM)
    assert main(argv) == 0
    v2_outputs = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert capsys.readouterr().err == ""
    (tmp_path / "r.wcm").write_text(
        RARE_WCM.replace("#wcm v2", "#wcm v1").replace(
            "#tokenizer lowercase=false strip_punct=false\n", ""
        )
    )
    assert main(argv) == 0
    del v2_outputs["r.wcm"]
    assert {name: (tmp_path / name).read_bytes() for name in v2_outputs} == v2_outputs
    if command == "score":
        assert (tmp_path / "s.tsv").read_text() == RARE_SCORES
    assert capsys.readouterr().err == (
        "de-qe: r.wcm: a v1 WCM file records no tokenizer, so it is read as built with the "
        "default one; rebuild it if it was built with --lowercase or --strip-punct\n"
    )


_MATRIX_COMMANDS = {
    "score": ["--wcm", "w", "--source", "s", "--hypothesis", "h"],
    "bucket-eval": ["--wcm", "w", "--source", "s", "--hypothesis", "h", "--reference", "r"],
    "filter": ["--wcm", "w", "--tsv", "c", "--min-de", "50", "--kept-prefix", "k",
               "--dropped-prefix", "d"],
}
_CORPUS_COMMANDS = {
    "bleu": ["--hypothesis", "h", "--reference", "r"],
    "vocab-stats": ["--tsv", "c"],
    "build-wcm": ["--tsv", "c", "--out", "o"],
}


@pytest.mark.parametrize("flag", ["--lowercase", "--strip-punct"])
@pytest.mark.parametrize("command", _MATRIX_COMMANDS)
def test_matrix_commands_take_no_tokenizer_flag(capsys, command, flag):
    """The commands that read a matrix tokenize with the matrix's own
    tokenizer, so a tokenizer flag is a usage error, raised before any file
    is opened (none of these exists)."""
    assert main([command, *_MATRIX_COMMANDS[command], flag]) == 1
    assert capsys.readouterr().err.endswith(f"de-qe: error: unrecognized arguments: {flag}\n")


@pytest.mark.parametrize("command", _CORPUS_COMMANDS)
def test_corpus_commands_keep_the_tokenizer_flags(command):
    argv = [command, *_CORPUS_COMMANDS[command], "--lowercase", "--strip-punct"]
    args = cli.build_parser().parse_args(argv)
    assert (args.lowercase, args.strip_punct) == (True, True)


def test_score_report(tmp_path, toy_corpus, toy_wcm, capsys):
    src, tgt = toy_corpus
    rc = main(
        [
            "score",
            "--wcm", str(toy_wcm),
            "--source", str(src),
            "--hypothesis", str(tgt),
            "--quiet",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    lines = _data_lines(out)
    assert len(lines) == 10
    first = lines[0].split("\t")
    assert first[0] == "0"
    assert first[1] == "100.000000"
    assert first[2] == "2" and first[3] == "2"


def test_score_reverse_adds_column(tmp_path, toy_corpus, toy_wcm, capsys):
    src, tgt = toy_corpus
    rc = main(
        [
            "score",
            "--wcm", str(toy_wcm),
            "--source", str(src),
            "--hypothesis", str(tgt),
            "--reverse",
            "--quiet",
        ]
    )
    assert rc == 0
    lines = _data_lines(capsys.readouterr().out)
    assert all(len(line.split("\t")) == 5 for line in lines)


def _score(tmp_path, sources, hypotheses, *flags):
    """Run ``score`` on the given lines with a matrix whose one entry links
    a to x, and return its exit code."""
    save_wcm(make_matrix({("a", "x"): 20}), tmp_path / "ax.wcm")
    write_lines(tmp_path / "src", sources)
    write_lines(tmp_path / "hyp", hypotheses)
    return main(["score", "--wcm", str(tmp_path / "ax.wcm"), "--source", str(tmp_path / "src"),
                 "--hypothesis", str(tmp_path / "hyp"), *flags])


def test_score_rows_order_and_values(tmp_path, capsys):
    assert _score(tmp_path, ["a b", "a a"], ["x q", "x"], "--quiet") == 0
    rows = [line.split("\t") for line in _data_lines(capsys.readouterr().out)]
    assert [row[:2] for row in rows] == [["0", "50.000000"], ["1", "100.000000"]]
    assert all(len(row) == 4 for row in rows)  # no reverse column


def test_score_reverse_column_value(tmp_path, capsys):
    assert _score(tmp_path, ["a"], ["x q"], "--reverse", "--quiet") == 0
    (row,) = _data_lines(capsys.readouterr().out)
    assert row.split("\t")[4] == "50.000000"


def test_score_line_count_mismatch_exit_2(tmp_path, capsys):
    assert _score(tmp_path, ["a", "b"], ["x"], "--quiet") == 2
    err = capsys.readouterr().err
    assert f"line count mismatch: {tmp_path / 'src'} has 2 lines, {tmp_path / 'hyp'} has 1 lines" in err


def test_score_streams_the_rows_before_a_bad_byte(tmp_path, capsys, monkeypatch):
    """``score`` to stdout prints, at every block size the reader takes, the
    rows of the segments before the first line that is not UTF-8, as a read
    of one line at a time does, then exits 2 naming that line; a cut-short
    character just before a line break among them."""
    entries = {("a", "x"): 20, ("b", "y"): 20}
    save_wcm(make_matrix(entries), tmp_path / "ab.wcm")
    paths = [tmp_path / "src", tmp_path / "hyp"]
    argv = ["score", "--wcm", str(tmp_path / "ab.wcm"), "--source", str(paths[0]),
            "--hypothesis", str(paths[1]), "--quiet"]
    rng = random.Random(1702)
    for trial in range(8):
        n = rng.randint(1, 40)
        sides = [
            [" ".join(rng.choices(alphabet, k=rng.randint(0, 5))) for _ in range(n)]
            for alphabet in ("abc", "xyz")
        ]
        bad, at = rng.randrange(2), rng.randrange(n)
        for side, (path, lines) in enumerate(zip(paths, sides)):
            raw = [line.encode() for line in lines]
            if side == bad:
                col = len(raw[at]) if trial % 2 else rng.randint(0, len(raw[at]))
                bad_bytes = rng.choice([b"\xff", b"\xe2\x82", b"\xf0\x9f"])
                raw[at] = raw[at][:col] + bad_bytes + raw[at][col:]
            path.write_bytes(b"".join(line + b"\n" for line in raw))
        with pytest.raises(oracles.OracleEncodingError) as oracle:
            list(oracles.per_line_iter_lines(paths[bad]))
        rows = []
        for index, (src, hyp) in enumerate(zip(*sides)):
            if index == at:
                break
            eligible, evidenced = naive_de_score(entries, set(), src.split(), hyp.split())
            value = 100.0 * evidenced / eligible if eligible else 0.0
            rows.append(f"{index}\t{value:.6f}\t{eligible}\t{evidenced}")
        for size in (1, 2, 3, 5, 65_536):
            monkeypatch.setattr(deqe.corpus, "_BLOCK_BYTES", size)
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert _data_lines(out) == rows, (trial, size)
            assert err == f"de-qe: error: {oracle.value}\n", (trial, size)


def test_score_logs_progress(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(deqe.corpus, "PROGRESS_EVERY", 2)
    assert _score(tmp_path, ["a"] * 5, ["x"] * 5) == 0
    progress = [line for line in capsys.readouterr().err.splitlines() if "scored" in line]
    assert progress == ["de-qe: score: 2 segments scored", "de-qe: score: 4 segments scored"]


def test_score_out_file_and_rerun_identical(tmp_path, toy_corpus, toy_wcm):
    src, tgt = toy_corpus
    out1 = tmp_path / "scores1.tsv"
    out2 = tmp_path / "scores2.tsv"
    for out in (out1, out2):
        rc = main(
            [
                "score",
                "--wcm", str(toy_wcm),
                "--source", str(src),
                "--hypothesis", str(tgt),
                "--out", str(out),
                "--quiet",
            ]
        )
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith("# de-qe score\n")


# ---------------------------------------------------------------------------
# bleu / correlate


def test_bleu_corpus_identity(tmp_path, capsys):
    write_lines(tmp_path / "h", ["the cat sat down", "a b c d"])
    write_lines(tmp_path / "r", ["the cat sat down", "a b c d"])
    rc = main(
        ["bleu", "--hypothesis", str(tmp_path / "h"), "--reference", str(tmp_path / "r")]
    )
    assert rc == 0
    row = _data_lines(capsys.readouterr().out)[0].split("\t")
    assert row[0] == "100.0000"


def test_bleu_sentence_level(tmp_path, capsys):
    write_lines(tmp_path / "h", ["a b c d", "x y"])
    write_lines(tmp_path / "r", ["a b c d", "a b"])
    rc = main(
        [
            "bleu",
            "--hypothesis", str(tmp_path / "h"),
            "--reference", str(tmp_path / "r"),
            "--sentence-level",
        ]
    )
    assert rc == 0
    lines = _data_lines(capsys.readouterr().out)
    assert lines[0] == "0\t100.000000"
    assert lines[1] == "1\t0.000000"


def test_correlate(tmp_path, capsys):
    write_lines(tmp_path / "x", ["1", "2", "3", "4", "5"])
    write_lines(tmp_path / "y", ["2", "1", "4", "3", "5"])
    rc = main(["correlate", "--x", str(tmp_path / "x"), "--y", str(tmp_path / "y")])
    assert rc == 0
    row = _data_lines(capsys.readouterr().out)[0].split("\t")
    assert row[0] == "0.800000"
    assert row[3] == "5"


def test_correlate_constant_exit_2(tmp_path, capsys):
    write_lines(tmp_path / "x", ["1", "1", "1"])
    write_lines(tmp_path / "y", ["2", "1", "4"])
    rc = main(["correlate", "--x", str(tmp_path / "x"), "--y", str(tmp_path / "y")])
    assert rc == 2
    assert "constant" in capsys.readouterr().err


def test_correlate_count_mismatch_exit_2(tmp_path, capsys):
    x, y = tmp_path / "x", tmp_path / "y"
    for n_x, n_y in ((3, 2), (2, 4)):
        write_lines(x, ["1", "2", "3", "4"][:n_x])
        write_lines(y, ["2", "1", "4", "3"][:n_y])
        assert main(["correlate", "--x", str(x), "--y", str(y)]) == 2
        assert capsys.readouterr().err == (
            f"de-qe: error: value count mismatch: {x} has {n_x} values, {y} has {n_y} values\n"
        )


@pytest.mark.parametrize("bad_file", ["x", "y"])
def test_correlate_bad_value_past_the_shorter_file_wins(tmp_path, capsys, bad_file):
    """A bad value in the longer file, just past the shorter one's end, is
    read at that position, so its error wins over the count mismatch."""
    good_file = "y" if bad_file == "x" else "x"
    write_lines(tmp_path / good_file, ["1", "2"])
    write_lines(tmp_path / bad_file, ["2", "1", "nan"])
    rc = main(["correlate", "--x", str(tmp_path / "x"), "--y", str(tmp_path / "y")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"de-qe: error: {tmp_path / bad_file}: line 3: not a finite number: 'nan'\n"
    )


def test_correlate_extreme_finite_values(tmp_path, capsys):
    """Values whose squares overflow a float still correlate."""
    write_lines(tmp_path / "x", ["1e200", "-1e200", "1e200"])
    write_lines(tmp_path / "y", ["1e200", "1e200", "-1e200"])
    rc = main(["correlate", "--x", str(tmp_path / "x"), "--y", str(tmp_path / "y")])
    assert rc == 0
    assert _data_lines(capsys.readouterr().out)[0].split("\t")[0] == "-0.500000"


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_correlate_non_finite_exit_2(tmp_path, capsys, bad):
    write_lines(tmp_path / "x", ["1", bad, "3", "4"])
    write_lines(tmp_path / "y", ["2", "1", "4", "3"])
    rc = main(["correlate", "--x", str(tmp_path / "x"), "--y", str(tmp_path / "y")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'x'}: line 2: not a finite number: '{bad}'" in err


@pytest.mark.parametrize(
    "bleu_rows",
    [
        ["0\t10.0", "2\t30.0", "1\t20.0", "3\t40.0"],  # shuffled
        ["0\t10.0", "1\t20.0", "3\t40.0"],  # one missing
    ],
    ids=["shuffled", "missing"],
)
def test_correlate_report_indices_must_align(tmp_path, capsys, bleu_rows):
    score = tmp_path / "score.tsv"
    bleu = tmp_path / "bleu.tsv"
    write_lines(score, ["# columns: index de eligible evidenced"]
                + [f"{i}\t{v}\t4\t{i}" for i, v in enumerate((0.0, 25.0, 50.0, 75.0))])
    write_lines(bleu, ["# columns: index bleu", *bleu_rows])
    assert main(["correlate", "--x", str(score), "--y", str(bleu)]) == 2
    err = capsys.readouterr().err
    assert str(score) in err and str(bleu) in err


def _bucket_eval_report(tmp_path, toy_wcm):
    write_lines(tmp_path / "bsrc", ["a b", "a c"])
    write_lines(tmp_path / "bhyp", ["x y x y", "x z x z"])
    return [
        "bucket-eval",
        "--wcm", str(toy_wcm),
        "--source", str(tmp_path / "bsrc"),
        "--hypothesis", str(tmp_path / "bhyp"),
        "--reference", str(tmp_path / "bhyp"),
    ]


def _corpus_bleu_report(tmp_path, toy_wcm):
    write_lines(tmp_path / "h", ["the cat sat down", "a b c d"])
    return ["bleu", "--hypothesis", str(tmp_path / "h"), "--reference", str(tmp_path / "h")]


@pytest.mark.parametrize("reader", ["correlate", "histogram"])
@pytest.mark.parametrize(
    "report", [_bucket_eval_report, _corpus_bleu_report], ids=["bucket-eval", "corpus-bleu"]
)
def test_report_that_is_not_per_segment_exit_2(tmp_path, toy_wcm, capsys, reader, report):
    """Only the score and bleu --sentence-level reports carry an index and a
    value per row; the rows of any other report are not misread as one."""
    path = tmp_path / "report.tsv"
    assert main([*report(tmp_path, toy_wcm), "--out", str(path), "--quiet"]) == 0
    args = ["--x", str(path), "--y", str(path)] if reader == "correlate" else ["--scores", str(path)]
    assert main([reader, *args]) == 2
    err = capsys.readouterr().err
    assert f"{path}: line " in err and "not a per-segment report" in err


# ---------------------------------------------------------------------------
# bucket-eval / histogram / filter


def test_bucket_eval_report(tmp_path, toy_wcm, capsys):
    # hypotheses identical to references and long enough for 4-gram BLEU
    write_lines(tmp_path / "bsrc", ["a b", "a c"])
    write_lines(tmp_path / "bhyp", ["x y x y", "x z x z"])
    rc = main(
        [
            "bucket-eval",
            "--wcm", str(toy_wcm),
            "--source", str(tmp_path / "bsrc"),
            "--hypothesis", str(tmp_path / "bhyp"),
            "--reference", str(tmp_path / "bhyp"),
            "--buckets", "<50,>=50",
            "--quiet",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    lines = _data_lines(out)
    assert lines[0].split("\t") == ["<50", "0", "NA"]
    assert lines[1].split("\t") == [">=50", "2", "100.00"]
    assert "# total_segments=2" in out


@pytest.mark.parametrize("command", ["score", "bleu", "bleu --sentence-level", "bucket-eval"])
def test_empty_test_files_exit_2(tmp_path, toy_wcm, capsys, command):
    """Every test-time command treats empty test files as a data error that
    names them, and writes no report: none to stdout, and an existing --out
    file is left as it was."""
    src, hyp, ref = (tmp_path / f"empty.{name}" for name in ("src", "hyp", "ref"))
    for path in (src, hyp, ref):
        write_lines(path, [])
    args = {
        "score": ["score", "--wcm", toy_wcm, "--source", src, "--hypothesis", hyp],
        "bleu": ["bleu", "--hypothesis", hyp, "--reference", ref],
        "bleu --sentence-level": [
            "bleu", "--hypothesis", hyp, "--reference", ref, "--sentence-level"
        ],
        "bucket-eval": [
            "bucket-eval", "--wcm", toy_wcm, "--source", src, "--hypothesis", hyp,
            "--reference", ref,
        ],
    }[command]
    args = [str(arg) for arg in args]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty corpus" in captured.err
    # the message names each test file the command read
    assert all(arg in captured.err for arg in args if "empty." in arg)
    out = tmp_path / "report.tsv"
    out.write_bytes(b"old report\n")
    before = sorted(tmp_path.iterdir())
    assert main([*args, "--out", str(out), "--quiet"]) == 2
    assert "empty corpus" in capsys.readouterr().err
    assert out.read_bytes() == b"old report\n"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "command", ["bleu --sentence-level", "bucket-eval", "vocab-stats", "score", "correlate"]
)
def test_misaligned_files_leave_out_unchanged(tmp_path, toy_wcm, capsys, command):
    """The mismatch shows only at the end of the files, after rows have been
    streamed or counted; the report file is still left as it was."""
    write_lines(tmp_path / "msrc", ["a b"] * 3)
    write_lines(tmp_path / "mhyp", ["x y"] * 3)
    write_lines(tmp_path / "mref", ["x y"] * 2)
    write_lines(tmp_path / "x.tsv", ["# columns: index de", "0\t10", "1\t20", "2\t30"])
    write_lines(tmp_path / "y.tsv", ["# columns: index bleu", "0\t1", "1\t2", "3\t3"])
    out = tmp_path / "report.tsv"
    out.write_bytes(b"old report\n")
    before = sorted(tmp_path.iterdir())
    d, wcm = str(tmp_path), str(toy_wcm)
    files = ["--hypothesis", f"{d}/mhyp", "--reference", f"{d}/mref"]
    args, expected = {
        "bleu --sentence-level": (["bleu", *files, "--sentence-level"], "line count mismatch"),
        "bucket-eval": (["bucket-eval", "--wcm", wcm, "--source", f"{d}/msrc", *files],
                        "line count mismatch"),
        "vocab-stats": (["vocab-stats", "--source", f"{d}/msrc", "--target", f"{d}/mref"],
                        "line count mismatch"),
        "score": (["score", "--wcm", wcm, "--source", f"{d}/msrc", "--hypothesis", f"{d}/mref"],
                  "line count mismatch"),
        "correlate": (["correlate", "--x", f"{d}/x.tsv", "--y", f"{d}/y.tsv"], "index mismatch"),
    }[command]
    assert main([*args, "--out", str(out), "--quiet"]) == 2
    assert expected in capsys.readouterr().err
    assert out.read_bytes() == b"old report\n"
    assert sorted(tmp_path.iterdir()) == before
    assert not list(tmp_path.glob("*.tmp"))


def test_bucket_eval_line_mismatch_exit_2(tmp_path, toy_corpus, toy_wcm):
    src, tgt = toy_corpus
    write_lines(tmp_path / "short", ["only one"])
    rc = main(
        [
            "bucket-eval",
            "--wcm", str(toy_wcm),
            "--source", str(src),
            "--hypothesis", str(tgt),
            "--reference", str(tmp_path / "short"),
        ]
    )
    assert rc == 2


def test_histogram_from_score_report(tmp_path, toy_corpus, toy_wcm, capsys):
    src, tgt = toy_corpus
    scores = tmp_path / "scores.tsv"
    main(
        [
            "score",
            "--wcm", str(toy_wcm),
            "--source", str(src),
            "--hypothesis", str(tgt),
            "--out", str(scores),
            "--quiet",
        ]
    )
    chart = tmp_path / "chart.svg"
    rc = main(
        ["histogram", "--scores", str(scores), "--bin-width", "10", "--chart", str(chart)]
    )
    assert rc == 0
    lines = _data_lines(capsys.readouterr().out)
    assert len(lines) == 10
    counts = [int(line.split("\t")[1]) for line in lines]
    assert sum(counts) == 10
    assert counts[-1] == 10  # all toy segments score 100
    assert "<svg" in chart.read_text()


def test_histogram_from_bare_reals(tmp_path, capsys):
    write_lines(tmp_path / "vals", ["0", "50", "100"])
    rc = main(["histogram", "--scores", str(tmp_path / "vals"), "--bin-width", "50"])
    assert rc == 0
    lines = _data_lines(capsys.readouterr().out)
    assert lines == ["0\t1", "50\t2"]


def test_histogram_bad_value_exit_2(tmp_path, capsys):
    write_lines(tmp_path / "vals", ["0", "oops"])
    assert main(["histogram", "--scores", str(tmp_path / "vals")]) == 2
    write_lines(tmp_path / "vals2", ["0", "120"])
    assert main(["histogram", "--scores", str(tmp_path / "vals2")]) == 2


def test_histogram_out_of_range_value_echoed_as_read(tmp_path, capsys):
    path = tmp_path / "vals"
    write_lines(path, ["0", "100.0000001"])
    assert main(["histogram", "--scores", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"de-qe: error: {path}: line 2: score 100.0000001 outside [0, 100]\n"
    )


def test_filter_outputs(tmp_path, toy_wcm, capsys):
    src = tmp_path / "mixed.src"
    tgt = tmp_path / "mixed.tgt"
    write_lines(src, ["a b", "a c", "nope at all"])
    write_lines(tgt, ["x y", "x z", "q r s"])
    rc = main(
        [
            "filter",
            "--wcm", str(toy_wcm),
            "--source", str(src),
            "--target", str(tgt),
            "--min-de", "50",
            "--kept-prefix", str(tmp_path / "kept"),
            "--dropped-prefix", str(tmp_path / "dropped"),
            "--quiet",
        ]
    )
    assert rc == 0
    assert (tmp_path / "kept.source").read_text().splitlines() == ["a b", "a c"]
    assert (tmp_path / "kept.target").read_text().splitlines() == ["x y", "x z"]
    assert (tmp_path / "dropped.source").read_text().splitlines() == ["nope at all"]
    assert (tmp_path / "dropped.target").read_text().splitlines() == ["q r s"]
    out = capsys.readouterr().out
    stats = dict(
        line.split("\t")[:2] for line in _data_lines(out) if not line.startswith("bin")
    )
    assert stats == {"total": "3", "kept": "2", "dropped": "1", "degenerate": "0"}
    bin_rows = [line for line in _data_lines(out) if line.startswith("bin")]
    assert sum(int(r.split("\t")[2]) for r in bin_rows) == 3


def test_filter_usage_error_leaves_outputs_untouched(tmp_path, toy_wcm, capsys):
    for name in ("kept.source", "kept.target", "dropped.source", "dropped.target"):
        (tmp_path / name).write_text(f"earlier {name}\n")
    rc = main(
        [
            "filter",
            "--wcm", str(toy_wcm),
            "--min-de", "50",
            "--kept-prefix", str(tmp_path / "kept"),
            "--dropped-prefix", str(tmp_path / "dropped"),
        ]
    )
    assert rc == 1
    assert "--tsv" in capsys.readouterr().err
    for name in ("kept.source", "kept.target", "dropped.source", "dropped.target"):
        assert (tmp_path / name).read_text() == f"earlier {name}\n"


def test_failed_filter_leaves_earlier_outputs_untouched(tmp_path, toy_wcm):
    outputs = ("kept.source", "kept.target", "dropped.source", "dropped.target", "filter.tsv")
    for name in outputs:
        (tmp_path / name).write_text(f"earlier {name}\n")
    write_lines(tmp_path / "mis.src", ["a b", "a c", "nope at all"])
    write_lines(tmp_path / "mis.tgt", ["x y"])
    before = sorted(p.name for p in tmp_path.iterdir())
    rc = main(
        [
            "filter",
            "--wcm", str(toy_wcm),
            "--source", str(tmp_path / "mis.src"),
            "--target", str(tmp_path / "mis.tgt"),
            "--min-de", "50",
            "--kept-prefix", str(tmp_path / "kept"),
            "--dropped-prefix", str(tmp_path / "dropped"),
            "--out", str(tmp_path / "filter.tsv"),
            "--quiet",
        ]
    )
    assert rc == 2
    for name in outputs:
        assert (tmp_path / name).read_bytes() == f"earlier {name}\n".encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_failed_chart_leaves_earlier_report_untouched(tmp_path):
    write_lines(tmp_path / "v.txt", ["10", "20"])
    (tmp_path / "h.tsv").write_text("earlier report\n")
    rc = main(
        [
            "histogram",
            "--scores", str(tmp_path / "v.txt"),
            "--out", str(tmp_path / "h.tsv"),
            "--chart", str(tmp_path / "no" / "c.svg"),
        ]
    )
    assert rc == 2
    assert (tmp_path / "h.tsv").read_text() == "earlier report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.tsv", "v.txt"]


def test_chart_draws_at_most_one_bin_per_pixel(tmp_path, capsys):
    """--chart refuses more bins than its 560-pixel plot is wide, before any
    file is opened (the scores file does not exist yet), and draws 500."""
    scores, chart = tmp_path / "v.txt", tmp_path / "c.svg"
    argv = ["histogram", "--scores", str(scores), "--chart", str(chart), "--quiet"]
    assert main([*argv, "--bin-width", "0.1"]) == 1
    assert capsys.readouterr().err.endswith(
        "de-qe: error: --chart draws at most 560 bins, one per pixel, "
        "and --bin-width 0.1 makes 1000\n"
    )
    assert list(tmp_path.iterdir()) == []
    write_lines(scores, ["10", "20", "100"])
    assert main([*argv, "--bin-width", "0.2", "--out", str(tmp_path / "h.tsv")]) == 0
    assert chart.read_text().count("<rect") == 500 + 1  # bars and background
    # without --chart, the finer width is only a report
    assert main(["histogram", "--scores", str(scores), "--bin-width", "0.1", "--quiet"]) == 0


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["histogram", "--scores", "{d}/v.txt", "--out", "{d}/h", "--chart", "{d}/h"],
         "--out and --chart"),
        (["filter", "--out", "{d}/./k.source", "--kept-prefix", "{d}/k", "--dropped-prefix", "{d}/d"],
         "--out and --kept-prefix"),
        (["filter", "--kept-prefix", "{d}/k", "--dropped-prefix", "{d}/k"],
         "--kept-prefix and --dropped-prefix"),
    ],
    ids=["histogram-out-chart", "filter-out-kept", "filter-kept-dropped"],
)
def test_outputs_naming_one_file_exit_1(tmp_path, toy_wcm, capsys, argv, flags):
    """Two outputs would share one temporary file; the command is refused
    before any file is opened."""
    write_lines(tmp_path / "v.txt", ["10", "20"])
    write_lines(tmp_path / "c.src", ["a b"])
    write_lines(tmp_path / "c.tgt", ["x y"])
    for name in ("h", "k.source", "k.target", "d.source", "d.target"):
        (tmp_path / name).write_text(f"earlier {name}\n")
    if argv[0] == "filter":
        argv += ["--wcm", str(toy_wcm), "--source", "{d}/c.src", "--target", "{d}/c.tgt",
                 "--min-de", "50"]
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main([arg.format(d=tmp_path) for arg in argv]) == 1
    assert f"de-qe: error: {flags} name the same file: " in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["vocab-stats", "--tsv", "{d}/c.tsv", "--out", "{d}/c.tsv"], "--tsv and --out"),
        (["build-wcm", "--source", "{d}/s", "--target", "{d}/h", "--out", "{d}/./h"],
         "--target and --out"),
        (["score", "--wcm", "{w}", "--source", "{d}/s", "--hypothesis", "{d}/h", "--out", "{d}/s"],
         "--source and --out"),
        (["bleu", "--hypothesis", "{d}/h", "--reference", "{d}/r", "--out", "{d}/r"],
         "--reference and --out"),
        (["correlate", "--x", "{d}/v", "--y", "{d}/v", "--out", "{d}/v"], "--y and --out"),
        (["bucket-eval", "--wcm", "{w}", "--source", "{d}/s", "--hypothesis", "{d}/h",
          "--reference", "{d}/r", "--out", "{w}"], "--wcm and --out"),
        (["histogram", "--scores", "{d}/v", "--chart", "{d}/v"], "--scores and --chart"),
        (["filter", "--wcm", "{w}", "--source", "{d}/k.source", "--target", "{d}/h",
          "--min-de", "50", "--kept-prefix", "{d}/k", "--dropped-prefix", "{d}/x"],
         "--source and --kept-prefix"),
    ],
    ids=["vocab-stats", "build-wcm", "score", "bleu", "correlate", "bucket-eval", "histogram",
         "filter"],
)
def test_output_naming_an_input_exit_1(tmp_path, toy_wcm, capsys, argv, flags):
    """Writing an output that names an input would replace the input; the
    command is refused before any file is opened."""
    for name in ("s", "h", "r", "k.source"):
        write_lines(tmp_path / name, ["a b", "x y", "a c"])
    write_lines(tmp_path / "v", ["10", "20", "35"])
    write_lines(tmp_path / "c.tsv", ["a b\tx y"])

    def digests():
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}

    before = digests()
    assert main([arg.format(d=tmp_path, w=toy_wcm) for arg in argv]) == 1
    assert f"de-qe: error: {flags} name the same file: " in capsys.readouterr().err
    assert digests() == before
    assert not list(tmp_path.glob("*.tmp"))


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_every_path_flag_is_registered():
    """A flag that takes a plain string names a file, and only a flag whose
    table entry says which file (one the command reads, or the ones it
    writes) is held to the same-file check; no other flag names one."""
    subparsers = _subparsers(cli.build_parser())
    for name, (_, _, flags) in cli._SUBCOMMANDS.items():
        names = {flag: files for flag, files, _ in flags}
        for action in subparsers[name]._actions[2:]:  # after -h and --quiet
            plain = (
                isinstance(action, argparse._StoreAction)
                and action.type is None
                and action.choices is None
            )
            assert plain == (names[action.option_strings[0]] is not None), (name, action.dest)


@pytest.mark.parametrize("name", cli._SUBCOMMANDS)
def test_a_run_builds_only_its_own_flags(monkeypatch, name):
    """The parser a run builds gives `de-qe -h`, and the named subcommand's
    help and usage, as the parser with every flag does; the other
    subcommands get no flag but -h."""
    monkeypatch.setenv("COLUMNS", "80")
    own, every = cli.build_parser(name), cli.build_parser()
    assert own.format_help() == every.format_help()
    own_subs, every_subs = _subparsers(own), _subparsers(every)
    assert own_subs.keys() == every_subs.keys()
    for other, sub in own_subs.items():
        if other == name:
            texts = sub.format_help(), sub.format_usage()
            assert texts == (every_subs[name].format_help(), every_subs[name].format_usage())
        else:
            assert [action.dest for action in sub._actions] == ["help"]


def test_cli_import_loads_no_pool_or_tempfile_modules():
    """Start-up cost: only a multi-worker build needs the process pool, and
    only a build the ``array`` extension module (it costs every command
    memory). ``-S`` keeps ``site``, which can import ``tempfile`` itself,
    out."""
    src_dir = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        "import sys, deqe.cli; "
        "print(*(m for m in ('multiprocessing', 'concurrent.futures', 'tempfile', 'array')"
        " if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src_dir},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.split() == []


@pytest.mark.parametrize(
    "command",
    [
        ["--version"],
        ["correlate", "--x", "{d}/x", "--y", "{d}/y", "--out", "{d}/out"],
        ["histogram", "--scores", "{d}/x", "--out", "{d}/out"],
        ["bleu", "--hypothesis", "{d}/x", "--reference", "{d}/y", "--out", "{d}/out"],
    ],
    ids=lambda command: command[0].lstrip("-"),
)
def test_cold_start_imports_only_what_the_command_runs(tmp_path, command):
    """Start-up cost, in a fresh interpreter: no command here loads
    ``dataclasses`` (which pulls in ``inspect`` and ``ast``), ``logging``
    (none of them logs) or the WCM module, ``correlate`` and ``bleu`` load
    neither scoring nor analysis, and ``histogram`` loads neither metrics
    nor scoring."""
    write_lines(tmp_path / "x", ["10", "20", "35"])
    write_lines(tmp_path / "y", ["1", "3", "2"])
    unwanted = {"dataclasses", "deqe.wcm", "logging"}
    if command[0] in ("correlate", "bleu"):
        unwanted |= {"deqe.scoring", "deqe.analysis"}
    if command[0] == "histogram":
        unwanted |= {"deqe.metrics", "deqe.scoring"}
    code = (
        "import sys; from deqe.cli import main; rc = main(sys.argv[1:]); "
        "print('loaded', rc, *sorted(sys.modules))"
    )
    argv = [arg.format(d=tmp_path) for arg in command]
    src_dir = os.path.dirname(os.path.dirname(cli.__file__))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": src_dir},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    _, rc, *loaded = result.stdout.splitlines()[-1].split()
    assert rc == "0", result.stderr
    assert unwanted.isdisjoint(loaded)


def test_parser_spells_out_library_defaults():
    from deqe.analysis import DEFAULT_BUCKETS

    assert cli._bucket_list(cli._DEFAULT_BUCKETS) == list(DEFAULT_BUCKETS)
    assert cli._COUNT_MODES == deqe.wcm.COUNT_MODES


def _echoed_settings(text):
    return dict(line[2:].split("=", 1) for line in text.splitlines() if line.startswith("# ") and "=" in line)


def test_report_header_floats_reproduce_the_run(tmp_path, toy_wcm):
    # "a q r" -> "y" has 1 of 3 eligible tokens evidenced: DE 100/3, which
    # --min-de 33.33334 drops, and 33.3333 (its six-digit echo) would keep.
    src, tgt = tmp_path / "f.src", tmp_path / "f.tgt"
    write_lines(src, ["a q r", "a b"])
    write_lines(tgt, ["y", "x y"])
    out = tmp_path / "report.tsv"

    def run(*argv):
        assert main([*argv, "--out", str(out), "--quiet"]) == 0
        return out.read_text()

    def filter_report(min_de, bin_width):
        return run(
            "filter", "--wcm", str(toy_wcm), "--source", str(src), "--target", str(tgt),
            "--min-de", min_de, "--bin-width", bin_width,
            "--kept-prefix", str(tmp_path / "kept"), "--dropped-prefix", str(tmp_path / "dropped"),
        )

    text = filter_report("33.33334", str(100 / 3))
    echoed = _echoed_settings(text)
    assert echoed["min_de"] == "33.33334"
    assert echoed["bin_width"] == "33.333333333333336"
    assert "kept\t1" in text and "dropped\t1" in text
    assert filter_report(echoed["min_de"], echoed["bin_width"]) == text

    def bucket_report(buckets):
        return run(
            "bucket-eval", "--wcm", str(toy_wcm), "--source", str(src),
            "--hypothesis", str(tgt), "--reference", str(tgt), "--buckets", buckets,
        )

    text = bucket_report("<33.33334,>=33.33334")
    echoed = _echoed_settings(text)
    assert echoed["buckets"] == "<33.33334,>=33.33334"
    assert _data_lines(text)[0].startswith("<33.33334\t1\t")
    assert bucket_report(echoed["buckets"]) == text
    # a threshold that :g writes exactly keeps its short form
    assert _echoed_settings(bucket_report("<20,>=50.5"))["buckets"] == "<20,>=50.5"


def test_report_header_excludes_execution_knobs(tmp_path, toy_corpus, toy_wcm):
    src, tgt = toy_corpus
    out = tmp_path / "s.tsv"
    main(
        [
            "score",
            "--wcm", str(toy_wcm),
            "--source", str(src),
            "--hypothesis", str(tgt),
            "--out", str(out),
            "--quiet",
        ]
    )
    header = [l for l in out.read_text().splitlines() if l.startswith("#")]
    assert not any("threads" in line or "quiet" in line for line in header)
    assert any("lowercase=false" in line for line in header)


# ---------------------------------------------------------------------------
# logging set-up


def test_main_leaves_library_logging_alone(tmp_path, toy_corpus, capsys, caplog):
    logger = logging.getLogger("deqe")
    before = (logger.level, list(logger.handlers), logger.propagate)
    src, tgt = toy_corpus
    rc = main(["vocab-stats", "--source", str(src), "--target", str(tgt),
               "--out", str(tmp_path / "v.tsv")])
    assert rc == 0
    assert "de-qe: vocab-stats: 10 segments read" in capsys.readouterr().err
    assert (logger.level, list(logger.handlers), logger.propagate) == before
    # a library warning after main() still reaches the root logger
    pairs = [(["a"] * 1001, ["x"])]
    sv = build_vocabulary([p[0] for p in pairs], "source")
    tv = build_vocabulary([p[1] for p in pairs], "target")
    with caplog.at_level(logging.WARNING):
        build_wcm(pairs, sv, tv, WcmConfig(1, 10**9, "binary"))
    assert any("very long" in rec.getMessage() for rec in caplog.records)
