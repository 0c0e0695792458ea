"""The benchmark scripts under bench/ are not run by this suite, so a
package name they import, a CLI flag they pass or a keyword they call with
could be deleted or renamed without any test failing. This checks that
every ``from deqe... import name`` in their source still resolves, that
every command line ``bench/workloads.py`` builds still parses, and that the
library calls ``bench/stage.py`` and ``bench/trace_run.py`` make still bind
to their signatures. It imports ``bench/workloads.py`` (stdlib only) and
reads the rest of bench/ as text."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from deqe import cli
from deqe.analysis import bucket_eval, iter_filter
from deqe.corpus import (
    SegmentPair,
    build_parallel_vocabularies,
    build_vocabulary,
    load_parallel_corpus,
    tokenize,
)
from deqe.metrics import corpus_bleu, sentence_bleu
from deqe.scoring import de_score, reverse_de_score
from deqe.wcm import WcmConfig, build_wcm, load_wcm, save_wcm

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _package_imports():
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                if node.module == "deqe" or node.module.startswith("deqe."):
                    for alias in node.names:
                        yield path.name, node.module, alias.name


def test_bench_imports_resolve():
    imports = list(_package_imports())
    assert imports, f"no package imports found under {BENCH}"
    missing = [
        f"{script}: from {module} import {name}"
        for script, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def _workloads_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _parse(*argv: object) -> None:
    # Bench runs each command with --quiet appended, as its CLI wrapper does.
    cli.build_parser().parse_args([*map(str, argv), "--quiet"])


def test_bench_command_lines_parse(tmp_path, monkeypatch):
    workloads = _workloads_module(monkeypatch)
    inputs = workloads.Inputs(*(tmp_path / f for f in ("a.src", "a.tgt", "t.src", "t.ref", "t.hyp")))
    for workload in workloads.WORKLOADS.values():
        commands = workloads.command_args(workload, inputs, tmp_path / "x.wcm", tmp_path)
        assert set(workload.sequence) <= set(commands)
        for subcommand, args in commands.items():
            _parse(subcommand, *args)
    _parse("build-wcm", "--source", inputs.train_source, "--target", inputs.train_target,
           "--out", tmp_path / "t1.wcm", "--threads", 1)


def test_stage_build_wcm_call_binds():
    # bench/stage.py: build_wcm(pairs, source_vocab, target_vocab, config, threads=, progress_every=)
    inspect.signature(build_wcm).bind(None, None, None, None, threads=1, progress_every=0)


@pytest.mark.parametrize(
    "function,n_args",
    [
        (bucket_eval, 3),  # bucket_eval(forward, hyps, refs)
        (corpus_bleu, 2),  # corpus_bleu(hyps, refs)
        (build_parallel_vocabularies, 1),  # build_parallel_vocabularies(pairs)
        (iter_filter, 3),  # iter_filter(matrix, pairs, min_de)
        (tokenize, 1),  # tokenize(p.source)
        (load_parallel_corpus, 2),  # load_parallel_corpus(source, target)
        (de_score, 3),  # de_score(matrix, s, h)
        (reverse_de_score, 3),  # reverse_de_score(matrix, s, h)
        (sentence_bleu, 2),  # sentence_bleu(h, r)
        (save_wcm, 2),  # save_wcm(matrix, out)
        (load_wcm, 1),  # load_wcm(wcm)
        (build_vocabulary, 2),  # build_vocabulary(segments, "source")
    ],
    ids=lambda value: getattr(value, "__name__", str(value)),
)
def test_trace_run_calls_bind(function, n_args):
    # bench/trace_run.py and bench/stage.py make these calls with positional
    # arguments only.
    inspect.signature(function).bind(*[None] * n_args)


def test_parallel_vocabularies_answer_trace_run_calls():
    """What bench/trace_run.py reads of the vocabularies
    ``build_parallel_vocabularies`` returns: ``len(vocab)`` and
    ``for _, _, f in vocab.items()``."""
    pairs = [SegmentPair(0, "the a the", "le x"), SegmentPair(1, "b the", "y le le")]
    source_vocab, target_vocab, segments = build_parallel_vocabularies(pairs)
    assert segments == 2
    assert (len(source_vocab), len(target_vocab)) == (3, 3)
    # (token, id, frequency), the id being the first-occurrence rank
    assert list(source_vocab.items()) == [("the", 0, 3), ("a", 1, 1), ("b", 2, 1)]
    assert list(target_vocab.items()) == [("le", 0, 3), ("x", 1, 1), ("y", 2, 1)]


@pytest.mark.parametrize("origin", ["build_wcm", "load_wcm"])
def test_matrix_answers_bench_calls(tmp_path, origin):
    """The matrix and vocabulary calls bench/checks.py and bench/trace_run.py
    make, on a matrix as bench/stage.py builds it and as run.py loads it."""
    pairs = [(["the", "a"], ["le", "x"]), (["the", "b"], ["le", "y"]), (["the", "a"], ["le", "x"])]
    source_vocab = build_vocabulary((s for s, _ in pairs), "source")
    target_vocab = build_vocabulary((t for _, t in pairs), "target")
    # trace_run.py: `for _, _, f in vocab.items()`
    assert list(source_vocab.items()) == [("the", 0, 3), ("a", 1, 2), ("b", 2, 1)]
    matrix = build_wcm(
        pairs, source_vocab, target_vocab, WcmConfig(1, 2), threads=1, progress_every=0
    )
    if origin == "load_wcm":
        save_wcm(matrix, tmp_path / "m.wcm")
        matrix = load_wcm(tmp_path / "m.wcm")
    # checks.py compares the exclusions with sets of str
    assert matrix.excluded_source_tokens() == {"the"}
    assert matrix.excluded_target_tokens() == {"le"}
    # checks.py: `for s, t, c in matrix.entries()`; stage.py: `matrix.n_entries`
    entries = list(matrix.entries())
    assert all(type(s) is str and type(t) is str and type(c) is int for s, t, c in entries)
    assert sorted(entries) == [("a", "x", 2), ("b", "y", 1)]
    assert matrix.n_entries == 2
    # trace_run.py times `matrix.transposed()`
    assert sorted(matrix.transposed().entries()) == [("x", "a", 2), ("y", "b", 1)]
