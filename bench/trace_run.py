"""Traced run: per-layer metrics, grouped by package module.

Spans (name, start, end, parent) are recorded from the benchmark's own code
around each call into the package's public functions, kept in memory and
written to ``spans.json`` at the end with each layer's self time. The
counting stages run in child processes (stage.py) so that each one's peak
RSS is its own; their spans join the parent's on the shared monotonic clock.
The CLI is driven only in subprocesses, so its process-wide logging set-up
never reaches this process.

In-process passes alternate untraced and traced until ``--seconds`` is
used; the traced metrics are medians over the traced passes, and the
difference of the two kinds' median pass time is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

import checks
from harness import Cli, Tally, run_timed
from workloads import Inputs, Workload, command_args, generate

from deqe.analysis import bucket_eval, iter_filter
from deqe.corpus import build_parallel_vocabularies, load_parallel_corpus, tokenize
from deqe.metrics import corpus_bleu, sentence_bleu
from deqe.scoring import de_score, reverse_de_score
from deqe.wcm import load_wcm, save_wcm

STAGE_SCRIPT = Path(__file__).with_name("stage.py")
# Every subcommand a per-layer figure refers to, run once each through the CLI.
CLI_STEPS = ("vocab-stats", "build-wcm", "score", "bucket-eval", "bleu", "filter")
STARTUP_REPEATS = 3


class Tracer:
    """In-memory spans; a disabled tracer records nothing."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.enabled = True
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = self.record(name, time.perf_counter(), None)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index]["end"] = time.perf_counter()

    def record(self, name: str, start: float, end: float | None) -> int:
        """Add a span under the innermost open one; returns its index."""
        parent = self._open[-1] if self._open else None
        self.spans.append({"name": name, "start": start, "end": end, "parent": parent})
        return len(self.spans) - 1

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def self_time_by_layer(self) -> dict[str, float]:
        """Each span's duration less its direct children's, summed by layer
        (the name's first component)."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        layers: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            layer = s["name"].split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + t
        return layers


def _stage(tally: Tally, tracer: Tracer, name: str, inputs: Inputs, env, work: Path, threads: int,
           min_cooc: int, *save) -> tuple[float, float, int]:
    """Run stage.py; returns (build_wcm seconds, peak RSS in MB, entries)."""
    argv = [sys.executable, STAGE_SCRIPT, inputs.train_source, inputs.train_target, threads, min_cooc, *save]
    with open(work / "stage.json", "w+", encoding="utf-8") as fh, tracer.span(f"{name}.process"):
        result = tally.command(name, run_timed([str(a) for a in argv], env, work, stdout=fh))
        if result.returncode != 0:
            raise RuntimeError(f"{name}: {result.stderr.strip()}")
        fh.seek(0)
        report = json.loads(fh.read())
        tracer.record(name, report["start"], report["end"])
    return report["end"] - report["start"], result.rss_mb, report["entries"]


def _layer_pass(tracer: Tracer, workload: Workload, inputs: Inputs, wcm: Path, out: Path) -> dict:
    """One pass over every in-process layer; returns its counts."""
    span = tracer.span
    with span("pass"):
        with span("corpus.vocab_pass"):
            source_vocab, target_vocab, segments = build_parallel_vocabularies(
                load_parallel_corpus(inputs.train_source, inputs.train_target)
            )
        with span("corpus.read_tokenize"):
            pairs = [
                (tokenize(p.source), tokenize(p.target))
                for p in load_parallel_corpus(inputs.train_source, inputs.train_target)
            ]
        with span("wcm.load"):
            matrix = load_wcm(wcm)
        with span("wcm.transpose"):
            transposed = matrix.transposed()
        with span("wcm.save"):
            save_wcm(matrix, out / "traced.wcm")
        with span("corpus.read_tokenize_test"):
            test = [
                (tokenize(p.source), tokenize(p.target))
                for p in load_parallel_corpus(inputs.test_source, inputs.test_hypothesis)
            ]
            refs = [tokenize(p.target) for p in load_parallel_corpus(inputs.test_source, inputs.test_reference)]
            hyps = [h for _, h in test]
        with span("scoring.forward"):
            forward = [de_score(matrix, s, h) for s, h in test]
        with span("scoring.reverse"):
            _ = [reverse_de_score(matrix, s, h) for s, h in test]
        with span("scoring.forward_on_transpose"):
            _ = [de_score(transposed, h, s) for s, h in test]
        with span("metrics.corpus_bleu"):
            corpus_bleu(hyps, refs)
        with span("metrics.sentence_bleu"):
            _ = [sentence_bleu(h, r) for h, r in zip(hyps, refs)]
        with span("analysis.bucket_eval"):
            buckets = bucket_eval(forward, hyps, refs)
        with span("analysis.filter"):
            kept = sum(
                d.kept
                for d in iter_filter(
                    matrix, load_parallel_corpus(inputs.train_source, inputs.train_target), workload.min_de
                )
            )
    vocab_freqs = [f for vocab in (source_vocab, target_vocab) for _, _, f in vocab.items()]
    return {
        "corpus.segments": (segments, "count"),
        "corpus.tokens": (sum(len(s) + len(t) for s, t in pairs), "count"),
        "corpus.source_types": (len(source_vocab), "count"),
        "corpus.target_types": (len(target_vocab), "count"),
        "corpus.hapax_share": (sum(1 for f in vocab_freqs if f == 1) / len(vocab_freqs), "ratio"),
        "wcm.file_bytes": ((out / "traced.wcm").stat().st_size, "bytes"),
        "scoring.eligible_tokens": (sum(s.eligible for s in forward), "count"),
        "scoring.evidenced_tokens": (sum(s.evidenced for s in forward), "count"),
        "scoring.degenerate": (sum(s.degenerate for s in forward), "count"),
        "analysis.bucket_member_segments": (sum(r.segment_count for r in buckets.rows), "count"),
        "analysis.filter_kept": (kept, "count"),
        "analysis.filter_dropped": (segments - kept, "count"),
    }


def run_traced(workload: Workload, seed: int, seconds: int, root: Path, work: Path) -> dict:
    tally = Tally()
    cli = Cli(root, work)
    tracer = Tracer()
    out = work / "out"
    out.mkdir()
    inputs = generate(workload, seed, work / "inputs", with_test_set=True)
    usable = len(os.sched_getaffinity(0))

    t1_s, t1_rss, entries = _stage(
        tally, tracer, "wcm.count_prune_t1", inputs, cli.env, work, 1, checks.MIN_COOC, out / "t1.wcm"
    )
    tn_s, tn_rss, _ = _stage(tally, tracer, "wcm.count_prune_tN", inputs, cli.env, work, usable, checks.MIN_COOC)
    # With no pruning the entry count is the number of distinct pairs the
    # build counts; taken in a throwaway tracer, outside every kept span.
    _, _, pairs_preprune = _stage(tally, Tracer(), "wcm.preprune", inputs, cli.env, work, 1, 1)

    for _ in range(STARTUP_REPEATS):
        with tracer.span("cli.startup"):
            tally.command("--version", cli.run("--version"))
    args_of = command_args(workload, inputs, out / "cli.wcm", out)
    for name in CLI_STEPS:
        with tracer.span(f"cli.{name.replace('-', '_')}"):
            tally.command(name, cli.run(name, *args_of[name]))
    checks.verify(tally, workload, inputs, out, out / "cli.wcm", seed)

    _layer_pass(Tracer(), workload, inputs, out / "t1.wcm", out)  # warm-up, discarded
    pass_walls: dict[bool, list[float]] = {False: [], True: []}
    counts: dict = {}
    start = time.perf_counter()
    while len(pass_walls[True]) < 2 or time.perf_counter() - start < seconds:
        traced = len(pass_walls[False]) > len(pass_walls[True])
        tracer.enabled = traced
        began = time.perf_counter()
        counts = _layer_pass(tracer, workload, inputs, out / "t1.wcm", out)
        pass_walls[traced].append(time.perf_counter() - began)
    tracer.enabled = True

    med = tracer.median
    startup = med("cli.startup")
    metrics = dict(counts)
    metrics.update({
        "corpus.vocab_pass_s": (med("corpus.vocab_pass"), "s"),
        "corpus.read_tokenize_s": (med("corpus.read_tokenize"), "s"),
        "wcm.count_prune_t1_s": (t1_s, "s"),
        "wcm.count_prune_tN_s": (tn_s, "s"),
        "wcm.count_prune_t1_rss_mb": (t1_rss, "MB"),
        "wcm.count_prune_tN_rss_mb": (tn_rss, "MB"),
        "wcm.pairs_preprune": (pairs_preprune, "count"),
        "wcm.entries": (entries, "count"),
        "wcm.survival_ratio": (entries / pairs_preprune, "ratio"),
        "wcm.save_s": (med("wcm.save"), "s"),
        "wcm.load_s": (med("wcm.load"), "s"),
        "wcm.transpose_s": (med("wcm.transpose"), "s"),
        "scoring.forward_s": (med("scoring.forward"), "s"),
        "scoring.reverse_s": (med("scoring.reverse"), "s"),
        "scoring.forward_on_transpose_s": (med("scoring.forward_on_transpose"), "s"),
        "metrics.corpus_bleu_s": (med("metrics.corpus_bleu"), "s"),
        "metrics.sentence_bleu_s": (med("metrics.sentence_bleu"), "s"),
        "analysis.bucket_eval_s": (med("analysis.bucket_eval"), "s"),
        "analysis.bucket_over_corpus_bleu": (med("analysis.bucket_eval") / med("metrics.corpus_bleu"), "ratio"),
        "analysis.filter_s": (med("analysis.filter"), "s"),
        "cli.startup_s": (startup, "s"),
        "cli.build_wcm_unaccounted_s": (
            med("cli.build_wcm") - startup - med("corpus.vocab_pass") - med("corpus.read_tokenize")
            - tn_s - med("wcm.save"),
            "s",
        ),
    })
    for name in CLI_STEPS:
        key = f"cli.{name.replace('-', '_')}"
        metrics[f"{key}_s"] = (med(key), "s")
    metrics["trace.overhead_s"] = (statistics.median(pass_walls[True]) - statistics.median(pass_walls[False]), "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")

    self_times = tracer.self_time_by_layer()
    (work / "spans.json").write_text(json.dumps({"spans": tracer.spans, "self_s_by_layer": self_times}))
    print("info: " + json.dumps({
        "passes": {"untraced": len(pass_walls[False]), "traced": len(pass_walls[True])},
        "self_s_by_layer": {k: round(v, 4) for k, v in self_times.items()},
        "failures": tally.failures,
    }))
    return tally.result(metrics)
