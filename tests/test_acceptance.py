"""Acceptance suite: one test per release criterion.

Each test asserts its criterion at the stated tolerance and prints one
PASS line (visible with ``pytest -v -s`` or in the captured-output
sections) so the gate can be read off the run log.
"""

import logging
import math
import random
import re
import resource
import time

import pytest

import deqe.wcm
from deqe.analysis import BucketSpec, bucket_eval, filter_corpus
from deqe.cli import main as cli_main
from deqe.corpus import CorpusFiles, build_vocabulary, load_parallel_corpus, tokenize
from deqe.metrics import corpus_bleu, pearson, sentence_bleu, student_t_two_tailed
from deqe.scoring import de_score, reverse_de_score
from deqe.wcm import (
    CooccurrenceMatrix,
    WcmConfig,
    build_wcm,
    build_wcm_with_vocabularies,
    load_wcm,
    save_wcm,
)

from helpers import entries_by_token, random_corpus, random_matrix, write_lines
from oracles import brute_force_excluded, brute_force_wcm, naive_corpus_bleu
from synthgen import corrupt_targets, gen_pairs, make_lexicon, write_corpus


def _pass(criterion: str, detail: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail}) [{elapsed:.2f}s]")


@pytest.fixture(scope="module")
def synth_train():
    rng = random.Random(60_001)
    lexicon = make_lexicon(500)
    train = gen_pairs(rng, lexicon, 20_000)
    return lexicon, train


def test_criterion_1_wcm_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(1001)
    checked = 0
    for _ in range(200):
        pairs = random_corpus(rng, max_segments=50, max_vocab=30, max_len=12)
        min_cooc = rng.randint(1, 6)
        cutoff = rng.choice([1, 2, 3, 5, 10, 10**9])
        source_vocab = build_vocabulary([p[0] for p in pairs], "source")
        target_vocab = build_vocabulary([p[1] for p in pairs], "target")
        for mode in ("binary", "product"):
            matrix = build_wcm(
                pairs, source_vocab, target_vocab, WcmConfig(min_cooc, cutoff, mode)
            )
            assert entries_by_token(matrix) == brute_force_wcm(
                pairs, min_cooc, cutoff, mode
            )
            excl_s, excl_t = brute_force_excluded(pairs, cutoff)
            assert matrix.excluded_source_tokens() == excl_s
            assert matrix.excluded_target_tokens() == excl_t
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _pass("criterion 1 (WCM oracle equivalence)", f"{checked} builds exact", elapsed)


def test_criterion_2_serialization(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    rng = random.Random(1002)
    # 100 random matrices, forcing the empty and single-entry shapes in
    for i in range(100):
        if i == 0:
            matrix, _, _ = random_matrix(rng, max_vocab=0)  # no tokens at all
        elif i == 1:
            from helpers import make_matrix

            matrix = make_matrix({("solo", "unico"): 20})
        else:
            matrix, _, _ = random_matrix(rng)
        path = tmp_path / f"m{i}.wcm"
        save_wcm(matrix, path)
        loaded = load_wcm(path)
        assert loaded == matrix
        repath = tmp_path / f"m{i}b.wcm"
        save_wcm(loaded, repath)
        assert path.read_bytes() == repath.read_bytes()

    # byte-identical builds across --threads {1, 4}, with four usable CPUs
    # assumed and the pool forced so that the 4-thread run genuinely counts
    # four partitions, three of them in workers
    rng2 = random.Random(1003)
    lexicon = make_lexicon(40)
    pairs = gen_pairs(rng2, lexicon, 2_000, min_len=2, max_len=8)
    write_corpus(pairs, tmp_path / "c.src", tmp_path / "c.tgt")
    monkeypatch.setattr(deqe.wcm, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(deqe.wcm, "POOL_MIN_PAIR_UPDATES", 0)
    blobs = []
    for threads in ("1", "4"):
        out = tmp_path / f"threads{threads}.wcm"
        rc = cli_main(
            [
                "build-wcm",
                "--source", str(tmp_path / "c.src"),
                "--target", str(tmp_path / "c.tgt"),
                "--out", str(out),
                "--min-cooc", "5",
                "--threads", threads,
                "--quiet",
            ]
        )
        assert rc == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _pass(
        "criterion 2 (serialization)",
        "100 round trips + thread-count byte identity",
        elapsed,
    )


def test_criterion_3_de_scoring_properties():
    t0 = time.perf_counter()
    rng = random.Random(1004)
    trials = 0
    while trials < 1000:
        matrix, src_tokens, tgt_tokens = random_matrix(rng)
        src_alpha = src_tokens + ["oov1", "oov2"]
        tgt_alpha = tgt_tokens + ["oovA", "oovB"]
        src = [rng.choice(src_alpha) for _ in range(rng.randint(0, 10))]
        hyp = [rng.choice(tgt_alpha) for _ in range(rng.randint(0, 10))]
        base = de_score(matrix, src, hyp)

        shuffled = hyp[:]
        rng.shuffle(shuffled)
        assert de_score(matrix, src, shuffled) == base

        assert de_score(matrix, src, hyp + hyp) == base

        if src_tokens and tgt_tokens:
            rows = {s: dict(matrix.row(s)) for s in src_tokens if matrix.row(s)}
            for _ in range(rng.randint(1, 6)):
                s, t = rng.choice(src_tokens), rng.choice(tgt_tokens)
                if s in matrix.excluded_source_tokens() or t in matrix.excluded_target_tokens():
                    continue
                rows.setdefault(s, {}).setdefault(
                    t, matrix.config.min_cooccurrence
                )
            richer = CooccurrenceMatrix(
                matrix.config,
                rows,
                matrix.excluded_source_tokens(),
                matrix.excluded_target_tokens(),
            )
            assert de_score(richer, src, hyp).value >= base.value

        assert reverse_de_score(matrix, src, hyp) == de_score(
            matrix.transposed(), hyp, src
        )
        trials += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _pass("criterion 3 (DE scoring properties)", f"{trials} trials exact", elapsed)


def test_criterion_4_bleu_oracle():
    t0 = time.perf_counter()
    rng = random.Random(1005)
    alphabet = [f"w{i}" for i in range(8)]
    for _ in range(100):
        n = rng.randint(1, 10)
        refs = [
            [rng.choice(alphabet) for _ in range(rng.randint(0, 12))] for _ in range(n)
        ]
        hyps = [
            [rng.choice(alphabet) for _ in range(rng.randint(0, 12))] for _ in range(n)
        ]
        result = corpus_bleu(hyps, refs)
        score, precisions, bp = naive_corpus_bleu(hyps, refs)
        assert abs(result.score - score) <= 1e-9
        assert abs(result.brevity_penalty - bp) <= 1e-9
        for got, want in zip(result.precisions, precisions):
            assert abs(got - want) <= 1e-9

    hand = corpus_bleu(
        ["the cat sat on the mat".split()], ["the cat sat on a mat".split()]
    )
    assert hand.precisions == (5 / 6, 3 / 5, 2 / 4, 1 / 3)
    assert abs(hand.score - 53.73) <= 0.01

    for _ in range(100):
        seg = [rng.choice(alphabet) for _ in range(rng.randint(1, 15))]
        assert sentence_bleu(seg, seg).score == 100.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _pass(
        "criterion 4 (BLEU oracle)",
        "100 corpora to 1e-9; hand case 53.73; identity = 100",
        elapsed,
    )


def test_criterion_5_pearson():
    t0 = time.perf_counter()
    xs = [1.0, 2.0, 5.0, 3.0, 9.0, 4.5]
    assert abs(pearson(xs, xs).r - 1.0) <= 1e-12
    assert abs(pearson(xs, [-x for x in xs]).r + 1.0) <= 1e-12

    rng = random.Random(1006)
    for _ in range(50):
        n = rng.randint(3, 50)
        vx = [rng.uniform(-10, 10) for _ in range(n)]
        vy = [rng.uniform(-10, 10) for _ in range(n)]
        base = pearson(vx, vy).r
        a, b = rng.uniform(0.01, 20), rng.uniform(-50, 50)
        assert abs(pearson([a * x + b for x in vx], vy).r - base) <= 1e-12

    hand = pearson([1, 2, 3, 4, 5], [2, 1, 4, 3, 5])
    assert abs(hand.r - 0.8) <= 1e-12

    # exact-t vs normal approximation at the method boundary (n = 200)
    df = 198
    worst = 0.0
    for _ in range(50):
        vx = [rng.uniform(0, 1) for _ in range(200)]
        vy = [x + rng.uniform(-0.5, 0.5) for x in vx]
        t_stat = pearson(vx, vy).t_statistic
        gap = abs(
            student_t_two_tailed(t_stat, df, "exact")
            - student_t_two_tailed(t_stat, df, "normal")
        )
        worst = max(worst, gap)
    for t_stat in [i * 0.25 for i in range(33)]:
        gap = abs(
            student_t_two_tailed(t_stat, df, "exact")
            - student_t_two_tailed(t_stat, df, "normal")
        )
        worst = max(worst, gap)
    assert worst <= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _pass("criterion 5 (Pearson)", f"boundary gap {worst:.2e} <= 1e-4", elapsed)


def test_criterion_6_synthetic_gradation(synth_train):
    t0 = time.perf_counter()
    lexicon, train = synth_train
    rng = random.Random(60_002)
    test = gen_pairs(rng, lexicon, 2_000)
    hypotheses, corrupted = corrupt_targets(rng, test, 0.30)

    train_tokens = [(s.split(), t.split()) for s, t in train]
    source_vocab = build_vocabulary([p[0] for p in train_tokens], "source")
    target_vocab = build_vocabulary([p[1] for p in train_tokens], "target")
    matrix = build_wcm(
        train_tokens, source_vocab, target_vocab, WcmConfig(min_cooccurrence=20)
    )

    src_tok = [tokenize(s) for s, _ in test]
    ref_tok = [tokenize(t) for _, t in test]
    hyp_tok = [tokenize(t) for _, t in hypotheses]
    scores = [de_score(matrix, s, h) for s, h in zip(src_tok, hyp_tok)]

    report = bucket_eval(
        scores, hyp_tok, ref_tok, [BucketSpec.parse("<50"), BucketSpec.parse(">=50")]
    )
    low, high = report.rows
    assert low.segment_count > 0 and high.segment_count > 0
    assert low.bleu is not None and high.bleu is not None
    margin = high.bleu.score - low.bleu.score
    assert margin >= 5.0

    corr = pearson(
        [s.value for s in scores],
        [sentence_bleu(h, r).score for h, r in zip(hyp_tok, ref_tok)],
    )
    assert corr.r > 0.3
    assert corr.p_value < 0.001
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _pass(
        "criterion 6 (synthetic gradation)",
        f"BLEU {high.bleu.score:.2f} vs {low.bleu.score:.2f} (margin {margin:.2f}), "
        f"r={corr.r:.3f}, p={corr.p_value:.3g}",
        elapsed,
    )


def test_criterion_7_scale_smoke(tmp_path, caplog):
    rng = random.Random(70_001)
    lexicon = [f"w{i:04d}" for i in range(2_000)]
    translations = [f"v{i:04d}" for i in range(2_000)]
    src_path = tmp_path / "big.src"
    tgt_path = tmp_path / "big.tgt"
    n_segments = 1_000_000
    with open(src_path, "w", encoding="utf-8", newline="\n") as sf, open(
        tgt_path, "w", encoding="utf-8", newline="\n"
    ) as tf:
        batch_s: list[str] = []
        batch_t: list[str] = []
        for _ in range(n_segments):
            length = rng.randint(3, 15)
            idx = rng.choices(range(2_000), k=length)
            batch_s.append(" ".join(lexicon[i] for i in idx))
            batch_t.append(" ".join(translations[i] for i in idx))
            if len(batch_s) == 10_000:
                sf.write("\n".join(batch_s) + "\n")
                tf.write("\n".join(batch_t) + "\n")
                batch_s.clear()
                batch_t.clear()
        if batch_s:
            sf.write("\n".join(batch_s) + "\n")
            tf.write("\n".join(batch_t) + "\n")

    # the timed region is the CLI build: a pass that counts each side's
    # types, then the read that keeps what counting needs, then counting
    t0 = time.perf_counter()
    with caplog.at_level(logging.INFO, logger="deqe.wcm"):
        matrix = build_wcm_with_vocabularies(
            CorpusFiles((src_path, tgt_path)),
            WcmConfig(min_cooccurrence=20),
            threads=1,
        )
    elapsed = time.perf_counter() - t0
    messages = [rec.getMessage() for rec in caplog.records]
    (read,) = [message for message in messages if message.startswith("build-wcm: read ")]
    n = int(re.search(r"read (\d+) segments", read).group(1))
    assert n == n_segments
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert matrix.n_entries > 0
    assert elapsed < 300.0
    assert peak_kb < 4 * 1024 * 1024
    _pass(
        "criterion 7 (scale smoke)",
        f"{n_segments} segments in {elapsed:.1f}s, {matrix.n_entries} entries, "
        f"peak RSS {peak_kb / 1024 / 1024:.2f} GiB",
        elapsed,
    )


def test_criterion_8_filter_corpus(tmp_path, synth_train):
    t0 = time.perf_counter()
    lexicon, train = synth_train
    rng = random.Random(80_001)
    noisy, corrupted = corrupt_targets(rng, train, 0.10)
    src_path = tmp_path / "noisy.src"
    tgt_path = tmp_path / "noisy.tgt"
    write_corpus(noisy, src_path, tgt_path)

    noisy_tokens = [(s.split(), t.split()) for s, t in noisy]
    source_vocab = build_vocabulary([p[0] for p in noisy_tokens], "source")
    target_vocab = build_vocabulary([p[1] for p in noisy_tokens], "target")
    matrix = build_wcm(
        noisy_tokens, source_vocab, target_vocab, WcmConfig(min_cooccurrence=20)
    )

    kept, dropped = [], []
    summary = filter_corpus(
        matrix,
        load_parallel_corpus(src_path, tgt_path),
        50.0,
        keep=kept.append,
        drop=dropped.append,
    )
    dropped_idx = {p.index for p in dropped}
    n_corrupted = len(corrupted)
    n_clean = len(train) - n_corrupted
    corrupted_removed = len(dropped_idx & corrupted)
    clean_removed = len(dropped_idx - corrupted)
    assert summary.kept + summary.dropped == summary.total == len(train)
    assert corrupted_removed >= 0.80 * n_corrupted
    assert clean_removed <= 0.10 * n_clean
    elapsed = time.perf_counter() - t0
    _pass(
        "criterion 8 (noise filtering)",
        f"removed {corrupted_removed}/{n_corrupted} corrupted, "
        f"{clean_removed}/{n_clean} clean",
        elapsed,
    )
