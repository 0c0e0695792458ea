import logging
import os
import random
import sys
from collections import Counter
from itertools import chain, islice

import pytest

from deqe.analysis import BucketSpec
from deqe.cli import main
from deqe.corpus import CorpusFiles, TokenizerConfig, build_vocabulary
from deqe.errors import DataError, EncodingError, VocabularyMismatchError, WcmFormatError
from deqe.scoring import de_score
from deqe.wcm import (
    COUNT_MODES,
    LONG_SEGMENT_TOKENS,
    CooccurrenceMatrix,
    WcmConfig,
    build_wcm,
    build_wcm_with_vocabularies,
    load_wcm,
    save_wcm,
)

import deqe.wcm
from helpers import (
    build_from_raw,
    entries_by_token,
    equivalence_corpus,
    make_matrix,
    random_corpus,
    random_matrix,
    write_lines,
    zipf_corpus,
)
from oracles import brute_force_excluded, brute_force_wcm

TOY = [("a b", "x y"), ("a c", "x z")]


@pytest.fixture
def toy_files(tmp_path):
    paths = (tmp_path / "train.src", tmp_path / "train.tgt")
    for side, path in enumerate(paths):
        write_lines(path, [pair[side] for pair in TOY])
    return paths


def test_config_validation():
    with pytest.raises(ValueError):
        WcmConfig(min_cooccurrence=0)
    with pytest.raises(ValueError):
        WcmConfig(hifreq_cutoff=0)
    with pytest.raises(ValueError):
        WcmConfig(count_mode="fancy")
    with pytest.raises(ValueError):
        WcmConfig()._replace(min_cooccurrence=0)
    with pytest.raises(ValueError):
        BucketSpec("between", 50.0)
    for threshold in (-1.0, 100.5):
        with pytest.raises(ValueError):
            BucketSpec("below", threshold)
    with pytest.raises(ValueError):
        BucketSpec("below", 50.0)._replace(threshold=101.0)


def test_toy_matrix_entries():
    matrix = build_from_raw(TOY, min_cooccurrence=1)
    assert entries_by_token(matrix) == {
        ("a", "x"): 2,
        ("a", "y"): 1,
        ("a", "z"): 1,
        ("b", "x"): 1,
        ("b", "y"): 1,
        ("c", "x"): 1,
        ("c", "z"): 1,
    }
    assert matrix.n_entries == 7


def test_pruning_keeps_only_frequent():
    matrix = build_from_raw(TOY, min_cooccurrence=2)
    assert entries_by_token(matrix) == {("a", "x"): 2}


def test_binary_mode_counts_repeats_once():
    matrix = build_from_raw([("a a b", "x")], min_cooccurrence=1)
    assert entries_by_token(matrix)[("a", "x")] == 1


def test_product_mode_multiplies_occurrences():
    matrix = build_from_raw([("a a b", "x x")], min_cooccurrence=1, count_mode="product")
    assert entries_by_token(matrix) == {("a", "x"): 4, ("b", "x"): 2}


def test_unknown_token_is_hard_error():
    token_pairs = [(["a"], ["x"])]
    source_vocab = build_vocabulary([["a"]], "source")
    target_vocab = build_vocabulary([["x"]], "target")
    bad = [(["a", "new"], ["x"])]
    with pytest.raises(VocabularyMismatchError) as err:
        build_wcm(bad, source_vocab, target_vocab, WcmConfig(1, 10, "binary"))
    assert "new" in str(err.value)
    # target side too, even when every source token is excluded
    tiny = WcmConfig(min_cooccurrence=1, hifreq_cutoff=1)
    source_vocab2 = build_vocabulary([["a", "a"]], "source")
    with pytest.raises(VocabularyMismatchError):
        build_wcm([(["a"], ["bad"])], source_vocab2, target_vocab, tiny)
    # clean build unaffected
    build_wcm(token_pairs, source_vocab, target_vocab, WcmConfig(1, 10, "binary"))


def test_hifreq_exclusion_applies_to_both_sides():
    raw = [("the a", "le x"), ("the b", "le y"), ("the a", "le x")]
    matrix = build_from_raw(raw, min_cooccurrence=1, hifreq_cutoff=2)
    assert matrix.excluded_source_tokens() == {"the"}
    assert matrix.excluded_target_tokens() == {"le"}
    entries = entries_by_token(matrix)
    assert all("the" != s and "le" != t for (s, t) in entries)
    assert entries[("a", "x")] == 2
    # frequency exactly at the cutoff stays in
    matrix = build_from_raw(raw, min_cooccurrence=1, hifreq_cutoff=3)
    assert matrix.excluded_source_tokens() == set()


def test_oracle_equivalence_random():
    rng = random.Random(42)
    for _ in range(30):
        pairs = random_corpus(rng)
        min_cooc = rng.randint(1, 6)
        cutoff = rng.choice([1, 2, 3, 5, 10, 10**9])
        for mode in ("binary", "product"):
            source_vocab = build_vocabulary([p[0] for p in pairs], "source")
            target_vocab = build_vocabulary([p[1] for p in pairs], "target")
            matrix = build_wcm(
                pairs, source_vocab, target_vocab, WcmConfig(min_cooc, cutoff, mode)
            )
            expected = brute_force_wcm(pairs, min_cooc, cutoff, mode)
            assert entries_by_token(matrix) == expected
            excl_s, excl_t = brute_force_excluded(pairs, cutoff)
            assert matrix.excluded_source_tokens() == excl_s
            assert matrix.excluded_target_tokens() == excl_t


def test_deterministic_across_threads_and_partitions(monkeypatch):
    rng = random.Random(9)
    pairs = random_corpus(rng, max_segments=400, max_vocab=15, max_len=8)
    source_vocab = build_vocabulary([p[0] for p in pairs], "source")
    target_vocab = build_vocabulary([p[1] for p in pairs], "target")
    # the most frequent source type is excluded
    cutoff = max(f for _, _, f in source_vocab.items()) - 1
    for mode in ("binary", "product"):
        config = WcmConfig(2, cutoff, mode)
        base = build_wcm(pairs, source_vocab, target_vocab, config, threads=1)
        assert base.excluded_source_tokens()
        assert entries_by_token(base) == brute_force_wcm(pairs, 2, cutoff, mode)
        source = deqe.wcm._side(source_vocab.tokens, source_vocab.frequencies, config)
        target = deqe.wcm._side(target_vocab.tokens, target_vocab.frequencies, config)
        (postings, targets, pair_updates), segments = deqe.wcm._encode(
            pairs, source, target, config, 0
        )
        # pair_updates is the number of increments the rows take
        assert pair_updates == sum(len(targets[n]) for segs in postings for n in segs)
        assert segments == len(pairs)
        source_id = {tok: sid for sid, tok in enumerate(source.tokens)}
        job = (postings, targets, 2, source.tokens, target.tokens)
        for n_parts in (1, 2, 3, 7):
            rows: dict = {}
            for part in range(n_parts):
                part_rows = deqe.wcm._count_rows(*job, part, n_parts)
                assert all(source_id[tok] % n_parts == part for tok in part_rows)
                rows.update(part_rows)
            union = CooccurrenceMatrix(
                config, rows, base.excluded_source_tokens(), base.excluded_target_tokens()
            )
            assert union == base
        with monkeypatch.context() as patch:
            # four workers, whatever this machine's CPU count
            patch.setattr(deqe.wcm, "_usable_cpus", lambda: 4)
            patch.setattr(deqe.wcm, "POOL_MIN_PAIR_UPDATES", 0)
            for threads in (2, 4):
                assert build_wcm(pairs, source_vocab, target_vocab, config, threads=threads) == base


def test_pool_only_when_counting_pays(monkeypatch):
    """A build with few pair updates counts in process even with threads."""
    rng = random.Random(11)
    pairs = random_corpus(rng, max_segments=200, max_vocab=12, max_len=8)
    source_vocab = build_vocabulary([p[0] for p in pairs], "source")
    target_vocab = build_vocabulary([p[1] for p in pairs], "target")
    config = WcmConfig(2, 10**9, "binary")
    count_rows = deqe.wcm._count_rows
    calls_here = []

    def counted(*args):
        calls_here.append(args)
        return count_rows(*args)

    # Workers count in processes of their own, so only in-process
    # counting shows up in calls_here.
    monkeypatch.setattr(deqe.wcm, "_count_rows", counted)
    monkeypatch.setattr(deqe.wcm, "_usable_cpus", lambda: 4)
    small = build_wcm(pairs, source_vocab, target_vocab, config, threads=4)
    assert len(calls_here) == 1
    monkeypatch.setattr(deqe.wcm, "POOL_MIN_PAIR_UPDATES", 0)
    pooled = build_wcm(pairs, source_vocab, target_vocab, config, threads=4)
    assert len(calls_here) == 1
    assert pooled == small
    assert entries_by_token(small) == brute_force_wcm(pairs, 2, 10**9, "binary")


def test_threads_default_is_usable_cpus(monkeypatch):
    monkeypatch.setattr(deqe.wcm, "_usable_cpus", lambda: 8)
    assert deqe.wcm._resolve_threads(3) == 3
    assert deqe.wcm._resolve_threads(None) == 8
    for bad in (0, -1):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            deqe.wcm._resolve_threads(bad)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
def test_usable_cpus_follow_affinity():
    assert deqe.wcm._usable_cpus() == len(os.sched_getaffinity(0))


def test_threads_clamped_to_usable_cpus(caplog):
    usable = deqe.wcm._usable_cpus()
    with caplog.at_level(logging.WARNING, logger="deqe.wcm"):
        assert deqe.wcm._resolve_threads(1_000_000) == usable
    assert any("1000000 threads requested" in rec.getMessage() for rec in caplog.records)


def test_library_build_clamps_threads_to_usable_cpus(tmp_path, monkeypatch, caplog):
    """A library build asked for more workers than there are usable CPUs
    warns once and starts a pool of only as many, and the matrix is the one
    counted in process."""
    import concurrent.futures

    monkeypatch.setattr(deqe.wcm, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(deqe.wcm, "POOL_MIN_PAIR_UPDATES", 0)
    pool_sizes = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def pool(max_workers, **kwargs):
        pool_sizes.append(max_workers)
        return real_pool(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    rng = random.Random(13)
    pairs = random_corpus(rng, max_segments=200, max_vocab=12, max_len=8)
    source_vocab = build_vocabulary([p[0] for p in pairs], "source")
    target_vocab = build_vocabulary([p[1] for p in pairs], "target")
    config = WcmConfig(2, 10**9, "binary")
    expected = build_wcm(pairs, source_vocab, target_vocab, config, threads=1)
    assert expected.n_entries and not pool_sizes
    builds = (
        lambda: build_wcm(pairs, source_vocab, target_vocab, config, threads=4),
        lambda: build_wcm_with_vocabularies(_write_corpus(tmp_path, pairs), config, threads=4),
    )
    for build in builds:
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="deqe.wcm"):
            assert build() == expected
        assert [rec.getMessage() for rec in caplog.records] == [
            "4 threads requested, but only 2 CPUs are usable; using 2"
        ]
    assert pool_sizes == [2, 2]


class _ReadCounter:
    """Re-iterable pairs that log each read to a file, which worker
    processes share with this one."""

    def __init__(self, pairs, log_path):
        self.pairs = pairs
        self.log_path = log_path

    def __iter__(self):
        with open(self.log_path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return iter(self.pairs)


def test_build_reads_pairs_once(tmp_path, monkeypatch):
    rng = random.Random(12)
    pairs = random_corpus(rng, max_segments=200, max_vocab=12, max_len=8)
    source_vocab = build_vocabulary([p[0] for p in pairs], "source")
    target_vocab = build_vocabulary([p[1] for p in pairs], "target")
    config = WcmConfig(2, 10**9, "binary")
    monkeypatch.setattr(deqe.wcm, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(deqe.wcm, "POOL_MIN_PAIR_UPDATES", 0)
    expected = brute_force_wcm(pairs, 2, 10**9, "binary")
    for threads in (1, 2, 4):
        log_path = tmp_path / f"reads{threads}.log"
        log_path.touch()
        matrix = build_wcm(
            _ReadCounter(pairs, log_path), source_vocab, target_vocab, config, threads=threads
        )
        assert entries_by_token(matrix) == expected
        assert log_path.read_text().split() == [str(os.getpid())]


def test_one_shot_iterator_with_threads_matches_list(monkeypatch):
    monkeypatch.setattr(deqe.wcm, "POOL_MIN_PAIR_UPDATES", 0)
    rng = random.Random(10)
    pairs = random_corpus(rng, max_segments=200, max_vocab=12, max_len=8)
    source_vocab = build_vocabulary([p[0] for p in pairs], "source")
    target_vocab = build_vocabulary([p[1] for p in pairs], "target")
    config = WcmConfig(2, 10**9, "binary")
    from_list = build_wcm(pairs, source_vocab, target_vocab, config, threads=2)
    from_generator = build_wcm(
        (p for p in pairs), source_vocab, target_vocab, config, threads=2
    )
    assert from_generator == from_list
    assert entries_by_token(from_list) == brute_force_wcm(pairs, 2, 10**9, "binary")


def test_vocabulary_mismatch_raised_once_while_reading():
    source_vocab = build_vocabulary([["a"]], "source")
    target_vocab = build_vocabulary([["x"]], "target")
    bad = [(["a"], ["x"]), (["a", "new"], ["x"])]
    messages = []
    for threads in (1, 2):
        with pytest.raises(VocabularyMismatchError) as err:
            build_wcm(bad, source_vocab, target_vocab, WcmConfig(1, 10, "binary"), threads=threads)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "'new' in segment 1" in messages[0]


def test_vocabulary_mismatch_names_the_first_unknown_token_random():
    """Unknown tokens at random segments, sides and positions: the error
    names the first one of the first segment holding any, source side
    first, and no later segment is read."""
    rng = random.Random(1500)
    saw_both_sides = saw_later_source = False
    for trial in range(40):
        pairs = random_corpus(rng, max_segments=60, max_vocab=10, max_len=8)
        source_vocab = build_vocabulary([p[0] for p in pairs], "source")
        target_vocab = build_vocabulary([p[1] for p in pairs], "target")
        bad = [(list(src), list(tgt)) for src, tgt in pairs]
        injected = set()
        for k in range(rng.randint(1, 6)):
            index, side = rng.randrange(len(bad)), rng.randrange(2)
            tokens = bad[index][side]
            tokens.insert(rng.randint(0, len(tokens)), f"unknown{k}")
            injected.add((index, side))
        first, side = min(injected)
        name = ("source", "target")[side]
        token = next(tok for tok in bad[first][side] if tok.startswith("unknown"))
        saw_both_sides |= {(first, 0), (first, 1)} <= injected
        saw_later_source |= any(index > first and not side for index, side in injected)
        pulled = []

        def segments():
            for segment in bad:
                pulled.append(segment)
                yield segment

        config = WcmConfig(rng.randint(1, 3), rng.choice([2, 10**9]), rng.choice(COUNT_MODES))
        with pytest.raises(VocabularyMismatchError) as err:
            build_wcm(segments(), source_vocab, target_vocab, config, threads=1 + trial % 2)
        assert str(err.value) == (
            f"{name} token {token!r} in segment {first} is not in the {name} "
            "vocabulary; rebuild vocabularies from this corpus"
        ), trial
        assert len(pulled) == first + 1
    assert saw_both_sides and saw_later_source


def _write_corpus(tmp_path, pairs) -> CorpusFiles:
    """``pairs`` written one segment a line to two files, as a corpus."""
    paths = (tmp_path / "train.src", tmp_path / "train.tgt")
    for side, path in enumerate(paths):
        write_lines(path, [" ".join(pair[side]) for pair in pairs])
    return CorpusFiles(paths)


@pytest.mark.parametrize("mode", ["binary", "product"])
def test_file_build_matches_caller_vocabularies(mode, tmp_path, monkeypatch, caplog):
    rng = random.Random(600)
    pairs = zipf_corpus(rng)
    pairs[3:3] = [([], ["t0"]), (["s0"], []), ([], [])]
    # one segment just over the warning length, one at it
    long_index = len(pairs)
    pairs.append((["s1"] * (LONG_SEGMENT_TOKENS + 1), ["t1", "t2"]))
    pairs.append((["s2"], ["t3"] * LONG_SEGMENT_TOKENS))
    cutoff = 60
    config = WcmConfig(3, cutoff, mode)
    source_vocab = build_vocabulary([p[0] for p in pairs], "source")
    target_vocab = build_vocabulary([p[1] for p in pairs], "target")
    expected = build_wcm(pairs, source_vocab, target_vocab, config, progress_every=0)
    assert expected.excluded_source_tokens() and expected.excluded_target_tokens()
    excl_s, excl_t = brute_force_excluded(pairs, cutoff)
    monkeypatch.setattr(deqe.wcm, "POOL_MIN_PAIR_UPDATES", 0)
    for threads in (1, 2):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="deqe.wcm"):
            matrix = build_wcm_with_vocabularies(
                _write_corpus(tmp_path, pairs), config, threads=threads
            )
        warned = [rec.getMessage() for rec in caplog.records if "long" in rec.getMessage()]
        assert len(warned) == 1 and f"segment {long_index} " in warned[0]
        assert matrix == expected
        assert all(matrix.row(tok) == expected.row(tok) for tok, _, _ in source_vocab.items())
        assert matrix.n_entries == expected.n_entries
        assert matrix.excluded_source_tokens() == expected.excluded_source_tokens()
        assert matrix.excluded_target_tokens() == expected.excluded_target_tokens()
        assert entries_by_token(matrix) == brute_force_wcm(pairs, 3, cutoff, mode)
        assert matrix.excluded_source_tokens() == excl_s
        assert matrix.excluded_target_tokens() == excl_t


@pytest.mark.parametrize("pool", [False, True], ids=["in-process", "pool"])
def test_file_build_shares_each_target_token(tmp_path, monkeypatch, pool):
    """A cell of a built matrix costs one dict slot: every row holding a
    target token holds the one string the build numbered, also when the
    rows were counted by two worker processes."""
    if pool:
        monkeypatch.setattr(deqe.wcm, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(deqe.wcm, "POOL_MIN_PAIR_UPDATES", 0)
    pairs = zipf_corpus(random.Random(601))
    matrix = build_wcm_with_vocabularies(
        _write_corpus(tmp_path, pairs), WcmConfig(2, 10**9), threads=2 if pool else 1
    )
    ts = [t for _, t, _ in matrix.entries()]
    # some target token is in more than one row, so sharing is tested
    assert len(ts) > len(set(ts))
    assert len(set(map(id, ts))) == len(set(ts))


@pytest.mark.parametrize("min_cooc", [1, 2, 5, 20])
def test_rare_type_prefilter_is_exact(min_cooc):
    rng = random.Random(500 + min_cooc)
    for _ in range(5):
        pairs = zipf_corpus(rng)
        cutoff = rng.choice([60, 10**9])
        source_vocab = build_vocabulary([p[0] for p in pairs], "source")
        target_vocab = build_vocabulary([p[1] for p in pairs], "target")
        rare_source = {tok for tok, _, f in source_vocab.items() if f < min_cooc}
        rare_target = {tok for tok, _, f in target_vocab.items() if f < min_cooc}
        assert min_cooc == 1 or rare_source and rare_target
        for mode in ("binary", "product"):
            matrix = build_wcm(
                pairs, source_vocab, target_vocab, WcmConfig(min_cooc, cutoff, mode)
            )
            assert entries_by_token(matrix) == brute_force_wcm(pairs, min_cooc, cutoff, mode)
            excl_s, excl_t = brute_force_excluded(pairs, cutoff)
            assert matrix.excluded_source_tokens() == excl_s
            assert matrix.excluded_target_tokens() == excl_t
            assert not rare_source & matrix.excluded_source_tokens()
            assert not rare_target & matrix.excluded_target_tokens()


def test_product_mode_keeps_rare_types():
    # "a" occurs once, yet its product count with "x" reaches the threshold
    matrix = build_from_raw(
        [("a", " ".join(["x"] * 20))], min_cooccurrence=20, count_mode="product"
    )
    assert entries_by_token(matrix) == {("a", "x"): 20}


def test_pruning_monotone():
    rng = random.Random(13)
    pairs = random_corpus(rng, max_segments=40, max_vocab=8)
    source_vocab = build_vocabulary([p[0] for p in pairs], "source")
    target_vocab = build_vocabulary([p[1] for p in pairs], "target")
    previous = None
    for min_cooc in (1, 2, 3, 5):
        entries = entries_by_token(build_wcm(
            pairs, source_vocab, target_vocab, WcmConfig(min_cooc, 10**9, "binary")
        ))
        if previous is not None:
            assert set(entries) <= set(previous)
            assert all(previous[k] == v for k, v in entries.items())
        previous = entries


def test_swapped_corpus_gives_transpose():
    rng = random.Random(21)
    pairs = random_corpus(rng, max_segments=30, max_vocab=10)
    swapped = [(t, s) for s, t in pairs]
    for mode in ("binary", "product"):
        config = WcmConfig(2, 4, mode)
        sv = build_vocabulary([p[0] for p in pairs], "source")
        tv = build_vocabulary([p[1] for p in pairs], "target")
        forward = build_wcm(pairs, sv, tv, config)
        sv2 = build_vocabulary([p[0] for p in swapped], "source")
        tv2 = build_vocabulary([p[1] for p in swapped], "target")
        backward = build_wcm(swapped, sv2, tv2, config)
        assert entries_by_token(backward) == {
            (t, s): c for (s, t), c in entries_by_token(forward).items()
        }


def test_transposed_view():
    matrix = build_from_raw(TOY, min_cooccurrence=1)
    flipped = matrix.transposed()
    assert entries_by_token(flipped) == {
        (t, s): c for (s, t), c in entries_by_token(matrix).items()
    }
    assert flipped.transposed() is matrix
    assert flipped.excluded_source_tokens() == matrix.excluded_target_tokens()


def test_long_segment_warned(caplog):
    pairs = [(["a"] * 1001, ["x"])]
    sv = build_vocabulary([p[0] for p in pairs], "source")
    tv = build_vocabulary([p[1] for p in pairs], "target")
    with caplog.at_level(logging.WARNING, logger="deqe.wcm"):
        build_wcm(pairs, sv, tv, WcmConfig(1, 10**9, "binary"))
    assert any("long" in rec.message for rec in caplog.records)


# ---------------------------------------------------------------------------
# serialization


def test_save_load_round_trip(tmp_path):
    matrix = build_from_raw(TOY, min_cooccurrence=1)
    path = tmp_path / "toy.wcm"
    save_wcm(matrix, path)
    loaded = load_wcm(path)
    assert loaded == matrix
    assert loaded.config == matrix.config
    # re-saving the loaded matrix reproduces the bytes exactly
    path2 = tmp_path / "toy2.wcm"
    save_wcm(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_save_load_empty_matrix(tmp_path):
    matrix = build_from_raw(TOY, min_cooccurrence=99)
    assert matrix.n_entries == 0
    path = tmp_path / "empty.wcm"
    save_wcm(matrix, path)
    loaded = load_wcm(path)
    assert loaded.n_entries == 0
    assert loaded == matrix


def test_save_preserves_exclusions(tmp_path):
    raw = [("the a", "le x"), ("the b", "le y"), ("the a", "le x")]
    matrix = build_from_raw(raw, min_cooccurrence=1, hifreq_cutoff=2)
    path = tmp_path / "excl.wcm"
    save_wcm(matrix, path)
    loaded = load_wcm(path)
    assert loaded.excluded_source_tokens() == {"the"}
    assert loaded.excluded_target_tokens() == {"le"}
    assert loaded == matrix


def test_load_truncated_file(tmp_path):
    matrix = build_from_raw(TOY, min_cooccurrence=1)
    path = tmp_path / "trunc.wcm"
    save_wcm(matrix, path)
    lines = path.read_text().splitlines()
    lines[4] = "#entries 10"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(WcmFormatError) as err:
        load_wcm(path)
    assert "10" in str(err.value) and "7" in str(err.value)


def test_load_trailing_data(tmp_path):
    matrix = build_from_raw(TOY, min_cooccurrence=1)
    path = tmp_path / "extra.wcm"
    save_wcm(matrix, path)
    with open(path, "a") as fh:
        fh.write("spurious\tline\t5\n")
    with pytest.raises(WcmFormatError):
        load_wcm(path)


def test_load_version_mismatch(tmp_path):
    path = tmp_path / "v3.wcm"
    path.write_text("#wcm v3\n")
    with pytest.raises(WcmFormatError) as err:
        load_wcm(path)
    assert str(err.value) == (
        f"{path}: unsupported WCM format version: expected 'v2' or 'v1', found 'v3'"
    )


def test_load_not_a_wcm_file(tmp_path):
    path = tmp_path / "nope.txt"
    path.write_text("hello\tworld\n")
    with pytest.raises(WcmFormatError):
        load_wcm(path)


def test_load_rejects_bad_entries(tmp_path):
    header = (
        "#wcm v1\n#min_cooccurrence 5\n#hifreq_cutoff 10\n#count_mode binary\n"
        "#entries 1\n#excluded_source\n#excluded_target\n"
    )
    path = tmp_path / "bad.wcm"
    path.write_text(header + "a\tx\t3\n")
    with pytest.raises(WcmFormatError):  # count below threshold
        load_wcm(path)
    path.write_text(header + "a\tx\n")
    with pytest.raises(WcmFormatError):  # wrong field count
        load_wcm(path)
    path.write_text(header + "a\tx\tmany\n")
    with pytest.raises(WcmFormatError):  # non-numeric count
        load_wcm(path)
    dup = header.replace("#entries 1", "#entries 2") + "a\tx\t6\na\tx\t6\n"
    path.write_text(dup)
    with pytest.raises(WcmFormatError):  # duplicate entry
        load_wcm(path)
    excl = (
        "#wcm v1\n#min_cooccurrence 5\n#hifreq_cutoff 10\n#count_mode binary\n"
        "#entries 1\n#excluded_source a\n#excluded_target\n" + "a\tx\t6\n"
    )
    path.write_text(excl)
    with pytest.raises(WcmFormatError):  # entry uses an excluded token
        load_wcm(path)


def test_load_rejects_bad_headers(tmp_path):
    path = tmp_path / "hdr.wcm"
    path.write_text("#wcm v1\n#min_cooccurrence many\n")
    with pytest.raises(WcmFormatError):
        load_wcm(path)
    path.write_text("#wcm v1\n#min_cooccurrence 5\n")
    with pytest.raises(WcmFormatError):  # truncated header
        load_wcm(path)
    path.write_text(
        "#wcm v1\n#min_cooccurrence 5\n#hifreq_cutoff 10\n#count_mode fancy\n"
        "#entries 0\n#excluded_source\n#excluded_target\n"
    )
    with pytest.raises(WcmFormatError):  # unknown count mode
        load_wcm(path)
    for declared in (-1, sys.maxsize + 1):
        path.write_text(
            f"#wcm v1\n#min_cooccurrence 5\n#hifreq_cutoff 10\n#count_mode binary\n"
            f"#entries {declared}\n#excluded_source\n#excluded_target\n"
        )
        with pytest.raises(WcmFormatError) as err:
            load_wcm(path)
        assert str(err.value) == f"{path}: invalid entry count {declared} in '#entries' header"


_HEADER_2 = (
    "#wcm v1\n#min_cooccurrence 5\n#hifreq_cutoff 10\n#count_mode binary\n"
    "#entries 2\n#excluded_source\n#excluded_target\n"
)


@pytest.mark.parametrize(
    "entries, message",
    [
        ("a\tx\t6\na\tx\n", "line 9: expected 3 tab-separated fields, found 2"),
        ("a\tx\t6\nb\ty\tmany\n", "line 9: invalid count 'many'"),
        ("a\tx\t6\nb\ty\t3\n", "line 9: count 3 is below the declared min_cooccurrence 5"),
        # Only LF ends a line; a token holding whitespace is named once the
        # entries are read, before the entry count is checked.
        ("b\u2028c\ty\t6\n", "token 'b\\u2028c' contains whitespace"),
        ("a b\tx\t6\nc\ty\t6\n", "token 'a b' contains whitespace"),
        ("a\tx\xa0y\t6\nc\ty\t6\n", "token 'x\\xa0y' contains whitespace"),
        ("a\tx\t6\nc\x1cd\ty\t6\n", "token 'c\\x1cd' contains whitespace"),
        ("a\tx\ry\t6\nb\ty\t6\n", "token 'x\\ry' contains whitespace"),
        ("z z\tx\t6\na\tx y\t6\n", "token 'x y' contains whitespace"),
        ("a\tx\t6\na\tx\t7\n", "duplicate entry ('a', 'x')"),
        ("a\tx\t6\n", "truncated WCM file: header declares 2 entries, found 1"),
        ("a\tx\t6\r\nb\ty\t6\r\nc\tz\t6\r\n", "trailing data: header declares 2 entries, found 3 lines"),
        ("a\tx\t6\nb\ty\t6\n\n\n", "trailing data: header declares 2 entries, found 4 lines"),
    ],
    ids=[
        "fields", "count", "below-min", "u2028", "space", "nbsp", "x1c", "lone-cr", "least",
        "duplicate", "truncated", "trailing-crlf", "trailing-blank",
    ],
)
def test_load_error_messages(tmp_path, entries, message):
    path = tmp_path / "bad.wcm"
    path.write_bytes((_HEADER_2 + entries).encode("utf-8"))
    with pytest.raises(WcmFormatError) as err:
        load_wcm(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "good, bad, lineno",
    [(b"#count_mode binary", b"#count_mode bin\xffary", 4), (b"e7999\t", b"e7999\xff\t", 8007)],
    ids=["header", "entry-in-a-later-read"],
)
def test_load_not_utf8_is_encoding_error(tmp_path, good, bad, lineno):
    """A WCM is read as any other input: a byte that is not UTF-8 is the
    EncodingError naming its line, also past the first block read."""
    entries = "".join(f"e{i}\tx\t6\n" for i in range(8000))
    text = _HEADER_2.replace("#entries 2", "#entries 8000") + entries
    assert text.index("e7999") > 1 << 16
    path = tmp_path / "bad.wcm"
    path.write_bytes(text.encode("utf-8").replace(good, bad, 1))
    with pytest.raises(EncodingError) as err:
        load_wcm(path)
    assert str(err.value) == f"{path}: invalid UTF-8 on line {lineno}: invalid start byte"


@pytest.mark.parametrize(
    "declared, entries, message",
    [
        (3, "a\tx\t6\nb\ty\n", "line 9: expected 3 tab-separated fields, found 2"),
        (1, "a\tx\nb\ty\t6\n", "line 8: expected 3 tab-separated fields, found 2"),
    ],
    ids=["fewer", "more"],
)
def test_load_reports_entry_error_before_entry_count(tmp_path, declared, entries, message):
    """Entries are checked as they are read, so a bad entry line is reported
    even when the file also holds fewer or more entries than declared."""
    path = tmp_path / "bad.wcm"
    path.write_text(_HEADER_2.replace("#entries 2", f"#entries {declared}") + entries)
    with pytest.raises(WcmFormatError) as err:
        load_wcm(path)
    assert str(err.value) == f"{path}: {message}"


def test_load_crlf_file_of_many_read_blocks(tmp_path):
    matrix = make_matrix({(f"s{i}", f"t{i % 97}"): 20 + i for i in range(10_000)})
    path = tmp_path / "big.wcm"
    save_wcm(matrix, path)
    data = b"\xef\xbb\xbf" + path.read_bytes().replace(b"\n", b"\r\n")
    assert len(data) > 2 * (1 << 16)
    path.write_bytes(data)
    assert load_wcm(path) == matrix


def test_load_refuses_a_cr_only_file_in_one_short_line(tmp_path):
    """A file whose lines end in CR alone is one line, whose version is the
    rest of the file; the error quotes only the start and end of it."""
    matrix = make_matrix({(f"s{i}", f"t{i}"): 20 for i in range(1000)})
    path = tmp_path / "cr.wcm"
    save_wcm(matrix, path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
    with pytest.raises(WcmFormatError) as err:
        load_wcm(path)
    assert str(err.value) == (
        f"{path}: unsupported WCM format version: expected 'v2' or 'v1', "
        "found 'v2\\r#min_coo...999\\tt999\\t20'"
    )


def test_save_rejects_whitespace_tokens(tmp_path):
    for matrix in (
        make_matrix({("a b", "x"): 20}),
        make_matrix({("a", "x"): 20}, excluded_target=("le x",)),
    ):
        with pytest.raises(ValueError):
            save_wcm(matrix, tmp_path / "bad.wcm")
    assert not (tmp_path / "bad.wcm").exists()


def test_save_ignores_whitespace_tokens_it_does_not_write(tmp_path):
    # "b c" and "y z" are in the build's vocabularies, but pruned
    pairs = [(["a"], ["x"])] * 25 + [(["b c"], ["y z"])]
    source_vocab = build_vocabulary([p[0] for p in pairs], "source")
    target_vocab = build_vocabulary([p[1] for p in pairs], "target")
    matrix = build_wcm(pairs, source_vocab, target_vocab, WcmConfig(20))
    path = tmp_path / "ok.wcm"
    save_wcm(matrix, path)
    assert load_wcm(path) == matrix
    assert entries_by_token(load_wcm(path)) == {("a", "x"): 25}


def test_round_trip_random_matrices(tmp_path):
    rng = random.Random(77)
    for i in range(25):
        matrix, _, _ = random_matrix(rng)
        path = tmp_path / f"m{i}.wcm"
        save_wcm(matrix, path)
        assert load_wcm(path) == matrix


_TOKENIZERS = [TokenizerConfig(lower, strip) for lower in (False, True) for strip in (False, True)]
_TOKENIZER_IDS = ["default", "strip-punct", "lowercase", "lowercase-strip-punct"]


@pytest.mark.parametrize("tokenizer", _TOKENIZERS, ids=_TOKENIZER_IDS)
def test_round_trip_keeps_the_tokenizer(tmp_path, tokenizer):
    """A matrix's tokenizer is the last header line of its v2 file, reads
    back, and is kept by ``transposed()``; ``__eq__`` tells apart two
    matrices that differ only in it."""
    path = tmp_path / "m.wcm"
    lowercase, strip_punct = (str(on).lower() for on in tokenizer)
    line = f"#tokenizer lowercase={lowercase} strip_punct={strip_punct}"
    same = [t == tokenizer for t in _TOKENIZERS]
    for trial in range(12):
        # One seed gives one matrix, here under each tokenizer in turn.
        alike = [random_matrix(random.Random(trial), tokenizer=t)[0] for t in _TOKENIZERS]
        save_wcm(alike[same.index(True)], path)
        lines = path.read_text().splitlines()
        assert (lines[0], lines[7]) == ("#wcm v2", line)
        loaded = load_wcm(path)
        assert loaded.tokenizer == tokenizer
        assert [loaded == other for other in alike] == same
        flipped = loaded.transposed()
        assert flipped.tokenizer == tokenizer and flipped.transposed() is loaded
        assert [flipped == other.transposed() for other in alike] == same


_V2_HEADER = (
    "#wcm v2\n#min_cooccurrence 5\n#hifreq_cutoff 10\n#count_mode binary\n"
    "#entries 1\n#excluded_source\n#excluded_target\n"
)
_EXPECTED_TOKENIZER = "expected 'lowercase=<true|false> strip_punct=<true|false>'"


@pytest.mark.parametrize(
    "tokenizer_line, message",
    [
        ("#tokenizer lowercase=maybe strip_punct=false\n",
         "line 8: invalid '#tokenizer' header 'lowercase=maybe strip_punct=false'; "
         + _EXPECTED_TOKENIZER),
        ("#tokenizer lowercase=true\n",
         "line 8: invalid '#tokenizer' header 'lowercase=true'; " + _EXPECTED_TOKENIZER),
        ("#tokenizer lowercase=true lowercase=true strip_punct=false\n",
         "line 8: invalid '#tokenizer' header 'lowercase=true lowercase=true strip_punct=false'; "
         + _EXPECTED_TOKENIZER),
        ("#tokenizer strip_punct=false lowercase=false\n",
         "line 8: invalid '#tokenizer' header 'strip_punct=false lowercase=false'; "
         + _EXPECTED_TOKENIZER),
        ("#tokenizer\n", "line 8: invalid '#tokenizer' header ''; " + _EXPECTED_TOKENIZER),
        ("", "expected '#tokenizer' header on line 8"),
    ],
    ids=["maybe", "missing-key", "repeated-key", "reordered", "empty", "no-line"],
)
def test_load_rejects_a_bad_tokenizer_line(tmp_path, tokenizer_line, message):
    path = tmp_path / "bad.wcm"
    path.write_text(_V2_HEADER + tokenizer_line + "a\tx\t6\n")
    with pytest.raises(WcmFormatError) as err:
        load_wcm(path)
    assert str(err.value) == f"{path}: {message}"
    path.write_text(_V2_HEADER.replace("#entries 1", "#entries 0"))
    with pytest.raises(WcmFormatError, match="truncated header, missing '#tokenizer' line"):
        load_wcm(path)


def _as_v1(path) -> None:
    """Rewrite the v2 file ``path`` as v1 wrote it: no '#tokenizer' line."""
    lines = path.read_text().splitlines(keepends=True)
    assert lines[0] == "#wcm v2\n" and lines[7].startswith("#tokenizer ")
    path.write_text("#wcm v1\n" + "".join(lines[1:7] + lines[8:]))


@pytest.mark.parametrize("entries", [0, 3])
def test_v1_file_loads_with_the_default_tokenizer_and_one_warning(tmp_path, caplog, entries):
    matrix = make_matrix({("a", f"x{i}"): 20 + i for i in range(entries)}, excluded_source=("the",))
    path = tmp_path / "old.wcm"
    save_wcm(matrix, path)
    _as_v1(path)
    with caplog.at_level(logging.INFO, logger="deqe"):
        loaded = load_wcm(path)
    assert loaded == matrix and loaded.tokenizer == TokenizerConfig()
    (record,) = caplog.records
    assert record.levelno == logging.WARNING
    assert record.getMessage() == (
        f"{path}: a v1 WCM file records no tokenizer, so it is read as built with the "
        "default one; rebuild it if it was built with --lowercase or --strip-punct"
    )


def test_bad_v1_file_is_refused_without_the_warning(tmp_path, caplog):
    matrix = make_matrix({("a", "x"): 20, ("b", "y"): 21})
    path = tmp_path / "old.wcm"
    save_wcm(matrix, path)
    _as_v1(path)
    path.write_text(path.read_text().replace("#entries 2", "#entries 3"))
    with caplog.at_level(logging.INFO, logger="deqe"), pytest.raises(WcmFormatError) as err:
        load_wcm(path)
    assert str(err.value) == f"{path}: truncated WCM file: header declares 3 entries, found 2"
    assert caplog.records == []


# Characters that end a line for str.splitlines or separate tokens for
# str.split (which tokenize cuts by), but end no line of a file read a block
# at a time (iter_lines, load_wcm); and words that carry a BOM or a decomposed
# accent.
_BOUNDARY_SEPARATORS = ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\r", "\t", " "]
_BOUNDARY_WORDS = ["a", "b\ufeffc", "\ufeffd", "e\u0301", "x", "y", "z"]


def _boundary_file(path, rng, n_lines):
    lines = [
        "".join(
            rng.choice(_BOUNDARY_WORDS) + rng.choice(_BOUNDARY_SEPARATORS)
            for _ in range(rng.randint(0, 6))
        )
        for _ in range(n_lines)
    ]
    # A BOM opens the file and every line ends in CRLF; the reader drops both.
    path.write_bytes(("\ufeff" + "".join(line + "\r\n" for line in lines)).encode("utf-8"))
    return path


def test_text_boundaries_round_trip(tmp_path):
    rng = random.Random(1300)
    saw_bom_token = saw_exclusion = False
    for trial in range(20):
        n_train, n_test = rng.randint(1, 40), rng.randint(1, 10)
        train = [_boundary_file(tmp_path / f"train{side}", rng, n_train) for side in "st"]
        test = [_boundary_file(tmp_path / f"test{side}", rng, n_test) for side in "sh"]
        config = WcmConfig(rng.choice([1, 2]), rng.choice([8, 10**9]), rng.choice(COUNT_MODES))
        built = build_wcm_with_vocabularies(CorpusFiles(tuple(train)), config)
        path = tmp_path / f"m{trial}.wcm"
        save_wcm(built, path)
        loaded = load_wcm(path)
        assert loaded == built
        saw_bom_token |= any("\ufeff" in s for s, _, _ in loaded.entries())
        saw_exclusion |= bool(loaded.excluded_source_tokens())
        for src, hyp in CorpusFiles(tuple(test)):
            for by_type in (False, True):
                assert de_score(loaded, src, hyp, by_type=by_type) == de_score(
                    built, src, hyp, by_type=by_type
                )
    assert saw_bom_token and saw_exclusion


def test_file_build_equals_caller_vocabulary_build_and_oracle(tmp_path, monkeypatch):
    """Counting each side before the strict read gives the matrix that the
    strict read's tokens give: for two files and TSV, every tokenizer, both
    count modes and a forced pool."""
    monkeypatch.setattr(deqe.wcm, "POOL_MIN_PAIR_UPDATES", 0)
    rng = random.Random(1400)
    saw_entries = saw_exclusion = 0
    for trial in range(24):
        tsv = trial % 2 == 1
        tokenizer = TokenizerConfig(lowercase=rng.random() < 0.5, strip_punct=rng.random() < 0.5)
        corpus = equivalence_corpus(tmp_path, rng, tsv, tokenizer)
        pairs = list(corpus)
        assert list(corpus.token_counts()) == [Counter(chain(*side)) for side in zip(*pairs)]
        source_vocab = build_vocabulary([p[0] for p in pairs], "source")
        target_vocab = build_vocabulary([p[1] for p in pairs], "target")
        min_cooc, cutoff = rng.choice([1, 2, 3]), rng.choice([6, 12, 10**9])
        for mode in COUNT_MODES:
            config = WcmConfig(min_cooc, cutoff, mode)
            expected = build_wcm(
                pairs, source_vocab, target_vocab, config, progress_every=0, tokenizer=tokenizer
            )
            assert entries_by_token(expected) == brute_force_wcm(pairs, min_cooc, cutoff, mode)
            assert (expected.excluded_source_tokens(), expected.excluded_target_tokens()) == (
                brute_force_excluded(pairs, cutoff)
            )
            for threads in (1, 2):
                built = build_wcm_with_vocabularies(corpus, config, threads=threads)
                assert built == expected, (trial, mode, threads)
                assert built.tokenizer == tokenizer
            saw_entries += expected.n_entries > 0
            saw_exclusion += bool(expected.excluded_source_tokens())
    assert saw_entries > 20 and saw_exclusion > 5


def test_file_build_refuses_a_path_that_is_not_a_regular_file(tmp_path, toy_files):
    src, tgt = toy_files
    for corpus, named in (
        (CorpusFiles((src, tmp_path)), tmp_path),
        (CorpusFiles((tmp_path,), tsv=True), tmp_path),
    ):
        with pytest.raises(DataError) as err:
            build_wcm_with_vocabularies(corpus)
        assert str(err.value) == f"{named}: not a regular file; the corpus is read twice"
    # A missing file is the OSError that opening it raises.
    with pytest.raises(FileNotFoundError) as err:
        build_wcm_with_vocabularies(CorpusFiles((src, tmp_path / "nope")))
    assert err.value.filename == str(tmp_path / "nope")


def _touch(path):
    st = os.stat(path)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))


def _edit_in_place(path):
    """Swap one word for another of the same length: the size and the
    token totals stay, the modification time moves on."""
    with open(path, "r+b") as fh:
        text = fh.read()
        fh.seek(0)
        fh.write(text.replace(b"a", b"q", 1).replace(b"x", b"w", 1))
    _touch(path)  # as a later write would, whatever the timestamp granularity


def _replace(path):
    new = f"{path}.new"
    with open(path, "rb") as fh, open(new, "wb") as out:
        out.write(fh.read())
    os.replace(new, path)


@pytest.mark.parametrize(
    "change", [_touch, _edit_in_place, _replace], ids=["touched", "edited", "replaced"]
)
@pytest.mark.parametrize("which", ["source", "target", "tsv"])
def test_file_build_refuses_a_corpus_that_changed_while_read(
    tmp_path, toy_files, monkeypatch, capsys, change, which
):
    """A file touched, edited in place (even keeping its size and token
    totals) or replaced between the two reads of a corpus is a DataError
    naming it: in the build, between the count pass and the strict read,
    and in ``vocab-stats``, between the strict read and the count pass,
    which leaves the report file as it was."""
    if which == "tsv":
        path = tmp_path / "train.tsv"
        write_lines(path, [f"{s}\t{t}" for s, t in TOY])
        corpus, named = CorpusFiles((path,), tsv=True), path
        inputs = ["--tsv", str(path)]
    else:
        corpus, named = CorpusFiles(toy_files), toy_files[which == "target"]
        inputs = ["--source", str(toy_files[0]), "--target", str(toy_files[1])]

    def changed_after(read, items=None):
        """``read`` with ``change`` made after its first ``items`` items, or
        after all of them."""

        def then_changed(self):
            rest = read(self)
            yield from islice(rest, items)
            change(named)
            yield from rest

        return then_changed

    with monkeypatch.context() as patch:
        patch.setattr(CorpusFiles, "token_counts", changed_after(CorpusFiles.token_counts))
        with pytest.raises(DataError) as err:
            build_wcm_with_vocabularies(corpus)
    assert str(err.value) == f"{named}: changed while being read"

    out = tmp_path / "vocab.tsv"
    out.write_text("an earlier report\n")
    # after the strict read, and after the source side is counted
    for method, items in (("_texts", None), ("token_counts", 1)):
        with monkeypatch.context() as patch:
            patch.setattr(CorpusFiles, method, changed_after(getattr(CorpusFiles, method), items))
            assert main(["vocab-stats", *inputs, "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == f"de-qe: error: {named}: changed while being read\n"
        assert out.read_text() == "an earlier report\n"
