import random

import pytest

from deqe.errors import AlignmentError
from deqe.scoring import DeScore, de_score, reverse_de_score, score_file
from deqe.wcm import CooccurrenceMatrix

from helpers import make_matrix, random_matrix, write_lines
from oracles import naive_de_score


def test_de_score_hand_case():
    matrix = make_matrix({("a", "x"): 20})
    score = de_score(matrix, ["a", "b"], ["x", "q"])
    assert score == DeScore(50.0, 2, 1, False)


def test_de_score_all_excluded_is_degenerate():
    matrix = make_matrix({("a", "x"): 20}, excluded_source=("the", "of"))
    score = de_score(matrix, ["the", "of"], ["x"])
    assert score.degenerate
    assert score.value == 0.0
    assert score.eligible == 0


def test_de_score_counts_tokens_with_multiplicity():
    matrix = make_matrix({("a", "x"): 20})
    assert de_score(matrix, ["a", "a"], ["x"]) == DeScore(100.0, 2, 2, False)


def test_de_score_by_type_counts_each_type_once():
    matrix = make_matrix({("a", "x"): 20})
    tokens = de_score(matrix, ["a", "a", "b"], ["x"])
    types = de_score(matrix, ["a", "a", "b"], ["x"], by_type=True)
    assert (tokens.eligible, tokens.evidenced) == (3, 2)
    assert (types.eligible, types.evidenced) == (2, 1)
    assert types.value == 50.0


def test_de_score_oov_source_stays_in_denominator():
    matrix = make_matrix({("a", "x"): 20})
    score = de_score(matrix, ["never", "seen"], ["x"])
    assert score == DeScore(0.0, 2, 0, False)
    assert not score.degenerate


def test_de_score_empty_source_degenerate():
    matrix = make_matrix({("a", "x"): 20})
    assert de_score(matrix, [], ["x"]).degenerate


def test_de_score_unknown_hypothesis_tokens_ignored():
    matrix = make_matrix({("a", "x"): 20})
    assert de_score(matrix, ["a"], ["zzz"]).value == 0.0
    assert de_score(matrix, ["a"], ["zzz", "x"]).value == 100.0


def test_reverse_hand_cases():
    matrix = make_matrix({("a", "x"): 20})
    assert reverse_de_score(matrix, ["a"], ["x"]).value == 100.0
    assert reverse_de_score(matrix, ["a"], ["x", "q"]) == DeScore(50.0, 2, 1, False)
    assert reverse_de_score(matrix, ["a"], []).degenerate
    assert reverse_de_score(matrix, ["a"], ["x", "x", "q"]) == DeScore(200 / 3, 3, 2, False)
    assert reverse_de_score(matrix, ["a"], ["x", "x", "q"], by_type=True) == DeScore(
        50.0, 2, 1, False
    )


def test_reverse_uses_target_exclusions():
    matrix = make_matrix({("a", "x"): 20}, excluded_target=("la",))
    score = reverse_de_score(matrix, ["a"], ["la", "x"])
    assert (score.eligible, score.evidenced) == (1, 1)


def _random_tokens(rng, alphabet, max_len=10):
    return [rng.choice(alphabet) for _ in range(rng.randint(0, max_len))]


def _segment_alphabets(matrix: CooccurrenceMatrix):
    src = [t for t, _, _ in matrix.source_vocab.items()] + ["oov1", "oov2"]
    tgt = [t for t, _, _ in matrix.target_vocab.items()] + ["oovA", "oovB"]
    return src, tgt


def test_property_hypothesis_permutation_and_duplication():
    rng = random.Random(50)
    for _ in range(150):
        matrix = random_matrix(rng)
        src_alpha, tgt_alpha = _segment_alphabets(matrix)
        src = _random_tokens(rng, src_alpha)
        hyp = _random_tokens(rng, tgt_alpha)
        base = de_score(matrix, src, hyp)
        shuffled = hyp[:]
        rng.shuffle(shuffled)
        assert de_score(matrix, src, shuffled) == base
        assert de_score(matrix, src, hyp + hyp) == base


def test_property_evidence_monotone():
    rng = random.Random(51)
    for _ in range(150):
        matrix = random_matrix(rng)
        n_src = len(matrix.source_vocab)
        n_tgt = len(matrix.target_vocab)
        if not n_src or not n_tgt:
            continue
        rows = {sid: dict(row) for sid, row in matrix._rows.items()}
        for _ in range(rng.randint(1, 8)):
            sid = rng.randrange(n_src)
            tid = rng.randrange(n_tgt)
            if sid in matrix.excluded_source or tid in matrix.excluded_target:
                continue
            rows.setdefault(sid, {}).setdefault(
                tid, matrix.config.min_cooccurrence + rng.randint(0, 9)
            )
        richer = CooccurrenceMatrix(
            matrix.source_vocab,
            matrix.target_vocab,
            matrix.config,
            rows,
            matrix.excluded_source,
            matrix.excluded_target,
        )
        src_alpha, tgt_alpha = _segment_alphabets(matrix)
        src = _random_tokens(rng, src_alpha)
        hyp = _random_tokens(rng, tgt_alpha)
        assert de_score(richer, src, hyp).value >= de_score(matrix, src, hyp).value


def test_property_transpose_duality():
    rng = random.Random(52)
    for _ in range(150):
        matrix = random_matrix(rng)
        src_alpha, tgt_alpha = _segment_alphabets(matrix)
        src = _random_tokens(rng, src_alpha)
        hyp = _random_tokens(rng, tgt_alpha)
        assert reverse_de_score(matrix, src, hyp) == de_score(
            matrix.transposed(), hyp, src
        )


def test_de_score_matches_naive_oracle():
    """Forward and reverse DE, by token and by type, against the oracle on
    random matrices with exclusions on both sides, vocabulary types without
    a row and segments with out-of-vocabulary and repeated words."""
    rng = random.Random(53)
    checked = 0
    for _ in range(300):
        matrix = random_matrix(rng)
        entries = matrix.entries_by_token()
        swapped = {(t, s): c for (s, t), c in entries.items()}
        excl_s = matrix.excluded_source_tokens()
        excl_t = matrix.excluded_target_tokens()
        src_alpha, tgt_alpha = _segment_alphabets(matrix)
        for _ in range(5):
            src = _random_tokens(rng, src_alpha)
            hyp = _random_tokens(rng, tgt_alpha)
            for by_type in (False, True):
                forward = naive_de_score(entries, excl_s, src, hyp, by_type)
                reverse = naive_de_score(swapped, excl_t, hyp, src, by_type)
                got = de_score(matrix, src, hyp, by_type=by_type)
                assert got == DeScore.from_counts(*forward), (src, hyp, by_type)
                got_rev = reverse_de_score(matrix, src, hyp, by_type=by_type)
                assert got_rev == DeScore.from_counts(*reverse), (src, hyp, by_type)
                checked += got.evidenced > 0 and got_rev.evidenced > 0
    assert checked > 100


def test_absent_types_score_zero():
    matrix = make_matrix({("a", "x"): 20})
    # types present in the vocabulary but without surviving entries
    bare = make_matrix({("a", "x"): 20, ("b", "y"): 20})
    trimmed = CooccurrenceMatrix(
        bare.source_vocab,
        bare.target_vocab,
        bare.config,
        {bare.source_vocab.id_of("a"): {bare.target_vocab.id_of("x"): 20}},
    )
    assert de_score(trimmed, ["b", "b"], ["y"]).value == 0.0
    assert de_score(matrix, ["q"], ["x"]).value == 0.0


# ---------------------------------------------------------------------------
# score_file


def test_score_file_order_and_values(tmp_path):
    matrix = make_matrix({("a", "x"): 20})
    write_lines(tmp_path / "src", ["a b", "a a"])
    write_lines(tmp_path / "hyp", ["x q", "x"])
    scored = list(score_file(matrix, tmp_path / "src", tmp_path / "hyp"))
    assert [s.index for s in scored] == [0, 1]
    assert scored[0].de.value == 50.0
    assert scored[1].de.value == 100.0
    assert scored[0].reverse_de is None


def test_score_file_reverse_column(tmp_path):
    matrix = make_matrix({("a", "x"): 20})
    write_lines(tmp_path / "src", ["a"])
    write_lines(tmp_path / "hyp", ["x q"])
    scored = list(score_file(matrix, tmp_path / "src", tmp_path / "hyp", reverse=True))
    assert scored[0].reverse_de.value == 50.0


def test_score_file_mismatch(tmp_path):
    matrix = make_matrix({("a", "x"): 20})
    write_lines(tmp_path / "src", ["a", "b"])
    write_lines(tmp_path / "hyp", ["x"])
    with pytest.raises(AlignmentError):
        list(score_file(matrix, tmp_path / "src", tmp_path / "hyp"))
