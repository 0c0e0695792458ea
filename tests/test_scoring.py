import random

from deqe.scoring import DeScore, de_score, reverse_de_score
from deqe.corpus import CorpusFiles, build_vocabulary
from deqe.wcm import (
    CooccurrenceMatrix,
    WcmConfig,
    build_wcm_with_vocabularies,
    load_wcm,
    save_wcm,
)

from helpers import entries_by_token, make_matrix, random_matrix, write_lines, zipf_corpus
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


def _segment_alphabets(src_tokens: list[str], tgt_tokens: list[str]):
    return src_tokens + ["oov1", "oov2"], tgt_tokens + ["oovA", "oovB"]


def test_property_hypothesis_permutation_and_duplication():
    rng = random.Random(50)
    for _ in range(150):
        matrix, src_tokens, tgt_tokens = random_matrix(rng)
        src_alpha, tgt_alpha = _segment_alphabets(src_tokens, tgt_tokens)
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
        matrix, src_tokens, tgt_tokens = random_matrix(rng)
        if not src_tokens or not tgt_tokens:
            continue
        rows = {s: dict(matrix.row(s)) for s in src_tokens if matrix.row(s)}
        for _ in range(rng.randint(1, 8)):
            s = rng.choice(src_tokens)
            t = rng.choice(tgt_tokens)
            if s in matrix.excluded_source_tokens() or t in matrix.excluded_target_tokens():
                continue
            rows.setdefault(s, {}).setdefault(
                t, matrix.config.min_cooccurrence + rng.randint(0, 9)
            )
        richer = CooccurrenceMatrix(
            matrix.config,
            rows,
            matrix.excluded_source_tokens(),
            matrix.excluded_target_tokens(),
        )
        src_alpha, tgt_alpha = _segment_alphabets(src_tokens, tgt_tokens)
        src = _random_tokens(rng, src_alpha)
        hyp = _random_tokens(rng, tgt_alpha)
        assert de_score(richer, src, hyp).value >= de_score(matrix, src, hyp).value


def test_property_transpose_duality():
    rng = random.Random(52)
    for _ in range(150):
        matrix, src_tokens, tgt_tokens = random_matrix(rng)
        src_alpha, tgt_alpha = _segment_alphabets(src_tokens, tgt_tokens)
        src = _random_tokens(rng, src_alpha)
        hyp = _random_tokens(rng, tgt_alpha)
        assert reverse_de_score(matrix, src, hyp) == de_score(
            matrix.transposed(), hyp, src
        )


def test_de_score_matches_naive_oracle():
    """Forward and reverse DE, by token and by type, against the oracle on
    random matrices with exclusions on both sides, drawn types without
    a row and segments with out-of-vocabulary and repeated words."""
    rng = random.Random(53)
    checked = 0
    for _ in range(300):
        matrix, src_tokens, tgt_tokens = random_matrix(rng)
        entries = entries_by_token(matrix)
        swapped = {(t, s): c for (s, t), c in entries.items()}
        excl_s = matrix.excluded_source_tokens()
        excl_t = matrix.excluded_target_tokens()
        src_alpha, tgt_alpha = _segment_alphabets(src_tokens, tgt_tokens)
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
    # types present in the corpus but without surviving entries
    bare = make_matrix({("a", "x"): 20, ("b", "y"): 20})
    trimmed = CooccurrenceMatrix(bare.config, {"a": {"x": 20}})
    assert de_score(trimmed, ["b", "b"], ["y"]).value == 0.0
    assert de_score(matrix, ["q"], ["x"]).value == 0.0


def test_built_and_loaded_matrices_score_alike(tmp_path):
    """A loaded matrix is exactly its file, so it scores every segment as
    the built matrix does: OOV, pruned, binary-rare and high-frequency
    excluded words included, on both sides."""
    rng = random.Random(54)
    pairs = zipf_corpus(rng)
    # "p" and "q" occur 3 times, but with no partner 3 times: pruned
    pairs += [(["p"], [f"pt{i}"]) for i in range(3)] + [([f"qs{i}"], ["q"]) for i in range(3)]
    min_cooc, cutoff = 3, 60
    paths = (tmp_path / "train.src", tmp_path / "train.tgt")
    for side, path in enumerate(paths):
        write_lines(path, [" ".join(pair[side]) for pair in pairs])
    built = build_wcm_with_vocabularies(CorpusFiles(paths), WcmConfig(min_cooc, cutoff))
    save_wcm(built, tmp_path / "m.wcm")
    loaded = load_wcm(tmp_path / "m.wcm")
    assert loaded == built
    alphabets = []
    for side, matrix in ((0, built), (1, built.transposed())):
        vocab = build_vocabulary([pair[side] for pair in pairs])
        excluded = matrix.excluded_source_tokens()
        rare = {tok for tok, _, f in vocab.items() if f < min_cooc}
        pruned = {tok for tok, _, f in vocab.items() if not matrix.row(tok)} - rare - excluded
        assert excluded and rare and pruned
        alphabets.append([tok for tok, _, _ in vocab.items()] + [f"oov{side}{i}" for i in range(3)])
    src_alpha, tgt_alpha = alphabets
    evidenced = 0
    for _ in range(200):
        src = _random_tokens(rng, src_alpha)
        hyp = _random_tokens(rng, tgt_alpha)
        for by_type in (False, True):
            forward = de_score(built, src, hyp, by_type=by_type)
            assert de_score(loaded, src, hyp, by_type=by_type) == forward
            reverse = reverse_de_score(built, src, hyp, by_type=by_type)
            assert reverse_de_score(loaded, src, hyp, by_type=by_type) == reverse
            evidenced += forward.evidenced > 0 and reverse.evidenced > 0
    assert evidenced > 0
