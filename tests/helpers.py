"""Construction utilities shared by the test modules."""

from __future__ import annotations

import os
import random
import tempfile

from deqe.corpus import CorpusFiles, SegmentPair, TokenizerConfig
from deqe.wcm import CooccurrenceMatrix, WcmConfig, build_wcm_with_vocabularies


def build_from_raw(
    raw_pairs: list[tuple[str, str]],
    min_cooccurrence: int = 1,
    hifreq_cutoff: int = 10**9,
    count_mode: str = "binary",
    threads: int = 1,
) -> CooccurrenceMatrix:
    """Write raw sentence pairs one per line to two files, and build a
    matrix from them as ``build-wcm`` does."""
    assert not any("\n" in text for pair in raw_pairs for text in pair)
    config = WcmConfig(
        min_cooccurrence=min_cooccurrence,
        hifreq_cutoff=hifreq_cutoff,
        count_mode=count_mode,
    )
    with tempfile.TemporaryDirectory() as tmp:
        paths = (os.path.join(tmp, "train.src"), os.path.join(tmp, "train.tgt"))
        for side, path in enumerate(paths):
            write_lines(path, [pair[side] for pair in raw_pairs])
        return build_wcm_with_vocabularies(CorpusFiles(paths), config, threads=threads)


def make_matrix(
    entries: dict[tuple[str, str], int],
    excluded_source: tuple[str, ...] = (),
    excluded_target: tuple[str, ...] = (),
    min_cooccurrence: int = 20,
    hifreq_cutoff: int = 10_000,
    count_mode: str = "binary",
    tokenizer: TokenizerConfig = TokenizerConfig(),
) -> CooccurrenceMatrix:
    """Assemble a matrix directly from token-level entries (all counts must
    already sit at or above the threshold)."""
    rows: dict[str, dict[str, int]] = {}
    for (s, t), c in entries.items():
        rows.setdefault(s, {})[t] = c
    return CooccurrenceMatrix(
        WcmConfig(min_cooccurrence, hifreq_cutoff, count_mode),
        rows,
        excluded_source,
        excluded_target,
        tokenizer,
    )


def entries_by_token(matrix: CooccurrenceMatrix) -> dict[tuple[str, str], int]:
    return {(s, t): c for s, t, c in matrix.entries()}


def random_corpus(
    rng: random.Random,
    max_segments: int = 50,
    max_vocab: int = 30,
    max_len: int = 12,
) -> list[tuple[list[str], list[str]]]:
    """Random tokenized segment pairs over small disjoint alphabets."""
    n_src = rng.randint(1, max_vocab)
    n_tgt = rng.randint(1, max_vocab)
    src_alpha = [f"s{i}" for i in range(n_src)]
    tgt_alpha = [f"t{i}" for i in range(n_tgt)]
    pairs = []
    for _ in range(rng.randint(1, max_segments)):
        src = [rng.choice(src_alpha) for _ in range(rng.randint(0, max_len))]
        tgt = [rng.choice(tgt_alpha) for _ in range(rng.randint(0, max_len))]
        pairs.append((src, tgt))
    return pairs


def zipf_corpus(
    rng: random.Random,
    n_segments: int = 300,
    n_types: int = 200,
    max_len: int = 10,
) -> list[tuple[list[str], list[str]]]:
    """Random segment pairs whose source words follow Zipf weights 1/r, so
    that frequent and rare types both occur. The target is the
    word-for-word translation in shuffled order plus one random word."""
    weights = [1.0 / r for r in range(1, n_types + 1)]
    pairs = []
    for _ in range(n_segments):
        ranks = rng.choices(range(n_types), weights, k=rng.randint(1, max_len))
        tgt = [f"t{r}" for r in ranks] + [f"t{rng.randrange(n_types)}"]
        rng.shuffle(tgt)
        pairs.append(([f"s{r}" for r in ranks], tgt))
    return pairs


def random_matrix(
    rng: random.Random, max_vocab: int = 12, tokenizer: TokenizerConfig = TokenizerConfig()
) -> tuple[CooccurrenceMatrix, list[str], list[str]]:
    """A structurally valid random matrix of ``tokenizer`` built directly
    (not via counting), with the source and target tokens it was drawn
    from; some of them are excluded and some have no row."""
    min_cooc = rng.randint(1, 30)
    n_src = rng.randint(0, max_vocab)
    n_tgt = rng.randint(0, max_vocab)
    src_tokens = [f"s{i}" for i in range(n_src)]
    tgt_tokens = [f"t{i}" for i in range(n_tgt)]
    excl_s = frozenset(tok for tok in src_tokens if rng.random() < 0.15)
    excl_t = frozenset(tok for tok in tgt_tokens if rng.random() < 0.15)
    rows: dict[str, dict[str, int]] = {}
    n_entries = rng.randint(0, max(0, n_src * n_tgt // 2))
    for _ in range(n_entries):
        s = rng.choice(src_tokens) if n_src else None
        t = rng.choice(tgt_tokens) if n_tgt else None
        if s is None or t is None or s in excl_s or t in excl_t:
            continue
        rows.setdefault(s, {})[t] = min_cooc + rng.randint(0, 50)
    mode = rng.choice(["binary", "product"])
    matrix = CooccurrenceMatrix(
        WcmConfig(min_cooc, rng.randint(1, 10**6), mode), rows, excl_s, excl_t, tokenizer
    )
    return matrix, src_tokens, tgt_tokens


def write_lines(path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


# Words that casefold, carry punctuation at an edge, a BOM or a decomposed
# accent; separators that str.split cuts at but iter_lines does not end a
# line at. A TSV line keeps its one tab.
_EQUIVALENCE_WORDS = [
    "a", "A", "b", "\u00c9", "e\u0301", "\u00e9", "x.", "(y)", "!", "\u00df", "SS", "z\ufeff"
]
_EQUIVALENCE_SEPARATORS = [
    " ", "  ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\r", "\u00a0"
]


def _equivalence_text(rng, tsv):
    separators = _EQUIVALENCE_SEPARATORS + ([] if tsv else ["\t"])
    if rng.random() < 0.15:  # blank, or only separators
        return "".join(rng.choices(separators, k=rng.randint(0, 2)))
    return "".join(
        rng.choice(_EQUIVALENCE_WORDS) + rng.choice(separators) for _ in range(rng.randint(1, 7))
    )


def _equivalence_file(path, rng, lines):
    breaks = rng.choices(["\n", "\r\n"], k=len(lines))
    if lines[-1] and rng.random() < 0.3:
        breaks[-1] = ""  # no line break after the last line
    text = "".join(map(str.__add__, lines, breaks))
    if rng.random() < 0.5:
        text = "\ufeff" + text
    path.write_bytes(text.encode("utf-8"))


def equivalence_corpus(tmp_path, rng, tsv, tokenizer) -> CorpusFiles:
    """A random corpus of up to 60 segments in ``tmp_path``, two files or one
    TSV, with CRLF or LF line breaks and perhaps a BOM, in the words and
    separators above."""
    n = rng.randint(1, 60)
    sides = [[_equivalence_text(rng, tsv) for _ in range(n)] for _ in range(2)]
    if tsv:
        path = tmp_path / "train.tsv"
        _equivalence_file(path, rng, [f"{s}\t{t}" for s, t in zip(*sides)])
        return CorpusFiles((path,), tsv=True, tokenizer=tokenizer)
    paths = (tmp_path / "train.src", tmp_path / "train.tgt")
    for path, lines in zip(paths, sides):
        _equivalence_file(path, rng, lines)
    return CorpusFiles(paths, tokenizer=tokenizer)


# Words that NFC, case folding or punctuation stripping change: NFD accents,
# case pairs, BOMs inside words and edge punctuation. Case folding turns
# U+01F0 and U+0390 into decomposed text that NFC composes again, so folding
# before NFC gives other tokens. The separators are those str.split cuts at
# and the block reader must not cut a line at.
_TOKENIZE_WORDS = [
    "e\u0301", "E\u0301", "A\u030a", "\u01f0", "J\u030c", "\u0390", "\u00df", "SS",
    "\ufeffw", "z\ufeff", "w\ufeffv",
    "x.", "(y)", "!", "...", "\u00abq\u00bb", "\u00bfW?", "'s'", "don't", "\u2014",
]
_TOKENIZE_SEPARATORS = ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\r", "\t", " "]


def tokenizer_pairs(rng, n) -> list[SegmentPair]:
    """``n`` seeded pairs of texts of up to six of the words above, each
    followed by one of the separators."""

    def text():
        return "".join(
            rng.choice(_TOKENIZE_WORDS) + rng.choice(_TOKENIZE_SEPARATORS)
            for _ in range(rng.randint(0, 6))
        )

    return [SegmentPair(i, text(), text()) for i in range(n)]
