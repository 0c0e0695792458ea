"""Independent brute-force reimplementations used as oracles.

Nothing here shares code with the package: counting uses plain dicts and
list.count so a bug in the real implementations cannot hide in a shared
helper.
"""

from __future__ import annotations

import math


def brute_force_wcm(
    token_pairs: list[tuple[list[str], list[str]]],
    min_cooccurrence: int,
    hifreq_cutoff: int,
    count_mode: str,
) -> dict[tuple[str, str], int]:
    """Double loop over (segment, source type, target type)."""
    src_freq: dict[str, int] = {}
    tgt_freq: dict[str, int] = {}
    for src, tgt in token_pairs:
        for w in src:
            src_freq[w] = src_freq.get(w, 0) + 1
        for w in tgt:
            tgt_freq[w] = tgt_freq.get(w, 0) + 1
    counts: dict[tuple[str, str], int] = {}
    for src, tgt in token_pairs:
        s_keep = [w for w in src if src_freq[w] <= hifreq_cutoff]
        t_keep = [w for w in tgt if tgt_freq[w] <= hifreq_cutoff]
        for i in set(s_keep):
            for j in set(t_keep):
                if count_mode == "binary":
                    increment = 1
                else:
                    increment = s_keep.count(i) * t_keep.count(j)
                counts[(i, j)] = counts.get((i, j), 0) + increment
    return {k: v for k, v in counts.items() if v >= min_cooccurrence}


def brute_force_excluded(
    token_pairs: list[tuple[list[str], list[str]]], hifreq_cutoff: int
) -> tuple[set[str], set[str]]:
    src_freq: dict[str, int] = {}
    tgt_freq: dict[str, int] = {}
    for src, tgt in token_pairs:
        for w in src:
            src_freq[w] = src_freq.get(w, 0) + 1
        for w in tgt:
            tgt_freq[w] = tgt_freq.get(w, 0) + 1
    return (
        {w for w, f in src_freq.items() if f > hifreq_cutoff},
        {w for w, f in tgt_freq.items() if f > hifreq_cutoff},
    )


def naive_bleu_stats(hypothesis: list[str], reference: list[str]) -> tuple[int, ...]:
    """(hyp_len, ref_len, matches[1..4], totals[1..4]) of one segment pair,
    with each n-gram list built by slicing and clipped with list.count."""
    matches, totals = [], []
    for n in range(1, 5):
        hyp_ngrams = [tuple(hypothesis[i : i + n]) for i in range(len(hypothesis) - n + 1)]
        ref_ngrams = [tuple(reference[i : i + n]) for i in range(len(reference) - n + 1)]
        totals.append(len(hyp_ngrams))
        matches.append(
            sum(min(hyp_ngrams.count(g), ref_ngrams.count(g)) for g in set(hyp_ngrams))
        )
    return (len(hypothesis), len(reference), *matches, *totals)


def naive_corpus_bleu(
    hypotheses: list[list[str]], references: list[list[str]]
) -> tuple[float, list[float], float]:
    """Naive pooled clipped n-gram counting; returns (score, precisions, bp)."""
    stats = [naive_bleu_stats(h, r) for h, r in zip(hypotheses, references)]
    precisions = []
    for n in range(4):
        match = sum(s[2 + n] for s in stats)
        total = sum(s[6 + n] for s in stats)
        precisions.append(match / total if total else 0.0)
    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)
    if hyp_len == 0:
        bp = 0.0
    elif hyp_len >= ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / hyp_len)
    if bp == 0.0 or any(p == 0.0 for p in precisions):
        return 0.0, precisions, bp
    score = 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / 4.0)
    return score, precisions, bp


def naive_de_score(
    entries: dict[tuple[str, str], int],
    excluded: set[str],
    source: list[str],
    hypothesis: list[str],
    by_type: bool = False,
) -> tuple[int, int]:
    """(eligible, evidenced) of a source segment against a hypothesis, by a
    walk over the source positions and, for each, over the hypothesis.

    ``entries`` maps (source token, target token) to its surviving count;
    ``excluded`` holds the source side's high-frequency tokens. For the
    reverse score pass the swapped entries and the target exclusions.
    """
    eligible = evidenced = 0
    seen: set[str] = set()
    for word in source:
        if word in excluded or (by_type and word in seen):
            continue
        seen.add(word)
        eligible += 1
        if any((word, h) in entries for h in hypothesis):
            evidenced += 1
    return eligible, evidenced


# ---------------------------------------------------------------------------
# The strict corpus reader, one line at a time


class OracleEncodingError(Exception):
    """What the per-line reader raises for a byte that is not UTF-8."""


class OracleAlignmentError(Exception):
    """What the per-line reader raises for files of unequal length."""


class OracleTabError(Exception):
    """What the per-line reader raises for a TSV line without one tab."""


def per_line_iter_lines(path):
    """Decoded lines without their line break, read and decoded one line at
    a time: a single trailing CR goes, and so does a BOM on line 1."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if raw.endswith(b"\n"):
                raw = raw[:-1]
            if raw.endswith(b"\r"):
                raw = raw[:-1]
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise OracleEncodingError(
                    f"{path}: invalid UTF-8 on line {lineno}: {exc.reason}"
                ) from None
            if lineno == 1 and line.startswith("\ufeff"):
                line = line[1:]
            yield line


def per_line_aligned(readers, names, unit="line"):
    """One tuple per position, taking one item from every reader at each;
    a reader that ends early is an error naming each one's count, the rest
    of each longer one read to count it."""
    import itertools

    for index, items in enumerate(itertools.zip_longest(*readers)):
        if None in items:
            counts = [
                index + (item is not None) + sum(1 for _ in reader)
                for item, reader in zip(items, readers)
            ]
            raise OracleAlignmentError(
                f"{unit} count mismatch: "
                + ", ".join(f"{name} has {n} {unit}s" for name, n in zip(names, counts))
            )
        yield items


def per_line_tsv(path):
    """The (source, target) fields of each line of a TSV file."""
    for lineno, line in enumerate(per_line_iter_lines(path), start=1):
        fields = line.split("\t")
        if len(fields) != 2:
            raise OracleTabError(
                f"{path}: line {lineno}: expected exactly one tab, found {len(fields) - 1}"
            )
        yield tuple(fields)


def per_line_tokens(text, lowercase=False, strip_punct=False):
    """NFC, then case-folding if asked, a split on whitespace and, if asked,
    punctuation removed from each token's ends, by a walk over its
    characters."""
    import unicodedata

    text = unicodedata.normalize("NFC", text)
    if lowercase:
        text = text.casefold()
    tokens = text.split()
    if not strip_punct:
        return tokens
    out = []
    for token in tokens:
        chars = list(token)
        while chars and unicodedata.category(chars[0])[0] == "P":
            chars.pop(0)
        while chars and unicodedata.category(chars[-1])[0] == "P":
            chars.pop()
        if chars:
            out.append("".join(chars))
    return out
