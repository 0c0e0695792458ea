"""Per-segment Direct Evidence scores for (source, hypothesis) pairs.

The forward score is the percentage of eligible source tokens that have a
strong co-occurrence link to at least one hypothesis token; the reverse
score is the same computation on the transposed matrix, from the
hypothesis side, and flags unsupported extra words in the translation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .wcm import CooccurrenceMatrix


class DeScore(NamedTuple):
    """One segment's Direct Evidence score.

    ``value`` is 100 * evidenced / eligible, or 0 with ``degenerate`` set
    when no token was eligible (so downstream counts stay consistent with
    input size).
    """

    value: float
    eligible: int
    evidenced: int
    degenerate: bool

    @classmethod
    def from_counts(cls, eligible: int, evidenced: int) -> "DeScore":
        if eligible <= 0:
            return cls(0.0, 0, 0, True)
        return cls(100.0 * evidenced / eligible, eligible, evidenced, False)


def de_score(
    matrix: CooccurrenceMatrix,
    source_tokens: list[str],
    hypothesis_tokens: list[str],
    *,
    by_type: bool = False,
) -> DeScore:
    """Forward DE score of a hypothesis translation for a source segment.

    Eligible tokens are all source tokens except high-frequency excluded
    types; tokens are counted with multiplicity unless ``by_type``. Source
    tokens absent from the matrix (pruned or out-of-vocabulary) stay in the
    denominator and are simply never evidenced.
    """
    hypothesis = set(hypothesis_tokens)
    excluded = matrix.excluded_source_tokens()
    if by_type:
        eligible = set(source_tokens).difference(excluded)
    else:
        eligible = [tok for tok in source_tokens if tok not in excluded]
    # The flat kernel: one lookup in the rows per eligible token, and no
    # call to ``matrix.row``, which wraps a miss in a read-only mapping.
    row = matrix._rows.get
    evidenced = 0
    for tok in eligible:
        cells = row(tok)
        if cells is not None and not cells.keys().isdisjoint(hypothesis):
            evidenced += 1
    return DeScore.from_counts(len(eligible), evidenced)


def reverse_de_score(
    matrix: CooccurrenceMatrix,
    source_tokens: list[str],
    hypothesis_tokens: list[str],
    *,
    by_type: bool = False,
) -> DeScore:
    """Reverse (target-to-source) DE score: forward DE on the transposed
    matrix, with the hypothesis as the side whose tokens need evidence. Low
    values signal hypothesis words unsupported by the source."""
    return de_score(matrix.transposed(), hypothesis_tokens, source_tokens, by_type=by_type)
