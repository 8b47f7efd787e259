"""Reference role inference: the unmemoized keyword scan.

These are the straightforward implementations ``repro.fm.lexicon`` used
before it memoized roles and precomputed its keyword needles; the tests
keep them as an oracle.  ``reference_infer_role`` normalises every
keyword and strips every haystack inside its innermost loop, on every
call.  The keyword table, tokenizer and stat-word sets are the module's
own, so the oracle pins the scan, not the vocabulary.
"""

from __future__ import annotations

from repro.fm.lexicon import (
    _NEGATIVE_STAT_WORDS,
    _POSITIVE_STAT_WORDS,
    _ROLE_KEYWORDS,
    ColumnRole,
    tokenize_identifier,
)


def reference_stat_polarity(name: str, description: str = "") -> int:
    tokens = set(tokenize_identifier(name)) | set(tokenize_identifier(description))
    positive = bool(tokens & _POSITIVE_STAT_WORDS)
    negative = bool(tokens & _NEGATIVE_STAT_WORDS)
    if positive and not negative:
        return 1
    if negative and not positive:
        return -1
    return 0


def reference_infer_role(name: str, description: str = "", dtype: str = "") -> ColumnRole:
    haystacks = []
    if description:
        haystacks.append(" " + " ".join(tokenize_identifier(description)) + " ")
    haystacks.append(" " + " ".join(tokenize_identifier(name)) + " ")
    for role, keywords in _ROLE_KEYWORDS:
        for haystack in haystacks:
            for keyword in keywords:
                needle = keyword if keyword.startswith(" ") or keyword.endswith(" ") else f" {keyword}"
                if needle in haystack or haystack.strip().startswith(keyword.strip()):
                    return role
    if dtype == "categorical":
        return ColumnRole.CATEGORY
    return ColumnRole.UNKNOWN
