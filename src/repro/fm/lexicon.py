"""Semantic column-role inference.

A foundation model reads a column name like ``Age of car`` or ``FSW.1`` and
brings world knowledge about what transformations make sense.  The
simulator's stand-in for that capability is a lexicon that maps column
names *and their data-card descriptions* to semantic roles; roles then
drive which operators the simulated FM proposes and with what parameters
(e.g. actuarial age bands for AGE, log-scaling for MONEY).

The lexicon deliberately works better with descriptions than with bare
abbreviated names — reproducing the paper's "Impact of Feature
Descriptions" finding that opaque names like ``FSW.1`` degrade output.

The simulator re-parses the data agenda from every prompt, so the same
column's role is asked for once per FM call.  :func:`infer_role` and
:func:`stat_polarity` are pure functions of the text a prompt carries
(name, description, kind), so both are memoized in a bounded LRU cache
(:data:`_ROLE_CACHE_SIZE` entries; thread-safe under the FM fan-out),
and the keyword needles are normalised once at import.  Results are
exactly those of the plain per-call scan.
"""

from __future__ import annotations

import enum
import functools
import re

__all__ = ["ColumnRole", "infer_role", "tokenize_identifier"]


class ColumnRole(enum.Enum):
    """Semantic interpretation of a column, as an FM would perceive it."""

    AGE = "age"
    YEAR = "year"
    DATE = "date"
    DURATION = "duration"
    MONEY = "money"
    RATE = "rate"
    PERCENTAGE = "percentage"
    COUNT = "count"
    SCORE = "score"
    MEASUREMENT = "measurement"
    CITY = "city"
    REGION = "region"
    CATEGORY = "category"
    BINARY = "binary"
    IDENTIFIER = "identifier"
    TEXT = "text"
    VEHICLE = "vehicle"
    OCCUPATION = "occupation"
    EDUCATION = "education"
    SPECIES = "species"
    UNKNOWN = "unknown"


_ROLE_KEYWORDS: list[tuple[ColumnRole, tuple[str, ...]]] = [
    # Order matters: first match wins, most specific roles first.
    (ColumnRole.CITY, ("city", "town", "municipality", "metro")),
    (ColumnRole.REGION, ("state", "region", "county", "country", "zip", "postcode", "district", "neighborhood", "address", "location")),
    (ColumnRole.AGE, ("age",)),
    (ColumnRole.SPECIES, ("species", "breed", "variety", "strain")),
    (ColumnRole.VEHICLE, ("vehicle", "car", "make", "model of car", "automobile")),
    (ColumnRole.YEAR, ("year", "vintage", "yr")),
    (ColumnRole.DATE, ("date", "timestamp", "datetime", "day of", "birthdate", "dob")),
    (ColumnRole.DURATION, ("duration", "tenure", "months since", "days since", "length of stay", "elapsed")),
    (ColumnRole.MONEY, ("income", "price", "salary", "balance", "cost", "revenue", "amount", "loan", "wage", "fee", "value in dollars", "budget", "payment", "earnings")),
    (ColumnRole.PERCENTAGE, ("percent", "percentage", "pct", "proportion", "share of")),
    (ColumnRole.RATE, ("rate", "ratio", "frequency", "per capita", "speed")),
    (ColumnRole.SCORE, ("score", "gpa", "grade", "rank", "rating", "index", "lsat", "ugpa", "points won", "serve percentage")),
    (ColumnRole.MEASUREMENT, ("pressure", "glucose", "insulin", "bmi", "cholesterol", "temperature", "humidity", "weight", "height", "thickness", "concentration", "measurement", "level")),
    (ColumnRole.COUNT, ("count", "number of", "num ", "n_", "children", "dependents", "claims", "visits", "aces", "faults", "wins", "attempts", "occurrences", "quantity", "mosquitos", "population", "households", "rooms", "bedrooms")),
    (ColumnRole.OCCUPATION, ("occupation", "job", "profession", "employment", "workclass")),
    (ColumnRole.EDUCATION, ("education", "degree", "school", "academic")),
    (ColumnRole.TEXT, ("comment", "description text", "notes", "review", "title")),
    (ColumnRole.IDENTIFIER, ("identifier", " id", "_id", "uuid", "serial", "ssn", "account number")),
    (ColumnRole.BINARY, ("flag", "is ", "has ", "binary", "yes/no", "boolean", "default", "subscribed", "married")),
]

# Per role: the needles searched for inside a space-padded haystack (a
# keyword without an edge space gains a leading one, so it must start a
# token) and the stripped keywords the bare haystack may start with (a
# prefix, not a token: "age" also claims a name starting "agency").
_ROLE_NEEDLES: tuple[tuple[ColumnRole, tuple[str, ...], tuple[str, ...]], ...] = tuple(
    (
        role,
        tuple(k if k.startswith(" ") or k.endswith(" ") else f" {k}" for k in keywords),
        tuple(k.strip() for k in keywords),
    )
    for role, keywords in _ROLE_KEYWORDS
)

#: Entries kept by each memoized lexicon function: the nine eval datasets
#: ask for about 400 distinct columns in a fit.
_ROLE_CACHE_SIZE = 4096


def tokenize_identifier(name: str) -> list[str]:
    """Split an identifier into lowercase word tokens.

    Handles snake_case, camelCase, dotted abbreviations, and digits:
    ``"AgeOfCar"`` → ``["age", "of", "car"]``; ``"FSW.1"`` → ``["fsw", "1"]``.
    """
    spaced = re.sub(r"([a-z0-9])([A-Z])", r"\1 \2", name)
    spaced = re.sub(r"[_\.\-/,:]+", " ", spaced)
    return [t for t in spaced.lower().split() if t]


_POSITIVE_STAT_WORDS = frozenset(
    {"won", "win", "wins", "winners", "aces", "created", "success", "successful", "gained"}
)
_NEGATIVE_STAT_WORDS = frozenset(
    {"errors", "error", "faults", "fault", "unforced", "lost", "losses", "failures", "missed"}
)


@functools.lru_cache(maxsize=_ROLE_CACHE_SIZE)
def stat_polarity(name: str, description: str = "") -> int:
    """+1 for "good" stats (winners, aces), -1 for "bad" ones (errors,
    faults), 0 otherwise.

    An FM pairing ``winners`` with ``unforced errors`` knows they oppose —
    which is why differentials/ratios of opposing stats rank highly in its
    binary-operator proposals.
    """
    tokens = set(tokenize_identifier(name)) | set(tokenize_identifier(description))
    positive = bool(tokens & _POSITIVE_STAT_WORDS)
    negative = bool(tokens & _NEGATIVE_STAT_WORDS)
    if positive and not negative:
        return 1
    if negative and not positive:
        return -1
    return 0


@functools.lru_cache(maxsize=_ROLE_CACHE_SIZE)
def infer_role(name: str, description: str = "", dtype: str = "") -> ColumnRole:
    """Infer the semantic role of a column from name + description + dtype.

    The description dominates when present (an FM reads the data card); a
    bare cryptic name often yields :attr:`ColumnRole.UNKNOWN` — which is
    what degrades SMARTFEAT's output in the names-only ablation.
    """
    texts = [description, name] if description else [name]
    haystacks = []
    for text in texts:
        haystack = " " + " ".join(tokenize_identifier(text)) + " "
        haystacks.append((haystack, haystack.strip()))
    for role, needles, prefixes in _ROLE_NEEDLES:
        for haystack, bare in haystacks:
            if bare.startswith(prefixes) or any(needle in haystack for needle in needles):
                return role
    if dtype == "categorical":
        return ColumnRole.CATEGORY
    return ColumnRole.UNKNOWN
