"""Property-based tests for FM substrate invariants."""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lexicon_reference import reference_infer_role, reference_stat_polarity

from repro.core import DataAgenda
from repro.eval.serving import ALL_DATASETS, _load_bundle
from repro.fm import CostModel, KnowledgeStore, estimate_tokens
from repro.fm.lexicon import (
    _NEGATIVE_STAT_WORDS,
    _POSITIVE_STAT_WORDS,
    _ROLE_KEYWORDS,
    infer_role,
    stat_polarity,
    tokenize_identifier,
)

texts = st.text(min_size=0, max_size=300)
identifiers = st.from_regex(r"[A-Za-z][A-Za-z0-9_. ]{0,30}", fullmatch=True)
# Phrases built from the lexicon's own vocabulary (plus near-misses such
# as "agency" and separators), so keywords of several roles meet in one
# name or description and the scan order decides the role.
_LEXICON_WORDS = sorted(
    {keyword for _, keywords in _ROLE_KEYWORDS for keyword in keywords}
    | _POSITIVE_STAT_WORDS
    | _NEGATIVE_STAT_WORDS
    | {"agency", "carrier", "of", "total", "FSW.1", "x", "_", ".", "ID"}
)
lexicon_phrases = st.lists(st.sampled_from(_LEXICON_WORDS), max_size=4).map(" ".join)


@given(texts)
def test_token_estimate_positive_and_monotone(text):
    n = estimate_tokens(text)
    assert n >= 1
    assert estimate_tokens(text + "xxxx") >= n


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**5))
def test_cost_non_negative_and_additive(prompt_tokens, completion_tokens):
    model = CostModel(model="gpt-4")
    cost = model.price(prompt_tokens, completion_tokens)
    assert cost >= 0.0
    # Doubling both token counts exactly doubles the price.
    assert abs(model.price(2 * prompt_tokens, 2 * completion_tokens) - 2 * cost) < 1e-12


@given(st.integers(min_value=0, max_value=10**5))
def test_latency_at_least_base(completion_tokens):
    model = CostModel()
    assert model.latency(completion_tokens) >= model.base_latency_s


@given(identifiers)
def test_tokenizer_always_lowercase_tokens(name):
    for token in tokenize_identifier(name):
        assert token == token.lower()
        assert token  # never empty


@given(identifiers, texts)
def test_infer_role_total(name, description):
    # Role inference never raises, whatever the inputs.
    infer_role(name, description)


@given(identifiers, texts)
def test_polarity_in_range(name, description):
    assert stat_polarity(name, description) in (-1, 0, 1)


@given(
    st.one_of(identifiers, lexicon_phrases),
    st.one_of(texts, lexicon_phrases),
    st.sampled_from(["", "numeric", "categorical", "binary"]),
)
def test_memoized_lexicon_matches_reference_scan(name, description, kind):
    assert infer_role(name, description, kind) is reference_infer_role(name, description, kind)
    assert infer_role(name) is reference_infer_role(name)
    assert stat_polarity(name, description) == reference_stat_polarity(name, description)


@pytest.mark.parametrize("dataset", ALL_DATASETS)
def test_lexicon_matches_reference_on_data_cards(dataset):
    bundle = _load_bundle(dataset, 50, 0)
    agenda = DataAgenda.from_dataframe(
        bundle["frame"], bundle["target"], descriptions=bundle["descriptions"]
    )
    assert agenda.entries
    for entry in agenda.entries.values():
        # With the data card, and names only (the descriptions ablation).
        for description in (entry.description, ""):
            assert infer_role(entry.name, description, entry.kind) is reference_infer_role(
                entry.name, description, entry.kind
            )
            assert stat_polarity(entry.name, description) == reference_stat_polarity(
                entry.name, description
            )


def test_lexicon_caches_are_bounded():
    for memoized in (infer_role, stat_polarity):
        maxsize = memoized.cache_info().maxsize
        assert maxsize is not None and maxsize > 0


def test_infer_role_is_consistent_across_threads():
    inputs = [
        ("Age of car", "Age of the insured car in years", "numeric"),
        ("FSW.1", "First serve percentage for player 1", "numeric"),
        ("City", "City of residence", "categorical"),
        ("xyz_q", "", "categorical"),
    ]
    infer_role.cache_clear()
    barrier = threading.Barrier(8)
    results: list[list] = [[] for _ in range(8)]

    def worker(slot: int) -> None:
        barrier.wait(timeout=30)
        for _ in range(50):
            results[slot].append([infer_role(*args) for args in inputs])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    expected = [reference_infer_role(*args) for args in inputs]
    for per_thread in results:
        assert len(per_thread) == 50
        for roles in per_thread:
            assert all(got is want for got, want in zip(roles, expected))


@settings(max_examples=50)
@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz ", min_size=1, max_size=20))
def test_knowledge_guesses_stable_and_in_range(key):
    store = KnowledgeStore()
    for topic in store.topics:
        first = store.lookup(topic, key)
        second = store.lookup(topic, key)
        assert first == second
        low, high = store._guess_ranges[topic]
        if not store.knows(topic, key):
            assert low <= first <= high


@settings(max_examples=25)
@given(st.lists(st.text(alphabet="ABCDEFGH", min_size=1, max_size=4), min_size=1, max_size=8, unique=True))
def test_mapping_for_covers_all_keys(keys):
    store = KnowledgeStore()
    mapping = store.mapping_for("city_population_density", keys)
    assert set(mapping) == set(keys)
