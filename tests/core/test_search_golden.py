"""Golden digests of the seeded search on every eval dataset.

The identity gates elsewhere (serial == thread, replay == fit frame)
compare two runs of the same code, so a change that moves the search on
both sides passes them.  These digests pin what the search itself
accepts: per dataset, a sha256 over the accepted features (name, output
columns, source code, in acceptance order) and the dropped columns, for
a seeded fit with ``SimulatedFM`` seeds 51/52, the serial executor and
two-wide waves on 300 rows of the dataset generated with seed 51.

A change that is meant to move the search must regenerate them; print
the current digests with::

    PYTHONPATH=src python tests/core/test_search_golden.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core import SmartFeat
from repro.eval.serving import ALL_DATASETS, _load_bundle
from repro.fm import SerialExecutor, SimulatedFM

SEED = 51
N_ROWS = 300

GOLDEN = {
    "diabetes": "bfe5b9ae0b410c4aa6279ab19bf603d05262b0a9628548a7fbd5d7fc0657c72e",
    "heart": "1dae9549f660b65be62ff70cd55d97eea8054a7d807944d785ef6957560b52f7",
    "bank": "762fb2e6aa13cdb913033943240275734026401fd935646436337c6a9f7ec944",
    "adult": "d3a8612444d3a09dc6ebc699a5d582d4f9ae251c7c68127d9e0047cc16f0c589",
    "housing": "a55e49556a45f37f07ee9292a6156a41bb3aa7a9b4fdb75bfa79c249a850977b",
    "lawschool": "585a038b9babe684039c824f708ee7b56a1a35d79d982cf428f19521e7a9aad1",
    "west_nile": "187a80b07d96940750edbbf1e12b79968ed35c8dba9cf3ffc6968bdf1cbbd080",
    "tennis": "b6c05f64dcfdd383d5b546742ab4867b9e7333ddcb31329ede8534346a9d2748",
    "synthetic": "2970964cf75d522690c198e5a57e8a3544d8d4995fcee9f0727d557a21a4471a",
}


def search_digest(dataset: str) -> str:
    bundle = _load_bundle(dataset, N_ROWS, SEED)
    tool = SmartFeat(
        SimulatedFM(seed=SEED, model="gpt-4"),
        function_fm=SimulatedFM(seed=SEED + 1, model="gpt-3.5-turbo"),
        executor=SerialExecutor(),
        wave_size=2,
    )
    result = tool.fit_transform(
        bundle["frame"],
        bundle["target"],
        descriptions=bundle["descriptions"],
        title=bundle["title"],
        target_description=bundle["target_description"],
    )
    accepted = [
        [name, list(feature.output_columns), feature.source_code]
        for name, feature in result.new_features.items()
    ]
    payload = json.dumps([accepted, list(result.dropped)])
    return hashlib.sha256(payload.encode()).hexdigest()


def test_golden_covers_every_eval_dataset():
    assert tuple(GOLDEN) == ALL_DATASETS


@pytest.mark.parametrize("dataset", ALL_DATASETS)
def test_seeded_search_matches_golden_digest(dataset):
    assert search_digest(dataset) == GOLDEN[dataset]


if __name__ == "__main__":
    for name in ALL_DATASETS:
        print(f'    "{name}": "{search_digest(name)}",')
