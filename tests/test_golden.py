"""Byte-identical outputs for the shipped scenarios.

The digests are SHA-256 of the metrics CSV and the state dump that
``councilnet simulate --scenario scenarios/<name>.json`` writes at the
scenario's own seed.  A change that alters either file must say so and
update the digests here.
"""

import hashlib
from pathlib import Path

import pytest

from councilnet.sim import run

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "two_cluster_seven": (
        "f39a8493071e042aa2ce97cd3351d7f0fd623c1040e95ce7144e75945dfb5589",
        "d51217f930a18d80bfe47e3f08e491ae8ff7affd8396e53fecd6671ddfe50aed",
    ),
    "size_ladder": (
        "192b17b05e52a722a62d4b5322b619efd46c684db5262131473eb23cdff40774",
        "742384615e0b0770dfc66d3a7ff8bd8fe266618966ab28cd8e7de44efe974d21",
    ),
    "mobile_demo": (
        "299f8883c15315c139a07e558cea65f223a65f0acbd8ce59b17e7818c260744b",
        "82b7bcd5529e282b2cf57da2a8c6c2f07f5a762e1cb0074c4d86e956c95a99c9",
    ),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_metrics_and_state_dump_are_byte_identical(name, tmp_path):
    metrics, state = tmp_path / "metrics.csv", tmp_path / "state.json"
    run(SCENARIOS / f"{name}.json", metrics, state_out=state)
    assert (sha256(metrics), sha256(state)) == GOLDEN[name]
