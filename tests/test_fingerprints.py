"""Pinned behaviour fingerprints: the determinism contract across versions.

Each case runs one short seeded experiment the way `miserysim run` does
(events.jsonl, then requests.csv and summary.json from the records) and
compares the SHA-256 of every artifact with the value recorded when the case
was added.  The attacker cases hash the JSON list of `simulate_attacker`
times.  A change that moves any digest changes observable behaviour; such a
change must be deliberate, and the new digest is recorded here together with
the reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from miserysim import reporting
from miserysim.attacker import Strategy, simulate_attacker
from miserysim.experiment import ExperimentConfig, run_experiment

ARTIFACTS = ("events.jsonl", "requests.csv", "summary.json")

# (config overrides, {artifact: sha256})
RUNS = {
    "d0": (
        dict(d=0, k=0, j=120.0, rng_seed=3),
        {"events.jsonl": "fa9c9371f757574c9cc7b798ca8c3638817b020f264ef158db2f59d527b569a2",
         "requests.csv": "d576f5439112a65b73d99283bfdcb53b6efe73196a42b4063595e25a7b89b3cb",
         "summary.json": "716ac9ea7642b453577f25fdbe13c3045cd4d9fce67895514d37e81884e97e91"},
    ),
    "d3k2": (
        dict(d=3, k=2, j=300.0, r=10.0, rng_seed=1),
        {"events.jsonl": "27d1cf3d9ca8efdafd551f8b6e5c346e0d8dabc3fd14422ff6f03451573c027e",
         "requests.csv": "92b6560b65fe2daf562ce2b05a2d91ec0636d2b33c2c1570c816f0c579fe0ba0",
         "summary.json": "71cb06f6b05891006b1c3dfa5578b00b27c5f5ce1a179316db585b6738f1e961"},
    ),
    "d4k2-churn": (
        dict(d=4, k=2, j=300.0, r=5.0, s=64, rng_seed=2),
        {"events.jsonl": "c79cc1b579f6d11da8f5ddd4102f09fb5095e635819ae592c4f64a186d4bc166",
         "requests.csv": "1d7105853226ed026088c066e3f32d06de5eb93c743ffbe839cf3fad1cfa9674",
         "summary.json": "3847e79f57fce5eae7ad81cfb59ae7dd0b37cff6ddb5328b1fcec863dc6c9346"},
    ),
    "d5k3": (
        dict(d=5, k=3, j=60.0, r=5.0, s=32, rng_seed=4),
        {"events.jsonl": "1dec698ddf6b201e7adf83dc1d08d39533c9e3202466863667cc6d153ab4a47b",
         "requests.csv": "1298e8ada62b9f18d186cd2b56dff182347e1390f624949bdb59e13945a1a7e6",
         "summary.json": "e70de7d01186f96af03d209ab7351487950bdc969ddc5e25f4e890a1fa61ea49"},
    ),
}

# (d, k, strategy) -> sha256 of json.dumps(times) over ATTACK_SEEDS
ATTACK_SEEDS = range(200)
ATTACKS = {
    (3, 2, "uniform-child"):
        "b7072f78478ae0e9b30aeee6485793cf2523775e07289e6354b15b47cc467814",
    (3, 2, "depth-first"):
        "b01d2706def14cf802931bc9de0ca5f76421f3ca3c15d703bf443404177d18ed",
    (5, 3, "uniform-child"):
        "753229a8a35c796f0c19e96266232b4c44c90b795e4e4220138792415a826dec",
    (5, 3, "depth-first"):
        "1796d9e9eb99664aa069d83bbc13b0a01d3d3e73f49b0115c438ad133e9b846c",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_artifacts_match_pinned_digests(name, tmp_path):
    overrides, pinned = RUNS[name]
    result = run_experiment(ExperimentConfig(**overrides))
    result.log.dump(str(tmp_path / "events.jsonl"))
    reporting.emit_report(result.records, str(tmp_path))
    got = {artifact: _sha256((tmp_path / artifact).read_bytes())
           for artifact in ARTIFACTS}
    assert got == pinned


@pytest.mark.parametrize("case", sorted(ATTACKS), ids=lambda c: f"d{c[0]}k{c[1]}-{c[2]}")
def test_attacker_times_match_pinned_digests(case):
    d, k, strategy = case
    times = simulate_attacker(d, k, hop_time=1.0, strategy=Strategy(strategy),
                              r=0.5, seeds=ATTACK_SEEDS)
    assert _sha256(json.dumps(times).encode("ascii")) == ATTACKS[case]
