"""Three ``sienna run`` scenarios write exactly their golden artifacts.

The golden files hold the CSV and summary JSON of ``sienna run <scenario>
--trials 3 --samples 3`` at the default seed. The scenarios are seeded, so
any difference is a change in behaviour. ``separation``,
``commitment-entropy`` and ``rs-timing`` are left out: some of their
floats depend on the BLAS and libm builds, and ``rs-timing`` records
wall-clock times.
"""

from pathlib import Path

import pytest

from sienna.cli import cli_entry

GOLDEN = Path(__file__).resolve().parent / "golden" / "scenarios"
SCENARIOS = ("pairing-success", "adversarial-ber", "fingerprint-similarity")


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scenario_writes_golden_artifacts(scenario, tmp_path, monkeypatch):
    monkeypatch.delenv("SIENNA_SEED", raising=False)
    argv = ["run", scenario, "--trials", "3", "--samples", "3", "--out", str(tmp_path)]
    assert cli_entry(argv) == 0
    for name in (f"{scenario}.csv", f"{scenario}-summary.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_every_golden_artifact_has_a_scenario():
    expected = sorted(f"{s}{suffix}" for s in SCENARIOS for suffix in (".csv", "-summary.json"))
    assert sorted(p.name for p in GOLDEN.iterdir()) == expected
