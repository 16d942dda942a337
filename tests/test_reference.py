"""Every shipped command/config run against the committed reference."""

import json

import pytest

from reference_runs import REFERENCE, RUNS, collect, differences, run_key

_WANT = json.loads(REFERENCE.read_text())


def test_reference_covers_every_run():
    assert len(RUNS) == 20
    assert sorted(_WANT) == sorted(run_key(*run) for run in RUNS)


@pytest.mark.parametrize("run", RUNS, ids=[run_key(*run) for run in RUNS])
def test_run_matches_reference(run):
    assert differences(_WANT[run_key(*run)], collect(*run)) == []


def test_a_reordered_object_is_a_difference():
    # a writer that moved could reorder an artifact's keys and keep each value
    want = {"result": {"lower": 1.0, "ratio": 0.5}}
    got = {"result": {"ratio": 0.5, "lower": 1.0}}
    assert differences(want, got) == [
        ("/result key order", ["lower", "ratio"], ["ratio", "lower"])]
