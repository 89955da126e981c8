"""Committed benchmark baselines hold only values a rerun reproduces."""

from __future__ import annotations

from pathlib import Path

import pytest

BASELINES = sorted(
    (Path(__file__).resolve().parents[1] / "benchmarks" / "baselines").glob("*.json")
)


def test_baselines_are_committed():
    assert BASELINES


@pytest.mark.parametrize("path", BASELINES, ids=lambda p: p.name)
def test_baseline_holds_no_run_specific_values(path):
    text = path.read_text()
    assert "/tmp/" not in text, f"{path.name} records a temporary path"
    assert " object at 0x" not in text, f"{path.name} records an object repr"
