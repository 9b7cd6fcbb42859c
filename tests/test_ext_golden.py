"""Golden rows of the R-Mesh extension experiments (crowding, transient).

``ext_crowding`` reads branch currents and ``ext_transient`` integrates
the RC network; both sit on the DC solve path but report quantities the
paper tables do not pin.  Every fast-mode row is frozen here as exact
``float.hex`` strings (``tests/golden/ext_rmesh.json``), so a refactor of
either path is held bitwise, not just to the physical bounds the other
tests check.

Regenerate (only for an intended physics change)::

    PYTHONPATH=src REPRO_SOLVER=direct python tests/test_ext_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.experiments import registry

GOLDEN = Path(__file__).parent / "golden" / "ext_rmesh.json"
EXPERIMENTS = ("ext_crowding", "ext_transient")


@pytest.fixture(autouse=True)
def _pin_direct_backend(monkeypatch):
    """The golden is a *direct-path* contract: pin the backend so a
    ``REPRO_SOLVER=cg`` test leg still compares bitwise."""
    monkeypatch.setenv("REPRO_SOLVER", "direct")


def _cell(value):
    return value.hex() if isinstance(value, float) else value


def records(experiment_id: str) -> dict:
    """One experiment's fast-mode rows: label -> {column: hex or int}."""
    result = registry[experiment_id](fast=True)
    return {
        row.label: {k: _cell(v) for k, v in row.model.items()}
        for row in result.rows
    }


@pytest.mark.parametrize("experiment_id", EXPERIMENTS)
def test_rows_match_golden(experiment_id):
    golden = json.loads(GOLDEN.read_text())[experiment_id]
    assert records(experiment_id) == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_ext_golden.py --write")
    data = {eid: records(eid) for eid in EXPERIMENTS}
    GOLDEN.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
