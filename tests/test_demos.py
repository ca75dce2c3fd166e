"""Every script in demos/ runs to completion against the package in src/,
and the demos that print a cross-check print it passing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _routes_agree(out: str):
    # six n = 3 classes, each closing with the four routes' verdict
    assert out.count("-> AGREE") == 6


def _chi_methods_agree(out: str):
    # four rectangular 3-cores, each comparing direct and branching chi
    assert out.count("[ok]") == 4
    assert "MISMATCH" not in out


def _blocks_sum_to_regular_counts(out: str):
    # Below the header line "m= ..." each row reads m, one dimension per core,
    # the total and the regular partition count.
    table = out[out.index("\nm=") :].splitlines()[2:]
    rows = [list(map(int, line.split())) for line in table if line.strip()]
    assert [row[0] for row in rows] == list(range(9))
    for m, *dims, total, regular in rows:
        assert sum(dims) == total == regular, m


CHECKS = {
    "branching_four_ways.py": _routes_agree,
    "jantzen_seitz_tables.py": _chi_methods_agree,
    "cores_and_blocks.py": _blocks_sum_to_regular_counts,
}


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo, tmp_path):
    # cwd is a scratch directory: crystal_graph_export.py writes its DOT file there.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert done.returncode == 0, done.stderr
    CHECKS.get(demo.name, lambda out: None)(done.stdout)
