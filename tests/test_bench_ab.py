"""The statistics of tools/bench_ab.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

BENCH_AB_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py"


def _paired_stats():
    spec = importlib.util.spec_from_file_location("bench_ab", BENCH_AB_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.paired_stats


def test_paired_stats_of_fixed_pairs():
    paired_stats = _paired_stats()
    parent = [1.0, 2.0, 0.5, 1.0, 4.0]
    change = [0.9, 1.9, 0.55, 0.8, 3.0]  # ratios 0.9, 0.95, 1.1, 0.8, 0.75
    st = paired_stats(parent, change)
    assert st["median_ratio"] == pytest.approx(0.9)
    assert st["faster"] == 4 and st["pairs"] == 5
    lo, hi = st["interval"]
    assert 0.75 <= lo <= 0.9 <= hi <= 1.1 and lo < hi
    assert paired_stats(parent, change) == st  # a fixed resampling seed


def test_paired_stats_of_equal_ratios_and_of_an_a_a_run():
    paired_stats = _paired_stats()
    halved = paired_stats([2.0, 4.0, 1.0], [1.0, 2.0, 0.5])
    assert halved == {"median_ratio": 0.5, "faster": 3, "pairs": 3, "interval": (0.5, 0.5)}
    same = paired_stats([1.2, 0.9], [1.2, 0.9])
    assert same == {"median_ratio": 1.0, "faster": 0, "pairs": 2, "interval": (1.0, 1.0)}
    one = paired_stats([1.0], [1.25])
    assert one == {"median_ratio": 1.25, "faster": 0, "pairs": 1, "interval": (1.25, 1.25)}
