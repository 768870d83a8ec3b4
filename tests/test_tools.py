"""The repository tools' own logic, on fixed inputs."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_bench = load("ab_bench")

BASE = [0.080, 0.078, 0.079, 0.081, 0.077, 0.080, 0.079, 0.078, 0.082, 0.079]


def test_ab_decision_needs_nine_of_ten_wins_and_a_gap_beyond_the_base_spread():
    # a 6 % gain in every pair holds; one lost pair of ten still holds, two do not
    faster = [0.94 * b for b in BASE]
    d = ab_bench.decide(BASE, faster, "lower")
    assert d["wins"] == 10 and d["pairs"] == 10 and d["gain"]
    assert d["base"] == pytest.approx((0.078, 0.079, 0.08025))
    assert d["gap"] == pytest.approx(0.079 - 0.94 * 0.079)
    one_lost, two_lost = faster.copy(), faster.copy()
    one_lost[3] = two_lost[3] = two_lost[7] = 0.09
    assert ab_bench.decide(BASE, one_lost, "lower")["gain"]
    assert ab_bench.decide(BASE, one_lost, "lower")["wins"] == 9
    assert not ab_bench.decide(BASE, two_lost, "lower")["gain"]


def test_ab_decision_needs_the_gap_to_exceed_the_base_iqr():
    # 0.9 % faster in every pair: ten wins, but the median moves less than the base's IQR
    d = ab_bench.decide(BASE, [0.991 * b for b in BASE], "lower")
    assert d["wins"] == 10 and 0 < d["gap"] < d["base"][2] - d["base"][0] and not d["gain"]


def test_ab_decision_reads_the_direction_and_counts_ties_as_losses():
    # a higher-is-better metric gains upward; an unchanged value never wins; fewer than
    # ten pairs never show a gain
    rates = [1.0 / b for b in BASE]
    assert ab_bench.decide(rates, [1.06 * r for r in rates], "higher")["gain"]
    assert not ab_bench.decide(rates, [0.94 * r for r in rates], "higher")["gain"]
    assert ab_bench.decide(BASE, BASE, "lower")["wins"] == 0
    assert not ab_bench.decide(BASE[:9], [0.5 * b for b in BASE[:9]], "lower")["gain"]
    with pytest.raises(ValueError):
        ab_bench.decide(BASE, BASE[:9], "lower")
