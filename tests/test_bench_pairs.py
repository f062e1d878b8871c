"""The pair summary of scripts/bench_pairs.py on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "better": "lower"}
OK = {"name": "ok_frac", "better": "higher"}


def _runs(name: str, values: list) -> list:
    return [{name: v} for v in values]


def _row(metric: dict, base: list, tree: list) -> tuple:
    (row,) = bench_pairs.summarize([metric], _runs(metric["name"], base), _runs(metric["name"], tree))
    return row


# REV's runs spread over [1.0, 1.9]: median 1.45, interquartile range 0.45
BASE = [1.0 + 0.1 * k for k in range(10)]


@pytest.mark.parametrize("metric,sign", [(WALL, -1.0), (OK, 1.0)])
def test_nine_wins_in_ten_with_medians_beyond_the_spread_is_a_gain(metric, sign):
    # the tree is better by 1 in nine pairs and worse by 1 in one
    tree = [b + sign for b in BASE[:9]] + [BASE[9] - sign]
    name, qb, qt, wins, losses, gain = _row(metric, BASE, tree)
    assert (name, wins, losses) == (metric["name"], 9, 1)
    assert qb[2] - qb[0] < sign * (qt[1] - qb[1])
    assert gain


@pytest.mark.parametrize("metric,sign", [(WALL, -1.0), (OK, 1.0)])
def test_eight_wins_in_ten_is_no_gain(metric, sign):
    # the medians are further apart than REV's spread, but only eight pairs are won
    tree = [b + sign for b in BASE[:8]] + [b - sign for b in BASE[8:]]
    _, qb, qt, wins, losses, gain = _row(metric, BASE, tree)
    assert (wins, losses) == (8, 2)
    assert qb[2] - qb[0] < sign * (qt[1] - qb[1])
    assert not gain


@pytest.mark.parametrize("metric,sign", [(WALL, -1.0), (OK, 1.0)])
def test_ties_count_for_neither_side(metric, sign):
    # one tie: nine wins of ten pairs remain a gain, and the tie is no loss
    tree = [b + sign for b in BASE[:9]] + [BASE[9]]
    _, _, _, wins, losses, gain = _row(metric, BASE, tree)
    assert (wins, losses, gain) == (9, 0, True)
    _, _, _, wins, losses, gain = _row(metric, BASE, list(BASE))
    assert (wins, losses, gain) == (0, 0, False)


@pytest.mark.parametrize("metric", [WALL, OK])
def test_nine_wins_inside_the_spread_is_no_gain(metric):
    # the tree wins nine pairs by 0.01 and loses one: the medians lie within REV's spread
    step = -0.01 if metric is WALL else 0.01
    tree = [b + step for b in BASE[:9]] + [BASE[9] - step]
    _, _, _, wins, losses, gain = _row(metric, BASE, tree)
    assert (wins, losses) == (9, 1)
    assert not gain
