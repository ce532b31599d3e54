"""compare.py must report two sets whose medians or spreads break a bound.

Run with:  python -m pytest -q perfbench/test_compare.py
"""
import pytest

from compare import check_sets

SPEC = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]}


def _runs(setup: list[float], rate: list[float], failed: int = 0) -> list[dict]:
    return [{"exit": 0, "correct": True, "attempted": 10, "failed": failed, "seed": i,
             "metrics": {"setup_s": {"value": s, "unit": "s"},
                         "rate": {"value": r, "unit": "1/s"}}}
            for i, (s, r) in enumerate(zip(setup, rate))]


STEADY = _runs([1.0, 1.01, 0.99, 1.0, 1.02], [100, 101, 99, 100, 102])
FASTER = _runs([1.0, 1.01, 0.99, 1.0, 1.02], [120, 121, 119, 120, 122])
WIDE_SETUP = _runs([0.5, 1.0, 1.5, 1.0, 2.0], [100, 101, 99, 100, 102])


def test_same_sets_pass():
    assert check_sets(SPEC, "w", [STEADY, STEADY])[1] == []


@pytest.mark.parametrize("sets", [[STEADY, FASTER], [FASTER, STEADY]], ids=["B-better", "A-better"])
def test_median_gap_fails_in_either_direction(sets):
    problems = check_sets(SPEC, "w", sets)[1]
    assert len(problems) == 1 and "rate" in problems[0] and "differ" in problems[0]


def test_setup_spread_is_checked():
    problems = check_sets(SPEC, "w", [STEADY, WIDE_SETUP])[1]
    assert any("setup_s" in p and "spread" in p for p in problems)


def test_failed_share_must_match():
    problems = check_sets(SPEC, "w", [STEADY, _runs([1.0] * 5, [100] * 5, failed=1)])[1]
    assert any("failed share" in p for p in problems)


def test_failed_run_is_reported():
    broken = STEADY[:4] + [{"exit": 1, "seed": 9}]
    problems = check_sets(SPEC, "w", [STEADY, broken])[1]
    assert problems == ["w set B: runs failed or incorrect: seeds [9]"]
