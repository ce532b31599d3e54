"""Acceptance gate: one test per criterion, each printing its pass/fail line.

Two criteria encode numeric claims that exact computation contradicts; they
are asserted as stated and are expected to fail honestly:
  - criterion 4: the spatial-window half-gain root sits ~11.5-11.8% from the
    1.7/(L+1/2) rule for L in {5, 10, 20}, outside the stated 10%;
  - criterion 7: the variance-match ratio at L = 5 is exactly
    935/729 ~ 1.2826, above the stated 1.25 bound.
"""
import re

import numpy as np
import pytest

import lacsim.chain
from lacsim import acceptance


# detail lines, runtimes removed: criterion 1's as printed when it compared
# each trace point with a scalar target, and the two frequency-response
# criteria's as printed before their closed forms and fit lengths were shared
# with the CLI sweep
DETAILS = {
    1: "worst |trace-oracle| = 2.831e-15 at dyn_exp seed=12 Ring i=0 k=38 (tol 1e-10), "
       "runtime < 5s",
    3: "exp gain err 3.56e-11 (tol 1e-6), phase 3.02e-16 (tol 1e-9), "
       "window gain err 3.33e-16 (tol 1e-10), runtime < 2s",
    5: "worst gain err 4.94e-11 (tol 1e-3), DC err 2.69e-10 (tol 1e-9)",
}


@pytest.mark.parametrize("criterion", acceptance.CRITERIA,
                         ids=[f"criterion_{i}" for i in range(1, 11)])
def test_criterion(criterion):
    result = criterion()
    line = f"{'PASS' if result.passed else 'FAIL'} criterion {result.index}: " \
           f"{result.name} - {result.detail}"
    print(line)
    assert result.passed, line
    if result.index in DETAILS:
        assert re.sub(r"runtime \d+\.\d+s", "runtime", result.detail) == DETAILS[result.index]


def test_a_criterion_past_its_runtime_bound_fails():
    body = lambda: (True, "ok")
    late = acceptance._criterion(11, "trivial", limit=0.0)(body)()
    assert not late.passed and "runtime" in late.detail
    assert late.detail.startswith("ok, runtime ") and late.detail.endswith("s < 0s")
    free = acceptance._criterion(11, "trivial")(body)()
    assert free.passed and free.detail == "ok"
    assert (free.index, free.name, free.elapsed >= 0.0) == (11, "trivial", True)


def test_criterion_10_fails_when_a_rule_reads_two_hops_away(monkeypatch):
    # the exponential rule made to read the sensor two hops to its left as
    # well: a bump then moves y_i(k) at a distance k + 1
    real = lacsim.chain.exp_transition
    monkeypatch.setattr(lacsim.chain, "exp_transition", lambda k, own, *rest:
                        real(k, own, *rest) + (1e-3 * np.roll(own[0], 2) if k else 0.0))
    result = acceptance.criterion_10()
    assert not result.passed
    assert "beyond the bump's reach 0;" not in result.detail


def test_criterion_9_keeps_its_name_when_a_figure_csv_loses_a_row(monkeypatch):
    passing = acceptance.criterion_9()
    real = acceptance.write_figures

    def short(out_dir):
        paths = real(out_dir)
        lines = paths[0].read_text().splitlines(keepends=True)
        paths[0].write_text("".join(lines[:-1]))
        return paths

    monkeypatch.setattr(acceptance, "write_figures", short)
    failing = acceptance.criterion_9()
    assert passing.passed and not failing.passed
    assert "rows, expected" in failing.detail
    assert failing.name == passing.name
