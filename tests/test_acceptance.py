"""Acceptance gate: one test per criterion, each printing its pass/fail line.

Two criteria encode numeric claims that exact computation contradicts; they
are asserted as stated and are expected to fail honestly:
  - criterion 4: the spatial-window half-gain root sits ~11.5-11.8% from the
    1.7/(L+1/2) rule for L in {5, 10, 20}, outside the stated 10%;
  - criterion 7: the variance-match ratio at L = 5 is exactly
    935/729 ~ 1.2826, above the stated 1.25 bound.
"""
import re

import pytest

from lacsim import acceptance


# the detail lines of the two frequency-response criteria, runtimes removed,
# as printed before their closed forms and fit lengths were shared with the
# CLI sweep
FREQ_DETAILS = {
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
    if result.index in FREQ_DETAILS:
        assert re.sub(r"runtime \d+\.\d+s", "runtime", result.detail) == FREQ_DETAILS[result.index]
