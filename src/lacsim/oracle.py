"""Closed-form targets, evaluated directly from their defining sums.

Everything here is computed from the limit/partial-sum formulas alone, never
from the distributed recursions, so trace-versus-oracle agreement is a genuine
two-implementation check.  Each static target is the time-frozen case of its
dynamic form: the exponential and window sums are written once, and hop j of
a static target reads the field at step 0, where the dynamic target reads the
lagged time argument x_{i +- j}(k - j).

Each target has an array form (`exp_row`, ...) that gives its value at every
sensor 0..n-1 for one k.  It reads the field once through `evaluate_grid`
(steps 0..k for the dynamic targets) and adds shifted slices of that grid in
the order of the defining sum, hop by hop with the same running products, so
each entry equals, bit for bit, the sum taken one sensor at a time.  The
scalar form (`exp_target`, ...) keeps its signature and indexes the row.  Each
scalar form keeps a memo of its latest case only: the (field, parameters, n,
boundary) key, the grid read for it and its rows by k.  A sweep over one
case's (i, k) points, in any order, therefore reads the field once (a dynamic
target once per larger k) and builds each row once; a new key drops it all.
The field and a weight table count as the same only if they are the same
object, and a number only if its repr agrees (0.0 is not -0.0).

Boundary semantics: a Ring wraps indices modulo n; ZeroHalo (or any non-ring
boundary) means the zero-extended line, where indices outside 0..n-1
contribute zero and a sensor outside 0..n-1 takes the half-width or weight
row of the nearer end.  Such a sensor is computed on its own, unmemoised.
Truncated chains have no closed-form target.
"""
from __future__ import annotations

import math
import operator
import threading

import numpy as np

from .arbitrary_weights import WeightTable
from .chain import Ring, Truncated
from .errors import ValidationError
# evaluate_field is not called here, but stays a name of this module:
# perfbench/tracer.py wraps lacsim.oracle.evaluate_field
from .fields import evaluate_field, evaluate_grid  # noqa: F401
from .static_rules import _check_half_width, _check_rho

DEFAULT_TAIL = 1e-12


def _shifts(values: np.ndarray, n: int, boundary, lo: int, m: int, reach: int, zero=True):
    """`at(d)`: `values` (last axis: sensors 0..n-1) at sensors lo+d .. lo+m-1+d
    for |d| <= reach.  A ring wraps; the line gives 0.0 outside 0..n-1, or the
    nearer end's value when `zero` is false."""
    reach = max(reach, 0)
    idx = np.arange(lo - reach, lo + m + reach)
    if isinstance(boundary, Ring):
        padded = values[..., idx % n]
    else:
        padded = values[..., np.clip(idx, 0, n - 1)]
        if zero:
            padded = np.where((idx >= 0) & (idx < n), padded, 0.0)
    return lambda d: padded[..., reach + d:reach + d + m]


def _cone(x: np.ndarray, n: int, boundary, lo: int, m: int, reach: int, now):
    """`at(d)` of the (steps, sensors) grid `x` for |d| <= reach: at step 0
    when `now` is None (a static target), else on the space-time cone of
    round `now`, where hop d reads step now - |d|."""
    if now is None:
        return _shifts(x[0], n, boundary, lo, m, reach)
    at = _shifts(x[now - reach:now + 1], n, boundary, lo, m, reach)
    return lambda d: at(d)[reach - abs(d)]


def _geometric(at, rho, k):
    """lam * (x_i + sum_{j<=k} rho**j (x_{i-j} + x_{i+j})) over `at`."""
    total = at(0)
    power = 1.0
    for j in range(1, k + 1):
        power *= rho
        total = total + power * (at(-j) + at(j))
    return (1.0 - rho) / (1.0 + rho) * total


def _window(at, half_width, reach):
    """(x_i + sum_{j<=reach} (x_{i-j} + x_{i+j})) / (2 half_width + 1) over `at`."""
    total = at(0)
    for j in range(1, reach + 1):
        total = total + (at(-j) + at(j))
    return total / (2.0 * half_width + 1.0)


class _Memo:
    """One scalar target's latest case: its key, the field grid read for it
    and its rows by k.  A different key drops all three."""

    def __init__(self):
        self.key, self.x, self.rows = None, None, {}
        self.lock = threading.Lock()  # one case at a time, whatever the thread

    def at(self, field, i, n, boundary, params, k, plan, table=None):
        """The target at sensor i.  `params` (numbers as reprs) and `table`
        complete the case's key; `k` names the row; `plan()` validates the
        arguments and gives (steps, row).  A stored row was validated with
        the same key and k, so it is served without planning again."""
        if not isinstance(boundary, Ring) and not 0 <= i < n:
            steps, row = plan()
            return row(evaluate_grid(field, n, steps), i, 1).item(0)
        key = (field, table, n, boundary, params)
        with self.lock:
            old = self.key
            if old is None or old[0] is not field or old[1] is not table or old != key:
                self.key, self.x, self.rows = key, None, {}
            if k not in self.rows:
                steps, row = plan()
                if self.x is None or len(self.x) < steps:
                    self.x = evaluate_grid(field, n, steps)
                self.rows[k] = row(self.x, 0, n)
            return self.rows[k].item(i % n)


def _check_boundary(boundary):
    if isinstance(boundary, Truncated):
        raise ValidationError("truncated chains have no closed-form target")


def _check_ring(boundary, n, half_width, what="half-width"):
    if isinstance(boundary, Ring) and n < 2 * half_width + 1:
        raise ValidationError(f"ring of {n} sensors cannot host {what} {half_width}")


def _check_step(k):
    if k < 0:
        raise ValidationError(f"time step must be >= 0, got {k}")


def exp_tail_bound(rho: float, k: int, bound_m: float) -> float:
    """Magnitude of everything the k-term partial sum discards."""
    lam = (1.0 - rho) / (1.0 + rho)
    return lam * 2.0 * bound_m * rho ** (k + 1) / (1.0 - rho)


def _tail_hops(decay: float, bound_m: float, eps: float) -> int:
    """Hops needed before the geometric tail drops below eps."""
    if bound_m <= 0.0:
        return 0
    target = eps * (1.0 - decay) / (2.0 * bound_m)
    if target >= 1.0:
        return 0
    return max(1, math.ceil(math.log(target) / math.log(decay)))


# Each `_plan_*` validates its arguments and returns (steps, row), where
# `row(x, lo, m)` is the target at sensors lo..lo+m-1 from a field grid `x` of
# at least `steps` steps.  Its loop is the defining sum, one hop per pass.

def _plan_exp(field, rho, n, boundary, k, eps):
    _check_boundary(boundary)
    _check_rho("rho", rho)
    if k is None:
        if eps is None:
            eps = DEFAULT_TAIL * max(field.bound_m(), 1.0)
        k = _tail_hops(rho, (1.0 - rho) / (1.0 + rho) * field.bound_m(), eps)
    return 1, lambda x, lo, m: _geometric(_cone(x, n, boundary, lo, m, k, None), rho, k)


def _plan_asym(field, rb, rf, n, boundary, k, eps):
    _check_boundary(boundary)
    _check_rho("rho_back", rb)
    _check_rho("rho_forward", rf)
    if k is None:
        if eps is None:
            eps = DEFAULT_TAIL * max(field.bound_m(), 1.0)
        k = _tail_hops(max(rb, rf), field.bound_m(), eps)

    def row(x, lo, m):
        at = _shifts(x[0], n, boundary, lo, m, k)
        total = at(0)
        pb = pf = 1.0
        for j in range(1, k + 1):
            pb *= rb
            pf *= rf
            total = total + pb * at(-j)
            total = total + pf * at(j)
        return (1.0 - rb) * (1.0 - rf) / (1.0 - rb * rf) * total

    return 1, row


def _plan_window(half_width, n, boundary, k):
    _check_boundary(boundary)
    half_width = _check_half_width("half_width", half_width)
    _check_ring(boundary, n, half_width)
    reach = half_width if k is None else min(k, half_width)
    return 1, lambda x, lo, m: _window(_cone(x, n, boundary, lo, m, reach, None),
                                       half_width, reach)


# the latest half-widths checked, and them as ints: the plans for the k of one
# case check its widths once, and only the very same objects are not checked
_checked_widths = ((), ())


def _plan_variable_window(widths, n, boundary, k):
    global _checked_widths
    _check_boundary(boundary)
    seen, ints = _checked_widths
    if len(widths) != len(seen) or not all(map(operator.is_, widths, seen)):
        ints = tuple(_check_half_width("half-widths", w) for w in widths)
        _checked_widths = (widths, ints)
    widths = ints
    if len(widths) != n:
        raise ValidationError(f"need one half-width per sensor: got {len(widths)} for n={n}")
    _check_ring(boundary, n, max(widths))

    def row(x, lo, m):
        # each neighbor enters with the weight of its own window length
        at = _shifts(x[0], n, boundary, lo, m, max(widths))
        width = _shifts(np.asarray(widths), n, boundary, lo, m, max(widths), zero=False)
        li = width(0)
        reach = li if k is None else np.minimum(k, li)
        total = at(0) / (2.0 * li + 1.0)
        for j in range(1, int(reach.max()) + 1):
            for d in (-j, j):
                total = np.where(j <= reach, total + at(d) / (2.0 * width(d) + 1.0), total)
        return total

    return 1, row


def _plan_arbitrary(table, k, n, boundary):
    _check_boundary(boundary)
    _check_ring(boundary, n, table.radius, "radius")
    radius = table.radius

    def row(x, lo, m):
        at = _shifts(x[0], n, boundary, lo, m, min(k, radius))
        w = _shifts(table.weights.T, n, boundary, lo, m, 0, zero=False)(0)
        total = w[radius] * at(0)
        for j in range(1, min(k, radius) + 1):
            total = total + w[radius - j] * at(-j)
            total = total + w[radius + j] * at(j)
        return total / table.row_sum

    return 1, row


def _plan_dyn_exp(k, rho, n, boundary):
    _check_boundary(boundary)
    _check_rho("rho", rho)
    _check_step(k)
    return k + 1, lambda x, lo, m: _geometric(_cone(x, n, boundary, lo, m, k, k), rho, k)


def _plan_dyn_window(k, half_width, n, boundary):
    _check_boundary(boundary)
    half_width = _check_half_width("half_width", half_width)
    _check_ring(boundary, n, half_width)
    _check_step(k)
    reach = min(k, half_width)
    return k + 1, lambda x, lo, m: _window(_cone(x, n, boundary, lo, m, reach, k),
                                           half_width, reach)


def _row(field, n, plan) -> np.ndarray:
    steps, row = plan
    return row(evaluate_grid(field, n, steps), 0, n)


def exp_row(field, rho, *, n, boundary=Ring(), k=None, eps=None) -> np.ndarray:
    """`exp_target` at every sensor 0..n-1."""
    return _row(field, n, _plan_exp(field, rho, n, boundary, k, eps))


def asym_row(field, rho_back, rho_forward, *, n, boundary=Ring(), k=None,
             eps=None) -> np.ndarray:
    """`asym_target` at every sensor 0..n-1."""
    return _row(field, n, _plan_asym(field, rho_back, rho_forward, n, boundary, k, eps))


def window_row(field, half_width, *, n, boundary=Ring(), k=None) -> np.ndarray:
    """`window_target` at every sensor 0..n-1."""
    return _row(field, n, _plan_window(half_width, n, boundary, k))


def variable_window_row(field, half_widths, *, n, boundary=Ring(), k=None) -> np.ndarray:
    """`variable_window_target` at every sensor 0..n-1."""
    return _row(field, n, _plan_variable_window(tuple(half_widths), n, boundary, k))


def arbitrary_row(field, table: WeightTable, k, *, n, boundary=Ring()) -> np.ndarray:
    """`arbitrary_target` at every sensor 0..n-1."""
    return _row(field, n, _plan_arbitrary(table, k, n, boundary))


def dyn_exp_row(field, k, rho, *, n, boundary=Ring()) -> np.ndarray:
    """`dyn_exp_target` at every sensor 0..n-1."""
    return _row(field, n, _plan_dyn_exp(k, rho, n, boundary))


def dyn_window_row(field, k, half_width, *, n, boundary=Ring()) -> np.ndarray:
    """`dyn_window_target` at every sensor 0..n-1."""
    return _row(field, n, _plan_dyn_window(k, half_width, n, boundary))


_MEMOS = {name: _Memo() for name in ("exp", "asym", "window", "variable_window", "arbitrary",
                                     "dyn_exp", "dyn_window")}


def exp_target(field, i, rho, *, n, boundary=Ring(), k=None, eps=None):
    """Symmetric geometric average: lam * (x_i + sum_j rho**j (x_{i-j} + x_{i+j})).

    Truncate at `k` hops, or at tail tolerance `eps` (default 1e-12 * M).
    """
    return _MEMOS["exp"].at(field, i, n, boundary, repr(rho), (k, eps),
                            lambda: _plan_exp(field, rho, n, boundary, k, eps))


def asym_target(field, i, rho_back, rho_forward, *, n, boundary=Ring(), k=None, eps=None):
    """Direction-dependent geometric average."""
    return _MEMOS["asym"].at(field, i, n, boundary, repr((rho_back, rho_forward)), (k, eps),
                             lambda: _plan_asym(field, rho_back, rho_forward, n, boundary,
                                                k, eps))


def window_target(field, i, half_width, *, n, boundary=Ring(), k=None):
    """Mean of the 2*half_width+1 window; `k` truncates to the growing phase."""
    return _MEMOS["window"].at(field, i, n, boundary, repr(half_width), k,
                               lambda: _plan_window(half_width, n, boundary, k))


def variable_window_target(field, i, half_widths, *, n, boundary=Ring(), k=None):
    """Per-sensor-window final value: each neighbor enters with the weight of
    its own window length, so the coefficients need not sum to one."""
    widths = tuple(half_widths)
    return _MEMOS["variable_window"].at(field, i, n, boundary, widths, k,
                                        lambda: _plan_variable_window(widths, n, boundary, k))


def arbitrary_target(field, i, table: WeightTable, k, *, n, boundary=Ring()):
    """Partial sum of the banded weighted average after k rounds."""
    return _MEMOS["arbitrary"].at(field, i, n, boundary, None, k,
                                  lambda: _plan_arbitrary(table, k, n, boundary), table)


def dyn_exp_target(field, i, k, rho, *, n, boundary=Ring()):
    """Geometric average with lagged time arguments."""
    return _MEMOS["dyn_exp"].at(field, i, n, boundary, repr(rho), k,
                                lambda: _plan_dyn_exp(k, rho, n, boundary))


def dyn_window_target(field, i, k, half_width, *, n, boundary=Ring()):
    """Lagged window mean; the reach grows with k until the window is full."""
    return _MEMOS["dyn_window"].at(field, i, n, boundary, repr(half_width), k,
                                   lambda: _plan_dyn_window(k, half_width, n, boundary))
