"""Closed-form targets, evaluated directly from their defining sums.

Everything here is computed from the limit/partial-sum formulas alone, never
from the distributed recursions, so trace-versus-oracle agreement is a genuine
two-implementation check.  Each static target is the time-frozen case of its
dynamic form: hop j of a static target reads the field at step 0, where the
dynamic target reads the lagged time argument x_{i +- j}(k - j).  Three static
sums serve the five static rules: the window is the exponential sum at
rho = 1, the asymmetric and banded rules share one two-sided weighted sum
(running powers of their two rates, or the table's rows taken outward), and
the per-sensor window, whose terms are divisions, keeps its own.

`rows(algo, field, n, boundary, ks)` gives the target of a rule object
(`ExponentialWeighting(0.8)`, ...) at every sensor 0..n-1 for one k, or a
block of rows for a range of k.  It reads the field once through
`evaluate_grid` (steps 0..k for the dynamic targets) and adds shifted slices
of that grid in the order of the defining sum, hop by hop with the same
running products, so each entry equals, bit for bit, the sum taken one sensor
at a time.  A static row k goes on from the running sum of the rows before
it, so rows 0..K take K hops (a smaller k starts again from hop 0).  A
dynamic row reads its own round's space-time cone once, as two views of one
padded slab, forms all k hop terms with one add and one multiply and adds
them to the running total in hop order: a few numpy calls, not k Python steps.

The scalar forms (`exp_target`, ...) index the same rows.  Each keeps a memo
of its latest case only: the (field, n, boundary, parameters) objects,
the case's plan, the grid read for it and its rows by k.  A call names the
same case only with the very same objects, n aside: a plain int equal to the
last n (such as a fresh `len(values)`) is the same n.  Any other object, even
an equal one (a fresh list of half-widths, `np.float64(0.8)` for 0.8), starts
a new case, whose rule object is built, and so checked, and planned once.  A
sweep over one case's (i, k) points, in any order, therefore reads the field
once (a dynamic target again only when k passes the steps held, each read
twice as long as the last) and builds each row once.  Built
rows are kept as memoryviews, which a hit indexes for its float with no lock,
plan or check beyond the `is` tests of its arguments, made in line in
`_Memo.at`.

Boundary semantics: a Ring wraps indices modulo n; ZeroHalo means the
zero-extended line, where indices outside 0..n-1 contribute zero.  Targets
exist for the chain's own sensors 0..n-1, which a trace holds; Truncated
chains have none.  A case is checked as `run` checks it: the rule's numbers
(a banded rule's table too) by its class, its fit to the chain by
`chain.check_fit`.  A geometric tail is bounded by M = max |x| on the chain.
"""
from __future__ import annotations

import itertools
import math
import operator
import threading

import numpy as np

from .arbitrary_weights import BandedWeighting, WeightTable
from .chain import TIME_VARYING, Ring, Truncated, ZeroHalo, check_fit
from .dynamic_rules import DynamicExponential, DynamicWindow
from .errors import OutOfDomainError, ValidationError
# evaluate_field is not called here, but stays a name of this module:
# perfbench/tracer.py wraps lacsim.oracle.evaluate_field
from .fields import evaluate_field, evaluate_grid  # noqa: F401
from .static_rules import (AsymmetricWeighting, ExponentialWeighting, FiniteWindow,
                           PerSensorWindow, _check_integer)

DEFAULT_TAIL = 1e-12


def _pad(values: np.ndarray, n: int, boundary, reach: int):
    """`values` (last axis: sensors 0..n-1) at sensors -reach .. n-1+reach:
    a ring wraps, the line gives 0.0 outside 0..n-1."""
    if isinstance(boundary, Ring):
        return values[..., np.arange(-reach, n + reach) % n]
    padded = np.zeros(values.shape[:-1] + (n + 2 * reach,))
    padded[..., reach:reach + n] = values
    return padded


def _shifts(values: np.ndarray, n: int, boundary, reach: int):
    """`at(d)`: `values` at sensors d .. n-1+d, sliced from one `_pad` copy
    for |d| <= reach, made again for reach 2|d| when a larger |d| comes."""
    padded = _pad(values, n, boundary, reach)

    def at(d):
        nonlocal reach, padded
        if abs(d) > reach:
            reach = 2 * abs(d)
            padded = _pad(values, n, boundary, reach)
        return padded[..., reach + d:reach + d + n]
    return at


def _cone(x: np.ndarray, n: int, boundary, reach: int):
    """The space-time cone of the last step of the (steps, sensors) grid `x`,
    as two (reach + 1, n) views of one padded slab: row j of the first holds
    x_{i-j} and of the second x_{i+j}, both j steps before the last, for the
    sensors i = 0..n-1 (so both rows 0 hold x_i at the last step).  A static
    target reads step 0, `_shifts(x[0], ...)`."""
    slab = _pad(x[::-1][:reach + 1], n, boundary, reach)
    # row j of a view starts j slab rows and -j or +j columns on from x_i at
    # the last step, so the views are the flat slab cut into rows of width -+ 1
    # values (at least n), with room after it for the last row of width + 1
    width = slab.shape[1]
    flat = np.concatenate((slab.ravel(), np.zeros(2 * reach + 1)))
    back, ahead = max(width - 1, n), width + 1
    return (flat[reach:reach + (reach + 1) * back].reshape(reach + 1, back)[:, :n],
            flat[reach:reach + (reach + 1) * ahead].reshape(reach + 1, ahead)[:, :n])


# Hop j's terms of the exponential sum, sensors i - j and i + j: one
# definition, taken one hop at a time by `_geometric` and for all hops of a
# cone at once by `_dyn_geometric`.

def _geometric_hop(back, ahead, power):
    return power * (back + ahead)


# Each sum yields its running total over `at` after hops 0, 1, 2, ...: hop j
# adds the terms of sensors i - j and i + j, in the order of the defining sum.

def _geometric(at, rho):
    """x_i + sum_j rho**j (x_{i-j} + x_{i+j}); at rho = 1.0, where every
    product with a power is exact, the window's x_i + sum_j (x_{i-j} + x_{i+j})."""
    total, power = at(0), 1.0
    for j in itertools.count(1):
        yield total
        power *= rho
        total = total + _geometric_hop(at(-j), at(j), power)


def _two_sided(at, w0, back, ahead):
    """w0 x_i + sum_j (b_j x_{i-j} + a_j x_{i+j}), with b_j and a_j taken in
    turn from the weight iterators `back` and `ahead`."""
    total = w0 * at(0)
    for j in itertools.count(1):
        yield total
        total = total + next(back) * at(-j)
        total = total + next(ahead) * at(j)


def _cone_totals(first, terms):
    """The running totals of a cone's sum, as rows: `first`, then hop j's row
    of `terms` added for j = 1, 2, ... in order, as the hop loop adds them
    (row 0 of `terms` is replaced by `first`)."""
    terms[0] = first
    return iter(np.add.accumulate(terms, axis=0))


def _dyn_geometric(cone, rho):
    """`_geometric` over a `_cone`, its powers by the same running products."""
    powers = np.full((len(cone[0]), 1), rho)
    powers[0] = 1.0
    return _cone_totals(cone[0][0], _geometric_hop(*cone, np.multiply.accumulate(powers)))


def _dyn_window(cone):
    """`_geometric` at rho = 1.0 over a `_cone`, its products with 1.0 left out."""
    return _cone_totals(cone[0][0], cone[0] + cone[1])


def _variable_window(at, width):
    """x_i / (2 L_i + 1) + sum_{j <= L_i} x_{i+-j} / (2 L_{i+-j} + 1), with
    `width(d)` the half-widths L: each neighbor over its own window length."""
    li = width(0)
    total = at(0) / (2.0 * li + 1.0)
    for j in itertools.count(1):
        yield total
        for d in (-j, j):
            total = np.where(j <= li, total + at(d) / (2.0 * width(d) + 1.0), total)


_NO = object()  # no second number: a None one is passed on, and rejected


class _Memo:
    """One scalar target's latest case with its plan and rows by k, the field
    grid read for it (`exact` once a longer read met the end of a table) and,
    for a static target, its running sum (generator, hops done, total).  A
    case is its objects, n by value: a hit tests each part with `is` in line,
    and any other object starts a new case."""

    def __init__(self, rule):
        self.rule = rule  # the rule class, built from a new case's numbers
        self.last, self.x, self.exact, self.run = ((_NO,) * 5, None, {}), None, False, None
        self.lock = threading.Lock()  # one case at a time, whatever the thread

    def at(self, i, k, field, n, boundary, a, b=_NO):
        """The target at sensor i of the case (field, n, boundary, a, b)
        of `rule(a)` or `rule(a, b)`, row k.  The very objects of the last
        case, n equal to its n if a plain int, with an int i and an int or
        None k that names a built row, are served without the lock: `last`
        holds a case, its plan and its rows, read and replaced as one."""
        last = self.last
        (lf, ln, lboundary, la, lb), plan, rows = last
        if ((same := field is lf and (n is ln or n.__class__ is int and n == ln)
                and boundary is lboundary and a is la and b is lb)
                and i.__class__ is int and (k is None or k.__class__ is int)
                and (row := rows.get(k)) is not None and 0 <= i < n):
            return row[i]
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise ValidationError(f"sensor index must be an integer, got {i!r}")
        with self.lock:
            if not same or self.last is not last:  # a new case, or `last` replaced since
                rule = self.rule(a) if b is _NO else self.rule(a, b)
                plan, rows = _plan(rule, n, boundary), {}
                case = (field, n, boundary, a, b)
                self.last, self.x, self.exact, self.run = (case, plan, rows), None, False, None
            hops, steps = _reach(plan, k)
            if not 0 <= i < n:
                raise ValidationError(f"sensor index must lie in 0..{n - 1}, got {i!r}")
            if (row := rows.get(k)) is None:
                if self.x is None or len(self.x) < steps:
                    self.x = self._read(field, n, steps)
                row, self.run = _carry(plan, self.x[:steps], hops, self.run)
                # a memoryview: a hit indexes it for a float without `item`
                row = rows[k] = memoryview(row)
            return row[i]

    def _read(self, field, n, steps):
        """The case's field grid to at least `steps` steps.  A read after the
        first takes twice the steps held, so a sweep to larger k reads the
        field O(log k) times; rows are keyed by step, so a longer grid holds
        the same values.  Once a longer read meets the end of a table, every
        read takes exactly `steps`, and raises, or not, as that read does."""
        more = 0 if self.x is None or self.exact else 2 * len(self.x)
        if more > steps:
            try:
                return evaluate_grid(field, n, more)
            except OutOfDomainError:
                self.exact = True
        return evaluate_grid(field, n, steps)


def _carry(plan, x, hops, run):
    """A plan's row after `hops` hops over the field grid `x` (None: its tail
    hops), and the run (sum, hops, total) that a later row goes on from: a
    static row (step 0 alone) goes on from `run` unless `run` has passed `hops`."""
    _, _, tail, sums, finish = plan
    if hops is None:  # M: step 0 at sensors 0..n-1 holds every value the sum adds
        hops = tail(float(np.abs(x[0]).max()))
    static = len(x) == 1
    gen, done, total = (run if static and run and run[1] <= hops
                        else (sums(x, hops), -1, None))
    if hops > done:
        total = next(itertools.islice(gen, hops - done - 1, None))
    return finish(total), (gen, hops, total) if static else None


def _tail_hops(decay: float, m: float, eps: float) -> int:
    """Hops needed before the geometric tail on values |x| <= m drops below eps."""
    target = eps * (1.0 - decay) / (2.0 * m) if m > 0.0 else math.inf
    return 0 if target >= 1.0 else max(1, math.ceil(math.log(target) / math.log(decay)))


def _tail(decay, scale):
    """The hops of k=None for M = max |x|: to a tail of `decay` on scale * M
    below 1e-12 * max(M, 1)."""
    return lambda m: _tail_hops(decay, scale * m, DEFAULT_TAIL * max(m, 1.0))


def _reach(plan, k):
    """(hops, steps) of row k: k checked and its hops capped, or None for
    k=None (the tail hops), over the field's steps 0..k (dynamic) or 0 (static)."""
    cap, dynamic, tail = plan[:3]
    if k is None and tail is not None:
        return None, 1
    k = _check_integer("time step", k, 0)
    return min(k, cap), k + 1 if dynamic else 1


# Each `_plan_*` takes a checked case and returns (tail, sums, finish), which
# `_plan` heads with the rule's cap of hops and whether it reads the field past
# step 0 (`chain.TIME_VARYING`), and `_reach` turns into a row's hops and
# steps: `sums(x, hops)` yields the running totals from the field grid `x` of
# those steps, and the target is `finish` of the total after those hops.
# `tail(M)` gives the hops of k=None, and a target without one needs k.

def _plan_exp(algo, n, boundary):
    rho = algo.rho
    lam = (1.0 - rho) / (1.0 + rho)
    return (_tail(rho, lam),
            lambda x, hops: _geometric(_shifts(x[0], n, boundary, hops), rho),
            lambda total: lam * total)


def _plan_asym(algo, n, boundary):
    rb, rf = algo.rho_back, algo.rho_forward
    c = (1.0 - rb) * (1.0 - rf) / (1.0 - rb * rf)
    # the weights rb**j and rf**j as running products, a hop loop's `p *= rb`
    return (_tail(max(rb, rf), 1.0), lambda x, hops: _two_sided(
        _shifts(x[0], n, boundary, hops), 1.0,
        *(itertools.accumulate(itertools.repeat(r), operator.mul) for r in (rb, rf))),
        lambda total: c * total)


def _plan_window(algo, n, boundary):
    half_width = algo.half_width
    return (lambda m: half_width,
            lambda x, hops: _geometric(_shifts(x[0], n, boundary, half_width), 1.0),
            lambda total: total / (2.0 * half_width + 1.0))


def _plan_variable_window(algo, n, boundary):
    widths = algo.half_widths
    reach = max(widths)
    return (lambda m: reach, lambda x, hops: _variable_window(
        _shifts(x[0], n, boundary, reach), _shifts(np.asarray(widths), n, boundary, reach)),
        lambda total: total)


def _plan_arbitrary(algo, n, boundary):
    table, r = algo.table, algo.table.radius
    w = table.weights.T  # rows by offset -r..r
    return (None, lambda x, hops: _two_sided(
        _shifts(x[0], n, boundary, r), w[r], iter(w[:r][::-1]), iter(w[r + 1:])),
        lambda total: total / table.row_sum)


def _plan_dyn_exp(algo, n, boundary):
    rho = algo.rho
    lam = (1.0 - rho) / (1.0 + rho)
    return (None, lambda x, hops: _dyn_geometric(_cone(x, n, boundary, hops), rho),
            lambda total: lam * total)


def _plan_dyn_window(algo, n, boundary):
    half_width = algo.half_width
    return (None, lambda x, hops: _dyn_window(_cone(x, n, boundary, hops)),
            lambda total: total / (2.0 * half_width + 1.0))


_PLANS = {ExponentialWeighting: _plan_exp, AsymmetricWeighting: _plan_asym,
          FiniteWindow: _plan_window, PerSensorWindow: _plan_variable_window,
          BandedWeighting: _plan_arbitrary, DynamicExponential: _plan_dyn_exp,
          DynamicWindow: _plan_dyn_window}


def _plan(algo, n, boundary):
    """The plan of the rule object `algo` on a chain of n sensors, once the
    case is checked: its boundary and its fit by `check_fit`."""
    if type(algo) not in _PLANS:
        raise ValidationError(f"{type(algo).__name__} has no closed-form target")
    n = _check_integer("n", n, 1)
    if not isinstance(boundary, (Ring, ZeroHalo)):
        raise ValidationError("truncated chains have no closed-form target"
                              if isinstance(boundary, Truncated) else
                              f"boundary must be Ring() or ZeroHalo(), got {boundary!r}")
    reach = check_fit(algo, n, isinstance(boundary, Ring))
    return (math.inf if reach is None else reach, isinstance(algo, TIME_VARYING),
            *_PLANS[type(algo)](algo, n, boundary))


def rows(algo, field, n, boundary=Ring(), ks=None) -> np.ndarray:
    """The target of the rule `algo` at every sensor 0..n-1: row k for an int
    `ks`, the final value for None (the exponential and asymmetric rules to a
    tail below 1e-12 * max(M, 1), M = max |x| on the chain; a deeper sum
    needs k), or for a range one (len(ks), n) block from one field read, a
    static sum going on from row to row."""
    plan = _plan(algo, n, boundary)
    block = isinstance(ks, range)
    reach = [_reach(plan, k) for k in (ks if block else (ks,))]
    x = evaluate_grid(field, n, max((steps for _, steps in reach), default=0))
    out, run = np.empty((len(reach), n)), None
    for row, (hops, steps) in zip(out, reach):
        row[:], run = _carry(plan, x[:steps], hops, run)
    return out if block else out[0]


# each target's memo, in the order of _PLANS, its `at` bound once
(_exp_at, _asym_at, _window_at, _variable_window_at, _arbitrary_at, _dyn_exp_at,
 _dyn_window_at) = (_Memo(rule).at for rule in _PLANS)


def exp_target(field, i, rho, *, n, boundary=Ring(), k=None):
    """Symmetric geometric average: lam * (x_i + sum_j rho**j (x_{i-j} + x_{i+j})).

    Truncate at `k` hops, or for None once the tail is below 1e-12 * max(M, 1).
    """
    return _exp_at(i, k, field, n, boundary, rho)


def asym_target(field, i, rho_back, rho_forward, *, n, boundary=Ring(), k=None):
    """Direction-dependent geometric average."""
    return _asym_at(i, k, field, n, boundary, rho_back, rho_forward)


def window_target(field, i, half_width, *, n, boundary=Ring(), k=None):
    """Mean of the 2*half_width+1 window; `k` truncates to the growing phase."""
    return _window_at(i, k, field, n, boundary, half_width)


def variable_window_target(field, i, half_widths, *, n, boundary=Ring(), k=None):
    """Per-sensor-window final value: each neighbor enters with the weight of
    its own window length, so the coefficients need not sum to one."""
    return _variable_window_at(i, k, field, n, boundary, tuple(half_widths))


def arbitrary_target(field, i, table: WeightTable, k, *, n, boundary=Ring()):
    """Partial sum of the banded weighted average after k rounds."""
    return _arbitrary_at(i, k, field, n, boundary, table)


def dyn_exp_target(field, i, k, rho, *, n, boundary=Ring()):
    """Geometric average with lagged time arguments."""
    return _dyn_exp_at(i, k, field, n, boundary, rho)


def dyn_window_target(field, i, k, half_width, *, n, boundary=Ring()):
    """Lagged window mean; the reach grows with k until the window is full."""
    return _dyn_window_at(i, k, field, n, boundary, half_width)
