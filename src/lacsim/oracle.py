"""Closed-form targets, evaluated directly from their defining sums.

Everything here is computed from the limit/partial-sum formulas alone, never
from the distributed recursions, so trace-versus-oracle agreement is a genuine
two-implementation check.  Each static target is the time-frozen case of its
dynamic form: hop j of a static target reads the field at step 0, where the
dynamic target reads the lagged time argument x_{i +- j}(k - j).  Each sum is
a running total over hops 0, 1, 2, ..., hop j adding the terms of sensors
i - j and i + j in the order of the defining sum.  The window is the
exponential sum at rho = 1, the asymmetric and banded rules share one
two-sided weighted sum (running powers of their two rates, or the table's rows
taken outward), and the per-sensor window adds each neighbor over its own
window length, a term past L_i being -0.0, which leaves every total as it is.

`rows(algo, field, n, boundary, ks)` gives the target of a rule object
(`ExponentialWeighting(0.8)`, ...) at every sensor 0..n-1 for one k, or a
block of rows for a range of k.  It reads the field once through
`evaluate_grid` (steps 0..k for the dynamic targets) and sums all its rows in
one loop over tiles of (hops x rows x sensors), of at most `_TILE_VALUES`
values (one hop of one row at least).  A tile takes the grid's rows of its
steps (0, or k - j for a dynamic target) at the columns of sensors i -+ j, a
ring's modulo n and the line's off the chain a column of zeros, and reads its
hop terms as diagonal views of them.  Its running totals go on from those the
last tile carried, by `np.add.accumulate`, or by one add a hop where a hop has
many values: the operands and their order are a hop loop's, so each entry is,
bit for bit, the sum taken one sensor at a time.  A static block is one sum,
read after each row's hops; a dynamic row is a sum of its own.  Memory is the
grid and a few tiles, however long the sum.

The scalar forms (`exp_target`, ...) index the same rows.  Each keeps a memo
of its latest case only: the (field, n, boundary, parameters) objects,
the case's plan, the grid read for it and its rows by k.  A call names the
same case only with the very same objects, n aside: a plain int equal to the
last n (such as a fresh `len(values)`) is the same n.  Any other object, even
an equal one (a fresh list of half-widths, `np.float64(0.8)` for 0.8), starts
a new case, whose rule object is built, and so checked, and planned once.  A
sweep over one case's (i, k) points, in any order, reads the field a few
times (`_Memo._read`) and builds each row once, a miss at row k building a
block of rows from k on (`_Memo._build`).  Built rows are kept as
memoryviews, which a hit indexes for its float with no lock, plan or check
beyond the `is` tests of its arguments, made in line in `_Memo.at`.

Boundary semantics: a Ring wraps indices modulo n; ZeroHalo means the
zero-extended line, where indices outside 0..n-1 contribute zero.  Targets
exist for the chain's own sensors 0..n-1, which a trace holds; Truncated
chains have none.  A case is checked as `run` checks it: the rule's numbers
(a banded rule's table too) by its class, its fit to the chain by
`chain.check_fit`.  A geometric tail is bounded by M = max |x| on the chain.
"""
from __future__ import annotations

import bisect
import itertools
import math
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
# values of one tile of `_sums` (hops x rows x sensors; one hop of one row at
# least), and at most of a memo's block of rows; set by timing criterion 1's sweeps
_TILE_VALUES = 4096
# values a hop from which a tile is summed by one add a hop, not by
# `np.add.accumulate` (5-9 ns a value; an add 1.2 us a call, 2-core x86-64)
_ADD_FROM = 256


def _diagonals(slab, shape, first, strides):
    """A view of `slab`, a C-contiguous result of `take`, of `shape`, from its
    value `first` on with `strides` counted in values."""
    size = slab.itemsize
    return np.ndarray(shape, slab.dtype, slab, first * size, [d * size for d in strides])


def _sums(plan, x, ks, run=None):
    """The rows ks, checked and in increasing k by a fixed step (or [None], the
    tail's row), over the field grid `x`, and the run (hops, total) that a later
    static row goes on from: a static block goes on from `run` unless `run` has
    passed its first row."""
    cap, dynamic, ring, tail, source, first, terms, finish = plan
    n = x.shape[1]
    if not ks:
        return np.empty((0, n)), run
    hops = [tail(float(np.abs(x[0]).max())) if k is None else min(k, cap) for k in ks]
    # a dynamic row is a sum of its own from its step k, a static block one sum;
    # hops grow with k, so the sums still adding terms are the last ones
    bases = list(ks) if dynamic else [0]
    ends, top, lag = (hops if dynamic else hops[-1:]), hops[-1], int(dynamic)
    gap = bases[-1] - bases[-2] if len(bases) > 1 else 0
    src = source(x)
    # the columns of sensors -top .. n - 1 + top: a ring wraps modulo n, and on
    # the line a sensor off the chain is column n
    cols = np.arange(-top, n + top)
    cols = cols % n if ring else np.where((cols >= 0) & (cols < n), cols, n)
    if dynamic or not run or run[0] > hops[0]:
        j, carry = 1, first(src[bases])
    else:
        j, carry = run[0] + 1, np.array([run[1]])
    out, at_hops = np.empty((len(hops), n)), np.array(hops)
    seq = np.arange(len(hops)) if dynamic else np.zeros(len(hops), int)
    if done := bisect.bisect_left(hops, j):
        out[:done] = carry[seq[:done]]
    while j <= top:
        live = bisect.bisect_left(ends, j)
        span = min(max(1, _TILE_VALUES // ((len(ends) - live) * n)), top - j + 1)
        # the steps k - j - span + 1 .. k - j of the live rows (dynamic; a step
        # below 0, past a row's own hops, reads step 0 for a sum not used) or
        # step 0, at sensors i - j - span + 1 .. i - j and i + j .. i + j + span - 1
        lo, hi = bases[live] - lag * (j + span - 1), bases[-1] - lag * j + 1
        grid = src[lo:hi] if lo >= 0 else src[np.maximum(np.arange(lo, hi), 0)]
        if not ring:  # a column of zeros for the sensors off the line
            grid = np.concatenate((grid, np.zeros((len(grid), 1))), axis=1)
        back = grid.take(cols[top - j - span + 1:top - j + n], axis=1)
        ahead = grid.take(cols[top + j:top + j + n + span - 1], axis=1)
        # hop j + h of live row r at sensor i: back[t, span - 1 - h + i] and
        # ahead[t, h + i] of slab row t = span - 1 - h + r gap (dynamic) or 0
        w, shape = back.shape[1], (span, len(ends) - live, n)
        tile = terms(_diagonals(back, shape, (span - 1) * (lag * w + 1),
                                (-lag * w - 1, lag * gap * w, 1)),
                     _diagonals(ahead, shape, (span - 1) * lag * w,
                                (1 - lag * w, lag * gap * w, 1)), np.arange(j, j + span))
        tile[0] += carry[live:]
        if tile[0].size < _ADD_FROM:
            np.add.accumulate(tile, out=tile)
        else:
            for total, term in zip(tile, tile[1:]):
                np.add(total, term, out=term)
        per = len(tile) // span  # terms a hop: one, or two for a two-sided sum
        if done < (end := bisect.bisect_left(hops, j + span)):  # rows ending here
            now, done = slice(done, end), end
            out[now] = tile[per * at_hops[now] - (per * (j - 1) + 1), seq[now] - live]
        carry[live:] = tile[-1]
        j += span
    return finish(out), None if dynamic else (top, carry[0])


def _powers(rate):
    """`at(js)`: rate**j for the hops js, the running products of a hop loop's
    `p *= rate` from p = 1.0, made again twice as long when a larger j comes."""
    table = np.ones(1)

    def at(js):
        nonlocal table
        if js[-1] >= len(table):
            table = np.full(2 * js[-1] + 1, rate)
            table[0] = 1.0
            table = np.multiply.accumulate(table)
        return table[js, None, None]
    return at


def _two_sided(back, ahead):
    """Hop j's terms back then ahead, as terms 2j - 1 and 2j of the sum."""
    return np.stack((back, ahead), axis=1).reshape(-1, *back.shape[1:])


_NO = object()  # no second number: a None one is passed on, and rejected


class _Memo:
    """One scalar target's latest case with its plan and rows by k, the field
    grid read for it (`exact` once a longer read met the end of a table) and,
    for a static target, its run (hops, total).  A case is its objects, n by
    value: a hit tests each part with `is` in line, and any other object
    starts a new case."""

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
            steps = _steps(plan, k)
            if not 0 <= i < n:
                raise ValidationError(f"sensor index must lie in 0..{n - 1}, got {i!r}")
            if (row := rows.get(k)) is None:
                if self.x is None or len(self.x) < steps:
                    self.x = self._read(field, n, steps)
                row = self._build(plan, rows, k, n)
            return row[i]

    def _build(self, plan, rows, k, n):
        """Row k, built with the rows after it that fit the cap's values and, for
        a dynamic target, the steps held, stopping before a row built; a static
        block goes on from the run."""
        block = [None]
        if k is not None:
            end = int(k) + max(1, _TILE_VALUES // n)
            block = list(itertools.takewhile(lambda j: j not in rows, range(
                int(k), min(end, len(self.x)) if plan[1] else end)))
        built, self.run = _sums(plan, self.x, block, self.run)
        # memoryviews: a hit indexes one for a float without `item`
        rows.update(zip(block, map(memoryview, built)))
        return rows[k]

    def _read(self, field, n, steps):
        """The case's field grid to at least `steps` steps.  A read after the
        first takes twice the steps held, so a sweep to larger k reads the
        field O(log k) times; rows are keyed by step, so a longer grid holds
        the same values.  Where that read meets the end of a table, the read
        of exactly `steps` is made, and raises, or not, as it does; then the
        longest read short of the failed one, found by halving the gap, so
        that the rows up to the table's end are built as one block.  Every
        read after that takes exactly `steps`."""
        more = 0 if self.x is None or self.exact else 2 * len(self.x)
        if more > steps:
            try:
                return evaluate_grid(field, n, more)
            except OutOfDomainError:
                self.exact = True
        x = evaluate_grid(field, n, steps)
        while more - steps > 1:  # a read of `steps` steps fits, of `more` does not
            half = (steps + more) // 2
            try:
                x, steps = evaluate_grid(field, n, half), half
            except OutOfDomainError:
                more = half
        return x


def _tail_hops(decay: float, m: float, eps: float) -> int:
    """Hops needed before the geometric tail on values |x| <= m drops below eps."""
    target = eps * (1.0 - decay) / (2.0 * m) if m > 0.0 else math.inf
    return 0 if target >= 1.0 else max(1, math.ceil(math.log(target) / math.log(decay)))


def _tail(decay, scale):
    """The hops of k=None for M = max |x|: to a tail of `decay` on scale * M
    below 1e-12 * max(M, 1)."""
    return lambda m: _tail_hops(decay, scale * m, DEFAULT_TAIL * max(m, 1.0))


def _steps(plan, k):
    """The field steps that row k reads, 0..k (dynamic) or 0 (static), once k
    is checked: an integer >= 0, or None where the rule has a tail."""
    _, dynamic, _, tail = plan[:4]
    if k is None and tail is not None:
        return 1
    k = _check_integer("time step", k, 0)
    return k + 1 if dynamic else 1


# Each `_plan_*` takes a checked rule and returns (tail, source, first, terms,
# finish), which `_plan` heads with the rule's cap of hops, whether it reads
# the field past step 0 (`chain.TIME_VARYING`) and whether the chain is a ring,
# and which `_steps` and `_sums` use: a row sums over the grid `source(x)`, its
# total after hop 0 is `first` of the grid's values at sensors i, and hop j adds
# `terms(back, ahead, js)` of the values at sensors i - j and i + j, tiled
# (hops js, rows, sensors); the target is `finish` of the total.  `tail(M)`
# gives the hops of k=None, and a target without one needs k.

def _same(values):
    return values


def _plan_exp(algo):
    rho, powers = algo.rho, _powers(algo.rho)
    lam = (1.0 - rho) / (1.0 + rho)
    return (_tail(rho, lam), _same, _same,
            lambda back, ahead, js: powers(js) * (back + ahead), lambda total: lam * total)


def _plan_asym(algo):
    rb, rf = algo.rho_back, algo.rho_forward
    c = (1.0 - rb) * (1.0 - rf) / (1.0 - rb * rf)
    back_w, ahead_w = _powers(rb), _powers(rf)  # rb**j and rf**j, as a hop loop's `p *= rb`
    return (_tail(max(rb, rf), 1.0), _same, _same,
            lambda back, ahead, js: _two_sided(back_w(js) * back, ahead_w(js) * ahead),
            lambda total: c * total)


def _plan_window(algo):
    # the exponential sum at rho = 1.0, its products with 1.0 left out
    half_width = algo.half_width
    return (lambda m: half_width, _same, _same, lambda back, ahead, js: back + ahead,
            lambda total: total / (2.0 * half_width + 1.0))


def _plan_variable_window(algo):
    widths = np.asarray(algo.half_widths)
    reach = max(algo.half_widths)

    def terms(back, ahead, js):
        past = js[:, None, None] > widths  # hop j past sensor i's L_i adds -0.0
        return _two_sided(np.where(past, -0.0, back), np.where(past, -0.0, ahead))
    # each value over its own sensor's window length
    return (lambda m: reach, lambda x: x / (2.0 * widths + 1.0), _same, terms, _same)


def _plan_arbitrary(algo):
    table, r = algo.table, algo.table.radius
    w = table.weights.T  # rows by offset -r..r
    return (None, _same, lambda values: w[r] * values,
            lambda back, ahead, js: _two_sided(w[r - js, None] * back, w[r + js, None] * ahead),
            lambda total: total / table.row_sum)


# a dynamic rule's plan is its static form's, without a tail
_PLANS = {ExponentialWeighting: _plan_exp, AsymmetricWeighting: _plan_asym,
          FiniteWindow: _plan_window, PerSensorWindow: _plan_variable_window,
          BandedWeighting: _plan_arbitrary,
          DynamicExponential: lambda algo: (None,) + _plan_exp(algo)[1:],
          DynamicWindow: lambda algo: (None,) + _plan_window(algo)[1:]}


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
            isinstance(boundary, Ring), *_PLANS[type(algo)](algo))


def rows(algo, field, n, boundary=Ring(), ks=None) -> np.ndarray:
    """The target of the rule `algo` at every sensor 0..n-1: row k for an int
    `ks`, the final value for None (the exponential and asymmetric rules to a
    tail below 1e-12 * max(M, 1), M = max |x| on the chain; a deeper sum
    needs k), or for a range one (len(ks), n) block from one field read."""
    plan = _plan(algo, n, boundary)
    block = isinstance(ks, range)
    if not (block or ks is None or isinstance(ks, (int, np.integer))):
        raise ValidationError(f"time step must be an integer >= 0, None or a range of them, "
                              f"got {ks!r}")
    ks = ks if block else [ks]
    x = evaluate_grid(field, n, max((_steps(plan, k) for k in ks), default=0))
    up = not block or ks.step > 0  # the sums take their rows in increasing k
    out = _sums(plan, x, ks if up else ks[::-1])[0]
    return out[0] if not block else out if up else out[::-1].copy()


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
