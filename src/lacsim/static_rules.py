"""Per-sensor update rules for time-invariant measurements.

Every transition is a pure function computing the round-k value from explicit
histories, most recent first:

    own   = (y_i(k-1), y_i(k-2), y_i(k-3))   as deep as the stage needs
    left  = (y_{i-1}(k-1), y_{i-1}(k-2))     received messages, depth <= 2
    right = (y_{i+1}(k-1), y_{i+1}(k-2))

k = 0 is the initialization stage and needs only the local measurement.
Stage dispatch is driven by the round index alone; the initialization is never
folded into the generic stage.  Rounds k >= 1 of all three recursions are one
3-point stencil with a backward and a forward weight per hop, written once in
`_stencil`.  Every history entry may be a scalar or one numpy array over many
sensors; the engine steps the whole chain in one call.
"""
from __future__ import annotations

import math
import numbers
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .errors import HistoryError, TerminatedError, ValidationError


def _check_rho(name: str, value: float) -> None:
    """Reject a decay rate, or any other value, not a real number strictly inside (0, 1)."""
    if not isinstance(value, numbers.Real) or not 0.0 < value < 1.0:
        raise ValidationError(f"{name} must lie strictly inside (0, 1), got {value!r}")


def _check_integer(name: str, value, least: int) -> int:
    """`value` as an int, if it is an integer >= least: a Python or numpy
    integer, not a bool, and never a float rounded down."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _check_real(name: str, value, rule: str = "finite", ok=math.isfinite) -> None:
    """Reject `value` unless it is a real number, a Python or numpy one but not a
    bool, for which `ok` holds; the message says `name` must be `rule`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not ok(value):
        raise ValidationError(f"{name} must be {rule}, got {value!r}")


def generator(seed) -> np.random.Generator:
    """numpy's default generator for `seed`, `Generator(PCG64(SeedSequence(seed)))`;
    a seed is a non-negative integer, not a bool."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)


def _overlap(blocks, work, ahead: int = 1) -> None:
    """`work(block)` for each of `blocks` in order on one worker thread, while this thread
    draws the next once at most `ahead` are left to the worker; its exception is raised here."""
    todo, done = queue.SimpleQueue(), queue.SimpleQueue()
    for _ in range(ahead):  # blocks the caller may hand on before it waits
        done.put(None)

    def serve():
        try:
            while (block := todo.get()) is not None:
                work(block)
                del block  # freed before the caller may draw again
                done.put(None)
        except BaseException as exc:  # raised again on the calling thread
            done.put(exc)

    worker = threading.Thread(target=serve)
    worker.start()
    try:
        for block in blocks:  # not enumerate, whose result tuple keeps the last block
            todo.put(block)
            del block
            if (exc := done.get()) is not None:
                raise exc
    finally:
        todo.put(None)
        worker.join()
    while not done.empty():
        if (exc := done.get()) is not None:
            raise exc


def _check_half_width(name: str, value) -> int:
    return _check_integer(name, value, 1)


def _check_half_widths(widths) -> tuple:
    """`widths` as a tuple checked by `_check_half_width`, each within one of the
    next: plain ints as a whole, else, or on a failure, one by one."""
    widths = tuple(widths)
    if set(map(type, widths)) != {int} or min(widths) < 1 or \
            np.abs(np.diff(widths)).max(initial=0) > 1:
        widths = tuple(_check_half_width("half-widths", w) for w in widths)
        for a, b in zip(widths, widths[1:]):
            if abs(a - b) > 1:
                raise ValidationError(f"adjacent half-widths differ by more than one: {a}, {b}")
    return widths


@dataclass(frozen=True)
class ExponentialWeighting:
    """Symmetric geometric weights: hop distance j contributes rho**j."""

    rho: float

    def __post_init__(self):
        _check_rho("rho", self.rho)


@dataclass(frozen=True)
class AsymmetricWeighting:
    """Backward and forward directions weighted with distinct decay rates."""

    rho_back: float
    rho_forward: float

    def __post_init__(self):
        _check_rho("rho_back", self.rho_back)
        _check_rho("rho_forward", self.rho_forward)


@dataclass(frozen=True)
class FiniteWindow:
    """Uniform average over the 2*half_width+1 nearest sensors."""

    half_width: int

    def __post_init__(self):
        object.__setattr__(self, "half_width", _check_half_width("half_width", self.half_width))


@dataclass(frozen=True)
class PerSensorWindow:
    """Finite window with an individual half-width per sensor.

    Adjacent half-widths may differ by at most one; the wrap-around pair is
    checked when the rule is run on a ring.
    """

    half_widths: tuple

    def __post_init__(self):
        widths = _check_half_widths(self.half_widths)
        object.__setattr__(self, "half_widths", widths)
        if not widths:
            raise ValidationError("half_widths must be non-empty")


def _need(k: int, own, left, right, n_own: int, n_nb: int) -> None:
    if len(own) < n_own or len(left) < n_nb or len(right) < n_nb:
        raise HistoryError(
            f"round {k} needs own depth {n_own} and neighbor depth {n_nb}; "
            f"got {len(own)}/{len(left)}/{len(right)}")


class _Unit:
    """The window rule's weight 1.0: a product with it is exact, so it is
    the other factor itself, and no array arithmetic is done for it."""

    __array_ufunc__ = None  # an array times _UNIT comes here too

    def __mul__(self, other):
        return other

    __rmul__ = __mul__


_UNIT = _Unit()


def _stencil(k, own, left, right, a, b):
    """Round k >= 1 with backward weight a (left) and forward weight b (right)
    per hop: the asymmetric rule, the exponential rule from round 2 (a = b =
    rho) and the window rule (a = b = `_UNIT`, 1.0 with its products skipped)."""
    if k == 1:
        _need(k, own, left, right, 1, 1)
        return own[0] + a * left[0] + b * right[0]
    if k == 2:
        _need(k, own, left, right, 2, 2)
        return (own[0] + a * (left[0] - left[1]) + b * (right[0] - right[1])
                - 2.0 * a * b * own[1])
    _need(k, own, left, right, 3, 2)
    return (own[0] + a * (left[0] - left[1]) + b * (right[0] - right[1])
            - a * b * (own[1] - own[2]))


def exp_transition(k, own, left, right, x_i, rho):
    """y_i(k) of the symmetric exponential recursion."""
    if k == 0:
        return (1.0 - rho) / (1.0 + rho) * x_i
    if k == 1:
        # one product, not the stencil's two: rho * (l + r) rounds differently
        _need(k, own, left, right, 1, 1)
        return own[0] + rho * (left[0] + right[0])
    return _stencil(k, own, left, right, rho, rho)


def asym_transition(k, own, left, right, x_i, rho_back, rho_forward):
    """y_i(k) with direction-dependent decay; left carries the backward side."""
    rb, rf = rho_back, rho_forward
    if k == 0:
        return (1.0 - rb) * (1.0 - rf) / (1.0 - rb * rf) * x_i
    return _stencil(k, own, left, right, rb, rf)


def window_transition(k, own, left, right, x_i, half_width):
    """y_i(k) of the uniform finite-window recursion; defined for k <= half_width.

    The recursion terminates once the window is full; stepping past that is an
    error so accidental over-running surfaces instead of silently freezing.
    `half_width` may hold one value per sensor when the histories are arrays.
    """
    last = np.min(half_width) if isinstance(half_width, np.ndarray) else half_width
    if k > last:
        raise TerminatedError(
            f"window recursion terminates at round {last}; asked for round {k}")
    if k == 0:
        return x_i / (2.0 * half_width + 1.0)
    return _stencil(k, own, left, right, _UNIT, _UNIT)


# The per-sensor-window rule is the window rule with one half-width per
# sensor.  Neighboring half-widths differing by at most one is checked by
# `PerSensorWindow` and, for the ring wrap pair, by the engine.
variable_window_transition = window_transition
