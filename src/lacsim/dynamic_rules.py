"""Update rules tracking measurements that vary in time.

Each is built on its static counterpart, the case of a measurement frozen in
time.  The exponential variant is the static exponential stage on the current
measurement plus local temporal-difference corrections, which are zero when
the measurement does not change; it needs no neighbor measurements.  The
window variant keeps a vector of half_width+1 tracker slots per sensor; slot j
restarts from the current measurement whenever k = j (mod half_width+1) and
otherwise replays the static window recursion, so each measurement time is
owned by exactly one slot.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import HistoryError, ValidationError
from .static_rules import _check_rho, exp_transition, window_transition


@dataclass(frozen=True)
class DynamicExponential:
    rho: float

    def __post_init__(self):
        _check_rho("rho", self.rho)


@dataclass(frozen=True)
class DynamicWindow:
    half_width: int

    def __post_init__(self):
        if not isinstance(self.half_width, int) or self.half_width < 1:
            raise ValidationError(f"half_width must be an integer >= 1, got {self.half_width!r}")


def dyn_exp_transition(k, own, left, right, x_recent, rho):
    """y_i(k) with temporal corrections: the static exponential stage on the
    current measurement, plus lam * (x_i(k) - x_i(k-1)) from round 1 and
    minus rho^2 lam * (x_i(k-2) - x_i(k-3)) from round 3.

    `x_recent` holds the sensor's own measurements most recent first:
    (x_i(k), x_i(k-1), x_i(k-2), x_i(k-3)) as deep as the stage needs.
    Neighbor measurements are never consulted.
    """
    y = exp_transition(k, own, left, right, x_recent[0], rho)
    if k >= 3 and len(x_recent) < 4:
        raise HistoryError(f"round {k} needs own measurement depth 4; got {len(x_recent)}")
    lam = (1.0 - rho) / (1.0 + rho)
    if k >= 1:
        y = y + lam * (x_recent[0] - x_recent[1])
    if k >= 3:
        y = y - rho * rho * lam * (x_recent[2] - x_recent[3])
    return y


def slot_phase(k: int, slot: int, half_width: int) -> int | None:
    """Rounds since slot's latest restart; None while the slot is still at its
    zero initialization (k < slot)."""
    if k < slot:
        return None
    return (k - slot) % (half_width + 1)


def z_slot_transition(k, slot, own, left, right, x_k, half_width):
    """Slot value z_{i,slot}(k).

    Histories are per-slot values, most recent first (own depth 3, neighbors
    depth 2).  Restart rounds consume the current measurement x_i(k); all
    other phases replay the static window stages, so slot trajectories are
    mutually independent.
    """
    phase = slot_phase(k, slot, half_width)
    if phase is None:
        return 0.0
    return window_transition(phase, own, left, right, x_k, half_width)


def assemble_y(z_now, z_prev, k, half_width):
    """Consensus value from the slot vector at rounds k and k-1.

    The slot that restarted this round enters by value; every other slot
    contributes its one-round increment.  Slots still at zero initialization
    contribute zero differences, which is exactly the growing-window phase.
    """
    j = k % (half_width + 1)
    y = z_now[j]
    for l in range(half_width + 1):
        if l != j:
            y = y + (z_now[l] - z_prev[l])
    return y
