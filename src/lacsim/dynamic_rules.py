"""Update rules tracking measurements that vary in time.

Each is built on its static counterpart, the case of a measurement frozen in
time.  The exponential variant is the static exponential stage on the current
measurement plus local temporal-difference corrections, which are zero when
the measurement does not change; it needs no neighbor measurements.  The
window variant keeps a vector of half_width+1 tracker slots per sensor; slot j
restarts from the current measurement whenever k = j (mod half_width+1) and
otherwise replays the static window recursion, so each measurement time is
owned by exactly one slot.  `z_slot_transition` and `assemble_y` step one
slot and sum the slots; the engine steps whole runs of slots at one stage,
as `phase_groups` gives them, with the same arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import HistoryError
from .static_rules import _check_half_width, _check_rho, exp_transition, window_transition


@dataclass(frozen=True)
class DynamicExponential:
    rho: float

    def __post_init__(self):
        _check_rho("rho", self.rho)


@dataclass(frozen=True)
class DynamicWindow:
    half_width: int

    def __post_init__(self):
        object.__setattr__(self, "half_width", _check_half_width("half_width", self.half_width))


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


def phase_groups(k: int, half_width: int, most: int) -> list:
    """(phase, first slot, end slot) of the runs of at most `most` slots that
    window stages step in round k: the slots at phases 0, 1 and 2, and the
    cyclic run at phases 3..half_width, which share a stage (given as 3).
    Slots still at their zero initialization are in none."""
    m, deep = half_width + 1, min(k, half_width)
    first, end = (k - deep) % m, (k - deep) % m + deep - 2  # the run, mod m
    return ([(p, (k - p) % m, (k - p) % m + 1) for p in range(min(deep, 2) + 1)]
            + [(3, lo, min(lo + most, b)) for a, b in ((first, min(end, m)), (0, end - m))
               for lo in range(a, b, most)])


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
