"""Arbitrary banded weights: validation and the two-direction update rule.

A sensor keeps a forward and a backward running sum.  Each direction pulls new
information from one neighbor only, which sidesteps the cross-term
cancellations the uniform rules rely on.  The two sums are glued into the
consensus value, subtracting the doubly counted initial term.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import TerminatedError, ValidationError
from .static_rules import _check_integer, _check_real, _check_rho
from .tables import read_index_csv


class FBState(NamedTuple):
    forward: float
    backward: float


@dataclass(frozen=True, eq=False)
class WeightTable:
    """Banded weights w[sensor, offset] for |offset| <= radius.

    `row_sum` is the common row total: dividing by it makes constant fields
    pass through unchanged.  `row_tol` is the tolerance for the per-row total
    check `BandedWeighting` makes; None skips it (used when rows intentionally
    differ, e.g. random-spacing weights run as raw sums with row_sum = 1).
    """

    weights: np.ndarray  # shape (n, 2*radius + 1); column j maps to offset j - radius
    row_sum: float
    radius: int
    row_tol: float | None = None

    def __post_init__(self):
        radius = _check_integer("radius", self.radius, 0)
        # an owned, read-only copy, as for TableField.values
        arr = np.array(self.weights, dtype=float)
        arr.flags.writeable = False
        if arr.ndim != 2 or arr.shape[1] != 2 * radius + 1:
            raise ValidationError(
                f"weight table must have shape (n, {2 * radius + 1}), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("weight table contains non-finite entries")
        _check_real("row_sum", self.row_sum, "finite and nonzero",
                    lambda s: math.isfinite(s) and s != 0)
        if self.row_tol is not None:
            _check_real("row_tol", self.row_tol, "None or finite and >= 0",
                        lambda t: 0.0 <= t < math.inf)
        object.__setattr__(self, "weights", arr)
        object.__setattr__(self, "radius", radius)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def row_totals(self) -> np.ndarray:
        return self.weights.sum(axis=1)

    @classmethod
    def geometric(cls, rho: float, radius: int, n: int) -> "WeightTable":
        """rho**|offset| rows with the closed-form total (1+rho)/(1-rho); the
        row tolerance defaults to the truncation tail 2*rho**radius/(1-rho)."""
        _check_rho("rho", rho)
        offs = np.abs(np.arange(-radius, radius + 1))
        row = rho ** offs
        return cls(np.tile(row, (n, 1)), (1.0 + rho) / (1.0 - rho), radius,
                   row_tol=2.0 * rho ** radius / (1.0 - rho))

    @classmethod
    def from_csv(cls, text: str, row_sum: float, n: int,
                 row_tol: float | None = None) -> "WeightTable":
        """Parse `sensor,offset,weight` rows for a chain of `n` sensors; the
        normalization total comes in separately since the CSV carries only the
        band.  A sensor and |offset| must be below n: a longer offset weights
        no sensor."""
        weights = read_index_csv(text, ("sensor,offset,weight",), "weight CSV",
                                 {"sensor": n, "offset": n}, ("offset",))
        return cls(weights, row_sum, weights.shape[1] // 2, row_tol=row_tol)


def validate_weights(table: WeightTable) -> None:
    """Raise ValidationError unless every stored entry is nonzero and, when
    `row_tol` is set, every row total matches the common sum within it; the
    message names the first four rows outside, as (sensor, total) pairs."""
    if (table.weights == 0.0).any():
        raise ValidationError("weight table contains zero entries")
    tol = table.row_tol
    if tol is not None:
        with np.errstate(over="ignore"):  # a total past float range misses any finite one
            totals = table.row_totals()
        bad = np.flatnonzero(np.abs(totals - table.row_sum) > tol)[:4].tolist()
        if bad:
            raise ValidationError(f"weight rows deviate from the common total beyond {tol}: "
                                  f"{tuple((s, float(totals[s])) for s in bad)}")


@dataclass(frozen=True, eq=False)
class BandedWeighting:
    """Algorithm selector wrapping a weight table, checked once here for the engine
    and the oracle: no zero weight (the ratios divide by them), rows within `row_tol`."""

    table: WeightTable

    def __post_init__(self):
        validate_weights(self.table)


def fb_transition(k, own, fwd, bwd, x_i, own_row, fwd_row, bwd_row, row_sum):
    """FBState at round k.

    `own` holds earlier FBStates most recent first (depth 1 suffices); `fwd`
    and `bwd` are the forward/backward neighbors' FBState histories (depth 2),
    or None for a missing neighbor, which then contributes nothing.  Rows are
    weight vectors indexed by offset + radius; the neighbor rows supply the
    denominators, so a sensor must know the weights its neighbors use.  For
    many sensors at once, every value is an array over the sensors and each
    row entry one array of their weights at that offset.
    """
    radius = (len(own_row) - 1) // 2
    if k > radius:
        raise TerminatedError(
            f"banded recursion carries no information past round {radius}; asked for {k}")
    if k == 0:
        v = own_row[radius] * x_i / row_sum
        return FBState(v, v)
    f = own[0].forward
    b = own[0].backward
    if fwd is not None:
        num = own_row[radius + k]
        den = fwd_row[radius + k - 1]
        prev = fwd[1].forward if k >= 2 else 0.0
        f = f + num / den * (fwd[0].forward - prev)
    if bwd is not None:
        num = own_row[radius - k]
        den = bwd_row[radius - (k - 1)]
        prev = bwd[1].backward if k >= 2 else 0.0
        b = b + num / den * (bwd[0].backward - prev)
    return FBState(f, b)


def glue(state: FBState, x_i: float, own_weight: float, row_sum: float) -> float:
    """Combine the two directional sums; the shared initial term was counted
    by both, so it is subtracted once."""
    return state.forward + state.backward - own_weight * x_i / row_sum
