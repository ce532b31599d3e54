"""Arbitrary banded weights: validation and the two-direction update rule.

A sensor keeps a forward and a backward running sum.  Each direction pulls new
information from one neighbor only, which sidesteps the cross-term
cancellations the uniform rules rely on.  The two sums are glued into the
consensus value, subtracting the doubly counted initial term.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import TerminatedError, ValidationError
from .static_rules import _check_rho
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
        # an owned, read-only copy, as for TableField.values
        arr = np.array(self.weights, dtype=float)
        arr.flags.writeable = False
        if arr.ndim != 2 or arr.shape[1] != 2 * self.radius + 1:
            raise ValidationError(
                f"weight table must have shape (n, {2 * self.radius + 1}), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("weight table contains non-finite entries")
        if not math.isfinite(self.row_sum) or self.row_sum == 0:
            raise ValidationError(f"row_sum must be finite and nonzero, got {self.row_sum!r}")
        object.__setattr__(self, "weights", arr)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def weight(self, sensor: int, offset: int) -> float:
        return float(self.weights[sensor, offset + self.radius])

    def row(self, sensor: int) -> np.ndarray:
        return self.weights[sensor]

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
    def from_csv(cls, text: str, row_sum: float, row_tol: float | None = None,
                 n: int | None = None) -> "WeightTable":
        """Parse `sensor,offset,weight` rows; the normalization total comes in
        separately since the CSV carries only the band.  Given `n`, a sensor
        and |offset| must be below it: a longer offset weights no sensor."""
        bounds = None if n is None else {"sensor": n, "offset": n}
        weights = read_index_csv(text, ("sensor,offset,weight",), "weight CSV", ("offset",), bounds)
        return cls(weights, row_sum, weights.shape[1] // 2, row_tol=row_tol)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["sensor", "offset", "weight"])
        for s in range(self.n):
            for off in range(-self.radius, self.radius + 1):
                writer.writerow([s, off, format(self.weight(s, off), ".17g")])
        return out.getvalue()


@dataclass(frozen=True)
class WeightReport:
    ok: bool
    zero_entries: tuple          # (sensor, offset) pairs
    bad_rows: tuple              # (sensor, row_total) pairs


def validate_weights(table: WeightTable, tol: float) -> WeightReport:
    """Check every stored entry is nonzero and every row total matches the
    declared common sum within `tol`; offenders are listed, never raised."""
    zeros = [(s, c - table.radius) for s, c in np.argwhere(table.weights == 0.0).tolist()]
    with np.errstate(over="ignore"):  # a total past float range misses any finite one
        totals = table.row_totals()
    outside = np.flatnonzero(np.abs(totals - table.row_sum) > tol)
    bad = [(s, float(totals[s])) for s in outside.tolist()]
    return WeightReport(ok=not zeros and not bad, zero_entries=tuple(zeros), bad_rows=tuple(bad))


@dataclass(frozen=True, eq=False)
class BandedWeighting:
    """Algorithm selector wrapping a weight table, checked once here for the engine
    and the oracle: no zero weight (the ratios divide by them), rows within `row_tol`."""

    table: WeightTable

    def __post_init__(self):
        tol = self.table.row_tol
        report = validate_weights(self.table, math.inf if tol is None else tol)
        if report.zero_entries:
            raise ValidationError("weight table contains zero entries")
        if report.bad_rows:
            raise ValidationError(
                f"weight rows deviate from the common total beyond {tol}: {report.bad_rows[:4]}")


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
