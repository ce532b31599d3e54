"""Chain configuration and the synchronous message-passing harness.

One round = one synchronous exchange: every sensor broadcasts its state, then
every sensor updates from the same round snapshot.  Sensors see only the last
two messages from each immediate neighbor and at most three rounds of their
own history, so locality is enforced by construction.  `run` makes one call
of the rule's transition per round on whole-chain arrays, gathering neighbor
states by index, and records every delivered message as one row of a compact
integer audit array.

Boundary policies:
  Ring       indices wrap modulo n (exact for spatially periodic fields);
  ZeroHalo   ghost sensors running the same rule with x = 0 pad both ends;
             with depth >= rounds nothing beyond the halo can reach a real
             sensor, making the zero-extended-line targets exact;
  Truncated  missing neighbors contribute zero to every difference term,
             which exhibits the boundary end effect.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .arbitrary_weights import (BandedWeighting, FBState, fb_transition, glue,
                                validate_weights)
from .dynamic_rules import (DynamicExponential, DynamicWindow, assemble_y,
                            dyn_exp_transition, z_slot_transition)
from .errors import DivergedError, ValidationError
# evaluate_field is not called here, but stays a name of this module:
# perfbench/tracer.py wraps lacsim.chain.evaluate_field
from .fields import Constant, MeasurementField, evaluate_field, evaluate_grid  # noqa: F401
from .static_rules import (AsymmetricWeighting, ExponentialWeighting, FiniteWindow,
                           PerSensorWindow, asym_transition, exp_transition,
                           variable_window_transition, window_transition)


@dataclass(frozen=True)
class Ring:
    pass


@dataclass(frozen=True)
class ZeroHalo:
    depth: int | None = None  # None resolves to the round count


@dataclass(frozen=True)
class Truncated:
    pass


Boundary = Union[Ring, ZeroHalo, Truncated]

AlgorithmSpec = Union[ExponentialWeighting, AsymmetricWeighting, FiniteWindow,
                      PerSensorWindow, BandedWeighting, DynamicExponential, DynamicWindow]


@dataclass(frozen=True)
class ChainConfig:
    n: int
    boundary: Boundary = Ring()
    rounds: int = 0
    master_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 3:
            raise ValidationError(f"chain needs n >= 3 sensors, got {self.n!r}")
        if not isinstance(self.rounds, int) or self.rounds < 0:
            raise ValidationError(f"rounds must be an integer >= 0, got {self.rounds!r}")

    def halo_depth(self) -> int:
        """Resolved halo depth; defaults to the horizon so no unmodeled
        information can reach a real sensor (one hop per round)."""
        if not isinstance(self.boundary, ZeroHalo):
            return 0
        d = self.boundary.depth
        if d is None:
            return self.rounds
        if d < self.rounds:
            raise ValidationError(
                f"zero-halo depth {d} is shallower than the {self.rounds}-round horizon")
        return d


# one audit row per delivered message; size is the payload length in values
MessageRecord = np.dtype([("round", np.int32), ("receiver", np.int32),
                          ("sender", np.int32), ("size", np.int32)])


@dataclass
class ConsensusTrace:
    y: np.ndarray                       # (n, rounds + 1)
    z: np.ndarray | None                # (n, rounds + 1, slots) for the dynamic window
    audit: np.ndarray                   # MessageRecord rows in delivery order
    config: ChainConfig
    algo: AlgorithmSpec
    own_history_depth: int = 3
    metadata: dict = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        return self.y.shape[1] - 1


def _half_width_demand(algo: AlgorithmSpec) -> int | None:
    """Largest hop reach whose wrapped window must not self-intersect."""
    if isinstance(algo, (FiniteWindow, DynamicWindow)):
        return algo.half_width
    if isinstance(algo, PerSensorWindow):
        return max(algo.half_widths)
    if isinstance(algo, BandedWeighting):
        return algo.table.radius
    return None


def _validate(config: ChainConfig, algo: AlgorithmSpec) -> None:
    config.halo_depth()
    reach = _half_width_demand(algo)
    if isinstance(config.boundary, Ring) and reach is not None and config.n < 2 * reach + 1:
        raise ValidationError(
            f"ring of n={config.n} sensors cannot host a window of half-width {reach}; "
            f"need n >= {2 * reach + 1}")
    if isinstance(algo, PerSensorWindow):
        if len(algo.half_widths) != config.n:
            raise ValidationError(
                f"need one half-width per sensor: got {len(algo.half_widths)} for n={config.n}")
        if isinstance(config.boundary, Ring):
            a, b = algo.half_widths[-1], algo.half_widths[0]
            if abs(a - b) > 1:
                raise ValidationError(
                    f"ring wrap pair of half-widths differs by more than one: {a}, {b}")
    if isinstance(algo, BandedWeighting):
        table = algo.table
        if table.n != config.n:
            raise ValidationError(
                f"weight table has {table.n} rows for a chain of {config.n} sensors")
        if np.any(table.weights == 0.0):
            raise ValidationError("weight table contains zero entries")
        if table.row_tol is not None:
            report = validate_weights(table, table.row_tol)
            if not report.ok:
                raise ValidationError(
                    f"weight rows deviate from the common total beyond {table.row_tol}: "
                    f"{report.bad_rows[:4]}")


def _rule(algo: AlgorithmSpec, x: np.ndarray, n: int, off: int, left: np.ndarray,
          right: np.ndarray, rounds: int):
    """Bind `algo`'s transition to whole-chain arrays.

    Returns (state rows, last round each engine index updates, step, readout).
    `step(t, i, own, lh, rh)` gives the round-t states of engine indices `i`
    from histories of shape (rows, len(i)), most recent first; `readout(state,
    prev, t)` gives y of the real sensors.
    """
    size = len(left)
    real = slice(off, off + n)
    stop = np.full(size, rounds)

    def plain(state, prev, t):
        return state[0, real]

    if isinstance(algo, ExponentialWeighting):
        return 1, stop, lambda t, i, own, lh, rh: exp_transition(
            t, own, lh, rh, x[0, i], algo.rho), plain
    if isinstance(algo, AsymmetricWeighting):
        return 1, stop, lambda t, i, own, lh, rh: asym_transition(
            t, own, lh, rh, x[0, i], algo.rho_back, algo.rho_forward), plain
    if isinstance(algo, FiniteWindow):
        stop[:] = algo.half_width  # past it a sensor is frozen
        return 1, stop, lambda t, i, own, lh, rh: window_transition(
            t, own, lh, rh, x[0, i], algo.half_width), plain
    edge = np.clip(np.arange(size) - off, 0, n - 1)  # ghosts reuse the edge sensor's parameters
    if isinstance(algo, PerSensorWindow):
        widths = np.asarray(algo.half_widths)[edge]
        return 1, widths, lambda t, i, own, lh, rh: variable_window_transition(
            t, own, lh, rh, x[0, i], widths[i]), plain
    if isinstance(algo, DynamicExponential):
        return 1, stop, lambda t, i, own, lh, rh: dyn_exp_transition(
            t, own, lh, rh, x[max(t - 3, 0):t + 1, i][::-1], algo.rho), plain
    if isinstance(algo, DynamicWindow):
        L = algo.half_width

        def step(t, i, own, lh, rh):
            z = np.zeros((L + 1, len(i)))
            for j in range(L + 1):
                z[j] = z_slot_transition(t, j, [h[j] for h in own], [h[j] for h in lh],
                                         [h[j] for h in rh], x[t, i], L)
            return z

        return L + 1, stop, step, lambda state, prev, t: assemble_y(
            state[:, real], prev[:, real], t, L)
    table = algo.table
    # weight rows as columns, so band[offset + radius] holds one weight per sensor;
    # the last column stands in for a missing neighbor and its terms are dropped
    band = np.vstack([table.weights[edge], np.ones(table.weights.shape[1])]).T
    stop[:] = table.radius

    def step(t, i, own, lh, rh):
        s = fb_transition(t, [FBState(*h) for h in own], [FBState(*h) for h in rh],
                          [FBState(*h) for h in lh], x[0, i], band[:, i], band[:, right[i]],
                          band[:, left[i]], table.row_sum)
        if t == 0:
            return s
        # a cut end keeps its sum in the direction that has no neighbor
        return (np.where(right[i] == size, own[0][0], s.forward),
                np.where(left[i] == size, own[0][1], s.backward))

    return 2, stop, step, lambda state, prev, t: glue(
        FBState(*state[:, real]), x[0, real], band[table.radius, real], table.row_sum)


def run(config: ChainConfig, field_: MeasurementField, algo: AlgorithmSpec) -> ConsensusTrace:
    """Execute `rounds` synchronous rounds and return the full trace.

    Deterministic in (config, field_, algo) including the noise seed; raises
    ValidationError up front and DivergedError if a value leaves float range.
    """
    _validate(config, algo)
    n, rounds = config.n, config.rounds
    off = config.halo_depth()
    size = n + 2 * off  # engine index e is sensor label e - off
    # neighbor engine indices; index `size` is a zero slot for a missing neighbor
    left, right = np.arange(-1, size - 1), np.arange(1, size + 1)
    if isinstance(config.boundary, Ring):
        left[0], right[-1] = size - 1, 0
    else:
        left[0] = size
    time_varying = isinstance(algo, (DynamicExponential, DynamicWindow))
    x = np.zeros((rounds + 1 if time_varying else 1, size + 1))  # ghosts measure zero
    x[:, off:off + n] = evaluate_grid(field_, n, x.shape[0])
    rows, stop, step, readout = _rule(algo, x, n, off, left, right, rounds)

    y = np.empty((n, rounds + 1))
    z = np.empty((n, rounds + 1, rows)) if isinstance(algo, DynamicWindow) else None
    audit = [np.empty(0, MessageRecord)]
    hist = [np.zeros((rows, size + 1))]  # the zero state before round 0, then most recent first
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values raise below
        for t in range(rounds + 1):
            i = np.flatnonzero(stop >= t)  # frozen sensors keep broadcasting their last state
            li, ri = left[i], right[i]
            new = hist[0].copy()
            if len(i):
                nb = hist[:min(t, 2)]
                new[:, i] = step(t, i, [h[:, i] for h in hist[:min(t, 3)]],
                                 [h[:, li] for h in nb], [h[:, ri] for h in nb])
                bad = ~np.isfinite(new[:, i]).all(axis=0)
                if bad.any():
                    raise DivergedError(int(i[bad.argmax()]) - off, t)
            if t:
                sender = np.column_stack((li, ri)).ravel()  # each receiver hears left, then right
                keep = sender != size
                msgs = np.empty(np.count_nonzero(keep), MessageRecord)
                msgs["round"], msgs["size"] = t, rows
                msgs["receiver"] = np.repeat(i, 2)[keep] - off
                msgs["sender"] = sender[keep] - off
                audit.append(msgs)
            hist = [new] + hist[:2]
            y[:, t] = readout(new, hist[1], t)
            if z is not None:
                z[:, t] = new[:, off:off + n].T

    metadata = {}
    if isinstance(algo, PerSensorWindow):
        # final-value coefficient totals per sensor: they need not equal one, so
        # they are surfaced rather than silently trusted
        from .oracle import variable_window_row  # oracle imports this module
        boundary = Ring() if isinstance(config.boundary, Ring) else ZeroHalo()
        sums = variable_window_row(MeasurementField(Constant(1.0)), algo.half_widths,
                                   n=n, boundary=boundary)
        metadata["weight_sums"] = tuple(sums.tolist())
    return ConsensusTrace(y=y, z=z, audit=np.concatenate(audit), config=config, algo=algo,
                          own_history_depth=3, metadata=metadata)


def audit_locality(trace: ConsensusTrace) -> int:
    """Number of audit records whose sender is not an immediate neighbor of
    the receiver under the trace's boundary arithmetic.  A transition history
    deeper than three rounds also counts as one violation."""
    hop = trace.audit["receiver"] - trace.audit["sender"]
    if isinstance(trace.config.boundary, Ring):
        hop = (hop + 1) % trace.config.n - 1  # a wrap pair is one hop apart
    return int(np.count_nonzero(np.abs(hop) != 1)) + (trace.own_history_depth > 3)


def trace_to_csv(trace: ConsensusTrace) -> str:
    """Rows `round,sensor,y` (plus z0..zL columns for the dynamic window),
    full float precision so values survive a round-trip."""
    slots = trace.z.shape[2] if trace.z is not None else 0
    out = ["round,sensor,y" + "".join(f",z{j}" for j in range(slots)) + "\n"]
    n, cols = trace.y.shape
    # one round's rows as one %-format; `@` stands for the round number.
    # '%.17g' % v converts as format(v, '.17g') does
    template = "".join(f"@,{i},%.17g{',%.17g' * slots}\n" for i in range(n))
    for t in range(cols):
        values = trace.y[:, t] if not slots else np.column_stack((trace.y[:, t], trace.z[:, t]))
        out.append(template.replace("@", str(t)) % tuple(values.ravel().tolist()))
    return "".join(out)
