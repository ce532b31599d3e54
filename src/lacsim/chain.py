"""Chain configuration and the synchronous message-passing harness.

One round = one synchronous exchange: every sensor broadcasts its state, then
every sensor updates from the same round snapshot.  Sensors see only the last
two messages from each immediate neighbor and at most three rounds of their
own history, so locality is enforced by construction.  `run` makes one call
of the rule's transition per round on whole-chain arrays: each update rule is
a 3-point stencil, so a sensor's own, left and right histories are three
shifted views of one padded state buffer, and each round's y is written into
round-major (rounds + 1, n) storage.  The audit, one integer row per delivered
message, is derived on read from the chain's neighbor arrays and last active
rounds.

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
from functools import cached_property, lru_cache
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
from .g17 import WIDTH, write_g17
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

# values per block of trace_to_csv: its temporaries stay cache-sized and its
# memory bounded, whatever the trace size
_BLOCK_VALUES = 16384

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
    config: ChainConfig
    algo: AlgorithmSpec
    own_history_depth: int = 3
    metadata: dict = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        return self.y.shape[1] - 1

    @cached_property
    def audit(self) -> np.ndarray:
        """MessageRecord rows in delivery order (per round, each active receiver
        hears its left, then its right neighbor), derived from `run`'s topology."""
        off, left, right, rows, stop = _topology(self.config, self.algo)
        receiver = np.repeat(np.arange(len(left)), 2)
        sender = np.column_stack((left, right)).ravel()
        rounds = np.arange(1, self.config.rounds + 1)[:, None]
        active = (stop[receiver] >= rounds) & (sender != len(left))  # row-major: round, message
        audit = np.empty(np.count_nonzero(active), MessageRecord)
        audit["size"] = rows
        for name, v in ("round", rounds), ("receiver", receiver - off), ("sender", sender - off):
            audit[name] = np.broadcast_to(v.astype(np.int32), active.shape)[active]
        return audit


def _topology(config: ChainConfig, algo: AlgorithmSpec) -> tuple:
    """Who hears whom in which round, for `run` and the audit: (off, left,
    right, rows, stop) are the halo depth (engine index e is sensor e - off),
    the neighbor engine indices (index len(left) stands for a missing
    neighbor), the state rows (a message's payload length) and the last round
    each engine index updates.  Raises ValidationError when `algo` cannot run
    on the chain."""
    n, off, ring = config.n, config.halo_depth(), isinstance(config.boundary, Ring)
    size = n + 2 * off
    left, right = np.arange(-1, size - 1), np.arange(1, size + 1)
    left[0], right[-1] = (size - 1, 0) if ring else (size, size)
    rows, reach, stop = 1, None, np.full(size, config.rounds)
    if isinstance(algo, FiniteWindow):
        reach = stop[:] = algo.half_width  # past it a sensor is frozen
    elif isinstance(algo, BandedWeighting):
        rows, reach = 2, algo.table.radius
        stop[:] = reach
    elif isinstance(algo, PerSensorWindow):  # ghosts reuse the edge sensor's half-width
        reach, stop = max(algo.half_widths), np.pad(algo.half_widths, off, mode="edge")
    elif isinstance(algo, DynamicWindow):
        reach, rows = algo.half_width, algo.half_width + 1
    # the wrapped window of the largest hop reach must not self-intersect
    if ring and reach is not None and n < 2 * reach + 1:
        raise ValidationError(
            f"ring of n={n} sensors cannot host a window of half-width {reach}; "
            f"need n >= {2 * reach + 1}")
    if isinstance(algo, PerSensorWindow):
        if len(algo.half_widths) != n:
            raise ValidationError(
                f"need one half-width per sensor: got {len(algo.half_widths)} for n={n}")
        a, b = algo.half_widths[-1], algo.half_widths[0]
        if ring and abs(a - b) > 1:
            raise ValidationError(
                f"ring wrap pair of half-widths differs by more than one: {a}, {b}")
    if isinstance(algo, BandedWeighting):
        table = algo.table
        if table.n != n:
            raise ValidationError(f"weight table has {table.n} rows for a chain of {n} sensors")
        if np.any(table.weights == 0.0):
            raise ValidationError("weight table contains zero entries")
        if table.row_tol is not None:
            report = validate_weights(table, table.row_tol)
            if not report.ok:
                raise ValidationError(
                    f"weight rows deviate from the common total beyond {table.row_tol}: "
                    f"{report.bad_rows[:4]}")
    return off, left, right, rows, stop


def _wrap(padded: np.ndarray, ring: bool) -> None:
    """Fill the pad columns of a (rows, size + 2) array with the ring-wrap
    copies of its end columns; other boundaries leave them as they are."""
    if ring:
        padded[:, 0] = padded[:, -2]
        padded[:, -1] = padded[:, 1]


def _rule(algo: AlgorithmSpec, x: np.ndarray, n: int, topo: tuple, ring: bool):
    """Bind `algo`'s transition to whole-chain arrays.

    Returns (step, readout).  `step(t, own, lh, rh)` gives the round-t state
    rows of every engine index from histories of shape (rows, size), most
    recent first; `readout(state, prev, t)` gives y of the real sensors.
    """
    off, _, _, _, stop = topo
    real = slice(off, off + n)
    x0 = x[0]

    if isinstance(algo, DynamicWindow):
        L = algo.half_width
        return (lambda t, own, lh, rh: [
            z_slot_transition(t, j, [h[j] for h in own], [h[j] for h in lh],
                              [h[j] for h in rh], x[t], L) for j in range(L + 1)],
            lambda state, prev, t: assemble_y(state[:, real], prev[:, real], t, L))
    if not isinstance(algo, BandedWeighting):  # one state row, which is y
        if isinstance(algo, ExponentialWeighting):
            value = lambda t, own, lh, rh: exp_transition(t, own, lh, rh, x0, algo.rho)
        elif isinstance(algo, AsymmetricWeighting):
            value = lambda t, own, lh, rh: asym_transition(
                t, own, lh, rh, x0, algo.rho_back, algo.rho_forward)
        elif isinstance(algo, FiniteWindow):
            value = lambda t, own, lh, rh: window_transition(t, own, lh, rh, x0, algo.half_width)
        elif isinstance(algo, PerSensorWindow):
            # each index stops at its own half-width; a frozen index's value is
            # discarded, so its half-width need only pass the termination check
            value = lambda t, own, lh, rh: variable_window_transition(
                t, own, lh, rh, x0, np.maximum(stop, t))
        else:
            value = lambda t, own, lh, rh: dyn_exp_transition(
                t, own, lh, rh, x[max(t - 3, 0):t + 1][::-1], algo.rho)
        return (lambda t, own, lh, rh: (value(t, own, lh, rh),),
                lambda state, prev, t: state[0, real])
    table = algo.table
    # weight rows as columns, so band[offset + radius] holds one weight per
    # sensor (ghosts reuse the edge sensor's row), padded like the histories;
    # a pad of ones stands in for a missing neighbor
    band = np.ones((2 * table.radius + 1, len(x0) + 2))
    band[:, 1:-1] = np.pad(table.weights, ((off, off), (0, 0)), mode="edge").T
    _wrap(band, ring)
    own_band, left_band, right_band = band[:, 1:-1], band[:, :-2], band[:, 2:]

    def step(t, own, lh, rh):
        s = fb_transition(t, [FBState(*h) for h in own], [FBState(*h) for h in rh],
                          [FBState(*h) for h in lh], x0, own_band, right_band, left_band,
                          table.row_sum)
        if t and not ring:
            # a cut end keeps its sum in the direction that has no neighbor;
            # past round 0 both sums are fresh arrays
            s.forward[-1], s.backward[0] = own[0][0, -1], own[0][1, 0]
        return s

    return step, lambda state, prev, t: glue(
        FBState(*state[:, real]), x0[real], own_band[table.radius, real], table.row_sum)


@lru_cache(maxsize=1)
def _weight_sums(half_widths: tuple, n: int, ring: bool) -> tuple:
    """Final-value coefficient totals per sensor of a per-sensor window, which
    need not equal one, so a run surfaces them; kept for the latest case."""
    from .oracle import variable_window_row  # oracle imports this module
    sums = variable_window_row(MeasurementField(Constant(1.0)), half_widths, n=n,
                               boundary=Ring() if ring else ZeroHalo())
    return tuple(sums.tolist())


def run(config: ChainConfig, field_: MeasurementField, algo: AlgorithmSpec) -> ConsensusTrace:
    """Execute `rounds` synchronous rounds and return the full trace.

    Deterministic in (config, field_, algo) including the noise seed; raises
    ValidationError up front and DivergedError if a value leaves float range.
    """
    off, left, _, rows, stop = topo = _topology(config, algo)
    n, rounds, size = config.n, config.rounds, len(left)
    ring = isinstance(config.boundary, Ring)
    time_varying = isinstance(algo, (DynamicExponential, DynamicWindow))
    x = np.zeros((rounds + 1 if time_varying else 1, size))  # ghosts measure zero
    x[:, off:off + n] = evaluate_grid(field_, n, x.shape[0])
    step, readout = _rule(algo, x, n, topo, ring)

    # round-major storage; the trace holds transposed views of it
    y = np.empty((rounds + 1, n))
    z = np.empty((rounds + 1, n, rows)) if isinstance(algo, DynamicWindow) else None
    # three reused state buffers, most recent first, zero before round 0,
    # padded by one column per side with ring-wrap copies, or zeros for a
    # missing neighbor: [:, 1:-1] holds each index's own state, [:, :-2] its
    # left and [:, 2:] its right neighbor's
    hist = [np.zeros((rows, size + 2)) for _ in range(3)]
    all_step, any_step = stop.min(), stop.max()  # the last rounds every / some index steps
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values raise below
        for t in range(rounds + 1):
            if t <= any_step:  # frozen sensors keep broadcasting their last state
                new = hist[2][:, 1:-1]  # the oldest buffer; transitions return fresh arrays
                state = step(t, [h[:, 1:-1] for h in hist[:min(t, 3)]],
                             [h[:, :-2] for h in hist[:min(t, 2)]],
                             [h[:, 2:] for h in hist[:min(t, 2)]])
                for row, value in zip(new, state):
                    row[...] = value
                if t > all_step:
                    np.copyto(new, hist[0][:, 1:-1], where=stop < t)
                if not np.isfinite(new).all():
                    bad = ~np.isfinite(new).all(axis=0)
                    raise DivergedError(int(bad.argmax()) - off, t)
                _wrap(hist[2], ring)
                hist = hist[2:] + hist[:2]
            # once every sensor is frozen the state stays put, and only the
            # dynamic window, which never freezes, reads the previous state
            y[t] = readout(hist[0][:, 1:-1], hist[1][:, 1:-1], t)
            if z is not None:
                z[t] = hist[0][:, 1 + off:1 + off + n].T

    metadata = {}
    if isinstance(algo, PerSensorWindow):
        metadata["weight_sums"] = _weight_sums(algo.half_widths, n, ring)
    return ConsensusTrace(y=y.T, z=None if z is None else z.transpose(1, 0, 2),
                          config=config, algo=algo, metadata=metadata)


def audit_locality(trace: ConsensusTrace) -> int:
    """Number of audit records whose sender is not an immediate neighbor of
    the receiver under the trace's boundary arithmetic.  A transition history
    deeper than three rounds also counts as one violation."""
    hop = trace.audit["receiver"] - trace.audit["sender"]
    if isinstance(trace.config.boundary, Ring):
        hop = (hop + 1) % trace.config.n - 1  # a wrap pair is one hop apart
    return int(np.count_nonzero(np.abs(hop) != 1)) + (trace.own_history_depth > 3)


def _labels(count: int, lead: int, end: int) -> np.ndarray:
    """(count, lead // 8) uint64: the bytes of `i,` for each i in
    range(count), ending at byte `end` of `lead`, and nul elsewhere."""
    text = np.zeros((count, lead), dtype=np.uint8)
    text[:, end - 1] = ord(",")
    i = np.arange(count)
    for p in range(len(str(count - 1))):
        shifted = i // 10 ** p
        text[:, end - 2 - p] = (shifted % 10 + ord("0")) * ((shifted > 0) | (p == 0))
    return text.view(np.uint64)


def trace_to_csv(trace: ConsensusTrace) -> str:
    """Rows `round,sensor,y` (plus z0..zL columns for the dynamic window),
    each value written as `'%.17g' % v` writes it, so values survive a
    round-trip."""
    # the chunks come from a generator so that its buffers are freed before
    # the join: the peak stays near twice the size of the text
    return "".join(_csv_chunks(trace))


def _csv_chunks(trace: ConsensusTrace):
    """The header line, then the text of successive blocks of rows.  A block
    is built as fixed-width byte rows, and the nul bytes between their
    characters are deleted."""
    slots = trace.z.shape[2] if trace.z is not None else 0
    yield "round,sensor,y" + "".join(f",z{j}" for j in range(slots)) + "\n"
    n, cols = trace.y.shape
    width = 1 + slots
    # one row of values per CSV row, rows in round-major order: views of
    # `run`'s storage, copied only for a trace built with another layout
    y = np.ascontiguousarray(trace.y.T).reshape(-1, 1)
    z = np.ascontiguousarray(trace.z.transpose(1, 0, 2)).reshape(-1, slots) if slots else None
    wr, ws = len(str(cols - 1)) + 1, len(str(n - 1)) + 1
    lead = -(-(wr + ws) // 8) * 8  # keeps the value columns 8-byte aligned
    rounds, sensors = _labels(cols, lead, wr), _labels(n, lead, wr + ws)
    step = max(1, _BLOCK_VALUES // width)
    for start in range(0, n * cols, step):
        row = np.arange(start, min(start + step, n * cols))
        t = row // n
        i = row - t * n
        block = np.empty((len(row), lead + width * WIDTH), dtype=np.uint8)
        np.bitwise_or(np.take(rounds, t, axis=0), np.take(sensors, i, axis=0),
                      out=block[:, :lead].view(np.uint64))
        cells = block[:, lead:].reshape(len(row), width, WIDTH)
        write_g17(y[start:start + len(row)], cells[:, :1])
        if slots:
            write_g17(z[start:start + len(row)], cells[:, 1:])
        cells[:, :, -1] = ord(",")
        cells[:, -1, -1] = ord("\n")
        yield block.tobytes().translate(None, b"\0").decode("ascii")
