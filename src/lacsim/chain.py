"""Chain configuration and the synchronous message-passing harness.

One round = one synchronous exchange: every sensor broadcasts its state, then
every sensor updates from the same round snapshot.  Sensors see only the last
two messages from each immediate neighbor and at most three rounds of their
own history, so locality is enforced by construction.  `run` calls the rule's
transition on whole-chain arrays: each update rule is a 3-point stencil, so a
sensor's own, left and right histories are three shifted views of one padded
state buffer, built once per run.  The dynamic window's slots are rows of one
buffer, stepped with one call per group of slots at one stage (`phase_groups`),
and its y sums their increments in `assemble_y`'s order.  Each round's y is
written into round-major (rounds + 1, n) storage.  The audit, one integer row
per delivered message, is derived on read from the last active rounds.

Boundary policies:
  Ring       indices wrap modulo n (exact for spatially periodic fields);
  ZeroHalo   `rounds` ghost sensors running the same rule with x = 0 pad
             each end; nothing beyond them can reach a real sensor, making
             the zero-extended-line targets exact;
  Truncated  missing neighbors contribute zero to every difference term: an end
             effect, except under banded weights, where ZeroHalo's ghosts send zeros.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

# assemble_y, z_slot_transition, validate_weights and evaluate_field are not
# called here, but stay names of this module: perfbench/tracer.py wraps them
from .arbitrary_weights import (BandedWeighting, FBState, fb_transition, glue,  # noqa: F401
                                validate_weights)
from .dynamic_rules import (DynamicExponential, DynamicWindow, assemble_y,  # noqa: F401
                            dyn_exp_transition, phase_groups, z_slot_transition)
from .errors import DivergedError, ValidationError
from .fields import MeasurementField, evaluate_field, evaluate_grid  # noqa: F401
from .g17 import TEXT4, WIDTH, write_g17
from .static_rules import (AsymmetricWeighting, ExponentialWeighting, FiniteWindow,
                           PerSensorWindow, _check_integer, asym_transition, exp_transition,
                           variable_window_transition, window_transition)


@dataclass(frozen=True)
class Ring:
    pass


@dataclass(frozen=True)
class ZeroHalo:
    pass


@dataclass(frozen=True)
class Truncated:
    pass


Boundary = Union[Ring, ZeroHalo, Truncated]

# values at most per call stepping dynamic window slots (one slot at least):
# temporaries stay cache-sized and memory bounded, whatever the chain length
_BLOCK_VALUES = 16384
# values per block of trace_to_csv (one row at least): each of its 8-byte
# temporaries, 64 KiB, stays below glibc's default 128 KiB mmap threshold,
# so a block reuses heap memory whatever ran before it
_CSV_BLOCK = 8192

AlgorithmSpec = Union[ExponentialWeighting, AsymmetricWeighting, FiniteWindow,
                      PerSensorWindow, BandedWeighting, DynamicExponential, DynamicWindow]
TIME_VARYING = (DynamicExponential, DynamicWindow)  # the rules that read the field past step 0


@dataclass(frozen=True)
class ChainConfig:
    n: int
    boundary: Boundary = Ring()
    rounds: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n", _check_integer("n", self.n, 3))
        if not isinstance(self.boundary, (Ring, ZeroHalo, Truncated)):
            raise ValidationError(
                f"boundary must be Ring(), ZeroHalo() or Truncated(), got {self.boundary!r}")
        object.__setattr__(self, "rounds", _check_integer("rounds", self.rounds, 0))

    def halo_depth(self) -> int:
        """Ghost sensors per end: the horizon for a zero halo, so no unmodeled
        information can reach a real sensor (one hop per round), and a
        deeper halo would change nothing; 0 for the other boundaries."""
        return self.rounds if isinstance(self.boundary, ZeroHalo) else 0


# one audit row per delivered message; size is the payload length in values
MessageRecord = np.dtype([("round", np.int32), ("receiver", np.int32),
                          ("sender", np.int32), ("size", np.int32)])


@dataclass
class ConsensusTrace:
    y: np.ndarray                       # (n, rounds + 1)
    z: np.ndarray | None                # (n, rounds + 1, slots) for the dynamic window
    config: ChainConfig
    algo: AlgorithmSpec

    @property
    def rounds(self) -> int:
        return self.y.shape[1] - 1

    @functools.cached_property
    def audit(self) -> np.ndarray:
        """MessageRecord rows in delivery order (per round, each active receiver
        e hears e - 1, then e + 1), derived from `run`'s topology."""
        off, rows, stop = _topology(self.config, self.algo)
        size = len(stop)
        receiver = np.repeat(np.arange(size), 2)
        # a ring wraps; past the ends of a line the sender is size, missing
        wrap = size if isinstance(self.config.boundary, Ring) else size + 1
        sender = (receiver + np.tile((-1, 1), size)) % wrap
        rounds = np.arange(1, self.config.rounds + 1)[:, None]
        active = (stop[receiver] >= rounds) & (sender != size)  # row-major: round, message
        audit = np.empty(np.count_nonzero(active), MessageRecord)
        audit["size"] = rows
        for name, v in ("round", rounds), ("receiver", receiver - off), ("sender", sender - off):
            audit[name] = np.broadcast_to(v.astype(np.int32), active.shape)[active]
        return audit


def check_fit(algo: AlgorithmSpec, n: int, ring: bool) -> int | None:
    """The largest hop reach of `algo` (None for a geometric rule), once the
    rule is checked to fit a chain of n sensors, for `run` and the oracle
    alike; the rule's own numbers are checked by its class."""
    reach = None
    if isinstance(algo, (FiniteWindow, DynamicWindow)):
        reach = algo.half_width
    elif isinstance(algo, BandedWeighting):
        reach = algo.table.radius
        if algo.table.n != n:
            raise ValidationError(f"weight table has {algo.table.n} rows for n={n} sensors")
    elif isinstance(algo, PerSensorWindow):
        widths = algo.half_widths
        reach = max(widths)
        if len(widths) != n:
            raise ValidationError(f"need one half-width per sensor: got {len(widths)} for n={n}")
        if ring and abs(widths[-1] - widths[0]) > 1:
            raise ValidationError("ring wrap pair of half-widths differs by more than one: "
                                  f"{widths[-1]}, {widths[0]}")
    # the wrapped window of the largest hop reach must not self-intersect
    if ring and reach is not None and n < 2 * reach + 1:
        raise ValidationError(f"ring of n={n} sensors cannot host a window of half-width "
                              f"{reach}; need n >= {2 * reach + 1}")
    return reach


def _topology(config: ChainConfig, algo: AlgorithmSpec) -> tuple:
    """What `run` steps: the halo depth off (engine index e is sensor e - off),
    the state rows (a message's length) and the last round each index
    updates.  Raises ValidationError unless `algo` fits the chain (`check_fit`)."""
    n, off = config.n, config.halo_depth()
    reach = check_fit(algo, n, isinstance(config.boundary, Ring))
    rows, stop = 1, np.full(n + 2 * off, config.rounds)
    if isinstance(algo, (FiniteWindow, BandedWeighting)):
        stop[:] = reach  # past it a sensor is frozen
    elif isinstance(algo, PerSensorWindow):  # ghosts reuse the edge sensor's half-width
        stop = np.pad(algo.half_widths, off, mode="edge")
    elif isinstance(algo, DynamicWindow):
        rows = reach + 1
    if isinstance(algo, BandedWeighting):
        rows = 2  # the forward and backward sums
    return off, rows, stop


def _pads(padded: np.ndarray) -> tuple:
    """The pad columns 0 and size + 1 of a (rows, size + 2) array, and its
    columns size and 1, which a ring copies into them."""
    size = padded.shape[1] - 2
    return padded[:, ::size + 1], padded[:, size:0:1 - size]


def _rule(algo: AlgorithmSpec, x: np.ndarray, topo: tuple, views: list, ring: bool):
    """Bind `algo`'s transition to whole-chain arrays.

    Returns (step, readout).  `step(t, p, new)` writes round t's state rows
    of every engine index into `new` from the histories `views[p]`.
    `readout(state, prev, t)` gives y of every engine index from the padded
    states of rounds t and t - 1, non-finite where `state` is.
    """
    off, _, stop = topo
    x0 = x[0]
    if isinstance(algo, DynamicWindow):
        L, width = algo.half_width, len(x0) + 2
        terms = np.empty((L + 2, width))
        # a round's groups (from round L on they repeat every L + 1 rounds),
        # and the histories of the slots lo..hi-1, sliced once per rotation
        groups = functools.cache(lambda k: phase_groups(k, L, max(1, _BLOCK_VALUES // width)))
        slots = functools.cache(lambda p, lo, hi: [[h[lo:hi] for h in v] for v in views[p]])

        def step(t, p, new):
            for k, lo, hi in groups(min(t, L + (t - L) % (L + 1))):
                new[lo:hi] = window_transition(k, *slots(p, lo, hi), x[t], L)

        def readout(state, prev, t):
            # assemble_y's sum in its order: restart slot j, then the others'
            # increments.  Adding -0.0 changes no value, so it starts the sum and
            # stands in for slot j's; along the slow axis, rows add in order
            np.subtract(state, prev, out=terms[1:])
            terms[0], terms[t % (L + 1) + 1] = state[t % (L + 1)], -0.0
            return np.add.reduce(terms[:, 1:-1], axis=0, initial=-0.0)

        return step, readout
    if isinstance(algo, BandedWeighting):
        table = algo.table
        # weight rows as columns, so band[offset + radius] holds one weight per
        # sensor (ghosts reuse the edge sensor's row), padded like the
        # histories; a pad of ones stands in for a missing neighbor
        band = np.ones((2 * table.radius + 1, len(x0) + 2))
        band[:, 1:-1] = np.pad(table.weights, ((off, off), (0, 0)), mode="edge").T
        if ring:
            np.copyto(*_pads(band))
        own_band, left_band, right_band = band[:, 1:-1], band[:, :-2], band[:, 2:]
        states = [[[FBState(*h) for h in v] for v in (own, rh, lh)] for own, lh, rh in views]

        def step(t, p, new):  # forward sums come from the right, backward from the left
            new[0], new[1] = fb_transition(t, *states[p], x0, own_band, right_band, left_band,
                                           table.row_sum)

        return step, lambda state, prev, t: glue(FBState(*state[:, 1:-1]), x0,
                                                  own_band[table.radius], table.row_sum)
    # one state row, which is y
    if isinstance(algo, ExponentialWeighting):
        def step(t, p, new):
            new[0] = exp_transition(t, *views[p], x0, algo.rho)
    elif isinstance(algo, AsymmetricWeighting):
        def step(t, p, new):
            new[0] = asym_transition(t, *views[p], x0, algo.rho_back, algo.rho_forward)
    elif isinstance(algo, (FiniteWindow, PerSensorWindow)):
        def step(t, p, new):
            # each index stops at its half-width and a frozen index's value is
            # discarded, so past round 0 the half-width t passes for all
            new[0] = variable_window_transition(t, *views[p], x0, t or stop)
    else:
        recent, last = x[::-1], len(x) - 1  # x(t), x(t-1), ... from row last - t

        def step(t, p, new):
            new[0] = dyn_exp_transition(t, *views[p], recent[last - t:last - t + 4], algo.rho)
    return step, lambda state, prev, t: state[0, 1:-1]


def run(config: ChainConfig, field_: MeasurementField, algo: AlgorithmSpec) -> ConsensusTrace:
    """Execute `rounds` synchronous rounds and return the full trace.

    Deterministic in (config, field_, algo) including the noise seed; raises
    ValidationError up front and DivergedError if a value leaves float range.
    """
    off, rows, stop = topo = _topology(config, algo)
    n, rounds, size = config.n, config.rounds, len(stop)
    ring = isinstance(config.boundary, Ring)
    x = np.zeros((rounds + 1 if isinstance(algo, TIME_VARYING) else 1, size))  # ghosts measure 0
    x[:, off:off + n] = evaluate_grid(field_, n, x.shape[0])

    # round-major storage; the trace holds transposed views of it
    y = np.empty((rounds + 1, n))
    z = np.empty((rounds + 1, n, rows)) if isinstance(algo, DynamicWindow) else None
    # three reused state buffers, zero before round 0, padded by one column
    # per side with ring-wrap copies, or zeros for a missing neighbor: [:, 1:-1]
    # holds each index's own state, [:, :-2] its left and [:, 2:] its right
    # neighbor's.  Each round overwrites the oldest, so after t rounds they are
    # orders[t % 3] most recent first; views[t % 3] holds the views so.
    hist = [np.zeros((rows, size + 2)) for _ in range(3)]
    own, lh, rh = ([h[:, s] for h in hist] for s in (np.s_[1:-1], np.s_[:-2], np.s_[2:]))
    orders = [[(b - p) % 3 for b in range(3)] for p in range(3)]
    views = [([own[b] for b in o], [lh[b] for b in o[:2]], [rh[b] for b in o[:2]]) for o in orders]
    step, readout = _rule(algo, x, topo, views, ring)
    pads = [_pads(h) for h in hist]
    all_step, any_step = stop.min(), stop.max()  # the last rounds every / some index steps
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values raise below
        for t in range(rounds + 1):
            if t > any_step:  # every index is frozen, and so is y
                y[t] = y[t - 1]
                continue
            latest, _, oldest = orders[t % 3]
            new = own[oldest]
            step(t, t % 3, new)
            if t > all_step:  # frozen indices keep broadcasting their last state
                np.copyto(new, own[latest], where=stop < t)
            if ring:
                np.copyto(*pads[oldest])
            row = readout(hist[oldest], hist[latest], t)
            # its sum of squares is finite only if every y value is (a
            # non-finite state gives a non-finite y); if it overflows, y is
            # checked value by value
            if not math.isfinite(np.vdot(row, row)):
                bad = ~np.isfinite(row)
                if bad.any():
                    raise DivergedError(int(bad.argmax()) - off, t)
            y[t] = row[off:off + n]
            if z is not None:
                z[t] = new[:, off:off + n].T

    return ConsensusTrace(y=y.T, z=None if z is None else z.transpose(1, 0, 2),
                          config=config, algo=algo)


def _labels(count: int, lead: int, end: int) -> np.ndarray:
    """(count, lead // 8) uint64: the bytes of `i,` for each i in
    range(count), ending at byte `end` of `lead`, and nul elsewhere."""
    text = np.zeros((count, lead), dtype=np.uint8)
    text[:, end - 1] = ord(",")
    digits = len(str(count - 1))
    i = np.arange(count)
    for p in range(0, digits, 4):  # 4 digits at a time, from the table
        size = min(4, digits - p)
        group = i // 10 ** p
        if p + 4 < digits:
            group %= 10 ** 4
        text[:, end - 1 - p - size:end - 1 - p] = np.take(TEXT4, group, axis=0)[:, 4 - size:]
    for p in range(1, digits):  # i < 10**p has no digit at place p
        text[:10 ** p, end - 2 - p] = 0
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
    is built as fixed-width byte rows in one reused buffer, its values
    formatted by one `write_g17` call, and the nul bytes between their
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
    rounds, sensors = _labels(cols, lead, wr)[:, None], _labels(n, lead, wr + ws)
    # a block is whole rounds, or a slice of one round that outgrows a block
    step = max(1, _CSV_BLOCK // width)
    per_block, per_slice = min(max(1, step // n), cols), min(step, n)
    # one block buffer per call, a bytearray so that a full block's nul bytes
    # are deleted with no copy; [y | z] of a block gathered in one array
    size = per_block * per_slice
    buffer = bytearray(size * (lead + width * WIDTH))
    rows = np.frombuffer(buffer, dtype=np.uint8).reshape(size, -1)
    gathered = np.empty((size, width)) if slots else None
    for t, i in ((t, i) for t in range(0, cols, per_block) for i in range(0, n, per_slice)):
        r, s = min(per_block, cols - t), min(per_slice, n - i)
        start, count = t * n + i, r * s
        block = rows[:count]
        np.bitwise_or(rounds[t:t + r], sensors[i:i + s],
                      out=block[:, :lead].view(np.uint64).reshape(r, s, -1))
        cells = block[:, lead:].reshape(count, width, WIDTH)
        values = y[start:start + count]
        if slots:
            values = gathered[:count]
            values[:, :1], values[:, 1:] = y[start:start + count], z[start:start + count]
        write_g17(values, cells)
        cells[:, :, -1] = ord(",")
        cells[:, -1, -1] = ord("\n")
        text = buffer if count == size else buffer[:block.nbytes]
        yield text.translate(None, b"\0").decode("ascii")
