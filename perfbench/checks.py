"""Output checks made apart from the engine.

Every checker returns a list of problems; an empty list means the output
passed.  Nothing here steps the distributed recursions: trace values are
compared with the `lacsim.oracle` closed forms (computed by the caller),
CSV text is parsed back by this module's own reader, and the Monte Carlo
variances are compared with closed forms derived here from the gap and noise
laws, not read from the program.
"""
from __future__ import annotations

import math

import numpy as np

TOLERANCE = 1e-10    # |trace - oracle| bound of acceptance criterion 1
SE_LIMIT = 5.0       # Monte Carlo estimates must sit within 5 standard errors
MAX_REPORTED = 3     # problems listed per checker before summarising


def parse_trace_csv(text: str):
    """Read `round,sensor,y[,z0..zL]` rows back into y (n, rounds+1) and
    z (n, rounds+1, slots) or None.  Rows must come round-major, sensors in
    order, exactly as the engine's writer promises."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    lines.pop()
    header = lines[0].split(",")
    slots = len(header) - 3
    if header[:3] != ["round", "sensor", "y"] or header[3:] != [f"z{j}" for j in range(slots)]:
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if not rows:
        raise ValueError("CSV holds no rows")
    n = 1 + max(int(r[1]) for r in rows)
    if len(rows) % n:
        raise ValueError(f"{len(rows)} rows do not fill whole rounds of {n} sensors")
    cols = len(rows) // n
    y = np.empty((n, cols))
    z = np.empty((n, cols, slots)) if slots else None
    for index, row in enumerate(rows):
        t, i = divmod(index, n)
        if len(row) != 3 + slots or int(row[0]) != t or int(row[1]) != i:
            raise ValueError(f"row {index + 1} is {','.join(row)!r}; "
                             f"expected round {t}, sensor {i}")
        y[i, t] = float(row[2])
        if slots:
            z[i, t] = [float(v) for v in row[3:]]
    return y, z


def _bits_differ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a.view(np.uint64) != b.view(np.uint64)


def roundtrip_problems(csv_text: str, y: np.ndarray, z: np.ndarray | None) -> list[str]:
    """The CSV must hold the in-memory trace bit for bit."""
    try:
        got_y, got_z = parse_trace_csv(csv_text)
    except ValueError as exc:
        return [f"CSV does not parse: {exc}"]
    if got_y.shape != y.shape:
        return [f"CSV holds y of shape {got_y.shape}, trace has {y.shape}"]
    if (got_z is None) != (z is None) or (z is not None and got_z.shape != z.shape):
        return ["CSV slot columns do not match the trace"]
    problems = []
    for name, got, want in (("y", got_y, y), ("z", got_z, z)):
        if want is None:
            continue
        bad = np.argwhere(_bits_differ(np.ascontiguousarray(got), np.ascontiguousarray(want)))
        for idx in bad[:MAX_REPORTED]:
            problems.append(f"CSV {name}{tuple(int(v) for v in idx)} = {got[tuple(idx)]!r}, "
                            f"trace holds {want[tuple(idx)]!r}")
        if len(bad) > MAX_REPORTED:
            problems.append(f"... {len(bad)} {name} values differ in all")
    return problems


def agreement_problems(values, expected, label, tol: float = TOLERANCE) -> list[str]:
    """Each value must lie within `tol` of its oracle value; `label(j)` names
    point j in a report."""
    values = np.asarray(values, dtype=float)
    expected = np.asarray(expected, dtype=float)
    err = np.abs(values - expected)
    bad = np.flatnonzero(~(err <= tol))  # NaN counts as a disagreement
    problems = [f"{label(j)}: value {values.flat[j]!r}, oracle {expected.flat[j]!r} "
                f"(|diff| {err.flat[j]:.3e} > {tol})" for j in bad[:MAX_REPORTED]]
    if len(bad) > MAX_REPORTED:
        problems.append(f"... {len(bad)} of {err.size} points disagree")
    return problems


def interior_points(n: int, rounds: int, count: int, rng: np.random.Generator):
    """(sensor, round) pairs more than k hops from either chain end at round k,
    where a truncated chain must equal the zero-extended line."""
    points = []
    ks = [k for k in range(rounds + 1) if n - 1 - k > k + 1]
    while len(points) < count:
        k = int(rng.choice(ks))
        points.append((int(rng.integers(k + 1, n - 1 - k)), k))
    return points


def bytes_problems(a: bytes, b: bytes, what: str) -> list[str]:
    if a == b:
        return []
    at = next((j for j, (p, q) in enumerate(zip(a, b)) if p != q), min(len(a), len(b)))
    return [f"{what}: byte {at} differs ({len(a)} vs {len(b)} bytes)"]


# -- Monte Carlo closed forms -------------------------------------------------

def noise_variance(target: str, param, sigma: float) -> float:
    """Steady-state output variance under iid N(0, sigma^2) measurement noise."""
    s2 = sigma * sigma
    if target == "exponential":
        rho = param
        return (1.0 - rho) * (1.0 + rho * rho) / (1.0 + rho) ** 3 * s2
    if target == "window":
        return s2 / (2 * param + 1)
    if target == "global":
        return s2 / param
    raise ValueError(f"unknown noise target {target!r}")


def noise_problems(report, target: str, param, sigma: float) -> list[str]:
    """The sample variance is a mean of per-sensor sample variances of
    Gaussian outputs, so its standard error is at most v * sqrt(2 / (R - 1))."""
    v = noise_variance(target, param, sigma)
    problems = []
    if not math.isclose(report.analytic_variance, v, rel_tol=1e-12):
        problems.append(f"noise {target}: program's closed form {report.analytic_variance!r}, "
                        f"expected {v!r}")
    se = v * math.sqrt(2.0 / (report.replicates - 1))
    if not abs(report.sampled_variance - v) <= SE_LIMIT * se:
        problems.append(f"noise {target}: sampled variance {report.sampled_variance!r} is "
                        f"{abs(report.sampled_variance - v) / se:.1f} standard errors from {v!r}")
    return problems


def gap_power_means(law: str, rho: float, eta: float | None, orders: int) -> list[float]:
    """E[xi^m] for xi = rho^gap, m = 1..orders."""
    t = math.log(rho)
    if law == "exp_density":
        return [1.0 / (1.0 - m * t) for m in range(1, orders + 1)]
    out = []
    for m in range(1, orders + 1):
        a = m * t
        out.append((math.exp(a * (1.0 + eta)) - math.exp(a * (1.0 - eta))) / (2.0 * eta * a))
    return out


def spacing_closed_form(law: str, rho: float, eta: float | None = None):
    """(K, variance, fourth central moment) of the normalised consensus value
    y = K (1 + U + U') on an all-ones field, U and U' iid one-sided sums.

    U = xi_1 (1 + U''), with U'' distributed as U and independent of xi_1,
    gives E[U^m] (1 - E[xi^m]) = E[xi^m] sum_{j<m} C(m, j) E[U^j].
    """
    xi = gap_power_means(law, rho, eta, 4)
    mom = [1.0]
    for m in range(1, 5):
        acc = sum(math.comb(m, j) * mom[j] for j in range(m))
        mom.append(xi[m - 1] * acc / (1.0 - xi[m - 1]))
    mu = mom[1]
    c2 = mom[2] - mu * mu
    c4 = mom[4] - 4 * mu * mom[3] + 6 * mu * mu * mom[2] - 3 * mu ** 4
    k = (1.0 - xi[0]) / (1.0 + xi[0])
    return k, 2.0 * k * k * c2, k ** 4 * (2.0 * c4 + 6.0 * c2 * c2)


def spacing_problems(report, law: str, rho: float, eta: float | None = None) -> list[str]:
    k, var, mu4 = spacing_closed_form(law, rho, eta)
    r = report.replicates
    problems = []
    if law == "exp_density":
        s = -math.log(rho)
        if not math.isclose(var, s / (2.0 + s) ** 2, rel_tol=1e-9):
            problems.append(f"moment chain gives {var!r}, not s/(2+s)^2")
    if not math.isclose(report.k_analytic, k, rel_tol=1e-12):
        problems.append(f"spacing {law}: program's K {report.k_analytic!r}, expected {k!r}")
    mean_se = math.sqrt(var / r)
    if not abs(report.mean - 1.0) <= SE_LIMIT * mean_se:
        problems.append(f"spacing {law}: mean {report.mean!r} is "
                        f"{abs(report.mean - 1.0) / mean_se:.1f} standard errors from 1")
    var_se = math.sqrt((mu4 - var * var) / r)
    if not abs(report.var_sampled - var) <= SE_LIMIT * var_se:
        problems.append(f"spacing {law}: variance {report.var_sampled!r} is "
                        f"{abs(report.var_sampled - var) / var_se:.1f} standard errors "
                        f"from {var!r}")
    return problems
