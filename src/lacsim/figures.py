"""Analytic gain curves behind the standard five plots, emitted as CSV data.

Grids are fixed and documented here: the decay-rate family {0.8, 0.9, 0.95,
0.99} on a near-origin grid (251 points on [0, 0.5]) and a full grid (601
points on [0, pi]); the temporal window family {2, 5, 10, 20} on the full
grid.  Rows are `omega,gain,param`; plotting is out of scope.
"""
from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from .analysis import closed_form_gain
from .dynamic_rules import DynamicExponential, DynamicWindow
from .static_rules import ExponentialWeighting

RHO_GRID = (0.8, 0.9, 0.95, 0.99)
WINDOW_GRID = (2, 5, 10, 20)
OMEGA_ORIGIN = np.linspace(0.0, 0.5, 251)
OMEGA_FULL = np.linspace(0.0, math.pi, 601)


# figure name -> (rule class, parameters, frequencies) of its rows
FIGURES = {
    "fig1_spatial_exp_origin": (ExponentialWeighting, RHO_GRID, OMEGA_ORIGIN),
    "fig2_spatial_exp_full": (ExponentialWeighting, RHO_GRID, OMEGA_FULL),
    "fig3_temporal_exp_origin": (DynamicExponential, RHO_GRID, OMEGA_ORIGIN),
    "fig4_temporal_exp_full": (DynamicExponential, RHO_GRID, OMEGA_FULL),
    "fig5_temporal_window_full": (DynamicWindow, WINDOW_GRID, OMEGA_FULL),
}


def table_to_csv(rows) -> str:
    lines = ["omega,gain,param"]
    for omega, gain, param in rows:
        lines.append(f"{format(omega, '.17g')},{format(gain, '.17g')},{param}")
    return "\n".join(lines) + "\n"


def write_text(path: Path, text: str) -> None:
    """Write `text` to `path` in place, then cut it to length: truncating first
    would free the blocks of an existing file only to fill new ones."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as out:
        out.write(text)
        out.truncate()


def write_figures(out_dir) -> list:
    """Write each figure's CSV under `out_dir` by `write_text`, and return
    their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, (rule, params, omegas) in FIGURES.items():
        rows = [(w, closed_form_gain(rule(p), w), p) for p in params for w in omegas]
        path = out / f"{name}.csv"
        write_text(path, table_to_csv(rows))
        written.append(path)
    return written
