"""Test helpers for the Picard reference solver `series.solve_fixed_point`:
its system type, and the x <-> y swap of a `BivSeries` that the reference
peeling equations and the series tests use.

`perfbench/traced.py` counts the solver's sweeps by `dataclasses.replace` on
the spec, so it stays a dataclass.
"""

from dataclasses import dataclass
from typing import Callable

from isingtri.series import BivSeries


@dataclass
class FixedPointSpec:
    """Named zero initializations, the update rule and its least t-gain, as
    `series.solve_fixed_point` describes them."""

    zero: dict
    update: Callable[[dict, int], dict]
    min_gain: int = 1


def swap_xy(b: BivSeries) -> BivSeries:
    """b with the catalytic variables x and y exchanged."""
    out = BivSeries(b.nu, b.order, b.dy, b.dx)
    out.coeffs = {(k, j, i): c for (k, i, j), c in b.coeffs.items()}
    return out
