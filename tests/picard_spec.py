"""The system type of `series.solve_fixed_point`, the Picard reference solver
that the layer-by-layer engines are tested against.

`perfbench/traced.py` counts the solver's sweeps by `dataclasses.replace` on
the spec, so it stays a dataclass.
"""

from dataclasses import dataclass
from typing import Callable


@dataclass
class FixedPointSpec:
    """Named zero initializations, the update rule and its least t-gain, as
    `series.solve_fixed_point` describes them."""

    zero: dict
    update: Callable[[dict, int], dict]
    min_gain: int = 1
