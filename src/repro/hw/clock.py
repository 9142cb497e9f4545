"""Clock-glitch parameters (Figure 1) and the scan grids used in Section V.

A clock glitch is tuned by three parameters:

- ``ext_offset`` — the clock cycle, counted from the trigger, at which the
  glitch lands (the paper's "offset from the trigger");
- ``offset`` — where inside the clock cycle the extra edge is inserted,
  as a percentage of the cycle in ``[-49, 49]``;
- ``width`` — the width of the injected pulse, same percentage range.

The paper scans the full ``[-49%, 49%] × [-49%, 49%]`` grid — 99 × 99 =
9,801 attempts per clock cycle — which is the exact population every table
reports over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import GlitchConfigError

#: Integer percentage grid, matching the ChipWhisperer's resolution.
WIDTH_RANGE = range(-49, 50)
OFFSET_RANGE = range(-49, 50)

GRID_POINTS = len(WIDTH_RANGE) * len(OFFSET_RANGE)  # 9,801


@dataclass(frozen=True)
class GlitchParams:
    """One fully-specified clock glitch."""

    ext_offset: int
    width: int
    offset: int
    #: number of contiguous clock cycles glitched (1 = single; >1 = long glitch)
    repeat: int = 1

    def __post_init__(self) -> None:
        if self.ext_offset < 0:
            raise GlitchConfigError(f"ext_offset must be non-negative, got {self.ext_offset}")
        if self.width not in WIDTH_RANGE:
            raise GlitchConfigError(f"width {self.width} outside [-49, 49]")
        if self.offset not in OFFSET_RANGE:
            raise GlitchConfigError(f"offset {self.offset} outside [-49, 49]")
        if self.repeat < 1:
            raise GlitchConfigError(f"repeat must be at least 1, got {self.repeat}")

    def glitched_cycles(self) -> range:
        """Cycle offsets (relative to the trigger) hit by this glitch."""
        return range(self.ext_offset, self.ext_offset + self.repeat)


def iter_width_offset_grid(
    ext_offset: int, repeat: int = 1
) -> Iterator[GlitchParams]:
    """Yield the full 9,801-point (width, offset) grid for one cycle offset."""
    for width in WIDTH_RANGE:
        for offset in OFFSET_RANGE:
            yield GlitchParams(ext_offset=ext_offset, width=width, offset=offset, repeat=repeat)


def normalized(value: int) -> float:
    """Map the integer percentage [-49, 49] onto [-1, 1]."""
    return value / 49.0


__all__ = [
    "GlitchParams",
    "WIDTH_RANGE",
    "OFFSET_RANGE",
    "GRID_POINTS",
    "iter_width_offset_grid",
    "normalized",
]
