"""Daily alert-volume statistics (Fig. 2).

Fig. 2 shows the daily event counts NCSA's monitors observe over a
sample month: an average of 94,238 alerts per day with a standard
deviation of 23,547, roughly 80 K of which are repeated port and
vulnerability scans (Insight 3).  This module computes those statistics
from a daily-volume series (produced by the corpus generator's volume
model or by counting a replayed alert stream) and renders the series.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

#: Published Fig. 2 values.
PAPER_DAILY_MEAN = 94_238
PAPER_DAILY_STD = 23_547
PAPER_DAILY_SCANS = 80_000


@dataclasses.dataclass
class DailyVolumeStats:
    """Summary statistics of a daily alert-volume series."""

    days: int
    mean: float
    std: float
    minimum: int
    maximum: int
    total: int
    scan_mean: Optional[float] = None


def summarize_daily_volumes(
    volumes: Sequence[int] | np.ndarray,
    *,
    scan_volumes: Optional[Sequence[int] | np.ndarray] = None,
) -> DailyVolumeStats:
    """Summarise a daily alert-count series."""
    array = np.asarray(volumes, dtype=np.float64)
    if array.size == 0:
        raise ValueError("need at least one day of volumes")
    scan_mean = None
    if scan_volumes is not None:
        scan_array = np.asarray(scan_volumes, dtype=np.float64)
        scan_mean = float(scan_array.mean()) if scan_array.size else None
    return DailyVolumeStats(
        days=int(array.size),
        mean=float(array.mean()),
        std=float(array.std(ddof=0)),
        minimum=int(array.min()),
        maximum=int(array.max()),
        total=int(array.sum()),
        scan_mean=scan_mean,
    )


def render_daily_series(volumes: Sequence[int] | np.ndarray, *, width: int = 60, height: int = 10) -> str:
    """ASCII sparkline-style rendering of the daily series (Fig. 2 stand-in)."""
    array = np.asarray(volumes, dtype=np.float64)
    if array.size == 0:
        return "(no data)"
    if array.size > width:
        # Downsample by averaging fixed-size chunks.
        chunks = np.array_split(array, width)
        array = np.array([chunk.mean() for chunk in chunks])
    maximum = array.max() if array.max() > 0 else 1.0
    rows = []
    for level in range(height, 0, -1):
        threshold = maximum * level / height
        rows.append("".join("#" if value >= threshold else " " for value in array))
    axis = "-" * array.size
    return "\n".join(rows + [axis])


__all__ = [
    "PAPER_DAILY_MEAN",
    "PAPER_DAILY_STD",
    "PAPER_DAILY_SCANS",
    "DailyVolumeStats",
    "summarize_daily_volumes",
    "render_daily_series",
]
