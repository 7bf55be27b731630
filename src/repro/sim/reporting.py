"""Result rendering: sparklines, the metrics view and the sweep and
comparison tables the CLI prints.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.sim.metrics import SimulationResult

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(
    values: Sequence[float],
    minimum: Optional[float] = None,
    maximum: Optional[float] = None,
) -> str:
    """Render a numeric series as unicode blocks.

    Pins the scale to [minimum, maximum] when given (e.g. 0..1 for
    availability), else to the data range.
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        return ""
    lo = float(data.min()) if minimum is None else float(minimum)
    hi = float(data.max()) if maximum is None else float(maximum)
    if hi <= lo:
        return _BLOCKS[0] * data.size
    scaled = np.clip((data - lo) / (hi - lo), 0.0, 1.0)
    indices = np.minimum((scaled * len(_BLOCKS)).astype(int), len(_BLOCKS) - 1)
    return "".join(_BLOCKS[i] for i in indices)


def metrics_table(result: SimulationResult) -> List[str]:
    """Render the run's final metrics-registry snapshot as aligned rows.

    Scalars (counters, gauges) print one value; histograms print their
    count/mean/p50/p90/max summary (see ``repro.obs.registry.Histogram``).
    """
    snapshot = result.metrics or {}
    if not snapshot:
        return ["metrics: none recorded (run the simulator to populate)"]
    name_width = max(len(name) for name in snapshot)
    lines = [
        f"{'metric':<{name_width}} {'value':>12}   histogram (count mean p50 p90 max)"
    ]
    for name in sorted(snapshot):
        value = snapshot[name]
        if isinstance(value, dict):
            lines.append(
                f"{name:<{name_width}} {'':>12}   "
                f"{value['count']:.0f} {value['mean']:.3f} "
                f"{value['p50']:.3f} {value['p90']:.3f} {value['max']:.3f}"
            )
        else:
            lines.append(f"{name:<{name_width}} {float(value):>12.3f}")
    return lines


#: Default summary metrics a sweep table shows per cell.
SWEEP_TABLE_METRICS = (
    "availability_day1",
    "availability_steady",
    "replicas_steady",
    "replicas_peak",
)


def sweep_table(cells, metrics=SWEEP_TABLE_METRICS) -> List[str]:
    """Render aggregated sweep cells (``repro.runtime.aggregate``) as the
    aligned mean-across-seeds table the CLI prints.

    Each metric column shows ``mean`` and, when a cell has more than one
    seed, the ``[p10, p90]`` spread across seeds.
    """
    if not cells:
        return ["sweep: no completed tasks (run or resume the sweep first)"]
    headers = ["cell", "seeds"] + list(metrics)
    rows: List[List[str]] = []
    for cell in cells:
        stats = cell.stats()
        row = [cell.label, str(len(cell.seeds))]
        for metric in metrics:
            reduced = stats.get(metric)
            if reduced is None:
                row.append("-")
            elif reduced["n"] > 1:
                row.append(
                    f"{reduced['mean']:.3f} [{reduced['p10']:.3f}, "
                    f"{reduced['p90']:.3f}]"
                )
            else:
                row.append(f"{reduced['mean']:.3f}")
        rows.append(row)
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(header.ljust(width) for header, width in zip(headers, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
    return lines


#: Columns of the ``soup compare`` head-to-head table: (summary metric,
#: column header).  The ``arch.*`` names are the flattened per-strategy
#: metric groups (see ``SimulationResult.summary``); a metric an
#: architecture does not produce renders as ``-``.
COMPARE_TABLE_METRICS = (
    ("availability_steady", "avail"),
    ("replicas_steady", "replicas"),
    ("arch.dht.mean_lookup_hops", "lookup_hops"),
    ("arch.dht.control_messages", "control_msgs"),
    ("arch.storage.gini", "storage_gini"),
    ("arch.cache.hit_rate", "cache_hit"),
)

#: Overrides the compare harness injects on every row — elided from the
#: table's row labels because they carry no information there.
_COMPARE_HIDDEN_OVERRIDES = ("architecture", "measure_dht")


def compare_table(cells, metrics=COMPARE_TABLE_METRICS) -> List[str]:
    """Render aggregated cells of a ``soup compare`` run: one row per
    architecture (× any residual grid cell), mean across seeds with the
    ``[p10, p90]`` spread when a cell holds several."""
    if not cells:
        return ["compare: no completed tasks (run or resume the sweep first)"]
    headers = ["architecture", "seeds"] + [header for _, header in metrics]
    rows: List[List[str]] = []
    for cell in cells:
        stats = cell.stats()
        label = str(cell.overrides.get("architecture", "soup"))
        residual = " ".join(
            f"{key}={value}"
            for key, value in sorted(cell.overrides.items())
            if key not in _COMPARE_HIDDEN_OVERRIDES
        )
        if residual:
            label = f"{label} ({residual})"
        row = [label, str(len(cell.seeds))]
        for metric, _ in metrics:
            reduced = stats.get(metric)
            if reduced is None:
                row.append("-")
            elif reduced["n"] > 1:
                row.append(
                    f"{reduced['mean']:.3f} [{reduced['p10']:.3f}, "
                    f"{reduced['p90']:.3f}]"
                )
            else:
                row.append(f"{reduced['mean']:.3f}")
        rows.append(row)
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(header.ljust(width) for header, width in zip(headers, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
    return lines
