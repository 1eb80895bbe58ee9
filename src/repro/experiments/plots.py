"""Terminal plots for the reproduced figures.

Dependency-free ASCII charts so `python -m repro.experiments --plot`
can show the figures' *shapes* (the reproduction target) directly in the
terminal: multi-series line charts for throughput-vs-x figures.
"""

from __future__ import annotations

from typing import Mapping, Sequence

MARKERS = "ox+*#@%&"


def line_chart(
    x: Sequence[float],
    series: Mapping[str, Sequence[float]],
    *,
    width: int = 60,
    height: int = 14,
    title: str = "",
    y_label: str = "",
) -> str:
    """Multi-series scatter/line chart on a character grid.

    Each series gets a marker from :data:`MARKERS`; x positions are
    mapped by value (so uneven batch-size grids render to scale).
    """
    if not series:
        raise ValueError("no series to plot")
    for name, ys in series.items():
        if len(ys) != len(x):
            raise ValueError(f"series {name!r} length mismatch")
    if len(x) < 2:
        raise ValueError("need at least two x points")
    all_y = [y for ys in series.values() for y in ys]
    y_min, y_max = min(all_y), max(all_y)
    if y_max == y_min:
        y_max = y_min + 1.0
    x_min, x_max = min(x), max(x)
    if x_max == x_min:
        raise ValueError("x values are all equal")

    grid = [[" "] * width for _ in range(height)]
    for si, (name, ys) in enumerate(series.items()):
        marker = MARKERS[si % len(MARKERS)]
        for xv, yv in zip(x, ys):
            col = int(round((xv - x_min) / (x_max - x_min) * (width - 1)))
            row = int(round((yv - y_min) / (y_max - y_min) * (height - 1)))
            grid[height - 1 - row][col] = marker
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_max:10.4g} ┤" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 10 + " │" + "".join(row))
    lines.append(f"{y_min:10.4g} ┤" + "".join(grid[-1]))
    lines.append(" " * 10 + " └" + "─" * width)
    lines.append(
        " " * 12 + f"{x_min:<10g}" + " " * max(0, width - 20) + f"{x_max:>10g}"
    )
    legend = "   ".join(
        f"{MARKERS[i % len(MARKERS)]} {name}" for i, name in enumerate(series)
    )
    lines.append(" " * 12 + legend + (f"   [y: {y_label}]" if y_label else ""))
    return "\n".join(lines)


def plot_experiment(result) -> str:
    """Best-effort chart for an ExperimentResult.

    Figures whose rows are (group, x, ..., value) render as a line chart
    grouped by the first column.  Returns "" when no sensible chart
    exists.
    """
    rows = result.rows
    if not rows:
        return ""
    numeric_cols = [
        i for i in range(len(result.columns))
        if all(isinstance(r[i], (int, float)) and not isinstance(r[i], bool)
               for r in rows)
    ]
    if len(numeric_cols) < 2:
        return ""
    x_col, y_col = numeric_cols[0], numeric_cols[-1]
    group_col = 0 if x_col != 0 else None
    series: dict[str, tuple[list[float], list[float]]] = {}
    for r in rows:
        key = str(r[group_col]) if group_col is not None else "series"
        xs, ys = series.setdefault(key, ([], []))
        if not isinstance(r[y_col], (int, float)) or r[y_col] != r[y_col]:
            continue  # skip NaNs (e.g. OOM cells)
        xs.append(float(r[x_col]))
        ys.append(float(r[y_col]))
    # Align series on the union grid only if identical; otherwise plot
    # the first complete series set.
    lengths = {len(xs) for xs, _ in series.values()}
    if len(lengths) != 1 or min(lengths) < 2:
        return ""
    x0 = next(iter(series.values()))[0]
    if any(xs != x0 for xs, _ in series.values()):
        return ""
    return line_chart(
        x0,
        {k: ys for k, (xs, ys) in series.items()},
        title=f"{result.experiment_id}: {result.title}",
        y_label=result.columns[y_col],
    )
