"""Uniform experiment-result container and text-table rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class ExperimentResult:
    """Rows regenerating one of the paper's tables or figures."""

    experiment_id: str
    title: str
    columns: tuple[str, ...]
    rows: list[tuple[Any, ...]] = field(default_factory=list)
    notes: str = ""

    def add(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"{self.experiment_id}: row has {len(values)} values for "
                f"{len(self.columns)} columns"
            )
        self.rows.append(values)

    def to_text(self) -> str:
        def fmt(v: Any) -> str:
            if isinstance(v, float):
                return f"{v:.4g}"
            return str(v)

        table = [tuple(map(fmt, self.columns))] + [
            tuple(map(fmt, r)) for r in self.rows
        ]
        widths = [max(len(row[i]) for row in table) for i in range(len(self.columns))]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        for j, row in enumerate(table):
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
            if j == 0:
                lines.append("  ".join("-" * w for w in widths))
        if self.notes:
            lines.append(self.notes)
        return "\n".join(lines)


def print_result(result: ExperimentResult) -> None:  # pragma: no cover
    print(result.to_text())
    print()
