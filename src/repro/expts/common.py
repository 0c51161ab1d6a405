"""Shared experiment infrastructure: points, results, statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ExperimentPoint:
    """One measurement: an (x, y) pair in a named series."""

    series: str
    x: float
    y: float
    label: str = ""
    meta: dict = field(default_factory=dict, hash=False, compare=False)

    @property
    def ratio(self) -> float:
        """y / x -- for equal-area scatters, 1.0 means 'on the line'.

        A zero ``y`` (a fully-optimized-away design) is a legal ratio
        of 0.0; :meth:`RatioStats.of` excludes such points from the
        geometric statistics rather than crashing on ``log(0)``.
        """
        if self.x <= 0:
            raise ValueError(f"point {self.label!r} has non-positive x")
        if self.y < 0:
            raise ValueError(f"point {self.label!r} has negative y")
        return self.y / self.x


@dataclass
class ExperimentResult:
    """A completed experiment run.

    Beyond the figure payload (points, tables, notes), a result
    carries a free-form ``meta`` dict describing how it was made
    (pipeline specs, libraries, clock target).
    """

    name: str
    description: str
    points: list[ExperimentPoint] = field(default_factory=list)
    tables: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def series(self, name: str) -> list[ExperimentPoint]:
        return [p for p in self.points if p.series == name]

    def series_names(self) -> list[str]:
        seen: list[str] = []
        for point in self.points:
            if point.series not in seen:
                seen.append(point.series)
        return seen

    def ratio_stats(self, series: str) -> "RatioStats":
        return RatioStats.of([p.ratio for p in self.series(series)])

    def to_markdown(self) -> str:
        lines = [f"### {self.name}", "", self.description, ""]
        for title, table in self.tables.items():
            lines += [f"**{title}**", "", "```", table, "```", ""]
        if self.points:
            lines.append("**Series summary (y/x ratios)**")
            lines.append("")
            lines.append("| series | points | geomean | min | max |")
            lines.append("|---|---|---|---|---|")
            for name in self.series_names():
                stats = self.ratio_stats(name)
                lines.append(
                    f"| {name} | {stats.count} | {stats.geomean:.3f} "
                    f"| {stats.minimum:.3f} | {stats.maximum:.3f} |"
                )
            lines.append("")
            for name in self.series_names():
                stats = self.ratio_stats(name)
                if stats.excluded:
                    lines.append(
                        f"- {name}: {stats.excluded} non-positive ratio "
                        f"point(s) excluded from the geometric stats"
                    )
        for note in self.notes:
            lines.append(f"- {note}")
        lines.append("")
        return "\n".join(lines)


@dataclass(frozen=True)
class RatioStats:
    """Geometric summary of y/x ratios in a series.

    Non-positive ratios (a zero-area point) have no logarithm; they
    are excluded from ``geomean``/``log_spread`` and counted in
    ``excluded`` so a single degenerate point reports itself instead
    of crashing a whole sweep.  ``count``, ``minimum`` and ``maximum``
    still describe every ratio given.
    """

    count: int
    geomean: float
    minimum: float
    maximum: float
    log_spread: float
    excluded: int = 0

    @classmethod
    def of(cls, ratios: list[float]) -> "RatioStats":
        nan = float("nan")
        if not ratios:
            return cls(0, nan, nan, nan, nan)
        positive = [r for r in ratios if r > 0]
        excluded = len(ratios) - len(positive)
        if not positive:
            return cls(
                len(ratios), nan, min(ratios), max(ratios), nan, excluded
            )
        logs = [math.log(r) for r in positive]
        mean = sum(logs) / len(logs)
        spread = (
            math.sqrt(sum((l - mean) ** 2 for l in logs) / len(logs))
            if len(logs) > 1
            else 0.0
        )
        return cls(
            count=len(ratios),
            geomean=math.exp(mean),
            minimum=min(ratios),
            maximum=max(ratios),
            log_spread=spread,
            excluded=excluded,
        )


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Monospace table with column alignment."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def fmt(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines += [fmt(row) for row in rows]
    return "\n".join(lines)
