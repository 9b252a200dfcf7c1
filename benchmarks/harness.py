"""Shared benchmark harness.

Every benchmark regenerates one table or figure from the paper's
evaluation section.  Results are printed (visible with ``pytest -s``)
and written to ``benchmarks/results/<experiment>.txt`` so a full
``pytest benchmarks/ --benchmark-only`` run leaves the complete set of
regenerated tables/series on disk.  A ``REPRO_BENCH_QUICK=1`` run
measures a shrunken workload and writes nothing: the committed
artifacts are full-size numbers, and CI's quick runs leave the checkout
clean.
"""

from __future__ import annotations

import io
import os
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


class ExperimentReport:
    """Collects one experiment's rows and persists them."""

    def __init__(self, experiment_id: str, title: str):
        self.experiment_id = experiment_id
        self.title = title
        self._buf = io.StringIO()
        self.line("=" * 78)
        self.line(f"{experiment_id}: {title}")
        self.line("=" * 78)

    def line(self, text: str = "") -> None:
        self._buf.write(text + "\n")

    def rows(self, header: list[str], rows: list[list], widths: list[int] | None = None) -> None:
        """Append an aligned text table."""
        cells = [header] + [[_fmt(c) for c in row] for row in rows]
        widths = widths or [
            max(len(row[i]) for row in cells) for i in range(len(header))
        ]
        for r, row in enumerate(cells):
            self.line("  ".join(c.rjust(w) for c, w in zip(row, widths)))
            if r == 0:
                self.line("  ".join("-" * w for w in widths))

    def note(self, text: str) -> None:
        self.line(f"note: {text}")

    def finish(self) -> str:
        """Print the report and persist it (full runs); returns the text."""
        text = self._buf.getvalue()
        print("\n" + text)
        persist(RESULTS_DIR / f"{self.experiment_id}.txt", text)
        return text


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)


def quick_mode() -> bool:
    """Honour REPRO_BENCH_QUICK=1 to shrink the heavy sweeps (CI use)."""
    return os.environ.get("REPRO_BENCH_QUICK", "0") == "1"


def persist(path: Path, text: str) -> None:
    """Write a committed artifact — unless this is a quick run."""
    if quick_mode():
        return
    path.parent.mkdir(exist_ok=True)
    path.write_text(text)
