"""Row printing and CSV export for experiment series."""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Any, Mapping, Sequence

__all__ = [
    "format_table",
    "print_table",
    "sweep_rows",
    "format_csv",
    "write_csv",
]

#: The scalar record fields surfaced as sweep output columns, in order.
#: Shared by ``freezetag sweep --csv`` and the service's
#: ``GET /sweeps/{id}/records`` endpoint so both emit byte-identical CSV.
SWEEP_SCALAR_KEYS = (
    "algorithm", "instance", "n", "ell", "rho_star", "ell_star",
    "xi_ell", "makespan", "half_wake_time", "max_energy", "woke_all",
)


def sweep_rows(records: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Flatten sweep records into the canonical scalar output rows.

    Scenario runs carry two extra identifying columns; they are surfaced
    for every row (blank on family runs) as soon as any record has them —
    the exact shape ``freezetag sweep`` has always printed and exported.
    """
    keys = list(SWEEP_SCALAR_KEYS)
    if any("scenario" in record for record in records):
        keys[1:1] = ["scenario", "world_params"]
    return [{k: record.get(k, "") for k in keys} for record in records]


def format_table(rows: Sequence[Mapping[str, Any]], title: str = "") -> str:
    """Fixed-width text table from homogeneous dict rows."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    headers = list(rows[0].keys())
    rendered = [
        {h: _fmt(row.get(h)) for h in headers} for row in rows
    ]
    widths = {
        h: max(len(h), *(len(r[h]) for r in rendered)) for h in headers
    }
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[h]) for h in headers))
    lines.append("  ".join("-" * widths[h] for h in headers))
    for r in rendered:
        lines.append("  ".join(r[h].ljust(widths[h]) for h in headers))
    return "\n".join(lines)


def print_table(rows: Sequence[Mapping[str, Any]], title: str = "") -> None:
    """Print dict rows as a fixed-width text table."""
    print(format_table(rows, title))


def format_csv(rows: Sequence[Mapping[str, Any]]) -> str:
    """CSV text for dict rows — the exact bytes :func:`write_csv` writes.

    Headers are the union of all row keys in first-appearance order —
    mixed sweeps (family rows first, scenario rows with extra columns
    later) must not silently drop the late columns.
    """
    if not rows:
        return ""
    headers = list(dict.fromkeys(key for row in rows for key in row))
    buffer = io.StringIO(newline="")
    writer = csv.DictWriter(buffer, fieldnames=headers)
    writer.writeheader()
    for row in rows:
        writer.writerow({h: row.get(h) for h in headers})
    return buffer.getvalue()


def write_csv(path: str | Path, rows: Sequence[Mapping[str, Any]]) -> Path:
    """Write dict rows to ``path`` (parent directories created)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", newline="") as handle:
        handle.write(format_csv(rows))
    return target


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
