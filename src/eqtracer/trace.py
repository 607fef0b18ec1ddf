"""Columnar run traces and their stable CSV serialization."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

CSV_HEADER = (
    "round",
    "potential",
    "delta",
    "bound",
    "max_price",
    "min_price",
    "assumption1_ok",
    "kl_to_equilibrium",
    "recurrence_ok",
)


@dataclass(frozen=True, eq=False)
class Trace:
    """One run, rounds 1..T: measured potential, jump cap, running bound.

    Every column is an array over rounds 1..T, named after its CSV field;
    `initial` is the potential at round 0.  The optional columns are
    dynamics-specific: price extremes and the price-cap flag for
    tatonnement, distance to the per-round equilibrium and the recurrence
    flag for bid dynamics.  An absent column is None and writes empty cells.
    Traces do not compare by value; compare their columns.
    """

    initial: float
    potential: np.ndarray
    delta: np.ndarray
    bound: np.ndarray
    max_price: np.ndarray | None = None
    min_price: np.ndarray | None = None
    assumption1_ok: np.ndarray | None = None
    kl_to_equilibrium: np.ndarray | None = None
    recurrence_ok: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.potential)

    def violations(self, scale: float = 1.0) -> int:
        """Rounds whose potential is not within scale * bound + 1e-9.

        Written as a failed `<=`, so a NaN potential or bound counts.
        """
        return int(np.count_nonzero(~(self.potential <= scale * self.bound + 1e-9)))


def format_number(x: float) -> str:
    """17 significant digits: enough to round-trip doubles byte-stably."""
    return f"{x:.17g}"


def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    return format_number(value)


def trace_csv_lines(trace: Trace) -> Iterable[str]:
    yield ",".join(CSV_HEADER)
    empty = [""] * len(trace)
    columns = [
        empty if column is None else [_cell(v) for v in column.tolist()]
        for column in (getattr(trace, name) for name in CSV_HEADER[1:])
    ]
    for t, row in enumerate(zip(*columns), start=1):
        yield ",".join((str(t), *row))


def write_trace_csv(trace: Trace, path) -> None:
    with open(path, "w", newline="\n") as fh:
        for line in trace_csv_lines(trace):
            fh.write(line + "\n")


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
