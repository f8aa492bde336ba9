"""Matrix CSV serialization: a "# rows cols" header line, then comma-separated
rows with 17 significant digits (lossless for float64)."""

from __future__ import annotations

import numpy as np


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def write_matrix(path, m) -> None:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    rows, cols = m.shape
    lines = [f"# {rows} {cols}"]
    for row in m:
        lines.append(",".join(format_float(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        parts = header.split()
        if len(parts) != 3 or parts[0] != "#":
            raise ValueError(f"{path}: bad matrix header {header!r}")
        rows, cols = int(parts[1]), int(parts[2])
        m = np.loadtxt(fh, delimiter=",", ndmin=2)
    if m.shape != (rows, cols):
        raise ValueError(f"{path}: header says {rows} x {cols}, data is {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{path}: non-finite entries")
    return m
