"""Wide-CSV panel ingestion and the inverse writer.

A panel file has a header row of variable names and one row per time
point, oldest first. Loading applies per-column transform codes, drops
the first post-transform row, optionally standardizes, and splits the
first p rows off as the presample.
"""

from __future__ import annotations

import csv

import numpy as np

from ..var import TimeSeriesPanel


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if len(rows) < 2:
        raise ValueError(f"{path}: need a header row and at least one data row")
    header = [name.strip() for name in rows[0]]
    width = len(header)
    data = np.empty((len(rows) - 1, width))
    for i, row in enumerate(rows[1:]):
        if len(row) != width:
            raise ValueError(f"{path}: row {i + 2} has {len(row)} cells, expected {width}")
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric cell at row {i + 2}, column {header[j]!r}"
                ) from None
    if not np.all(np.isfinite(data)):
        where = np.argwhere(~np.isfinite(data))[0]
        raise ValueError(
            f"{path}: non-finite cell at row {where[0] + 2}, column {header[where[1]]!r}"
        )
    return header, data


def load_panel(spec, p):
    """Read one client's panel per its spec and lag order p.

    Transform codes: 0 keeps the column, 1 first-differences it, 2 takes
    log differences (rejecting nonpositive values). The first row after
    transforming is dropped so every code yields the same length. With
    standardize on, each column is centered and scaled by its
    population standard deviation; constant columns are rejected.
    """
    header, raw = _read_csv(spec.path)
    n, width = raw.shape
    codes = spec.transforms
    if len(codes) == 1:
        codes = codes * width
    if len(codes) != width:
        raise ValueError(
            f"{spec.path}: {len(codes)} transform codes for {width} columns"
        )
    out = np.empty((n - 1, width))
    for j, code in enumerate(codes):
        col = raw[:, j]
        if code == 0:
            out[:, j] = col[1:]
        elif code == 1:
            out[:, j] = np.diff(col)
        elif code == 2:
            if np.any(col <= 0):
                bad = int(np.argmax(col <= 0))
                raise ValueError(
                    f"{spec.path}: nonpositive value at row {bad + 2}, "
                    f"column {header[j]!r} under log-difference"
                )
            out[:, j] = np.diff(np.log(col))
        else:
            raise ValueError(f"unknown transform code {code}")
    # before standardizing, which would blame a short panel's columns
    if out.shape[0] < p + 2:
        raise ValueError(
            f"{spec.path}: {out.shape[0]} rows after transforming, need at least p + 2 = {p + 2}"
        )
    if spec.standardize:
        mean = out.mean(axis=0)
        sd = out.std(axis=0)
        flat = np.nonzero(sd < 1e-12)[0]
        if flat.size:
            raise ValueError(
                f"{spec.path}: constant column {header[flat[0]]!r} cannot be standardized"
            )
        out = (out - mean) / sd
    return TimeSeriesPanel(
        presample=out[:p], observations=out[p:], client_id=spec.client_id or spec.path
    )


def write_panel(panel, path, var_names=None):
    """Write presample plus observations as one wide CSV.

    Floats are written with full round-trip precision, so a load with
    identity transforms and no standardization reproduces the panel
    exactly.
    """
    full = np.vstack([panel.presample, panel.observations])
    d = full.shape[1]
    if var_names is None:
        var_names = [f"v{j + 1}" for j in range(d)]
    if len(var_names) != d:
        raise ValueError(f"{len(var_names)} names for {d} columns")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(var_names)
        for row in full:
            writer.writerow([repr(float(v)) for v in row])
