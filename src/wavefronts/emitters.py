"""Deterministic CSV and SVG output.

Floats are formatted with 9 significant digits so identical inputs always
produce byte-identical files.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .errors import IoError

STROKE_CLASSES = ("front", "caustic", "maxwell", "delta")
# SVG width and height in pixels, and the margin around the data as a
# fraction of its larger span
SVG_SIZE = 640
SVG_MARGIN_FRAC = 0.05

_STYLE = (
    ".front{stroke:#1f77b4;fill:none}"
    ".caustic{stroke:#d62728;fill:none}"
    ".maxwell{stroke:#2ca02c;fill:none}"
    ".delta{stroke:#9467bd;fill:none}"
)


def fmt_all(values: Iterable[float]) -> List[str]:
    """9-significant-digit shortest decimals of Python floats (as from
    ``ndarray.tolist()``); '-0' is normalized to '0'."""
    out = []
    for v in values:
        if not math.isfinite(v):
            raise IoError(f"non-finite coordinate {v!r}")
        s = format(v, ".9g")
        out.append("0" if s in ("-0", "-0.0") else s)
    return out


def fmt(x: float) -> str:
    """``fmt_all`` of one number."""
    return fmt_all([float(x)])[0]


def csv_header(n: int, k: int) -> str:
    return ",".join(
        ["t"] + [f"x{j + 1}" for j in range(n)] + [f"q{i + 1}" for i in range(k)] + ["label"]
    )


def emit_csv(rows: Iterable, n: int, k: int, path) -> None:
    """Write labeled samples; each row is (t, x (len n), q (len k), label)."""
    lines = [csv_header(n, k)]
    for t, x, q, label in rows:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        q = np.atleast_1d(np.asarray(q, dtype=float))
        if x.size != n or q.size != k:
            raise IoError(f"row shape mismatch: expected {n} x and {k} q values")
        lines.append(",".join(fmt_all([float(t), *x.tolist(), *q.tolist()]) + [str(label)]))
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as e:  # pragma: no cover - environment dependent
        raise IoError(str(e)) from e


def emit_svg(curves: Sequence[Tuple[np.ndarray, str]], path) -> None:
    """One <polyline> per curve; classes select stroke colors.

    The y axis points up (plot orientation), so world y is negated into SVG
    user units.
    """
    for _, cls in curves:
        if cls not in STROKE_CLASSES:
            raise IoError(f"unknown stroke class {cls!r}")
    pts_all = [np.asarray(p, dtype=float) for p, _ in curves if len(p)]
    if pts_all:
        allp = np.vstack(pts_all)
        if not np.all(np.isfinite(allp)):
            raise IoError("non-finite coordinate in SVG input")
        lo = allp.min(axis=0)
        hi = allp.max(axis=0)
    else:
        lo = np.array([0.0, 0.0])
        hi = np.array([1.0, 1.0])
    span = np.maximum(hi - lo, 1e-9)
    pad = SVG_MARGIN_FRAC * span.max()
    # world -> user units: y negated, so the viewBox covers [-hi_y, -lo_y]
    vb = (lo[0] - pad, -(hi[1] + pad), span[0] + 2 * pad, span[1] + 2 * pad)
    stroke = 0.004 * max(span[0], span[1])
    lines: List[str] = []
    lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="{fmt(vb[0])} {fmt(vb[1])} {fmt(vb[2])} {fmt(vb[3])}">'
    )
    lines.append(f"<style>{_STYLE} polyline{{stroke-width:{fmt(stroke)}}}</style>")
    for pts, cls in curves:
        pts = np.asarray(pts, dtype=float)
        if len(pts) == 0:
            continue
        xs, ys = fmt_all(pts[:, 0].tolist()), fmt_all((-pts[:, 1]).tolist())
        coords = " ".join(f"{x},{y}" for x, y in zip(xs, ys))
        lines.append(f'<polyline class="{cls}" points="{coords}"/>')
    lines.append("</svg>")
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as e:  # pragma: no cover - environment dependent
        raise IoError(str(e)) from e
