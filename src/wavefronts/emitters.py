"""Deterministic CSV and SVG output.

Each file is formatted from one float matrix: every value goes through
``%.9g`` (9 significant digits, the same digits as ``format(v, ".9g")``),
``-0`` prints as ``0``, and a non-finite value is refused with ``IoError``
before anything is written.  Identical inputs always produce byte-identical
files.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .errors import IoError

STROKE_CLASSES = ("front", "caustic", "maxwell", "delta")
# SVG width and height in pixels, and the margin around the data as a
# fraction of its larger span
SVG_SIZE = 640
SVG_MARGIN_FRAC = 0.05
# rows formatted by one '%' of a repeated row pattern
BLOCK_ROWS = 4096

_STYLE = (
    ".front{stroke:#1f77b4;fill:none}"
    ".caustic{stroke:#d62728;fill:none}"
    ".maxwell{stroke:#2ca02c;fill:none}"
    ".delta{stroke:#9467bd;fill:none}"
)


def _finite(M: np.ndarray) -> np.ndarray:
    """``M`` with ``-0.0`` turned into ``0.0``; ``IoError`` naming the first
    non-finite value (in row order) if there is one."""
    bad = ~np.isfinite(M)
    if bad.any():
        raise IoError(f"non-finite coordinate {float(M[bad][0])!r}")
    return M + 0.0


def _format_rows(M: np.ndarray, row: str, sep: str = "") -> Iterable[str]:
    """The rows of ``M`` through the ``%`` pattern ``row`` (one conversion per
    column), joined by ``sep``, in blocks of at most ``BLOCK_ROWS`` rows."""
    for i in range(0, len(M), BLOCK_ROWS):
        block = M[i : i + BLOCK_ROWS]
        yield (sep if i else "") + sep.join([row] * len(block)) % tuple(block.ravel().tolist())


def _write(path, chunks: Iterable[str]) -> None:
    try:
        with Path(path).open("w") as fh:
            fh.writelines(chunks)
    except OSError as e:  # pragma: no cover - environment dependent
        raise IoError(str(e)) from e


def csv_header(n: int, k: int) -> str:
    return ",".join(
        ["t"] + [f"x{j + 1}" for j in range(n)] + [f"q{i + 1}" for i in range(k)] + ["label"]
    )


def emit_csv(table: Tuple, n: int, k: int, path) -> None:
    """Write labeled samples from one table ``(t, X, Q, labels)``: ``t`` a
    number or N numbers, ``X`` N x n, ``Q`` N x k, ``labels`` one string or
    N strings.  One CSV row per sample."""
    t, X, Q, labels = table
    X, Q = np.asarray(X, dtype=float), np.asarray(Q, dtype=float)
    if X.ndim != 2 or X.shape[1] != n or Q.shape != (len(X), k):
        raise IoError(
            f"table shape mismatch: expected N x {n} x and N x {k} q values, got {X.shape} and {Q.shape}"
        )
    M = np.empty((len(X), 1 + n + k))
    M[:, 1 : 1 + n], M[:, 1 + n :] = X, Q
    rows = np.empty((len(X), 2 + n + k), dtype=object)
    try:
        M[:, 0] = t
        rows[:, -1] = labels if isinstance(labels, str) else list(labels)
    except ValueError as e:
        raise IoError(f"table shape mismatch: {e}") from e
    rows[:, :-1] = _finite(M)
    row = ",".join(["%.9g"] * (1 + n + k) + ["%s\n"])
    _write(path, chain([csv_header(n, k) + "\n"], _format_rows(rows, row)))


def emit_svg(curves: Sequence[Tuple[np.ndarray, str]], path) -> None:
    """One <polyline> per non-empty N x 2 curve; classes select stroke colors.

    The y axis points up (plot orientation), so world y is negated into SVG
    user units.
    """
    for _, cls in curves:
        if cls not in STROKE_CLASSES:
            raise IoError(f"unknown stroke class {cls!r}")
    drawn = [(np.asarray(p, dtype=float), cls) for p, cls in curves if len(p)]
    for pts, _ in drawn:
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise IoError(f"SVG curve of shape {pts.shape}, expected N x 2")
    if drawn:
        allp = np.vstack([pts for pts, _ in drawn])
        _finite(allp)
        lo = allp.min(axis=0)
        hi = allp.max(axis=0)
    else:
        allp = np.zeros((0, 2))
        lo = np.array([0.0, 0.0])
        hi = np.array([1.0, 1.0])
    span = np.maximum(hi - lo, 1e-9)
    pad = SVG_MARGIN_FRAC * span.max()
    # world -> user units: y negated, so the viewBox covers [-hi_y, -lo_y]
    vb = (lo[0] - pad, -(hi[1] + pad), span[0] + 2 * pad, span[1] + 2 * pad)
    stroke = 0.004 * max(span[0], span[1])
    head = _finite(np.array([*vb, stroke])).tolist()
    view, width = "%.9g %.9g %.9g %.9g" % tuple(head[:4]), "%.9g" % head[4]
    lines: List[str] = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}" viewBox="{view}">\n',
        f"<style>{_STYLE} polyline{{stroke-width:{width}}}</style>\n",
    ]
    user = allp * np.array([1.0, -1.0]) + 0.0
    start = 0
    for pts, cls in drawn:
        coords = "".join(_format_rows(user[start : start + len(pts)], "%.9g,%.9g", " "))
        lines.append(f'<polyline class="{cls}" points="{coords}"/>\n')
        start += len(pts)
    lines.append("</svg>\n")
    _write(path, lines)
