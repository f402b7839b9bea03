"""Deterministic CSV and SVG output.

Every value prints as ``%.9g`` (9 significant digits, the same digits as
``format(v, ".9g")``), ``-0`` prints as ``0``, and a non-finite value or a
table of the wrong shape is refused with ``IoError`` before anything is
written.  Identical inputs always produce byte-identical files.

Each number is formatted once.  A CSV chain's one t and one label are
literal text of its row pattern, and its x columns are formatted block by
block into ``x1,x2,...`` lines that the rows take as strings.  ``emit_csv``
returns those lines, and ``emit_svg`` draws a plane chain from them by
negating y in the text; a curve given without them is formatted the same
way first.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

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


def _x_lines(X: np.ndarray) -> Iterable[str]:
    """The rows of ``X`` as ``x1,x2,...`` lines, ``-0`` printed as ``0``: one
    string of at most ``BLOCK_ROWS`` newline-separated lines per block."""
    row = ",".join(["%.9g"] * X.shape[1])
    for i in range(0, len(X), BLOCK_ROWS):
        block = X[i : i + BLOCK_ROWS] + 0.0
        yield "\n".join([row] * len(block)) % tuple(block.ravel().tolist())


def _svg_points(text: str) -> str:
    """The polyline points of a chain's ``x,y`` lines, y negated, joined by
    spaces.  Each line has one comma: ``,`` becomes ``,-``, a doubled ``,--``
    goes back to ``,``, and a y printed ``-0`` goes back to ``0``."""
    flipped = (text + "\n").replace(",", ",-").replace(",--", ",").replace(",-0\n", ",0\n")
    return flipped[:-1].replace("\n", " ")


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


def _checked_chain(part: Tuple, n: int, k: int) -> Tuple:
    """One chain ``(t, X, Q, label)`` as float arrays, ``t`` 0-d or one per
    row; ``IoError`` on a wrong shape or naming the chain's first non-finite
    value in row order."""
    t, X, Q, label = part
    X, Q, t = np.asarray(X, dtype=float), np.asarray(Q, dtype=float), np.asarray(t, dtype=float)
    if X.ndim != 2 or X.shape[1] != n or Q.shape != (len(X), k):
        raise IoError(
            f"table shape mismatch: expected N x {n} x and N x {k} q values, got {X.shape} and {Q.shape}"
        )
    try:
        ts = np.broadcast_to(t, (len(X),))
    except ValueError as e:
        raise IoError(f"table shape mismatch: {e}") from e
    if not isinstance(label, str) and len(label) != len(X):
        raise IoError(f"table shape mismatch: {len(label)} labels for {len(X)} rows")
    if not (np.isfinite(X).all() and np.isfinite(Q).all() and np.isfinite(ts).all()):
        _finite(np.column_stack([ts, X, Q]))
    return (ts if t.ndim else t) + 0.0, X, Q, label


def _csv_rows(checked: Sequence[Tuple], texts: List[str]) -> Iterable[str]:
    """The CSV rows of the checked chains, block by block.  A chain's one t
    and one label are literal text of its row pattern; its x columns are
    formatted once, by ``_x_lines``, and each chain's lines are appended to
    ``texts``."""
    for t, X, Q, label in checked:
        t_column, label_column = t.ndim == 1, not isinstance(label, str)
        head = "%.9g" if t_column else "%.9g" % float(t)
        tail = "%s" if label_column else label.replace("%", "%%")
        row = ",".join([head, "%s"] + ["%.9g"] * Q.shape[1] + [tail]) + "\n"
        blocks = []
        for i, lines in zip(range(0, len(X), BLOCK_ROWS), _x_lines(X)):
            rows = slice(i, i + BLOCK_ROWS)
            cols = [t[rows].tolist()] if t_column else []
            cols += [lines.split("\n"), *(Q[rows] + 0.0).T.tolist()]
            cols += [list(label[rows])] if label_column else []
            args = [None] * (len(cols) * len(cols[0]))
            for j, col in enumerate(cols):
                args[j :: len(cols)] = col
            yield row * len(cols[0]) % tuple(args)
            blocks.append(lines)
        texts.append("\n".join(blocks))


def emit_csv(chains: Sequence[Tuple], n: int, k: int, path) -> List[str]:
    """Write the rows of the chains ``(t, X, Q, label)`` in chain order: ``t``
    a number or one per row, ``X`` N x n, ``Q`` N x k, ``label`` one string or
    one per row.  Every chain is checked before the file is opened.  Returns
    each chain's x columns as its ``x1,x2,...`` lines, the text that
    ``emit_svg`` draws the same points from."""
    checked = [_checked_chain(part, n, k) for part in chains]
    texts: List[str] = []
    _write(path, chain([csv_header(n, k) + "\n"], _csv_rows(checked, texts)))
    return texts


def emit_svg(curves: Sequence[Tuple[np.ndarray, str, Optional[str]]], path) -> None:
    """One <polyline> per N x 2 curve ``(points, class, text)`` of two or
    more points, and one <circle> of radius and stroke width the polylines'
    stroke width per curve of one point, which a polyline of zero length
    would not show; an empty curve draws nothing.  Classes select stroke
    colors.  ``text`` is the curve's ``x1,x2`` lines as ``emit_csv``
    returned them for the same points, or None to format them here.

    The y axis points up (plot orientation), so world y is negated into SVG
    user units.
    """
    for _, cls, _ in curves:
        if cls not in STROKE_CLASSES:
            raise IoError(f"unknown stroke class {cls!r}")
    drawn = [(np.asarray(p, dtype=float), cls, text) for p, cls, text in curves if len(p)]
    for pts, _, _ in drawn:
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise IoError(f"SVG curve of shape {pts.shape}, expected N x 2")
    if drawn:
        allp = np.vstack([pts for pts, _, _ in drawn])
        _finite(allp)
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
    head = _finite(np.array([*vb, stroke])).tolist()
    view, width = "%.9g %.9g %.9g %.9g" % tuple(head[:4]), "%.9g" % head[4]
    lines: List[str] = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}" viewBox="{view}">\n',
        f"<style>{_STYLE} polyline{{stroke-width:{width}}}</style>\n",
    ]
    for pts, cls, text in drawn:
        points = _svg_points("\n".join(_x_lines(pts)) if text is None else text)
        if len(pts) == 1:
            cx, cy = points.split(",")
            lines.append(f'<circle class="{cls}" cx="{cx}" cy="{cy}" r="{width}" stroke-width="{width}"/>\n')
        else:
            lines.append(f'<polyline class="{cls}" points="{points}"/>\n')
    lines.append("</svg>\n")
    _write(path, lines)
