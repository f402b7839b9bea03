"""Hash the CLI output of a fixed scene list, for byte-identity checks.

Usage:  python3 tools/scene_digest.py

Each scene runs in-process through ``wavefronts.cli.run`` (the package is
imported from the ``src/`` next to this file), with CSV and SVG written to a
temporary directory.  One line per scene is printed:

    scene  sha256(stdout)  sha256(csv)  sha256(svg)

``wrote ...`` lines are dropped from stdout before hashing because they name
the temporary paths; a file the scene does not write hashes as ``-``.  Run it
on two checkouts and diff the tables.  Takes about 30 s.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wavefronts import cli  # noqa: E402

SCENES = [
    ("caustic", ["caustic", "--family", "cusp"]),
    ("front", ["front", "--family", "cusp", "--t", "0.5"]),
    ("big-front", ["big-front", "--family", "cusp", "--t", " -0.5:0:0.5"]),
    ("maxwell", ["maxwell", "--family", "cusp"]),
    ("discriminant", ["discriminant", "--family", "cusp", "--t", " -1:1:1"]),
    ("verify-cusp", ["verify", "--family", "cusp"]),
    ("verify-fold", ["verify", "--family", "fold"]),
    ("evolute", ["evolute", "--curve", "ellipse", "--a", "2", "--b", "1"]),
    ("parallels", ["parallels", "--curve", "ellipse", "--a", "2", "--b", "1", "--r", " -2.8:-0.4:0.4"]),
    ("burgers", ["burgers", "--t", "0:0.7:0.001", "--strips", "400", "--report-breaking"]),
    ("versal", ["versal", "--f", "q1^4", "--dfdx", "q1^2;q1", "--jet", "8"]),
] + [
    (f"ode-gallery-{g}", ["ode-gallery", "--germ", str(g), "--t", " -0.3:0.3:0.1"]) for g in range(1, 7)
]


def _sha(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def digest(name: str, argv: list, tmp: Path) -> str:
    csv, svg = tmp / f"{name}.csv", tmp / f"{name}.svg"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv + ["--csv", str(csv), "--svg", str(svg)])
    text = "".join(line for line in out.getvalue().splitlines(True) if not line.startswith("wrote "))
    files = [p.read_bytes() if p.exists() else None for p in (csv, svg)]
    status = "" if code == 0 else f"  exit={code}"
    return f"{name}  {_sha(text.encode())}  {_sha(files[0])}  {_sha(files[1])}{status}"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in SCENES:
            print(digest(name, argv, Path(tmp)), flush=True)


if __name__ == "__main__":
    main()
