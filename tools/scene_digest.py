"""Hash the CLI output of a fixed scene list, for byte-identity checks.

Usage:  python3 tools/scene_digest.py [--compare FILE]

Each scene runs in-process through ``wavefronts.cli.run`` (the package is
imported from the ``src/`` next to this file), with CSV and SVG written to a
temporary directory.  One line per scene is printed:

    scene  sha256(stdout)  sha256(csv)  sha256(svg)

``wrote ...`` lines are dropped from stdout before hashing because they name
the temporary paths; a file the scene does not write hashes as ``-``.  Takes
about 4 s (2-core machine, Python 3.11).  The tier-1 test
``tests/test_cli.py::test_scene_output_matches_the_committed_digests`` runs
the same scenes against the committed table.

``--compare FILE`` reads a table saved from an earlier run (blank lines and
lines of fewer than four fields are ignored) and prints, instead of the whole
table, only the scenes whose line differs: the saved line prefixed ``-``, the
current one ``+``, and the columns that changed.  It exits 1 on any
difference, a saved scene that no longer runs included, and 0 otherwise.

``tools/scene_digests.txt`` is the committed table of the current output:
``--compare tools/scene_digests.txt`` must report ``0 scene(s) differ``.  A
change that alters CLI output on purpose regenerates that file (redirect the
plain table into it) and explains why in CHANGES.md.
"""

from __future__ import annotations

import argparse
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
    # two caustic chains, x1 = -1 and x1 = 1: one SVG polyline each
    ("caustic-fold-pair", ["caustic", "--family", str(Path(__file__).resolve().with_name("fold_pair.fam"))]),
    # k = 2: the det row of the caustic system comes from the adjugate
    ("caustic-k2", ["caustic", "--family", str(Path(__file__).resolve().with_name("caustic_k2.fam"))]),
    ("front", ["front", "--family", "cusp", "--t", "0.5"]),
    ("big-front", ["big-front", "--family", "cusp", "--t", " -0.5:0:0.5"]),
    ("maxwell", ["maxwell", "--family", "cusp"]),
    # two Maxwell chains, x2 = 0 for x1 < -1 and for x1 > 1: one SVG polyline each
    ("maxwell-two-chains",
     ["maxwell", "--family", str(Path(__file__).resolve().with_name("maxwell_two_chains.fam"))]),
    ("discriminant", ["discriminant", "--family", "cusp", "--t", " -1:1:1"]),
    # n = 3: the CSV lists the points; the SVG draws no polyline (plane curves only)
    ("caustic-n3", ["caustic", "--family", str(Path(__file__).resolve().with_name("cusp_n3.fam"))]),
    ("front-n3", ["front", "--family", str(Path(__file__).resolve().with_name("cusp_n3.fam")), "--t", "0.5"]),
    ("verify-cusp", ["verify", "--family", "cusp"]),
    ("verify-fold", ["verify", "--family", "fold"]),
    ("evolute", ["evolute", "--curve", "ellipse", "--a", "2", "--b", "1"]),
    ("parallels", ["parallels", "--curve", "ellipse", "--a", "2", "--b", "1", "--r", " -2.8:-0.4:0.4"]),
    ("evolute-circle", ["evolute", "--curve", "circle", "--a", "1.5"]),
    ("parallels-circle", ["parallels", "--curve", "circle", "--a", "1.5", "--r", " -1:1:0.5"]),
    ("burgers", ["burgers", "--t", "0:0.7:0.001", "--strips", "400", "--report-breaking"]),
    ("burgers-count",
     ["burgers", "--t", "0:1:0.001", "--strips", "400", "--report-breaking", "--count", "3.14159,0.8"]),
    ("versal", ["versal", "--f", "q1^4", "--dfdx", "q1^2;q1", "--jet", "8"]),
] + [
    (f"ode-gallery-{g}", ["ode-gallery", "--germ", str(g), "--t", " -0.3:0.3:0.1"]) for g in range(1, 7)
] + [
    ("ode-gallery-4-alpha",
     ["ode-gallery", "--germ", "4", "--t", " -0.3:0.3:0.1", "--alpha", "1/10*v1 + 1/20*v2^2"]),
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


COLUMNS = ("stdout", "csv", "svg", "exit")


def read_table(path) -> dict:
    """Scene name -> fields of each line of a saved table."""
    rows = {}
    for line in Path(path).read_text().splitlines():
        fields = line.split()
        if len(fields) >= 4:
            rows[fields[0]] = fields
    return rows


def changed_columns(old: list, new: list) -> list:
    pad = [""] * len(COLUMNS)
    return [c for c, a, b in zip(COLUMNS, (old[1:] + pad), (new[1:] + pad)) if a != b]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Hash the CLI output of a fixed scene list.")
    parser.add_argument("--compare", metavar="FILE", help="saved table; print only the scenes that differ")
    args = parser.parse_args(argv)
    saved = read_table(args.compare) if args.compare else None
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, scene_argv in SCENES:
            line = digest(name, scene_argv, Path(tmp))
            if saved is None:
                print(line, flush=True)
                continue
            old = saved.pop(name, None)
            if old != line.split():
                differ += 1
                cols = changed_columns(old, line.split()) if old else ["scene"]
                print(f"- {'  '.join(old) if old else '(not in ' + args.compare + ')'}")
                print(f"+ {line}")
                print(f"  {name}: {', '.join(cols)} differ", flush=True)
    for name, old in (saved or {}).items():
        differ += 1
        print(f"- {'  '.join(old)}\n+ (no such scene)\n  {name}: scene missing")
    if saved is not None:
        print(f"{differ} scene(s) differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
