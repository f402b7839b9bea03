import argparse
import contextlib
import importlib.util
import io
import math
import re
import tempfile
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavefronts import cli, emitters, families, fronts, gallery, pde
from wavefronts.cli import (
    MAX_HISTORY,
    MAX_JET_DIM,
    MAX_SAMPLES,
    _box_grid,
    _caustic_parts,
    load_family,
    parse_range,
    phase_seeds,
    run,
    x_grid_and_q_seeds,
)
from wavefronts.errors import FamilyFileError, IoError


def test_parse_range_inclusive():
    vals = parse_range(" -2.8:-0.4:0.2")
    assert vals[0] == pytest.approx(-2.8)
    assert vals[-1] == pytest.approx(-0.4)
    assert len(vals) == 13


@pytest.mark.parametrize("text", [" -0.3:0.3:0.1", " -2.8:-0.4:0.4", "0:0.7:0.001", "0:6.28:0.1", "1e-3:2e-2:1e-3"])
def test_parse_range_samples_are_the_nearest_floats_to_the_decimals(text):
    # the np.arange sample count (perfbench's check_parallels counts it so),
    # with sample i the float nearest lo + i step, not arange's drifted sum
    lo, hi, step = (Fraction(p) for p in text.split(":"))
    vals = parse_range(text)
    assert len(vals) == len(np.arange(float(lo), float(hi) + float(step) / 2, float(step)))
    assert vals.tolist() == [float(lo + i * step) for i in range(len(vals))]


def test_parse_range_puts_the_zero_slice_at_zero():
    # arange gives -0.3 + 3 * 0.1 = 5.55e-17, which traced a "t = 0" gallery slice off the slice
    assert parse_range(" -0.3:0.3:0.1")[3] == 0.0


def test_parse_range_rationals_stay_small_for_any_exponent():
    # the exact rational of the text 1e-999999999 has a billion digits (it
    # would not finish); its float, 0, has one
    assert parse_range("1e-999999999:1:0.5").tolist() == [0.0, 0.5, 1.0]


def test_verify_catalog_family(capsys):
    assert run(["verify", "--family", "cusp"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 3


def test_front_writes_csv_and_svg(tmp_path, capsys):
    csv = tmp_path / "front.csv"
    svg = tmp_path / "front.svg"
    code = run(
        ["front", "--family", "fold", "--t", "0.5", "--seed-density", "4",
         "--csv", str(csv), "--svg", str(svg)]
    )
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,x1,x2,q1,label"
    assert len(lines) > 10
    assert all(line.endswith(",front") for line in lines[1:])
    body = svg.read_text()
    assert body.startswith("<?xml")
    assert "<polyline" in body and 'class="front"' in body


def test_output_is_deterministic(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        run(["caustic", "--family", "cusp", "--seed-density", "3", "--csv", str(path)])
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_versal_subcommand(capsys):
    code = run(["versal", "--f", "q1^4", "--dfdx", "q1^2;q1", "--jet", "6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "stability: pass" in out


def test_run_builds_its_parser_once(monkeypatch, capsys):
    # the argparse tree takes about 1.5 ms to build: one per process, and a
    # parse leaves nothing in it that changes the next one
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    out = []
    for argv in (["--f", "q1^4"], ["--f", "q1^4", "--dfdx", "q1^2;q1"], ["--f", "q1^4"]):
        assert run(["versal", "--jet", "6"] + argv) == 0
        out.append(capsys.readouterr().out)
    assert out[0] == out[2] != out[1]
    assert run(["versal", "--jet", "6"]) == 2  # --f is still required
    assert "--f" in capsys.readouterr().err
    assert built == [1]
    cli._parser.cache_clear()


def test_versal_of_a_high_power_reads_only_its_jet(capsys):
    # the expansion is cut at the jet degree, so the size of the exponent
    # costs 300 small products, not the whole polynomial
    start = time.perf_counter()
    assert run(["versal", "--k", "2", "--f", "(q1+q2+1)^300", "--jet", "3"]) == 1
    assert "NotSingularGerm" in capsys.readouterr().err
    assert run(["versal", "--k", "2", "--f", "(q1+q2)^200", "--jet", "3"]) == 0
    assert "stability: FAIL (defect 9, witnesses q1, q2, q1^2" in capsys.readouterr().out
    assert time.perf_counter() - start < 2.0


def test_burgers_breaking_line(capsys):
    code = run(["burgers", "--t", "0:0.7:0.001", "--strips", "200", "--report-breaking"])
    assert code == 0
    out = capsys.readouterr().out
    assert "t* = 0.500" in out


@pytest.mark.parametrize(
    "argv",
    [
        # the datum is at t = 0, so a window that starts elsewhere is refused
        ["burgers", "--t", "0.3:0.7:0.001", "--report-breaking"],
        # a --count time outside the --t window
        ["burgers", "--t", "0:0.7:0.001", "--count", "3.14159,5"],
        ["burgers", "--t", "0:0.7:0.001", "--count", "3.14159,-2"],
    ],
)
def test_burgers_times_outside_the_window_exit_2_before_integrating(argv, capsys, monkeypatch):
    def integrate(*args, **kwargs):
        raise AssertionError("integrated before validating --t and --count")

    monkeypatch.setattr(pde, "integrate_characteristics", integrate)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "invalid arguments:" in captured.err
    assert captured.out == ""


def test_burgers_count_at_the_window_ends(capsys):
    assert run(["burgers", "--t", "0:0.7:0.001", "--count", "3.14159,0"]) == 0
    assert capsys.readouterr().out == "count(3.14159, 0.0) = 1\n"
    assert run(["burgers", "--t", "0:0.7:0.001", "--count", "3.14159,0.7"]) == 0
    assert capsys.readouterr().out == "count(3.14159, 0.7) = 3\n"


def test_ode_gallery_svg(tmp_path):
    svg = tmp_path / "g4.svg"
    code = run(
        ["ode-gallery", "--germ", "4", "--t", " -0.3:0.3:0.3", "--seed-density", "4",
         "--svg", str(svg)]
    )
    assert code == 0
    body = svg.read_text()
    assert 'class="caustic"' in body and 'class="front"' in body


def test_ode_gallery_traces_each_front_once(monkeypatch, tmp_path):
    calls = []
    front = gallery.gallery_front

    def counted(*args, **kwargs):
        calls.append(args[1])
        return front(*args, **kwargs)

    monkeypatch.setattr(gallery, "gallery_front", counted)
    code = run(["ode-gallery", "--germ", "4", "--t", " -0.3:0.3:0.1", "--csv", str(tmp_path / "g4.csv")])
    assert code == 0
    assert len(calls) == 7


def test_family_file_without_domain_uses_the_fallback_box(tmp_path):
    cusp = "k = 1\nn = 2\nexpr = q1^4 + x1*q1^2 + x2*q1\n"
    bare, boxed = tmp_path / "bare.fam", tmp_path / "boxed.fam"
    bare.write_text(cusp)
    boxed.write_text(cusp + "domain = [[-3, 3], [-3, 3], [-3, 3]]\n")
    assert load_family(str(bare)).field.box == ((-3.0, 3.0),) * 3
    csv = []
    for path in (bare, boxed):
        csv.append(tmp_path / f"{path.stem}.csv")
        assert run(["caustic", "--family", str(path), "--csv", str(csv[-1])]) == 0
    assert csv[0].read_bytes() == csv[1].read_bytes()


FOLD_PAIR = Path(__file__).resolve().parents[1] / "tools" / "fold_pair.fam"
MAXWELL_TWO_CHAINS = FOLD_PAIR.with_name("maxwell_two_chains.fam")


def _polylines(svg: Path, cls: str) -> list:
    """The points of each polyline of class ``cls``, in world coordinates
    (the SVG's y negated back)."""
    return [
        np.array([[float(v) for v in xy.split(",")] for xy in line.split('points="')[1].split('"')[0].split()])
        * [1.0, -1.0]
        for line in svg.read_text().splitlines()
        if line.startswith(f'<polyline class="{cls}"')
    ]


@pytest.mark.parametrize("command", [["caustic"], ["discriminant", "--t", " -1:1:1"]])
def test_caustic_svg_draws_one_polyline_per_chain(tmp_path, command, capsys):
    # the caustic of 1/3 q1^3 - x1^2 q1 + q1 is the two lines x1 = -1 and
    # x1 = 1: two chains, so two polylines and no segment between them
    svg = tmp_path / "fold_pair.svg"
    assert run(command + ["--family", str(FOLD_PAIR), "--svg", str(svg)]) == 0
    assert "caustic" in capsys.readouterr().out
    polylines = _polylines(svg, "caustic")
    assert [len(p) for p in polylines] == [204, 204]
    assert sorted(p[0, 0] for p in polylines) == pytest.approx([-1.0, 1.0])
    for p in polylines:
        assert np.allclose(p[:, 0], p[0, 0], atol=1e-9)


@pytest.mark.parametrize("command", [["maxwell"], ["discriminant", "--t", " -1:1:1"]])
def test_maxwell_svg_draws_one_polyline_per_chain(tmp_path, command, capsys):
    # F = q1^4 + (1 - x1^2) q1^2 + x2 q1 has equal critical values at
    # q1 = +-sqrt((x1^2 - 1) / 2) on x2 = 0: the Maxwell set is that axis for
    # |x1| > 1, two chains with the gap (-1, 1) between them
    svg = tmp_path / "two_chains.svg"
    assert run(command + ["--family", str(MAXWELL_TWO_CHAINS), "--svg", str(svg)]) == 0
    assert "359" in capsys.readouterr().out
    polylines = _polylines(svg, "maxwell")
    assert [len(p) for p in polylines] == [181, 178]
    for p, side in zip(polylines, (-1.0, 1.0)):
        assert np.abs(p[:, 1]).max() <= 1e-9
        assert np.all(side * p[:, 0] >= 1.0 - 1e-5)  # no segment across the gap
        assert np.linalg.norm(np.diff(p, axis=0), axis=1).max() <= 0.02


def test_big_front_counts_time_values_as_slices(capsys):
    # t = -0.5, 0, 0.5; each slice has several chains
    assert run(["big-front", "--family", "cusp", "--t", " -0.5:0.5:0.5"]) == 0
    assert capsys.readouterr().out.startswith("big front: 3 slices, ")


def test_parallels_svg(tmp_path):
    svg = tmp_path / "par.svg"
    code = run(
        ["parallels", "--curve", "ellipse", "--a", "2", "--b", "1",
         "--r", " -2.8:-0.4:0.4", "--svg", str(svg)]
    )
    assert code == 0
    assert svg.read_text().count("<polyline") >= 8


def test_unknown_family_exits_2(capsys):
    assert run(["front", "--family", "nope", "--t", "0"]) == 2
    assert "unknown family" in capsys.readouterr().err


def test_bad_range_exits_2():
    assert run(["big-front", "--family", "fold", "--t", "1:0:0.1"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["big-front", "--family", "cusp", "--t", "nan:1:0.1"],
        ["big-front", "--family", "cusp", "--t", "0:inf:1"],
        ["big-front", "--family", "cusp", "--t", "0:1e12:1"],
        ["burgers", "--t", "0:1:1e-320"],
        ["front", "--family", "cusp", "--t", "0.5", "--seed-density", "5000"],
        ["front", "--family", "cusp", "--t", "0.5", "--seed-density", "0"],
        ["burgers", "--t", "0:0.7:0.001", "--count", "1"],
        ["burgers", "--t", "0:0.7:0.001", "--count", "a,b"],
        ["burgers", "--t", "0:0.7:0.001", "--count", "1,2,3"],
        ["burgers", "--t", "0:0.7:0.001", "--count", "nan,0.5"],
        ["burgers", "--t", "0:0.7:0.001", "--speed", "nan"],
        ["front", "--family", "cusp", "--t", "nan"],
        ["evolute", "--curve", "ellipse", "--a", "nan"],
        # 1001 offsets x 1001 samples
        ["parallels", "--curve", "ellipse", "--r", "0:1:0.001", "--u", "0:1:0.001"],
        ["verify", "--family", "cusp", "--tol", "nan"],
        ["verify", "--family", "cusp", "--tol", "-1"],
    ],
)
def test_unbounded_inputs_exit_2_before_allocating(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "invalid arguments:" in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["parallels", "--curve", "ellipse", "--a", "0", "--r", " -1:-1:1"], 2),
        (["parallels", "--curve", "ellipse", "--a", "-2", "--r", " -1:-1:1"], 2),
        (["parallels", "--curve", "ellipse", "--b=-1e-300", "--r", " -1:-1:1"], 2),
        (["evolute", "--curve", "circle", "--a", "-1"], 2),
        (["evolute", "--curve", "ellipse", "--b", "0"], 2),
        # |X'|^3 overflows: the curvature there would be a silent 0
        (["parallels", "--curve", "ellipse", "--a", "1e110", "--b", "1", "--r", " -1:-1:1"], 1),
        (["evolute", "--curve", "circle", "--a", "1e110"], 1),
        # |X'|^2 overflows: the normals would be 0 and each offset the curve
        (["parallels", "--curve", "ellipse", "--a", "1e160", "--b", "1", "--r", " -1:-1:1"], 1),
        # |X'|^2 underflows to 0: each offset would be -inf or NaN
        (["parallels", "--curve", "ellipse", "--a", "1e-170", "--b", "1e-170", "--r", " -1:-1:1", "--u", "0:1:0.5"], 1),
    ],
)
def test_curve_inputs_fail_without_numpy_warnings(argv, code, capsys, tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv + ["--csv", str(tmp_path / "c.csv")]) == code
    captured = capsys.readouterr()
    assert [str(w.message) for w in caught] == [] and "Warning" not in captured.err
    assert ("invalid arguments:" if code == 2 else "error[DegenerateMetric]") in captured.err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["burgers", "--t", "0:0.1:0.01", "--tol", "1e-3"],
        ["front", "--family", "cusp", "--t", "0.5", "--tol", "1e-6"],
        ["versal", "--f", "q1^4", "--seed-density", "3"],
        ["evolute", "--curve", "ellipse", "--seed-density", "3"],
    ],
)
def test_a_flag_the_command_does_not_read_exits_2(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("family", ["fold", "cusp"])
def test_verify_reads_tol(family, capsys):
    assert run(["verify", "--family", family, "--tol", "1e-6"]) == 0
    assert capsys.readouterr().out.count("pass") == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["versal", "--f", "q1^2", "--jet", "0"],
        ["versal", "--f", "q1^2", "--k", "0"],
        ["versal", "--f", "q1^2", "--jet", "10000"],
        # C(202, 101) monomials; math.comb runs only after the k + jet test
        ["versal", "--f", "q1^2", "--k", "100", "--jet", "100"],
        ["versal", "--f", "q1^2", "--k", "1000000000000", "--jet", "1000000000000"],
        ["burgers", "--t", "0:0.7:0.001", "--strips", "0"],
        ["burgers", "--t", "0:0.7:0.001", "--strips", "1000001"],
        # 100,001 time samples x 1,000 strips
        ["burgers", "--t", "0:100:0.001", "--strips", "1000"],
    ],
)
def test_jet_and_strip_bounds_exit_2_before_allocating(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "invalid arguments:" in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("f", ["q1^" + "9" * 5000, "q1^2 + " + "9" * 5000 + "*q1", "q1^2 + 1/0*q1"])
def test_out_of_range_literals_are_reported(f, capsys):
    assert run(["versal", "--f", f]) == 1
    captured = capsys.readouterr()
    assert "error[ExprSyntaxError]" in captured.err
    assert "Traceback" not in captured.out + captured.err


# a constant of 2^1100 (past MAX_POWER) and one of 2^2000 (each factor
# admitted, their product outside the float range)
OVERSIZED = [("2^1100", "ExprSyntaxError"), ("2^1000*2^1000", "ConstantOutOfRange")]


@pytest.mark.parametrize("constant, error", OVERSIZED)
@pytest.mark.parametrize("command", [["verify"], ["front", "--t", "0.5"], ["caustic"], ["maxwell"]])
def test_oversized_constant_in_a_family_file_is_named(tmp_path, capsys, constant, error, command):
    path = tmp_path / "big.fam"
    path.write_text(f"k = 1\nn = 2\nexpr = {constant}*q1^2 + x1*q1 + x2\ndomain = [[-2, 2], [-2, 2], [-2, 2]]\n")
    assert run([command[0], "--family", str(path), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert f"error[{error}]" in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("constant, error", OVERSIZED)
def test_oversized_constant_in_a_gallery_modulus_is_named(capsys, constant, error):
    assert run(["ode-gallery", "--germ", "4", "--t", " -0.3:0.3:0.1", "--alpha", f"{constant}*v1"]) == 1
    captured = capsys.readouterr()
    assert f"error[{error}]" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_benchmark_scene_sizes_are_admitted():
    top = 2 + 10 + 2  # versal --k 2 --jet 10
    assert math.comb(top, 11) <= MAX_JET_DIM
    assert 701 * 6000 <= MAX_HISTORY  # burgers --t 0:0.7:0.001 --strips 6000
    # parallels with 7 offsets and --u 0:6.2832:0.001 (the scan workload)
    assert 7 * len(parse_range("0:6.2832:0.001")) <= MAX_SAMPLES
    # the critical-set stack of verify, maxwell and discriminant at the default density
    for name in ("cusp", "fold", str(MAXWELL_TWO_CHAINS)):
        xg, qs = x_grid_and_q_seeds(load_family(name), cli.DEFAULT_SEED_DENSITY)
        assert len(xg) * len(qs) <= MAX_SAMPLES


def _four_variable_family(tmp_path):
    path = tmp_path / "wide.fam"
    path.write_text("k = 1\nn = 3\nexpr = q1^2 + x1*q1 + x2 + x3\n")
    return str(path)


def test_seed_grid_over_a_million_points_exits_2(tmp_path, capsys):
    # the x grid of a 3-D family at density 101 has 101^3 > 10^6 points
    assert run(["maxwell", "--family", _four_variable_family(tmp_path), "--seed-density", "101"]) == 2
    assert "invalid arguments:" in capsys.readouterr().err
    # each grid of a seedless k = 2, n = 2 family at density 32 has 1024
    # points, but every q seed is solved at every x: 1,048,576 Newton rows
    assert run(["maxwell", "--family", str(FOLD_PAIR.with_name("caustic_k2.fam")), "--seed-density", "32"]) == 2
    assert "Newton rows" in capsys.readouterr().err


def test_phase_seeds_builds_only_the_kept_rows(tmp_path):
    cusp = load_family("cusp")
    # 17^3 = 4913 rows are strided by 2 down to the cap
    assert np.array_equal(np.array(phase_seeds(cusp, 17)), _box_grid(cusp.field.box, 17)[::2])
    assert np.array_equal(np.array(phase_seeds(cusp, 16)), _box_grid(cusp.field.box, 16))
    # the full 200^4 mesh would have 1.6e9 rows
    wide = load_family(_four_variable_family(tmp_path))
    seeds = np.array(phase_seeds(wide, 200))
    assert seeds.shape == (4096, 4)
    assert np.array_equal(seeds[0], [lo + 0.05 * (hi - lo) for lo, hi in wide.field.box])


def test_module_error_exits_1(capsys):
    assert run(["ode-gallery", "--germ", "9", "--t", "0:1:1"]) == 1
    assert "UnknownGerm" in capsys.readouterr().err


def test_missing_subcommand_exits_2(capsys):
    assert run([]) == 2


def test_family_file_input(tmp_path):
    fam = tmp_path / "my.fam"
    fam.write_text(
        "k = 1\nn = 2\nexpr = q1^2 + x1*q1 + x2\n"
        "domain = [[-4, 4], [-6, 6], [-6, 6]]\nseeds = [[-1.0], [1.0]]\n"
    )
    assert run(["verify", "--family", str(fam)]) == 0


def test_family_file_wrong_seed_length_is_named(tmp_path, capsys):
    fam = tmp_path / "badseeds.fam"
    fam.write_text("k = 1\nn = 2\nexpr = q1^4 + x1*q1^2 + x2*q1\nseeds = [[0.5, 1.0], [1.0, 2.0]]\n")
    for command in ("maxwell", "verify"):
        assert run([command, "--family", str(fam)]) != 0
        captured = capsys.readouterr()
        assert "FamilyFileError" in captured.err and "seed 0" in captured.err
        assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("counts", ["k = x\nn = 2", "k = 1.5\nn = 2", "k = 1\nn = [2]", "k = True\nn = 2"])
def test_family_file_with_non_integer_k_or_n_is_named(tmp_path, capsys, counts):
    fam = tmp_path / "badcounts.fam"
    fam.write_text(counts + "\nexpr = q1^4 + x1*q1^2 + x2*q1\n")
    assert run(["caustic", "--family", str(fam)]) == 1
    captured = capsys.readouterr()
    assert "FamilyFileError" in captured.err and "k and n must be integers" in captured.err


@pytest.mark.parametrize(
    "counts", ["k = 100000\nn = 2", "k = 1\nn = 100000", "k = 8\nn = 9", "k = 0\nn = 2", "k = 1\nn = -3"]
)
def test_family_file_outside_the_variable_bound_exits_2(tmp_path, capsys, counts):
    # refused before a (k + n)-variable box or expression is built
    path = tmp_path / "huge.fam"
    path.write_text(counts + "\nexpr = q1^4 + x1*q1^2 + x2*q1\n")
    with pytest.raises(FamilyFileError, match="k \\+ n at most"):
        families.family_from_file(path)
    start = time.perf_counter()
    for command in ("caustic", "verify"):
        assert run([command, "--family", str(path)]) == 2
        captured = capsys.readouterr()
        assert "invalid arguments:" in captured.err and "Traceback" not in captured.out + captured.err
    assert time.perf_counter() - start < 0.5


def test_q_seeds_cover_asymmetric_domain(tmp_path, capsys):
    # the cusp shifted by 2.5 in q, on a q-domain that is not centred on 0
    path = tmp_path / "shifted.fam"
    path.write_text(
        "k = 1\nn = 2\nexpr = (q1 - 5/2)^4 + x1*(q1 - 5/2)^2 + x2*(q1 - 5/2)\n"
        "domain = [[0.5, 4.5], [-6, 6], [-6, 6]]\n"
    )
    fam = load_family(str(path))
    xg, qs = x_grid_and_q_seeds(fam, 8)
    for seed in [np.concatenate([q, x]) for q in qs for x in xg]:
        assert all(lo <= v <= hi for v, (lo, hi) in zip(seed, fam.field.box))
    assert run(["verify", "--family", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("pass (24/24 points)") == 3


def test_emit_csv_empty_has_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emitters.emit_csv([(0.0, np.zeros((0, 3)), np.zeros((0, 2)), "x")], 3, 2, path)
    assert path.read_text() == "t,x1,x2,x3,q1,q2,label\n"


def test_emit_csv_rejects_non_finite(tmp_path):
    with pytest.raises(IoError):
        emitters.emit_csv([(np.nan, [[0.0, 0.0]], [[0.0]], "x")], 2, 1, tmp_path / "bad.csv")


def test_emit_svg_two_point_curve(tmp_path):
    path = tmp_path / "two.svg"
    emitters.emit_svg([(np.array([[0.0, 0.0], [1.0, 2.0]]), "front", None)], path)
    body = path.read_text()
    assert body.count("<polyline") == 1
    # y axis flipped
    assert 'points="0,0 1,-2"' in body


def test_emit_svg_rejects_unknown_class(tmp_path):
    with pytest.raises(IoError):
        emitters.emit_svg([(np.zeros((2, 2)), "bogus", None)], tmp_path / "bad.svg")


# ---------------------------------------------------------------------------
# The emitters against a per-value oracle: every float through
# format(v, ".9g"), '-0' printed as '0', a non-finite value refused.


def _assert_same_text(got, expected):
    """Equal texts; on a mismatch, report the first differing line (a diff
    of two large files would take minutes)."""
    if got != expected:
        a, b = got.splitlines(), expected.splitlines()
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        raise AssertionError(f"line {i} differs: {a[i:i + 1]} != {b[i:i + 1]} ({len(a)} vs {len(b)} lines)")


def _ref_fmt(values):
    out = []
    for v in values:
        if not math.isfinite(v):
            raise IoError(f"non-finite coordinate {v!r}")
        s = format(v, ".9g")
        out.append("0" if s in ("-0", "-0.0") else s)
    return out


def _ref_csv(chains, n, k):
    lines = [emitters.csv_header(n, k)]
    for t, X, Q, labels in chains:
        ts = np.broadcast_to(np.asarray(t, dtype=float), (len(X),))
        labels = [labels] * len(X) if isinstance(labels, str) else labels
        for ti, x, q, label in zip(ts.tolist(), X.tolist(), Q.tolist(), labels):
            lines.append(",".join(_ref_fmt([ti, *x, *q]) + [label]))
    return "\n".join(lines) + "\n"


def _ref_svg(curves):
    pts_all = [p for p, *_ in curves if len(p)]
    if pts_all:
        allp = np.vstack(pts_all)
        _ref_fmt(allp.ravel().tolist())
        lo, hi = allp.min(axis=0), allp.max(axis=0)
    else:
        lo, hi = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    span = np.maximum(hi - lo, 1e-9)
    pad = emitters.SVG_MARGIN_FRAC * span.max()
    vb = _ref_fmt([lo[0] - pad, -(hi[1] + pad), span[0] + 2 * pad, span[1] + 2 * pad])
    stroke = _ref_fmt([0.004 * max(span[0], span[1])])[0]
    size = emitters.SVG_SIZE
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{size}" height="{size}" '
        f'viewBox="{" ".join(vb)}">',
        f"<style>{emitters._STYLE} polyline{{stroke-width:{stroke}}}</style>",
    ]
    for pts, cls, *_ in curves:
        if len(pts):
            xs, ys = _ref_fmt(pts[:, 0].tolist()), _ref_fmt((-pts[:, 1]).tolist())
            coords = " ".join(f"{x},{y}" for x, y in zip(xs, ys))
            lines.append(f'<polyline class="{cls}" points="{coords}"/>')
    return "\n".join(lines + ["</svg>"]) + "\n"


_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1e16, -1e16, 1e-5, 123456789.5, 0.1,
    -1e-7, 999999999.5, 1.0000000005,
]
_FLOATS = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e3, max_value=1e3),
)


def _matrix(draw, rows, cols):
    return np.array(draw(st.lists(_FLOATS, min_size=rows * cols, max_size=rows * cols)), dtype=float).reshape(rows, cols)


@st.composite
def _tables(draw):
    n, k, rows = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(0, 12))
    t = draw(_FLOATS) if draw(st.booleans()) else _matrix(draw, rows, 1)[:, 0]
    labels = draw(st.sampled_from(emitters.STROKE_CLASSES))
    if draw(st.booleans()):
        labels = draw(st.lists(st.sampled_from(emitters.STROKE_CLASSES), min_size=rows, max_size=rows))
    return (t, _matrix(draw, rows, n), _matrix(draw, rows, k), labels), n, k


@st.composite
def _curves(draw):
    sizes = draw(st.lists(st.integers(0, 8), max_size=4))
    return [(_matrix(draw, m, 2), draw(st.sampled_from(emitters.STROKE_CLASSES)), None) for m in sizes]


@settings(max_examples=200, deadline=None)
@given(_tables())
def test_emit_csv_matches_the_per_value_oracle(case):
    table, n, k = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        emitters.emit_csv([table], n, k, path)
        _assert_same_text(path.read_text(), _ref_csv([table], n, k))


@settings(max_examples=200, deadline=None)
@given(_curves())
def test_emit_svg_matches_the_per_value_oracle(curves):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # spans of +-1.8e308 overflow
        try:
            expected = _ref_svg(curves)
        except IoError:
            expected = None
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.svg"
            if expected is None:
                with pytest.raises(IoError):
                    emitters.emit_svg(curves, path)
            else:
                emitters.emit_svg(curves, path)
                _assert_same_text(path.read_text(), expected)


def test_emitters_format_across_blocks(tmp_path):
    rows = 2 * emitters.BLOCK_ROWS + 3
    X = np.linspace(-1.0, 1.0, 2 * rows).reshape(rows, 2) * 1e-3
    table = (np.arange(rows) * 0.1, X, X[:, :1], [emitters.STROKE_CLASSES[i % 4] for i in range(rows)])
    emitters.emit_csv([table], 2, 1, tmp_path / "big.csv")
    _assert_same_text((tmp_path / "big.csv").read_text(), _ref_csv([table], 2, 1))
    curves = [(X[:5], "caustic", None), (X, "front", None), (X[::-1], "maxwell", None)]
    emitters.emit_svg(curves, tmp_path / "big.svg")
    _assert_same_text((tmp_path / "big.svg").read_text(), _ref_svg(curves))


@st.composite
def _emit_cases(draw):
    """``(chains, n, k, extra, outputs)`` for ``cli._emit``: chains of 0-8
    rows with one t or a column, extra polylines, and which files to write.
    A chain has a list of labels only where no SVG draws it."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    outputs = draw(st.sampled_from([("csv",), ("svg",), ("csv", "svg")]))
    chains = []
    for rows in draw(st.lists(st.integers(0, 8), max_size=4)):
        t = draw(_FLOATS) if draw(st.booleans()) else _matrix(draw, rows, 1)[:, 0]
        label = draw(st.sampled_from(emitters.STROKE_CLASSES))
        if (n != 2 or "svg" not in outputs) and draw(st.booleans()):
            label = draw(st.lists(st.sampled_from(emitters.STROKE_CLASSES), min_size=rows, max_size=rows))
        chains.append((t, _matrix(draw, rows, n), _matrix(draw, rows, k), label))
    extra = [(pts, cls) for pts, cls, _ in draw(_curves())]
    return chains, n, k, extra, outputs


# every edge value but +-1.8e308, whose margin overflows and makes the SVG refused
_EDGE_SPAN = np.array([v for v in _EDGE_FLOATS if abs(v) < 1e308])
_EDGE_ALL = np.array(_EDGE_FLOATS)


@settings(max_examples=200, deadline=None)
@given(_emit_cases())
@example((
    [(-0.0, np.column_stack([_EDGE_SPAN, _EDGE_SPAN[::-1]]), _EDGE_SPAN[:, None], "front"),
     (0.0, np.zeros((0, 2)), np.zeros((0, 1)), "caustic")],
    2, 1, [(np.column_stack([_EDGE_SPAN, -_EDGE_SPAN])[:3], "caustic")], ("csv", "svg"),
))
@example(([(_EDGE_SPAN, np.column_stack([-_EDGE_SPAN, _EDGE_SPAN]), np.zeros((15, 2)), "maxwell")],
          2, 2, [], ("svg",)))
@example(([(_EDGE_ALL, np.column_stack([_EDGE_ALL, _EDGE_ALL[::-1]]), _EDGE_ALL[:, None], "front")],
          2, 1, [], ("csv", "svg")))
@example(([(_EDGE_ALL, np.column_stack([_EDGE_ALL, -_EDGE_ALL, _EDGE_ALL[::-1]]), _EDGE_ALL[:, None],
            [emitters.STROKE_CLASSES[i % 4] for i in range(17)])], 3, 1, [], ("csv", "svg")))
@example(([(_EDGE_ALL, _EDGE_ALL[:, None], np.column_stack([_EDGE_ALL, _EDGE_ALL[::-1]]), "delta")],
          1, 2, [(np.ones((2, 2)), "front")], ("csv",)))
def test_emit_hands_the_csv_text_to_the_svg(case):
    """``cli._emit`` against the per-value oracles: the SVG drawn from the
    x lines the CSV printed is the SVG formatted from the numbers."""
    chains, n, k, extra, outputs = case
    curves = ([(X, label) for _, X, _, label in chains] if n == 2 else []) + extra
    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as tmp:
        warnings.simplefilter("ignore", RuntimeWarning)  # spans of +-1.8e308 overflow
        try:
            expected_svg = _ref_svg(curves) if "svg" in outputs else None
        except IoError:
            expected_svg = "refused"
        csv, svg = Path(tmp) / "c.csv", Path(tmp) / "c.svg"
        args = argparse.Namespace(csv=csv if "csv" in outputs else None, svg=svg if "svg" in outputs else None)
        with contextlib.redirect_stdout(io.StringIO()):
            if expected_svg == "refused":
                with pytest.raises(IoError):
                    cli._emit(args, chains, n, k, extra)
            else:
                cli._emit(args, chains, n, k, extra)
        if "csv" in outputs:
            _assert_same_text(csv.read_text(), _ref_csv(chains, n, k))
        if expected_svg not in (None, "refused"):
            _assert_same_text(svg.read_text(), expected_svg)


@pytest.mark.parametrize("where", ["t", "X", "Q"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_emit_csv_refuses_non_finite_anywhere(tmp_path, where, bad):
    t, X, Q = np.zeros(3), np.zeros((3, 2)), np.zeros((3, 1))
    {"t": t, "X": X, "Q": Q}[where][-1] = bad
    with pytest.raises(IoError, match=f"non-finite coordinate {bad!r}$"):
        emitters.emit_csv([(t, X, Q, "front")], 2, 1, tmp_path / "bad.csv")
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize(
    "table",
    [
        (0.0, np.zeros((3, 3)), np.zeros((3, 1)), "front"),  # n + 1 x columns
        (0.0, np.zeros((3, 2)), np.zeros((3, 2)), "front"),  # k + 1 q columns
        (0.0, np.zeros((3, 2)), np.zeros((2, 1)), "front"),  # q rows short
        (0.0, np.zeros(2), np.zeros((1, 1)), "front"),  # x not a matrix
        (np.zeros(2), np.zeros((3, 2)), np.zeros((3, 1)), "front"),  # t column short
        (0.0, np.zeros((3, 2)), np.zeros((3, 1)), ["front"] * 2),  # labels short
    ],
)
def test_emit_csv_refuses_a_wrong_shape(tmp_path, table):
    with pytest.raises(IoError, match="shape"):
        emitters.emit_csv([table], 2, 1, tmp_path / "bad.csv")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_emit_svg_refuses_non_finite_and_wrong_columns(tmp_path, bad):
    pts = np.zeros((3, 2))
    pts[1, 1] = bad
    with pytest.raises(IoError, match=f"non-finite coordinate {bad!r}$"):
        emitters.emit_svg([(np.ones((2, 2)), "front", None), (pts, "caustic", None)], tmp_path / "bad.svg")
    with pytest.raises(IoError, match="shape"):
        emitters.emit_svg([(np.zeros((3, 3)), "front", None)], tmp_path / "bad.svg")


# ---------------------------------------------------------------------------
# CLI bytes: every scene of tools/scene_digest.py against the committed table


def _scene_digest_module():
    path = Path(__file__).resolve().parents[1] / "tools" / "scene_digest.py"
    spec = importlib.util.spec_from_file_location("scene_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scene_output_matches_the_committed_digests(tmp_path):
    sd = _scene_digest_module()
    saved = sd.read_table(Path(sd.__file__).with_name("scene_digests.txt"))
    assert sorted(saved) == sorted(name for name, _ in sd.SCENES)
    differ = []
    for name, argv in sd.SCENES:
        line = sd.digest(name, argv, tmp_path)
        if line.split() != saved[name]:
            differ.append(f"{name}: {', '.join(sd.changed_columns(saved[name], line.split()))}")
    assert not differ, differ


def test_caustic_part_reads_the_family_value_at_every_point():
    # one stacked field pass gives the t column of the per-point values, cut into the chains
    fam = load_family("cusp")
    rng = np.random.default_rng(0)
    x, q = rng.uniform(-1.0, 1.0, (40, fam.n)), rng.uniform(-1.0, 1.0, (40, fam.k))
    parts = _caustic_parts(fam, fronts.PointCloud(x=x, q=q, chains=[x[:15], x[15:]]))
    assert [len(X) for _, X, _, _ in parts] == [15, 25]
    assert [label for *_, label in parts] == ["caustic", "caustic"]
    assert np.array_equal(np.vstack([X for _, X, _, _ in parts]), x)
    assert np.array_equal(np.vstack([Q for _, _, Q, _ in parts]), q)
    want = [fam.value(qi, xi) for xi, qi in zip(x, q)]
    assert np.concatenate([t for t, *_ in parts]) == pytest.approx(want, rel=1e-14, abs=1e-15)
    assert sum(len(t) for t, *_ in _caustic_parts(fam, fronts.PointCloud.empty(fam.n, fam.k))) == 0


def _svg_polylines(path):
    """(class, points) of each SVG polyline, in file order, with y negated
    back to world y."""
    found = re.findall(r'<polyline class="(\w+)" points="([^"]*)"/>', path.read_text())
    return [(cls, np.array([p.split(",") for p in pts.split()], dtype=float) * [1.0, -1.0]) for cls, pts in found]


@pytest.mark.parametrize(
    "argv, cls",
    [
        (["caustic", "--family", "cusp"], None),
        (["maxwell", "--family", "cusp"], None),
        (["discriminant", "--family", "cusp", "--t", " -1:1:1"], None),
        (["front", "--family", "cusp", "--t", "0.5"], None),
        (["big-front", "--family", "cusp", "--t", " -0.5:0:0.5"], None),
        (["parallels", "--curve", "ellipse", "--a", "2", "--b", "1", "--r", " -2.8:-0.4:0.4"], "front"),
        (["ode-gallery", "--germ", "4", "--t", " -0.3:0.3:0.1"], "front"),
    ],
    ids=["caustic", "maxwell", "discriminant", "front", "big-front", "parallels", "ode-gallery"],
)
def test_csv_rows_and_svg_polylines_show_the_same_chains(tmp_path, argv, cls):
    # both files come from one chain list: the polylines (of class cls, when
    # the SVG also draws other sets), concatenated, are the CSV's (x1, x2)
    # rows in order, to the printed digits, with the CSV row labels as classes
    csv, svg = tmp_path / "out.csv", tmp_path / "out.svg"
    assert run(argv + ["--csv", str(csv), "--svg", str(svg)]) == 0
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    drawn = [(c, P) for c, P in _svg_polylines(svg) if cls in (None, c)]
    assert len(rows) > 10 and drawn
    assert [c for c, P in drawn for _ in P] == [r[-1] for r in rows]
    assert np.vstack([P for _, P in drawn]).tolist() == [[float(r[1]), float(r[2])] for r in rows]


def test_caustic_of_family_files_off_n_2(tmp_path, capsys):
    # off n = 2 the caustic is not a curve: its projected seeds are one unordered chain
    n1, n3 = tmp_path / "n1.fam", tmp_path / "n3.fam"
    n1.write_text("k = 1\nn = 1\nexpr = q1^3 + x1*q1\n")
    n3.write_text("k = 1\nn = 3\nexpr = q1^4 + x1*q1^2 + x2*q1 + x3\n")
    for fam in (n1, n3):
        assert run(["caustic", "--family", str(fam), "--csv", str(fam.with_suffix(".csv"))]) == 0
    assert "Traceback" not in capsys.readouterr().err
    # the fold point q1 = x1 = 0
    x1 = np.loadtxt(n1.with_suffix(".csv"), delimiter=",", skiprows=1, usecols=1, ndmin=1)
    assert x1.size >= 1 and np.all(np.abs(x1) < 1e-8)
    # the cusp cylinder (x1, x2) = (-6 q^2, 8 q^3), any x3
    x = np.loadtxt(n3.with_suffix(".csv"), delimiter=",", skiprows=1, usecols=(1, 2), ndmin=2)
    assert len(x) > 10
    assert np.all(np.abs(8 * x[:, 0] ** 3 + 27 * x[:, 1] ** 2) < 1e-6 * np.maximum(1.0, np.abs(x[:, 0]) ** 3))


# --- a bounded grammar fuzz over the argv of every subcommand


def _values(valid, invalid):
    """A value of an option: one of ``valid`` about four times in five."""
    return st.sampled_from(valid * (4 * len(invalid)) + invalid * len(valid))


BAD_NUMBERS = ["nan", "inf", "-inf", "1e308", "x", ""]
BAD_RANGES = ["1:0:1", "0:1:0", "0:1", "a:b:c", "nan:1:1", " -1e9:1e9:1e-9", "0:inf:1", ""]
BAD_COUNTS = ["0", "-1", "x", "1000000000"]
# every range and count that passes validation is small: no large grid is built
SMALL_RANGE = _values([" -0.5:0:0.5", "0:1:0.5", "0.1:0.1:1", " -1:1:1"], BAD_RANGES)
CURVE = {"--curve": _values(["circle", "ellipse", "parabola"], ["spiral", ""]),
         "--a": _values(["2", "1.5", "0.5"], BAD_NUMBERS + ["0", "-1"]),
         "--b": _values(["1", "0.8", "2"], BAD_NUMBERS + ["0", "-1"]),
         "--u": _values(["0:6.28:0.5", " -1:1:0.25"], BAD_RANGES)}
OPTIONS = {
    "verify": {},
    "front": {"--t": _values(["0.5", "0", " -0.3", "3"], BAD_NUMBERS)},
    "big-front": {"--t": SMALL_RANGE},
    "caustic": {},
    "maxwell": {},
    "discriminant": {"--t": SMALL_RANGE},
    "evolute": CURVE,
    "parallels": {**CURVE, "--r": _values([" -1:1:1", " -0.5:-0.5:1"], BAD_RANGES)},
    "burgers": {"--t": _values(["0:0.1:0.05", "0:0.7:0.1", "0:0:1"], BAD_RANGES + [" -1:0:0.5"]),
                "--speed": _values(["2", "1", "0", " -1"], BAD_NUMBERS),
                "--strips": _values(["1", "2", "20"], BAD_COUNTS),
                "--report-breaking": st.none(),
                "--count": _values(["0.5,0.1", "3,0.6", "0,0"], ["1,2,3", "a,b", "nan,0", "inf,1", ""])},
    "ode-gallery": {"--germ": _values(["1", "2", "3", "4", "5", "6"], ["0", "7", "x"]),
                    "--t": _values([" -0.2:0.2:0.2", "0:0:1"], BAD_RANGES),
                    "--alpha": _values(["0", "v1^2", "v1*v2 + 1/2"], ["q1", "(", "2^2000", "v1^"])},
    "versal": {"--f": _values(["q1^4", "q1^3", "q1^2*q2 + q2^3", "(q1+q2)^200"],
                              ["(q1+q2+1)^300", "q1^", "x1", "", "1"]),
               "--dfdx": _values(["", "q1", "q1^2;q1", "q2;;q1"], ["q1^", "x1", ";"]),
               "--jet": _values(["1", "2", "4"], ["0", "-1", "1000000"]),
               "--k": _values(["1", "2"], ["0", "-3", "1000000"])},
}
COMMON = {"--seed-density": _values(["1", "2", "3"], BAD_COUNTS + ["257"]),
          "--tol": _values(["1e-8", "1e-6", "0.5"], BAD_NUMBERS + ["0", "-1"])}
FAMILY_LINES = st.lists(st.sampled_from([
    "k = 1", "k = 2", "k = x", "k = 1.5", "n = 1", "n = 2", "n = 3", "n = [2]", "expr = q1^3 + x1*q1",
    "expr = q1^4 + x1*q1^2 + x2*q1", "expr = q1^2 + q2^2 + x1*q1 + x2*q2", "expr = q1^", "expr = y1",
    "domain = [[-2, 2], [-2, 2], [-2, 2]]", "domain = [[2, -2]]", "seeds = [[0.5]]", "seeds = [[1, 2]]",
    "seeds = 3", "name = fuzz", "garbage",
]), max_size=6)


# True once in n draws.  Hypothesis leans towards the first element of a
# sampled list (and towards 0 in integer draws), so the rare value comes last.
ONCE_IN = {n: st.sampled_from([False] * (n - 1) + [True]) for n in (3, 5, 10)}


@st.composite
def _argv(draw, family_file):
    """A subcommand with each of its options given four times in five (a
    missing required one exits 2), each common option once in three, and
    now and then a stray argument."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    options = dict(OPTIONS[command])
    if command in ("verify", "front", "big-front", "caustic", "maxwell", "discriminant"):
        options["--family"] = _values(["cusp", "fold", family_file], ["nope"])
    argv = [command]
    for option, values in options.items():
        if draw(ONCE_IN[5]):
            continue
        value = draw(values)
        argv.append(option if value is None else f"{option}={value}")
    for option, values in COMMON.items():
        if draw(ONCE_IN[3]):
            argv.append(f"{option}={draw(values)}")
    if draw(ONCE_IN[10]):
        argv.append(draw(st.sampled_from(["--bogus", "extra", "--csv=/nonexistent/dir/out.csv"])))
    return argv


@settings(max_examples=40, deadline=None)
@given(data=st.data(), lines=FAMILY_LINES)
def test_fuzzed_argv_exits_0_1_or_2(data, lines):
    with tempfile.TemporaryDirectory() as tmp:
        family_file = str(Path(tmp) / "fuzz.family")
        Path(family_file).write_text("\n".join(lines) + "\n")
        argv = data.draw(_argv(family_file))
        argv += [f"--csv={tmp}/out.csv", f"--svg={tmp}/out.svg"] if data.draw(st.booleans()) else []
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore")
            rc = run(argv)
        assert rc in (0, 1, 2), (argv, lines, err.getvalue())
