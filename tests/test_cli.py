import math
from pathlib import Path

import numpy as np
import pytest

from wavefronts import emitters
from wavefronts.cli import (
    MAX_HISTORY,
    MAX_JET_DIM,
    ValidationError,
    _box_grid,
    _domain,
    load_family,
    parse_range,
    phase_seeds,
    run,
    x_grid_and_q_seeds,
)
from wavefronts.errors import IoError


def test_parse_range_inclusive():
    vals = parse_range(" -2.8:-0.4:0.2")
    assert vals[0] == pytest.approx(-2.8)
    assert vals[-1] == pytest.approx(-0.4)
    assert len(vals) == 13


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


def test_burgers_breaking_line(capsys):
    code = run(["burgers", "--t", "0:0.7:0.001", "--strips", "200", "--report-breaking"])
    assert code == 0
    out = capsys.readouterr().out
    assert "t* = 0.500" in out


def test_ode_gallery_svg(tmp_path):
    svg = tmp_path / "g4.svg"
    code = run(
        ["ode-gallery", "--germ", "4", "--t", " -0.3:0.3:0.3", "--seed-density", "4",
         "--svg", str(svg)]
    )
    assert code == 0
    body = svg.read_text()
    assert 'class="caustic"' in body and 'class="front"' in body


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
        ["front", "--family", "cusp", "--t", "0.5", "--tol", "nan"],
        ["front", "--family", "cusp", "--t", "0.5", "--tol", "-1"],
    ],
)
def test_unbounded_inputs_exit_2_before_allocating(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "invalid arguments:" in captured.err
    assert "Traceback" not in captured.out + captured.err


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


def test_benchmark_scene_sizes_are_admitted():
    top = 2 + 10 + 2  # versal --k 2 --jet 10
    assert math.comb(top, 11) <= MAX_JET_DIM
    assert 701 * 6000 <= MAX_HISTORY  # burgers --t 0:0.7:0.001 --strips 6000


def _four_variable_family(tmp_path):
    path = tmp_path / "wide.fam"
    path.write_text("k = 1\nn = 3\nexpr = q1^2 + x1*q1 + x2 + x3\n")
    return str(path)


def test_seed_grid_over_a_million_points_exits_2(tmp_path, capsys):
    # the x grid of a 3-D family at density 101 has 101^3 > 10^6 points
    assert run(["maxwell", "--family", _four_variable_family(tmp_path), "--seed-density", "101"]) == 2
    assert "invalid arguments:" in capsys.readouterr().err
    with pytest.raises(ValidationError):
        _box_grid(((0.0, 1.0),) * 3, 101)


def test_phase_seeds_builds_only_the_kept_rows(tmp_path):
    cusp = load_family("cusp")
    # 17^3 = 4913 rows are strided by 2 down to the cap
    assert np.array_equal(np.array(phase_seeds(cusp, 17)), _box_grid(_domain(cusp), 17)[::2])
    assert np.array_equal(np.array(phase_seeds(cusp, 16)), _box_grid(_domain(cusp), 16))
    # the full 200^4 mesh would have 1.6e9 rows
    wide = load_family(_four_variable_family(tmp_path))
    seeds = np.array(phase_seeds(wide, 200))
    assert seeds.shape == (4096, 4)
    assert np.array_equal(seeds[0], [lo + 0.05 * (hi - lo) for lo, hi in _domain(wide)])


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
    emitters.emit_csv([], 3, 2, path)
    assert path.read_text() == "t,x1,x2,x3,q1,q2,label\n"


def test_emit_csv_rejects_non_finite(tmp_path):
    with pytest.raises(IoError):
        emitters.emit_csv([(np.nan, [0.0, 0.0], [0.0], "x")], 2, 1, tmp_path / "bad.csv")


def test_emit_svg_two_point_curve(tmp_path):
    path = tmp_path / "two.svg"
    emitters.emit_svg([(np.array([[0.0, 0.0], [1.0, 2.0]]), "front")], path)
    body = path.read_text()
    assert body.count("<polyline") == 1
    # y axis flipped
    assert 'points="0,0 1,-2"' in body


def test_emit_svg_rejects_unknown_class(tmp_path):
    with pytest.raises(IoError):
        emitters.emit_svg([(np.zeros((2, 2)), "bogus")], tmp_path / "bad.svg")
