"""End-to-end command-line interface tests."""

import json
import math

import numpy as np
import pytest

from pluripot.cli import main


def _rows(capsys):
    out = capsys.readouterr().out
    return json.loads(out)["rows"], out


def _csv_rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]], header


def test_eval_poisson_ball(capsys):
    rc = main(["eval", "poisson", "--domain", "ball2", "--xi", "e1", "--z", "0,0"])
    rows, _ = _rows(capsys)
    assert rc == 0
    assert len(rows) == 1
    assert abs(rows[0]["value"] + 1.0) < 1e-12
    assert rows[0]["method"] == "closed_form"
    assert rows[0]["uncertainty"] == 0.0


def test_eval_distance_disc(capsys):
    rc = main(["eval", "distance", "--domain", "disc", "--z", "0", "--w", "0.5"])
    rows, _ = _rows(capsys)
    assert rc == 0
    assert abs(rows[0]["value"] - math.log(3.0)) < 1e-12
    assert rows[0]["method"] == "closed_form"


def test_eval_green_ball(capsys):
    rc = main(["eval", "green", "--domain", "ball2", "--w", "0,0", "--z", "0.5,0"])
    rows, _ = _rows(capsys)
    assert rc == 0
    assert abs(rows[0]["value"] - math.log(0.5)) < 1e-12


def test_eval_distinct_points_near_the_ball_origin(capsys):
    # Both points within 1e-14 of the origin: the disc's distance 8.6e-15,
    # and a finite Green value.
    argv = ["--domain", "ball2", "--w", "4.3e-15,0", "--z", "0,0"]
    assert main(["eval", "distance", *argv]) == 0
    rows, _ = _rows(capsys)
    assert abs(rows[0]["value"] - 8.6e-15) <= 1e-12 * 8.6e-15
    assert main(["eval", "green", *argv]) == 0
    rows, _ = _rows(capsys)
    assert rows[0]["method"] == "closed_form" and -40.0 < rows[0]["value"] < -30.0


def test_eval_missing_point_is_config_error(capsys):
    rc = main(["eval", "poisson", "--domain", "ball2", "--xi", "e1"])
    capsys.readouterr()
    assert rc == 2


def test_verify_unknown_suite(capsys):
    rc = main(["verify", "no_such_suite"])
    capsys.readouterr()
    assert rc == 2


@pytest.mark.parametrize("argv, name", [(["verify"], "None"),
                                        (["verify", "no_such_suite"], "'no_such_suite'")])
def test_verify_unknown_suite_message(capsys, argv, name):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (f"configuration error: unknown suite {name}; expected one of "
                            "['annulus', 'asymptoticity', 'dilation', 'main2_estimate', "
                            "'monge_ampere', 'phragmen_lindelof', 'poisson_horofunction', "
                            "'reproducing']\n")


def test_verify_annulus_passes(capsys):
    rc = main(["verify", "annulus"])
    captured = capsys.readouterr()
    assert rc == 0
    bundle = json.loads(captured.out)
    assert bundle["schema"] == 1
    assert bundle["suite"] == "annulus"
    assert all(r["verdict"] == "pass" for r in bundle["reports"])
    # one stderr status line per report
    assert len(captured.err.strip().splitlines()) == len(bundle["reports"])


def test_verify_phragmen_lindelof_passes(capsys):
    rc = main(["verify", "phragmen_lindelof"])
    captured = capsys.readouterr()
    assert rc == 0
    bundle = json.loads(captured.out)
    assert all(r["verdict"] == "pass" for r in bundle["reports"])
    # both expected-flag patterns appear among the variants
    flags = {(r["details"]["member"], r["details"]["dominated"]) for r in bundle["reports"]}
    assert (True, True) in flags and (False, False) in flags


def test_verify_main2_estimate_disc_passes(capsys):
    # The disc has no tangent direction, so only the normal approach runs.
    rc = main(["verify", "main2_estimate", "--domain", "disc"])
    bundle = json.loads(capsys.readouterr().out)
    assert rc == 0
    [report] = bundle["reports"]
    assert report["verdict"] == "pass"
    assert list(report["details"]["residuals"]) == ["normal"]


def test_verify_monge_ampere_disc_is_config_error(capsys):
    rc = main(["verify", "monge_ampere", "--domain", "disc"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "n >= 2" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["verify", "annulus", "--r", "0"], "annulus radius must satisfy 0 < r < 1"),
    (["verify", "reproducing", "--resolution", "0"], "resolution must be at least 4"),
])
def test_verify_zero_setting_is_not_the_default(capsys, argv, message):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"configuration error: {message}\n"


def test_verify_impossible_tolerance_fails(capsys):
    rc = main(["verify", "asymptoticity", "--tol", "1e-30"])
    captured = capsys.readouterr()
    assert rc == 3
    bundle = json.loads(captured.out)
    assert any(r["verdict"] == "fail" for r in bundle["reports"])


def test_sweep_poisson_radial_egg(capsys):
    rc = main(["sweep", "poisson", "--domain", "egg4", "--xi", "e1",
               "--z", "t,0", "--grid-t", "0:0.99:100"])
    captured = capsys.readouterr()
    assert rc == 0
    rows, header = _csv_rows(captured.out)
    assert header == ["t", "value", "method", "uncertainty", "status"]
    assert len(rows) == 100
    assert all(r["status"] == "ok" for r in rows)
    vals = [float(r["value"]) for r in rows]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert abs(vals[0] + 1.0) < 1e-12


def test_sweep_horofunction_matches_kernel(capsys):
    args = ["--domain", "ball2", "--xi", "e1", "--z", "t,0", "--grid-t", "0.1:0.9:9"]
    rc = main(["sweep", "horofunction", "--p", "0,0"] + args)
    hrows, _ = _csv_rows(capsys.readouterr().out)
    assert rc == 0
    rc = main(["sweep", "poisson"] + args)
    prows, _ = _csv_rows(capsys.readouterr().out)
    assert rc == 0
    # from the center of the ball, h = -log(-Omega)
    for hr, pr in zip(hrows, prows):
        assert abs(float(hr["value"]) + math.log(-float(pr["value"]))) < 1e-10


def test_sweep_density_weak_circle(capsys):
    rc = main(["sweep", "density", "--domain", "egg4",
               "--xi", "cos(t)+j*sin(t),0", "--grid-t", "0:6.28:12"])
    rows, _ = _csv_rows(capsys.readouterr().out)
    assert rc == 0
    # Levi determinant vanishes along the whole weakly pseudoconvex circle
    for r in rows:
        assert r["status"] == "ok"
        assert abs(float(r["value"])) < 1e-6


def test_sweep_marks_exterior_rows(capsys):
    rc = main(["sweep", "poisson", "--domain", "disc", "--xi", "e1",
               "--z", "t", "--grid-t", "0.5:1.5:3"])
    rows, _ = _csv_rows(capsys.readouterr().out)
    assert rc == 0
    assert [r["status"] for r in rows] == ["ok", "outside", "outside"]


def test_sweep_two_parameter_grid(capsys):
    rc = main(["sweep", "poisson", "--domain", "ball2", "--xi", "e1",
               "--z", "t*cos(s)+j*t*sin(s),0", "--grid-t", "0.1:0.5:3",
               "--grid-s", "0:1:4"])
    rows, header = _csv_rows(capsys.readouterr().out)
    assert rc == 0
    assert header[:2] == ["t", "s"]
    assert len(rows) == 12


@pytest.mark.parametrize("template", [
    "().__class__.__base__.__subclasses__().__len__()*0,0",
    "t.real,0",
    "t,s",  # no --grid-s, so s is not a grid parameter
    "t,0 if t else 1",
    "t,",
    "cos,0",  # a function only as the callee of a one-argument call
    "abs(cos),0",
    "cos(t,t),0",
    "cos(),0",
    "cos(*t),0",
])
def test_sweep_template_outside_whitelist_is_config_error(template, capsys):
    rc = main(["sweep", "poisson", "--domain", "ball2", "--xi", "e1",
               "--z", template, "--grid-t", "0:0.5:3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")


@pytest.mark.parametrize("quantity, domain, fixed, template, point", [
    ("poisson", "egg4", ["--xi", "e1"], "t,0.6*s*(cos(t)+j*sin(t))",
     lambda t, s: (complex(t), 0.6 * s * (math.cos(t) + 1j * math.sin(t)))),
    ("green", "ball2", ["--w=0.1,-0.15j"], "0.9*t,0.4*s",
     lambda t, s: (complex(0.9 * t), complex(0.4 * s))),
    ("green", "ball2", ["--w=0.1,-0.15j"], "+0.9*t,-(0.4*s)",
     lambda t, s: (complex(+0.9 * t), complex(-(0.4 * s)))),
    # The pole w = z at t = 0.
    ("green", "ball2", ["--w", "0,0"], "0.5*t,0", lambda t, s: (complex(0.5 * t), 0j)),
    # Rows outside the domain.
    ("poisson", "ball2", ["--xi", "e1"], "1.2*t,0.5*s", lambda t, s: (complex(1.2 * t), complex(0.5 * s))),
    ("poisson", "half_plane", ["--xi", "0"], "t+j*s", lambda t, s: (t + 1j * s,)),
    ("distance", "disc", ["--w=0.2j"], "0.9*t+0.3*j*s", lambda t, s: (0.9 * t + 0.3 * 1j * s,)),
    ("distance", "ball3", ["--w=0.1,0.2,-0.3j"], "0.9*t,0.4*s,0.1*j",
     lambda t, s: (complex(0.9 * t), complex(0.4 * s), 0.1 * 1j)),
    ("horofunction", "ball2", ["--xi", "e1", "--p=0.1,0.2j"], "0.9*t,0.4*s",
     lambda t, s: (complex(0.9 * t), complex(0.4 * s))),
    # A template that fails arithmetically (log of t <= 0) on some rows.
    ("poisson", "egg4", ["--xi", "e1"], "log(t),0.5*s", lambda t, s: (complex(math.log(t)), complex(0.5 * s))),
])
def test_sweep_template_rows_match_eval_bytes(quantity, domain, fixed, template, point, capsys):
    # Each sweep row equals, byte for byte, eval at the point that
    # Python's own arithmetic makes of the template.
    rc = main(["sweep", quantity, "--domain", domain, *fixed, "--z", template,
               "--grid-t=-0.95:0.95:3", "--grid-s=-1:1:3"])
    rows, _ = _csv_rows(capsys.readouterr().out)
    assert rc == 0
    assert len(rows) == 9 and any(r["status"] == "ok" for r in rows)
    for row in rows:
        try:
            z = point(float(row["t"]), float(row["s"]))
        except ValueError:
            # The template fails here: the row has no point and is outside.
            assert row["status"] == "outside"
            continue
        rc = main(["eval", quantity, "--domain", domain, *fixed, "--z=" + ",".join(repr(c) for c in z),
                   "--format", "csv"])
        out = capsys.readouterr().out
        if row["status"] == "outside":
            assert rc == 2
        else:
            assert rc == 0
            [erow], _ = _csv_rows(out)
            assert (erow["value"], erow["uncertainty"]) == (row["value"], row["uncertainty"])


def test_sweep_deterministic_output(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["sweep", "poisson", "--domain", "egg4", "--xi", "e1",
            "--z", "t,0.2", "--grid-t", "0:0.9:50"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_config_file_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": "ball2", "xi": "e1", "z": "0,0"}))
    rc = main(["eval", "poisson", "--config", str(cfg)])
    rows, _ = _rows(capsys)
    assert rc == 0
    assert abs(rows[0]["value"] + 1.0) < 1e-12


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": "ball2", "frobnicate": 1}))
    rc = main(["eval", "poisson", "--config", str(cfg)])
    capsys.readouterr()
    assert rc == 2


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": "ball2", "xi": "e1", "z": "0,0"}))
    rc = main(["eval", "poisson", "--config", str(cfg), "--z", "0.5,0"])
    rows, _ = _rows(capsys)
    assert rc == 0
    assert abs(rows[0]["value"] + 3.0) < 1e-12


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "row.json"
    rc = main(["eval", "poisson", "--domain", "ball2", "--xi", "e1",
               "--z", "0,0", "--out", str(target)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == ""
    payload = json.loads(target.read_text())
    assert payload["schema"] == 1
    assert abs(payload["rows"][0]["value"] + 1.0) < 1e-12


def test_annulus_eval_uses_r(capsys):
    rc = main(["eval", "distance", "--domain", "annulus", "--r", "0.5",
               "--z", "0.7", "--w", "0.71"])
    rows, _ = _rows(capsys)
    assert rc == 0
    assert abs(rows[0]["value"] - 0.06430693332643882) < 1e-9


def test_leading_minus_values_match_equals_form(capsys):
    eval_args = ["eval", "green", "--domain", "ball2", "--z", "0.1,0"]
    assert main(eval_args + ["--w", "-0.2,0.4"]) == 0
    spaced = capsys.readouterr().out
    assert main(eval_args + ["--w=-0.2,0.4"]) == 0
    assert capsys.readouterr().out == spaced

    sweep_args = ["sweep", "green", "--domain", "ball2", "--w", "0.2,0.1j", "--z", "0.9*t,0.4*s"]
    assert main(sweep_args + ["--grid-t", "-0.9:0.9:5", "--grid-s", "-1:1:3"]) == 0
    spaced = capsys.readouterr().out
    assert main(sweep_args + ["--grid-t=-0.9:0.9:5", "--grid-s=-1:1:3"]) == 0
    assert capsys.readouterr().out == spaced
    assert len(spaced.strip().splitlines()) == 1 + 5 * 3


def test_version_matches_pyproject():
    import pathlib
    import re

    import pluripot

    text = (pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert pluripot.__version__ == match.group(1)


def test_verify_suite_flag_is_usage_error(capsys):
    # The suite is named only by the positional argument.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "annulus"])
    capsys.readouterr()
    assert exc.value.code == 2


@pytest.mark.parametrize("suite, domain", [
    ("poisson_horofunction", "half_plane"),
    ("main2_estimate", "half_plane"),
    ("phragmen_lindelof", "half_plane"),
    ("asymptoticity", "half_plane"),
    ("asymptoticity", "disc"),
    ("reproducing", "disc"),
])
def test_verify_unsupported_domain_names_suite_and_domain(suite, domain, capsys):
    from pluripot import UnsupportedDomainError, run_suite

    with pytest.raises(UnsupportedDomainError, match=f"^{suite} needs .*; got {domain}$"):
        run_suite(suite, {"domain": domain})
    rc = main(["verify", suite, "--domain", domain])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"configuration error: {suite} needs ")
    assert captured.err.endswith(f"; got {domain}\n")


def test_sweep_huge_integer_power_finishes():
    # Integer constants are floats, so 9**9**9 overflows at once and marks
    # the row outside; as integer arithmetic it would run for hours.  The
    # timeout makes a regression fail instead of hanging the test run.
    import os
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "pluripot", "sweep", "poisson", "--domain", "ball2",
                           "--xi", "e1", "--z", "9**9**9*0,0", "--grid-t", "0:0.5:2"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    rows, _ = _csv_rows(proc.stdout)
    assert [r["status"] for r in rows] == ["outside", "outside"]


@pytest.mark.parametrize("suite, flags, rc_expected, message", [
    ("monge_ampere", ["--domain", "ellipsoid", "--m", "4"], 0, None),
    ("monge_ampere", ["--domain", "ellipsoid", "--m", "4,4"], 2,
     "monge_ampere needs an ellipsoid in C^2; got ellipsoid[4,4]"),
    ("main2_estimate", ["--domain", "ellipsoid", "--m", "4,4"], 2,
     "main2_estimate needs an ellipsoid in C^2; got ellipsoid[4,4]"),
    ("poisson_horofunction", ["--domain", "annulus", "--r", "0.5"], 2,
     "poisson_horofunction needs a disc, ball or ellipsoid; got annulus[r=0.5]"),
])
def test_verify_domain_takes_m_and_r(suite, flags, rc_expected, message, capsys):
    # The suite sees the domain that --m and --r complete, as eval does.
    rc = main(["verify", suite, *flags])
    captured = capsys.readouterr()
    assert rc == rc_expected
    if message is None:
        checks = [r["check"] for r in json.loads(captured.out)["reports"]]
        assert checks == ["psh[egg4]", "monge_ampere[egg4]", "harmonic_on_geodesics[egg4]"]
    else:
        assert captured.out == ""
        assert captured.err == f"configuration error: {message}\n"


def test_sweep_builds_a_fixed_xi_once(monkeypatch, capsys):
    from pluripot import domain_core

    # A boundary_point packaging takes one unit_normal; the tangent frame
    # is built only where it is read.
    packed = []
    unit_normal = domain_core.unit_normal

    def counting_normal(domain, position):
        packed.append(position)
        return unit_normal(domain, position)

    monkeypatch.setattr(domain_core, "unit_normal", counting_normal)
    grid = ["--z", "t,0.3*s", "--grid-t=-0.95:0.95:4", "--grid-s=-1:1:3"]
    assert main(["sweep", "poisson", "--domain", "egg4", "--xi", "e1", *grid]) == 0
    fixed = capsys.readouterr().out
    assert len(packed) == 1
    # A xi template in t is parsed and packaged per row, to the same bytes.
    assert main(["sweep", "poisson", "--domain", "egg4", "--xi", "1+0*t,0", *grid]) == 0
    assert capsys.readouterr().out == fixed
    assert len(packed) == 1 + 12
    # A fixed xi off the boundary leaves every row outside, as before.
    assert main(["sweep", "poisson", "--domain", "egg4", "--xi", "0.5,0", *grid]) == 0
    rows, _ = _csv_rows(capsys.readouterr().out)
    assert [r["status"] for r in rows] == ["outside"] * 12
    assert len(packed) == 1 + 12


def test_cli_snapshot_fingerprints_a_command(tmp_path, capsys):
    import hashlib
    import importlib.util
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("cli_snapshot", root / "tools" / "cli_snapshot.py")
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    verify = [c for c in snapshot.COMMANDS if c[0] == "verify"]
    assert len(verify) == 20 and {c[1] for c in verify} == set(snapshot.SUITES)

    argv = ["eval", "poisson", "--domain", "disc", "--xi", "e1", "--z", "0.5"]
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    written = hashlib.sha256(out.read_bytes()).hexdigest()
    empty = hashlib.sha256(b"").hexdigest()
    assert snapshot.fingerprint(argv, root / "src") == f"0 {written} {empty} {empty}  " + " ".join(argv)


def test_eval_refuses_a_nan_boundary_point(capsys):
    rc = main(["eval", "poisson", "--domain", "ball2", "--xi", "nan,0", "--z", "0.1,0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "finite" in err


def test_sweep_writes_no_ok_row_for_a_nan_boundary_point(capsys):
    rc = main(["sweep", "poisson", "--domain", "egg4", "--xi", "0*1e400,0", "--z", "t,0",
               "--grid-t", "0:0.5:2"])
    rows, _ = _csv_rows(capsys.readouterr().out)
    assert rc == 0
    assert len(rows) == 2
    assert all(r["status"] != "ok" for r in rows)


@pytest.mark.parametrize("m, rc_expected", [([4, 4], 0), ("4,4", 0), ([4.5, 4], 2), (["4", "4"], 2),
                                            ("4,x", 2), ({"m": 4}, 2)])
def test_config_file_ellipsoid_exponents(m, rc_expected, tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"domain": "ellipsoid", "m": m, "xi": "e1", "z": "0.1,0.1,0.1"}))
    rc = main(["eval", "poisson", "--config", str(cfg)])
    out = capsys.readouterr()
    assert rc == rc_expected
    if rc == 0:
        assert json.loads(out.out)["rows"][0]["method"] == "closed_form"
    else:
        assert "m must be" in out.err


def test_sweep_evaluates_each_benchmark_grid_as_one_stack(monkeypatch, capsys):
    # The two 60 x 60 grids of the benchmark sweep: each makes one call
    # of the closed-form kernel or of the ball distance, on all of its
    # interior rows, and none of the one-point functions.
    from pluripot import geodesics_metrics, kernels

    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    closed_form = kernels._closed_form
    monkeypatch.setattr(kernels, "_closed_form",
                        lambda dom, xi: counted("closed_form", closed_form(dom, xi)))
    monkeypatch.setattr(geodesics_metrics, "_ball_distance",
                        counted("ball_distance", geodesics_metrics._ball_distance))
    for module, name in ((kernels, "poisson_kernel"), (kernels, "green_function"),
                         (geodesics_metrics, "kobayashi_distance")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    grid = ["--grid-t=-0.95:0.95:60", "--grid-s=-1:1:60"]
    assert main(["sweep", "poisson", "--domain", "egg4", "--xi", "e1",
                 "--z", "t,0.6*s*(cos(t)+j*sin(t))", *grid]) == 0
    poisson, _ = _csv_rows(capsys.readouterr().out)
    assert calls == ["closed_form"]
    assert main(["sweep", "green", "--domain", "ball2", "--w=0.27,-0.19j", "--z", "0.9*t,0.4*s",
                 *grid]) == 0
    green, _ = _csv_rows(capsys.readouterr().out)
    assert calls == ["closed_form", "ball_distance"]
    assert len(poisson) == len(green) == 3600
    assert {r["status"] for r in poisson} == {"ok", "outside"}
    assert {r["status"] for r in green} == {"ok"}


def test_verify_annulus_refuses_radius_beyond_its_circle(capsys):
    # The suite samples the circle |z| = 0.7, so it supports 0 < r < 0.7.
    rc = main(["verify", "annulus", "--r", "0.75"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "configuration error: the annulus suite needs --r in 0 < r < 0.7, got 0.75\n"
