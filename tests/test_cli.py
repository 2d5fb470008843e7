"""End-to-end command-line interface tests."""

import importlib.util
import json
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import per_cell_csv, per_row_json
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


def test_verify_monge_ampere_egg6_passes_on_exact_hessians(capsys):
    # The stencil read 1.6e-5 against tol 1e-5 here (exit 3); the exact
    # Hessians read rounding.
    rc = main(["verify", "monge_ampere", "--domain", "egg6"])
    bundle = json.loads(capsys.readouterr().out)
    assert rc == 0
    [psh, ma, harmonic] = bundle["reports"]
    assert ma["check"] == "monge_ampere[egg6]" and ma["max_residual"] <= 1e-10
    assert all(r["details"]["rounding_bound"] > 0.0 for r in (psh, ma, harmonic))


def test_eval_density_reports_its_rounding_bound(capsys):
    rc = main(["eval", "density", "--domain", "egg4", "--xi", "0.6,0.8944271909999159"])
    [row] = json.loads(capsys.readouterr().out)["rows"]
    assert rc == 0 and row["method"] == "levi_form"
    assert 0.0 < row["uncertainty"] < 1e-14 * row["value"]


def test_eval_poisson_at_an_off_axis_egg_point(capsys):
    # A z on the z0 axis takes the Green derivative, exactly; an off-axis
    # z has no certified kernel.
    from pluripot import make_domain, poisson_kernel

    xi = [0.6, 0.8944271909999159]
    argv = ["eval", "poisson", "--domain", "egg4", "--xi", "0.6,0.8944271909999159", "--z"]
    assert main(argv + ["0.3,0"]) == 0
    [row] = json.loads(capsys.readouterr().out)["rows"]
    assert (row["method"], row["uncertainty"]) == ("green_derivative", 0.0)
    assert row["value"] == poisson_kernel(make_domain("egg4"), xi, [0.3, 0.0]).value
    assert main(argv + ["0.1,0.1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "numerical failure: no certified kernel at this pair\n"


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


def test_density_rows_read_one_levi_form_each(monkeypatch, capsys):
    # The value and its uncertainty come from the same Levi form.
    from pluripot import domain_core

    calls = []
    levi = domain_core._levi

    def counted(dom, xi):
        calls.append(1)
        return levi(dom, xi)

    monkeypatch.setattr(domain_core, "_levi", counted)
    assert main(["eval", "density", "--domain", "egg4", "--xi", "0.6,0.8944271909999159"]) == 0
    assert len(calls) == 1
    assert main(["sweep", "density", "--domain", "egg4",
                 "--xi", "cos(t)+j*sin(t),0", "--grid-t", "0:6.28:12"]) == 0
    assert len(calls) == 1 + 12
    capsys.readouterr()


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


@pytest.mark.parametrize("argv, rc_expected, stderr", [
    ("eval distance --domain ball2 --w 0.1,0 --z 1e200,0", 2,
     "configuration error: z must lie inside the domain\n"),
    ("eval distance --domain egg4 --w 0.1,0 --z 0.1,1e200", 2,
     "configuration error: z must lie inside the domain\n"),
    ("sweep distance --domain ball2 --w 0.1,0 --z 1e200*t,0 --grid-t=0:1:3", 0, ""),
])
def test_huge_coordinates_are_refused_without_a_warning(argv, rc_expected, stderr):
    # rho overflows to inf at these points, which is outside; numpy's
    # overflow warning must not reach stderr, even with warnings shown.
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "default", "-m", "pluripot", *argv.split()],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == rc_expected
    assert proc.stderr == stderr
    if rc_expected == 0:
        rows, _ = _csv_rows(proc.stdout)
        assert [r["status"] for r in rows] == ["ok", "outside", "outside"]


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


_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _cli_snapshot():
    """tools/cli_snapshot.py as a module."""
    spec = importlib.util.spec_from_file_location("cli_snapshot", _ROOT / "tools" / "cli_snapshot.py")
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    return snapshot


def test_readme_counts_the_snapshot_commands():
    # README's "prints ... of N fixed CLI commands" sentence.
    text = (_ROOT / "README.md").read_text()
    [count] = re.findall(r"stdout and stderr of (\d+) fixed CLI commands", text)
    assert int(count) == len(_cli_snapshot().COMMANDS)


def test_cli_snapshot_fingerprints_a_command(tmp_path, capsys):
    import hashlib

    snapshot = _cli_snapshot()
    verify = [c for c in snapshot.COMMANDS if c[0] == "verify"]
    assert len(verify) == 28 and {c[1] for c in verify} == set(snapshot.SUITES)

    argv = ["eval", "poisson", "--domain", "disc", "--xi", "e1", "--z", "0.5"]
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    written = hashlib.sha256(out.read_bytes()).hexdigest()
    empty = hashlib.sha256(b"").hexdigest()
    assert snapshot.fingerprint(argv, _ROOT / "src") == f"0 {written} {empty} {empty}  " + " ".join(argv)


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


@pytest.mark.parametrize("quantity", ["distance", "green"])
def test_sandwiched_sweep_rows_try_the_exact_route_once(monkeypatch, capsys, quantity):
    # 5 exact rows, 10 sandwiched and 6 outside: one exact egg call takes
    # the 15 interior rows, and each of the 10 goes to the sandwich alone,
    # not to the one-point function, which would try the exact route again.
    from pluripot import geodesics_metrics, kernels

    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append((name, len(args[1]) if name == "exact" else 1))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(geodesics_metrics, "_egg_distance_exact",
                        counted("exact", geodesics_metrics._egg_distance_exact))
    monkeypatch.setattr(geodesics_metrics, "_sandwich", counted("sandwich", geodesics_metrics._sandwich))
    for module, name in ((kernels, "green_function"), (geodesics_metrics, "kobayashi_distance")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert main(["sweep", quantity, "--domain", "egg4", "--w", "0.3,0.4*s", "--z", "1.1*t,0.2",
                 "--grid-t=-1:1:7", "--grid-s=-1:1:3"]) == 0
    rows, _ = _csv_rows(capsys.readouterr().out)
    assert calls == [("exact", 15)] + [("sandwich", 1)] * 10
    assert sorted(r["status"] for r in rows).count("outside") == 6


def test_green_refuses_the_annulus_before_its_points(capsys):
    rc = main(["eval", "green", "--domain", "annulus", "--r", "0.5", "--w", "2", "--z", "0.6"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "configuration error: the Green-from-distance formula needs a convex domain\n"


def test_verify_annulus_refuses_radius_beyond_its_circle(capsys):
    # The suite samples the circle |z| = 0.7, so it supports 0 < r < 0.7.
    rc = main(["verify", "annulus", "--r", "0.75"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "configuration error: the annulus suite needs --r in 0 < r < 0.7, got 0.75\n"


@pytest.mark.parametrize("key, point", [("z", "t"), ("z", "t,0,0"), ("xi", "1,0,0"), ("xi", "e3")])
def test_sweep_point_of_another_dimension_is_config_error(key, point, capsys):
    # Checked once per template, with the message eval gives the same point.
    points = {"xi": "e1", "z": "0.1,0"}
    sweep = dict(points, **{key: point})
    rc = main(["sweep", "poisson", "--domain", "ball2", "--xi", sweep["xi"], "--z", sweep["z"],
               "--grid-t", "0:0.5:3"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    evaluated = dict(points, **{key: point.replace("t", "0.5")})
    assert main(["eval", "poisson", "--domain", "ball2", "--xi", evaluated["xi"],
                 "--z", evaluated["z"]]) == 2
    assert captured.err == capsys.readouterr().err


def test_sweep_missing_point_is_config_error(capsys):
    rc = main(["sweep", "poisson", "--domain", "ball2", "--z", "t,0", "--grid-t", "0:0.5:3"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "configuration error: quantity 'poisson' requires --xi\n"


@pytest.mark.parametrize("command", [["eval", "poisson", "--z", "0.1,0"],
                                     ["sweep", "poisson", "--z", "t,0", "--grid-t", "0:0.5:3"]])
def test_config_file_format_is_validated(command, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": "ball2", "xi": "e1", "format": "xml"}))
    rc = main([*command, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "configuration error: format must be one of ('csv', 'json'), got 'xml'\n"


@pytest.mark.parametrize("grids, message", [
    ({"grid_t": 5}, "grid_t must be a string, got 5"),
    ({"grid_t": "0:0.5:3", "grid_s": 5}, "grid_s must be a string, got 5"),
    ({"grid_t": "0:0.5:3", "grid_s": ["0", "1", "3"]}, "grid_s must be a string, got ['0', '1', '3']"),
    ({"grid_t": "0:0.5"}, "grid spec must be start:stop:count, got '0:0.5'"),
    ({"grid_t": "nan:0.5:3"}, "grid ends must be finite, got 'nan:0.5:3'"),
    ({"grid_t": "0:inf:3"}, "grid ends must be finite, got '0:inf:3'"),
    ({"grid_t": "0:0.5:3", "grid_s": "-inf:0:3"}, "grid ends must be finite, got '-inf:0:3'"),
    ({"grid_t": "-1e308:1e308:3"}, "grid span must be finite, got '-1e308:1e308:3'"),
])
def test_sweep_grid_must_be_a_finite_spec(grids, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict({"domain": "ball2", "xi": "e1", "z": "t,0"}, **grids)))
    rc = main(["sweep", "poisson", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"configuration error: {message}\n"


@pytest.mark.parametrize("grids, rows", [
    (["--grid-t", "0:0.5:7"], 7),
    (["--grid-t", "0:0.5:3", "--grid-s", "0:1:3"], 9),
    (["--grid-t", "0:0.5:1", "--grid-s", "0:1:10000000000000000000000"], 10 ** 22),
    (["--grid-t", "0:0.5:6"], None),
    (["--grid-t", "0:0.5:3", "--grid-s", "0:1:2"], None),
])
def test_sweep_refuses_a_grid_over_the_row_limit(grids, rows, monkeypatch, capsys):
    # A small limit stands in for the real one, so no large grid is built;
    # an oversized grid is refused before any row is evaluated.
    from pluripot import cli

    assert f"more than {cli._MAX_GRID_ROWS:,} rows" in (_ROOT / "README.md").read_text()
    monkeypatch.setattr(cli, "_MAX_GRID_ROWS", 6)
    if rows is not None:
        monkeypatch.setattr(cli, "_points", None)
    rc = main(["sweep", "poisson", "--domain", "ball2", "--xi", "e1", "--z", "0.1,0", *grids])
    captured = capsys.readouterr()
    if rows is None:
        assert rc == 0 and captured.err == ""
    else:
        assert rc == 2 and captured.out == ""
        assert captured.err == f"configuration error: a sweep grid may have at most 6 rows, got {rows}\n"


def _returns_or_domain_error(parse, *args):
    """parse(*args), or None when it raises DomainError; anything else propagates."""
    from pluripot import DomainError

    try:
        return parse(*args)
    except DomainError:
        return None


_GRID_TEXT = st.one_of(
    st.text(),
    st.builds(":".join, st.lists(st.one_of(st.text(max_size=6), st.floats().map(repr),
                                           st.integers(-10, 10 ** 9).map(str)), max_size=4)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=_GRID_TEXT, rows=st.integers(1, 10 ** 6))
@example(text="-1e308:1e308:3", rows=1)
def test_parse_grid_returns_a_bounded_grid_or_refuses(text, rows):
    from unittest import mock

    from pluripot import cli

    with mock.patch.object(cli, "_MAX_GRID_ROWS", 1000):
        grid = _returns_or_domain_error(cli._parse_grid, text, rows)
    if grid is not None:
        assert grid.ndim == 1 and 1 <= len(grid) and rows * len(grid) <= 1000
        assert np.isfinite(grid).all()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=st.one_of(st.text(), st.text(alphabet="e0123456789²١,.+-jJ infa").map(str.strip)),
       n=st.integers(1, 3))
@example(text="e²", n=2)
@example(text="e" + "1" * 5000, n=2)
def test_parse_point_returns_a_complex_vector_or_refuses(text, n):
    from pluripot.cli import _parse_point

    point = _returns_or_domain_error(_parse_point, text, n)
    assert point is None or (point.ndim == 1 and point.dtype == complex)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=st.one_of(st.text(), st.text(alphabet="ts()*+-/., 0123456789ejpi_[]:cosabqrtlg")),
       params=st.sampled_from([(), ("t",), ("t", "s")]))
@example(text="-" * 100_000 + "t", params=("t",))
@example(text="x[" + "t+" * 990 + "t]", params=("t",))
def test_template_compiles_or_refuses(text, params):
    from pluripot.cli import _template

    compiled = _returns_or_domain_error(_template.__wrapped__, text, params)
    if compiled is not None:
        assert len(compiled) == len(text.split(","))
        assert all(callable(function) and set(reads) <= set(params) for function, reads in compiled)


def test_template_compiles_or_refuses_at_the_recursion_limit():
    # Near the recursion limit the grammar check can pass and compiling
    # still fail; either way the answer is a template or its refusal.
    # Evaluating a template walks its tree too: its rows come back or the
    # template is refused, never a RecursionError.
    import sys

    from pluripot.cli import _template, _template_rows

    limit = sys.getrecursionlimit()
    try:
        for depth in range(limit - 150, limit + 10):
            for text in ("t+" * depth + "t", "-" * depth + "t"):
                _returns_or_domain_error(_template.__wrapped__, text, ("t",))
                rows = _returns_or_domain_error(_template_rows, text, 1, {"t": [0.5, -1.0]})
                assert rows is None or rows.stack.shape == (2, 1)
    finally:
        _template.cache_clear()


def test_nested_template_memory_does_not_grow_with_its_depth():
    # Of two operands the one that holds more computed columns is
    # evaluated first, so a template nested 30 deep holds a few columns
    # at a time, not one per level.
    import tracemalloc

    from pluripot.cli import _template, _template_rows

    axes = {"t": np.linspace(0, 1, 100).tolist(), "s": np.linspace(0, 1, 100).tolist()}
    nested = "t*s"
    for _ in range(30):
        nested = f"t*s+({nested})"
    peaks = []
    for text in ("t*s+(t*s)", nested):
        _template(text, tuple(axes))
        tracemalloc.start()
        try:
            _template_rows(text, 1, axes)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    _template.cache_clear()
    assert peaks[1] < 2 * peaks[0]


def _per_row_template(text, axes):
    """The reference of cli._template_rows: the whole template as one Python
    function of the grid parameters, called once per row of the grid; a
    row that raises is NaN in every component, with the message of the
    component that raised first."""
    import itertools

    from pluripot.cli import _TEMPLATE_ENV

    point = eval(f"lambda {','.join(axes)}: ({text},)", {"__builtins__": {}, **_TEMPLATE_ENV})
    rows, errors = [], {}
    for row, args in enumerate(itertools.product(*axes.values())):
        try:
            rows.append(point(*args))
        except (ArithmeticError, ValueError, TypeError) as exc:
            rows.append((math.nan,) * len(text.split(",")))
            errors[row] = f"cannot evaluate {text!r}: {exc}"
    return np.array(rows, dtype=complex), errors


def _assert_template_columns_are_per_row(text, axes):
    from pluripot.cli import _template_rows

    got = _template_rows(text, len(text.split(",")), axes)
    stack, errors = _per_row_template(text, axes)
    assert got.stack.shape == stack.shape
    assert got.stack.tobytes() == stack.tobytes()
    assert {row: str(exc) for row, exc in got.errors.items()} == errors
    return errors


_GRID_2D = {"t": np.linspace(-0.9, 0.9, 4).tolist(), "s": np.linspace(-1, 1, 3).tolist()}
_GRID_1D = {"t": np.linspace(-0.9, 0.9, 5).tolist()}


@pytest.mark.parametrize("text, axes", [
    # Components that read t only, s only, both and none, on a 2-D grid.
    ("0.9*t,0.4*s", _GRID_2D),
    ("t,0.6*s*(cos(t)+j*sin(t))", _GRID_2D),
    ("0.5,0.3*j*s+t", _GRID_2D),
    ("0.25-0.5*j,pi", _GRID_2D),
    # Failing components: s only, t and s on different rows in either
    # order, and a constant that fails on every row.
    ("0.5*t,log(s)", _GRID_2D),
    ("log(t),1.0/s", _GRID_2D),
    ("1.0/s,log(t)", _GRID_2D),
    ("log(t),log(s)", _GRID_2D),
    ("log(-1.0),0.0", _GRID_2D),
    # A 1-D grid: t only, a constant, and failing rows.
    ("0.5*t,0.3*j", _GRID_1D),
    ("sqrt(t)", _GRID_1D),
    ("0.2,log(t)", _GRID_1D),
    ("log(-1.0),0.0", _GRID_1D),
    # Subexpressions that fail on different rows: the left operand's
    # error comes first, as in Python's evaluation; a constant
    # subexpression that fails on every row.
    ("log(t)*(1.0/s),0.5", _GRID_2D),
    ("(1.0/s)*log(t),0.5", _GRID_2D),
    ("t+log(-1.0)", _GRID_1D),
    # Powers of a negative base where Python gives a complex (numpy's
    # float power would give NaN), and inf * 0, which is NaN at t = 0.
    ("(-1)**t+0.1*s,t**0.5*j+s", _GRID_2D),
    ("1e400*t,t", _GRID_1D),
    # A right-nested sum, whose right operand is evaluated first, with
    # failing rows on both sides.
    ("log(t)+(1.0/s+(t*s+s*t)),0.5", _GRID_2D),
    # A 1 x 1 grid and a grid of no parameters (a point fixed once).
    ("t,log(t)", {"t": [0.5]}),
    ("0.5,exp(0.25)", {}),
])
def test_template_columns_are_the_per_row_point(text, axes):
    # Each component evaluated as a column over the parameters it reads,
    # then broadcast, equals the whole template evaluated row by row, bit
    # for bit, with the same error rows and messages.
    _assert_template_columns_are_per_row(text, axes)


def test_template_row_keeps_the_first_failing_component():
    from pluripot.cli import _template_rows

    rows = _template_rows("log(t),1.0/s", 2, {"t": [-1.0, 1.0], "s": [0.0, 1.0]})
    log, div = "math domain error", "float division by zero"
    assert {row: str(exc) for row, exc in rows.errors.items()} == {
        0: f"cannot evaluate 'log(t),1.0/s': {log}", 1: f"cannot evaluate 'log(t),1.0/s': {log}",
        2: f"cannot evaluate 'log(t),1.0/s': {div}"}
    assert np.isnan(rows.stack[:3]).all() and rows.stack[3].tolist() == [0j, 1 + 0j]


def test_template_component_is_evaluated_once_per_value_of_what_it_reads(monkeypatch):
    # 'cos(t),sin(s)' on a 7 x 5 grid makes 7 + 5 calls, not 2 x 35, and
    # a constant component one call.  So does each subexpression: in
    # '0.6*s*(cos(t)+j*sin(t)),exp(0.5)*t' cos(t) and sin(t) read t
    # alone and exp(0.5) nothing, so 7 + 7 + 1 calls, not 35 + 35 + 7.
    from pluripot import cli

    calls = []

    def counted(name, fn):
        return lambda x: calls.append(name) or fn(x)

    env = dict(cli._TEMPLATE_ENV, cos=counted("cos", math.cos), sin=counted("sin", math.sin),
               exp=counted("exp", math.exp))
    monkeypatch.setattr(cli, "_TEMPLATE_ENV", env)
    cli._template.cache_clear()
    axes = {"t": np.linspace(0, 1, 7).tolist(), "s": np.linspace(0, 1, 5).tolist()}
    try:
        rows = cli._template_rows("cos(t),sin(s),exp(0.5)", 3, axes)
        assert sorted(calls) == ["cos"] * 7 + ["exp"] + ["sin"] * 5
        calls.clear()
        mixed = cli._template_rows("0.6*s*(cos(t)+j*sin(t)),exp(0.5)*t", 2, axes)
        assert sorted(calls) == ["cos"] * 7 + ["exp"] + ["sin"] * 7
    finally:
        cli._template.cache_clear()
    assert rows.stack.tolist() == [[math.cos(t), math.sin(s), math.exp(0.5)]
                                   for t in axes["t"] for s in axes["s"]]
    assert mixed.stack.tolist() == [[0.6 * s * (math.cos(t) + 1j * math.sin(t)), math.exp(0.5) * t]
                                    for t in axes["t"] for s in axes["s"]]


def _template_components(params):
    """Components in the template grammar, with float constants only, so
    that Python reads them as the template compiler does."""
    leaves = st.one_of(st.sampled_from([*params, "pi", "j"]),
                       st.floats(-3, 3).map(lambda x: f"({x!r})"))
    return st.recursive(leaves, lambda inner: st.one_of(
        st.builds("{}({})".format, st.sampled_from(["cos", "sin", "tan", "exp", "sqrt", "log", "abs"]), inner),
        st.builds("-({})".format, inner),
        st.builds("({}){}({})".format, inner, st.sampled_from(["+", "-", "*", "/", "**"]), inner)),
        max_leaves=6)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), params=st.sampled_from([("t",), ("t", "s")]))
def test_template_columns_are_the_per_row_point_on_any_template(data, params):
    values = st.lists(st.floats(-2, 2), min_size=1, max_size=4)
    axes = {param: data.draw(values) for param in params}
    text = ",".join(data.draw(st.lists(_template_components(params), min_size=1, max_size=3)))
    _assert_template_columns_are_per_row(text, axes)


def _one_point_errors(dom, key, stack):
    from pluripot.domain_core import require_interior
    from pluripot.errors import DomainError

    out = []
    for pt in stack:
        try:
            require_interior(dom, pt, key)
            out.append(None)
        except DomainError as exc:
            out.append(str(exc))
    return out


def _one_point_verdicts(dom, stack):
    """Whether require_interior takes each point of stack alone; it refuses
    a point with the one message that a sweep's stacked check gives."""
    errors = _one_point_errors(dom, "z", stack)
    assert set(errors) <= {None, "z must lie inside the domain"}
    return [error is None for error in errors]


_ULP = 2.0 ** -52


def _near_boundary(dom, v, k):
    """v moved onto the boundary of dom, then k ulps of its size out (k > 0) or in."""
    from pluripot.domain_core import minkowski_gauge

    if dom.kind == "half_plane":
        return np.array([complex(k * _ULP * abs(v[0]), v[0].imag)])
    if dom.kind == "annulus":
        return v / abs(v[0]) * (dom.r if k % 2 else 1.0) * (1.0 + k * _ULP)
    return v / minkowski_gauge(dom, v) * (1.0 + k * _ULP)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(("disc", "ball2", "ball3", "egg4", "egg6", "half_plane", "annulus")),
       data=st.data())
def test_stacked_interior_check_is_the_one_point_check(name, data):
    # The sweep checks a stack of points with one defining_function call:
    # every verdict must be require_interior's on the point alone.
    from pluripot.domain_core import _inside_rows, make_domain

    dom = make_domain("annulus", r=0.5) if name == "annulus" else make_domain(name)
    n = dom.n
    part = st.floats(-1.0, 1.0, allow_nan=False).filter(lambda x: abs(x) > 1e-3)
    ulps = st.integers(-8, 8)
    special = st.sampled_from((math.nan, math.inf, -math.inf, complex(math.inf, math.nan), 0.0))
    points = []
    for _ in range(data.draw(st.integers(1, 24))):
        v = np.array([complex(data.draw(part), data.draw(part)) for _ in range(n)])
        how = data.draw(st.sampled_from(("near", "axis", "far", "inside", "special")))
        if how == "near":
            points.append(_near_boundary(dom, v, data.draw(ulps)))
        elif how == "axis":
            # Exactly on the boundary, e.g. t = +-1 on egg4, then a few ulps off.
            axis = np.zeros(n, dtype=complex)
            axis[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from((1, -1, 1j, -1j)))
            points.append(_near_boundary(dom, axis, data.draw(ulps)) if dom.kind in ("half_plane", "annulus")
                          else axis * (1.0 + data.draw(ulps) * _ULP))
        elif how == "far":
            points.append(v * data.draw(st.sampled_from((10.0, 1e10, 1e200))))
        elif how == "inside":
            points.append(_near_boundary(dom, v, 0) * 0.5)
        else:
            v[data.draw(st.integers(0, n - 1))] = data.draw(special)
            points.append(v)
    stack = np.array(points)
    assert _inside_rows(dom, stack).tolist() == _one_point_verdicts(dom, stack)


# Points a few ulps from the egg boundaries whose rho, when numpy's **
# took it, was negative on a stack but exactly 0 on the point alone
# (found by a scan of 180,000 points each).
_SIGN_FLIPS = {
    "egg4": [[0.1381236389496036 + 0.29456360582617236j, 0.9569301292608001 - 0.17286401843966967j],
             [-0.4234589725271297 - 0.07147409728739233j, -0.8191338592281884 + 0.48177904852453735j]],
    "egg6": [[-0.2865010998626056 - 0.24319900461874325j, -0.7866023909215086 - 0.5759966476294376j],
             [-0.415271495989502 - 0.41870070553835165j, -0.8854471161166986 + 0.2884720521709275j]],
}


@pytest.mark.parametrize("name", sorted(_SIGN_FLIPS))
def test_stacked_interior_check_keeps_the_one_point_verdict_where_signs_differ(name, capsys):
    from pluripot.domain_core import _inside_rows, defining_function, make_domain

    dom = make_domain(name)
    stack = np.array(_SIGN_FLIPS[name])
    # rho of the stack is the rho of each point alone, bit for bit.
    alone = np.array([defining_function(dom, pt) for pt in stack])
    assert defining_function(dom, stack).tobytes() == alone.tobytes()
    assert _inside_rows(dom, stack).tolist() == _one_point_verdicts(dom, stack)
    # A sweep row at such a point gets the verdict that eval gives the
    # point alone.
    z0, z1 = _SIGN_FLIPS[name][0]
    inside = float(alone[0]) < 0.0
    template = f"{z0.real!r}+({z0.imag!r})*j+0*t,{z1.real!r}+({z1.imag!r})*j"
    assert main(["sweep", "poisson", "--domain", name, "--xi", "e1", "--z", template,
                 "--grid-t", "0:1:2"]) == 0
    rows, _ = _csv_rows(capsys.readouterr().out)
    assert [r["status"] for r in rows] == ["ok" if inside else "outside"] * 2
    assert main(["eval", "poisson", "--domain", name, "--xi", "e1", f"--z={z0!r},{z1!r}"]) == (0 if inside else 2)
    err = capsys.readouterr().err
    assert err == ("" if inside else "configuration error: z must lie inside the domain\n")


def test_distinct_texts_tell_floats_apart_by_bit_pattern():
    from pluripot.cli import _distinct_texts

    floats = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 0.1, 0.0, -0.0, np.float64(-0.0)]
    assert _distinct_texts(floats) == ["0", "-0", "NaN", "NaN", "Infinity", "-Infinity",
                                       "0.10000000000000001", "0", "-0", "-0"]


def _column_csv(columns):
    import io

    from pluripot.cli import _write_csv

    buf = io.StringIO()
    _write_csv(columns, buf)
    return buf.getvalue()


def test_write_csv_matches_per_cell_formatting():
    floats = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, np.float64(-0.0),
              np.float64(math.nan), np.float32(0.1), 0.1, np.float64(0.1), 5e-324, -1e300, 0.0]
    mixed = [0.0, "x", -0.0, np.float64(math.nan), "", 3, None, -math.inf, "NaN", np.float64(2.5),
             True, "0", 1.0, -0.0]
    columns = {"t": floats, "value": mixed, "status": ["ok", "outside"] * 7,
               "s": [np.float64(x) for x in floats[::-1]]}
    text = _column_csv(columns)
    assert text == per_cell_csv(columns)
    assert text.splitlines()[1:3] == ["0,0,ok,0", "-0,x,outside,-1.0000000000000001e+300"]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.one_of(st.floats(), st.text(max_size=3))), min_size=1))
def test_write_csv_columns_match_per_cell_formatting_on_any_cells(rows):
    columns = {"a": [a for a, _ in rows], "b": [b for _, b in rows]}
    assert _column_csv(columns) == per_cell_csv(columns)


def _axis(spec):
    lo, hi, count = spec.split(":")
    return np.linspace(float(lo), float(hi), int(count)).tolist()


# Each sweep with the features it covers.
_REFERENCE_SWEEPS = [
    # A 2-D grid with outside rows.
    ["poisson", "--domain", "egg4", "--xi", "e1", "--z", "t,0.5*s", "--grid-t=0:1.2:4",
     "--grid-s=-1:1:3"],
    # A template-arithmetic error (log of a negative number), an outside
    # row and an ok row.
    ["green", "--domain", "ball2", "--w", "0.1,0", "--z", "log(t),0.2", "--grid-t=-0.5:0.9:3"],
    # A -0.0 axis value (linspace ends on the stop as given), on the
    # sandwich route, one row at a time with a nonzero uncertainty.
    ["distance", "--domain", "egg4", "--z", "0.3*t+0.1j,0.2", "--w", "0.1,0.2j", "--grid-t=-1:-0:3"],
    # Rows with no certified kernel (ConvergenceError).
    ["poisson", "--domain", "egg4", "--xi", "0.6,0.8944271909999159", "--z", "0.1*t,0.1",
     "--grid-t=0:1:2"],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", _REFERENCE_SWEEPS)
def test_sweep_output_matches_the_per_row_reference_writers(argv, fmt, monkeypatch, capsys):
    # The whole output of a sweep against the writers of oracles.py, fed
    # the cells the sweep is made of: its grid axes and, per row, the
    # value, method and uncertainty that cli._evaluate gives it, or the
    # error that rules it out.
    from pluripot import cli
    from pluripot.errors import ConvergenceError

    evaluated = []
    evaluate = cli._evaluate
    monkeypatch.setattr(cli, "_evaluate", lambda *args: evaluated.append(evaluate(*args)) or evaluated[-1])
    assert main(["sweep", *argv, "--format", fmt]) == 0
    out = capsys.readouterr().out
    axes = [_axis(arg.split("=", 1)[1]) for arg in argv if arg.startswith("--grid-")]
    columns = {"t": [t for t in axes[0] for _ in axes[-1]] if len(axes) == 2 else axes[0]}
    if len(axes) == 2:
        columns["s"] = axes[1] * len(axes[0])
    [(values, methods, uncertainties, errors)] = evaluated
    cells = [(values[row], methods[row], uncertainties[row], "ok") if row not in errors
             else (math.nan, "", math.nan, "error" if isinstance(errors[row], ConvergenceError) else "outside")
             for row in range(len(values))]
    columns.update(zip(["value", "method", "uncertainty", "status"], map(list, zip(*cells))))
    assert out == (per_row_json(columns) if fmt == "json" else per_cell_csv(columns))


def test_reference_sweeps_cover_what_they_claim(capsys):
    outputs = []
    for argv in _REFERENCE_SWEEPS:
        assert main(["sweep", *argv]) == 0
        outputs.append(_csv_rows(capsys.readouterr().out)[0])
    grid, template, sandwich, ladder = outputs
    assert [r["status"] for r in grid].count("outside") == 3
    assert [r["status"] for r in template] == ["outside", "outside", "ok"]
    assert [r["t"] for r in sandwich][-1] == "-0"
    assert {r["method"] for r in sandwich} == {"sandwich_bounds"}
    assert all(float(r["uncertainty"]) > 0 for r in sandwich)
    assert [r["status"] for r in ladder] == ["error", "error"]


def test_sweep_checks_only_rows_near_the_boundary_one_at_a_time(monkeypatch, capsys):
    # The interior check takes rho once on the whole stack: no row of an
    # egg4 sweep, not even those at t = -1 and t = 1, exactly on the
    # boundary, is checked alone.  A general_convex domain, whose rho_fn
    # may round in any way on a stack, still checks each row alone.
    import sys

    from pluripot import domain_core

    checked = []
    defining_function = domain_core.defining_function

    def counting(dom, z):
        if sys._getframe(1).f_code.co_name == "_inside_rows" and np.ndim(z) == 1:
            checked.append(complex(z[0]))
        return defining_function(dom, z)

    monkeypatch.setattr(domain_core, "defining_function", counting)
    assert main(["sweep", "poisson", "--domain", "egg4", "--xi", "e1", "--z", "t,0",
                 "--grid-t=-1:1:5"]) == 0
    rows, _ = _csv_rows(capsys.readouterr().out)
    assert [r["status"] for r in rows] == ["outside", "ok", "ok", "ok", "outside"]
    assert checked == []
    shapes = []

    def rho(z):
        shapes.append(np.shape(z))
        return np.sum(np.abs(z) ** 2, axis=-1) - 1.0

    ball = domain_core.make_domain({"kind": "general_convex", "n": 2}, rho=rho)
    stack = np.array([[-1.0, 0.0], [-0.5, 0.0], [0.0, 0.0], [0.5, 0.0], [1.0, 0.0]], dtype=complex)
    assert domain_core._inside_rows(ball, stack).tolist() == [False, True, True, True, False]
    assert shapes == [(2,)] * 5


def test_one_parser_serves_every_call_without_leaking_flags(tmp_path, capsys):
    # main() builds its parser once per process.  Each command below
    # drops a flag that the one before it set; every call must write the
    # bytes of a fresh interpreter running it alone.
    import hashlib

    from pluripot import cli

    snapshot = _cli_snapshot()
    sweep = ["sweep", "green", "--domain", "ball2", "--w", "0,0", "--z", "0.5*t,0", "--grid-t=-0.95:0.95:5"]
    commands = [
        ["eval", "poisson", "--domain", "egg4", "--xi", "e1", "--z", "0.2,0.3", "--format", "csv"],
        ["eval", "poisson", "--domain", "ball2", "--xi", "e1", "--z", "0.5,0"],
        ["verify", "annulus", "--r", "0.3", "--tol", "1e-3"],
        ["verify", "annulus"],
        sweep + ["--format", "json"],
        sweep,
        ["eval", "poisson", "--domain", "ball2", "--xi", "e1"],
    ]
    digest = lambda data: hashlib.sha256(data).hexdigest()
    for i, argv in enumerate(commands):
        out = tmp_path / f"out{i}"
        rc = main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        written = digest(out.read_bytes()) if out.exists() else "-"
        line = (f"{rc} {written} {digest(captured.out.encode())} {digest(captured.err.encode())}  "
                + " ".join(argv))
        assert line == snapshot.fingerprint(argv, _ROOT / "src")
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("argv, flags", [
    (["eval", "poisson", "--domain", "ball2", "--xi", "e1", "--z", "0.5,0", "--seed", "1"], "--seed"),
    (["eval", "poisson", "--domain", "ball2", "--xi", "e1", "--z", "0.5,0", "--seed", "7", "--tol", "5",
      "--resolution", "99"], "--seed, --tol, --resolution"),
    (["sweep", "poisson", "--domain", "ball2", "--xi", "e1", "--z", "t,0", "--grid-t", "0:0.5:3",
      "--tol", "1e-3"], "--tol"),
    (["verify", "annulus", "--format", "csv"], "--format"),
    (["verify", "annulus", "--z=-0.5"], "--z"),
])
def test_flag_of_another_command_is_config_error(argv, flags, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"configuration error: {argv[0]} does not read {flags}\n"


@pytest.mark.parametrize("argv, config, flags", [
    (["eval", "poisson", "--z", "0.5,0", "--w", "abc"], {}, "--w"),
    (["eval", "poisson", "--z", "0.5,0", "--w", "0,0", "--p", "0,0"], {}, "--w, --p"),
    (["sweep", "poisson", "--z", "0.5*t,0", "--grid-t", "0:0.5:2", "--w", "abc"], {}, "--w"),
    (["sweep", "poisson", "--z", "0.5*t,0", "--grid-t", "0:0.5:2"], {"p": [0, 0]}, "--p"),
])
def test_point_the_quantity_does_not_read_is_config_error(argv, config, flags, tmp_path, capsys):
    # eval and sweep alike, for a flag or a config key, before any point is parsed.
    rc, captured = _run_config(tmp_path, capsys, argv + ["--domain", "ball2", "--xi", "e1"], config)
    assert rc == 2 and captured.out == ""
    assert captured.err == f"configuration error: poisson does not read {flags}\n"


def _run_config(tmp_path, capsys, argv, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = main([*argv, "--config", str(cfg)])
    return rc, capsys.readouterr()


@pytest.mark.parametrize("argv, config", [
    (["eval", "poisson", "--domain", "ball2", "--xi", "e1", "--z", "0.5,0"], {"seed": 1}),
    (["sweep", "poisson", "--domain", "ball2", "--xi", "e1", "--z", "t,0", "--grid-t", "0:0.5:3"],
     {"tol": 1e-3}),
    (["verify", "annulus"], {"format": "csv"}),
    (["verify", "annulus"], {"command": "verify"}),
    (["verify", "annulus"], {"config": "other.json"}),
])
def test_config_key_the_command_does_not_read_is_config_error(argv, config, tmp_path, capsys):
    rc, captured = _run_config(tmp_path, capsys, argv, config)
    assert rc == 2 and captured.out == ""
    assert captured.err == f"configuration error: unknown config keys: {sorted(config)}\n"


@pytest.mark.parametrize("argv, config, message", [
    (["verify", "asymptoticity"], {"tol": "abc"}, "config key 'tol' must read as float, got 'abc'"),
    (["verify", "asymptoticity"], {"tol": [1]}, "config key 'tol' must read as float, got [1]"),
    (["verify", "asymptoticity"], {"tol": True}, "config key 'tol' must read as float, got True"),
    (["eval", "poisson", "--xi", "1", "--z", "0.6"], {"domain": "annulus", "r": "abc"},
     "config key 'r' must read as float, got 'abc'"),
    (["verify", "reproducing"], {"resolution": "x"}, "config key 'resolution' must read as int, got 'x'"),
    (["verify", "reproducing"], {"resolution": 24.5},
     "config key 'resolution' must read as int, got 24.5"),
    (["verify", "dilation"], {"seed": "x"}, "config key 'seed' must read as int, got 'x'"),
    (["verify", "dilation"], {"seed": 1.5}, "config key 'seed' must read as int, got 1.5"),
    (["verify", "dilation"], {"seed": False}, "config key 'seed' must read as int, got False"),
    (["verify", "dilation"], {"seed": {"a": 1}}, "config key 'seed' must read as int, got {'a': 1}"),
    (["eval", "poisson", "--domain", "ball2", "--xi", "e1", "--z", "0.5,0"], {"quantity": "flux"},
     "quantity must be one of ('green', 'poisson', 'horofunction', 'distance', 'density'), got 'flux'"),
    (["verify", "asymptoticity"], {"tol": 0}, "tolerance must be positive"),
    (["verify"], {"suite": ["x"]}, "suite must be a string, got ['x']"),
    (["verify", "monge_ampere"], {"u": ["x"]}, "unknown config keys: ['u']"),
    (["eval", "poisson"], {"domain": "ball2", "xi": {"a": 1}, "z": "0,0"},
     "xi must be a string or a list of numbers, got {'a': 1}"),
    (["eval", "poisson"], {"out": 1, "domain": "ball2", "xi": "e1", "z": "0,0"},
     "out must be a string, got 1"),
    (["eval", "poisson"], {"domain": "ball2", "xi": "e1", "z": [0.1, True]},
     "z must be a string or a list of numbers, got [0.1, True]"),
    (["eval", "poisson"], {"domain": "ellipsoid", "m": 4, "xi": "e1", "z": "0,0,0"},
     "m must be a string or a list of numbers, got 4"),
    (["sweep", "poisson", "--grid-t", "0:1:2"], {"domain": ["ball2"], "xi": "e1", "z": "t,0"},
     "domain must be a string, got ['ball2']"),
])
def test_config_value_its_flag_would_not_take_is_config_error(argv, config, message, tmp_path, capsys):
    rc, captured = _run_config(tmp_path, capsys, argv, config)
    assert rc == 2 and captured.out == ""
    assert captured.err == f"configuration error: {message}\n"


@pytest.mark.parametrize("text", [None, "{bad"])
def test_config_file_that_cannot_be_read_is_config_error(text, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    rc = main(["eval", "poisson", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith(f"configuration error: cannot read config file {str(cfg)!r}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, config, flags", [
    (["verify", "dilation"], {"seed": 1}, ["--seed", "1"]),
    (["verify", "dilation"], {"seed": "1"}, ["--seed", "1"]),
    (["verify", "dilation"], {"seed": 1.0}, ["--seed", "1"]),
    (["verify", "annulus"], {"r": "0.3", "tol": 1}, ["--r", "0.3"]),
    (["verify", "annulus"], {"r": 0.3, "seed": None}, ["--r", "0.3"]),
    (["verify", "reproducing"], {"resolution": 16, "tol": "1e-3"}, ["--resolution", "16", "--tol", "1e-3"]),
    (["eval", "distance", "--z", "0.7", "--w", "0.71"], {"domain": "annulus", "r": 0.5},
     ["--domain", "annulus", "--r", "0.5"]),
    (["eval", "poisson", "--domain", "ball2"], {"xi": [1, 0], "z": [0.1, -0.25]},
     ["--xi", "1,0", "--z", "0.1,-0.25"]),
    (["sweep", "poisson", "--xi", "e1", "--z", "t,0"], {"domain": "ball2", "grid_t": "0:0.5:3",
                                                        "format": "json"},
     ["--domain", "ball2", "--grid-t", "0:0.5:3", "--format", "json"]),
])
def test_config_value_reads_as_its_flag(argv, config, flags, tmp_path, capsys):
    rc, by_config = _run_config(tmp_path, capsys, argv, config)
    assert main([*argv, *flags]) == rc
    by_flags = capsys.readouterr()
    assert rc in (0, 3)
    assert (by_config.out, by_config.err) == (by_flags.out, by_flags.err)


@pytest.mark.parametrize("domain", ["ball²", "egg²", "ball" + "1" * 5000])
def test_domain_name_with_digits_int_cannot_read_is_config_error(domain, capsys):
    rc = main(["eval", "poisson", "--domain", domain, "--xi", "e1", "--z", "0.1,0"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"configuration error: unrecognized domain shorthand: {domain!r}\n"


def _subcommand_flags():
    """{subcommand: sorted flags} that _build_parser registers, -h aside."""
    import argparse

    from pluripot import cli

    [commands] = [action.choices for action in cli._build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    return {name: sorted(flag for action in sub._actions for flag in action.option_strings
                         if flag not in ("-h", "--help"))
            for name, sub in commands.items()}


def test_readme_lists_the_flags_of_each_subcommand():
    # The bullet list after README's "checks these flags" paragraph: one
    # bullet per subcommand, named in backticks before the colon, and its
    # flags in backticks after it.
    text = (_ROOT / "README.md").read_text()
    bullets = text.split("checks these flags of each subcommand", 1)[1].split("\n\n")[1]
    listed = {}
    for bullet in bullets.split("\n- "):
        name, flags = bullet.lstrip("- ").split(":", 1)
        listed[name.strip("`")] = sorted(re.findall(r"`([^`]+)`", flags))
    assert listed == _subcommand_flags()
