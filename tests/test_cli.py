import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conc_toolkit
from conc_toolkit.cli import dispatch


def test_usage_exit_code():
    assert dispatch([]) == 2
    assert dispatch(["measure"]) == 2


def test_unknown_suite_exit_code(capsys):
    assert dispatch(["verify", "not-a-suite"]) == 2
    assert capsys.readouterr().err == "error: unknown suites: ['not-a-suite']\n"


def test_measure_build_and_profile_iso(tmp_path, capsys):
    m_path = tmp_path / "g1.json"
    rc = dispatch(["measure", "build", "--preset", "gamma_p", "--p", "1",
                   "--out", str(m_path)])
    assert rc == 0
    assert m_path.exists()

    csv_path = tmp_path / "iso.csv"
    svg_path = tmp_path / "iso.svg"
    rc = dispatch(["profile", "iso", "--measure", str(m_path),
                   "--out", str(csv_path), "--svg", str(svg_path)])
    assert rc == 0
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "input,value,exactness"
    # two-sided exponential: iso(v) = v
    v, val, tag = rows[1].split(",")
    assert float(val) == pytest.approx(float(v), abs=1e-6)
    assert tag == "exact"
    assert svg_path.read_text().startswith("<svg")


def test_profile_iso_preset_shortcut(tmp_path):
    out = tmp_path / "iso.csv"
    rc = dispatch(["profile", "iso", "--preset", "gamma_p", "--p", "1",
                   "--out", str(out)])
    assert rc == 0
    data = np.loadtxt(str(out), delimiter=",", skiprows=1, usecols=(0, 1))
    np.testing.assert_allclose(data[:, 1], data[:, 0], atol=1e-6)


def test_transport_w1_identity(tmp_path, capsys):
    m_path = tmp_path / "m.json"
    dispatch(["measure", "build", "--preset", "gamma_p", "--p", "2",
              "--out", str(m_path)])
    capsys.readouterr()
    rc = dispatch(["transport", "w1", "--a", str(m_path), "--b", str(m_path)])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(0.0, abs=1e-9)


def test_measure_derive_translate_and_w1(tmp_path, capsys):
    m1 = tmp_path / "m1.json"
    m2 = tmp_path / "m2.json"
    dispatch(["measure", "build", "--preset", "gamma_p", "--p", "2",
              "--out", str(m1)])
    rc = dispatch(["measure", "derive", "--in", str(m1), "--mode", "translate",
                   "--t", "1.0", "--out", str(m2)])
    assert rc == 0
    capsys.readouterr()
    dispatch(["transport", "w1", "--a", str(m1), "--b", str(m2)])
    val = float(capsys.readouterr().out.strip())
    assert val == pytest.approx(1.0, abs=1e-5)


def test_transport_divergence_json(tmp_path, capsys):
    m1 = tmp_path / "m1.json"
    dispatch(["measure", "build", "--preset", "gamma_p", "--p", "2",
              "--out", str(m1)])
    capsys.readouterr()
    rc = dispatch(["transport", "divergence", "--a", str(m1), "--b", str(m1)])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["d_TV"] == pytest.approx(0.0, abs=1e-9)


def test_verify_writes_report_and_exit_zero(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    rc = dispatch(["verify", "going-down-exact", "--seed", "7",
                   "--out", str(out_dir), "--jobs", "1"])
    assert rc == 0
    report = json.loads((out_dir / "going-down-exact.json").read_text())
    assert report["passed"] is True
    assert report["summary"]["violations"] == 0


def test_verify_determinism(tmp_path):
    """In input order in-process, longest first in two workers: the same
    bytes."""
    d1 = tmp_path / "r1"
    d2 = tmp_path / "r2"
    for d, jobs in ((d1, "1"), (d2, "2")):
        rc = dispatch(["verify", "going-down-exact", "te-jensen-pointwise",
                       "--seed", "7", "--out", str(d), "--jobs", jobs])
        assert rc == 0
    for name in ("going-down-exact.json", "te-jensen-pointwise.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_constants_all(tmp_path, capsys):
    out = tmp_path / "consts.json"
    rc = dispatch(["constants", "all", "--preset", "gamma_p", "--p", "2",
                   "--grid-points", "2048", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    ids = {e["constant_id"] for e in data["entries"]}
    assert {"D_Poin", "rho_LS", "D_FM", "D_Con_1"} <= ids


def test_plot_round_trip(tmp_path):
    m1 = tmp_path / "m1.json"
    csv = tmp_path / "iso.csv"
    svg = tmp_path / "iso.svg"
    dispatch(["measure", "build", "--preset", "gamma_p", "--p", "2",
              "--out", str(m1)])
    dispatch(["profile", "iso", "--measure", str(m1), "--out", str(csv)])
    rc = dispatch(["plot", str(csv), "--out", str(svg)])
    assert rc == 0
    assert svg.read_text().startswith("<svg")


def _assert_bad_input(capsys, argv):
    """Bad input exits 2 with one ``error:`` line, not a traceback."""
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_jobs_value_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("CONC_TOOLKIT_JOBS", "abc")
    _assert_bad_input(capsys, ["verify", "going-down-exact"])
    monkeypatch.setenv("CONC_TOOLKIT_JOBS", "0")
    _assert_bad_input(capsys, ["verify", "going-down-exact"])
    monkeypatch.delenv("CONC_TOOLKIT_JOBS")
    _assert_bad_input(capsys, ["verify", "going-down-exact", "--jobs", "0"])


def test_missing_measure_file_exits_2(tmp_path, capsys):
    _assert_bad_input(capsys, ["profile", "iso", "--measure",
                               str(tmp_path / "missing.json"),
                               "--out", str(tmp_path / "iso.csv")])


def test_measure_without_potential_exits_2(tmp_path, capsys):
    m_path = tmp_path / "m.json"
    m_path.write_text(json.dumps({"grid": [0.0, 1.0, 2.0]}))
    _assert_bad_input(capsys, ["profile", "iso", "--measure", str(m_path),
                               "--out", str(tmp_path / "iso.csv")])


def test_measure_with_non_numeric_grid_exits_2(tmp_path, capsys):
    m_path = tmp_path / "bad.json"
    m_path.write_text(json.dumps({"grid": ["a", "b", "c"], "potential": [0, 1, 2]}))
    assert dispatch(["profile", "iso", "--measure", str(m_path),
                     "--out", str(tmp_path / "iso.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid ") and err.count("\n") == 1


def test_derive_translate_without_t_exits_2(tmp_path, capsys):
    m1 = tmp_path / "m1.json"
    dispatch(["measure", "build", "--preset", "gamma_p", "--p", "2",
              "--out", str(m1)])
    capsys.readouterr()
    _assert_bad_input(capsys, ["measure", "derive", "--in", str(m1),
                               "--mode", "translate",
                               "--out", str(tmp_path / "m2.json")])


def test_plot_missing_csv_exits_2(tmp_path, capsys):
    _assert_bad_input(capsys, ["plot", str(tmp_path / "missing.csv"),
                               "--out", str(tmp_path / "x.svg")])


def test_out_into_missing_directory_exits_2(tmp_path, capsys):
    _assert_bad_input(capsys, ["profile", "iso", "--preset", "gamma_p",
                               "--p", "1", "--grid-points", "65",
                               "--out", str(tmp_path / "nodir" / "x.csv")])


def _density_ratio_args(tmp_path, phi_path):
    m1 = tmp_path / "m1.json"
    dispatch(["measure", "build", "--preset", "gamma_p", "--p", "2",
              "--grid-points", "65", "--out", str(m1)])
    return ["measure", "derive", "--in", str(m1), "--mode", "density-ratio",
            "--phi", str(phi_path), "--cap", "1",
            "--out", str(tmp_path / "m2.json")]


def test_derive_missing_phi_file_exits_2(tmp_path, capsys):
    args = _density_ratio_args(tmp_path, tmp_path / "nofile.csv")
    capsys.readouterr()
    _assert_bad_input(capsys, args)


def test_derive_non_numeric_phi_exits_2(tmp_path, capsys):
    phi = tmp_path / "phi.csv"
    phi.write_text("a,b\n")
    args = _density_ratio_args(tmp_path, phi)
    capsys.readouterr()
    _assert_bad_input(capsys, args)


def test_plot_non_numeric_profile_value_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("input,value,exactness\n0.1,0.2,exact\n0.2,abc,exact\n")
    _assert_bad_input(capsys, ["plot", str(csv_path),
                               "--out", str(tmp_path / "x.svg")])


def test_one_d_commands_do_not_import_scipy(tmp_path):
    """scipy is imported where it is called: neither the CLI's import nor a
    1-D profile loads it (a fresh interpreter, so no other test's imports
    count)."""
    src = str(Path(conc_toolkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    script = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "from conc_toolkit.cli import dispatch\n"
        "print(scipy_modules())\n"
        "rc = dispatch(['profile', 'iso', '--preset', 'gamma_p', '--p', '1.5',\n"
        "               '--out', sys.argv[1]])\n"
        "print(rc, scipy_modules())\n")
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "iso.csv")],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    lines = out.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "0 []")


def _measure_args(tmp_path, args):
    """``args`` with M standing for a small gamma_2 measure file."""
    m1 = tmp_path / "m1.json"
    if "M" in args:
        dispatch(["measure", "build", "--preset", "gamma_p", "--p", "2",
                  "--grid-points", "65", "--out", str(m1)])
    if "PHI" in args:
        np.savetxt(tmp_path / "phi.csv", np.zeros((1, 65)), delimiter=",")
    return [str(m1) if a == "M" else str(tmp_path / "phi.csv") if a == "PHI"
            else a for a in args]


_OUT = ["--out", "out.file"]


@pytest.mark.filterwarnings("error")  # a numpy warning line counts as a second line
@pytest.mark.parametrize("args", [
    ["verify", "going-down-exact", "--seed", "-1", "--jobs", "2"],
    ["profile", "iso", "--preset", "gamma_p", "--p", "2", "--grid-points", "-5", *_OUT],
    ["measure", "derive", "--in", "M", "--mode", "density-ratio", "--phi", "PHI",
     "--cap", "nan", *_OUT],
    ["measure", "derive", "--in", "M", "--mode", "density-ratio", "--phi", "PHI",
     "--cap", "inf", *_OUT],
    ["transport", "wc", "--a", "M", "--b", "M", "--scale", "nan"],
    ["transport", "wc", "--a", "M", "--b", "M", "--scale", "inf"],
    ["profile", "conc", "--preset", "gamma_p", "--p", "2", "--r-max", "inf", *_OUT],
    ["profile", "iso", "--preset", "gamma_p", "--p", "2", "--half-width", "inf", *_OUT],
    ["profile", "iso", "--preset", "gaussian_restricted", "--a", "inf", *_OUT],
    ["measure", "derive", "--in", "M", "--mode", "translate", "--t", "inf", *_OUT],
], ids=["negative-seed", "negative-grid-points", "nan-cap", "inf-cap", "nan-scale",
        "inf-scale", "inf-r-max", "inf-half-width", "inf-a", "inf-t"])
def test_out_of_domain_number_exits_2(tmp_path, capsys, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    argv = _measure_args(tmp_path, args)
    capsys.readouterr()
    _assert_bad_input(capsys, argv)
    assert not (tmp_path / "out.file").exists()
