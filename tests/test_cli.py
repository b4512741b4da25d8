import json

import numpy as np
import pytest

from conc_toolkit.cli import dispatch


def test_usage_exit_code():
    assert dispatch([]) == 2
    assert dispatch(["measure"]) == 2


def test_unknown_suite_exit_code(capsys):
    assert dispatch(["verify", "not-a-suite"]) == 2


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
    d1 = tmp_path / "r1"
    d2 = tmp_path / "r2"
    for d in (d1, d2):
        rc = dispatch(["verify", "going-down-exact", "te-jensen-pointwise",
                       "--seed", "7", "--out", str(d), "--jobs", "2"])
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


def test_derive_translate_without_t_exits_2(tmp_path, capsys):
    m1 = tmp_path / "m1.json"
    dispatch(["measure", "build", "--preset", "gamma_p", "--p", "2",
              "--out", str(m1)])
    capsys.readouterr()
    _assert_bad_input(capsys, ["measure", "derive", "--in", str(m1),
                               "--mode", "translate",
                               "--out", str(tmp_path / "m2.json")])
