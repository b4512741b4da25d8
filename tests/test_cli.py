import json
import os

import numpy as np
import pytest

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


@pytest.mark.parametrize("r_max", ["-1", "0", "nan", "inf"])
def test_r_max_outside_zero_to_infinity_is_named(tmp_path, capsys, r_max):
    assert dispatch(["profile", "conc", "--preset", "gamma_p", "--p", "2",
                     "--grid-points", "65", "--r-max", r_max,
                     "--out", str(tmp_path / "conc.csv")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --r-max must be finite and > 0, got {float(r_max)}\n"


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


def test_one_d_commands_do_not_import_scipy(tmp_path, fresh_python):
    """scipy is imported where it is called: neither the CLI's import, nor
    a 1-D profile, nor a line measure's constants (whose Poincare gap is a
    Sturm bisection) load any scipy module."""
    script = (
        "import contextlib, io, sys\n"
        "from conc_toolkit.cli import dispatch\n"
        "def run(*args):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        return dispatch(list(args))\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(scipy_modules())\n"
        "print(run('profile', 'iso', '--preset', 'gamma_p', '--p', '1.5',\n"
        f"          '--out', {str(tmp_path / 'iso.csv')!r}), scipy_modules())\n"
        "print(run('constants', 'all', '--preset', 'gamma_p', '--p', '2',\n"
        f"          '--out', {str(tmp_path / 'consts.json')!r}), scipy_modules())\n")
    assert fresh_python(script) == ["[]", "0", "[]", "0", "[]"]


def test_commands_load_only_their_modules(tmp_path, fresh_python):
    """Each command imports what it runs: a profile no suite, transport,
    Laplace or functional module, the constants report no suite and no
    process pool, and --version not even numpy."""
    script = (
        "import contextlib, io, sys\n"
        "from conc_toolkit.cli import dispatch\n"
        "def run(*args):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        return dispatch(list(args))\n"
        "def loaded(*names):\n"
        "    return sorted(n for n in names if n in sys.modules)\n"
        "print(run('profile', 'iso', '--preset', 'gamma_p', '--p', '1.5',\n"
        f"          '--out', {str(tmp_path / 'iso.csv')!r}),\n"
        "      loaded(*('conc_toolkit.' + m for m in\n"
        "               ('suites', 'transport', 'laplace', 'functional'))))\n"
        "print(run('constants', 'all', '--preset', 'gamma_p', '--p', '2',\n"
        f"          '--out', {str(tmp_path / 'consts.json')!r}),\n"
        "      loaded('conc_toolkit.suites', 'concurrent.futures.process'))\n")
    assert fresh_python(script) == ["0", "[]", "0", "[]"]
    version = (
        "import sys\n"
        "from conc_toolkit.cli import dispatch\n"
        "try:\n"
        "    dispatch(['--version'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "print('numpy' in sys.modules)\n")
    assert fresh_python(version) == ["0.1.0", "False"]


def test_public_names_load_their_modules_on_first_access(fresh_python):
    """The package imports no module until a public name is read, and
    every name in __all__ resolves to its module's object."""
    script = (
        "import importlib, sys\n"
        "import conc_toolkit\n"
        "print(sorted(m for m in sys.modules if m.startswith('conc_toolkit.')))\n"
        "conc_toolkit.run_suite\n"
        "print('conc_toolkit.suites' in sys.modules)\n"
        "print(all(getattr(conc_toolkit, n) is getattr(\n"
        "    importlib.import_module('conc_toolkit.' + conc_toolkit._EXPORTS[n]), n)\n"
        "    for n in conc_toolkit.__all__ if n != '__version__'))\n"
        "print(hasattr(conc_toolkit, 'no_such_name'))\n")
    assert fresh_python(script) == ["[]", "True", "True", "False"]


def test_verify_finite_suites_do_not_import_scipy(fresh_python):
    """The finite-space suites run on numpy alone: the vertex walk, the
    line metric's closed forms and the numpy transportation simplex leave
    every scipy module unloaded in a fresh interpreter."""
    script = (
        "import sys\n"
        "from conc_toolkit.cli import dispatch\n"
        "rc = dispatch(['verify', 'going-down-exact', 'w1-fm-exact', 'te-jensen-pointwise',\n"
        "               'conc-te-equiv', 'bg-duality', '--seed', '7', '--jobs', '1'])\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert fresh_python(script)[-2:] == ["0", "[]"]


def _main_script(tmp_path, preset: str | None) -> str:
    """A script that runs ``main()`` on ``profile iso`` with
    OPENBLAS_NUM_THREADS unset (or set to ``preset``), then prints the
    variable and the number of threads in the process (-1 without /proc)."""
    setting = ("os.environ.pop('OPENBLAS_NUM_THREADS', None)" if preset is None
               else f"os.environ['OPENBLAS_NUM_THREADS'] = {preset!r}")
    return (
        "import contextlib, io, os, sys\n"
        f"{setting}\n"
        "from conc_toolkit import cli\n"
        "sys.argv = ['conc-toolkit', 'profile', 'iso', '--preset', 'gamma_p',\n"
        f"            '--p', '1.5', '--out', {str(tmp_path / 'iso.csv')!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        cli.main()\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "threads = (len(os.listdir('/proc/self/task'))\n"
        "           if os.path.isdir('/proc/self/task') else -1)\n"
        "print(code, 'numpy' in sys.modules, os.environ['OPENBLAS_NUM_THREADS'], threads)\n")


def test_main_runs_one_blas_thread(tmp_path, fresh_python):
    """With the variable unset, main() sets OPENBLAS_NUM_THREADS=1 before
    numpy loads, so the process holds one thread after the command."""
    code, numpy_loaded, value, threads = fresh_python(_main_script(tmp_path, None))
    assert (code, numpy_loaded, value) == ("0", "True", "1")
    if threads == "-1":
        pytest.skip("no /proc/self/task to count threads in")
    assert threads == "1"


def test_main_keeps_a_user_set_blas_thread_count(tmp_path, fresh_python):
    code, numpy_loaded, value, _ = fresh_python(_main_script(tmp_path, "2"))
    assert (code, numpy_loaded, value) == ("0", "True", "2")


def test_dispatch_leaves_the_environment_alone(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert dispatch(["profile", "iso", "--preset", "gamma_p", "--p", "1.5",
                     "--out", str(tmp_path / "iso.csv")]) == 0
    assert dict(os.environ) == before


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
    ["profile", "conc", "--preset", "gamma_p", "--p", "2", "--r-max", "-1", *_OUT],
    ["profile", "conc", "--preset", "gamma_p", "--p", "2", "--r-max", "0", *_OUT],
    ["profile", "iso", "--preset", "gamma_p", "--p", "2", "--half-width", "inf", *_OUT],
    ["profile", "iso", "--preset", "gaussian_restricted", "--a", "inf", *_OUT],
    ["measure", "derive", "--in", "M", "--mode", "translate", "--t", "inf", *_OUT],
], ids=["negative-seed", "negative-grid-points", "nan-cap", "inf-cap", "nan-scale",
        "inf-scale", "inf-r-max", "negative-r-max", "zero-r-max", "inf-half-width",
        "inf-a", "inf-t"])
def test_out_of_domain_number_exits_2(tmp_path, capsys, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    argv = _measure_args(tmp_path, args)
    capsys.readouterr()
    _assert_bad_input(capsys, argv)
    assert not (tmp_path / "out.file").exists()
