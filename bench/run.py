"""conc-toolkit benchmark: end-to-end metrics per workload, or per-layer
metrics from a traced run.

Usage (from the root of a checkout):
    python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1

NAME is verify-finite, line-cli, oracles-at-cap, or all.  The toolkit
runs from ``src/`` of the checkout; it need not be installed.  Load comes
from one closed-loop client: each command starts only after the previous
one has ended.  With ``--trace 0`` the workload is repeated while another
pass fits in T seconds (at least once) and medians are reported.  With
``--trace 1`` it runs once untraced (``--jobs 2``) and once traced
(``--jobs 1``, every process with bench/tracer.py installed); both runs
must write the same bytes.  Human-readable lines go first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when an
output check failed and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import csv
import functools
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from oracles import operations
from tracer import layer_metrics

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
REFERENCE = BENCH / "reference"

JOBS = 2  # verify workers; the benchmark was defined on 2 vCPUs
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # per workload, inside the 180 s a run may take
REL_TOL = 1e-9

VERIFY_FINITE = ("going-down-exact", "w1-fm-exact", "te-jensen-pointwise",
                 "conc-te-equiv", "bg-duality")
VERIFY_LINE = ("iso-stability-shape", "logsob-stability", "w1-stability-chain",
               "te-equiv-shape", "hierarchy-gamma-p")
LINE_COMMANDS = {  # output file -> command; each runs as its own process
    "constants-p1.json": ("constants", "all", "--preset", "gamma_p", "--p", "1"),
    "constants-p2.json": ("constants", "all", "--preset", "gamma_p", "--p", "2"),
    "profile-iso.csv": ("profile", "iso", "--preset", "gamma_p", "--p", "1.5"),
    "profile-conc.csv": ("profile", "conc", "--preset", "gamma_p", "--p", "2",
                         "--r-max", "8"),
}
VERIFY_LINE_RE = re.compile(r"^\[(pass|FAIL)\] (\S+): (.*)$")


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    out: str
    err: str


@dataclass
class Context:
    seed: int
    tmp: Path
    deadline: float
    references: dict
    env: dict
    _dirs: int = 0

    def new_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.tmp / f"{self._dirs:03d}-{label}"
        path.mkdir()
        return path

    def run(self, argv: list[str], cwd: Path) -> Proc:
        """Run one process to its end; time it and read its rusage (which
        covers the processes it waited for)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return Proc(-1, 0.0, 0.0, 0.0, "", "benchmark deadline passed")
        with tempfile.TemporaryFile(dir=self.tmp) as out, \
                tempfile.TemporaryFile(dir=self.tmp) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out,
                                    stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            out.seek(0)
            err.seek(0)
            return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss / 1024.0,
                        out.read().decode(errors="replace"),
                        err.read().decode(errors="replace"))


def child_env() -> dict:
    """The toolkit from ``src/``; no stray worker count."""
    env = {k: v for k, v in os.environ.items() if k != "CONC_TOOLKIT_JOBS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cli_argv(args, spans: Path | None = None) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "conc_toolkit.cli", *args]
    return [sys.executable, str(BENCH / "traced_cli.py"), str(spans), *args]


def oracle_argv(seed: int, *extra: str) -> list[str]:
    return [sys.executable, str(BENCH / "oracles.py"), "--seed", str(seed), *extra]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def differences(got, want, where: str = "") -> list[str]:
    """Where ``got`` differs from ``want``: floats to REL_TOL relative,
    everything else exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{where}: keys differ"]
        return [d for k in want for d in differences(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in differences(g, w, f"{where}[{i}]")]
    if (isinstance(want, float) and isinstance(got, (int, float))
            and not isinstance(got, bool)):
        if (got == want or math.isclose(got, want, rel_tol=REL_TOL)
                or (math.isnan(got) and math.isnan(want))):
            return []
    elif got == want:
        return []
    return [f"{where}: {got!r} != {want!r}"]


def _read_output(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="utf-8"))
    with open(path, newline="", encoding="utf-8") as fh:
        return [[_number_or_text(cell) for cell in row] for row in csv.reader(fh)]


def _number_or_text(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def parse_verify(out: str) -> dict[str, tuple[str, dict]]:
    """suite id -> (status, summary) from the lines ``verify`` prints."""
    found = {}
    for line in out.splitlines():
        m = VERIFY_LINE_RE.match(line)
        if not m:
            continue
        try:
            found[m.group(2)] = (m.group(1), json.loads(m.group(3)))
        except ValueError:  # a garbled line counts as a missing one
            continue
    return found


def check_verify(proc: Proc, suites, seed: int, references: dict,
                 ) -> list[tuple[str, list[str]]]:
    """One operation per suite: it ran, passed, and its summary matches the
    stored reference for this seed (when one is stored)."""
    found = parse_verify(proc.out)
    expected_code = 0 if all(found.get(s, ("",))[0] == "pass" for s in suites) else 1
    ref = references.get(str(seed), {})
    ops = []
    for sid in suites:
        problems = []
        if proc.code != expected_code:
            problems.append(f"verify exited {proc.code}")
        if sid not in found:
            problems.append("no report line")
        else:
            status, summary = found[sid]
            if status != "pass":
                problems.append("suite failed")
            if sid in ref:
                problems += differences(summary, ref[sid], "summary")
        ops.append((f"verify {sid}", problems))
    return ops


def check_command(proc: Proc, name: str, out_file: Path) -> list[str]:
    if proc.code != 0:
        return [f"exited {proc.code}"]
    try:
        got = _read_output(out_file)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    return differences(got, _read_output(REFERENCE / "cli" / name), name)


def same_bytes(left: Path, right: Path) -> list[str]:
    """Every file under ``left`` exists under ``right`` with equal bytes."""
    problems = []
    for path in sorted(p for p in left.rglob("*") if p.is_file()):
        other = right / path.relative_to(left)
        if not other.is_file() or other.read_bytes() != path.read_bytes():
            problems.append(f"{path.relative_to(left)} differs")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    """One execution of a workload: its processes and its operations."""

    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    outputs: Path | None = None
    digests: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    def add_proc(self, proc: Proc) -> None:
        self.wall += proc.wall
        self.cpu += proc.cpu
        self.rss_mb = max(self.rss_mb, proc.rss_mb)

    def op(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {name}: {'; '.join(problems)}", file=sys.stderr)


def _load_spans(path: Path) -> list:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return []


def cli_pass(ctx: Context, traced: bool, suites, commands) -> Pass:
    """``verify`` over the suites, then each command as its own process."""
    work = ctx.new_dir("traced" if traced else "cli")
    one = Pass(outputs=work / "out")
    steps = [("verify", ("verify", *suites, "--seed", str(ctx.seed),
                         "--jobs", "1" if traced else str(JOBS),
                         "--out", "out/reports"))]
    steps += [(name, (*args, "--out", f"out/{name}"))
              for name, args in commands.items()]
    (work / "out").mkdir()
    for k, (name, args) in enumerate(steps):
        spans = work / f"spans-{k}.json" if traced else None
        proc = ctx.run(cli_argv(args, spans), work)
        one.add_proc(proc)
        if spans is not None:
            one.spans.append(_load_spans(spans))
        if name == "verify":
            for op_name, problems in check_verify(proc, suites, ctx.seed,
                                                  ctx.references):
                one.op(op_name, problems)
        else:
            one.op(name, check_command(proc, name, work / "out" / name))
        if proc.code not in (0, 1):
            print(proc.err[-2000:], file=sys.stderr)
    return one


def oracle_pass(ctx: Context, traced: bool) -> Pass:
    work = ctx.new_dir("oracles")
    spans = work / "spans.json"
    proc = ctx.run(oracle_argv(ctx.seed, *(["--spans", str(spans)] if traced else [])),
                   work)
    one = Pass()
    one.add_proc(proc)
    if traced:
        one.spans.append(_load_spans(spans))
    try:
        results = json.loads(proc.out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print(proc.err[-2000:], file=sys.stderr)
        results = []
    by_name = {r["op"]: r for r in results}
    for name, _ in operations({}):
        r = by_name.get(name)
        one.op(name, ["no result"] if r is None else r["problems"])
        one.digests.append(None if r is None else r["digest"])
    return one


def cli_setup(ctx: Context) -> tuple[Proc, list[str]]:
    proc = ctx.run(cli_argv(["--version"]), ctx.tmp)
    return proc, [] if proc.code == 0 and proc.out.strip() else [f"exited {proc.code}"]


def oracle_setup(ctx: Context) -> tuple[Proc, list[str]]:
    proc = ctx.run(oracle_argv(ctx.seed, "--setup-only"), ctx.tmp)
    return proc, [] if proc.code == 0 else [f"exited {proc.code}"]


# name -> (one pass, one set-up measurement); README.md says why each
WORKLOADS = {
    "verify-finite": (functools.partial(cli_pass, suites=VERIFY_FINITE, commands={}),
                      cli_setup),
    "line-cli": (functools.partial(cli_pass, suites=VERIFY_LINE,
                                   commands=LINE_COMMANDS),
                 cli_setup),
    "oracles-at-cap": (oracle_pass, oracle_setup),
}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)

    def count(self, one: Pass) -> None:
        self.attempted += one.attempted
        self.failed += one.failed


def measure(name: str, ctx: Context, seconds: int) -> Result:
    """Untraced: set-up SETUP_REPEATS times, then passes while they fit."""
    run_pass, setup = WORKLOADS[name]
    result = Result()
    setups = []
    for _ in range(SETUP_REPEATS):
        proc, problems = setup(ctx)
        setups.append(proc.wall)
        result.attempted += 1
        if problems:
            result.failed += 1
            print(f"FAILED set-up: {'; '.join(problems)}", file=sys.stderr)
    passes = []
    start = time.perf_counter()
    while True:
        one = run_pass(ctx, traced=False)
        passes.append(one)
        result.count(one)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds or one.failed:
            break
    result.metrics = {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(p.rss_mb for p in passes), "MB"),
    }
    print(f"{name}: set-up walls {[round(t, 4) for t in setups]}; "
          f"pass walls {[round(p.wall, 4) for p in passes]}")
    return result


def trace(name: str, ctx: Context) -> Result:
    """One untraced pass and one traced pass; per-layer metrics from the
    traced pass, and a determinism check between the two."""
    run_pass = WORKLOADS[name][0]
    result = Result()
    plain = run_pass(ctx, traced=False)
    traced = run_pass(ctx, traced=True)
    result.count(plain)
    result.count(traced)
    if plain.outputs is not None:
        problems = same_bytes(plain.outputs, traced.outputs)
    else:
        problems = [] if plain.digests == traced.digests else ["oracle outputs differ"]
    result.attempted += 1
    if problems:
        result.failed += 1
        print(f"FAILED determinism: {'; '.join(problems)}", file=sys.stderr)
    metrics = layer_metrics(traced.spans)
    bg = {}
    if traced.outputs is not None:
        report = traced.outputs / "reports" / "bg-duality.json"
        if report.exists():
            bg = json.loads(report.read_text(encoding="utf-8"))["summary"]
    metrics["suites.bg-duality.judged"] = (bg.get("judged", 0), "count")
    metrics["suites.bg-duality.redraws"] = (bg.get("redraws", 0), "count")
    metrics["trace.traced_wall_s"] = (traced.wall, "s")
    metrics["trace.untraced_wall_s"] = (plain.wall, "s")
    metrics["trace.overhead"] = (traced.wall / plain.wall if plain.wall else 0.0,
                                 "ratio")
    result.metrics = metrics
    return result


def _cpu_times() -> list[int] | None:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def run_record(workload: str, seed: int, steal: float | None) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "git_commit": _git_commit(), "src_lines": src_lines,
            "cpu_steal_share": steal}


def run_workload(name: str, args, env: dict, references: dict) -> Result:
    before = _cpu_times()
    tmp = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        ctx = Context(seed=args.seed, tmp=tmp, references=references, env=env,
                      deadline=time.monotonic() + DEADLINE_S)
        result = trace(name, ctx) if args.trace else measure(name, ctx, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    after = _cpu_times()
    steal = None
    if before and after and sum(after) > sum(before):
        steal = (after[7] - before[7]) / (sum(after) - sum(before))
    error_rate = result.failed / result.attempted if result.attempted else 1.0
    for metric, (value, unit) in result.metrics.items():
        print(f"  {name} {metric} = {value:.6g} {unit}")
    print(f"  {name} error_rate = {error_rate:.6g} fraction "
          f"({result.failed} failed / {result.attempted} attempted)")
    print("run record: " + json.dumps(run_record(name, args.seed, steal)))
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # a terminated run still stops its child and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "conc_toolkit" / "cli.py").is_file():
        print(f"error: no conc_toolkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    references = json.loads((REFERENCE / "summaries.json").read_text(encoding="utf-8"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = Result()
    for name in names:
        result = run_workload(name, args, env, references)
        total.attempted += result.attempted
        total.failed += result.failed
        for metric, value in result.metrics.items():
            total.metrics[metric if len(names) == 1 else f"{name}.{metric}"] = value
    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in total.metrics.items()},
    }))
    return 0 if total.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
