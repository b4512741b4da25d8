"""Span recorder for the traced benchmark runs.

The benchmark times the calls into each module's public functions from
outside the program: :meth:`Tracer.install` wraps ``scipy.optimize.linprog``
and registers an import hook that wraps the functions named in ``LAYERS``
as soon as their module has executed, before any other module imports
them by name.  It must therefore run before the first ``conc_toolkit``
import.  A span records its layer name, the span that was open when it
started (its parent), its start and end time, and an optional count.

Traced runs are single-threaded (``--jobs 1``), so one stack of open spans
gives each call's innermost wrapped caller.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import sys
import time

# module -> public functions (``Class.method`` for methods) timed as layers
LAYERS: dict[str, tuple[str, ...]] = {
    "costs": ("phi_p_eval", "legendre_numeric"),
    "measures": ("build_measure_1d", "derive_measure", "build_discrete_space",
                 "Measure1D.cdf", "Measure1D.sf", "Measure1D.quantile",
                 "Measure1D.quantile_upper", "Measure1D.mean",
                 "Measure1D.log_mgf_nodes"),
    "profiles": ("conc_profile", "iso_profile_1d", "fit_constant",
                 "iso_stability_transform", "conc_going_down",
                 "conc_to_iso_form"),
    "laplace": ("mean_zero_lipschitz_vertices", "laplace_sup_discrete"),
    "functional": ("logsob_constant_1d", "poincare_constant_1d"),
    "transport": ("wc_discrete_lp", "kr_dual", "first_moment_constant",
                  "te_constant_estimate", "wc_monotone_1d", "w1_1d",
                  "divergences"),
    "suites": ("run_suite",),
}

SUITE_IDS = ("going-down-exact", "w1-fm-exact", "te-jensen-pointwise",
             "iso-stability-shape", "logsob-stability", "w1-stability-chain",
             "conc-te-equiv", "te-equiv-shape", "hierarchy-gamma-p",
             "bg-duality")

LINPROG = "transport.linprog"


def _conc_profile_name(args, kwargs) -> str:
    # the two substrates run different code: 2^n enumeration or 1-D tails
    kind = type(args[0]).__name__ if args else ""
    return "profiles.conc_profile." + ("discrete" if kind == "DiscreteSpace"
                                       else "line")


def _suite_name(args, kwargs) -> str:
    return "suites." + (args[0] if args else kwargs["suite_id"])


def _linprog_count(args, kwargs, res) -> dict:
    options = kwargs.get("options") or {}
    return {"ok": bool(res.success),
            "presolve_off": options.get("presolve", True) is False}


def _vertex_count(args, kwargs, verts) -> dict:
    return {"vertices": int(len(verts))}


NAMERS = {"profiles.conc_profile": _conc_profile_name,
          "suites.run_suite": _suite_name}
COUNTERS = {"laplace.mean_zero_lipschitz_vertices": _vertex_count}


def layer_names() -> list[str]:
    """Every layer a traced run reports, in a fixed order (suites apart)."""
    names = [LINPROG]
    for module, attrs in LAYERS.items():
        for attr in attrs:
            name = f"{module}.{attr}"
            if name == "profiles.conc_profile":
                names += [name + ".discrete", name + ".line"]
            elif module != "suites":
                names.append(name)
    return names


class Tracer:
    """Keeps spans in memory; :meth:`dump` writes them when the run ends."""

    def __init__(self) -> None:
        # [name, parent index or -1, start, end, count dict or None]
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, fn, name, count=None):
        namer = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [namer(args, kwargs), self._open[-1] if self._open else -1,
                   time.perf_counter(), 0.0, None]
            self._open.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    rec[4] = count(args, kwargs, out)
                return out
            finally:
                self._open.pop()
                rec[3] = time.perf_counter()

        return traced

    def _wrap_module(self, module) -> None:
        short = module.__name__.rsplit(".", 1)[-1]
        for attr in LAYERS[short]:
            name = f"{short}.{attr}"
            owner = module
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            wrapped = self.wrap(getattr(owner, leaf), NAMERS.get(name, name),
                                COUNTERS.get(name))
            setattr(owner, leaf, wrapped)

    def install(self) -> None:
        """Wrap linprog and hook the toolkit's modules; call before the
        first ``conc_toolkit`` import."""
        if any(m == "conc_toolkit" or m.startswith("conc_toolkit.")
               for m in sys.modules):
            raise RuntimeError("install the tracer before importing conc_toolkit")
        import scipy.optimize

        scipy.optimize.linprog = self.wrap(scipy.optimize.linprog, LINPROG,
                                           _linprog_count)
        sys.meta_path.insert(0, _WrappingFinder(self))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


class _WrappingLoader(importlib.abc.Loader):
    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def create_module(self, spec):
        return self._inner.create_module(spec)

    def exec_module(self, module) -> None:
        self._inner.exec_module(module)
        self._tracer._wrap_module(module)


class _WrappingFinder(importlib.abc.MetaPathFinder):
    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def find_spec(self, fullname, path, target=None):
        package, _, short = fullname.rpartition(".")
        if package != "conc_toolkit" or short not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is not None:
            spec.loader = _WrappingLoader(spec.loader, self._tracer)
        return spec


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[1] >= 0:
            children.setdefault(rec[1], []).append((rec[2], rec[3]))
    out = []
    for idx, (_, _, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _ancestors(spans: list[list], idx: int):
    parent = spans[idx][1]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][1]


def layer_metrics(span_lists: list[list[list]]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the span lists of one traced pass, one list
    per traced process; every layer appears, with zeros where unused."""
    metrics: dict[str, tuple[float, str]] = {}
    for name in layer_names():
        metrics[f"{name}.calls"] = (0, "count")
        metrics[f"{name}.self_s"] = (0.0, "s")
    for sid in SUITE_IDS:
        metrics[f"suites.{sid}.wall_s"] = (0.0, "s")
        metrics[f"suites.{sid}.self_s"] = (0.0, "s")
        metrics[f"suites.{sid}.lp_calls"] = (0, "count")
    extra = {f"{LINPROG}.retries": 0, f"{LINPROG}.failed": 0,
             "transport.first_moment_constant.lp_calls": 0,
             "laplace.mean_zero_lipschitz_vertices.vertices": 0}

    def add(key: str, value: float) -> None:
        old, unit = metrics[key]
        metrics[key] = (old + value, unit)

    for spans in span_lists:
        selfs = self_times(spans)
        last_lp_failed = False
        for idx, (name, _, start, end, count) in enumerate(spans):
            if name.startswith("suites."):
                add(f"{name}.wall_s", end - start)
            else:
                add(f"{name}.calls", 1)
            add(f"{name}.self_s", selfs[idx])
            if name == LINPROG:
                ok = count is not None and count["ok"]
                extra[f"{LINPROG}.failed"] += not ok
                if last_lp_failed and count is not None and count["presolve_off"]:
                    extra[f"{LINPROG}.retries"] += 1
                last_lp_failed = not ok
                callers = list(_ancestors(spans, idx))
                if "transport.first_moment_constant" in callers:
                    extra["transport.first_moment_constant.lp_calls"] += 1
                suite = next((c for c in callers if c.startswith("suites.")), None)
                if suite is not None:
                    add(f"{suite}.lp_calls", 1)
            elif count is not None and "vertices" in count:
                extra["laplace.mean_zero_lipschitz_vertices.vertices"] += count["vertices"]
    for key, value in extra.items():
        metrics[key] = (value, "count")
    return metrics
