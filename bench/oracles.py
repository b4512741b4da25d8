"""The exact oracles at their size caps, each with a cross-check.

Usage: python3 bench/oracles.py --seed S [--setup-only] [--spans FILE]

Random finite spaces follow the recipe of the suites: Gaussian points in
the plane, Euclidean distances, weights U(0, 1) + 0.05, normalised.
Prints one JSON list with an entry per operation: its name, whether its
checks held, and a digest of its outputs for the determinism check.
``--setup-only`` stops after the import and the input generation.
numpy and the toolkit are imported inside the functions, so that with
``--spans`` the tracer is installed before the first toolkit import.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import traceback

TOL = 1e-9


def _space(rng, n: int):
    from conc_toolkit import build_discrete_space

    pts = rng.normal(size=(n, 2))
    d = ((pts[:, None] - pts[None]) ** 2).sum(-1) ** 0.5
    w = rng.random(n) + 0.05
    return build_discrete_space(d, w / w.sum())


def _probability(rng, n: int):
    w = rng.random(n) + 0.02
    return w / w.sum()


def make_inputs(seed: int) -> dict:
    import numpy as np

    rng = np.random.default_rng(seed)
    inputs = {f"conc{n}": _space(rng, n) for n in (18, 20, 22)}
    inputs["vert7"] = _space(rng, 7)
    inputs["nu7"] = _probability(rng, 7)
    inputs["fm8"] = _space(rng, 8)
    inputs["lp200"] = _space(rng, 200)
    inputs["nu200"] = _probability(rng, 200)
    return inputs


def _digest(*arrays) -> str:
    import numpy as np

    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def conc_exact(space, sampled_check: bool) -> tuple[list[str], str]:
    """Exact 2^n enumeration; its worst tails must be non-increasing in r
    and, where the sampled route runs too, dominate the sampled tails
    (compared as tails e^{-value}: the two routes disagree on when an
    accumulated tail of ~1e-16 counts as zero)."""
    import numpy as np
    from conc_toolkit import conc_profile

    prof = conc_profile(space)
    problems = []
    if not np.array_equal(prof.inputs, space.breakpoints()):
        problems.append("profile inputs are not the space's breakpoints")
    tails = np.exp(-prof.values)
    if np.any(np.diff(tails) > 1e-12):
        problems.append("exact worst tail increases with r")
    if sampled_check:
        sampled = np.exp(-conc_profile(space, exact=False).values)
        gap = float(np.max(sampled - tails))
        if gap > 1e-12:
            problems.append(f"sampled tail exceeds exact tail by {gap:.3g}")
    return problems, _digest(prof.inputs, prof.values)


def vertices_vs_lp(space, nu) -> tuple[list[str], str]:
    """W_1 by LP against the maximum of <f, nu - mu> over the vertices of
    the mean-zero Lipschitz polytope (Kantorovich-Rubinstein duality)."""
    import numpy as np
    from conc_toolkit import w1_discrete
    from conc_toolkit.laplace import mean_zero_lipschitz_vertices

    mu = space.weights
    verts = mean_zero_lipschitz_vertices(space, mu)
    problems = []
    stretch = np.abs(verts[:, :, None] - verts[:, None, :]) - space.dist
    if float(stretch.max()) > TOL:
        problems.append(f"vertex breaks the Lipschitz bound by {stretch.max():.3g}")
    if float(np.abs(verts @ mu).max()) > TOL:
        problems.append("vertex is not mean-zero")
    w1 = w1_discrete(space, nu, mu)
    best = float(np.max(verts @ (nu - mu)))
    if abs(w1 - best) > TOL:
        problems.append(f"W1 LP {w1!r} != vertex maximum {best!r}")
    return problems, _digest(verts, [w1])


def first_moment_witness(space) -> tuple[list[str], str]:
    """The exact first-moment witness must be 1-Lipschitz and attain the
    reported value: int |f| dmu == one_over_d (its median is 0)."""
    import numpy as np
    from conc_toolkit import first_moment_constant

    entry = first_moment_constant(space)
    f = np.asarray(entry.witnesses["f"], dtype=float)
    value = entry.witnesses["one_over_d"]
    problems = []
    stretch = float(np.max(f[:, None] - f[None, :] - space.dist))
    if stretch > TOL:
        problems.append(f"witness breaks the Lipschitz bound by {stretch:.3g}")
    attained = float(np.dot(np.abs(f), space.weights))
    if not math.isclose(attained, value, rel_tol=TOL):
        problems.append(f"int |f| dmu = {attained!r} != one_over_d {value!r}")
    return problems, _digest(f, [value])


def transport_duality(space, nu) -> tuple[list[str], str]:
    """Transport LP primal against the Kantorovich-Rubinstein dual LP."""
    from conc_toolkit import kr_dual, wc_discrete_lp

    mu = space.weights
    plan = wc_discrete_lp(space, nu, mu)
    dual = kr_dual(space, nu, mu)
    problems = []
    if abs(plan.cost - dual.dual) > TOL:
        problems.append(f"primal {plan.cost!r} - dual {dual.dual!r} exceeds {TOL}")
    if plan.marginal_residual > TOL:
        problems.append(f"plan marginal residual {plan.marginal_residual:.3g}")
    return problems, _digest(plan.rows, plan.cols, plan.mass, [plan.cost, dual.dual])


def operations(inputs: dict) -> list[tuple[str, object]]:
    # the sampled cross-check runs where it is cheapest (n = 18); at
    # n = 20 and 22 it would add about 12 s to each pass
    return [
        ("conc_profile.exact.n18", lambda: conc_exact(inputs["conc18"], True)),
        ("conc_profile.exact.n20", lambda: conc_exact(inputs["conc20"], False)),
        ("conc_profile.exact.n22", lambda: conc_exact(inputs["conc22"], False)),
        ("mean_zero_lipschitz_vertices.n7",
         lambda: vertices_vs_lp(inputs["vert7"], inputs["nu7"])),
        ("first_moment_constant.exact.n8",
         lambda: first_moment_witness(inputs["fm8"])),
        ("wc_discrete_lp.kr_dual.n200",
         lambda: transport_duality(inputs["lp200"], inputs["nu200"])),
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="trace the run and write its spans here")
    args = ap.parse_args()
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        inputs = make_inputs(args.seed)
        if args.setup_only:
            return 0
        results = []
        for name, op in operations(inputs):
            try:
                problems, digest = op()
            except Exception:  # one failed oracle must not hide the others
                traceback.print_exc()
                problems, digest = ["raised"], None
            results.append({"op": name, "problems": problems, "digest": digest})
        print(json.dumps(results))
        return 0
    finally:
        if tracer is not None:
            tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
