"""Command line front end: runs the library pipelines and writes JSON reports.

Every report uses one schema: {"command", "config", "results", "checks"} with
checks = [{"name", "pass", "detail"}]. Rationals are serialized as "p/q"
strings and every Monte Carlo number travels with its error estimate. Reports
are written atomically and contain no timestamps, so identical configuration
(seed included) reproduces the file byte for byte.

Exit codes: 0 all checks passed, 1 some check failed, 2 usage error,
3 resource limit hit (a partial report is still written).
"""

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, asdict
from fractions import Fraction

USAGE_ERROR = 2
LIMIT_ERROR = 3

COMMANDS = (
    "enumerate", "cohomology", "sder", "div-check", "associator",
    "flatness", "aw-test", "transport-test", "report",
)
NUMERIC_COMMANDS = {"associator", "flatness"}


class UsageError(Exception):
    pass


class ResourceLimit(Exception):
    """Raised when the graph budget runs out; carries nothing, the partial
    results live in the runner's accumulator."""


@dataclass
class RunConfig:
    command: str
    n: int = 3
    max_weight: int = 2
    weight: int | None = None
    trunc: int = 2
    samples: int = 1_000_000
    seed: int | None = None
    out: str | None = None
    limit_graphs: int | None = None
    threads: int = 1

    def validate(self):
        counts = {
            "n": self.n, "max-weight": self.max_weight, "trunc": self.trunc,
            "samples": self.samples, "threads": self.threads,
        }
        if self.weight is not None:
            counts["weight"] = self.weight
        if self.limit_graphs is not None:
            counts["limit-graphs"] = self.limit_graphs
        for name, value in counts.items():
            if value < 1:
                raise UsageError(f"--{name} must be positive, got {value}")
        if self.command in NUMERIC_COMMANDS and self.seed is None:
            raise UsageError(f"{self.command} samples randomly: --seed is required")
        if self.command == "flatness" and self.n < 2:
            raise UsageError(f"flatness needs --n >= 2 points, got {self.n}")


class GraphBudget:
    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self, count):
        self.used += count
        if self.limit is not None and self.used > self.limit:
            raise ResourceLimit


def _jsonable(obj):
    """Restrict report payloads to plain data; rationals become strings."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if type(obj).__module__ == "numpy":
        # numpy scalars, recognised without importing numpy
        return obj.item()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"not serializable for a report: {type(obj).__name__}")


def emit_report(command, config, results, checks, path, partial=False):
    report = {
        "command": command,
        "config": _jsonable(config),
        "results": _jsonable(results),
        "checks": [
            {"name": c["name"], "pass": bool(c["pass"]),
             "detail": _jsonable(c.get("detail", {}))}
            for c in checks
        ],
    }
    if partial:
        report["partial"] = True
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return report


# ---------------------------------------------------------------------------
# command runners; each returns (results, checks) and may raise ResourceLimit
# after stashing partial output in the passed-in accumulators


def _weight_range(cfg):
    if cfg.weight is not None:
        return [cfg.weight]
    return list(range(1, cfg.max_weight + 1))


def run_enumerate(cfg, results, checks):
    from .cohomology import admissible_graphs, ic_graphs

    budget = GraphBudget(cfg.limit_graphs)
    results["n"] = cfg.n
    results["weights"] = {}
    results["count"] = 0
    for w in _weight_range(cfg):
        ic = ic_graphs(cfg.n, w)
        adm = admissible_graphs(cfg.n, w)
        total = sum(len(v) for v in adm.values())
        budget.spend(total)
        results["weights"][str(w)] = {
            "internally_connected": sum(len(v) for v in ic.values()),
            "admissible": total,
            "by_internal_vertices": {str(m): len(v) for m, v in sorted(adm.items())},
        }
        results["count"] += sum(len(v) for v in ic.values())


def run_cohomology(cfg, results, checks):
    from .braids import tn_dimension
    from .cohomology import admissible_graphs, check_d_squared, h_cg_dimensions

    budget = GraphBudget(cfg.limit_graphs)
    results["n"] = cfg.n
    results["dimensions"] = {}
    results["oracle"] = {}
    for w in _weight_range(cfg):
        budget.spend(sum(len(v) for v in admissible_graphs(cfg.n, w).values()))
        d2 = check_d_squared(cfg.n, w)
        dims = h_cg_dimensions(cfg.n, w)
        oracle = tn_dimension(cfg.n, w)
        results["dimensions"][str(w)] = {str(k): v for k, v in sorted(dims.items())}
        results["oracle"][str(w)] = oracle
        checks.append({"name": f"d_squared_w{w}",
                       "pass": all(d2.values()), "detail": d2})
        match = dims.get(0, 0) == oracle and all(
            v == 0 for k, v in dims.items() if k != 0)
        checks.append({
            "name": f"drinfeld_kohno_w{w}", "pass": match,
            "detail": {"degree0": dims.get(0, 0), "oracle": oracle,
                       "other_degrees": {str(k): v for k, v in dims.items() if k}},
        })


def run_sder(cfg, results, checks):
    from .braids import sder_dimension, sder_embedding_rank, tn_dimension
    from .cohomology import tree_basis, tree_complex_h0

    budget = GraphBudget(cfg.limit_graphs)
    results["n"] = cfg.n
    results["tree_h0"] = {}
    for w in _weight_range(cfg):
        budget.spend(len(tree_basis(cfg.n, w, w - 1)))
        dim0 = tree_complex_h0(cfg.n, w)[0]
        target = sder_dimension(cfg.n, w)
        rank = sder_embedding_rank(cfg.n, w)
        tdim = tn_dimension(cfg.n, w)
        results["tree_h0"][str(w)] = {"dimension": dim0, "sder_oracle": target,
                                      "embedding_rank": rank, "t_dimension": tdim}
        checks.append({"name": f"tree_h0_w{w}", "pass": dim0 == target,
                       "detail": {"dimension": dim0, "oracle": target}})
        checks.append({"name": f"t_injective_w{w}", "pass": rank == tdim,
                       "detail": {"rank": rank, "t_dimension": tdim}})


def run_div_check(cfg, results, checks):
    from .cohomology import div_factorization_check, tree_basis

    budget = GraphBudget(cfg.limit_graphs)
    results["n"] = cfg.n
    results["blocks"] = {}
    for w in _weight_range(cfg):
        if w < 2:
            continue
        budget.spend(len(tree_basis(cfg.n, w, w - 1)))
        rep = div_factorization_check(cfg.n, w, limit=cfg.limit_graphs)
        results["blocks"][str(w)] = {
            "classes": rep["classes"],
            "global_sign": rep["global_sign"],
            "well_defined": rep["well_defined"],
            "ihx_maps_to_zero": rep["ihx_maps_to_zero"],
            "per_class_signs": [r["sign"] for r in rep["results"]],
        }
        checks.append({"name": f"div_factors_w{w}", "pass": rep["pass"],
                       "detail": results["blocks"][str(w)]})


def _hexagon_residual(c):
    """Max |coefficient| of the weight-2 hexagon residuals for 1 + c[t13,t23]."""
    from .braids import EnvElt, TnElt, hexagon_residuals, tn_to_env

    series = TnElt(3, {(3, (1, 2)): Fraction(c)})
    phi = EnvElt.unit(3, 2) + tn_to_env(series, 2)
    worst = 0.0
    for res in hexagon_residuals(phi):
        part = res.weight_part(2)
        for val in part.coeffs.values():
            worst = max(worst, abs(float(val)))
    return worst


def run_associator(cfg, results, checks):
    from .forms import at_associator

    if cfg.trunc != 2:
        raise UsageError("associator truncation beyond weight 2 is not supported")
    rep = at_associator(samples=cfg.samples, seed=cfg.seed)
    results.update(rep)
    c = rep["weights"]["2"]["coeff"]
    stderr = rep["weights"]["2"]["stderr"]
    checks.append({"name": "weight1_zero",
                   "pass": all(v == 0.0 for v in rep["weights"]["1"]),
                   "detail": {"coeffs": rep["weights"]["1"]}})
    target = 1.0 / 24.0
    checks.append({
        "name": "weight2_magnitude",
        "pass": abs(abs(c) - target) < 5e-3,
        "detail": {"coeff": c, "stderr": stderr, "oracle_magnitude": target,
                   "gap": abs(abs(c) - target)},
    })
    # the hexagons fix the sign convention as well, so try both orientations
    plus, minus = _hexagon_residual(c), _hexagon_residual(-c)
    best = min(plus, minus)
    results["hexagon"] = {"residual_as_is": plus, "residual_flipped": minus,
                          "orientation": "as-is" if plus <= minus else "flipped"}
    checks.append({"name": "hexagon_weight2", "pass": best < 1e-2,
                   "detail": results["hexagon"]})
    checks.append({"name": "grouplike", "pass": rep["grouplike"], "detail": {}})


def _interior_configs(n, seed, count=10):
    """Well separated pseudo-random point clouds, reproducible from the seed."""
    import numpy as np

    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        pts = rng.standard_normal((n, 2))
        dists = [np.hypot(*(pts[a] - pts[b]))
                 for a in range(n) for b in range(a + 1, n)]
        if min(dists) > 0.25 * max(dists):
            out.append(pts)
    return out


def run_flatness(cfg, results, checks):
    from .forms import flatness_residual

    cfgs = _interior_configs(cfg.n, cfg.seed)
    reports = flatness_residual(cfgs, n=cfg.n, samples=cfg.samples, seed=cfg.seed)
    results["n"] = cfg.n
    results["configurations"] = reports
    for i, rep in enumerate(reports):
        checks.append({"name": f"flatness_cfg{i}", "pass": rep["pass"],
                       "detail": rep})
    checks.append({
        "name": "budget_cap",
        "pass": all(rep["budget"] <= 5e-2 for rep in reports),
        "detail": {"worst_budget": max(rep["budget"] for rep in reports)},
    })


def run_aw_test(cfg, results, checks):
    import random

    from . import transport as tr

    seed = cfg.seed if cfg.seed is not None else 0
    lemma_ok = True
    pairs = {}
    for m in range(4):
        for n in range(4):
            rep = tr.shuffle_lemma_report(m, n)
            pairs[f"{m},{n}"] = rep["size"]
            lemma_ok = lemma_ok and rep["ok"]
    results["shuffle_tables"] = pairs
    checks.append({"name": "shuffle_lemma_3_3", "pass": lemma_ok,
                   "detail": {"pairs": len(pairs)}})

    cap = 3
    left = tr.standard_simplex_module(1, cap)
    right = tr.twist_module(tr.standard_simplex_module(1, cap), seed + 11)
    bi = tr.box_product(left, right)
    rng = random.Random(seed)
    projs = {(p, q): tr.bidegree_complement_projector(bi, p, q)
             for p in range(cap + 1) for q in range(cap + 1 - p)}
    round_ok = True
    for p in range(cap + 1):
        for q in range(cap + 1 - p):
            vec = tr._random_vec(bi.dim(p, q), rng)
            back = tr.aw_map(bi, p + q, tr.shuffle_map(bi, p, q, vec))
            for (pp, qq), v in back.items():
                proj = projs[(pp, qq)]
                want = proj.apply(vec) if (pp, qq) == (p, q) else {}
                round_ok = round_ok and tr._vec_eq(proj.apply(v), want)
    checks.append({"name": "aw_sh_normalized_identity", "pass": round_ok,
                   "detail": {"levels": cap}})

    a_mod = tr.box_product(left, tr.twist_module(left, seed + 21))
    b_mod = tr.box_product(tr.twist_module(left, seed + 31), right)
    mono = {}
    mono_ok = True
    for m, n in [(1, 1), (2, 1), (1, 2)]:
        rep = tr.monoidal_aw_check(a_mod, b_mod, m, n, seed=seed + 7 * m + n)
        mono[f"{m},{n}"] = rep["ok"]
        mono_ok = mono_ok and rep["ok"]
    results["monoidal"] = mono
    checks.append({"name": "monoidal_identity", "pass": mono_ok, "detail": mono})


def run_transport_test(cfg, results, checks):
    from . import transport as tr

    seed = cfg.seed if cfg.seed is not None else 0
    nil = min(cfg.trunc, 3)

    for dim in (1, 2):
        conn = tr.flat_family(dim, 0, 2, nil, seed + dim)
        rep = tr.k_boundary_report(conn)
        checks.append({"name": f"k_chain_map_dim{dim}", "pass": rep["ok"],
                       "detail": {"terms": rep.get("terms", 0)}})
        rep = tr.t_face_report(conn)
        checks.append({"name": f"t_faces_dim{dim}", "pass": rep["ok"],
                       "detail": {"faces": rep.get("faces", 0)}})

    ode = tr.holonomy_ode_report(tr.flat_family(2, 1, 2, 2, seed + 5))
    checks.append({"name": "holonomy_ode", "pass": ode["ok"], "detail": {}})

    psi_stats = {}
    for dim in (1, 2):
        conn = tr.flat_family(dim, 1, 2, 2, seed + 8 + dim)
        rep = tr.psi_boundary_check(conn)
        psi_stats[str(dim)] = rep["psi_terms"]
        checks.append({
            "name": f"psi_boundary_dim{dim}",
            "pass": rep["ok"] and rep["ode_ok"],
            "detail": {"residual_terms": rep["residual_terms"],
                       "psi_terms": rep["psi_terms"]},
        })
    results["psi_terms"] = psi_stats
    results["truncation"] = nil


def run_report(cfg, results, checks):
    """One-shot exact battery: every non-sampling pipeline at the given sizes."""
    sections = (
        ("enumerate", run_enumerate),
        ("cohomology", run_cohomology),
        ("sder", run_sder),
        ("div-check", run_div_check),
        ("aw-test", run_aw_test),
        ("transport-test", run_transport_test),
    )
    for name, runner in sections:
        sub_results = {}
        sub_checks = []
        runner(cfg, sub_results, sub_checks)
        results[name] = sub_results
        for c in sub_checks:
            checks.append({"name": f"{name}:{c['name']}", "pass": c["pass"],
                           "detail": c.get("detail", {})})


RUNNERS = {
    "enumerate": run_enumerate,
    "cohomology": run_cohomology,
    "sder": run_sder,
    "div-check": run_div_check,
    "associator": run_associator,
    "flatness": run_flatness,
    "aw-test": run_aw_test,
    "transport-test": run_transport_test,
    "report": run_report,
}


# ---------------------------------------------------------------------------
# argument and config-file handling


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="braidcomplex",
        description="graph complex, associator, and transport pipelines",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--max-weight", type=int, default=None)
        p.add_argument("--weight", type=int, default=None)
        p.add_argument("--trunc", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--limit-graphs", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--config", default=None,
                       help="key=value defaults file; explicit flags win")
    return parser


def _load_config_file(path):
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


_INT_KEYS = {"n", "max_weight", "weight", "trunc", "samples", "seed",
             "limit_graphs", "threads"}


def resolve_config(args):
    merged = {}
    if args.config:
        for key, value in _load_config_file(args.config).items():
            if key not in _INT_KEYS and key != "out":
                raise UsageError(f"unknown config key: {key}")
            merged[key] = int(value) if key in _INT_KEYS else value
    for key in list(_INT_KEYS) + ["out"]:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    cfg = RunConfig(command=args.command)
    for key, value in merged.items():
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else 0
    try:
        cfg = resolve_config(args)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    results = {}
    checks = []
    partial = False
    try:
        RUNNERS[cfg.command](cfg, results, checks)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ResourceLimit:
        partial = True

    out = cfg.out or f"{cfg.command}.json"
    config_dict = {k: v for k, v in asdict(cfg).items() if v is not None}
    emit_report(cfg.command, config_dict, results, checks, out, partial=partial)
    passed = sum(1 for c in checks if c["pass"])
    print(f"{cfg.command}: {passed}/{len(checks)} checks passed -> {out}")
    if partial:
        return LIMIT_ERROR
    return 0 if passed == len(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
