"""Numerical evaluation of graph forms on planar configurations.

Angle forms are evaluated exactly; fiber integrals over internal vertex positions
use importance-sampled Monte Carlo with planar Cauchy proposals. All estimates are
deterministic given (seed, samples): sampling is chunked with per-chunk derived
seeds and a fixed reduction order, so thread count can never change a result.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .braids import EnvElt, TnElt, grouplike_check, tn_to_env
from .cohomology import class_in_t, ic_graphs
from .graphs import CanonicalGraph, GraphVector

CHUNK = 65536
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class MCEstimate:
    """A Monte-Carlo value with its standard error and provenance."""

    value: float
    stderr: float
    samples: int
    seed: int


def as_config(points, eps_sep: float = 1e-9) -> np.ndarray:
    """Validate a planar configuration: shape (n, 2), pairwise separated."""
    cfg = np.asarray(points, dtype=float)
    if cfg.ndim != 2 or cfg.shape[1] != 2:
        raise ValueError("configuration must be n points in the plane")
    if not np.all(np.isfinite(cfg)):
        raise ValueError("configuration has non-finite entries")
    n = cfg.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if math.hypot(*(cfg[i] - cfg[j])) <= eps_sep:
                raise ValueError(f"points {i + 1} and {j + 1} coincide")
    return cfg


def _diameter(cfg: np.ndarray) -> float:
    n = cfg.shape[0]
    best = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            best = max(best, math.hypot(*(cfg[i] - cfg[j])))
    return best


def angle_form_eval(cfg, a: int, b: int, v) -> float:
    """Value of dArg(z_a - z_b)/2pi on the velocity v."""
    cfg = as_config(cfg)
    v = np.asarray(v, dtype=float)
    if v.shape != cfg.shape:
        raise ValueError("velocity shape must match the configuration")
    if a == b:
        raise ValueError("angle form needs two distinct points")
    w = cfg[a - 1] - cfg[b - 1]
    u = v[a - 1] - v[b - 1]
    r2 = float(w[0] * w[0] + w[1] * w[1])
    return float(w[0] * u[1] - w[1] * u[0]) / (TWO_PI * r2)


def _column_velocities(g: CanonicalGraph, args) -> np.ndarray:
    """Constant per-column velocity differences, shape (E, C, 2).

    Columns are the 2m fiber directions (internal vertex ascending, x before y)
    followed by the supplied tangent arguments lifted with zero fiber velocity.
    """
    n, m = g.n_ext, g.n_int
    edges = g.edges
    ncols = 2 * m + len(args)
    u = np.zeros((len(edges), ncols, 2))
    for e, (x, y) in enumerate(edges):
        for t in range(m):
            vtx = n + 1 + t
            s = (1.0 if x == vtx else 0.0) - (1.0 if y == vtx else 0.0)
            if s:
                u[e, 2 * t, 0] = s
                u[e, 2 * t + 1, 1] = s
        for k, arg in enumerate(args):
            va = arg[x - 1] if x <= n else np.zeros(2)
            vb = arg[y - 1] if y <= n else np.zeros(2)
            u[e, 2 * m + k] = va - vb
    return u


def _batch_det(mat: np.ndarray) -> np.ndarray:
    """Determinants of a (k, E, E) stack; explicit cofactors for tiny E."""
    e = mat.shape[1]
    if e == 1:
        return mat[:, 0, 0]
    if e == 2:
        return mat[:, 0, 0] * mat[:, 1, 1] - mat[:, 0, 1] * mat[:, 1, 0]
    if e == 3:
        return (
            mat[:, 0, 0] * (mat[:, 1, 1] * mat[:, 2, 2] - mat[:, 1, 2] * mat[:, 2, 1])
            - mat[:, 0, 1] * (mat[:, 1, 0] * mat[:, 2, 2] - mat[:, 1, 2] * mat[:, 2, 0])
            + mat[:, 0, 2] * (mat[:, 1, 0] * mat[:, 2, 1] - mat[:, 1, 1] * mat[:, 2, 0])
        )
    return np.linalg.det(mat)


def _cauchy_draws(rng, k: int, m: int):
    """The configuration-free part of k Cauchy samples for m internal vertices.

    Returns the radius at unit scale and the direction's cosine and sine, each
    of shape (k, m); `_chunk_moments` scales and centres them per configuration.
    """
    upt = rng.random((k, m))
    theta = rng.random((k, m)) * TWO_PI
    return np.sqrt(1.0 / (1.0 - upt) ** 2 - 1.0), np.cos(theta), np.sin(theta)


def _chunk_moments(cfg, center, scale: float, draws, edges, fiber_u, arg_u, orient: float):
    """Sum, sum of squares and mean of the weighted integrand over one chunk.

    The proposal, the edge vectors and the fiber columns of the determinant are
    built once for the configuration; each argument set then fills its own
    columns and takes one determinant. The matrices are stored entry-major,
    shape (E, E, k), so every entry is one contiguous run of k samples;
    `_batch_det` reads them through a (k, E, E) view. Returns one triple per
    argument set.
    """
    radial, cos, sin = draws
    k, m = radial.shape
    r = scale * radial
    dens = np.prod(scale / (TWO_PI * (r * r + scale * scale) ** 1.5), axis=1)
    px = center[0] + r * cos
    py = center[1] + r * sin
    xs = list(cfg[:, 0]) + [px[:, t] for t in range(m)]
    ys = list(cfg[:, 1]) + [py[:, t] for t in range(m)]
    rows = []
    for a, b in edges:
        wx = xs[a] - xs[b]
        wy = ys[a] - ys[b]
        rows.append((wx, wy, TWO_PI * (wx * wx + wy * wy)))
    nf = fiber_u.shape[1]
    mat = np.empty((len(edges), nf + arg_u[0].shape[1], k))

    def fill(u, first):
        for e, (wx, wy, den) in enumerate(rows):
            for c in range(u.shape[1]):
                mat[e, first + c] = (wx * u[e, c, 1] - wy * u[e, c, 0]) / den

    fill(fiber_u, 0)
    stack = mat.transpose(2, 0, 1)
    out = []
    for u in arg_u:
        fill(u, nf)
        vals = orient * _batch_det(stack) / dens
        out.append((float(vals.sum()), float((vals * vals).sum()), float(vals.mean())))
    return out


def _fiber_integrals(g: CanonicalGraph, cfgs, argsets, samples: int, seed: int):
    """Monte-Carlo fiber integrals of one graph form at several configurations
    and for several argument sets, all on one stream of draws.

    Chunk c of `samples` draws its uniforms from SeedSequence([seed, c]) once;
    every configuration maps them through its own Cauchy proposal (centred at
    its mean, scaled by its diameter). A one-configuration, one-argument call
    therefore sees exactly the draws it would see alone, and every matrix entry
    and every whole-chunk reduction is the same arithmetic, so batching changes
    no bit of any estimate. Configurations and arguments are taken as
    validated. Returns, per configuration, one (MCEstimate, chunk means) pair
    per argument set.
    """
    m = g.n_int
    ucols = [_column_velocities(g, args) for args in argsets]
    if m == 0:
        # no fiber: the form is the determinant of the E x E angle-form matrix
        ends = np.array(g.edges, dtype=int).reshape(-1, 2) - 1
        out = []
        for cfg in cfgs:
            w = cfg[ends[:, 0]] - cfg[ends[:, 1]]
            den = (TWO_PI * (w[:, 0] * w[:, 0] + w[:, 1] * w[:, 1]))[:, None]
            mats = [(w[:, None, 0] * u[:, :, 1] - w[:, None, 1] * u[:, :, 0]) / den for u in ucols]
            out.append([
                (MCEstimate(float(_batch_det(mat[None])[0]), 0.0, 0, seed), np.zeros(0))
                for mat in mats
            ])
        return out

    # the fiber columns do not depend on the arguments
    fiber_u = ucols[0][:, : 2 * m]
    arg_u = [u[:, 2 * m:] for u in ucols]
    proposals = []
    for cfg in cfgs:
        scale = _diameter(cfg)
        proposals.append((cfg.mean(axis=0), scale if scale >= 1e-12 else 1.0))
    orient = -1.0 if m % 2 else 1.0
    edges = [(a - 1, b - 1) for a, b in g.edges]
    # moments[config][argument set] = one (sum, square sum, mean) per chunk
    moments = [[[] for _ in argsets] for _ in cfgs]
    done = 0
    chunk_index = 0
    while done < samples:
        k = min(CHUNK, samples - done)
        rng = np.random.default_rng(np.random.SeedSequence([seed, chunk_index]))
        draws = _cauchy_draws(rng, k, m)
        for cfg, (center, scale), acc in zip(cfgs, proposals, moments):
            parts = _chunk_moments(cfg, center, scale, draws, edges, fiber_u, arg_u, orient)
            for chunks, part in zip(acc, parts):
                chunks.append(part)
        done += k
        chunk_index += 1
    out = []
    for acc in moments:
        row = []
        for chunks in acc:
            sums, sqsums, means = zip(*chunks)
            total = math.fsum(sums)
            var = max(math.fsum(sqsums) - total * total / samples, 0.0)
            stderr = math.sqrt(var / (samples - 1) / samples) if samples > 1 else float("inf")
            row.append((MCEstimate(total / samples, stderr, samples, seed), np.array(means)))
        out.append(row)
    return out


def graph_form_eval(
    g: CanonicalGraph,
    cfg,
    args,
    samples: int = 100_000,
    seed: int = 0,
    return_chunks: bool = False,
):
    """Monte-Carlo estimate of the fiber-integrated graph form on the arguments.

    Rows of the determinant follow the canonical edge order; columns are fiber
    directions then arguments, with the fiber oriented so that the structure
    equation dA + [A, A]/2 = 0 holds for the assembled connection (a factor
    (-1)^m relative to the per-vertex dx dy order). If the number of arguments
    does not match the form degree the result is identically zero and no
    sampling happens.

    The draws depend on (seed, chunk index) only, not on the configuration or
    the arguments: calls with one seed at different configurations share their
    uniforms (common random numbers), and this is the one-configuration,
    one-argument case of `_fiber_integrals`, which evaluates many at once.
    """
    cfg = as_config(cfg)
    if g.n_ext != cfg.shape[0]:
        raise ValueError("configuration size does not match the graph")
    args = [np.asarray(a, dtype=float) for a in args]
    for a in args:
        if a.shape != cfg.shape:
            raise ValueError("argument shape must match the configuration")
    if len(args) != g.star_degree:
        est, chunks = MCEstimate(0.0, 0.0, 0, seed), np.zeros(0)
    elif g.n_int and samples < 1:
        raise ValueError("sampling needs a positive sample count")
    else:
        est, chunks = _fiber_integrals(g, [cfg], [args], samples, seed)[0][0]
    return (est, chunks) if return_chunks else est


# ---------------------------------------------------------------------------
# the connection

@lru_cache(maxsize=None)
def _weight2_classes(n: int):
    """Star-degree-1 weight-2 graphs with their degree-0 coordinates."""
    out = []
    for gs in ic_graphs(n, 2).values():
        for g in gs:
            if g.star_degree == 1:
                cls = class_in_t(GraphVector.single(g))
                out.append((g, dict(cls.coeffs)))
    return tuple(out)


def connection_eval(n: int, trunc: int, cfg, v, samples: int = 100_000, seed: int = 0):
    """Evaluate the flat connection on one tangent vector, truncated by weight.

    Returns {1: {key: float}, 2: {key: MCEstimate}} in the tower basis; the
    weight-1 part is exact, the weight-2 part is one fiber integral per graph.
    """
    if not 1 <= trunc <= 2:
        raise ValueError("supported truncation is weight 1 or 2")
    cfg = as_config(cfg)
    v = np.asarray(v, dtype=float)
    out: dict[int, dict] = {1: {}}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            key = (b, (a,))
            out[1][key] = angle_form_eval(cfg, a, b, v)
    if trunc >= 2:
        out[2] = {}
        for i, (g, coords) in enumerate(_weight2_classes(n)):
            est = graph_form_eval(g, cfg, [v], samples=samples, seed=seed + 7919 * i)
            for key, c in coords.items():
                prev = out[2].get(key)
                add = est.value * float(c)
                err = abs(float(c)) * est.stderr
                if prev is None:
                    out[2][key] = MCEstimate(add, err, est.samples, seed)
                else:
                    out[2][key] = MCEstimate(
                        prev.value + add,
                        math.hypot(prev.stderr, err),
                        prev.samples + est.samples,
                        seed,
                    )
    return out


def _fd_weight2_coeffs(n, plus, minus, h):
    """Central difference of the weight-2 coefficients along one coordinate move.

    `plus` and `minus` hold, per weight-2 class, the (estimate, chunk means)
    pair of its fiber integral at the two displaced configurations. Common
    random numbers: `flatness_residual` takes all displaced configurations of
    one class in one `_fiber_integrals` call, so both sides use the same draws,
    the correlated noise cancels in the difference, and the spread comes from
    the chunk means of the differences. The step must stay large enough that
    samples near a moving external are a routine part of every chunk rather
    than rare huge outliers; h around 1e-2 of the diameter keeps the difference
    variance finite.
    """
    diff: dict = {}
    err: dict = {}
    for (g, coords), (ep, chp), (em, chm) in zip(_weight2_classes(n), plus, minus):
        if len(chp) > 1:
            per_chunk = (chp - chm) / (2 * h)
            d = float(np.mean(per_chunk))
            spread = float(np.std(per_chunk, ddof=1)) / math.sqrt(len(per_chunk))
        else:
            d = (ep.value - em.value) / (2 * h)
            spread = (ep.stderr + em.stderr) / (2 * h)
        for key, c in coords.items():
            diff[key] = diff.get(key, 0.0) + d * float(c)
            err[key] = math.hypot(err.get(key, 0.0), spread * abs(float(c)))
    return diff, err


def flatness_residual(
    cfgs,
    n: int = 3,
    h_rel: float = 1e-2,
    samples: int = 100_000,
    seed: int = 0,
    budget_cap: float = 5e-2,
):
    """Residual of dA + [A, A]/2 = 0 on coordinate bivectors, with error budget.

    The weight-1 identity is exact up to finite-difference error; the weight-2
    residual combines the differenced weight-2 form with the exact weight-1
    bracket term. The budget is propagated MC error plus a step-doubling gap.

    Per configuration, each weight-2 class is integrated once, by one
    `_fiber_integrals` call over the 4 * 2n displaced configurations (steps
    +-h and +-2h along every coordinate) and the 2n unit arguments; every
    coordinate pair then reads its differences from that table.
    """
    from .braids import tn_bracket

    units = []
    for p in range(n):
        for ax in (0, 1):
            e = np.zeros((n, 2))
            e[p, ax] = 1.0
            units.append(e)
    nc = len(units)
    classes = _weight2_classes(n)

    def a1(c, arg):
        # weight 1: the exact angle coefficients
        return connection_eval(n, 1, c, arg, 0, seed)[1]

    reports = []
    for cfg in cfgs:
        cfg = as_config(cfg)
        h = h_rel * max(_diameter(cfg), 1.0)
        steps = (h, 2 * h)
        # displaced[2 * (s * nc + i) + {0, 1}] = cfg +- steps[s] * units[i]
        displaced = [
            as_config(d)
            for step in steps for e in units for d in (cfg + step * e, cfg - step * e)
        ]
        table = [
            _fiber_integrals(g, displaced, [[e] for e in units], samples, seed + 7919 * i)
            for i, (g, _) in enumerate(classes)
        ]

        def fd(s, i, j):
            """Differenced weight-2 coefficients along units[i] on units[j], step index s."""
            at = 2 * (s * nc + i)
            return _fd_weight2_coeffs(
                n, [t[at][j] for t in table], [t[at + 1][j] for t in table], steps[s]
            )

        at_cfg = [a1(cfg, e) for e in units]
        moved = {
            (i, j): (a1(cfg + h * e_i, e_j), a1(cfg - h * e_i, e_j))
            for i, e_i in enumerate(units)
            for j, e_j in enumerate(units)
            if i != j
        }
        res1 = 0.0
        res2 = 0.0
        noise = 0.0
        gap = 0.0
        for ii in range(nc):
            for jj in range(ii + 1, nc):
                # weight 1: d of the exact angle coefficients, no bracket term
                da1 = {}
                for key in at_cfg[jj]:
                    pp = moved[ii, jj][0][key] - moved[ii, jj][1][key]
                    qq = moved[jj, ii][0][key] - moved[jj, ii][1][key]
                    da1[key] = (pp - qq) / (2 * h)
                res1 = max(res1, max(abs(x) for x in da1.values()))

                # weight 2: differenced form plus the exact weight-1 bracket
                x = TnElt(n, {k: Fraction(v) for k, v in at_cfg[ii].items() if v})
                y = TnElt(n, {k: Fraction(v) for k, v in at_cfg[jj].items() if v})
                br = tn_bracket(x, y)
                for s, step in enumerate(steps):
                    d_i, err_i = fd(s, ii, jj)
                    d_j, err_j = fd(s, jj, ii)
                    keys = set(d_i) | set(d_j) | set(br.coeffs)
                    worst = 0.0
                    worst_err = 0.0
                    for key in keys:
                        r = (
                            d_i.get(key, 0.0)
                            - d_j.get(key, 0.0)
                            + float(br.coeffs.get(key, 0))
                        )
                        worst = max(worst, abs(r))
                        worst_err = max(
                            worst_err,
                            math.hypot(err_i.get(key, 0.0), err_j.get(key, 0.0)),
                        )
                    if step == h:
                        first = worst
                        res2 = max(res2, worst)
                        noise = max(noise, worst_err)
                    else:
                        gap = max(gap, abs(worst - first))
        budget = noise + gap
        if noise > budget_cap:
            warnings.warn("finite-difference step is small relative to MC noise")
        reports.append(
            {
                "weight1_residual": res1,
                "weight2_residual": res2,
                "noise": noise,
                "refinement_gap": gap,
                "budget": budget,
                "pass": res1 <= h * h and res2 < 3 * budget and budget <= budget_cap,
            }
        )
    return reports


# ---------------------------------------------------------------------------
# holonomy and the associator

def _gauss_legendre(nodes: int):
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (x + 1.0), 0.5 * w


def holonomy(
    path,
    velocity,
    n: int,
    trunc: int = 2,
    panels: int = 64,
    nodes: int = 8,
    samples: int = 0,
    seed: int = 0,
) -> EnvElt:
    """Path-ordered exponential of the connection, truncated by weight.

    Per panel the first integral and the leading commutator correction are read
    off Gauss-Legendre nodes; panel factors multiply in path order (earlier
    factors on the left). Weight-2 connection terms are included when a sampling
    budget is given; otherwise only the exact weight-1 part is integrated.
    """
    xg, wg = _gauss_legendre(nodes)
    out = EnvElt.unit(n, trunc)
    for p in range(panels):
        s0, s1 = p / panels, (p + 1) / panels
        width = s1 - s0
        vals = []
        for xi, wi in zip(xg, wg):
            s = s0 + width * xi
            cfg = np.asarray(path(s), dtype=float)
            vel = np.asarray(velocity(s), dtype=float)
            a = connection_eval(n, trunc if samples else 1, cfg, vel, samples, seed)
            coeffs = {k: Fraction(v) for k, v in a[1].items() if v}
            if samples and trunc >= 2:
                for k, est in a[2].items():
                    if est.value:
                        coeffs[k] = coeffs.get(k, Fraction(0)) + Fraction(est.value)
            vals.append((wi * width, TnElt(n, coeffs)))
        i1 = TnElt.zero(n)
        for wq, a in vals:
            i1 = i1 + a.scaled(Fraction(wq))
        e1 = tn_to_env(i1, trunc)
        factor = EnvElt.unit(n, trunc) + e1 + (e1 * e1).scaled(Fraction(1, 2))
        if trunc >= 2:
            comm = TnElt.zero(n)
            for i in range(len(vals)):
                for j in range(i + 1, len(vals)):
                    wi, ai = vals[i]
                    wj, aj = vals[j]
                    comm = comm + ai.bracket(aj).scaled(Fraction(wi * wj))
            factor = factor + tn_to_env(comm, trunc).scaled(Fraction(1, 2))
        out = out * factor
    return out


def at_associator(samples: int = 4_000_000, seed: int = 0, nodes: int = 12) -> dict:
    """Holonomy along the collinear pinch path, reported at truncation weight 2.

    The weight-1 pullback vanishes exactly on collinear motion, so the result is
    1 + c [t13,t23]. The endpoint substitution x = (1 - cos(pi s))/2 clusters
    quadrature nodes at both degenerations; two refinement levels are compared
    and their gap reported alongside the propagated MC error.
    """
    tripod = CanonicalGraph(3, 1, ((1, 4), (2, 4), (3, 4)))
    key = (3, (1, 2))

    def coefficient(nnodes: int, budget: int, tag: int):
        xg, wg = _gauss_legendre(nnodes)
        per_node = max(budget // nnodes, CHUNK)
        total = 0.0
        err2 = 0.0
        used = 0
        for i, (xi, wi) in enumerate(zip(xg, wg)):
            x = (1.0 - math.cos(math.pi * xi)) / 2.0
            dx = math.pi * math.sin(math.pi * xi) / 2.0
            cfg = np.array([[0.0, 0.0], [x, 0.0], [1.0, 0.0]])
            vel = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
            est = graph_form_eval(tripod, cfg, [vel], per_node, seed + 104729 * (tag * 64 + i))
            total += wi * dx * est.value
            err2 += (wi * dx * est.stderr) ** 2
            used += est.samples
        return total, math.sqrt(err2), used

    coarse, err_c, used_c = coefficient(nodes, samples // 3, 1)
    fine, err_f, used_f = coefficient(2 * nodes, 2 * samples // 3, 2)
    cls = class_in_t(GraphVector.single(tripod))
    sign = int(cls.coeffs[key])
    c = fine * sign
    series = TnElt(3, {key: Fraction(c)}) if c else TnElt.zero(3)
    phi = EnvElt.unit(3, 2) + tn_to_env(series, 2)
    weight1 = [0.0, 0.0, 0.0]
    return {
        "weights": {
            "1": weight1,
            "2": {"basis": "[t13,t23]", "coeff": c, "stderr": err_f * abs(sign)},
        },
        "refinement_gap": abs(fine - coarse),
        "grouplike": all(grouplike_check(phi).values()),
        "seed": seed,
        "samples": used_c + used_f,
        "nodes": [nodes, 2 * nodes],
    }


def arnold_numeric_check(configs: int = 100, seed: int = 0) -> dict:
    """Three-term wedge identity at random configurations and bivectors.

    The identity w_ab w_bc + w_bc w_ca + w_ca w_ab = 0 holds pointwise for the
    logarithmic forms dlog(z_a - z_b)/2pi i; that residual is max_residual. For
    their imaginary parts alone (the angle forms) the sum does not vanish
    pointwise: it equals the corresponding real-part sum, so the difference of
    the two is identically zero but each one separately is an honest nonzero
    2-form. Both are reported; only the logarithmic identity is a theorem.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    worst = 0.0
    worst_angle = 0.0
    for _ in range(configs):
        while True:
            cfg = rng.standard_normal((3, 2)) * rng.uniform(0.5, 2.0)
            if _diameter(cfg) > 0 and min(
                np.hypot(*(cfg[i] - cfg[j])) for i in range(3) for j in range(i + 1, 3)
            ) > 0.05:
                break
        v = rng.standard_normal((3, 2))
        w = rng.standard_normal((3, 2))
        z = cfg[:, 0] + 1j * cfg[:, 1]
        vv = v[:, 0] + 1j * v[:, 1]
        ww = w[:, 0] + 1j * w[:, 1]

        def logform(a, b, u):
            return (u[a] - u[b]) / (z[a] - z[b]) / (2j * math.pi)

        def cwedge(p1, p2):
            return logform(*p1, vv) * logform(*p2, ww) - logform(*p1, ww) * logform(*p2, vv)

        def awedge(p1, p2):
            a = angle_form_eval(cfg, p1[0] + 1, p1[1] + 1, v) * angle_form_eval(cfg, p2[0] + 1, p2[1] + 1, w)
            b = angle_form_eval(cfg, p1[0] + 1, p1[1] + 1, w) * angle_form_eval(cfg, p2[0] + 1, p2[1] + 1, v)
            return a - b

        pairs = [((0, 1), (1, 2)), ((1, 2), (2, 0)), ((2, 0), (0, 1))]
        worst = max(worst, abs(sum(cwedge(p, q) for p, q in pairs)))
        worst_angle = max(worst_angle, abs(sum(awedge(p, q) for p, q in pairs)))
    return {
        "configs": configs,
        "max_residual": worst,
        "max_angle_residual": worst_angle,
    }
