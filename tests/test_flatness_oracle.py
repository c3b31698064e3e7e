"""Batched flatness against the per-call reference path, bit for bit.

`flatness_residual` integrates every displaced configuration and every unit
argument of one weight-2 class in one `forms._fiber_integrals` call. The
reference below is the straightforward path it replaced: one single-configuration
Monte-Carlo evaluation per (displaced configuration, argument) pair, written out
here independently of the engine, differenced pair by pair. Shared draws and
unchanged elementwise arithmetic mean the two must agree exactly, not
approximately.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from braidcomplex import forms
from braidcomplex.braids import TnElt, tn_bracket
from braidcomplex.graphs import CanonicalGraph

TRIPOD = CanonicalGraph(3, 1, ((1, 4), (2, 4), (3, 4)))
CFG = np.array([[0.1, -0.3], [1.2, 0.2], [0.4, 0.9]])


def reference_graph_form_eval(g, cfg, args, samples, seed):
    """One configuration, one argument set, sampled chunk by chunk."""
    cfg = forms.as_config(cfg)
    args = [np.asarray(a, dtype=float) for a in args]
    m, n = g.n_int, g.n_ext
    ucols = forms._column_velocities(g, args)
    center = cfg.mean(axis=0)
    scale = forms._diameter(cfg)
    if scale < 1e-12:
        scale = 1.0
    orient = -1.0 if m % 2 else 1.0
    edges = np.array(g.edges) - 1
    sums, sqsums, chunk_means = [], [], []
    done = chunk_index = 0
    while done < samples:
        k = min(forms.CHUNK, samples - done)
        rng = np.random.default_rng(np.random.SeedSequence([seed, chunk_index]))
        upt = rng.random((k, m))
        theta = rng.random((k, m)) * forms.TWO_PI
        r = scale * np.sqrt(1.0 / (1.0 - upt) ** 2 - 1.0)
        pts = np.empty((k, m, 2))
        pts[:, :, 0] = center[0] + r * np.cos(theta)
        pts[:, :, 1] = center[1] + r * np.sin(theta)
        dens = np.prod(scale / (forms.TWO_PI * (r * r + scale * scale) ** 1.5), axis=1)
        pos = np.empty((k, n + m, 2))
        pos[:, :n] = cfg
        pos[:, n:] = pts
        w = pos[:, edges[:, 0]] - pos[:, edges[:, 1]]
        r2 = w[:, :, 0] ** 2 + w[:, :, 1] ** 2
        mat = (
            w[:, :, 0, None] * ucols[None, :, :, 1]
            - w[:, :, 1, None] * ucols[None, :, :, 0]
        ) / (forms.TWO_PI * r2[:, :, None])
        vals = orient * forms._batch_det(mat) / dens
        sums.append(float(vals.sum()))
        sqsums.append(float((vals * vals).sum()))
        chunk_means.append(float(vals.mean()))
        done += k
        chunk_index += 1
    total = math.fsum(sums)
    var = max(math.fsum(sqsums) - total * total / samples, 0.0)
    stderr = math.sqrt(var / (samples - 1) / samples) if samples > 1 else float("inf")
    return forms.MCEstimate(total / samples, stderr, samples, seed), np.array(chunk_means)


def reference_fd_weight2_coeffs(n, cfg, direction, arg, h, samples, seed):
    plus = cfg + h * direction
    minus = cfg - h * direction
    diff, err = {}, {}
    for i, (g, coords) in enumerate(forms._weight2_classes(n)):
        ep, chp = reference_graph_form_eval(g, plus, [arg], samples, seed + 7919 * i)
        em, chm = reference_graph_form_eval(g, minus, [arg], samples, seed + 7919 * i)
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


def reference_flatness(cfg, n, samples, seed, h_rel=1e-2, budget_cap=5e-2):
    cfg = forms.as_config(cfg)
    h = h_rel * max(forms._diameter(cfg), 1.0)
    coords = [(p, ax) for p in range(n) for ax in (0, 1)]

    def a1(c, arg):
        return forms.connection_eval(n, 1, c, arg, 0, seed)[1]

    res1 = res2 = noise = gap = 0.0
    for ii in range(len(coords)):
        for jj in range(ii + 1, len(coords)):
            e_i = np.zeros((n, 2))
            e_i[coords[ii]] = 1.0
            e_j = np.zeros((n, 2))
            e_j[coords[jj]] = 1.0
            da1 = {}
            for key in a1(cfg, e_j):
                pp = a1(cfg + h * e_i, e_j)[key] - a1(cfg - h * e_i, e_j)[key]
                qq = a1(cfg + h * e_j, e_i)[key] - a1(cfg - h * e_j, e_i)[key]
                da1[key] = (pp - qq) / (2 * h)
            res1 = max(res1, max(abs(x) for x in da1.values()))
            for step in (h, 2 * h):
                d_i, err_i = reference_fd_weight2_coeffs(n, cfg, e_i, e_j, step, samples, seed)
                d_j, err_j = reference_fd_weight2_coeffs(n, cfg, e_j, e_i, step, samples, seed)
                x = TnElt(n, {k: Fraction(v) for k, v in a1(cfg, e_i).items() if v})
                y = TnElt(n, {k: Fraction(v) for k, v in a1(cfg, e_j).items() if v})
                br = tn_bracket(x, y)
                worst = worst_err = 0.0
                for key in set(d_i) | set(d_j) | set(br.coeffs):
                    r = d_i.get(key, 0.0) - d_j.get(key, 0.0) + float(br.coeffs.get(key, 0))
                    worst = max(worst, abs(r))
                    worst_err = max(
                        worst_err, math.hypot(err_i.get(key, 0.0), err_j.get(key, 0.0))
                    )
                if step == h:
                    first = worst
                    res2 = max(res2, worst)
                    noise = max(noise, worst_err)
                else:
                    gap = max(gap, abs(worst - first))
    budget = noise + gap
    return {
        "weight1_residual": res1,
        "weight2_residual": res2,
        "noise": noise,
        "refinement_gap": gap,
        "budget": budget,
        "pass": res1 <= h * h and res2 < 3 * budget and budget <= budget_cap,
    }


@pytest.mark.parametrize("samples", [4096, forms.CHUNK + 17], ids=["one-chunk", "chunk-means"])
def test_batched_flatness_equals_per_call_reference(samples):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        (got,) = forms.flatness_residual([CFG], n=3, samples=samples, seed=11)
    assert got == reference_flatness(CFG, 3, samples, seed=11)


def test_engine_equals_separate_calls():
    cfgs = [CFG, CFG + 0.05, np.array([[0.0, 0.0], [0.7, 0.0], [1.0, 0.0]])]
    rng = np.random.default_rng(3)
    argsets = [[rng.standard_normal((3, 2))] for _ in range(3)]
    samples = forms.CHUNK + 17
    table = forms._fiber_integrals(TRIPOD, cfgs, argsets, samples, 5)
    for cfg, row in zip(cfgs, table):
        for args, (est, chunks) in zip(argsets, row):
            ref, ref_chunks = reference_graph_form_eval(TRIPOD, cfg, args, samples, 5)
            one, one_chunks = forms.graph_form_eval(TRIPOD, cfg, args, samples, 5, True)
            assert est == ref == one
            assert chunks.tolist() == ref_chunks.tolist() == one_chunks.tolist()



def test_general_determinant_path_equals_reference():
    # six edges: the entry-major stack goes through np.linalg.det as a strided view
    g = CanonicalGraph(1, 3, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))
    got = forms.graph_form_eval(g, [[0.0, 0.0]], [], samples=5000, seed=5)
    ref, _ = reference_graph_form_eval(g, [[0.0, 0.0]], [], 5000, 5)
    assert got == ref
