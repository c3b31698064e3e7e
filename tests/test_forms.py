import math

import numpy as np
import pytest

from braidcomplex import forms
from braidcomplex.braids import EnvElt, TnElt, env_exp, grouplike_check, tn_to_env
from braidcomplex.graphs import CanonicalGraph, canonicalize

TRIPOD = CanonicalGraph(3, 1, ((1, 4), (2, 4), (3, 4)))


def test_rotation_gives_winding_rate():
    cfg = [[0.0, 0.0], [1.0, 0.0]]
    rot = [[0.0, 0.0], [0.0, 1.0]]
    assert forms.angle_form_eval(cfg, 1, 2, rot) == pytest.approx(1 / (2 * math.pi), abs=1e-15)
    assert forms.angle_form_eval(cfg, 2, 1, rot) == forms.angle_form_eval(cfg, 1, 2, rot)


def test_translation_and_radial_vanish():
    cfg = [[0.2, -0.5], [1.4, 0.8]]
    tra = [[3.0, -2.0], [3.0, -2.0]]
    assert forms.angle_form_eval(cfg, 1, 2, tra) == 0.0
    rad = [[0.0, 0.0], [1.2, 1.3]]
    assert abs(forms.angle_form_eval(cfg, 1, 2, rad)) < 1e-15


def test_config_validation():
    with pytest.raises(ValueError):
        forms.as_config([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        forms.as_config([[0.0, float("nan")]])
    with pytest.raises(ValueError):
        forms.angle_form_eval([[0.0, 0.0], [1.0, 0.0]], 1, 1, [[0, 0], [0, 0]])


def test_single_edge_is_the_angle_form():
    cfg = [[0.0, 0.0], [1.3, 0.4]]
    v = [[0.1, -0.2], [0.7, 0.3]]
    g = CanonicalGraph(2, 0, ((1, 2),))
    est = forms.graph_form_eval(g, cfg, [v], samples=5, seed=1)
    assert est.value == forms.angle_form_eval(cfg, 1, 2, v)
    assert est.stderr == 0.0


def test_graph_without_internal_vertices_is_the_angle_form_determinant():
    cfg = [[0.0, 0.0], [1.3, 0.4], [-0.2, 0.9]]
    v1 = [[0.1, -0.2], [0.7, 0.3], [-0.5, 0.2]]
    v2 = [[0.4, 0.6], [-0.3, 0.1], [0.2, -0.8]]
    g = CanonicalGraph(3, 0, ((1, 2), (2, 3)))
    est = forms.graph_form_eval(g, cfg, [v1, v2], samples=5, seed=1)
    af = forms.angle_form_eval
    det = af(cfg, 1, 2, v1) * af(cfg, 2, 3, v2) - af(cfg, 1, 2, v2) * af(cfg, 2, 3, v1)
    assert est.value == pytest.approx(det, rel=1e-12, abs=1e-15)
    assert est.value != pytest.approx(af(cfg, 1, 2, v1))
    assert est.stderr == 0.0 and est.samples == 0


def test_degree_mismatch_is_exact_zero():
    est = forms.graph_form_eval(TRIPOD, [[0, 0], [1, 0], [0, 1]], [], samples=10**9, seed=0)
    assert est.value == 0.0 and est.stderr == 0.0 and est.samples == 0


def test_sampling_needs_a_positive_sample_count():
    with pytest.raises(ValueError):
        forms.graph_form_eval(TRIPOD, [[0, 0], [1, 0], [0, 1]], [[[1, 0], [0, 0], [0, 0]]],
                              samples=0, seed=0)


def test_estimates_are_reproducible():
    cfg = [[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]]
    v = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    a = forms.graph_form_eval(TRIPOD, cfg, [v], samples=forms.CHUNK + 17, seed=42)
    b = forms.graph_form_eval(TRIPOD, cfg, [v], samples=forms.CHUNK + 17, seed=42)
    c = forms.graph_form_eval(TRIPOD, cfg, [v], samples=forms.CHUNK + 17, seed=43)
    assert (a.value, a.stderr) == (b.value, b.stderr)
    assert a.value != c.value


def test_edge_order_flips_sign_like_canonicalize():
    shuffled = CanonicalGraph(3, 1, ((2, 4), (1, 4), (3, 4)))
    canon, sign = canonicalize(3, 1, shuffled.edges)
    assert canon == TRIPOD and sign == -1
    cfg = [[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]]
    v = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    a = forms.graph_form_eval(TRIPOD, cfg, [v], samples=20_000, seed=7)
    b = forms.graph_form_eval(shuffled, cfg, [v], samples=20_000, seed=7)
    assert b.value == pytest.approx(sign * a.value, rel=1e-12, abs=1e-15)


def test_translation_argument_kills_determinant():
    cfg = [[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]]
    tr = [[2.0, -1.0]] * 3
    est = forms.graph_form_eval(TRIPOD, cfg, [tr], samples=30_000, seed=3)
    assert abs(est.value) < 1e-12
    ctr = np.mean(cfg, axis=0)
    dil = np.asarray(cfg) - ctr
    est = forms.graph_form_eval(TRIPOD, cfg, [dil], samples=30_000, seed=3)
    assert abs(est.value) < 1e-12


def test_similarity_invariance():
    cfg = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]])
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    a = forms.graph_form_eval(TRIPOD, cfg, [v], samples=40_000, seed=11)
    b = forms.graph_form_eval(TRIPOD, 2.0 * cfg + np.array([5.0, -3.0]), [2.0 * v], samples=40_000, seed=11)
    assert b.value == pytest.approx(a.value, rel=1e-9, abs=1e-12)


def test_closed_scalar_graph_vanishes():
    g = CanonicalGraph(1, 3, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))
    assert g.star_degree == 0
    est = forms.graph_form_eval(g, [[0.0, 0.0]], [], samples=60_000, seed=5)
    assert abs(est.value) <= 3 * est.stderr + 1e-14
    assert abs(est.value) < 1e-12


def test_stderr_shrinks_like_root_n():
    cfg = [[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]]
    v = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    a = forms.graph_form_eval(TRIPOD, cfg, [v], samples=200_000, seed=2)
    b = forms.graph_form_eval(TRIPOD, cfg, [v], samples=800_000, seed=2)
    assert 0.35 < b.stderr / a.stderr < 0.70


def test_weight1_connection_matches_winding_form():
    rng = np.random.default_rng(7)
    for _ in range(100):
        z = rng.standard_normal((2, 2))
        v = rng.standard_normal((2, 2))
        a = forms.connection_eval(2, 1, z, v, 0, 0)
        w = z[0] - z[1]
        u = v[0] - v[1]
        dphi = (w[0] * u[1] - w[1] * u[0]) / (2 * math.pi * (w[0] ** 2 + w[1] ** 2))
        assert abs(a[1][(2, (1,))] - dphi) < 1e-12


def test_connection_weight2_single_class_on_three_points():
    a = forms.connection_eval(3, 2, [[0, 0], [1, 0], [0, 1]], [[0, 0], [0, 1], [0, 0]], samples=30_000, seed=3)
    assert set(a[2]) == {(3, (1, 2))}
    b = forms.connection_eval(2, 2, [[0, 0], [1, 0]], [[0, 0], [0, 1]], samples=10, seed=3)
    assert b[2] == {}


def test_connection_kills_translations():
    tr = [[1.5, -0.3]] * 3
    a = forms.connection_eval(3, 2, [[0, 0], [1, 0], [0, 1]], tr, samples=20_000, seed=3)
    assert all(x == 0.0 for x in a[1].values())
    assert all(abs(e.value) < 1e-12 for e in a[2].values())


def test_connection_relabeling_equivariance():
    cfg = np.array([[0.1, 0.2], [1.0, -0.4], [0.3, 0.9]])
    v = np.array([[0.5, 0.0], [0.0, 0.7], [-0.2, 0.1]])
    a = forms.connection_eval(3, 1, cfg, v, 0, 0)[1]
    swapped = forms.connection_eval(3, 1, cfg[[1, 0, 2]], v[[1, 0, 2]], 0, 0)[1]
    assert swapped[(2, (1,))] == a[(2, (1,))]
    assert swapped[(3, (1,))] == a[(3, (2,))]
    assert swapped[(3, (2,))] == a[(3, (1,))]


def test_holonomy_of_circle_is_group_exponential():
    def path(s):
        return [[0.0, 0.0], [math.cos(2 * math.pi * s), math.sin(2 * math.pi * s)]]

    def vel(s):
        return [[0.0, 0.0], [-2 * math.pi * math.sin(2 * math.pi * s), 2 * math.pi * math.cos(2 * math.pi * s)]]

    hol = forms.holonomy(path, vel, 2, trunc=2, panels=32, nodes=6)
    target = env_exp(tn_to_env(TnElt.generator(2, 1, 2), 2))
    gap = max((abs(float(c)) for c in (hol - target).coeffs.values()), default=0.0)
    assert gap < 1e-6
    assert all(grouplike_check(hol).values())

    h1 = forms.holonomy(lambda s: path(s / 2), lambda s: np.asarray(vel(s / 2)) / 2, 2, 2, 32, 6)
    h2 = forms.holonomy(lambda s: path(0.5 + s / 2), lambda s: np.asarray(vel(0.5 + s / 2)) / 2, 2, 2, 32, 6)
    join = max((abs(float(c)) for c in (h1 * h2 - hol).coeffs.values()), default=0.0)
    assert join < 1e-6


def test_holonomy_of_zero_connection_is_unit():
    hol = forms.holonomy(lambda s: [[0, 0], [1, 0]], lambda s: [[0, 0], [0, 0]], 2, 2, 4, 4)
    assert hol == EnvElt.unit(2, 2)


def test_pinch_path_coefficient():
    rep = forms.at_associator(samples=600_000, seed=42, nodes=8)
    assert rep["weights"]["1"] == [0.0, 0.0, 0.0]
    w2 = rep["weights"]["2"]
    assert w2["basis"] == "[t13,t23]"
    assert abs(abs(w2["coeff"]) - 1 / 24) < 2e-3
    assert w2["coeff"] > 0
    assert w2["stderr"] < 2e-3
    assert rep["refinement_gap"] < 5e-3
    assert rep["grouplike"]
    again = forms.at_associator(samples=600_000, seed=42, nodes=8)
    assert again["weights"]["2"]["coeff"] == w2["coeff"]


def test_flatness_on_fixed_configuration():
    cfg = [[0.31, -0.74], [0.89, 0.12], [-0.42, 0.55]]
    rep = forms.flatness_residual([cfg], n=3, samples=524_288, seed=9)[0]
    assert rep["weight1_residual"] < 1e-3
    assert rep["budget"] <= 5e-2
    assert rep["weight2_residual"] < 3 * rep["budget"]
    assert rep["pass"]


def test_three_term_wedge_identity():
    out = forms.arnold_numeric_check(configs=100, seed=0)
    assert out["configs"] == 100
    assert out["max_residual"] < 1e-10
    # the naive angle-form version genuinely fails pointwise
    assert out["max_angle_residual"] > 1e-3


def test_angle_sum_equals_radial_sum():
    # real and imaginary three-term sums agree, which is what the identity leaves
    rng = np.random.default_rng(3)
    cfg = forms.as_config(rng.standard_normal((3, 2)))
    v = rng.standard_normal((3, 2))
    w = rng.standard_normal((3, 2))
    z = cfg[:, 0] + 1j * cfg[:, 1]

    def radial(a, b, u):
        uu = u[a] - u[b]
        zz = z[a] - z[b]
        return (uu.real * zz.real + uu.imag * zz.imag) / abs(zz) ** 2 / (2 * math.pi)

    vv = v[:, 0] + 1j * v[:, 1]
    ww = w[:, 0] + 1j * w[:, 1]
    pairs = [((0, 1), (1, 2)), ((1, 2), (2, 0)), ((2, 0), (0, 1))]

    def awedge(p, q):
        return forms.angle_form_eval(cfg, p[0] + 1, p[1] + 1, v) * forms.angle_form_eval(
            cfg, q[0] + 1, q[1] + 1, w
        ) - forms.angle_form_eval(cfg, p[0] + 1, p[1] + 1, w) * forms.angle_form_eval(cfg, q[0] + 1, q[1] + 1, v)

    def rwedge(p, q):
        return radial(*p, vv) * radial(*q, ww) - radial(*p, ww) * radial(*q, vv)

    s_angle = sum(awedge(p, q) for p, q in pairs)
    s_radial = sum(rwedge(p, q) for p, q in pairs)
    assert s_angle == pytest.approx(s_radial, abs=1e-13)
    assert abs(s_angle) > 1e-4


def test_wedge_identity_degenerate_cases():
    cfg = forms.as_config([[0.0, 0.0], [1.0, 0.0], [2.5, 0.0]])
    v = np.array([[0.0, 1.0], [0.0, -0.5], [0.0, 0.3]])
    w = np.array([[1.0, 0.0], [0.5, 0.0], [0.2, 0.0]])

    def wedge(p1, p2):
        return forms.angle_form_eval(cfg, *p1, v) * forms.angle_form_eval(cfg, *p2, w) - forms.angle_form_eval(
            cfg, *p1, w
        ) * forms.angle_form_eval(cfg, *p2, v)

    total = wedge((1, 2), (2, 3)) + wedge((2, 3), (3, 1)) + wedge((3, 1), (1, 2))
    assert abs(total) < 1e-12
    same = np.array([[1.0, 2.0]] * 3)
    assert forms.angle_form_eval(cfg, 1, 2, same) == 0.0