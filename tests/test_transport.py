"""Exact checks for the simplicial algebra and the polynomial transport maps."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcomplex import transport as tr
from braidcomplex.exact import SparseRationalMatrix, membership, rank_kernel_image
from braidcomplex.transport import Poly, PolyConnection, WordForm


def _perm_parity(perm):
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class TestShuffles:
    def test_small_tables(self):
        t = tr.shuffles_with_signs(1, 1)
        assert t.entries == (((0,), (1,), 1), ((1,), (0,), -1))
        assert len(tr.shuffles_with_signs(2, 1).entries) == 3
        assert tr.shuffles_with_signs(0, 0).entries == (((), (), 1),)
        for m in range(4):
            for n in range(4):
                table = tr.shuffles_with_signs(m, n)
                assert table.verify()
                assert len(table.entries) == comb(m + n, m)

    def test_sign_is_permutation_parity(self):
        # The block sign must equal the parity of the permutation sending the
        # concatenated source (first block then second) to the target slots.
        for m, n in [(2, 2), (3, 2), (1, 3)]:
            for mu, nu, sign in tr.shuffles_with_signs(m, n).entries:
                perm = list(mu) + list(nu)
                assert sign == _perm_parity(perm)

    def test_cut_decomposition_with_signs(self):
        for m in range(4):
            for n in range(4):
                rep = tr.shuffle_lemma_report(m, n)
                assert rep["ok"], rep

    def test_rejects_negative_input(self):
        with pytest.raises(ValueError):
            tr.shuffles_with_signs(-1, 2)


class TestSimplicialModules:
    def test_standard_simplex_identities(self):
        for r, cap in [(1, 4), (2, 3)]:
            mod = tr.standard_simplex_module(r, cap)
            assert mod.verify()
            for k in range(cap + 1):
                assert mod.dim(k) == comb(k + r + 1, r)

    def test_circle_model(self):
        s1 = tr.circle_module(4)
        assert s1.verify()
        assert s1.dims == [1, 2, 3, 4, 5]
        # chain homology: one class in degree 0 and one in degree 1
        b1 = tr.chain_boundary_matrix(s1, 1)
        b2 = tr.chain_boundary_matrix(s1, 2)
        r1, k1, _ = rank_kernel_image(b1)
        r2 = rank_kernel_image(b2)[0]
        assert s1.dim(0) - r1 == 1
        assert len(k1) - r2 == 1

    def test_twisted_module_is_still_simplicial(self):
        mod = tr.twist_module(tr.standard_simplex_module(1, 4), seed=11)
        assert mod.verify()
        assert mod.dims == [2, 3, 4, 5, 6]

    def test_box_product_and_diagonal(self):
        bi = tr.box_product(tr.standard_simplex_module(1, 3),
                            tr.twist_module(tr.standard_simplex_module(1, 3), seed=2))
        assert bi.verify()
        diag = tr.diagonal_module(bi)
        assert diag.verify()
        assert diag.dims == [bi.dim(k, k) for k in range(4)]


def _test_pair(cap=4, seed=11):
    left = tr.standard_simplex_module(1, cap)
    right = tr.twist_module(tr.standard_simplex_module(1, cap), seed=seed)
    return tr.box_product(left, right)


class TestAlexanderWhitneyAndShuffle:
    def test_aw_level_zero_is_identity(self):
        bi = _test_pair()
        vec = {0: Fraction(2), 1: Fraction(-1)}
        assert tr.aw_map(bi, 0, vec) == {(0, 0): vec}

    def test_aw_kunneth_split_at_level_one(self):
        m1 = tr.standard_simplex_module(1, 4)
        m2 = tr.standard_simplex_module(2, 4)
        bi = tr.box_product(m1, m2)
        for ix in range(m1.dim(1)):
            for iy in range(m2.dim(1)):
                out = tr.aw_map(bi, 1, {ix * m2.dim(1) + iy: Fraction(1)})
                dx = m1.face(1, 1).apply({ix: Fraction(1)})
                dy = m2.face(1, 0).apply({iy: Fraction(1)})
                want01 = {r * m2.dim(1) + iy: v for r, v in dx.items()}
                want10 = {ix * m2.dim(0) + r: v for r, v in dy.items()}
                assert tr._vec_eq(out[(0, 1)], want01)
                assert tr._vec_eq(out[(1, 0)], want10)

    def test_aw_is_chain_map(self):
        bi = _test_pair()
        diag = tr.diagonal_module(bi)
        rng = random.Random(3)
        for n in (1, 2, 3):
            for _ in range(3):
                vec = tr._random_vec(diag.dim(n), rng)
                lhs = tr.aw_map(bi, n - 1, tr.chain_boundary_matrix(diag, n).apply(vec))
                rhs = tr.total_boundary(bi, tr.aw_map(bi, n, vec))
                for key in set(lhs) | set(rhs):
                    assert tr._vec_eq(lhs.get(key, {}), rhs.get(key, {})), (n, key)

    def test_shuffle_map_is_chain_map(self):
        bi = _test_pair()
        diag = tr.diagonal_module(bi)
        rng = random.Random(5)
        for p, q in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)]:
            vec = tr._random_vec(bi.dim(p, q), rng)
            out = tr.shuffle_map(bi, p, q, vec)
            lhs = tr.chain_boundary_matrix(diag, p + q).apply(out)
            rhs = {}
            for key, v in tr.total_boundary(bi, {(p, q): vec}).items():
                tr._vec_add(rhs, tr.shuffle_map(bi, key[0], key[1], v))
            assert tr._vec_eq(lhs, rhs), (p, q)

    def test_bidegree_zero_shuffle_is_identity(self):
        bi = _test_pair()
        vec = {1: Fraction(3)}
        assert tr._vec_eq(tr.shuffle_map(bi, 0, 0, vec), vec)

    def test_aw_after_shuffle_is_identity_on_normalized_chains(self):
        bi = _test_pair()
        rng = random.Random(7)
        for p, q in [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]:
            for _ in range(2):
                vec = tr._random_vec(bi.dim(p, q), rng)
                back = tr.aw_map(bi, p + q, tr.shuffle_map(bi, p, q, vec))
                for (pp, qq), v in back.items():
                    proj = tr.bidegree_complement_projector(bi, pp, qq)
                    want = proj.apply(vec) if (pp, qq) == (p, q) else {}
                    assert tr._vec_eq(proj.apply(v), want), (p, q, pp, qq)

    def test_shuffle_after_aw_is_identity_on_torus_homology(self):
        torus = tr.box_product(tr.circle_module(4), tr.circle_module(4))
        diag = tr.diagonal_module(torus)

        def round_trip(k):
            def fn(vec):
                out = {}
                for (p, q), v in tr.aw_map(torus, k, vec).items():
                    tr._vec_add(out, tr.shuffle_map(torus, p, q, v))
                return out
            return tr.map_matrix(fn, diag.dim(k), diag.dim(k))

        for k, hdim in [(1, 2), (2, 1)]:
            f = round_trip(k)
            assert f != tr._identity(diag.dim(k))
            bk = tr.chain_boundary_matrix(diag, k)
            bk1 = tr.chain_boundary_matrix(diag, k + 1)
            rk, cycles, _ = rank_kernel_image(bk)
            assert len(cycles) - rank_kernel_image(bk1)[0] == hdim
            for z in cycles:
                diffvec = f.apply(z)
                tr._vec_add(diffvec, z, Fraction(-1))
                sol, _ = membership(bk1, diffvec)
                assert sol is not None

    def test_level_overflow_raises(self):
        bi = _test_pair()
        with pytest.raises(ValueError):
            tr.aw_map(bi, 5, {0: Fraction(1)})
        with pytest.raises(ValueError):
            tr.shuffle_map(bi, 3, 2, {0: Fraction(1)})


class TestMonoidalCompatibility:
    def test_one_one_with_explicit_vectors(self):
        a_mod = _test_pair(seed=21)
        b_mod = _test_pair(seed=22)
        da, db = tr.diagonal_module(a_mod), tr.diagonal_module(b_mod)
        for ia in range(0, da.dim(1), 2):
            for ib in range(0, db.dim(1), 3):
                rep = tr.monoidal_aw_check(a_mod, b_mod, 1, 1,
                                           avec={ia: Fraction(1)},
                                           bvec={ib: Fraction(1)})
                assert rep["ok"], rep

    def test_randomized_levels(self):
        a_mod = _test_pair(seed=31)
        b_mod = _test_pair(seed=32)
        for m, n, seed in [(1, 1, 1), (2, 1, 2), (1, 2, 3), (2, 2, 4)]:
            rep = tr.monoidal_aw_check(a_mod, b_mod, m, n, seed=seed)
            assert rep["ok"], rep
            assert rep["components"] == [[p, m + n - p] for p in range(m + n + 1)]

    def test_degenerate_factor_vanishes_normalized(self):
        a_mod = _test_pair(seed=41)
        b_mod = _test_pair(seed=42)
        diag_b = tr.diagonal_module(b_mod)
        rng = random.Random(9)
        base = tr._random_vec(diag_b.dim(0), rng)
        bvec = diag_b.degen(0, 0).apply(base)
        rep = tr.monoidal_aw_check(a_mod, b_mod, 1, 1, seed=5, bvec=bvec)
        assert rep["ok"]
        prod = tr.level_tensor(a_mod, b_mod)
        avec = tr._random_vec(tr.diagonal_module(a_mod).dim(1), rng)
        outer = tr.box_product(tr.diagonal_module(a_mod), diag_b)
        ab = {}
        for ia, ca in avec.items():
            for ib, cb in bvec.items():
                ab[ia * diag_b.dim(1) + ib] = ca * cb
        out = tr.aw_map(prod, 2, tr.shuffle_map(outer, 1, 1, ab))
        for (p, q), v in out.items():
            proj = tr.bidegree_complement_projector(prod, p, q)
            assert tr._vec_eq(proj.apply(v), {}), (p, q)

    def test_cap_overflow_raises(self):
        a_mod = _test_pair()
        b_mod = _test_pair()
        with pytest.raises(ValueError):
            tr.monoidal_aw_check(a_mod, b_mod, 3, 2)


def _reference_projector(mats, dim):
    """Independent Fraction echelon: insert every column with division by the
    pivot, back-reduce, then reduce each unit vector against the span."""
    pivots = {}
    for s in mats:
        for c in range(s.ncols):
            vec = {r: row[c] for r, row in enumerate(s.rows) if c in row}
            while vec:
                lead = min(vec)
                if lead not in pivots:
                    pivots[lead] = vec
                    break
                tr._vec_add(vec, pivots[lead], -vec[lead] / pivots[lead][lead])
    for c in sorted(pivots, reverse=True):
        for c2, col in pivots.items():
            if c2 != c and c in col:
                tr._vec_add(col, pivots[c], -col[c] / pivots[c][c])
    proj = SparseRationalMatrix(dim, dim)
    for j in range(dim):
        vec = {j: Fraction(1)}
        for lead in sorted(pivots):
            if lead in vec:
                tr._vec_add(vec, pivots[lead], -vec[lead] / pivots[lead][lead])
        for r, v in vec.items():
            proj.set_entry(r, j, v)
    return proj


def _bidegree_degeneracies(bi, p, q):
    return ([bi.hdegen[(p - 1, q, i)] for i in range(p)]
            + [bi.vdegen[(p, q - 1, j)] for j in range(q)])


def _aw_test_products(seed):
    """The three box products the aw-test command builds at this seed."""
    left = tr.standard_simplex_module(1, 3)
    right = tr.twist_module(tr.standard_simplex_module(1, 3), seed + 11)
    return (tr.box_product(left, right),
            tr.box_product(left, tr.twist_module(left, seed + 21)),
            tr.box_product(tr.twist_module(left, seed + 31), right))


class TestSpanProjectors:
    def assert_projector(self, proj, mats, dim):
        assert proj == _reference_projector(mats, dim)
        assert proj @ proj == proj
        for s in mats:
            assert (proj @ s).is_zero()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_box_products_match_reference(self, seed):
        for bi in _aw_test_products(seed):
            for p in range(bi.cap + 1):
                for q in range(bi.cap + 1):
                    self.assert_projector(tr.bidegree_complement_projector(bi, p, q),
                                          _bidegree_degeneracies(bi, p, q), bi.dim(p, q))
            diag = tr.diagonal_module(bi)
            for k in range(diag.cap + 1):
                mats = [diag.degen(k - 1, i) for i in range(k)]
                self.assert_projector(tr.degenerate_complement_projector(diag, k),
                                      mats, diag.dim(k))

    def test_level_tensor_matches_reference(self):
        _, a_mod, b_mod = _aw_test_products(1)
        prod = tr.level_tensor(a_mod, b_mod)
        # the bidegrees the monoidal check lands in
        for p in range(4):
            for q in range(4 - p):
                self.assert_projector(tr.bidegree_complement_projector(prod, p, q),
                                      _bidegree_degeneracies(prod, p, q), prod.dim(p, q))


class TestPolynomials:
    def test_arithmetic_and_calculus(self):
        x = Poly.var(2, 0)
        y = Poly.var(2, 1)
        p = (x + y) * (x + y)
        assert p == Poly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        assert p.diff(0) == Poly(2, {(1, 0): 2, (0, 1): 2})
        assert p.diff(0).antider(0) == Poly(2, {(2, 0): 1, (1, 1): 2})
        q = p.subst([Poly.var(1, 0), Poly.const(1, 2)])
        assert q == Poly(1, {(2,): 1, (1,): 4, (0,): 4})
        assert p.degree() == 2

    def test_simplex_integrals(self):
        # classical Dirichlet values
        one = Poly.const(2, 1)
        assert one.simplex_integral() == Fraction(1, 2)
        assert (Poly.var(2, 0) * Poly.var(2, 1)).simplex_integral() == Fraction(1, 24)
        assert Poly.var(1, 0).simplex_integral() == Fraction(1, 2)
        assert Poly(1, {(2,): 1}).simplex_integral() == Fraction(1, 3)

    def test_arity_checks(self):
        with pytest.raises(ValueError):
            Poly(2, {(1,): 1})
        with pytest.raises(ValueError):
            Poly.var(2, 0) + Poly.var(3, 0)


# bar elements {words: Fraction}: up to four factors, empty ones included
bar_words = st.lists(st.lists(st.integers(0, 1), max_size=2).map(tuple),
                     max_size=4).map(tuple)
bar_elements = st.dictionaries(bar_words, st.integers(-3, 3).filter(bool).map(Fraction),
                               max_size=5)


class TestWordForms:
    def test_exterior_derivative_squares_to_zero(self):
        rng = random.Random(13)
        nv, nil = 3, 3
        form = WordForm(nv, nil)
        for _ in range(4):
            word = tuple(rng.randrange(2) for _ in range(rng.randint(1, 2)))
            dv = tuple(sorted(rng.sample(range(nv), rng.randint(0, 2))))
            form = form + WordForm(nv, nil, {(((word),), dv): tr._random_poly(nv, rng)})
        assert form.d().d().is_zero()

    def test_wedge_antisymmetry_and_truncation(self):
        nil = 2
        a = WordForm(2, nil, {(((0,),), (0,)): Poly.const(2, 1)})
        b = WordForm(2, nil, {(((0,),), (1,)): Poly.const(2, 1)})
        # same word value on both sides, so only the form parts wedge
        assert (a.mul(b) + b.mul(a)).is_zero()
        assert a.mul(a).is_zero()  # repeated direction kills the wedge
        # word length beyond the truncation order vanishes
        long_word = WordForm(2, nil, {(((0, 1),), ()): Poly.const(2, 1)})
        assert long_word.mul(WordForm(2, nil, {(((0,),), ()): Poly.const(2, 1)})).is_zero()

    def test_tensor_collects_form_parts(self):
        nil = 3
        a = WordForm(2, nil, {(((0,),), (0,)): Poly.const(2, 1)})
        b = WordForm(2, nil, {(((1,),), (1,)): Poly.const(2, 1)})
        t1 = a.tensor(b)
        t2 = b.tensor(a)
        key1 = (((0,), (1,)), (0, 1))
        key2 = (((1,), (0,)), (0, 1))
        assert t1.terms == {key1: Poly.const(2, 1)}
        assert t2.terms == {key2: Poly.const(2, -1)}

    def test_bar_differential_on_words(self):
        elt = {((0,), (1,)): Fraction(1)}
        out = tr.bar_boundary(elt, nil=2)
        assert out == {((0, 1),): Fraction(-1)}
        # counit drop and merge land on the same word with opposite signs
        unit_left = {((), (0,)): Fraction(1)}
        assert tr.bar_boundary(unit_left, nil=2) == {}

    @settings(max_examples=150, deadline=None)
    @given(bar_elements, st.integers(0, 8))
    def test_bar_boundary_squares_to_zero(self, elt, nil):
        assert tr.bar_boundary(tr.bar_boundary(elt, nil), nil) == {}

    @settings(max_examples=150, deadline=None)
    @given(bar_elements, st.integers(0, 8))
    def test_form_bar_b_is_bar_boundary_on_constants(self, elt, nil):
        form = WordForm(2, nil, {(words, ()): Poly.const(2, c) for words, c in elt.items()})
        assert form.bar_b().constants() == tr.bar_boundary(form.constants(), nil)


class TestConnections:
    def test_flatness_is_enforced(self):
        nv, nil = 2, 2
        bad = WordForm(nv, nil, {(((0,),), (0,)): Poly.var(nv, 1)})
        with pytest.raises(ValueError):
            PolyConnection(2, 0, 1, nil, bad)
        for seed in range(6):
            conn = tr.flat_family(2, 0, 2, 3, seed)
            assert conn.curvature().is_zero()

    def test_connection_shape_validation(self):
        nil = 2
        not_one_form = WordForm(1, nil, {(((0,),), ()): Poly.const(1, 1)})
        with pytest.raises(ValueError):
            PolyConnection(1, 0, 1, nil, not_one_form)
        unit_value = WordForm(1, nil, {(((),), (0,)): Poly.const(1, 1)})
        with pytest.raises(ValueError):
            PolyConnection(1, 0, 1, nil, unit_value)

    def test_k_map_interval_examples(self):
        nil = 3
        const = PolyConnection(1, 0, 1, nil,
                               WordForm(1, nil, {(((0,),), (0,)): Poly.const(1, 1)}))
        assert tr.k_map(const) == {((0,),): Fraction(1)}
        linear = PolyConnection(1, 0, 1, nil,
                                WordForm(1, nil, {(((0,),), (0,)): Poly(1, {(1,): 2})}))
        assert tr.k_map(linear) == {((0,),): Fraction(1)}

    def test_k_map_abelian_square_vanishes(self):
        f = Poly(2, {(2, 0): 1, (1, 1): 2, (0, 1): -1})
        conn = tr.abelian_family(2, 0, 3, f)
        assert tr.k_map(conn) == {}

    def test_k_map_point_is_unit(self):
        conn = tr.zero_connection(0, 0, 1, 2)
        assert tr.k_map(conn) == {(): Fraction(1)}

    def test_k_map_rejects_box_coordinates(self):
        conn = tr.flat_family(1, 1, 2, 2, seed=3)
        with pytest.raises(ValueError):
            tr.k_map(conn)

    def test_k_map_commutes_with_boundaries(self):
        for n, seed, nil in [(1, 7, 3), (2, 8, 3), (2, 9, 2), (2, 12, 3)]:
            conn = tr.flat_family(n, 0, 2, nil, seed)
            rep = tr.k_boundary_report(conn)
            assert rep["ok"], rep

    def test_t_map_exponential(self):
        nil = 4
        conn = PolyConnection(1, 0, 1, nil,
                              WordForm(1, nil, {(((0,),), (0,)): Poly.const(1, 1)}))
        words = tr.t_map(conn).constants()
        for k in range(nil + 1):
            assert words[((0,) * k,)] == Fraction(1, [1, 1, 2, 6, 24][k])

    def test_t_map_zero_connection_is_degenerate(self):
        conn = tr.zero_connection(2, 0, 2, 2)
        full = tr.t_map(conn)
        assert full.constants() == {((), ()): Fraction(1)}
        assert full.without_units().is_zero()

    def test_t_map_respects_faces(self):
        for n, seed in [(1, 4), (2, 8), (2, 15)]:
            conn = tr.flat_family(n, 0, 2, 3, seed)
            rep = tr.t_face_report(conn)
            assert rep["ok"], rep

    def test_holonomy_is_path_independent_on_triangle(self):
        conn = tr.flat_family(2, 0, 2, 3, seed=8)
        direct = tr.segment_holonomy(conn, tr.simplex_corner(2, 0), tr.simplex_corner(2, 2))
        around = tr.edge_holonomy(conn, 1).mul(tr.edge_holonomy(conn, 2))
        assert (direct - around).is_zero()

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=12, deadline=None)
    def test_random_flat_families_are_flat(self, seed):
        conn = tr.flat_family(1, 1, 2, 2, seed)
        assert conn.curvature().is_zero()


class TestInterleavingMap:
    def test_holonomy_ode(self):
        for n, mdim, nil, seed in [(1, 1, 2, 5), (2, 1, 2, 7), (1, 2, 3, 6)]:
            conn = tr.flat_family(n, mdim, 2, nil, seed)
            rep = tr.holonomy_ode_report(conn)
            assert rep["ok"], rep

    def test_boundary_identity_constant_family(self):
        base = tr.flat_family(1, 0, 2, 2, seed=2)
        lifted = base.form.subst_affine([Poly.var(2, 0)])
        conn = PolyConnection(1, 1, 2, 2, lifted)
        rep = tr.psi_boundary_check(conn)
        assert rep["ok"], rep

    def test_boundary_identity_abelian(self):
        f = Poly(3, {(1, 0, 1): 1, (0, 2, 1): 2, (1, 1, 0): 1})
        conn = tr.abelian_family(2, 1, 2, f)
        rep = tr.psi_boundary_check(conn)
        assert rep["ok"], rep

    def test_boundary_identity_two_step_nilpotent(self):
        conn = tr.flat_family(1, 1, 2, 2, seed=5)
        rep = tr.psi_boundary_check(conn)
        assert rep["ok"] and rep["ode_ok"], rep

    def test_boundary_identity_deeper_truncation(self):
        conn = tr.flat_family(1, 1, 2, 3, seed=6)
        rep = tr.psi_boundary_check(conn)
        assert rep["ok"], rep

    def test_boundary_identity_triangle_family(self):
        conn = tr.flat_family(2, 1, 2, 2, seed=7)
        rep = tr.psi_boundary_check(conn)
        assert rep["ok"], rep

    def test_boundary_identity_two_parameter_box(self):
        # two box directions exercise the curvature cancellation inside d
        conn = tr.flat_family(1, 2, 2, 2, seed=8)
        rep = tr.psi_boundary_check(conn)
        assert rep["ok"], rep

    def test_simplex_dimension_cap(self):
        conn = tr.flat_family(3, 1, 2, 2, seed=9)
        with pytest.raises(ValueError):
            tr.psi_boundary_check(conn)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=8, deadline=None)
    def test_boundary_identity_random_families(self, seed):
        conn = tr.flat_family(1, 1, 2, 2, seed)
        assert tr.psi_boundary_check(conn)["ok"]
