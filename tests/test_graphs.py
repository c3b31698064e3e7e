from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcomplex import graphs
from braidcomplex.graphs import (
    CanonicalGraph,
    DoubleEdgeError,
    GraphVector,
    canonicalize,
    d_contract,
    d_contract_vector,
    d_split,
    disjoint_product,
    empty_graph,
    enumerate_admissible,
    enumerate_internally_connected,
    factorize,
    format_graph,
    graph_from_json,
    graph_to_json,
    lbracket,
    pairing,
    parse_graph,
    product_chain,
    validate,
)

TRIPOD = CanonicalGraph(3, 1, ((1, 4), (2, 4), (3, 4)))


def graph(n, m, edges):
    g, sign = canonicalize(n, m, edges)
    assert g is not None
    return g, sign


def vector_product(u: GraphVector, v: GraphVector) -> GraphVector:
    """Disjoint product extended bilinearly; squares of odd edges count as zero."""
    out = GraphVector()
    for g, a in u.items():
        for h, b in v.items():
            try:
                p, s = disjoint_product(g, h)
            except DoubleEdgeError:
                continue
            if p is not None:
                out.add_term(p, a * b * s)
    return out


# ---------------------------------------------------------------------------
# canonical form

def test_single_edge_canonical():
    g, sign = graph(2, 0, [(2, 1)])
    assert g.edges == ((1, 2),) and sign == 1


def test_edge_order_carries_sign():
    edges = [(1, 4), (2, 4), (3, 4)]
    g0, s0 = graph(3, 1, edges)
    g1, s1 = graph(3, 1, [edges[1], edges[0], edges[2]])
    assert g0 == g1 == TRIPOD
    assert s0 == 1 and s1 == -1


def test_relabeling_reaches_same_canonical_form():
    # square of internals 4,5,6,7 with legs; relabel internals by a 4-cycle
    edges = [(4, 5), (5, 6), (6, 7), (4, 7), (1, 4), (2, 5), (3, 6), (1, 7)]
    rho = {4: 5, 5: 6, 6: 7, 7: 4}
    relabeled = [tuple(sorted((rho.get(a, a), rho.get(b, b)))) for a, b in edges]
    g0, s0 = graph(3, 4, edges)
    g1, s1 = graph(3, 4, relabeled)
    assert g0 == g1
    assert s0 == s1  # order kept, so signs agree for a nonzero graph


def test_zero_graph_detected():
    # 4-cycle of internals with legs 1,2,1,2: reflection fixes the legs but induces an
    # odd edge permutation
    edges = [(1, 3), (2, 4), (1, 5), (2, 6), (3, 4), (4, 5), (5, 6), (3, 6)]
    g, sign = canonicalize(2, 4, edges)
    assert g is None and sign == 0


def brute_force_canonical(n_ext, n_int, edges):
    """Least sorted relabeled edge list over all n_int! internal relabelings, with the
    parity of the edge permutation that sorts it; 0 when both parities reach it."""
    best, signs = None, set()
    for perm in permutations(range(n_ext + 1, n_ext + n_int + 1)):
        lab = (*range(n_ext + 1), *perm)
        seq = [(lab[a], lab[b]) if lab[a] < lab[b] else (lab[b], lab[a]) for a, b in edges]
        key = sorted(seq)
        if best is None or key < best:
            best, signs = key, set()
        elif key > best:
            continue
        inv = sum(1 for i, x in enumerate(seq) for y in seq[i + 1:] if y < x)
        signs.add(-1 if inv & 1 else 1)
    return tuple(best), (0 if len(signs) == 2 else signs.pop())


def canonical_search_inputs(monkeypatch, blocks):
    """Every distinct input of the canonical search met while enumerating `blocks`
    from empty caches, cores included."""
    seen = set()
    search = graphs._search_canonical

    def recording(*key):
        seen.add(key)
        return search(*key)

    monkeypatch.setattr(graphs, "_search_canonical", recording)
    monkeypatch.setattr(graphs, "_canon_cache", {})
    for name in ("internal_cores", "enumerate_internally_connected", "enumerate_admissible"):
        monkeypatch.setattr(graphs, name, getattr(graphs, name).__wrapped__)
    for n, w in blocks:
        graphs.enumerate_admissible(n, w)
    return seen


def test_canonical_search_matches_brute_force_on_enumeration(monkeypatch):
    blocks = [(n, w) for n in (2, 3, 4) for w in (1, 2, 3)]
    inputs = canonical_search_inputs(monkeypatch, blocks)
    assert len(inputs) > 250
    for key in inputs:
        assert graphs._search_canonical(*key) == brute_force_canonical(*key), key


def test_canonical_search_matches_brute_force_on_cores():
    count = 0
    for m in range(2, 7):
        for e_ii in range(m - 1, m * (m - 1) // 2 + 1):
            for degs in graphs._nonincreasing_sequences(m, 2 * e_ii, m - 1):
                for edges in graphs._graphs_with_degrees(degs):
                    if not graphs._is_connected(m, edges):
                        continue
                    key = (0, m, tuple(sorted(edges)))
                    assert graphs._search_canonical(*key) == brute_force_canonical(*key), key
                    count += 1
    assert count > 800


@pytest.mark.parametrize("n,w", [(3, 4), (4, 3)])
def test_deficit_bound_keeps_enumeration(n, w, monkeypatch):
    bounded = enumerate_internally_connected(n, w)
    unbounded_cores = graphs.internal_cores
    monkeypatch.setattr(graphs, "internal_cores",
                        lambda m, e_ii, max_deficit=None: unbounded_cores(m, e_ii))
    assert enumerate_internally_connected.__wrapped__(n, w) == bounded


def test_canonical_edges_are_sorted_and_minimal():
    g, _ = graph(3, 2, [(3, 5), (1, 4), (2, 4), (4, 5), (2, 5)])
    assert list(g.edges) == sorted(g.edges)


def test_gradings():
    assert TRIPOD.num_edges == 3
    assert TRIPOD.weight == 2
    assert TRIPOD.star_degree == 1
    assert TRIPOD.cg_degree == 0
    e, _ = graph(2, 0, [(1, 2)])
    assert (e.weight, e.star_degree, e.cg_degree) == (1, 1, 0)


def test_validate_errors():
    with pytest.raises(ValueError, match="loop"):
        validate(2, 1, [(3, 3)])
    with pytest.raises(ValueError, match="repeated"):
        validate(2, 1, [(1, 3), (3, 1), (2, 3)])
    with pytest.raises(ValueError, match="valence"):
        validate(2, 1, [(1, 3), (2, 3)])
    with pytest.raises(ValueError, match="connected"):
        validate(1, 4, [(2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)])
    with pytest.raises(ValueError, match="outside"):
        validate(2, 0, [(1, 5)])


def test_internally_connected_predicate():
    assert TRIPOD.is_internally_connected()
    e, _ = graph(3, 0, [(1, 2)])
    assert e.is_internally_connected()
    p, s = disjoint_product(e, CanonicalGraph(3, 0, ((1, 3),)))
    assert not p.is_internally_connected()
    assert not empty_graph(3).is_internally_connected()


# ---------------------------------------------------------------------------
# products and factorization

def test_product_identity_and_sign():
    e12 = CanonicalGraph(3, 0, ((1, 2),))
    p, s = disjoint_product(empty_graph(3), e12)
    assert p == e12 and s == 1
    # two single edges anticommute: E1*E2 = 1
    e13 = CanonicalGraph(3, 0, ((1, 3),))
    p1, s1 = disjoint_product(e12, e13)
    p2, s2 = disjoint_product(e13, e12)
    assert p1 == p2 and s1 == -s2


def test_product_double_edge_rejected():
    e12 = CanonicalGraph(3, 0, ((1, 2),))
    with pytest.raises(DoubleEdgeError):
        disjoint_product(e12, e12)


def test_factorize_product_round_trip():
    e34 = CanonicalGraph(4, 0, ((3, 4),))
    tri4, _ = graph(4, 1, [(1, 5), (2, 5), (3, 5)])
    p, s = disjoint_product(tri4, e34)
    factors, fsign = factorize(p)
    assert sorted(f.sort_key() for f in factors) == sorted(
        f.sort_key() for f in (tri4, e34)
    )
    rebuilt, rsign = product_chain(factors)
    assert rebuilt == p and rsign == fsign


def test_factorize_internally_connected_is_singleton():
    factors, sign = factorize(TRIPOD)
    assert factors == [TRIPOD] and sign == 1


# ---------------------------------------------------------------------------
# contraction differential

def test_d_contract_tripod_hand_value():
    got = d_contract(TRIPOD)
    p1213, _ = graph(3, 0, [(1, 2), (1, 3)])
    p1223, _ = graph(3, 0, [(1, 2), (2, 3)])
    p1323, _ = graph(3, 0, [(1, 3), (2, 3)])
    expected = GraphVector({p1213: Fraction(1), p1223: Fraction(-1), p1323: Fraction(1)})
    assert got == expected


def test_d_contract_skips_external_and_common_neighbor():
    e, _ = graph(2, 0, [(1, 2)])
    assert d_contract(e).is_zero()
    # triangle of internals hanging off external 1: contracting any internal edge of
    # the triangle would double an edge, contracting a leg likewise
    tri, _ = graph(1, 3, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert d_contract(tri).is_zero()


def test_d_contract_squares_to_zero_small_blocks():
    for n, w in [(2, 2), (3, 2), (3, 3)]:
        for g in enumerate_admissible(n, w):
            assert d_contract_vector(d_contract(g)).is_zero(), (n, w, g)


def test_leibniz_rule():
    e12 = CanonicalGraph(3, 0, ((1, 2),))
    for g in enumerate_internally_connected(3, 2):
        lhs = d_contract_vector(vector_product(GraphVector.single(e12), GraphVector.single(g)))
        sign = -1 if e12.num_edges & 1 else 1
        rhs = vector_product(d_contract(e12) if not d_contract(e12).is_zero() else GraphVector(), GraphVector.single(g))
        rhs = rhs + vector_product(GraphVector.single(e12), d_contract(g)).scaled(sign)
        assert lhs == rhs, g


# ---------------------------------------------------------------------------
# enumeration against a brute-force oracle

def brute_force_internally_connected(n, w):
    found = set()
    for m in range(0, 2 * w + 1):
        total = n + m
        e_count = w + m
        pairs = list(combinations(range(1, total + 1), 2))
        if e_count > len(pairs):
            continue
        for edge_set in combinations(pairs, e_count):
            try:
                validate(n, m, edge_set)
            except ValueError:
                continue
            g, _ = canonicalize(n, m, edge_set)
            if g is not None and g.is_internally_connected():
                found.add(g)
    return found


@pytest.mark.parametrize("n,w", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_enumeration_matches_brute_force(n, w):
    assert set(enumerate_internally_connected(n, w)) == brute_force_internally_connected(n, w)


def test_enumeration_counts_frozen():
    assert len(enumerate_internally_connected(2, 1)) == 1
    assert len(enumerate_internally_connected(2, 2)) == 0
    assert len(enumerate_internally_connected(3, 1)) == 3
    # weight 2 on three externals: the tripod alone
    assert enumerate_internally_connected(3, 2) == (TRIPOD,)
    for (n, w), (connected, admissible) in {
        (3, 3): (22, 26), (3, 4): (135, 204), (4, 3): (52, 96), (4, 4): (395, 788),
    }.items():
        assert len(enumerate_internally_connected(n, w)) == connected
        assert len(enumerate_admissible(n, w)) == admissible


def test_enumerate_admissible_contains_products():
    graphs2 = enumerate_admissible(3, 2)
    pair_products = [g for g in graphs2 if g.n_int == 0]
    # pairs of distinct edges among 3 externals: C(3,2) = 3 edges, 3 unordered pairs
    assert len(pair_products) == 3
    assert TRIPOD in graphs2


# ---------------------------------------------------------------------------
# splitting differential and brackets

def test_adjointness_exact():
    for w in (2, 3):
        basis = enumerate_admissible(3, w)
        for g in basis:
            sg = d_split(g)
            for h in basis:
                if h.n_int != g.n_int + 1:
                    continue
                lhs = sg.coefficient(h)
                rhs = d_contract(h).coefficient(g)
                assert lhs == rhs, (g, h)


def test_d_split_internally_connected_stays_internally_connected():
    for w in (2, 3):
        for g in enumerate_internally_connected(3, w):
            for h, _ in d_split(g).items():
                assert h.is_internally_connected(), (g, h)


def test_d_split_squares_to_zero():
    for g in enumerate_internally_connected(3, 3):
        assert d_split(g).map_terms(d_split).is_zero(), g


def test_bracket_of_edges_is_tripod():
    e12 = CanonicalGraph(3, 0, ((1, 2),))
    e23 = CanonicalGraph(3, 0, ((2, 3),))
    got = lbracket(e12, e23)
    assert got == GraphVector.single(TRIPOD, -1)


def test_bracket_disjoint_edges_vanishes():
    e12 = CanonicalGraph(4, 0, ((1, 2),))
    e34 = CanonicalGraph(4, 0, ((3, 4),))
    assert lbracket(e12, e34).is_zero()


def test_bracket_antisymmetry_on_edges():
    e12 = CanonicalGraph(3, 0, ((1, 2),))
    e13 = CanonicalGraph(3, 0, ((1, 3),))
    assert lbracket(e12, e13) == lbracket(e13, e12).scaled(-1)


# ---------------------------------------------------------------------------
# formats

def test_text_round_trip():
    text = format_graph(TRIPOD)
    assert text == "n=3; m=1; edges=[(1,4),(2,4),(3,4)]"
    assert parse_graph(text) == TRIPOD


def test_json_round_trip():
    obj = graph_to_json(TRIPOD)
    assert obj == {"n_ext": 3, "n_int": 1, "edges": [[1, 4], [2, 4], [3, 4]]}
    assert graph_from_json(obj) == TRIPOD


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_graph("nonsense")
    with pytest.raises(ValueError):
        parse_graph("n=2; m=1; edges=[(1,3),(2,3)]")  # valence


# ---------------------------------------------------------------------------
# property tests

def _sample_pool():
    pool = []
    for w in (1, 2, 3):
        pool.extend(enumerate_internally_connected(3, w))
    return pool


POOL = _sample_pool()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, len(POOL) - 1), st.data())
def test_edge_permutation_sign_property(idx, data):
    g = POOL[idx]
    perm = data.draw(st.permutations(range(g.num_edges)))
    edges = [g.edges[i] for i in perm]
    h, sign = canonicalize(g.n_ext, g.n_int, edges)
    assert h == g
    # sign of the permutation applied
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[j] < perm[i])
    assert sign == (-1) ** inv


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(POOL) - 1), st.data())
def test_internal_relabeling_invariance(idx, data):
    g = POOL[idx]
    internals = list(g.internal_vertices())
    target = data.draw(st.permutations(internals))
    rho = dict(zip(internals, target))
    edges = [tuple(sorted((rho.get(a, a), rho.get(b, b)))) for a, b in g.edges]
    h, sign = canonicalize(g.n_ext, g.n_int, edges)
    assert h == g
    assert sign == canonicalize(g.n_ext, g.n_int, list(g.edges))[1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(POOL) - 1), st.integers(0, len(POOL) - 1))
def test_product_graded_commutativity(i, j):
    g, h = POOL[i], POOL[j]
    try:
        p1, s1 = disjoint_product(g, h)
        p2, s2 = disjoint_product(h, g)
    except DoubleEdgeError:
        return
    assert (p1 is None) == (p2 is None)
    if p1 is not None:
        assert p1 == p2
        assert s1 == s2 * (-1) ** (g.num_edges * h.num_edges)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(POOL) - 1), st.integers(0, len(POOL) - 1))
def test_factorize_round_trip_property(i, j):
    g, h = POOL[i], POOL[j]
    try:
        p, _ = disjoint_product(g, h)
    except DoubleEdgeError:
        return
    if p is None:
        return
    factors, sign = factorize(p)
    rebuilt, rsign = product_chain(factors)
    assert rebuilt == p and rsign == sign
    assert sorted(f.weight for f in factors) == sorted((g.weight, h.weight))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, len(POOL) - 1), st.integers(0, len(POOL) - 1))
def test_adjointness_random_pairs(i, j):
    g, h = POOL[i], POOL[j]
    if h.n_int != g.n_int + 1 or h.weight != g.weight:
        return
    assert d_split(g).coefficient(h) == d_contract(h).coefficient(g)


def test_pairing_orthonormal():
    u = GraphVector.single(TRIPOD, Fraction(3, 2))
    v = GraphVector.single(TRIPOD, Fraction(2))
    e, _ = graph(3, 0, [(1, 2)])
    v.add_term(e, 5)
    assert pairing(u, v) == 3
