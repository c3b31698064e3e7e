"""Graded graph complexes, their cohomology, and the dictionary into the braid tower.

Blocks are indexed by (externals n, weight w) and graded by the internal vertex
count m; the splitting differential raises m by one and the cohomological degree is
1 + m - w. Matrices are assembled through the contraction adjoint: the coefficient
of h in d_split(g) equals the coefficient of g in d_contract(h).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .braids import SderElement, TnElt, div, tn_basis, tn_bracket
from .exact import SparseRationalMatrix, cohomology_dims, membership, rank, rank_kernel_image
from .freelie import LieElt, TraceElt, assoc_to_lie, bracketing
from .graphs import (
    CanonicalGraph,
    GraphVector,
    d_contract,
    d_split_vector,
    enumerate_admissible,
    enumerate_internally_connected,
    lbracket,
)


@lru_cache(maxsize=None)
def ic_graphs(n: int, w: int) -> dict[int, tuple[CanonicalGraph, ...]]:
    """Internally connected basis graphs grouped by internal vertex count."""
    groups: dict[int, list[CanonicalGraph]] = {}
    for g in enumerate_internally_connected(n, w):
        groups.setdefault(g.n_int, []).append(g)
    return {m: tuple(gs) for m, gs in groups.items()}


@lru_cache(maxsize=None)
def admissible_graphs(n: int, w: int) -> dict[int, tuple[CanonicalGraph, ...]]:
    groups: dict[int, list[CanonicalGraph]] = {}
    for g in enumerate_admissible(n, w):
        groups.setdefault(g.n_int, []).append(g)
    return {m: tuple(gs) for m, gs in groups.items()}


def _split_matrix(lower, upper) -> SparseRationalMatrix:
    """Matrix of d_split: span(lower) -> span(upper), via the contraction adjoint."""
    col = {g: i for i, g in enumerate(lower)}
    entries = []
    for r, h in enumerate(upper):
        for g, c in d_contract(h).items():
            j = col.get(g)
            if j is not None:
                entries.append((r, j, c))
    return SparseRationalMatrix.from_entries(len(upper), len(lower), entries)


class ComplexBlock:
    """One (n, w) block of the internally connected complex with its differentials."""

    def __init__(self, n: int, w: int):
        self.n = n
        self.w = w
        self.basis = ic_graphs(n, w)
        self.split: dict[int, SparseRationalMatrix] = {}
        for m in range(0, 2 * w):
            lower = self.basis.get(m, ())
            if lower:
                self.split[m] = _split_matrix(lower, self.basis.get(m + 1, ()))
        for m, mat in self.split.items():
            nxt = self.split.get(m + 1)
            if nxt is not None and not (nxt @ mat).is_zero():
                raise ArithmeticError(f"d_split^2 != 0 at n={n}, w={w}, m={m}")

    def degree_basis(self, degree: int):
        return self.basis.get(degree + self.w - 1, ())

    def split_matrix(self, m: int) -> SparseRationalMatrix:
        mat = self.split.get(m)
        if mat is None:
            upper = self.basis.get(m + 1, ())
            mat = SparseRationalMatrix(len(upper), len(self.basis.get(m, ())))
        return mat


@lru_cache(maxsize=None)
def build_block(n: int, w: int) -> ComplexBlock:
    return ComplexBlock(n, w)


def check_d_squared(n: int, w: int) -> dict[str, bool]:
    """Exact square-zero checks: contraction on the whole admissible span and the
    splitting differential restricted to the internally connected span."""
    adm = admissible_graphs(n, w)
    contract = {}
    for m in sorted(adm):
        contract[m] = _split_matrix(adm.get(m - 1, ()), adm[m]).transpose()
    contract_ok = True
    for m in sorted(adm):
        a, b = contract.get(m), contract.get(m - 1)
        if a is not None and b is not None and not (b @ a).is_zero():
            contract_ok = False
    try:
        build_block(n, w)
        split_ok = True
    except ArithmeticError:
        split_ok = False
    return {"contract_admissible": contract_ok, "split_ic": split_ok}


def h_cg_dimensions(n: int, w: int) -> dict[int, int]:
    """Exact cohomology dimensions of the (n, w) block, keyed by degree."""
    block = build_block(n, w)
    out = {}
    for m in range(0, 2 * w):
        space = block.basis.get(m, ())
        if not space:
            continue
        d_out = block.split_matrix(m)
        d_in = block.split_matrix(m - 1)
        out[m - w + 1] = cohomology_dims(d_in, d_out)
    return out


# ---------------------------------------------------------------------------
# the layer of graphs attached to the last external vertex

def _touches_last(g: CanonicalGraph) -> bool:
    n = g.n_ext
    return any(n in e for e in g.edges)


@lru_cache(maxsize=None)
def _layer_bases(n: int, w: int) -> dict[int, tuple[CanonicalGraph, ...]]:
    out = {}
    for m, gs in ic_graphs(n, w).items():
        kept = tuple(g for g in gs if _touches_last(g))
        if kept:
            out[m] = kept
    return out


def f_layer_dimensions(n: int, w: int) -> dict[int, int]:
    """Cohomology of the subcomplex of graphs attached to the last external vertex."""
    bases = _layer_bases(n, w)
    out = {}
    for m in sorted(bases):
        space = bases[m]
        d_out = _split_matrix(space, bases.get(m + 1, ()))
        d_in = _split_matrix(bases.get(m - 1, ()), space)
        out[m - w + 1] = cohomology_dims(d_in, d_out)
    return out


# ---------------------------------------------------------------------------
# reading trees as Lie words

def _reading_sign(reading) -> int:
    sign = 1
    for i in range(len(reading)):
        for j in range(i + 1, len(reading)):
            if reading[i] > reading[j]:
                sign = -sign
    return sign


def _read_tree(g: CanonicalGraph, root_edge) -> tuple[LieElt, int]:
    """Read the tree hanging off root_edge as a bracketed word with a parity sign.

    Letters are external labels; the reading order is root edge first, then each
    vertex lists its two remaining edges by canonical position, depth first. The
    sign is the parity of the permutation from canonical edge order to reading
    order. Returns (word in Lyndon normal form, sign).
    """
    pos = {e: i for i, e in enumerate(g.edges)}
    adjacency: dict[int, list[tuple[int, tuple]]] = {}
    for e in g.edges:
        a, b = e
        adjacency.setdefault(a, []).append((b, e))
        adjacency.setdefault(b, []).append((a, e))
    reading = [pos[root_edge]]

    def walk(vertex, came_by):
        if g.is_external(vertex):
            return {(vertex,): Fraction(1)}
        children = sorted(
            (pos[e], other, e) for other, e in adjacency[vertex] if e != came_by
        )
        if len(children) != 2:
            raise ValueError("vertex is not trivalent")
        assocs = []
        for p, other, e in children:
            reading.append(p)
            assocs.append(walk(other, e))
        left, right = assocs
        out: dict[tuple, Fraction] = {}
        for u, cu in left.items():
            for v, cv in right.items():
                for word, c in ((u + v, cu * cv), (v + u, -cu * cv)):
                    s = out.get(word, 0) + c
                    if s:
                        out[word] = s
                    else:
                        out.pop(word, None)
        return out

    a, b = root_edge
    start = b if g.is_external(a) else a
    assoc = walk(start, root_edge)
    return assoc_to_lie(assoc), _reading_sign(reading)


def tree_to_lie_word(g: CanonicalGraph, root: int) -> LieElt:
    """Lie word of a trivalent internal tree with exactly one edge at the root.

    Letters are the other external labels. Graphs of any other shape go to zero.
    """
    if not 1 <= root <= g.n_ext:
        raise ValueError("root out of range")
    if not g.is_internally_connected():
        raise ValueError("input must be internally connected")
    root_edges = [e for e in g.edges if root in e]
    if len(root_edges) != 1:
        return LieElt.zero()
    m = g.n_int
    if m == 0:
        a, b = root_edges[0]
        return LieElt({(a if b == root else b,): Fraction(1)})
    if _internal_edge_count(g) != m - 1:
        return LieElt.zero()
    if any(g.degree(v) != 3 for v in g.internal_vertices()):
        return LieElt.zero()
    word, sign = _read_tree(g, root_edges[0])
    return word.scaled(sign)


def _strip_isolated_last(g: CanonicalGraph) -> CanonicalGraph:
    """Reinterpret a graph whose last external vertex is isolated over one fewer."""
    n = g.n_ext
    edges = tuple(tuple((x - 1 if x > n else x) for x in e) for e in g.edges)
    return CanonicalGraph(n - 1, g.n_int, edges)


def class_in_t(v: GraphVector) -> TnElt:
    """Degree-0 cohomology coordinates of a closed vector, in the tower basis."""
    terms = list(v.items())
    if not terms:
        raise ValueError("cannot infer the strand count of the zero vector")
    n = terms[0][0].n_ext
    weights = {g.weight for g, _ in terms}
    if len(weights) != 1 or any(g.n_ext != n for g, _ in terms):
        raise ValueError("input must be homogeneous")
    w = weights.pop()
    if any(g.n_int != w - 1 for g, _ in terms):
        raise ValueError("input must be in degree 0")
    if any(not g.is_internally_connected() for g, _ in terms):
        raise ValueError("terms must be internally connected")
    if not d_split_vector(v).is_zero():
        raise ValueError("input is not closed")
    return TnElt(n, _class_rec(n, dict(terms)))


def _class_rec(n: int, terms: dict[CanonicalGraph, Fraction]) -> dict:
    if not terms:
        return {}
    if n == 2:
        edge = CanonicalGraph(2, 0, ((1, 2),))
        c = terms.get(edge)
        return {(2, (1,)): c} if c else {}
    lie = LieElt.zero()
    lower: dict[CanonicalGraph, Fraction] = {}
    for g, c in terms.items():
        if _touches_last(g):
            lie = lie + tree_to_lie_word(g, n).scaled(c)
        else:
            lower[_strip_isolated_last(g)] = c
    coeffs = {(n, word): c for word, c in lie.coeffs.items()}
    coeffs.update(_class_rec(n - 1, lower))
    return coeffs


# ---------------------------------------------------------------------------
# the generators-to-edges map and its relation checks

@lru_cache(maxsize=None)
def _mu_basis(n: int, layer: int, word: tuple) -> GraphVector:
    def build(tree):
        if isinstance(tree, int):
            return GraphVector.single(CanonicalGraph(n, 0, ((tree, layer),)))
        return lbracket(build(tree[0]), build(tree[1]))

    return build(bracketing(word))


def mu_rep(x: TnElt) -> GraphVector:
    """Chain-level representative of the class attached to a tower element."""
    out = GraphVector()
    for (layer, word), c in x.coeffs.items():
        out = out + _mu_basis(x.n, layer, word).scaled(c)
    return out


def is_exact_degree0(v: GraphVector, n: int, w: int) -> bool:
    """Membership of a degree-0 vector in the image of the splitting differential."""
    block = build_block(n, w)
    space = block.basis.get(w - 1, ())
    index = {g: i for i, g in enumerate(space)}
    vec = {}
    for g, c in v.items():
        if g not in index:
            raise ValueError(f"term outside the degree-0 basis: {g!r}")
        vec[index[g]] = c
    sol, _ = membership(block.split_matrix(w - 2), vec)
    return sol is not None


def mu_check(n: int, w_max: int) -> dict:
    """Generators are closed, defining relations become exact, brackets agree."""
    gens = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    edge = {p: GraphVector.single(CanonicalGraph(n, 0, (p,))) for p in gens}
    report = {"generators_closed": True, "relations": [], "bracket_pairs": []}
    for g in edge.values():
        if not d_split_vector(g).is_zero():
            report["generators_closed"] = False

    for (a, b), (c, d) in itertools.combinations(gens, 2):
        if len({a, b, c, d}) == 4:
            val = lbracket(edge[(a, b)], edge[(c, d)])
            report["relations"].append(
                {"relation": f"[t{a}{b}, t{c}{d}]", "pass": val.is_zero()}
            )
    if w_max >= 2:
        for i, j, k in itertools.combinations(range(1, n + 1), 3):
            combo = lbracket(edge[(i, j)] + edge[(j, k)], edge[(i, k)])
            ok = combo.is_zero() or is_exact_degree0(combo, n, 2)
            report["relations"].append(
                {"relation": f"[t{i}{j} + t{j}{k}, t{i}{k}]", "pass": ok}
            )
        for (a, b), (c, d) in itertools.combinations(gens, 2):
            x = TnElt.generator(n, a, b)
            y = TnElt.generator(n, c, d)
            diff = lbracket(edge[(a, b)], edge[(c, d)]) - mu_rep(tn_bracket(x, y))
            ok = diff.is_zero() or is_exact_degree0(diff, n, 2)
            report["bracket_pairs"].append({"pair": f"(t{a}{b}, t{c}{d})", "pass": ok})
    report["pass"] = (
        report["generators_closed"]
        and all(r["pass"] for r in report["relations"])
        and all(r["pass"] for r in report["bracket_pairs"])
    )
    return report


# ---------------------------------------------------------------------------
# the tree complex

def _internal_edge_count(g: CanonicalGraph) -> int:
    return sum(1 for a, b in g.edges if not g.is_external(a) and not g.is_external(b))


@lru_cache(maxsize=None)
def tree_basis(n: int, w: int, m: int) -> tuple[CanonicalGraph, ...]:
    if m <= 0:
        return ic_graphs(n, w).get(0, ())
    return tuple(
        g for g in ic_graphs(n, w).get(m, ()) if _internal_edge_count(g) == m - 1
    )


@lru_cache(maxsize=None)
def tree_split_matrix(n: int, w: int, m: int) -> SparseRationalMatrix:
    return _split_matrix(tree_basis(n, w, m), tree_basis(n, w, m + 1))


def tree_complex_h0(n: int, w: int):
    """Degree-0 tree cohomology: trivalent trees mod the image of vertex splitting.

    Returns (dimension, trivalent tree basis, relation matrix into that basis).
    """
    m0 = w - 1
    top = tree_basis(n, w, m0)
    if not tree_split_matrix(n, w, m0).is_zero():
        raise ArithmeticError("trivalent trees must be closed in the tree complex")
    if m0 >= 1:
        ihx = tree_split_matrix(n, w, m0 - 1)
    else:
        ihx = SparseRationalMatrix(len(top), 0)
    return len(top) - rank(ihx), top, ihx


def cg_to_tree_rank(n: int, w: int) -> int:
    """Rank of the tower classes inside degree-0 tree cohomology."""
    _, top, ihx = tree_complex_h0(n, w)
    index = {g: i for i, g in enumerate(top)}
    keys = tn_basis(n, w)
    combined = SparseRationalMatrix(len(top), len(keys) + ihx.ncols)
    for col, key in enumerate(keys):
        for g, c in mu_rep(TnElt(n, {key: Fraction(1)})).items():
            i = index.get(g)
            if i is not None:
                combined.add_to(i, col, c)
    for r, row in enumerate(ihx.rows):
        for c, val in row.items():
            combined.add_to(r, len(keys) + c, val)
    return rank(combined) - rank(ihx)


# ---------------------------------------------------------------------------
# the one-loop block and its trace

@lru_cache(maxsize=None)
def one_loop_basis(n: int, w: int, m: int) -> tuple[CanonicalGraph, ...]:
    return tuple(
        g for g in ic_graphs(n, w).get(m, ()) if _internal_edge_count(g) == m
    )


def is_loop_spanning(g: CanonicalGraph) -> bool:
    """One cycle through every internal vertex, each carrying exactly one leg."""
    if g.n_int < 3 or _internal_edge_count(g) != g.n_int:
        return False
    return all(
        g.degree(v) == 3 and g.internal_degree(v) == 2 for v in g.internal_vertices()
    )


def one_loop_trace(g: CanonicalGraph) -> TraceElt:
    """The cyclic-word image of a loop-spanning trivalent one-loop graph.

    Legs are read around the cycle; the sign is the parity of the permutation from
    the canonical edge order to the alternating leg/loop-edge reading order. The
    reversed word enters with the opposite parity of the cycle length.
    """
    if not is_loop_spanning(g):
        raise ValueError("graph is not a loop-spanning trivalent one-loop graph")
    pos = {e: i for i, e in enumerate(g.edges)}
    leg_of = {}
    leg_edge = {}
    loop_nbrs: dict[int, list[int]] = {}
    for a, b in g.edges:
        if g.is_external(a):
            leg_of[b] = a
            leg_edge[b] = (a, b)
        elif g.is_external(b):
            leg_of[a] = b
            leg_edge[a] = (a, b)
        else:
            loop_nbrs.setdefault(a, []).append(b)
            loop_nbrs.setdefault(b, []).append(a)
    start = min(g.internal_vertices())
    cycle = [start, min(loop_nbrs[start])]
    while True:
        a, b = cycle[-2], cycle[-1]
        c = next(x for x in loop_nbrs[b] if x != a)
        if c == start:
            break
        cycle.append(c)
    reading = []
    for i, v in enumerate(cycle):
        reading.append(pos[leg_edge[v]])
        u = cycle[(i + 1) % len(cycle)]
        reading.append(pos[(min(v, u), max(v, u))])
    sign = _reading_sign(reading)
    word = tuple(leg_of[v] for v in cycle)
    out = TraceElt()
    out.add(word, Fraction(sign))
    out.add(tuple(reversed(word)), Fraction(-sign * (-1) ** len(word)))
    return out


# ---------------------------------------------------------------------------
# trees as derivation tuples, and the divergence factorization

def tree_to_sder(v) -> SderElement:
    """Sum over rootings: each leg reads the rest of its tree into that slot."""
    if isinstance(v, CanonicalGraph):
        v = GraphVector.single(v)
    terms = list(v.items())
    if not terms:
        raise ValueError("empty vector has no strand count")
    n = terms[0][0].n_ext
    parts = [LieElt.zero() for _ in range(n)]
    for g, c in terms:
        if g.n_ext != n:
            raise ValueError("mixed strand counts")
        if g.n_int == 0:
            a, b = g.edges[0]
            parts[a - 1] = parts[a - 1] + LieElt({(b,): Fraction(c)})
            parts[b - 1] = parts[b - 1] + LieElt({(a,): Fraction(c)})
            continue
        if _internal_edge_count(g) != g.n_int - 1:
            raise ValueError("not an internal tree")
        if any(g.degree(u) != 3 for u in g.internal_vertices()):
            raise ValueError("internal vertices must be trivalent")
        for e in g.edges:
            a, b = e
            if g.is_external(a):
                ext = a
            elif g.is_external(b):
                ext = b
            else:
                continue
            word, sign = _read_tree(g, e)
            parts[ext - 1] = parts[ext - 1] + word.scaled(c * sign)
    return SderElement(n, parts)


@lru_cache(maxsize=None)
def _d1_matrix(n: int, w: int) -> SparseRationalMatrix:
    return _split_matrix(tree_basis(n, w, w - 1), one_loop_basis(n, w, w))


@lru_cache(maxsize=None)
def _loop_ihx_matrix(n: int, w: int) -> SparseRationalMatrix:
    return _split_matrix(one_loop_basis(n, w, w - 1), one_loop_basis(n, w, w))


def _spanning_trace(loops, spanning, coeffs) -> TraceElt:
    out = TraceElt()
    for j, i in enumerate(spanning):
        c = coeffs.get(j)
        if c:
            for word, d in one_loop_trace(loops[i]).coeffs.items():
                out.add(word, c * d)
    return out


def div_factorization_check(n: int, w: int, limit: int | None = None) -> dict:
    """Check that the one-loop trace of d1 matches div through the tree dictionary.

    d1 of each sampled trivalent tree is decomposed into a loop-spanning part plus
    a relation image; the trace of the spanning part is compared against div of the
    derivation tuple. One global sign is fitted over all classes and reported.
    """
    trees = tree_basis(n, w, w - 1)
    loops = one_loop_basis(n, w, w)
    spanning = [i for i, g in enumerate(loops) if is_loop_spanning(g)]
    d1 = _d1_matrix(n, w)
    ihx = _loop_ihx_matrix(n, w)

    combined = SparseRationalMatrix(len(loops), len(spanning) + ihx.ncols)
    for j, i in enumerate(spanning):
        combined.add_to(i, j, Fraction(1))
    for r, row in enumerate(ihx.rows):
        for c, val in row.items():
            combined.add_to(r, len(spanning) + c, val)

    # well-definedness: the trace kills the spanning part of every solve ambiguity
    _, kernel, _ = rank_kernel_image(combined)
    well_defined = all(
        _spanning_trace(loops, spanning, vec).is_zero() for vec in kernel
    )

    results = []
    signs = set()
    count = len(trees) if limit is None else min(limit, len(trees))
    for jcol in range(count):
        y = d1.apply({jcol: Fraction(1)})
        sol, _ = membership(combined, y)
        if sol is None:
            results.append({"solved": False, "sign": 0})
            signs.add(0)
            continue
        t = _spanning_trace(loops, spanning, sol)
        dv = div(tree_to_sder(trees[jcol]))
        entry = {"solved": True, "trace": t, "div": dv}
        if t.is_zero() and dv.is_zero():
            entry["sign"] = None
        elif t == dv:
            entry["sign"] = 1
            signs.add(1)
        elif t == dv.scaled(-1):
            entry["sign"] = -1
            signs.add(-1)
        else:
            entry["sign"] = 0
            signs.add(0)
        results.append(entry)

    # relation-exact classes must trace to zero
    ihx_zero = True
    dtree = tree_split_matrix(n, w, w - 2)
    for j in range(dtree.ncols):
        y = d1.apply(dtree.apply({j: Fraction(1)}))
        sol, _ = membership(combined, y)
        if sol is None or not _spanning_trace(loops, spanning, sol).is_zero():
            ihx_zero = False

    ok = (
        well_defined
        and ihx_zero
        and all(r["solved"] for r in results)
        and 0 not in signs
        and len(signs) <= 1
    )
    return {
        "n": n,
        "w": w,
        "classes": len(results),
        "well_defined": well_defined,
        "ihx_maps_to_zero": ihx_zero,
        "global_sign": next(iter(signs)) if len(signs) == 1 else None,
        "results": results,
        "pass": ok,
    }
