"""Admissible graphs with signed edge orderings.

A graph here has numbered external vertices 1..n_ext, internal vertices
n_ext+1..n_ext+n_int, and an ordered sequence of unordered edges. Reordering the edges
multiplies the graph by the sign of the permutation, so a graph with an automorphism
inducing an odd edge permutation is zero. Admissibility: no loops, no double edges,
every internal vertex at least trivalent and connected through the graph to some
external vertex.

Everything downstream (differentials, enumeration, brackets) lives on canonical
representatives: the relabeling of internal vertices whose sorted edge list is
lexicographically least, with signs tracked through edge-permutation parity.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations


class DoubleEdgeError(ValueError):
    """Raised when an operation would create a repeated edge (inadmissible, not zero)."""


def _sort_parity(seq) -> int:
    """Sign of the permutation that sorts `seq` (entries must be distinct)."""
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[j] < seq[i]:
                inv += 1
    return -1 if inv & 1 else 1


def _normalize_edges(edges) -> list[tuple[int, int]]:
    norm = []
    for a, b in edges:
        if a == b:
            raise ValueError(f"loop edge at vertex {a}")
        norm.append((a, b) if a < b else (b, a))
    if len(set(norm)) != len(norm):
        raise DoubleEdgeError("repeated edge")
    return norm


@dataclass(frozen=True)
class CanonicalGraph:
    """Canonical representative of an admissible graph. Construct via canonicalize()."""

    n_ext: int
    n_int: int
    edges: tuple[tuple[int, int], ...]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def weight(self) -> int:
        return self.num_edges - self.n_int

    @property
    def star_degree(self) -> int:
        return self.num_edges - 2 * self.n_int

    @property
    def cg_degree(self) -> int:
        return 1 - self.num_edges + 2 * self.n_int

    def is_external(self, v: int) -> bool:
        return v <= self.n_ext

    def internal_vertices(self) -> range:
        return range(self.n_ext + 1, self.n_ext + self.n_int + 1)

    def internal_degree(self, v: int) -> int:
        return sum(1 for a, b in self.edges if (a == v or b == v) and a > self.n_ext and b > self.n_ext)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def external_edge_count(self) -> int:
        """Number of edges joining two external vertices."""
        return sum(1 for a, b in self.edges if b <= self.n_ext)

    def _internal_components(self) -> list[list[int]]:
        parent = {v: v for v in self.internal_vertices()}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a, b in self.edges:
            if a > self.n_ext and b > self.n_ext:
                parent[find(a)] = find(b)
        comps: dict[int, list[int]] = {}
        for v in self.internal_vertices():
            comps.setdefault(find(v), []).append(v)
        return sorted(comps.values())

    def is_internally_connected(self) -> bool:
        """One piece after deleting externals: a single ext-ext edge, or one internal
        component with no ext-ext edges."""
        if self.n_int == 0:
            return self.num_edges == 1
        return self.external_edge_count() == 0 and len(self._internal_components()) == 1

    def sort_key(self):
        return (self.n_int, self.edges)

    def __repr__(self):
        return f"G(n={self.n_ext}, m={self.n_int}, {list(self.edges)})"


def empty_graph(n_ext: int) -> CanonicalGraph:
    return CanonicalGraph(n_ext, 0, ())


def validate(n_ext: int, n_int: int, edges) -> None:
    """Raise ValueError describing the first admissibility violation, if any."""
    if n_ext < 0 or n_int < 0:
        raise ValueError("negative vertex counts")
    total = n_ext + n_int
    for a, b in edges:
        if not (1 <= a <= total and 1 <= b <= total):
            raise ValueError(f"edge ({a},{b}) outside vertex range 1..{total}")
    norm = _normalize_edges(edges)
    if n_int == 0:
        return
    if n_ext == 0:
        raise ValueError("internal vertices present but no external vertex to anchor them")
    deg = {v: 0 for v in range(n_ext + 1, total + 1)}
    adj: dict[int, list[int]] = {}
    for a, b in norm:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
        for v in (a, b):
            if v > n_ext:
                deg[v] += 1
    for v, d in deg.items():
        if d < 3:
            raise ValueError(f"internal vertex {v} has valence {d} < 3")
    seen = set(range(1, n_ext + 1))
    stack = list(seen)
    while stack:
        for u in adj.get(stack.pop(), ()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    stranded = [v for v in deg if v not in seen]
    if stranded:
        raise ValueError(f"internal vertices {stranded} not connected to any external vertex")


# ---------------------------------------------------------------------------
# canonical form

_canon_cache: dict[tuple, tuple[tuple[tuple[int, int], ...], int]] = {}


def _search_canonical(n_ext, n_int, edges_sorted):
    """Minimize the sorted relabeled edge list over internal relabelings.

    Returns (best edge tuple, sign), sign 0 when some optimal relabeling has odd edge
    permutation parity relative to an even one (the graph is zero). The sign is the
    parity of the permutation taking `edges_sorted` order to the canonical order.

    Internal vertices get labels n_ext+1, n_ext+2, ... in search order, so at depth d
    every unplaced vertex ends up at a label >= p = n_ext+d+1. Each edge is bounded
    from below by what it can still become: its relabeled pair if both ends are
    placed, (x, p) if one end is placed at x, (p, p+1) if neither is. Sorting keeps
    elementwise bounds in order, so the sorted bound is <= every completion's key,
    and a branch is cut only when that bound is strictly greater than the best key
    so far. Every leaf with the optimal key is therefore still reached, and the sign
    (or its cancellation) is read from all of them.
    """
    if n_int == 0 or not edges_sorted:
        return tuple(edges_sorted), 1
    total = n_ext + n_int
    adj: list[list[int]] = [[] for _ in range(total + 1)]
    for a, b in edges_sorted:
        adj[a].append(b)
        adj[b].append(a)
    internals = range(n_ext + 1, total + 1)
    lab = list(range(n_ext + 1)) + [0] * n_int  # new label by vertex; 0: not placed
    best: list | None = None
    best_signs: set[int] = set()

    def dfs(depth):
        nonlocal best
        if depth == n_int:
            seq = []
            for a, b in edges_sorted:
                x, y = lab[a], lab[b]
                seq.append((x, y) if x < y else (y, x))
            key = sorted(seq)
            if best is None or key < best:
                best = key
                best_signs.clear()
                best_signs.add(_sort_parity(seq))
            elif key == best:
                best_signs.add(_sort_parity(seq))
            return
        p = n_ext + depth + 1
        if best is not None:
            bound = []
            for a, b in edges_sorted:
                x, y = lab[a], lab[b]
                if x and y:
                    bound.append((x, y) if x < y else (y, x))
                elif x or y:
                    bound.append((x or y, p))
                else:
                    bound.append((p, p + 1))
            bound.sort()
            if bound > best:
                return
        ranked = []
        for v in internals:
            if lab[v]:
                continue
            contrib = sorted((lab[u], p) for u in adj[v] if lab[u])
            ranked.append((0 if contrib else 1, contrib, -len(adj[v]), v))
        ranked.sort()
        for _, _, _, v in ranked:
            lab[v] = p
            dfs(depth + 1)
            lab[v] = 0

    dfs(0)
    assert best is not None
    if len(best_signs) == 2:
        return tuple(best), 0
    return tuple(best), best_signs.pop()


def canonicalize(n_ext, n_int, edges):
    """Canonical form of an admissible graph with its sign.

    Returns (CanonicalGraph, sign) where the canonical graph's edges are the
    lexicographically least sorted edge list over relabelings of internal vertices, and
    sign is the parity of the edge permutation from the input order. Returns (None, 0)
    for graphs that are zero by an odd automorphism. Rejects loops and double edges.
    """
    norm = _normalize_edges(edges)
    input_sign = _sort_parity(norm)
    key = (n_ext, n_int, tuple(sorted(norm)))
    hit = _canon_cache.get(key)
    if hit is None:
        hit = _search_canonical(*key)
        _canon_cache[key] = hit
    canon_edges, sign = hit
    if sign == 0:
        return None, 0
    return CanonicalGraph(n_ext, n_int, canon_edges), input_sign * sign


# ---------------------------------------------------------------------------
# linear combinations

class GraphVector:
    """Finite rational linear combination of canonical graphs."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[CanonicalGraph, Fraction] = {}
        if terms:
            for g, c in (terms.items() if isinstance(terms, dict) else terms):
                self.add_term(g, c)

    @classmethod
    def single(cls, g: CanonicalGraph, coeff=1) -> "GraphVector":
        v = cls()
        v.add_term(g, coeff)
        return v

    def add_term(self, g: CanonicalGraph, coeff):
        coeff = Fraction(coeff)
        if not coeff:
            return
        c = self.terms.get(g, 0) + coeff
        if c:
            self.terms[g] = c
        else:
            del self.terms[g]

    def coefficient(self, g: CanonicalGraph) -> Fraction:
        return self.terms.get(g, Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return self.terms.items()

    def scaled(self, c) -> "GraphVector":
        c = Fraction(c)
        return GraphVector({g: v * c for g, v in self.terms.items()} if c else {})

    def __add__(self, other: "GraphVector") -> "GraphVector":
        out = GraphVector(dict(self.terms))
        for g, c in other.terms.items():
            out.add_term(g, c)
        return out

    def __sub__(self, other: "GraphVector") -> "GraphVector":
        return self + other.scaled(-1)

    def map_terms(self, fn) -> "GraphVector":
        """Linear extension of a map graph -> GraphVector."""
        out = GraphVector()
        for g, c in self.terms.items():
            for h, d in fn(g).items():
                out.add_term(h, c * d)
        return out

    def __eq__(self, other):
        return isinstance(other, GraphVector) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "GraphVector(0)"
        bits = [f"{c}*{g!r}" for g, c in sorted(self.terms.items(), key=lambda t: t[0].sort_key())]
        return "GraphVector(" + " + ".join(bits) + ")"


def pairing(u: GraphVector, v: GraphVector) -> Fraction:
    """Orthonormal pairing on the canonical-graph basis."""
    small, large = (u, v) if len(u.terms) <= len(v.terms) else (v, u)
    return sum((c * large.coefficient(g) for g, c in small.items()), Fraction(0))


# ---------------------------------------------------------------------------
# products and factorization

def disjoint_product(g1: CanonicalGraph, g2: CanonicalGraph):
    """Glue along the shared externals; returns (graph, sign) or (None, 0) if zero.

    Raises DoubleEdgeError when both factors carry the same external-external edge:
    the result is inadmissible, not zero.
    """
    if g1.n_ext != g2.n_ext:
        raise ValueError("factors have different external counts")
    n = g1.n_ext
    shift = g1.n_int
    shared = {e for e in g1.edges if e[1] <= n} & {e for e in g2.edges if e[1] <= n}
    if shared:
        raise DoubleEdgeError(f"product would repeat external edges {sorted(shared)}")
    edges = list(g1.edges)
    for a, b in g2.edges:
        edges.append((a if a <= n else a + shift, b if b <= n else b + shift))
    return canonicalize(n, g1.n_int + g2.n_int, edges)


def product_chain(factors):
    """Iterated disjoint_product over a sequence, with accumulated sign."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty product needs an external count; use empty_graph(n)")
    acc, sign = factors[0], 1
    for g in factors[1:]:
        acc, s = disjoint_product(acc, g)
        if acc is None:
            return None, 0
        sign *= s
    return acc, sign


def factorize(g: CanonicalGraph):
    """Internally connected factors of g, sorted, with the sign of the rebuild.

    Returns (factors, sign) with product_chain(factors) == (g, sign); factors are the
    internal components with their legs plus the individual external-external edges.
    """
    factors = []
    for a, b in g.edges:
        if b <= g.n_ext:
            factors.append(CanonicalGraph(g.n_ext, 0, ((a, b),)))
    for comp in g._internal_components():
        relabel = {v: g.n_ext + i + 1 for i, v in enumerate(sorted(comp))}
        comp_set = set(comp)
        edges = []
        for a, b in g.edges:
            if a in comp_set or b in comp_set:
                edges.append((relabel.get(a, a), relabel.get(b, b)))
        f, _ = canonicalize(g.n_ext, len(comp), edges)
        assert f is not None, "component of a nonzero graph cannot be zero"
        factors.append(f)
    factors.sort(key=CanonicalGraph.sort_key)
    if not factors:
        return [], 1
    rebuilt, sign = product_chain(factors)
    assert rebuilt == g, "factor rebuild produced a different canonical form"
    return factors, sign


# ---------------------------------------------------------------------------
# the contraction differential

def d_contract(g: CanonicalGraph) -> GraphVector:
    """Alternating sum of single-edge contractions.

    Edges joining two externals are skipped; a contraction whose endpoints share a
    common neighbor (which would create a double edge) contributes zero. The edge in
    position i carries sign (-1)^i; surviving terms are canonicalized.
    """
    out = GraphVector()
    nbrs: dict[int, set[int]] = {}
    for a, b in g.edges:
        nbrs.setdefault(a, set()).add(b)
        nbrs.setdefault(b, set()).add(a)
    for i, (a, b) in enumerate(g.edges):
        if b <= g.n_ext:
            continue
        if nbrs[a] & nbrs[b]:
            continue
        sign = -1 if i & 1 else 1
        new_edges = []
        for j, (x, y) in enumerate(g.edges):
            if j == i:
                continue
            x2 = a if x == b else x
            y2 = a if y == b else y
            if x2 > b:
                x2 -= 1
            if y2 > b:
                y2 -= 1
            new_edges.append((x2, y2) if x2 < y2 else (y2, x2))
        h, s = canonicalize(g.n_ext, g.n_int - 1, new_edges)
        if h is not None:
            out.add_term(h, sign * s)
    return out


def d_contract_vector(v: GraphVector) -> GraphVector:
    return v.map_terms(d_contract)


# ---------------------------------------------------------------------------
# enumeration

@lru_cache(maxsize=None)
def _graphs_with_degrees(degs: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All labeled simple graphs on vertices 1..len(degs) with the given degrees."""
    m = len(degs)
    rem = list(degs)
    edges: list[tuple[int, int]] = []
    results = []

    def rec(v):
        if v == m:
            results.append(tuple(edges))
            return
        need = rem[v]
        if need == 0:
            rec(v + 1)
            return
        avail = [u for u in range(v + 1, m) if rem[u] > 0]
        if len(avail) < need:
            return
        for combo in combinations(avail, need):
            for u in combo:
                rem[u] -= 1
            rem[v] = 0
            edges.extend((v + 1, u + 1) for u in combo)
            rec(v + 1)
            del edges[-len(combo):]
            rem[v] = need
            for u in combo:
                rem[u] += 1

    rec(0)
    return tuple(results)


def _nonincreasing_sequences(length, total, high):
    if length == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(high, total), -1, -1):
        if first * length < total:
            break
        for rest in _nonincreasing_sequences(length - 1, total - first, first):
            yield (first,) + rest


def _is_connected(m, edges):
    if m <= 1:
        return True
    adj: dict[int, list[int]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen = {1}
    stack = [1]
    while stack:
        for u in adj.get(stack.pop(), ()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == m


@lru_cache(maxsize=None)
def internal_cores(
    m: int, e_ii: int, max_deficit: int | None = None
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Connected simple graphs on m unlabeled vertices with e_ii edges, as canonical
    edge tuples on labels 1..m. These are the internal skeletons of internally
    connected graphs; leg assignment happens separately.

    With `max_deficit` set, cores whose trivalence deficit sum(max(0, 3 - deg))
    exceeds it are never built: their degree sequences are skipped before any
    labeled graph is. Enumeration passes the number of legs e_mix, since a core
    with a larger deficit cannot be made trivalent by its legs; the unbounded set
    is the tests' reference. Which labeled core represents a class does not affect
    the output either: every full graph is canonicalized again in `_assign_legs`.
    """
    if m <= 1:
        return ((),) if e_ii == 0 else ()
    if e_ii < m - 1 or e_ii > m * (m - 1) // 2:
        return ()
    out = set()
    mindeg = 1  # connectivity forces at least one edge per vertex when m >= 2
    for degs in _nonincreasing_sequences(m, 2 * e_ii, m - 1):
        if degs[-1] < mindeg:
            continue
        if max_deficit is not None and sum(max(0, 3 - d) for d in degs) > max_deficit:
            continue
        for edges in _graphs_with_degrees(degs):
            if not _is_connected(m, edges):
                continue
            canon, _ = _search_canonical(0, m, tuple(sorted(edges)))
            out.add(canon)
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def enumerate_internally_connected(n_ext: int, weight: int) -> tuple[CanonicalGraph, ...]:
    """All internally connected admissible graphs with the given externals and weight,
    sorted by (internal count, edge list). Complete: trivalence bounds the internal
    count by 2*weight."""
    if weight < 1:
        return ()
    found = set()
    if weight == 1:
        for a in range(1, n_ext + 1):
            for b in range(a + 1, n_ext + 1):
                found.add(CanonicalGraph(n_ext, 0, ((a, b),)))
    for m in range(1, 2 * weight):
        lo = max(m - 1, 2 * m - weight, 0)
        hi = min(m * (m - 1) // 2, weight + m - 1)
        for e_ii in range(lo, hi + 1):
            e_mix = weight + m - e_ii
            if e_mix < 1 or n_ext * m < e_mix:
                continue
            for core in internal_cores(m, e_ii, e_mix):
                ideg = [0] * (m + 1)
                for a, b in core:
                    ideg[a] += 1
                    ideg[b] += 1
                mins = [max(0, 3 - ideg[v]) for v in range(1, m + 1)]
                core_edges = tuple((a + n_ext, b + n_ext) for a, b in core)
                _assign_legs(n_ext, m, core_edges, mins, e_mix, found)
    return tuple(sorted(found, key=CanonicalGraph.sort_key))


def _assign_legs(n_ext, m, core_edges, mins, e_mix, found):
    legs: list[tuple[int, int]] = []

    def rec(v, remaining):
        if v == m:
            if remaining == 0:
                g, _ = canonicalize(n_ext, m, core_edges + tuple(legs))
                if g is not None:
                    found.add(g)
            return
        lo = mins[v]
        # the rest of the vertices can absorb at most this much
        tail_max = n_ext * (m - v - 1)
        tail_min = sum(mins[v + 1:])
        for size in range(lo, n_ext + 1):
            rest = remaining - size
            if rest < tail_min or rest > tail_max:
                continue
            for subset in combinations(range(1, n_ext + 1), size):
                legs.extend((a, n_ext + v + 1) for a in subset)
                rec(v + 1, rest)
                if size:
                    del legs[-size:]

    rec(0, e_mix)


@lru_cache(maxsize=None)
def enumerate_admissible(n_ext: int, weight: int) -> tuple[CanonicalGraph, ...]:
    """All admissible graphs of the given weight: disjoint unions of internally
    connected ones with weights summing to `weight`."""
    if weight == 0:
        return (empty_graph(n_ext),)
    pool: list[CanonicalGraph] = []
    for w in range(1, weight + 1):
        pool.extend(enumerate_internally_connected(n_ext, w))
    results: set[CanonicalGraph] = set()

    def rec(start, remaining, factors):
        if remaining == 0:
            try:
                p, _ = product_chain(factors)
            except DoubleEdgeError:
                return
            if p is not None:
                results.add(p)
            return
        for j in range(start, len(pool)):
            if pool[j].weight <= remaining:
                rec(j, remaining - pool[j].weight, factors + [pool[j]])

    rec(0, weight, [])
    return tuple(sorted(results, key=CanonicalGraph.sort_key))


# ---------------------------------------------------------------------------
# the splitting differential and the induced brackets

def d_split(g: CanonicalGraph) -> GraphVector:
    """Adjoint of d_contract on the canonical-graph basis at fixed weight.

    For internally connected input the result is internally connected (contracting a
    disjoint union never decreases the number of factors), so this restricts to the
    differential on the internally connected span.
    """
    if g.is_internally_connected() or g.num_edges == 0:
        candidates = enumerate_internally_connected(g.n_ext, g.weight)
    else:
        candidates = enumerate_admissible(g.n_ext, g.weight)
    out = GraphVector()
    for h in candidates:
        if h.n_int != g.n_int + 1:
            continue
        c = d_contract(h).coefficient(g)
        if c:
            out.add_term(h, c)
    return out


def d_split_vector(v: GraphVector) -> GraphVector:
    return v.map_terms(d_split)


def lbracket(*factors) -> GraphVector:
    """Multibracket of internally connected graphs (or vectors of them).

    Glues the factors along their externals and keeps the internally connected part of
    the splitting differential of the product: the terms whose single contraction
    reconnects all factors through the new vertex.
    """
    vecs = [f if isinstance(f, GraphVector) else GraphVector.single(f) for f in factors]
    if not vecs:
        raise ValueError("bracket needs at least one argument")
    n_ext = next(iter(vecs[0].terms)).n_ext if vecs[0].terms else None
    out = GraphVector()

    def expand(i, combo, coeff):
        if i == len(vecs):
            _bracket_term(combo, coeff, out)
            return
        for g, c in vecs[i].items():
            expand(i + 1, combo + [g], coeff * c)

    if n_ext is None:
        return out
    expand(0, [], Fraction(1))
    return out


def _bracket_term(combo, coeff, out):
    for g in combo:
        if not g.is_internally_connected():
            raise ValueError("bracket arguments must be internally connected")
    try:
        p, sign = product_chain(combo)
    except DoubleEdgeError:
        return
    if p is None:
        return
    n_ext = p.n_ext
    w = p.weight
    m_target = p.n_int + 1
    for h in enumerate_internally_connected(n_ext, w):
        if h.n_int != m_target:
            continue
        c = d_contract(h).coefficient(p)
        if c:
            out.add_term(h, coeff * sign * c)


# ---------------------------------------------------------------------------
# text and JSON formats

_GRAPH_RE = re.compile(
    r"^\s*n\s*=\s*(\d+)\s*;\s*m\s*=\s*(\d+)\s*;\s*edges\s*=\s*(\[.*\])\s*$"
)


def format_graph(g: CanonicalGraph) -> str:
    edges = ",".join(f"({a},{b})" for a, b in g.edges)
    return f"n={g.n_ext}; m={g.n_int}; edges=[{edges}]"


def parse_graph(text: str) -> CanonicalGraph:
    """Parse `n=<int>; m=<int>; edges=[(a,b),...]`, validate, and canonicalize.

    The sign relating the input edge order to the canonical one is discarded here;
    parse_graph_signed returns it.
    """
    g, _ = parse_graph_signed(text)
    return g


def parse_graph_signed(text: str):
    match = _GRAPH_RE.match(text)
    if not match:
        raise ValueError(f"not a graph literal: {text!r}")
    n_ext, n_int = int(match.group(1)), int(match.group(2))
    edges = ast.literal_eval(match.group(3))
    edges = [tuple(e) for e in edges]
    validate(n_ext, n_int, edges)
    g, sign = canonicalize(n_ext, n_int, edges)
    if g is None:
        raise ValueError("graph is zero by an odd automorphism")
    return g, sign


def graph_to_json(g: CanonicalGraph) -> dict:
    return {"n_ext": g.n_ext, "n_int": g.n_int, "edges": [list(e) for e in g.edges]}


def graph_from_json(obj: dict) -> CanonicalGraph:
    edges = [tuple(e) for e in obj["edges"]]
    validate(obj["n_ext"], obj["n_int"], edges)
    g, _ = canonicalize(obj["n_ext"], obj["n_int"], edges)
    if g is None:
        raise ValueError("graph is zero by an odd automorphism")
    return g
