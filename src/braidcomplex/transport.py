"""Exact simplicial algebra and holonomy maps on polynomial connections.

Two layers share this module. The first is linear: shuffle tables with signs,
simplicial modules given by explicit face and degeneracy matrices over Q, the
Alexander-Whitney and shuffle maps between a bisimplicial module's diagonal and
total complexes, and the compatibility of AW with level-wise tensor products.
The second is differential: connections with polynomial coefficients and
nilpotent word-algebra values on a simplex (times a parameter box), for which
integration, holonomy and the simplex-by-simplex comparison maps can all be
evaluated as exact rational identities.

Conventions fixed here and relied on by the tests:
  * a (m,n)-shuffle is stored as the pair of increasing value tuples (mu, nu)
    partitioning {0..m+n-1}; its sign is the parity of inversions between the
    two blocks.
  * AW(a)_{p,q} applies the last horizontal face q times and the zeroth
    vertical face p times; sh applies horizontal degeneracies indexed by nu
    and vertical ones indexed by mu.
  * the total complex of a bisimplicial module carries the differential
    sum_i (-1)^i d^h_i + (-1)^p sum_j (-1)^j d^v_j on bidegree (p,q).
  * word values are truncated by total word length across all tensor factors,
    so every holonomy series terminates.

The module does no elimination of its own: span projectors are normal forms
from exact.Echelon.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .exact import SparseRationalMatrix, echelon_from_matrix


# ---------------------------------------------------------------------------
# shuffles

def shuffle_sign(mu, nu) -> int:
    """Parity of the block permutation: -1 per pair mu_i > nu_j."""
    inv = sum(1 for a in mu for b in nu if a > b)
    return -1 if inv % 2 else 1


@dataclass(frozen=True)
class ShuffleTable:
    """All (m,n)-shuffles with signs, as (mu, nu, sign) triples."""

    m: int
    n: int
    entries: tuple

    def verify(self):
        if len(self.entries) != comb(self.m + self.n, self.m):
            raise AssertionError("shuffle table has wrong size")
        full = set(range(self.m + self.n))
        for mu, nu, sign in self.entries:
            if list(mu) != sorted(mu) or list(nu) != sorted(nu):
                raise AssertionError("shuffle blocks must be increasing")
            if len(mu) != self.m or len(nu) != self.n or set(mu) | set(nu) != full:
                raise AssertionError("shuffle blocks must partition the range")
            if sign != shuffle_sign(mu, nu):
                raise AssertionError("stored shuffle sign is wrong")
        return True


def shuffles_with_signs(m: int, n: int) -> ShuffleTable:
    if m < 0 or n < 0:
        raise ValueError("shuffle parameters must be nonnegative")
    full = range(m + n)
    entries = []
    for mu in itertools.combinations(full, m):
        nu = tuple(sorted(set(full) - set(mu)))
        entries.append((mu, nu, shuffle_sign(mu, nu)))
    table = ShuffleTable(m, n, tuple(entries))
    table.verify()
    return table


def _glue_shuffle(front, back, cut):
    return tuple(front) + tuple(v + cut for v in back)


def shuffle_lemma_report(m: int, n: int) -> dict:
    """Cut decomposition of the shuffle table, with the product sign rule.

    For every cut P the shuffles with p_a values of mu (and p_b of nu) below P
    are exactly the glued pairs of a (p_a,p_b)-shuffle and a (q_a,q_b)-shuffle,
    and the sign of the glued shuffle is the product of the two part signs
    times (-1)^(q_a p_b). Returns a report dict; "ok" is False on the first
    mismatch, with the offending data attached.
    """
    table = shuffles_with_signs(m, n)
    pairs = 0
    for cut in range(m + n + 1):
        buckets = {}
        for mu, nu, sign in table.entries:
            pa = sum(1 for v in mu if v < cut)
            pb = sum(1 for v in nu if v < cut)
            buckets.setdefault((pa, pb), {})[(mu, nu)] = sign
        for pa in range(min(m, cut) + 1):
            pb = cut - pa
            if pb < 0 or pb > n:
                continue
            qa, qb = m - pa, n - pb
            built = {}
            for mu1, nu1, s1 in shuffles_with_signs(pa, pb).entries:
                for mu2, nu2, s2 in shuffles_with_signs(qa, qb).entries:
                    mu = _glue_shuffle(mu1, mu2, cut)
                    nu = _glue_shuffle(nu1, nu2, cut)
                    sign = s1 * s2 * (-1) ** (qa * pb)
                    if (mu, nu) in built:
                        return {"ok": False, "why": "glue map not injective",
                                "cut": cut, "pair": [list(mu), list(nu)]}
                    built[(mu, nu)] = sign
                    pairs += 1
            if built != buckets.get((pa, pb), {}):
                return {"ok": False, "why": "cut bucket mismatch",
                        "cut": cut, "pa": pa, "pb": pb}
    return {"ok": True, "m": m, "n": n, "pairs": pairs,
            "size": len(table.entries)}


# ---------------------------------------------------------------------------
# sparse vectors over Q, indexed by basis position

def _vec_add(acc: dict, vec: dict, scale=Fraction(1)):
    for i, v in vec.items():
        w = acc.get(i, 0) + scale * v
        if w:
            acc[i] = w
        elif i in acc:
            del acc[i]
    return acc


def _vec_tensor(x: dict, y: dict, ny: int) -> dict:
    """Tensor of two sparse vectors; the second factor has dimension ny."""
    return {ix * ny + iy: cx * cy for ix, cx in x.items() for iy, cy in y.items()}


def _vec_eq(a: dict, b: dict) -> bool:
    return {i: v for i, v in a.items() if v} == {i: v for i, v in b.items() if v}


def _random_vec(dim: int, rng: random.Random) -> dict:
    out = {}
    for i in range(dim):
        c = rng.randint(-3, 3)
        if c:
            out[i] = Fraction(c)
    if not out and dim:
        out[rng.randrange(dim)] = Fraction(1)
    return out


def _identity(dim: int) -> SparseRationalMatrix:
    return SparseRationalMatrix.from_entries(dim, dim, ((i, i, 1) for i in range(dim)))


# ---------------------------------------------------------------------------
# simplicial modules as matrices

class SimplicialModule:
    """Levels 0..cap of rational spaces with face and degeneracy matrices.

    faces[(k, i)] maps level k to k-1 (0 <= i <= k, k >= 1); degens[(k, i)]
    maps level k to k+1 (0 <= i <= k, k < cap). verify() checks every
    simplicial identity whose composite stays within the cap.
    """

    def __init__(self, dims, faces, degens, cap):
        self.cap = cap
        self.dims = list(dims)
        if len(self.dims) != cap + 1:
            raise ValueError("need one dimension per level up to the cap")
        self.faces = dict(faces)
        self.degens = dict(degens)

    def dim(self, k):
        return self.dims[k]

    def face(self, k, i):
        return self.faces[(k, i)]

    def degen(self, k, i):
        return self.degens[(k, i)]

    def verify(self):
        for k in range(1, self.cap + 1):
            for i in range(k + 1):
                f = self.face(k, i)
                if (f.nrows, f.ncols) != (self.dims[k - 1], self.dims[k]):
                    raise AssertionError("face matrix shape mismatch")
        for k in range(self.cap):
            for i in range(k + 1):
                s = self.degen(k, i)
                if (s.nrows, s.ncols) != (self.dims[k + 1], self.dims[k]):
                    raise AssertionError("degeneracy matrix shape mismatch")
        for k in range(2, self.cap + 1):
            for j in range(k + 1):
                for i in range(j):
                    lhs = self.face(k - 1, i) @ self.face(k, j)
                    rhs = self.face(k - 1, j - 1) @ self.face(k, i)
                    if lhs != rhs:
                        raise AssertionError(f"face identity fails at {(k, i, j)}")
        for k in range(self.cap - 1):
            for j in range(k + 1):
                for i in range(j + 1):
                    lhs = self.degen(k + 1, i) @ self.degen(k, j)
                    rhs = self.degen(k + 1, j + 1) @ self.degen(k, i)
                    if lhs != rhs:
                        raise AssertionError(f"degeneracy identity fails at {(k, i, j)}")
        for k in range(self.cap):
            ident = _identity(self.dims[k])
            for j in range(k + 1):
                s = self.degen(k, j)
                for i in range(k + 2):
                    comp = self.face(k + 1, i) @ s
                    if i in (j, j + 1):
                        if comp != ident:
                            raise AssertionError(f"mixed identity (unit) fails at {(k, i, j)}")
                    elif i < j:
                        if comp != self.degen(k - 1, j - 1) @ self.face(k, i):
                            raise AssertionError(f"mixed identity fails at {(k, i, j)}")
                    else:
                        if comp != self.degen(k - 1, j) @ self.face(k, i - 1):
                            raise AssertionError(f"mixed identity fails at {(k, i, j)}")
        return True


def _module_from_simplicial_set(levels, face_fn, degen_fn, cap) -> SimplicialModule:
    """Linearize a finite simplicial set given by element lists and maps."""
    index = [{x: i for i, x in enumerate(level)} for level in levels]
    faces = {}
    degens = {}
    for k in range(1, cap + 1):
        for i in range(k + 1):
            faces[(k, i)] = SparseRationalMatrix.from_entries(
                len(levels[k - 1]), len(levels[k]),
                ((index[k - 1][face_fn(k, i, x)], c, 1) for c, x in enumerate(levels[k])))
    for k in range(cap):
        for i in range(k + 1):
            degens[(k, i)] = SparseRationalMatrix.from_entries(
                len(levels[k + 1]), len(levels[k]),
                ((index[k + 1][degen_fn(k, i, x)], c, 1) for c, x in enumerate(levels[k])))
    return SimplicialModule([len(level) for level in levels], faces, degens, cap)


def standard_simplex_module(r: int, cap: int) -> SimplicialModule:
    """Chains of the standard r-simplex: level k is spanned by the weakly
    increasing (k+1)-tuples over {0..r}; faces drop an entry, degeneracies
    repeat one."""
    levels = [list(itertools.combinations_with_replacement(range(r + 1), k + 1))
              for k in range(cap + 1)]

    def face(k, i, x):
        return x[:i] + x[i + 1:]

    def degen(k, i, x):
        return x[:i] + (x[i],) + x[i:]

    return _module_from_simplicial_set(levels, face, degen, cap)


def circle_module(cap: int) -> SimplicialModule:
    """Chains of the simplicial circle: the 1-simplex with both endpoints
    glued to one basepoint. Level k keeps the basepoint plus the k words
    0^j 1^(k+1-j); any face or degeneracy output that is constant collapses
    to the basepoint."""
    def collapse(x):
        return "*" if len(set(x)) <= 1 else x

    levels = []
    for k in range(cap + 1):
        levels.append(["*"] + [(0,) * j + (1,) * (k + 1 - j) for j in range(1, k + 1)])

    def face(k, i, x):
        if x == "*":
            return "*"
        return collapse(x[:i] + x[i + 1:])

    def degen(k, i, x):
        if x == "*":
            return "*"
        return collapse(x[:i] + (x[i],) + x[i:])

    return _module_from_simplicial_set(levels, face, degen, cap)


def random_unimodular(dim: int, rng: random.Random, ops: int = 6):
    """Integer matrix with determinant +-1 and its exact inverse, built from
    elementary row additions."""
    mat = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    inv = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    steps = []
    for _ in range(ops if dim > 1 else 0):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-2, -1, 1, 2))
        steps.append((i, j, c))
        for col in range(dim):
            mat[i][col] += c * mat[j][col]
    for i, j, c in reversed(steps):
        for col in range(dim):
            inv[i][col] -= c * inv[j][col]
    return SparseRationalMatrix.from_dense(mat), SparseRationalMatrix.from_dense(inv)


def twist_module(module: SimplicialModule, seed: int) -> SimplicialModule:
    """Conjugate every level by a random unimodular base change; the result is
    an isomorphic simplicial module with scrambled matrices."""
    rng = random.Random(seed)
    pairs = [random_unimodular(d, rng) for d in module.dims]
    faces = {}
    degens = {}
    for (k, i), f in module.faces.items():
        faces[(k, i)] = pairs[k - 1][0] @ f @ pairs[k][1]
    for (k, i), s in module.degens.items():
        degens[(k, i)] = pairs[k + 1][0] @ s @ pairs[k][1]
    return SimplicialModule(module.dims, faces, degens, module.cap)


# ---------------------------------------------------------------------------
# bisimplicial modules

def kron(a: SparseRationalMatrix, b: SparseRationalMatrix) -> SparseRationalMatrix:
    out = SparseRationalMatrix(a.nrows * b.nrows, a.ncols * b.ncols)
    for ra, rowa in enumerate(a.rows):
        for ca, va in rowa.items():
            for rb, rowb in enumerate(b.rows):
                base_r = ra * b.nrows + rb
                target = out.rows[base_r]
                for cb, vb in rowb.items():
                    target[ca * b.ncols + cb] = va * vb
    return out


class BiSimplicialModule:
    """Bidegrees (p,q) up to a cap, with horizontal and vertical structure.

    hface[(p,q,i)]: (p,q) -> (p-1,q); vface[(p,q,i)]: (p,q) -> (p,q-1);
    hdegen and vdegen raise the respective degree. Horizontal and vertical
    operators commute; verify() checks that and both families of simplicial
    identities.
    """

    def __init__(self, dims, hface, vface, hdegen, vdegen, cap):
        self.cap = cap
        self.dims = dict(dims)
        self.hface = dict(hface)
        self.vface = dict(vface)
        self.hdegen = dict(hdegen)
        self.vdegen = dict(vdegen)

    def dim(self, p, q):
        return self.dims[(p, q)]

    def _row(self, q):
        dims = [self.dims[(p, q)] for p in range(self.cap + 1)]
        faces = {(p, i): self.hface[(p, q, i)] for p in range(1, self.cap + 1) for i in range(p + 1)}
        degens = {(p, i): self.hdegen[(p, q, i)] for p in range(self.cap) for i in range(p + 1)}
        return SimplicialModule(dims, faces, degens, self.cap)

    def _col(self, p):
        dims = [self.dims[(p, q)] for q in range(self.cap + 1)]
        faces = {(q, i): self.vface[(p, q, i)] for q in range(1, self.cap + 1) for i in range(q + 1)}
        degens = {(q, i): self.vdegen[(p, q, i)] for q in range(self.cap) for i in range(q + 1)}
        return SimplicialModule(dims, faces, degens, self.cap)

    def verify(self):
        for q in range(self.cap + 1):
            self._row(q).verify()
        for p in range(self.cap + 1):
            self._col(p).verify()
        cap = self.cap
        for p in range(cap + 1):
            for q in range(cap + 1):
                for i in range(p + 1):
                    for j in range(q + 1):
                        if p >= 1 and q >= 1:
                            lhs = self.vface[(p - 1, q, j)] @ self.hface[(p, q, i)]
                            rhs = self.hface[(p, q - 1, i)] @ self.vface[(p, q, j)]
                            if lhs != rhs:
                                raise AssertionError("face-face commutation fails")
                        if p >= 1 and q < cap:
                            lhs = self.vdegen[(p - 1, q, j)] @ self.hface[(p, q, i)]
                            rhs = self.hface[(p, q + 1, i)] @ self.vdegen[(p, q, j)]
                            if lhs != rhs:
                                raise AssertionError("face-degeneracy commutation fails")
                        if p < cap and q >= 1:
                            lhs = self.vface[(p + 1, q, j)] @ self.hdegen[(p, q, i)]
                            rhs = self.hdegen[(p, q - 1, i)] @ self.vface[(p, q, j)]
                            if lhs != rhs:
                                raise AssertionError("degeneracy-face commutation fails")
                        if p < cap and q < cap:
                            lhs = self.vdegen[(p + 1, q, j)] @ self.hdegen[(p, q, i)]
                            rhs = self.hdegen[(p, q + 1, i)] @ self.vdegen[(p, q, j)]
                            if lhs != rhs:
                                raise AssertionError("degeneracy-degeneracy commutation fails")
        return True


def box_product(left: SimplicialModule, right: SimplicialModule) -> BiSimplicialModule:
    """External product: bidegree (p,q) is left_p tensor right_q, horizontal
    operators act on the left factor, vertical on the right."""
    cap = min(left.cap, right.cap)
    dims = {}
    hface, vface, hdegen, vdegen = {}, {}, {}, {}
    for p in range(cap + 1):
        for q in range(cap + 1):
            dims[(p, q)] = left.dim(p) * right.dim(q)
            for i in range(p + 1):
                if p >= 1:
                    hface[(p, q, i)] = kron(left.face(p, i), _identity(right.dim(q)))
                if p < cap:
                    hdegen[(p, q, i)] = kron(left.degen(p, i), _identity(right.dim(q)))
            for j in range(q + 1):
                if q >= 1:
                    vface[(p, q, j)] = kron(_identity(left.dim(p)), right.face(q, j))
                if q < cap:
                    vdegen[(p, q, j)] = kron(_identity(left.dim(p)), right.degen(q, j))
    return BiSimplicialModule(dims, hface, vface, hdegen, vdegen, cap)


def level_tensor(a: BiSimplicialModule, b: BiSimplicialModule) -> BiSimplicialModule:
    """Bidegree-wise tensor product: operators act on both factors at once."""
    cap = min(a.cap, b.cap)
    dims = {}
    hface, vface, hdegen, vdegen = {}, {}, {}, {}
    for p in range(cap + 1):
        for q in range(cap + 1):
            dims[(p, q)] = a.dim(p, q) * b.dim(p, q)
            for i in range(p + 1):
                if p >= 1:
                    hface[(p, q, i)] = kron(a.hface[(p, q, i)], b.hface[(p, q, i)])
                if p < cap:
                    hdegen[(p, q, i)] = kron(a.hdegen[(p, q, i)], b.hdegen[(p, q, i)])
            for j in range(q + 1):
                if q >= 1:
                    vface[(p, q, j)] = kron(a.vface[(p, q, j)], b.vface[(p, q, j)])
                if q < cap:
                    vdegen[(p, q, j)] = kron(a.vdegen[(p, q, j)], b.vdegen[(p, q, j)])
    return BiSimplicialModule(dims, hface, vface, hdegen, vdegen, cap)


def diagonal_module(bi: BiSimplicialModule) -> SimplicialModule:
    """Restrict to bidegrees (k,k); faces and degeneracies act in both
    directions at once."""
    cap = bi.cap
    dims = [bi.dim(k, k) for k in range(cap + 1)]
    faces = {}
    degens = {}
    for k in range(1, cap + 1):
        for i in range(k + 1):
            faces[(k, i)] = bi.vface[(k - 1, k, i)] @ bi.hface[(k, k, i)]
    for k in range(cap):
        for i in range(k + 1):
            degens[(k, i)] = bi.vdegen[(k + 1, k, i)] @ bi.hdegen[(k, k, i)]
    return SimplicialModule(dims, faces, degens, cap)


# ---------------------------------------------------------------------------
# AW and shuffle maps

def aw_map(bi: BiSimplicialModule, n: int, vec: dict) -> dict:
    """Send a diagonal level-n chain to its bigraded components: the (p,q)
    part applies the last horizontal face q times and the zeroth vertical
    face p times."""
    if n > bi.cap:
        raise ValueError("diagonal level exceeds the module cap")
    out = {}
    for p in range(n + 1):
        q = n - p
        w = dict(vec)
        for lvl in range(n, q, -1):
            w = bi.vface[(n, lvl, 0)].apply(w)
        for lvl in range(n, p, -1):
            w = bi.hface[(lvl, q, lvl)].apply(w)
        out[(p, q)] = w
    return out


def _degenerate(bi: BiSimplicialModule, p: int, q: int, vsteps, hsteps, vec: dict) -> dict:
    """Apply to a bidegree (p,q) chain the vertical degeneracies indexed by
    vsteps, then the horizontal ones indexed by hsteps, one level at a time."""
    for lvl, j in enumerate(vsteps, q):
        vec = bi.vdegen[(p, lvl, j)].apply(vec)
    top = q + len(vsteps)
    for lvl, i in enumerate(hsteps, p):
        vec = bi.hdegen[(lvl, top, i)].apply(vec)
    return vec


def shuffle_map(bi: BiSimplicialModule, p: int, q: int, vec: dict) -> dict:
    """Send a bidegree (p,q) chain to the diagonal level p+q via the signed
    sum over (p,q)-shuffles of degeneracy composites."""
    if p + q > bi.cap:
        raise ValueError("target level exceeds the module cap")
    out = {}
    for mu, nu, sign in shuffles_with_signs(p, q).entries:
        _vec_add(out, _degenerate(bi, p, q, mu, nu, vec), Fraction(sign))
    return out


def total_boundary(bi: BiSimplicialModule, comps: dict) -> dict:
    """Differential of the total complex on a dict of bidegree components."""
    out = {}
    for (p, q), vec in comps.items():
        for i in range(p + 1):
            if p >= 1:
                term = bi.hface[(p, q, i)].apply(vec)
                _vec_add(out.setdefault((p - 1, q), {}), term, Fraction((-1) ** i))
        for j in range(q + 1):
            if q >= 1:
                term = bi.vface[(p, q, j)].apply(vec)
                _vec_add(out.setdefault((p, q - 1), {}), term, Fraction((-1) ** (p + j)))
    return {k: v for k, v in out.items() if v}


def chain_boundary_matrix(module: SimplicialModule, k: int) -> SparseRationalMatrix:
    """Alternating-sum boundary of the simplicial chain complex at level k."""
    out = SparseRationalMatrix(module.dim(k - 1), module.dim(k))
    for i in range(k + 1):
        sign = (-1) ** i
        for r, row in enumerate(module.face(k, i).rows):
            for c, v in row.items():
                out.add_to(r, c, sign * v)
    return out


def _span_projector(mats, dim: int) -> SparseRationalMatrix:
    """Projector whose kernel is the combined column span of the matrices.

    The span goes into reduced echelon form, then every standard basis vector
    is reduced against it; the image is the coordinate complement of the
    pivot positions, an explicit normalized-chain model.
    """
    cols = [col for s in mats for col in s.transpose().rows]
    span = SparseRationalMatrix(len(cols), dim)
    span.rows = cols
    ech = echelon_from_matrix(span)
    ech.back_reduce()
    proj = SparseRationalMatrix(dim, dim)
    for j in range(dim):
        for r, v in ech.normal_form(j).items():
            proj.set_entry(r, j, v)
    return proj


def degenerate_complement_projector(module: SimplicialModule, k: int) -> SparseRationalMatrix:
    """Projector onto a complement of the degeneracy images at level k."""
    mats = [module.degen(k - 1, i) for i in range(k)] if k >= 1 else []
    return _span_projector(mats, module.dim(k))


def bidegree_complement_projector(bi: BiSimplicialModule, p: int, q: int) -> SparseRationalMatrix:
    """Same construction with both horizontal and vertical degeneracy images."""
    mats = []
    if p >= 1:
        mats.extend(bi.hdegen[(p - 1, q, i)] for i in range(p))
    if q >= 1:
        mats.extend(bi.vdegen[(p, q - 1, j)] for j in range(q))
    return _span_projector(mats, bi.dim(p, q))


def map_matrix(fn, dim_in: int, dim_out: int) -> SparseRationalMatrix:
    """Materialize a linear callable on sparse vectors as a matrix."""
    out = SparseRationalMatrix(dim_out, dim_in)
    for j in range(dim_in):
        img = fn({j: Fraction(1)})
        for r, v in img.items():
            out.set_entry(r, j, v)
    return out


def monoidal_aw_check(a_mod: BiSimplicialModule, b_mod: BiSimplicialModule,
                      m: int, n: int, seed: int = 0, avec=None, bvec=None) -> dict:
    """Compare AW(sh(a x b)) against the bigraded shuffle of AW(a) x AW(b).

    Both routes land in the bidegree-wise tensor of the two modules; the
    second route twists each (p_a,q_a),(p_b,q_b) pair by (-1)^(q_a p_b) and
    degenerates the factors along a pair of shuffles. The two results must
    agree exactly in every bidegree.
    """
    cap = min(a_mod.cap, b_mod.cap)
    if m + n > cap:
        raise ValueError("combined level exceeds the module cap")
    rng = random.Random(seed)
    diag_a = diagonal_module(a_mod)
    diag_b = diagonal_module(b_mod)
    if avec is None:
        avec = _random_vec(diag_a.dim(m), rng)
    if bvec is None:
        bvec = _random_vec(diag_b.dim(n), rng)

    prod = level_tensor(a_mod, b_mod)
    outer = box_product(diag_a, diag_b)
    ab = _vec_tensor(avec, bvec, diag_b.dim(n))
    route_one = aw_map(prod, m + n, shuffle_map(outer, m, n, ab))

    route_two = {}
    aw_a = aw_map(a_mod, m, avec)
    aw_b = aw_map(b_mod, n, bvec)
    for (pa, qa), x in aw_a.items():
        for (pb, qb), y in aw_b.items():
            target = (pa + pb, qa + qb)
            twist = Fraction((-1) ** (qa * pb))
            nb = b_mod.dim(*target)
            for mu1, nu1, s1 in shuffles_with_signs(pa, pb).entries:
                for mu2, nu2, s2 in shuffles_with_signs(qa, qb).entries:
                    xa = _degenerate(a_mod, pa, qa, nu2, nu1, x)
                    yb = _degenerate(b_mod, pb, qb, mu2, mu1, y)
                    _vec_add(route_two.setdefault(target, {}),
                             _vec_tensor(xa, yb, nb), twist * s1 * s2)
    route_two = {k: v for k, v in route_two.items() if v}
    keys = set(route_one) | set(route_two)
    for key in keys:
        if not _vec_eq(route_one.get(key, {}), route_two.get(key, {})):
            return {"ok": False, "bidegree": list(key)}
    return {"ok": True, "m": m, "n": n,
            "components": sorted(list(k) for k in keys)}


# ---------------------------------------------------------------------------
# polynomials over Q

class Poly:
    """Multivariate polynomial as {exponent tuple: Fraction}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise ValueError("exponent arity mismatch")
                c = Fraction(c)
                if c:
                    self.terms[tuple(e)] = c

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def var(cls, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __add__(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            w = out.get(e, 0) + c
            if w:
                out[e] = w
            elif e in out:
                del out[e]
        p = Poly(self.nvars)
        p.terms = out
        return p

    def __neg__(self):
        p = Poly(self.nvars)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                w = out.get(e, 0) + c1 * c2
                if w:
                    out[e] = w
                elif e in out:
                    del out[e]
        p = Poly(self.nvars)
        p.terms = out
        return p

    def scale(self, c):
        c = Fraction(c)
        p = Poly(self.nvars)
        if c:
            p.terms = {e: c * v for e, v in self.terms.items()}
        return p

    def diff(self, i):
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ee = list(e)
                ee[i] -= 1
                out[tuple(ee)] = c * e[i]
        p = Poly(self.nvars)
        p.terms = out
        return p

    def antider(self, i):
        out = {}
        for e, c in self.terms.items():
            ee = list(e)
            ee[i] += 1
            out[tuple(ee)] = c / ee[i]
        p = Poly(self.nvars)
        p.terms = out
        return p

    def subst(self, images):
        """Substitute images[i] (all over one common variable set) for x_i."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        nv = images[0].nvars if images else 0
        for im in images:
            if im.nvars != nv:
                raise ValueError("images disagree on variable count")
        powers = [{0: Poly.const(nv, 1)} for _ in range(self.nvars)]

        def power(i, k):
            memo = powers[i]
            if k not in memo:
                memo[k] = power(i, k - 1) * images[i]
            return memo[k]

        out = Poly(nv)
        for e, c in self.terms.items():
            term = Poly.const(nv, c)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
            out = out + term
        return out

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def simplex_integral(self) -> Fraction:
        """Integral over the solid simplex {x_i >= 0, sum x_i <= 1}."""
        total = Fraction(0)
        n = self.nvars
        for e, c in self.terms.items():
            num = 1
            for a in e:
                num *= factorial(a)
            total += c * Fraction(num, factorial(n + sum(e)))
        return total


# ---------------------------------------------------------------------------
# word-valued polynomial forms

def _bar_face(words, i):
    """Face i of a bar word tuple, or None where it vanishes: face 0 drops an
    empty first factor, the last face an empty last factor, and a middle face
    multiplies factors i-1 and i."""
    if i == 0:
        return words[1:] if words and words[0] == () else None
    if i == len(words):
        return words[:-1] if words[-1] == () else None
    return words[:i - 1] + (words[i - 1] + words[i],) + words[i + 1:]


def _wedge_merge(d1, d2):
    """Merge two increasing index tuples; None on a repeat, else (sign, merged)."""
    if set(d1) & set(d2):
        return None
    inv = sum(1 for a in d1 for b in d2 if a > b)
    merged = tuple(sorted(d1 + d2))
    return ((-1) ** inv, merged)


class WordForm:
    """Differential form with values in tensor words of nilpotent generators.

    terms maps (words, dvars) to a Poly: words is a tuple of tuples of
    generator indices (one word per tensor factor), dvars the increasing tuple
    of form directions. Keys whose combined word length exceeds the nilpotency
    order are dropped everywhere, which makes geometric series and holonomy
    expansions finite.
    """

    __slots__ = ("nvars", "nil", "terms")

    def __init__(self, nvars, nil, terms=None):
        self.nvars = nvars
        self.nil = nil
        self.terms = {}
        if terms:
            for (words, dvars), poly in terms.items():
                self._put(tuple(tuple(w) for w in words), tuple(dvars), poly)

    def _put(self, words, dvars, poly):
        if poly.is_zero():
            return
        if poly.nvars != self.nvars:
            raise ValueError("coefficient variable count mismatch")
        if sum(len(w) for w in words) > self.nil:
            return
        key = (words, dvars)
        cur = self.terms.get(key)
        tot = poly if cur is None else cur + poly
        if tot.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = tot

    @classmethod
    def zero(cls, nvars, nil):
        return cls(nvars, nil)

    @classmethod
    def scalar(cls, nvars, nil, c=1):
        out = cls(nvars, nil)
        out._put(((),), (), Poly.const(nvars, c))
        return out

    def clone(self):
        out = WordForm(self.nvars, self.nil)
        out.terms = {k: Poly(self.nvars, v.terms) for k, v in self.terms.items()}
        return out

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, WordForm) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __add__(self, other):
        out = self.clone()
        for (words, dvars), poly in other.terms.items():
            out._put(words, dvars, poly)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        out = WordForm(self.nvars, self.nil)
        if c:
            for (words, dvars), poly in self.terms.items():
                out._put(words, dvars, poly.scale(c))
        return out

    def mul(self, other: "WordForm") -> "WordForm":
        """Product for single-factor values: concatenate words, wedge forms."""
        out = WordForm(self.nvars, self.nil)
        for (w1, d1), p1 in self.terms.items():
            if len(w1) != 1:
                raise ValueError("left factor is not single-valued")
            for (w2, d2), p2 in other.terms.items():
                if len(w2) != 1:
                    raise ValueError("right factor is not single-valued")
                merged = _wedge_merge(d1, d2)
                if merged is None:
                    continue
                sign, dv = merged
                out._put((w1[0] + w2[0],), dv, (p1 * p2).scale(sign))
        return out

    def tensor(self, other: "WordForm") -> "WordForm":
        """Tensor in the word direction; form parts wedge with the usual sign."""
        out = WordForm(self.nvars, self.nil)
        for (w1, d1), p1 in self.terms.items():
            for (w2, d2), p2 in other.terms.items():
                merged = _wedge_merge(d1, d2)
                if merged is None:
                    continue
                sign, dv = merged
                out._put(w1 + w2, dv, (p1 * p2).scale(sign))
        return out

    def d(self) -> "WordForm":
        """Exterior derivative; new directions enter from the left."""
        out = WordForm(self.nvars, self.nil)
        for (words, dvars), poly in self.terms.items():
            for i in range(self.nvars):
                if i in dvars:
                    continue
                dp = poly.diff(i)
                if dp.is_zero():
                    continue
                before = sum(1 for j in dvars if j < i)
                dv = tuple(sorted(dvars + (i,)))
                out._put(words, dv, dp.scale((-1) ** before))
        return out

    def chain_d(self) -> "WordForm":
        """Exterior derivative with the chain-level twist (-1)^(word factors)."""
        out = WordForm(self.nvars, self.nil)
        for (words, dvars), poly in self.terms.items():
            single = WordForm(self.nvars, self.nil, {(words, dvars): poly})
            out = out + single.d().scale((-1) ** len(words))
        return out

    def subst_affine(self, images) -> "WordForm":
        """Pull back along an affine substitution; images are degree <= 1."""
        for im in images:
            if im.degree() > 1:
                raise ValueError("substitution must be affine")
        nv = images[0].nvars if images else 0
        jac = [[im.diff(j).terms.get((0,) * nv, Fraction(0)) for j in range(nv)]
               for im in images]
        out = WordForm(nv, self.nil)
        for (words, dvars), poly in self.terms.items():
            base = poly.subst(images)
            if base.is_zero():
                continue
            parts = [((), Fraction(1))]
            dead = False
            for i in dvars:
                nxt = []
                for dv, coef in parts:
                    for j in range(nv):
                        cj = jac[i][j]
                        if not cj:
                            continue
                        merged = _wedge_merge(dv, (j,))
                        if merged is None:
                            continue
                        sign, dvv = merged
                        nxt.append((dvv, coef * cj * sign))
                parts = nxt
                if not parts:
                    dead = True
                    break
            if dead:
                continue
            for dv, coef in parts:
                out._put(words, dv, base.scale(coef))
        return out

    def bar_b(self) -> "WordForm":
        """Alternating sum of counit, adjacent multiplication, counit faces."""
        out = WordForm(self.nvars, self.nil)
        for (words, dvars), poly in self.terms.items():
            for i in range(len(words) + 1):
                face = _bar_face(words, i)
                if face is not None:
                    out._put(face, dvars, poly.scale((-1) ** i))
        return out

    def without_units(self) -> "WordForm":
        """Drop every term containing an empty word factor: the normalized
        part of the bar direction."""
        out = WordForm(self.nvars, self.nil)
        for (words, dvars), poly in self.terms.items():
            if any(w == () for w in words):
                continue
            out._put(words, dvars, poly)
        return out

    def constants(self) -> dict:
        """Collapse a 0-form with constant coefficients to {words: Fraction}."""
        out = {}
        zero = (0,) * self.nvars
        for (words, dvars), poly in self.terms.items():
            if dvars != ():
                raise ValueError("form degree is positive")
            extra = {e for e in poly.terms if e != zero}
            if extra:
                raise ValueError("coefficients are not constant")
            out[words] = poly.terms.get(zero, Fraction(0))
        return out


# ---------------------------------------------------------------------------
# polynomial connections on a simplex times a parameter box

def simplex_corner(n: int, i: int):
    """Affine coordinates of the i-th corner of the n-simplex."""
    return tuple(Fraction(int(k + 1 == i)) for k in range(n)) if i else (Fraction(0),) * n


class PolyConnection:
    """Flat 1-form on the n-simplex times an mdim-dimensional box.

    Coordinates are the affine simplex coordinates u_1..u_n (the barycentric
    coordinates with t_0 eliminated) followed by the box coordinates. Values
    are single words in nilpotent generators; flatness dA + A wedge A = 0 is
    checked exactly at construction, which for Lie-algebra-valued forms is
    the same as dA + [A,A]/2 = 0.
    """

    def __init__(self, n, mdim, ngens, nil, form: WordForm, check=True):
        if n < 0 or mdim < 0 or nil < 1:
            raise ValueError("bad connection parameters")
        if form.nvars != n + mdim:
            raise ValueError("form variable count mismatch")
        for (words, dvars) in form.terms:
            if len(words) != 1 or len(dvars) != 1:
                raise ValueError("connection must be a single-valued 1-form")
            if words[0] == ():
                raise ValueError("connection values must have zero counit")
            if any(g < 0 or g >= ngens for g in words[0]):
                raise ValueError("generator index out of range")
        self.n = n
        self.mdim = mdim
        self.ngens = ngens
        self.nil = nil
        self.form = form
        if check and not self.curvature().is_zero():
            raise ValueError("connection is not flat")

    def curvature(self) -> WordForm:
        return self.form.d() + self.form.mul(self.form)


def zero_connection(n, mdim=0, ngens=1, nil=2) -> PolyConnection:
    return PolyConnection(n, mdim, ngens, nil, WordForm.zero(n + mdim, nil))


def _random_poly(nvars, rng: random.Random, deg=2) -> Poly:
    terms = {}
    for _ in range(3):
        e = [0] * nvars
        for _ in range(rng.randint(0, deg)):
            if nvars:
                e[rng.randrange(nvars)] += 1
        c = rng.randint(-2, 2)
        if c:
            terms[tuple(e)] = terms.get(tuple(e), 0) + c
    return Poly(nvars, {e: c for e, c in terms.items() if c})


def flat_family(n, mdim, ngens, nil, seed, words=3) -> PolyConnection:
    """Random flat connection g^{-1} dg for a unit g = 1 + nilpotent part."""
    rng = random.Random(seed)
    nv = n + mdim
    h = WordForm.zero(nv, nil)
    for _ in range(words):
        length = rng.randint(1, nil)
        word = tuple(rng.randrange(ngens) for _ in range(length))
        p = _random_poly(nv, rng)
        h = h + WordForm(nv, nil, {((word,), ()): p})
    ginv = WordForm.scalar(nv, nil)
    power = WordForm.scalar(nv, nil)
    for _ in range(nil):
        power = power.mul(h).scale(-1)
        ginv = ginv + power
    a = ginv.mul(h.d())
    return PolyConnection(n, mdim, ngens, nil, a)


def abelian_family(n, mdim, nil, f: Poly, gen=0, ngens=1) -> PolyConnection:
    """Exact abelian connection A = df x_gen."""
    nv = n + mdim
    if f.nvars != nv:
        raise ValueError("potential variable count mismatch")
    form = WordForm(nv, nil)
    for i in range(nv):
        dp = f.diff(i)
        if not dp.is_zero():
            form._put(((gen,),), (i,), dp)
    return PolyConnection(n, mdim, ngens, nil, form)


def face_connection(conn: PolyConnection, i: int) -> PolyConnection:
    """Pull back along the i-th coface of the simplex; box coordinates ride
    along unchanged."""
    n, mdim = conn.n, conn.mdim
    if not 0 <= i <= n or n == 0:
        raise ValueError("coface index out of range")
    nv_new = (n - 1) + mdim
    images = []
    for k in range(1, n + 1):
        if i == 0:
            if k == 1:
                img = Poly.const(nv_new, 1)
                for j in range(n - 1):
                    img = img - Poly.var(nv_new, j)
            else:
                img = Poly.var(nv_new, k - 2)
        elif k < i:
            img = Poly.var(nv_new, k - 1)
        elif k == i:
            img = Poly.const(nv_new, 0)
        else:
            img = Poly.var(nv_new, k - 2)
        images.append(img)
    for t in range(mdim):
        images.append(Poly.var(nv_new, (n - 1) + t))
    form = conn.form.subst_affine(images)
    return PolyConnection(n - 1, mdim, conn.ngens, conn.nil, form)


def segment_holonomy(conn: PolyConnection, start, end) -> WordForm:
    """Holonomy along the straight segment between two simplex points, exact.

    The result is a 0-form in the box coordinates; increments multiply on the
    right, so earlier path parameters sit to the left in every word.
    """
    n, mdim, nil = conn.n, conn.mdim, conn.nil
    nv_seg = 1 + mdim
    images = []
    for k in range(n):
        a, b = Fraction(start[k]), Fraction(end[k])
        img = Poly.const(nv_seg, a) + Poly.var(nv_seg, 0).scale(b - a)
        images.append(img)
    for t in range(mdim):
        images.append(Poly.var(nv_seg, 1 + t))
    pulled = conn.form.subst_affine(images)
    driver = WordForm(nv_seg, nil)
    for (words, dvars), poly in pulled.terms.items():
        if dvars == (0,):
            driver._put(words, (), poly)
    hol = WordForm.scalar(nv_seg, nil)
    for _ in range(nil + 1):
        nxt = WordForm.scalar(nv_seg, nil)
        prod = hol.mul(driver)
        for (words, dvars), poly in prod.terms.items():
            nxt._put(words, dvars, poly.antider(0))
        hol = nxt
    at_one = [Poly.const(mdim, 1)] + [Poly.var(mdim, t) for t in range(mdim)]
    return hol.subst_affine(at_one)


def edge_holonomy(conn: PolyConnection, j: int) -> WordForm:
    """Holonomy along the j-th edge of the corner path, j = 1..n."""
    if not 1 <= j <= conn.n:
        raise ValueError("edge index out of range")
    return segment_holonomy(conn, simplex_corner(conn.n, j - 1), simplex_corner(conn.n, j))


def corner_restriction(conn: PolyConnection, i: int) -> WordForm:
    """Restrict the connection 1-form to {corner i} times the box."""
    n, mdim = conn.n, conn.mdim
    corner = simplex_corner(n, i)
    images = [Poly.const(mdim, corner[k]) for k in range(n)]
    images += [Poly.var(mdim, t) for t in range(mdim)]
    return conn.form.subst_affine(images)


def k_map(conn: PolyConnection) -> dict:
    """Integrate the n-fold wedge of the connection over the simplex.

    Only the top wedge power has the right form degree, so the result is a
    single bar word tensor of length n, returned as {words: Fraction}. The
    empty tensor at n = 0 has coefficient 1.
    """
    if conn.mdim:
        raise ValueError("integration needs a connection on the bare simplex")
    n = conn.n
    if n == 0:
        return {(): Fraction(1)}
    power = conn.form
    for _ in range(n - 1):
        power = power.tensor(conn.form)
    full = tuple(range(n))
    out = {}
    for (words, dvars), poly in power.terms.items():
        if dvars == full:
            _vec_add(out, {words: poly.simplex_integral()})
    return out


def bar_boundary(elt: dict, nil: int) -> dict:
    """Bar differential on {words: Fraction} elements."""
    out = {}
    for words, val in elt.items():
        for i in range(len(words) + 1):
            face = _bar_face(words, i)
            if face is not None and sum(len(w) for w in face) <= nil:
                _vec_add(out, {face: val}, (-1) ** i)
    return out


def k_boundary_report(conn: PolyConnection) -> dict:
    """Exact comparison of the bar differential of k_map against the
    alternating sum of k_map over the simplex faces."""
    lhs = bar_boundary(k_map(conn), conn.nil)
    rhs = {}
    for i in range(conn.n + 1):
        _vec_add(rhs, k_map(face_connection(conn, i)), (-1) ** i)
    return {"ok": lhs == rhs, "n": conn.n,
            "terms": len(lhs)}


def t_map(conn: PolyConnection) -> WordForm:
    """Tensor of the n corner-to-corner edge holonomies.

    A point has no edges and maps to the empty tensor, the unit of bar
    degree zero, matching the counit faces of the bar complex.
    """
    if conn.n == 0:
        out = WordForm(conn.mdim, conn.nil)
        out._put((), (), Poly.const(conn.mdim, 1))
        return out
    out = None
    for j in range(1, conn.n + 1):
        p = edge_holonomy(conn, j)
        out = p if out is None else out.tensor(p)
    return out


def t_face_report(conn: PolyConnection) -> dict:
    """Check that bar faces of t_map agree with t_map of the simplex faces.

    The middle faces multiply adjacent holonomies, which matches the face
    connection exactly because flat holonomy across the triangle spanned by
    three consecutive corners is path independent.
    """
    base = t_map(conn)
    for i in range(conn.n + 1):
        expect = t_map(face_connection(conn, i))
        got = WordForm(conn.mdim, conn.nil)
        for (words, dvars), poly in base.terms.items():
            face = _bar_face(words, i)
            if face is not None:
                got._put(face, dvars, poly)
        if not (got - expect).is_zero():
            return {"ok": False, "face": i}
    return {"ok": True, "n": conn.n, "faces": conn.n + 1}


def holonomy_ode_report(conn: PolyConnection) -> dict:
    """Verify d P_j = P_j A_j - A_{j-1} P_j for every edge, exactly."""
    if conn.mdim < 1:
        raise ValueError("need box coordinates to differentiate holonomies")
    for j in range(1, conn.n + 1):
        pj = edge_holonomy(conn, j)
        left = pj.d()
        right = pj.mul(corner_restriction(conn, j)) \
            - corner_restriction(conn, j - 1).mul(pj)
        if not (left - right).is_zero():
            return {"ok": False, "edge": j}
    return {"ok": True, "edges": conn.n}


def psi(conn: PolyConnection) -> WordForm:
    """Interleaved corner-form and edge-holonomy expansion of a flat family.

    Terms run over how many copies of each corner restriction A_i to insert
    around the holonomies P_1..P_n; the sign counts the block inversions of
    moving all A factors to the right of all P factors. Form degree bounds the
    insertions by mdim, word length bounds them by the nilpotency order.
    """
    n, mdim, nil = conn.n, conn.mdim, conn.nil
    corners = [corner_restriction(conn, i) for i in range(n + 1)]
    holos = [edge_holonomy(conn, j) for j in range(1, n + 1)]
    budget = min(nil, mdim)
    out = WordForm(mdim, nil)
    for total in range(budget + 1):
        for counts in itertools.product(range(total + 1), repeat=n + 1):
            if sum(counts) != total:
                continue
            inv = sum(counts[i] * (n - i) for i in range(n + 1))
            term = None
            for i in range(n + 1):
                for _ in range(counts[i]):
                    term = corners[i] if term is None else term.tensor(corners[i])
                if i < n:
                    term = holos[i] if term is None else term.tensor(holos[i])
            if term is None:
                term = WordForm.scalar(mdim, nil)
            out = out + term.scale((-1) ** inv)
    return out


def psi_boundary_check(conn: PolyConnection) -> dict:
    """Exact boundary identity for the interleaving map on a flat family.

    Checks b(psi(A)) - d_chain(psi(A)) = sum_i (-1)^i psi(A|face i), where
    d_chain twists the exterior derivative by (-1)^(number of word factors)
    per term, plus the holonomy differential equation as a sub-check.
    """
    if conn.n > 2:
        raise ValueError("boundary check is sized for simplex dimension <= 2")
    ode = holonomy_ode_report(conn)
    base = psi(conn)
    lhs = base.bar_b() - base.chain_d()
    rhs = WordForm(conn.mdim, conn.nil)
    for i in range(conn.n + 1):
        rhs = rhs + psi(face_connection(conn, i)).scale((-1) ** i)
    diff = lhs - rhs
    return {"ok": ode["ok"] and diff.is_zero(),
            "ode_ok": ode["ok"],
            "residual_terms": len(diff.terms),
            "psi_terms": len(base.terms)}
