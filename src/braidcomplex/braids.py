"""The braid-strand Lie tower t_n, truncated enveloping algebras, and special derivations.

t_n is generated by t_ab = t_ba (1 <= a < b <= n) with [t_ab, t_cd] = 0 for disjoint
pairs and [t_ab, t_ac + t_bc] = 0. The working basis is the semidirect tower: layer
b holds a free Lie algebra on letters 1..b-1 (letter a standing for t_ab), and lower
layers act on higher ones by derivations. The tensor-algebra quotient of the
enveloping algebra is kept alongside as an independent oracle.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .exact import SparseRationalMatrix, echelon_from_matrix, membership
from .freelie import (
    LieElt,
    TraceElt,
    apply_derivation,
    bracketing,
    expand_lyndon,
    is_lyndon,
    lyndon_words,
    right_partial,
    witt_dimension,
)

BasisKey = tuple[int, tuple[int, ...]]


@lru_cache(maxsize=None)
def tn_basis(n: int, w: int) -> tuple[BasisKey, ...]:
    """Ordered basis of the weight-w part: layers ascending, Lyndon words lex within."""
    if n < 2 or w < 1:
        return ()
    out = []
    for layer in range(2, n + 1):
        out.extend((layer, word) for word in lyndon_words(layer - 1, w))
    return tuple(out)


def tn_dimension(n: int, w: int) -> int:
    if n < 2 or w < 1:
        return 0
    return sum(witt_dimension(layer - 1, w) for layer in range(2, n + 1))


class TnElt:
    """Rational combination of semidirect basis elements of t_n (weights may mix)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs=None):
        self.n = n
        self.coeffs: dict[BasisKey, Fraction] = {}
        if coeffs:
            for (layer, word), c in coeffs.items():
                c = Fraction(c)
                if not c:
                    continue
                if not 2 <= layer <= n:
                    raise ValueError(f"layer {layer} out of range for {n} strands")
                if not is_lyndon(word) or any(not 1 <= a < layer for a in word):
                    raise ValueError(f"bad basis word {word} in layer {layer}")
                self.coeffs[(layer, word)] = c

    @classmethod
    def zero(cls, n: int) -> "TnElt":
        return cls(n)

    @classmethod
    def generator(cls, n: int, a: int, b: int) -> "TnElt":
        """The generator t_ab, 1 <= a < b <= n."""
        if not 1 <= a < b <= n:
            raise ValueError(f"t_{a}{b} needs 1 <= a < b <= n")
        return cls(n, {(b, (a,)): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "TnElt") -> "TnElt":
        if self.n != other.n:
            raise ValueError("mismatched strand count")
        out = TnElt(self.n)
        out.coeffs = dict(self.coeffs)
        for k, c in other.coeffs.items():
            v = out.coeffs.get(k, 0) + c
            if v:
                out.coeffs[k] = v
            elif k in out.coeffs:
                del out.coeffs[k]
        return out

    def __sub__(self, other: "TnElt") -> "TnElt":
        return self + other.scaled(-1)

    def scaled(self, c) -> "TnElt":
        c = Fraction(c)
        out = TnElt(self.n)
        if c:
            out.coeffs = {k: v * c for k, v in self.coeffs.items()}
        return out

    def weight_part(self, w: int) -> "TnElt":
        out = TnElt(self.n)
        out.coeffs = {k: c for k, c in self.coeffs.items() if len(k[1]) == w}
        return out

    def max_weight(self) -> int:
        return max((len(k[1]) for k in self.coeffs), default=0)

    def bracket(self, other: "TnElt") -> "TnElt":
        return tn_bracket(self, other)

    def __eq__(self, other):
        return isinstance(other, TnElt) and self.n == other.n and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return f"TnElt(t{self.n}, 0)"
        bits = [f"{c}*{k}" for k, c in sorted(self.coeffs.items())]
        return f"TnElt(t{self.n}, " + " + ".join(bits) + ")"


@lru_cache(maxsize=None)
def _bracket_same_layer(layer, w1, w2):
    a = LieElt({w1: Fraction(1)})
    b = LieElt({w2: Fraction(1)})
    return tuple(a.bracket(b).coeffs.items())


def _act_tree(l1, tree, target: LieElt) -> LieElt:
    """Action of the layer-l1 bracket tree on a higher layer, as nested derivations."""
    if isinstance(tree, int):
        a = tree
        image = LieElt.generator(a).bracket(LieElt.generator(l1))
        return apply_derivation({a: image, l1: image.scaled(-1)}, target)
    left, right = tree
    return _act_tree(l1, left, _act_tree(l1, right, target)) - _act_tree(
        l1, right, _act_tree(l1, left, target)
    )


@lru_cache(maxsize=None)
def _bracket_action(l1, w1, l2, w2):
    """[(l1,w1), (l2,w2)] with l1 < l2; the result lives in layer l2."""
    res = _act_tree(l1, bracketing(w1), LieElt({w2: Fraction(1)}))
    return tuple(res.coeffs.items())


def tn_bracket(u: TnElt, v: TnElt) -> TnElt:
    if u.n != v.n:
        raise ValueError("mismatched strand count")
    acc: dict[BasisKey, Fraction] = {}

    def bump(layer, word, c):
        key = (layer, word)
        s = acc.get(key, 0) + c
        if s:
            acc[key] = s
        elif key in acc:
            del acc[key]

    for (l1, w1), c1 in u.coeffs.items():
        for (l2, w2), c2 in v.coeffs.items():
            c = c1 * c2
            if l1 == l2:
                for word, d in _bracket_same_layer(l1, w1, w2):
                    bump(l1, word, c * d)
            elif l1 < l2:
                for word, d in _bracket_action(l1, w1, l2, w2):
                    bump(l2, word, c * d)
            else:
                for word, d in _bracket_action(l2, w2, l1, w1):
                    bump(l1, word, -c * d)
    out = TnElt(u.n)
    out.coeffs = acc
    return out


# ---------------------------------------------------------------------------
# truncated enveloping algebra as a tensor-algebra quotient

@lru_cache(maxsize=None)
def env_generators(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1))


@lru_cache(maxsize=None)
def _gen_index(n: int) -> dict[tuple[int, int], int]:
    return {g: i for i, g in enumerate(env_generators(n))}


@lru_cache(maxsize=None)
def _relation_rows(n: int):
    """Weight-2 tensor elements spanning the defining relations."""
    gens = env_generators(n)
    gi = _gen_index(n)
    rels = []
    for p in range(len(gens)):
        for q in range(p + 1, len(gens)):
            if len(set(gens[p]) | set(gens[q])) == 4:
                rels.append((((p, q), 1), ((q, p), -1)))
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        trio = (gi[(i, j)], gi[(i, k)], gi[(j, k)])
        for t in range(3):
            x, y, z = trio[t], trio[(t + 1) % 3], trio[(t + 2) % 3]
            rels.append((((x, y), 1), ((y, x), -1), ((x, z), 1), ((z, x), -1)))
    return tuple(rels)


@lru_cache(maxsize=None)
def envelope_weight(n: int, w: int):
    """Quotient basis and reduction table for the weight-w monomials.

    Returns (basis, reduce) where basis is a tuple of monomials (tuples of generator
    indices) and reduce maps every monomial to its expansion over basis.
    """
    G = len(env_generators(n))
    monos = list(itertools.product(range(G), repeat=w))
    if w < 2:
        return tuple(monos), {m: {m: Fraction(1)} for m in monos}
    index = {m: i for i, m in enumerate(monos)}
    entries = []
    r = 0
    for rel in _relation_rows(n):
        for la in range(w - 1):
            for head in itertools.product(range(G), repeat=la):
                for tail in itertools.product(range(G), repeat=w - 2 - la):
                    for mid, c in rel:
                        entries.append((r, index[head + mid + tail], c))
                    r += 1
    ech = echelon_from_matrix(SparseRationalMatrix.from_entries(r, len(monos), entries))
    ech.back_reduce()
    basis = tuple(m for i, m in enumerate(monos) if i not in ech.pivots)
    reduce_table = {m: {monos[d]: v for d, v in ech.normal_form(i).items()}
                    for i, m in enumerate(monos)}
    return basis, reduce_table


class EnvElt:
    """Element of the enveloping algebra truncated beyond a fixed weight."""

    __slots__ = ("n", "trunc", "coeffs")

    def __init__(self, n: int, trunc: int, coeffs=None):
        self.n = n
        self.trunc = trunc
        self.coeffs: dict[tuple[int, ...], Fraction] = {}
        if coeffs:
            for mono, c in coeffs.items():
                c = Fraction(c)
                if not c or len(mono) > trunc:
                    continue
                table = envelope_weight(n, len(mono))[1]
                if mono not in table:
                    raise ValueError(f"bad monomial {mono}")
                for b, d in table[mono].items():
                    v = self.coeffs.get(b, 0) + c * d
                    if v:
                        self.coeffs[b] = v
                    elif b in self.coeffs:
                        del self.coeffs[b]

    @classmethod
    def unit(cls, n: int, trunc: int) -> "EnvElt":
        return cls(n, trunc, {(): Fraction(1)})

    @classmethod
    def generator(cls, n: int, trunc: int, a: int, b: int) -> "EnvElt":
        return cls(n, trunc, {(_gen_index(n)[(min(a, b), max(a, b))],): Fraction(1)})

    def _check(self, other: "EnvElt"):
        if self.n != other.n or self.trunc != other.trunc:
            raise ValueError("mismatched strand count or truncation")

    def is_zero(self) -> bool:
        return not self.coeffs

    def augmentation(self) -> Fraction:
        return self.coeffs.get((), Fraction(0))

    def weight_part(self, w: int) -> "EnvElt":
        out = EnvElt(self.n, self.trunc)
        out.coeffs = {m: c for m, c in self.coeffs.items() if len(m) == w}
        return out

    def __add__(self, other: "EnvElt") -> "EnvElt":
        self._check(other)
        out = EnvElt(self.n, self.trunc)
        out.coeffs = dict(self.coeffs)
        for m, c in other.coeffs.items():
            v = out.coeffs.get(m, 0) + c
            if v:
                out.coeffs[m] = v
            elif m in out.coeffs:
                del out.coeffs[m]
        return out

    def __sub__(self, other: "EnvElt") -> "EnvElt":
        return self + other.scaled(-1)

    def scaled(self, c) -> "EnvElt":
        c = Fraction(c)
        out = EnvElt(self.n, self.trunc)
        if c:
            out.coeffs = {m: v * c for m, v in self.coeffs.items()}
        return out

    def __mul__(self, other: "EnvElt") -> "EnvElt":
        self._check(other)
        acc: dict[tuple[int, ...], Fraction] = {}
        for mu, cu in self.coeffs.items():
            for mv, cv in other.coeffs.items():
                if len(mu) + len(mv) > self.trunc:
                    continue
                c = cu * cv
                for b, d in envelope_weight(self.n, len(mu) + len(mv))[1][mu + mv].items():
                    v = acc.get(b, 0) + c * d
                    if v:
                        acc[b] = v
                    elif b in acc:
                        del acc[b]
        out = EnvElt(self.n, self.trunc)
        out.coeffs = acc
        return out

    def __eq__(self, other):
        return (
            isinstance(other, EnvElt)
            and self.n == other.n
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        if not self.coeffs:
            return f"EnvElt(U(t{self.n}), 0)"
        bits = [f"{c}*{m}" for m, c in sorted(self.coeffs.items())]
        return f"EnvElt(U(t{self.n}), " + " + ".join(bits) + ")"


def env_commutator(u: EnvElt, v: EnvElt) -> EnvElt:
    return u * v - v * u


def env_exp(x: EnvElt) -> EnvElt:
    if x.augmentation():
        raise ValueError("exp needs augmentation 0")
    out = EnvElt.unit(x.n, x.trunc)
    power = EnvElt.unit(x.n, x.trunc)
    fact = 1
    for k in range(1, x.trunc + 1):
        power = power * x
        fact *= k
        out = out + power.scaled(Fraction(1, fact))
        if power.is_zero():
            break
    return out


def env_log(x: EnvElt) -> EnvElt:
    if x.augmentation() != 1:
        raise ValueError("log needs augmentation 1")
    y = x - EnvElt.unit(x.n, x.trunc)
    out = EnvElt(x.n, x.trunc)
    power = EnvElt.unit(x.n, x.trunc)
    for k in range(1, x.trunc + 1):
        power = power * y
        out = out + power.scaled(Fraction((-1) ** (k + 1), k))
        if power.is_zero():
            break
    return out


def env_inv(x: EnvElt) -> EnvElt:
    if x.augmentation() != 1:
        raise ValueError("inverse implemented for augmentation 1 only")
    y = EnvElt.unit(x.n, x.trunc) - x
    out = EnvElt.unit(x.n, x.trunc)
    power = EnvElt.unit(x.n, x.trunc)
    for _ in range(1, x.trunc + 1):
        power = power * y
        out = out + power
        if power.is_zero():
            break
    return out


def tn_to_env(x: TnElt, trunc: int) -> EnvElt:
    """Embed a Lie element, expanding each bracketed basis word into tensor monomials."""
    gi = _gen_index(x.n)
    acc: dict[tuple[int, ...], Fraction] = {}
    for (layer, word), c in x.coeffs.items():
        if len(word) > trunc:
            continue
        for letters, d in expand_lyndon(word).items():
            mono = tuple(gi[(a, layer)] for a in letters)
            v = acc.get(mono, 0) + c * d
            if v:
                acc[mono] = v
            elif mono in acc:
                del acc[mono]
    return EnvElt(x.n, trunc, acc)


@lru_cache(maxsize=None)
def _tn_span_matrix(n: int, w: int):
    """Columns: embedded t_n basis at weight w over envelope basis monomials."""
    basis_monos, _ = envelope_weight(n, w)
    row_of = {m: i for i, m in enumerate(basis_monos)}
    keys = tn_basis(n, w)
    entries = []
    for col, key in enumerate(keys):
        img = tn_to_env(TnElt(n, {key: Fraction(1)}), w)
        for mono, c in img.coeffs.items():
            entries.append((row_of[mono], col, c))
    return SparseRationalMatrix.from_entries(len(basis_monos), len(keys), entries)


def grouplike_check(phi: EnvElt) -> dict[int, bool]:
    """Per-weight: does the log land in the embedded Lie algebra? Exact membership."""
    if phi.augmentation() != 1:
        raise ValueError("augmentation must be 1")
    lg = env_log(phi)
    report = {}
    for w in range(1, phi.trunc + 1):
        basis_monos, _ = envelope_weight(phi.n, w)
        row_of = {m: i for i, m in enumerate(basis_monos)}
        comp = lg.weight_part(w)
        vec = {row_of[m]: c for m, c in comp.coeffs.items()}
        sol, _ = membership(_tn_span_matrix(phi.n, w), vec)
        report[w] = sol is not None
    return report


# ---------------------------------------------------------------------------
# strand maps, pentagon, hexagons

def strand_images(n_src: int, n_tgt: int, blocks: tuple, trunc: int) -> dict[int, EnvElt]:
    """Generator images of the map t_ab -> sum over the strand blocks of a and b."""
    if len(blocks) != n_src:
        raise ValueError("one block per source strand")
    images = {}
    for idx, (a, b) in enumerate(env_generators(n_src)):
        img = EnvElt(n_tgt, trunc)
        for i in blocks[a - 1]:
            for j in blocks[b - 1]:
                img = img + EnvElt.generator(n_tgt, trunc, min(i, j), max(i, j))
        images[idx] = img
    return images


def env_apply(phi: EnvElt, images: dict[int, EnvElt], n_tgt: int) -> EnvElt:
    """Algebra map determined by weight-1 generator images."""
    trunc = phi.trunc
    out = EnvElt(n_tgt, trunc)
    for mono, c in phi.coeffs.items():
        term = EnvElt.unit(n_tgt, trunc)
        for g in mono:
            term = term * images[g]
        out = out + term.scaled(c)
    return out


def pentagon_residual(phi: EnvElt) -> EnvElt:
    """LHS - RHS of the pentagon for phi over three strands, evaluated on four."""
    if phi.n != 3:
        raise ValueError("pentagon input lives on three strands")
    trunc = phi.trunc
    plans = (
        ((1,), (2,), (3, 4)),
        ((1, 2), (3,), (4,)),
        ((2,), (3,), (4,)),
        ((1,), (2, 3), (4,)),
        ((1,), (2,), (3,)),
    )
    p = [env_apply(phi, strand_images(3, 4, blocks, trunc), 4) for blocks in plans]
    return p[0] * p[1] - p[2] * p[3] * p[4]


@lru_cache(maxsize=None)
def _xy_word_matrix(n: int, w: int):
    """Columns: reduced images of the 2^w free words in t_12, t_23 at weight w."""
    basis_monos, _ = envelope_weight(n, w)
    row_of = {m: i for i, m in enumerate(basis_monos)}
    gi = _gen_index(n)
    x, y = gi[(1, 2)], gi[(2, 3)]
    words = list(itertools.product((x, y), repeat=w))
    entries = []
    for col, word in enumerate(words):
        elt = EnvElt(n, w, {word: Fraction(1)})
        for mono, c in elt.coeffs.items():
            entries.append((row_of[mono], col, c))
    return words, SparseRationalMatrix.from_entries(len(basis_monos), len(words), entries)


def two_letter_form(phi: EnvElt) -> dict[tuple[int, ...], Fraction]:
    """Express phi as a free series in X = t_12, Y = t_23 (0 = X, 1 = Y in keys).

    The two generate a free subalgebra, so the expression is unique; raises if phi
    does not lie in it.
    """
    if phi.n != 3:
        raise ValueError("two-letter form is for three strands")
    out: dict[tuple[int, ...], Fraction] = {}
    if phi.augmentation():
        out[()] = phi.augmentation()
    for w in range(1, phi.trunc + 1):
        comp = phi.weight_part(w)
        words, mat = _xy_word_matrix(phi.n, w)
        basis_monos, _ = envelope_weight(phi.n, w)
        row_of = {m: i for i, m in enumerate(basis_monos)}
        vec = {row_of[m]: c for m, c in comp.coeffs.items()}
        sol, _ = membership(mat, vec)
        if sol is None:
            raise ValueError(f"weight-{w} part not generated by t_12 and t_23")
        gi = _gen_index(phi.n)
        x = gi[(1, 2)]
        for col, c in sol.items():
            if c:
                key = tuple(0 if g == x else 1 for g in words[col])
                out[key] = c
    return out


def _substitute(form: dict, a: EnvElt, b: EnvElt) -> EnvElt:
    out = EnvElt(a.n, a.trunc)
    for word, c in form.items():
        term = EnvElt.unit(a.n, a.trunc)
        for letter in word:
            term = term * (a if letter == 0 else b)
        out = out + term.scaled(c)
    return out


def hexagon_residuals(phi: EnvElt) -> tuple[EnvElt, EnvElt]:
    """LHS - RHS of the two hexagons with R = exp(t/2), phi fed via its two-letter form."""
    form = two_letter_form(phi)
    n, trunc = phi.n, phi.trunc
    t12 = EnvElt.generator(n, trunc, 1, 2)
    t13 = EnvElt.generator(n, trunc, 1, 3)
    t23 = EnvElt.generator(n, trunc, 2, 3)
    half = Fraction(1, 2)

    def e(u):
        return env_exp(u.scaled(half))

    def F(u, v):
        return _substitute(form, u, v)

    lhs1 = env_exp((t13 + t23).scaled(half))
    rhs1 = F(t13, t12) * e(t13) * env_inv(F(t13, t23)) * e(t23) * F(t12, t23)
    lhs2 = env_exp((t12 + t13).scaled(half))
    rhs2 = F(t13, t23) * e(t13) * env_inv(F(t13, t12)) * e(t12) * F(t23, t12)
    return lhs1 - rhs1, lhs2 - rhs2


def hexagon_weight2_coefficient() -> Fraction:
    """The unique c with vanishing weight-2 hexagon residual for 1 + c[t_13, t_23]."""
    J = TnElt(3, {(3, (1, 2)): Fraction(1)})
    residuals = []
    for c in (Fraction(0), Fraction(1)):
        phi = EnvElt.unit(3, 2) + tn_to_env(J.scaled(c), 2)
        h1, h2 = hexagon_residuals(phi)
        residuals.append((h1.weight_part(2), h2.weight_part(2)))
    (r0a, r0b), (r1a, r1b) = residuals
    slope_a = r1a - r0a
    monos = set(r0a.coeffs) | set(slope_a.coeffs)
    sols = set()
    for m in monos:
        s = slope_a.coeffs.get(m, Fraction(0))
        if s:
            sols.add(-r0a.coeffs.get(m, Fraction(0)) / s)
    if len(sols) != 1:
        raise ArithmeticError("hexagon weight-2 condition not solvable by one scalar")
    c = sols.pop()
    phi = EnvElt.unit(3, 2) + tn_to_env(J.scaled(c), 2)
    h1, h2 = hexagon_residuals(phi)
    if not (h1.weight_part(2).is_zero() and h2.weight_part(2).is_zero()):
        raise ArithmeticError("the two hexagons disagree at weight 2")
    return c


# ---------------------------------------------------------------------------
# special derivations and divergence

class SderElement:
    """Tuple (a_1..a_n) of Lie elements with sum [a_k, x_k] = 0."""

    __slots__ = ("n", "parts")

    def __init__(self, n: int, parts, check: bool = True):
        parts = tuple(parts)
        if len(parts) != n:
            raise ValueError("need one Lie element per generator")
        for p in parts:
            if any(not 1 <= a <= n for word in p.coeffs for a in word):
                raise ValueError("letters out of range")
        if check:
            total = LieElt.zero()
            for k, p in enumerate(parts, start=1):
                total = total + p.bracket(LieElt.generator(k))
            if not total.is_zero():
                raise ValueError("tuple violates the derivation constraint")
        self.n = n
        self.parts = parts

    @classmethod
    def zero(cls, n: int) -> "SderElement":
        return cls(n, [LieElt.zero()] * n, check=False)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.parts)

    def __add__(self, other: "SderElement") -> "SderElement":
        if self.n != other.n:
            raise ValueError("mismatched generator count")
        return SderElement(
            self.n, [a + b for a, b in zip(self.parts, other.parts)], check=False
        )

    def __sub__(self, other: "SderElement") -> "SderElement":
        return self + other.scaled(-1)

    def scaled(self, c) -> "SderElement":
        return SderElement(self.n, [p.scaled(c) for p in self.parts], check=False)

    def weight_part(self, w: int) -> "SderElement":
        return SderElement(self.n, [p.weight_part(w) for p in self.parts], check=False)

    def apply(self, x: LieElt) -> LieElt:
        """The derivation itself: x_k -> [a_k, x_k]."""
        images = {
            k: self.parts[k - 1].bracket(LieElt.generator(k)) for k in range(1, self.n + 1)
        }
        return apply_derivation(images, x)

    def bracket(self, other: "SderElement") -> "SderElement":
        if self.n != other.n:
            raise ValueError("mismatched generator count")
        im_self = {
            k: self.parts[k - 1].bracket(LieElt.generator(k))
            for k in range(1, self.n + 1)
        }
        im_other = {
            k: other.parts[k - 1].bracket(LieElt.generator(k))
            for k in range(1, self.n + 1)
        }
        parts = []
        for a, b in zip(self.parts, other.parts):
            parts.append(
                apply_derivation(im_self, b)
                - apply_derivation(im_other, a)
                + b.bracket(a)
            )
        return SderElement(self.n, parts, check=False)

    def __eq__(self, other):
        return (
            isinstance(other, SderElement)
            and self.n == other.n
            and self.parts == other.parts
        )


@lru_cache(maxsize=None)
def _sder_basis_image(n: int, layer: int, word: tuple) -> SderElement:
    tree = bracketing(word)
    return _sder_tree(n, layer, tree)


def _sder_tree(n, layer, tree) -> SderElement:
    if isinstance(tree, int):
        a, b = tree, layer
        parts = [LieElt.zero()] * n
        parts[a - 1] = LieElt.generator(b)
        parts[b - 1] = LieElt.generator(a)
        return SderElement(n, parts, check=False)
    return _sder_tree(n, layer, tree[0]).bracket(_sder_tree(n, layer, tree[1]))


def sder_embed(x: TnElt) -> SderElement:
    """Lie morphism t_ab -> (.., a_a = x_b, .., a_b = x_a, ..)."""
    out = SderElement.zero(x.n)
    for (layer, word), c in x.coeffs.items():
        out = out + _sder_basis_image(x.n, layer, word).scaled(c)
    return out


def div(u: SderElement) -> TraceElt:
    """Divergence: sum of tr(x_k d_k a_k) over the right-factor decomposition."""
    out = TraceElt()
    for k in range(1, u.n + 1):
        part = right_partial(u.parts[k - 1].to_assoc(), k)
        for word, c in part.items():
            out.add((k,) + word, c)
    return out


def _lyndon_index(n: int, w: int) -> dict[tuple, int]:
    return {word: i for i, word in enumerate(lyndon_words(n, w))}


@lru_cache(maxsize=None)
def sder_dimension(n: int, w: int) -> int:
    """Dimension of the weight-w special derivations (tuples modulo trivial ones)."""
    if w < 1:
        return 0
    words = lyndon_words(n, w)
    target = _lyndon_index(n, w + 1)
    entries = []
    for k in range(1, n + 1):
        for i, word in enumerate(words):
            col = (k - 1) * len(words) + i
            img = LieElt({word: Fraction(1)}).bracket(LieElt.generator(k))
            for out_word, c in img.coeffs.items():
                entries.append((target[out_word], col, c))
    mat = SparseRationalMatrix.from_entries(len(target), n * len(words), entries)
    ech = echelon_from_matrix(mat)
    kernel_dim = n * len(words) - ech.rank
    return kernel_dim - (n if w == 1 else 0)


def sder_embedding_rank(n: int, w: int) -> int:
    """Rank of the embedded t_n basis inside the derivation coordinates at weight w."""
    words = lyndon_words(n, w)
    widx = _lyndon_index(n, w)
    keys = tn_basis(n, w)
    entries = []
    for col, key in enumerate(keys):
        img = _sder_basis_image(n, key[0], key[1])
        for k in range(1, n + 1):
            for word, c in img.parts[k - 1].coeffs.items():
                if w == 1 and word == (k,):
                    continue
                entries.append(((k - 1) * len(words) + widx[word], col, c))
    mat = SparseRationalMatrix.from_entries(n * len(words), len(keys), entries)
    return echelon_from_matrix(mat).rank


# ---------------------------------------------------------------------------
# series serialization

def series_to_json(x: TnElt, trunc: int) -> dict:
    terms = []
    for w in range(1, trunc + 1):
        comp = x.weight_part(w)
        if comp.is_zero():
            continue
        coeffs = [str(comp.coeffs.get(key, Fraction(0))) for key in tn_basis(x.n, w)]
        terms.append({"weight": w, "basis": f"t{x.n}", "coeffs": coeffs})
    return {"n": x.n, "trunc": trunc, "terms": terms}


def series_from_json(obj: dict) -> tuple[TnElt, int]:
    n = int(obj["n"])
    trunc = int(obj["trunc"])
    out = TnElt(n)
    for term in obj["terms"]:
        w = int(term["weight"])
        basis = tn_basis(n, w)
        coeffs = term["coeffs"]
        if len(coeffs) != len(basis):
            raise ValueError(f"weight-{w} coefficient vector has wrong length")
        for key, c in zip(basis, coeffs):
            c = Fraction(c)
            if c:
                out.coeffs[key] = out.coeffs.get(key, Fraction(0)) + c
    return out, trunc
