"""Free Lie algebras in the Lyndon basis, their associative envelopes, and cyclic words.

Letters are integers 1..g; words are tuples of letters. Associative elements are plain
dicts word -> Fraction. Lie elements are stored by their coordinates on the Lyndon
basis; conversion from associative form is the triangular rewrite along lex order,
which doubles as a certificate that the input was a Lie element.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

Word = tuple[int, ...]
Assoc = dict[Word, Fraction]


def _lyndon_upto(g: int, n: int) -> list[Word]:
    """All Lyndon words over 1..g of length <= n, in lex order (Duval)."""
    if g < 1 or n < 1:
        return []
    out = []
    w = [1]
    while True:
        out.append(tuple(w))
        k = len(w)
        while len(w) < n:
            w.append(w[len(w) - k])
        while w and w[-1] == g:
            w.pop()
        if not w:
            return out
        w[-1] += 1


def lyndon_words(g: int, w: int) -> list[Word]:
    """Lyndon words over 1..g of length exactly w, in lex order."""
    return [x for x in _lyndon_upto(g, w) if len(x) == w]


def is_lyndon(word: Word) -> bool:
    return len(word) > 0 and all(word < word[i:] for i in range(1, len(word)))


@lru_cache(maxsize=None)
def _mobius(n: int) -> int:
    if n == 1:
        return 1
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def witt_dimension(g: int, w: int) -> int:
    """Dimension of the weight-w part of the free Lie algebra on g generators."""
    if w < 1:
        return 0
    total = sum(_mobius(d) * g ** (w // d) for d in range(1, w + 1) if w % d == 0)
    assert total % w == 0
    return total // w


def standard_factorization(word: Word) -> tuple[Word, Word]:
    """Split a Lyndon word as (prefix, longest proper Lyndon suffix)."""
    if len(word) < 2:
        raise ValueError("cannot factor a single letter")
    suffix = min(word[i:] for i in range(1, len(word)))
    cut = len(word) - len(suffix)
    return word[:cut], suffix


@lru_cache(maxsize=None)
def bracketing(word: Word):
    """Nested-pair bracket tree of a Lyndon word (leaves are letters)."""
    if len(word) == 1:
        return word[0]
    u, v = standard_factorization(word)
    return (bracketing(u), bracketing(v))


def assoc_add(a: Assoc, b: Assoc, scale=1) -> Assoc:
    out = dict(a)
    scale = Fraction(scale)
    for w, c in b.items():
        v = out.get(w, 0) + c * scale
        if v:
            out[w] = v
        elif w in out:
            del out[w]
    return out


def assoc_mul(a: Assoc, b: Assoc) -> Assoc:
    out: Assoc = {}
    for u, c in a.items():
        for v, d in b.items():
            w = u + v
            s = out.get(w, 0) + c * d
            if s:
                out[w] = s
            elif w in out:
                del out[w]
    return out


def assoc_commutator(a: Assoc, b: Assoc) -> Assoc:
    return assoc_add(assoc_mul(a, b), assoc_mul(b, a), -1)


@lru_cache(maxsize=None)
def _expand_lyndon(word: Word) -> tuple[tuple[Word, Fraction], ...]:
    tree = bracketing(word)
    return tuple(sorted(_expand_tree(tree).items()))


def _expand_tree(tree) -> Assoc:
    if isinstance(tree, int):
        return {(tree,): Fraction(1)}
    return assoc_commutator(_expand_tree(tree[0]), _expand_tree(tree[1]))


def expand_lyndon(word: Word) -> Assoc:
    """Associative expansion of the bracketed Lyndon word; triangular: the word itself
    is the lex-least term, with coefficient 1."""
    return dict(_expand_lyndon(word))


class LieElt:
    """Rational combination of bracketed Lyndon words (weights may mix)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs: dict[Word, Fraction] = {}
        if coeffs:
            for w, c in coeffs.items():
                c = Fraction(c)
                if c:
                    if not is_lyndon(w):
                        raise ValueError(f"{w} is not a Lyndon word")
                    self.coeffs[w] = c

    @classmethod
    def zero(cls) -> "LieElt":
        return cls()

    @classmethod
    def generator(cls, letter: int) -> "LieElt":
        return cls({(letter,): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LieElt") -> "LieElt":
        out = LieElt()
        out.coeffs = dict(self.coeffs)
        for w, c in other.coeffs.items():
            v = out.coeffs.get(w, 0) + c
            if v:
                out.coeffs[w] = v
            elif w in out.coeffs:
                del out.coeffs[w]
        return out

    def __sub__(self, other: "LieElt") -> "LieElt":
        return self + other.scaled(-1)

    def scaled(self, c) -> "LieElt":
        c = Fraction(c)
        out = LieElt()
        if c:
            out.coeffs = {w: v * c for w, v in self.coeffs.items()}
        return out

    def weight_part(self, w: int) -> "LieElt":
        out = LieElt()
        out.coeffs = {word: c for word, c in self.coeffs.items() if len(word) == w}
        return out

    def max_weight(self) -> int:
        return max((len(w) for w in self.coeffs), default=0)

    def to_assoc(self) -> Assoc:
        out: Assoc = {}
        for word, c in self.coeffs.items():
            for v, d in _expand_lyndon(word):
                s = out.get(v, 0) + c * d
                if s:
                    out[v] = s
                elif v in out:
                    del out[v]
        return out

    def bracket(self, other: "LieElt") -> "LieElt":
        return assoc_to_lie(assoc_commutator(self.to_assoc(), other.to_assoc()))

    def __eq__(self, other):
        return isinstance(other, LieElt) and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "LieElt(0)"
        bits = [f"{c}*{w}" for w, c in sorted(self.coeffs.items())]
        return "LieElt(" + " + ".join(bits) + ")"


def assoc_to_lie(a: Assoc) -> LieElt:
    """Lyndon coordinates of an associative element that happens to be Lie.

    Peels the lex-least surviving word, which must be Lyndon with the bracketed word
    accounting for it; raises ValueError otherwise. Termination is guaranteed by the
    triangularity of Lyndon expansions.
    """
    rest = dict(a)
    out = LieElt()
    while rest:
        word = min(rest)
        if not is_lyndon(word):
            raise ValueError(f"not a Lie element: stray word {word}")
        c = rest.pop(word)
        out.coeffs[word] = out.coeffs.get(word, Fraction(0)) + c
        for v, d in _expand_lyndon(word):
            if v == word:
                continue
            s = rest.get(v, 0) - c * d
            if s:
                rest[v] = s
            elif v in rest:
                del rest[v]
        if rest and min(rest) <= word:
            raise AssertionError("Lyndon triangularity violated")
    for w in [w for w, c in out.coeffs.items() if not c]:
        del out.coeffs[w]
    return out


def apply_derivation(images: dict[int, LieElt], x: LieElt) -> LieElt:
    """Apply the derivation sending letter k to images[k] (default 0) to x."""
    image_assoc = {k: v.to_assoc() for k, v in images.items() if not v.is_zero()}
    acc: Assoc = {}
    for word, c in x.to_assoc().items():
        for i, letter in enumerate(word):
            img = image_assoc.get(letter)
            if not img:
                continue
            prefix, suffix = word[:i], word[i + 1:]
            for mid, d in img.items():
                w = prefix + mid + suffix
                s = acc.get(w, 0) + c * d
                if s:
                    acc[w] = s
                elif w in acc:
                    del acc[w]
    return assoc_to_lie(acc)


# ---------------------------------------------------------------------------
# cyclic words

def necklace_key(word: Word) -> Word:
    """Lexicographically least rotation."""
    if not word:
        return word
    return min(word[i:] + word[:i] for i in range(len(word)))


class TraceElt:
    """Rational combination of necklaces (cyclic words)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs: dict[Word, Fraction] = {}
        if coeffs:
            for w, c in coeffs.items():
                self.add(w, c)

    def add(self, word: Word, c):
        c = Fraction(c)
        if not c:
            return
        key = necklace_key(word)
        v = self.coeffs.get(key, 0) + c
        if v:
            self.coeffs[key] = v
        elif key in self.coeffs:
            del self.coeffs[key]

    def __add__(self, other: "TraceElt") -> "TraceElt":
        out = TraceElt(dict(self.coeffs))
        for w, c in other.coeffs.items():
            out.add(w, c)
        return out

    def __sub__(self, other: "TraceElt") -> "TraceElt":
        return self + other.scaled(-1)

    def scaled(self, c) -> "TraceElt":
        c = Fraction(c)
        out = TraceElt()
        if c:
            out.coeffs = {w: v * c for w, v in self.coeffs.items()}
        return out

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, TraceElt) and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "TraceElt(0)"
        bits = [f"{c}*tr{w}" for w, c in sorted(self.coeffs.items())]
        return "TraceElt(" + " + ".join(bits) + ")"


def trace_project(a: Assoc) -> TraceElt:
    out = TraceElt()
    for w, c in a.items():
        out.add(w, c)
    return out


def right_partial(a: Assoc, k: int) -> Assoc:
    """The coefficient of a trailing letter k: a = const-part + sum_k right_partial(a,k)*x_k."""
    out: Assoc = {}
    for w, c in a.items():
        if w and w[-1] == k:
            v = out.get(w[:-1], 0) + c
            if v:
                out[w[:-1]] = v
            elif w[:-1] in out:
                del out[w[:-1]]
    return out
