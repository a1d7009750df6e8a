"""Free nonassociative polynomials over named variables.

A monomial is a binary product tree: a leaf is a variable name (str), an inner
node is a pair ``(left, right)``.  A FreePoly is a finite Fraction-linear
combination of monomials; coefficients live over Q and are reduced into F_p
only at evaluation time.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as _dc_field
from fractions import Fraction
from typing import Sequence, Union

Tree = Union[str, tuple]


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownVariableError(ParseError):
    pass


class AmbiguousProductError(ParseError):
    pass


class DegreeOutOfRangeError(ValueError):
    pass


class PolarizationTooLargeError(ValueError):
    """Polarizing a law would expand more than POLARIZE_BOUND namings."""


# The most injective namings that `polarize` expands: a one-variable law of
# degree 7 takes 7! = 5040 per monomial and the largest catalog law 12; one
# monomial of degree 8 takes 40320.  The tests check `check` against it.
POLARIZE_BOUND = 20000


def tree_degree(t: Tree) -> int:
    return 1 if isinstance(t, str) else tree_degree(t[0]) + tree_degree(t[1])


def tree_leaves(t: Tree) -> list[str]:
    if isinstance(t, str):
        return [t]
    return tree_leaves(t[0]) + tree_leaves(t[1])


def tree_format(t: Tree) -> str:
    if isinstance(t, str):
        return t
    l, r = t
    ls = tree_format(l) if isinstance(l, str) else f"({tree_format(l)})"
    rs = tree_format(r) if isinstance(r, str) else f"({tree_format(r)})"
    return f"{ls}*{rs}"


def tree_key(t: Tree):
    """Total order on trees: by degree, then leaves before nodes, recursively."""
    if isinstance(t, str):
        return (1, 0, t)
    return (tree_degree(t), 1, tree_key(t[0]), tree_key(t[1]))


def canonical_commutative(t: Tree) -> Tree:
    """Orbit representative under swapping the factors of any product node."""
    if isinstance(t, str):
        return t
    l = canonical_commutative(t[0])
    r = canonical_commutative(t[1])
    return (l, r) if tree_key(l) <= tree_key(r) else (r, l)


def rename_tree(t: Tree, mapping: dict[str, str]) -> Tree:
    """`t` with each leaf v replaced by ``mapping.get(v, v)``."""
    if isinstance(t, str):
        return mapping.get(t, t)
    return (rename_tree(t[0], mapping), rename_tree(t[1], mapping))


def relabel_leaves(t: Tree, names: dict) -> Tree:
    """`t` with its leaves of each variable v, left to right, renamed by the
    iterator ``names[v]``, one name each."""
    if isinstance(t, str):
        return next(names[t])
    return (relabel_leaves(t[0], names), relabel_leaves(t[1], names))


class FreePoly:
    """Formal Q-linear combination of product trees over declared variables."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: dict | None = None):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"repeated variable name in {self.variables}")
        self.terms: dict[Tree, Fraction] = {}
        if terms:
            for t, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[t] = c

    @classmethod
    def var(cls, name: str, variables: Sequence[str]) -> "FreePoly":
        if name not in variables:
            raise ValueError(f"undeclared variable {name!r}")
        return cls(variables, {name: Fraction(1)})

    @classmethod
    def monomial(cls, tree: Tree, variables: Sequence[str],
                 coef: Fraction | int = 1) -> "FreePoly":
        return cls(variables, {tree: Fraction(coef)})

    def _check(self, other: "FreePoly") -> None:
        if self.variables != other.variables:
            raise ValueError("variable lists differ")

    def __add__(self, other: "FreePoly") -> "FreePoly":
        self._check(other)
        out = dict(self.terms)
        for t, c in other.terms.items():
            out[t] = out.get(t, Fraction(0)) + c
        return FreePoly(self.variables, out)

    def __sub__(self, other: "FreePoly") -> "FreePoly":
        self._check(other)
        out = dict(self.terms)
        for t, c in other.terms.items():
            out[t] = out.get(t, Fraction(0)) - c
        return FreePoly(self.variables, out)

    def __neg__(self) -> "FreePoly":
        return FreePoly(self.variables, {t: -c for t, c in self.terms.items()})

    def scale(self, c) -> "FreePoly":
        c = Fraction(c)
        return FreePoly(self.variables, {t: c * k for t, k in self.terms.items()})

    def __mul__(self, other: "FreePoly") -> "FreePoly":
        """The (nonassociative) algebra product, extended bilinearly."""
        self._check(other)
        out: dict[Tree, Fraction] = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                t = (t1, t2)
                out[t] = out.get(t, Fraction(0)) + c1 * c2
        return FreePoly(self.variables, out)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((tree_degree(t) for t in self.terms), default=0)

    def sorted_terms(self) -> list[tuple[Tree, Fraction]]:
        return sorted(self.terms.items(), key=lambda tc: tree_key(tc[0]))

    def is_multilinear(self) -> bool:
        """True iff every monomial contains each declared variable exactly once."""
        want = sorted(self.variables)
        return all(sorted(tree_leaves(t)) == want for t in self.terms)

    def rename_variables(self, mapping: dict[str, str]) -> "FreePoly":
        new_vars = tuple(mapping.get(v, v) for v in self.variables)
        out: dict[Tree, Fraction] = {}
        for t, c in self.terms.items():
            nt = rename_tree(t, mapping)
            out[nt] = out.get(nt, Fraction(0)) + c
        return FreePoly(new_vars, out)

    def format(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for t, c in self.sorted_terms():
            mono = tree_format(t)
            mag = abs(c)
            body = mono if mag == 1 else f"{mag}*{mono if isinstance(t, str) else '(' + mono + ')'}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(parts)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FreePoly) and self.variables == other.variables
                and self.terms == other.terms)

    def __repr__(self) -> str:
        return f"FreePoly({self.format()!r})"


def assoc(p: FreePoly, q: FreePoly, r: FreePoly) -> FreePoly:
    """Associator (p, q, r) = p*(q*r) - (p*q)*r."""
    return p * (q * r) - (p * q) * r


def comm(p: FreePoly, q: FreePoly) -> FreePoly:
    return p * q - q * p


def jord(p: FreePoly, q: FreePoly) -> FreePoly:
    return p * q + q * p


_SHORTHANDS = {"assoc": (assoc, 3), "comm": (comm, 2), "jord": (jord, 2)}


class _Parser:
    """Recursive-descent parser for the identity expression grammar.

    Products are nonassociative, so any chain of three or more algebra factors
    must be explicitly parenthesized; scalar factors may appear anywhere.
    """

    def __init__(self, text: str, variables: Sequence[str]):
        self.text = text
        self.pos = 0
        self.variables = tuple(variables)

    def error(self, msg, cls=ParseError):
        raise cls(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> FreePoly:
        poly = self.expr()
        if self.peek():
            self.error(f"unexpected {self.peek()!r}")
        return poly

    def expr(self) -> FreePoly:
        neg = False
        if self.peek() == "-":
            self.eat("-")
            neg = True
        elif self.peek() == "+":
            self.eat("+")
        poly = self.term()
        if neg:
            poly = -poly
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.eat(op)
            rhs = self.term()
            poly = poly + rhs if op == "+" else poly - rhs
        return poly

    def term(self) -> FreePoly:
        factors = [self.factor()]
        star_positions = []
        while self.peek() == "*":
            star_positions.append(self.pos)
            self.eat("*")
            factors.append(self.factor())
        scalar = Fraction(1)
        polys = []
        for f in factors:
            if isinstance(f, Fraction):
                scalar *= f
            else:
                polys.append(f)
        if not polys:
            if scalar == 0:
                return FreePoly(self.variables)
            self.error("constant term without a monomial")
        if len(polys) > 2:
            self.pos = star_positions[-1]
            self.error("unparenthesized chain of 3 or more factors",
                       AmbiguousProductError)
        out = polys[0] if len(polys) == 1 else polys[0] * polys[1]
        return out.scale(scalar)

    def factor(self):
        ch = self.peek()
        if ch == "-":
            self.eat("-")
            f = self.factor()
            return -f if isinstance(f, Fraction) else f.scale(-1)
        if ch == "(":
            self.eat("(")
            poly = self.expr()
            self.eat(")")
            return poly
        if ch.isdecimal():
            return self.number()
        if ch.isalpha() or ch == "_":
            return self.name()
        self.error(f"unexpected {ch!r}" if ch else "unexpected end of input")

    def number(self) -> Fraction:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        num = int(self.text[start:self.pos])
        save = self.pos
        if self.peek() == "/":
            self.eat("/")
            if self.peek().isdecimal():
                dstart = self.pos
                while self.pos < len(self.text) and self.text[self.pos].isdecimal():
                    self.pos += 1
                den = int(self.text[dstart:self.pos])
                if not den:
                    self.pos = dstart
                    self.error("zero denominator")
                return Fraction(num, den)
            self.pos = save
        return Fraction(num)

    def name(self) -> FreePoly:
        self.skip_ws()
        start = self.pos
        while (self.pos < len(self.text)
               and (self.text[self.pos].isalnum() or self.text[self.pos] == "_")):
            self.pos += 1
        word = self.text[start:self.pos]
        if word in _SHORTHANDS:
            fn, arity = _SHORTHANDS[word]
            self.eat("(")
            args = [self.expr()]
            while self.peek() == ",":
                self.eat(",")
                args.append(self.expr())
            self.eat(")")
            if len(args) != arity:
                self.pos = start
                self.error(f"{word} takes {arity} arguments, got {len(args)}")
            return fn(*args)
        if word not in self.variables:
            self.pos = start
            self.error(f"unknown variable {word!r}", UnknownVariableError)
        return FreePoly.var(word, self.variables)


def parse(text: str, variables: Sequence[str]) -> FreePoly:
    """Parse an identity expression into canonical FreePoly form."""
    # every declared name must be one that `_Parser.factor` and `name` read
    if bad := [v for v in variables if v in _SHORTHANDS
               or not (v[:1].isalpha() or v[:1] == "_")
               or not all(ch.isalnum() or ch == "_" for ch in v)]:
        raise ValueError(f"variable names {bad} are not names the grammar reads")
    parser = _Parser(text, variables)
    try:
        return parser.parse()
    except RecursionError:  # nested too deep for the recursive descent
        raise ParseError("expression nested too deeply", parser.pos) from None


def _commutative_trees(leaves: tuple) -> list[Tree]:
    """Every `canonical_commutative` tree with each of `leaves` once.

    The first leaf's factor takes each subset of the other leaves that
    leaves the other factor nonempty, so each split into two factors is met
    once; children come out canonical, so ordering them by `tree_key` makes
    the pair canonical.
    """
    if len(leaves) == 1:
        return [leaves[0]]
    first, rest = leaves[0], leaves[1:]
    out = []
    for k in range(len(rest)):
        for mine in itertools.combinations(rest, k):
            other = tuple(v for v in rest if v not in mine)
            for l in _commutative_trees((first,) + mine):
                for r in _commutative_trees(other):
                    out.append((l, r) if tree_key(l) <= tree_key(r) else (r, l))
    return out


class CommutativeBasis:
    """The multilinear degree-n monomials in t1..tn modulo commutativity,
    with the action of S_n on their columns; one per (n, order), from
    `commutative_basis`, and every field a tuple.

    `monomials` holds one `canonical_commutative` representative per orbit
    under swapping product factors, (2n-3)!! of them, sorted by `tree_key`;
    ``order="balanced_first"`` (n = 4 only) lists the three balanced
    products (t1t2)(t3t4), (t1t3)(t2t4), (t1t4)(t2t3) and then the twelve
    left-combed ((ti tj) tk) tl in lexicographic order, the column
    convention of the degree-4 identity-space reports.  `swaps[k]` maps each
    column to the column of its monomial under t_k+1 <-> t_k+2, and `laws`
    pairs each multilinear degree-n catalog law with its `mu_vector`.
    """

    __slots__ = ("monomials", "swaps", "laws", "_maps")

    def __init__(self, n: int, order: str):
        if not 1 <= n <= 6:
            raise DegreeOutOfRangeError(f"degree must be in 1..6, got {n}")
        names = [f"t{i}" for i in range(1, n + 1)]
        if order == "balanced_first" and n != 4:
            raise ValueError("balanced_first ordering is defined for degree 4")
        if order not in ("canonical", "balanced_first"):
            raise ValueError(f"unknown ordering {order!r}")
        self.monomials = monomials = BALANCED_FIRST_DEG4 if order == "balanced_first" \
            else tuple(sorted(_commutative_trees(tuple(names)), key=tree_key))
        column = {canonical_commutative(m): c for c, m in enumerate(monomials)}
        self.swaps = tuple(
            tuple(column[canonical_commutative(rename_tree(m, {a: b, b: a}))]
                  for m in monomials) for a, b in zip(names, names[1:]))
        self.laws = tuple((e.name, tuple(mu_vector(e.poly, monomials)))
                          for e in catalog() if e.degree == n == len(e.variables)
                          and e.poly.is_multilinear())
        self._maps = {tuple(range(n)): range(len(monomials))}

    def colmap(self, pos: tuple) -> Sequence[int]:
        """The column map of the permutation pos, composed from `swaps` and
        kept: column c of the row at x_i = r_pos(i) is column colmap(pos)[c]
        of the row at r, for a symmetric product."""
        if (got := self._maps.get(pos)) is None:  # undo the first adjacent inversion
            k = next(k for k in range(len(pos) - 1) if pos[k] > pos[k + 1])
            prev = self.colmap(pos[:k] + (pos[k + 1], pos[k]) + pos[k + 2:])
            got = self._maps[pos] = tuple([prev[c] for c in self.swaps[k]])
        return got


def commutative_basis(n: int, order: str = "canonical") -> CommutativeBasis:
    """The one `CommutativeBasis` of degree n in the given order."""
    return _commutative_basis(n, order)  # one cache key however it is called


_commutative_basis = functools.lru_cache(maxsize=None)(CommutativeBasis)


def multilinear_monomials(n: int, order: str = "canonical") -> list[Tree]:
    """A fresh list of `commutative_basis(n, order).monomials`."""
    return list(commutative_basis(n, order).monomials)


_T4 = ("t1", "t2", "t3", "t4")
BALANCED_FIRST_DEG4: tuple[Tree, ...] = tuple(
    [(("t1", b), tuple(v for v in _T4[1:] if v != b)) for b in _T4[1:]]
    + [(((i, j), k), l) for i, j in itertools.combinations(_T4, 2)
       for k, l in itertools.permutations([v for v in _T4 if v not in (i, j)])])


def mu_vector(poly: FreePoly, monomials: Sequence[Tree]) -> list[Fraction]:
    """Coefficient vector of a multilinear poly on a commutative monomial basis.

    Variables are renamed positionally to t1..tn first, then every monomial is
    matched through its commutative canonical form.
    """
    renamed = poly.rename_variables(
        {v: f"t{i + 1}" for i, v in enumerate(poly.variables)})
    index = {canonical_commutative(m): i for i, m in enumerate(monomials)}
    vec = [Fraction(0)] * len(monomials)
    for t, c in renamed.terms.items():
        key = canonical_commutative(t)
        if key not in index:
            raise ValueError(f"monomial {tree_format(t)} outside the basis")
        vec[index[key]] += c
    return vec


def symmetry_blocks(poly: FreePoly, commutative: bool = False) -> list[tuple]:
    """Blocks of variable positions whose values may be permuted freely.

    Positions i and j share a block when swapping their variables maps poly
    to plus or minus itself, with terms compared in `canonical_commutative`
    form when `commutative`.  Such transpositions lie in a group, which is
    closed under conjugation: (i j) and (j k) give (i k).  So sharing a block
    is an equivalence, and each block's full symmetric group maps poly to
    plus or minus itself.  Blocks are sorted, singletons included.
    """
    norm = canonical_commutative if commutative else (lambda t: t)
    form: dict = {}
    for t, c in poly.terms.items():
        form[norm(t)] = form.get(norm(t), 0) + c

    def signed_fixed(a: str, b: str) -> bool:
        swap = {a: b, b: a}
        image = {t: norm(rename_tree(t, swap)) for t, c in form.items() if c}
        return any(all(form.get(image[t]) == sign * form[t] for t in image)
                   for sign in (1, -1))

    names = poly.variables
    leader = list(range(len(names)))  # the least position of each block
    for i, j in itertools.combinations(range(len(names)), 2):
        if leader[j] == j and signed_fixed(names[i], names[j]):
            leader[j] = leader[i]
    blocks: dict = {}
    for pos, lead in enumerate(leader):
        blocks.setdefault(lead, []).append(pos)
    return [tuple(b) for b in blocks.values()]


def multidegree_components(poly: FreePoly) -> dict[tuple, dict[Tree, Fraction]]:
    """poly's terms grouped by multidegree, the count of each variable's leaves."""
    groups: dict[tuple, dict[Tree, Fraction]] = {}
    for t, c in poly.terms.items():
        groups.setdefault(tuple(map(tree_leaves(t).count, poly.variables)), {})[t] = c
    return groups


def polarize(poly: FreePoly) -> list[FreePoly]:
    """Full multilinearization, one output per multihomogeneous component.

    Each variable of degree d in a component is expanded into d fresh names,
    and each monomial becomes the sum of its injective namings: every leaf
    takes a fresh name of its variable, no name twice.  Over char 0 (or char
    > degree) the input is an identity iff all outputs are.  Multilinear
    input is returned unchanged.  The namings are counted first, a monomial
    of variable degrees d_v taking prod d_v! of them, and more than
    POLARIZE_BOUND in all raise PolarizationTooLargeError.
    """
    if poly.is_multilinear():
        return [poly]
    groups = multidegree_components(poly)
    count = sum(len(terms) * math.prod(map(math.factorial, sig))
                for sig, terms in groups.items())
    if count > POLARIZE_BOUND:
        raise PolarizationTooLargeError(
            f"polarizing the law expands {count} namings of its monomials, "
            f"more than {POLARIZE_BOUND}")
    out = []
    for sig in sorted(groups):
        ends = list(itertools.accumulate(sig, initial=0))
        fresh = [[f"t{i + 1}" for i in range(a, b)]  # v's fresh names
                 for a, b in zip(ends, ends[1:])]
        terms: dict[Tree, Fraction] = {}
        for t, c in groups[sig].items():
            for order in itertools.product(*map(itertools.permutations, fresh)):
                named = relabel_leaves(t, dict(zip(poly.variables, map(iter, order))))
                terms[named] = terms.get(named, 0) + c
        part = FreePoly([f"t{i + 1}" for i in range(ends[-1])], terms)
        if not part.is_zero():
            out.append(part)
    return out


@dataclass(frozen=True)
class CatalogEntry:
    """A named identity: polynomial, declared variables, applicability notes."""
    name: str
    variables: tuple[str, ...]
    poly: FreePoly
    notes: str = ""
    excluded_chars: frozenset = _dc_field(default_factory=frozenset)

    @property
    def degree(self) -> int:
        return self.poly.degree()


_CATALOG_SPEC = [
    # name, variables, expression, notes, excluded characteristics
    ("tortken", "a b c d",
     "(a*b)*(c*d) - (a*d)*(c*b) - assoc(a,b,c)*d + assoc(a,d,c)*b",
     "degree-4 law of Novikov-Jordan products", ()),
    ("tortken_left", "a b c d",
     "(a*b)*(c*d) - (c*b)*(a*d) + a*assoc(b,c,d) - c*assoc(b,a,d)",
     "mirror law; holds for opposites of tortken algebras", ()),
    ("tortken_prime", "a b c d",
     "(a*c)*(b*d) + (a*d)*(b*c) + ((a*c)*d)*b + ((a*d)*b)*c"
     " + ((b*c)*a)*d + ((b*d)*c)*a",
     "extra degree-4 law of the 3-dimensional char-3 derivation Jordan product",
     ()),
    ("right_symmetric", "a b c", "assoc(a,b,c) - assoc(a,c,b)", "", ()),
    ("left_commutative", "a b c", "a*(b*c) - b*(a*c)", "", ()),
    ("right_commutative", "a b c", "(a*b)*c - (a*c)*b", "", ()),
    ("leibniz_dual_left", "a b c", "(a*b)*c - a*(b*c) - a*(c*b)", "", ()),
    ("leibniz_left", "a b c", "(a*b)*c - a*(b*c) + b*(a*c)", "", ()),
    ("leibniz_right", "a b c", "a*(b*c) - (a*b)*c + (a*c)*b",
     "holds for any Lie bracket", ()),
    ("commutativity", "a b", "a*b - b*a", "", ()),
    ("anticommutativity", "a b", "a*b + b*a", "", ()),
    ("associativity", "a b c", "assoc(a,b,c)", "", ()),
    ("jacobi", "a b c", "(a*b)*c + (b*c)*a + (c*a)*b",
     "stated for anticommutative products", ()),
    ("assoc_jordan_deg4", "a b c d",
     "(a*b)*(c*d) + (a*c)*(d*b) + (a*d)*(b*c)"
     " - ((b*c)*a)*d - ((c*d)*a)*b - ((d*b)*a)*c",
     "degree-4 law of commutative products of associative algebras", ()),
    ("gametic_jordan", "x y", "((x*x)*y)*x - (x*x)*(y*x)",
     "non-multilinear; checked through its coordinate expansion", ()),
    ("right_unit_law", "a b c", "a*(b*c) + a*(c*b) - 2*((a*b)*c)",
     "consequence of tortken in the presence of a right unit", ()),
    ("alt_right_mult", "x a b c",
     "((x*a)*b)*c + ((x*b)*c)*a + ((x*c)*a)*b"
     " - ((x*a)*c)*b - ((x*b)*a)*c - ((x*c)*b)*a",
     "alternating sum of composed right multiplications", ()),
    ("cyclic_assoc_middle", "a b c x",
     "assoc(a, b*x, c) + assoc(b, c*x, a) + assoc(c, a*x, b)",
     "cyclic associator law for commutative tortken algebras", ()),
    ("cyclic_assoc_outer", "a b c x",
     "assoc(a,x,b)*c + assoc(b,x,c)*a + assoc(c,x,a)*b",
     "cyclic associator law for commutative tortken algebras", ()),
    ("cyclic_assoc_nested", "a b c x y",
     "assoc(a, assoc(b,x,c), y) + assoc(b, assoc(c,x,a), y)"
     " + assoc(c, assoc(a,x,b), y)"
     " - assoc(a, assoc(b,y,c), x) - assoc(b, assoc(c,y,a), x)"
     " - assoc(c, assoc(a,y,b), x)",
     "degree-5 nested-associator law", (3,)),
    ("deg5_i", "a b c x y",
     "assoc(a,y,b)*(x*c) + assoc(b,y,c)*(x*a) + assoc(c,y,a)*(x*b)"
     " - (a*y)*assoc(b,x,c) - (b*y)*assoc(c,x,a) - (c*y)*assoc(a,x,b)",
     "degree-5 law of commutative tortken algebras", ()),
    ("deg5_ii", "a b c x y",
     "((x*a)*(y*b))*c - ((x*b)*(y*a))*c + ((x*b)*(y*c))*a"
     " - ((x*c)*(y*b))*a + ((x*c)*(y*a))*b - ((x*a)*(y*c))*b",
     "degree-5 law of commutative tortken algebras", (3,)),
    ("deg5_iii", "a b c x y",
     "assoc(x, y*a, b)*c + assoc(x, y*b, c)*a + assoc(x, y*c, a)*b"
     " - assoc(x, y*b, a)*c - assoc(x, y*c, b)*a - assoc(x, y*a, c)*b",
     "degree-5 law of commutative tortken algebras", ()),
    ("deg5_iv", "a b c x y",
     "(((x*a)*b)*c)*y + (((x*b)*c)*a)*y + (((x*c)*a)*b)*y"
     " - (((x*b)*a)*c)*y - (((x*c)*b)*a)*y - (((x*a)*c)*b)*y",
     "degree-5 law of commutative tortken algebras", ()),
    ("sokolov", "a b c d",
     "assoc(a*b,c,d) - assoc(a*b,d,c)"
     " - a*(assoc(b,c,d) - assoc(b,d,c)) - (assoc(a,c,d) - assoc(a,d,c))*b",
     "associator-deviation derivation law; fails on tortken examples", ()),
    ("deg4_basis_1", "t1 t2 t3 t4",
     "-(((t1*t2)*t3)*t4) - ((t1*t3)*t4)*t2 - ((t1*t4)*t2)*t3"
     " + ((t1*t2)*t4)*t3 + ((t1*t3)*t2)*t4 + ((t1*t4)*t3)*t2",
     "basis of the degree-4 identity space: -alt_right_mult", ()),
    ("deg4_basis_2", "t1 t2 t3 t4",
     "(t1*t3)*(t2*t4) - (t1*t4)*(t2*t3) - assoc(t1,t3,t2)*t4 + assoc(t1,t4,t2)*t3",
     "basis of the degree-4 identity space: tortken in t1,t3,t2,t4", ()),
    ("deg4_basis_3", "t1 t2 t3 t4",
     "(t1*t3)*(t2*t4) - (t1*t4)*(t2*t3) - ((t1*t2)*t3)*t4 + ((t1*t2)*t4)*t3"
     " + ((t1*t3)*t2)*t4 - ((t1*t4)*t2)*t3 - ((t2*t3)*t4)*t1 + ((t2*t4)*t3)*t1",
     "basis of the degree-4 identity space", ()),
    ("deg4_basis_4", "t1 t2 t3 t4",
     "(t1*t2)*(t3*t4) - (t1*t4)*(t2*t3) + ((t1*t2)*t4)*t3 + ((t1*t3)*t2)*t4"
     " - ((t1*t3)*t4)*t2 - ((t1*t4)*t2)*t3 - ((t2*t3)*t1)*t4 + ((t3*t4)*t1)*t2",
     "basis of the degree-4 identity space", ()),
    ("deg4_basis_5", "t1 t2 t3 t4",
     "(t1*t2)*(t3*t4) - (t1*t4)*(t2*t3) + ((t1*t2)*t4)*t3 - ((t1*t4)*t2)*t3"
     " - ((t2*t3)*t4)*t1 + ((t3*t4)*t2)*t1",
     "basis of the degree-4 identity space", ()),
]


@functools.lru_cache(maxsize=None)
def _catalog() -> tuple[CatalogEntry, ...]:
    entries = tuple(CatalogEntry(name, tuple(vars_.split()),
                                 parse(expr, vars_.split()), notes, frozenset(bad))
                    for name, vars_, expr, notes, bad in _CATALOG_SPEC)
    if len({e.name for e in entries}) != len(entries):
        raise ValueError("catalog identity names repeat")
    return entries


def catalog() -> list[CatalogEntry]:
    """The named identity catalog, fully expanded to monomial form."""
    return list(_catalog())


def catalog_entry(name: str) -> CatalogEntry:
    for e in catalog():
        if e.name == name:
            return e
    raise KeyError(f"no catalog identity named {name!r}")
