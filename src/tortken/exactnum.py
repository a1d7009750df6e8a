"""Exact scalars over Q and F_p, combinatorial coefficients, exact linear algebra.

No floating point anywhere: rationals are arbitrary-precision `fractions.Fraction`
(always in lowest terms with positive denominator), prime-field residues are plain
ints kept reduced in [0, p); `Field.coerce` takes exact rationals only.  Matrices
are dense and row-major.  `Echelon`, an incremental reduced row echelon basis, is
the one elimination kernel: `Matrix` RREF, rank, nullspace, solve and determinant,
the spans of `idealtool.Subspace` and identity spaces all run through it.  Over Q
it keeps each row as int numerators over one positive int denominator and builds
`Fraction`s only for the values it returns; over F_p it adds pivot rows packed
into one int of fixed-width slots.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator
import re
import struct
from fractions import Fraction
from typing import Sequence


class NotSquareError(ValueError):
    """Determinant requested for a non-square matrix."""


class OutOfRangeError(ValueError):
    """Argument outside the documented domain of a map or a table builder."""


class NotDivisibleError(ArithmeticError):
    """An exact division that the theory guarantees left a remainder."""


# Miller-Rabin with these bases is exact below the bound: no composite there
# passes all of them (Sorenson & Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality: Miller-Rabin to the bases `_MR_BASES` below
    `_MR_BOUND`; OutOfRangeError above it unless a base divides n."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_BOUND:
        raise OutOfRangeError(f"primality is decided only below {_MR_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_SCALAR = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class Field:
    """Ground field: the rationals (char 0) or the prime field F_p (char p).

    Scalar values are raw: `Fraction` over the rationals, `int` in [0, p) over F_p.
    All methods keep values canonical.
    """

    __slots__ = ("char",)

    def __init__(self, char: int = 0):
        if char != 0 and not is_prime(char):
            raise ValueError(f"field characteristic must be 0 or prime, got {char}")
        self.char = char

    @classmethod
    def rationals(cls) -> "Field":
        return cls(0)

    @classmethod
    def prime(cls, p: int) -> "Field":
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return cls(p)

    @property
    def zero(self):
        return Fraction(0) if self.char == 0 else 0

    @property
    def one(self):
        return Fraction(1) if self.char == 0 else 1

    def coerce(self, x):
        """Coerce an int, a `Fraction` or other `numbers.Rational`, or an
        "a/b" string (the `fmt` form, no spaces, no decimals; another string
        raises ValueError) into a canonical scalar; an integer type with
        `__index__` counts as its plain int.  Anything else, a float or a
        `Decimal` included, raises TypeError naming its type, as no value is
        rounded and no foreign type enters the kernel."""
        if type(x) is (int if self.char else Fraction):  # the common case
            return x % self.char if self.char else x
        if isinstance(x, str):
            if not _SCALAR.fullmatch(x):
                raise ValueError(f"bad scalar {x!r}: need an int or an 'a/b' string")
            x = Fraction(x)
        elif not isinstance(x, (int, Fraction)):
            if isinstance(x, numbers.Rational):
                x = Fraction(operator.index(x.numerator),
                             operator.index(x.denominator))
            elif hasattr(type(x), "__index__"):
                x = operator.index(x)
            else:
                kind = ("floating point" if isinstance(x, (float, complex))
                        else f"a {type(x).__name__}")
                raise TypeError(f"{x!r} is {kind}; use an int, a Fraction "
                                f"or an 'a/b' string")
        if self.char == 0:
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.char == 0:
                raise ZeroDivisionError(
                    f"denominator {x.denominator} not invertible mod {self.char}")
            return x.numerator * pow(x.denominator, -1, self.char) % self.char
        return int(x) % self.char

    def canonical(self, sums: dict) -> dict:
        """The sparse element of raw int (over Q also `Fraction`) sums: each
        value reduced into [0, p) over F_p, a `Fraction` over Q, and the
        zeros dropped.  A loop, not a comprehension: it runs on every product
        of the sweeps, mostly on one to three entries."""
        if not (p := self.char):
            return {k: v if type(v) is Fraction else Fraction(v)
                    for k, v in sums.items() if v}
        out = {}
        for k, v in sums.items():
            if v := v % p:
                out[k] = v
        return out

    def add(self, a, b):
        return a + b if self.char == 0 else (a + b) % self.char

    def sub(self, a, b):
        return a - b if self.char == 0 else (a - b) % self.char

    def mul(self, a, b):
        return a * b if self.char == 0 else (a * b) % self.char

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        return 1 / a if self.char == 0 else pow(a, -1, self.char)

    def is_zero(self, a) -> bool:
        return a == 0

    def fmt(self, a) -> str:
        return str(a)

    def parse(self, text):
        """A scalar from an int or an "a/b" string, the forms `fmt` writes;
        anything else, a zero denominator included, raises ValueError."""
        if type(text) is not int and not isinstance(text, str):
            raise ValueError(f"bad scalar {text!r}: need an int or an 'a/b' string")
        try:
            return self.coerce(text)
        except ZeroDivisionError as exc:
            raise ValueError(f"bad scalar {text!r}: {exc}") from exc

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self) -> int:
        return hash(("Field", self.char))

    def __repr__(self) -> str:
        return "Q" if self.char == 0 else f"F{self.char}"


def combine(field, pairs) -> dict:
    """The sum of c * e over the (scalar, sparse element) pairs, made
    canonical by `field.canonical`: every linear combination of sparse
    elements.  Each c is an int or a scalar of the field, as no coercion
    runs on the sweeps' hot path; only `canonical` is read, so the int
    scalars of D*A (`identcheck._Integers`) serve as a field too."""
    acc: dict = {}
    for c, e in pairs:
        for k, v in e.items():
            acc[k] = acc.get(k, 0) + c * v
    return field.canonical(acc)


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient; 0 outside 0 <= k <= n."""
    if n < 0:
        raise OutOfRangeError("binomial needs n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def lucas_binomial(n: int, k: int, p: int) -> int:
    """C(n, k) mod p by Lucas' theorem: product of base-p digit binomials."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 0 or k > n:
        return 0
    out = 1
    while n or k:
        out = out * binomial(n % p, k % p) % p
        if out == 0:
            return 0
        n //= p
        k //= p
    return out


def binom_p_quotient(p: int, m: int, i: int) -> int:
    """(C(p^m, i) / p) mod p for 0 < i < p^m.

    C(p^m, i) is divisible by p exactly m - v_p(i) >= 1 times (carries in base-p
    addition of i and p^m - i), so the quotient is an integer; a remainder raises
    NotDivisibleError.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise OutOfRangeError("need m >= 1")
    if not 0 < i < p**m:
        raise OutOfRangeError(f"need 0 < i < {p**m}, got {i}")
    c = math.comb(p**m, i)
    q, r = divmod(c, p)
    if r:
        raise NotDivisibleError(f"C({p}^{m}, {i}) is not divisible by {p}")
    return q % p


@functools.lru_cache(maxsize=256)
def _packing(p: int, cols: int) -> tuple:
    """(w, B, struct) of the packed F_p rows of `Echelon` (see there): w the
    bytes of a slot, B the hits an accumulator takes before it is unpacked,
    and the `struct.Struct` of all slots when w <= 8, else None; all None
    over Q."""
    if not p:
        return None, None, None
    most = (p - 1) ** 2  # the largest term a hit adds to a slot
    w = 1
    while 8 * w < (most * cols).bit_length():
        w *= 2
    code = {1: "B", 2: "H", 4: "I", 8: "Q"}.get(w)
    return (w, (256 ** w - 1) // most,
            struct.Struct(f"<{cols}{code}") if code else None)


class Echelon:
    """An incremental reduced row echelon basis of a row space in F^cols.

    An RREF row is 1 in its pivot column and 0 in every other pivot column,
    so only its entries on the free (non-pivot) columns are stored, in a map
    from pivot column to that free part.  `insert` reduces a new vector
    against the stored rows; a nonzero residue is normalised, cleared from
    the stored rows in its pivot column, and stored.  The RREF of a row space
    is unique, so `rows` does not depend on the insertion order.  Over F_p a
    free part is a list of plain ints in [0, p).  Over Q it is a pair
    (numerators, denominator) of ints in lowest terms with a positive
    denominator, so that the inner loops never reduce a fraction; `Fraction`s
    are built only where values leave the kernel.

    Over F_p a residue adds whole pivot rows packed into one int each, built
    the first time a residue meets the row.  The packed row has one slot of
    W = 8w bits per column, slot j in bits jW to (j+1)W - 1: the row's entry
    in column j, which is its free-part entry on a free column and 0 on every
    pivot column, its own included.  Slots go by column, not by free
    position, so a `_store` that does not rewrite a row (the row is 0 in the
    new pivot column) leaves its packed int valid; a store that rewrites the
    row drops it.  A pivot hit with x in [1, p) adds (p - x) * row, which is
    -x * row mod p, so each hit adds to every slot a term in [0, (p-1)^2]:
    nothing borrows, and after at most B = (2^W - 1) // (p-1)^2 hits every
    slot sum is at most 2^W - 1, so nothing carries into the next slot.
    `_residue` unpacks the accumulator into its list of free entries when
    the hits reach B and once at the end, then reduces each entry mod p.
    The width is a function of p and cols alone: w is the least power of two
    with 8w >= the bit length of cols * (p-1)^2, so B >= cols and a vector
    with distinct columns unpacks once (p = 5, 105 columns: 2-byte slots;
    p = 2^61 - 1 and up to 64 columns: 16-byte slots, B = 64).
    """

    __slots__ = ("field", "cols", "_p", "_zero", "_free", "_free_pos",
                 "_pivots", "_packed", "_slot", "_budget", "_struct")

    def __init__(self, field: Field, cols: int):
        self.field = field
        self.cols = cols
        self._p = field.char
        self._zero = field.zero
        self._free = list(range(cols))               # non-pivot columns, ascending
        self._free_pos = {j: j for j in self._free}  # column -> index in _free
        self._pivots: dict = {}                      # pivot column -> free part
        self._packed: dict = {}  # pivot column -> packed row, over F_p, once used
        self._slot, self._budget, self._struct = _packing(self._p, cols)

    @property
    def dim(self) -> int:
        """The dimension of the span: the rank of any matrix of its rows."""
        return len(self._pivots)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self._pivots))

    @property
    def rows(self) -> tuple:
        """The RREF rows, ordered by pivot column."""
        p, one = self._p, self.field.one
        return tuple(tuple(self._dense([(c, one), *zip(
            self._free, fr if p else self._fractions(*fr))]))
            for c, fr in sorted(self._pivots.items()))

    @staticmethod
    def _fractions(nums: list, d: int) -> list:
        """Numerators over the denominator d as canonical `Fraction`s."""
        return [Fraction(a, d) for a in nums]

    def _dense(self, pairs) -> list:
        out = [self._zero] * self.cols
        for j, x in pairs:
            out[j] = x
        return out

    def sparse(self, vec: Sequence) -> list:
        """A dense vector of coercible scalars as (column, nonzero entry)
        pairs."""
        if len(vec) != self.cols:
            raise ValueError(f"vector of length {len(vec)} in a space of "
                             f"dimension {self.cols}")
        return [(j, x) for j, x in enumerate(map(self.field.coerce, vec)) if x]

    def _residue(self, v) -> list:
        """The residue of the sparse v on the free columns (it is 0 on every
        pivot column): ints in [0, p) over F_p, and over Q the numerators of
        `_residue_q`.  v is (column, entry) pairs; entries on a repeated
        column add up, and they may be any ints (or, over Q, `Fraction`s).
        Over F_p the pivot rows hit add up in one packed accumulator (see the
        class docstring), unpacked when the budget of hits is spent and at
        the end."""
        if not (p := self._p):
            return self._residue_q(v)[0]
        r = [0] * len(self._free)
        free_pos, packed, budget = self._free_pos, self._packed, self._budget
        acc = hits = 0
        for c, x in v:
            t = free_pos.get(c)
            if t is not None:
                r[t] += x
                continue
            x %= p
            if x:
                if (row := packed.get(c)) is None:
                    row = packed[c] = self._pack(self._pivots[c])
                acc += (p - x) * row  # -x * row, each slot term in [0, (p-1)^2]
                hits += 1
                if hits == budget:  # one more hit could carry out of a slot
                    s = self._slots(acc)
                    r = [a + s[j] for a, j in zip(r, self._free)]
                    acc = hits = 0
        if not acc:
            return [a % p for a in r]
        s = self._slots(acc)
        return [(a + s[j]) % p for a, j in zip(r, self._free)]

    def _pack(self, fr: list) -> int:
        """The free part fr of an F_p pivot row as one int: entry t in the
        slot of column `_free[t]`, zero in every other slot."""
        dense = self._dense(zip(self._free, fr))
        if self._struct:
            return int.from_bytes(self._struct.pack(*dense), "little")
        return int.from_bytes(b"".join(x.to_bytes(self._slot, "little")
                                       for x in dense), "little")

    def _slots(self, acc: int):
        """The slot values of a packed int, one per column."""
        w = self._slot
        b = acc.to_bytes(w * self.cols, "little")
        if self._struct:
            return self._struct.unpack(b)
        return [int.from_bytes(b[i:i + w], "little") for i in range(0, len(b), w)]

    def _residue_q(self, v) -> tuple[list, int]:
        """`_residue` over Q as int numerators over a positive int
        denominator, the lcm of the denominators met; not in lowest terms,
        as `_store` and `Fraction` both reduce."""
        free_pos, pivots = self._free_pos, self._pivots
        r, d = [0] * len(self._free), 1
        for c, x in v:
            a, b = x.numerator, x.denominator
            if not a:
                continue
            if (t := free_pos.get(c)) is None:
                fr, e = pivots[c]
                b *= e
            if d % b:
                s = b // math.gcd(d, b)
                d *= s
                r = [y * s for y in r]
            a *= d // b
            if t is None:
                r = [y - a * z for y, z in zip(r, fr)]
            else:
                r[t] += a
        return r, d

    def insert(self, v) -> list | None:
        """Extend the span by the sparse v (see `_residue`).  Returns the
        normalised residue that became a new row, as (column, entry) pairs of
        its nonzero entries, or None if v already lies in the span."""
        return self._store(self._residue(v))

    def _store(self, r: list) -> list | None:
        """`insert` for the residue numerators r of a vector, from
        `_residue`: the new row is r over its first nonzero entry."""
        k = next((t for t, x in enumerate(r) if x), None)
        if k is None:
            return None
        free, pivots, packed = self._free, self._pivots, self._packed
        if p := self._p:
            inv = pow(r[k], -1, p)
            r = [x * inv % p for x in r]
            residue = [(j, x) for j, x in zip(free, r) if x]
            for c, fr in pivots.items():
                x = fr[k]
                if x:
                    fr = [(a - x * b) % p for a, b in zip(fr, r)]
                    pivots[c] = fr
                    packed.pop(c, None)
                del fr[k]
            del r[k]
            pivots[free.pop(k)] = r
        else:
            g = math.gcd(*r)
            r = [x // g for x in r] if r[k] > 0 else [-x // g for x in r]
            e = r[k]  # the new row is r / e, in lowest terms, with e > 0
            residue = [(j, Fraction(x, e)) for j, x in zip(free, r) if x]
            for c, (fr, d) in pivots.items():
                x = fr[k]
                if x:  # fr / d - x / d * r / e, over d * e
                    fr = [a * e - x * b for a, b in zip(fr, r)]
                    g = math.gcd(d := d * e, *fr)
                    fr = [a // g for a in fr]
                    pivots[c] = fr, d // g
                del fr[k]
            del r[k]
            pivots[free.pop(k)] = r, e
        self._free_pos = {j: t for t, j in enumerate(free)}
        return residue

    def add(self, vec: Sequence) -> tuple | None:
        """`insert` for a dense vec: the new row's residue as a dense tuple,
        or None when vec already lies in the span."""
        residue = self.insert(self.sparse(vec))
        return None if residue is None else tuple(self._dense(residue))

    def reduce(self, vec: Sequence) -> list:
        """Residue of the dense vec after elimination against the RREF rows."""
        v = self.sparse(vec)
        r = self._residue(v) if self._p else self._fractions(*self._residue_q(v))
        return self._dense(zip(self._free, r))

    def nullspace(self) -> list[list]:
        """Canonical basis of the vectors orthogonal to every row: one per
        free column (set to one, the other free columns zero), by column."""
        p = self._p
        out = []
        for t, j in enumerate(self._free):
            v = [self._zero] * self.cols
            v[j] = self.field.one
            for c, fr in self._pivots.items():
                v[c] = -fr[t] % p if p else Fraction(-fr[0][t], fr[1])
            out.append(v)
        return out

    def annihilates(self, vec: Sequence) -> bool:
        """Whether M vec = 0 for the canonical dense vec and any matrix M
        whose rows span this space (checked on the RREF rows; over Q on
        d * row, for its numerators over the denominator d)."""
        p = self._p
        on_free = [vec[j] for j in self._free]
        for c, fr in self._pivots.items():
            fr, d = (fr, 1) if p else fr
            s = d * vec[c] + sum(a * b for a, b in zip(fr, on_free))
            if s % p if p else s:
                return False
        return True


class Matrix:
    """Dense matrix over one Field, row-major, entries stored raw."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data: Sequence[Sequence]):
        self.field = field
        self.data = [[field.coerce(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(r) != self.cols for r in self.data):
            raise ValueError("ragged rows")

    @classmethod
    def of_canonical(cls, field: Field, data: list[list]) -> "Matrix":
        """The matrix on `data`, nonempty equal-length rows of canonical
        scalars, adopted as they are: no coerce and no copy."""
        m = cls.__new__(cls)
        m.field, m.data, m.rows, m.cols = field, data, len(data), len(data[0])
        return m

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, [[0] * cols for _ in range(rows)])

    def mul_vec(self, v: Sequence) -> list:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        vv = [self.field.coerce(x) for x in v]
        return [self.field.coerce(sum(a * b for a, b in zip(row, vv)))
                for row in self.data]

    def _echelon(self) -> Echelon:
        ech = Echelon(self.field, self.cols)
        for row in self.data:
            ech.insert(enumerate(row))
        return ech

    def rref(self) -> tuple["Matrix", int, tuple[int, ...]]:
        """Reduced row echelon form; returns (R, rank, pivot column indices).
        R holds the pivot rows in pivot-column order, then the zero rows."""
        ech = self._echelon()
        zero_rows = [[self.field.zero] * self.cols] * (self.rows - ech.dim)
        return Matrix(self.field, ech.rows + tuple(zero_rows)), ech.dim, ech.pivots

    def rank(self) -> int:
        return self._echelon().dim

    def nullspace(self) -> list[list]:
        """Canonical basis of the right kernel (see `Echelon.nullspace`)."""
        return self._echelon().nullspace()

    def det(self):
        """Exact determinant.  The rows go into one `Echelon` in order; a row
        whose residue is zero makes it 0.  Subtracting earlier rows from a
        later one keeps the determinant, and the residues form a triangular
        matrix once the columns are put in pivot order, so the determinant is
        the product of the residues' pivot entries, each negated when its
        pivot is at an odd position among the free columns."""
        if self.rows != self.cols:
            raise NotSquareError(f"{self.rows}x{self.cols}")
        f, q = self.field, not self.field.char
        ech = Echelon(f, self.cols)
        d = f.one
        for row in self.data:
            r, e = (ech._residue_q(enumerate(row)) if q
                    else (ech._residue(enumerate(row)), 1))
            k = next((t for t, x in enumerate(r) if x), None)
            if k is None:
                return f.zero
            x = Fraction(r[k], e) if q else r[k]
            d = f.mul(d, f.neg(x) if k % 2 else x)
            ech._store(r)
        return d

    def solve(self, rhs: Sequence):
        """One exact solution of M x = rhs (free variables zero), or None."""
        if len(rhs) != self.rows:
            raise ValueError("dimension mismatch")
        ech = Echelon(self.field, self.cols + 1)
        for row, b in zip(self.data, rhs):
            ech.add(row + [b])
        if self.cols in ech.pivots:
            return None
        x = [self.field.zero] * self.cols
        for pc, row in zip(ech.pivots, ech.rows):
            x[pc] = row[self.cols]
        return x

    def to_json(self) -> str:
        return json.dumps([[self.field.fmt(x) for x in row] for row in self.data])

    @classmethod
    def from_json(cls, field: Field, text: str) -> "Matrix":
        return cls(field, json.loads(text))

    def to_text(self) -> str:
        """The rows, each cell right-aligned to its column's widest; the
        widths come from a first pass, so no cell's string is kept."""
        fmt = self.field.fmt
        widths = [max(map(len, map(fmt, col))) for col in zip(*self.data)]
        return "\n".join(" ".join(fmt(x).rjust(w) for x, w in zip(row, widths))
                         for row in self.data)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.field == other.field
                and self.data == other.data)

    def __repr__(self) -> str:
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"
