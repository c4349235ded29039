"""Ring expressions: parsing, printing, and construction.

Grammar (whitespace allowed between tokens):

    spec    := term ("x" term)*
    term    := "Z/" nat
             | "Z/" prime "[x]/(" poly ")"
             | "GF(" nat ["^" nat] ")"
             | "SQZ(" prime "," nat ")"
             | "table:" path
    poly    := polyterm ("+" polyterm)*
    polyterm:= nat | nat? "x" ["^" nat]

`GF(q)` accepts a prime power directly (GF(4)) or the explicit form
GF(2^2); it desugars to a Z/p[x]/(f) quotient by the smallest monic
irreducible polynomial of the right degree under the base-p coefficient
encoding, so the choice is deterministic and reproducible.  `SQZ(p,k)`
is the local ring F_p (+) F_p^k with square-zero multiplication on the
vector part.  Paths for `table:` run to the next whitespace, so file
names with spaces are not expressible.

Elements of Z/p[x]/(f) and SQZ(p,k) are indexed by base-p digits, index =
sum(digit_i * p**i): digit i is the coefficient of x^i, and in SQZ(p,k)
digit k is the scalar part and digit k-i the i-th vector coordinate.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NoReturn, Sequence, Union

import numpy as np

from .errors import CapacityError, ParseError, TableFormatError
from .limits import DEFAULT_MAX_RING_SIZE
from .rings import RingTable, direct_product, validate_ring_axioms


@dataclass(frozen=True)
class ZnExpr:
    modulus: int


@dataclass(frozen=True)
class PolyQuotExpr:
    p: int
    coeffs: tuple[int, ...]  # ascending degree, monic


@dataclass(frozen=True)
class SqzExpr:
    p: int
    k: int


@dataclass(frozen=True)
class TableFileExpr:
    path: str


@dataclass(frozen=True)
class ProductExpr:
    factors: tuple["RingExpr", ...]


RingExpr = Union[ZnExpr, PolyQuotExpr, SqzExpr, TableFileExpr, ProductExpr]


def _prime_factors(n: int, limit: int | None = None) -> Iterator[tuple[int, int]]:
    """(p, e) for each prime p dividing n, p ascending, with p**e the exact power.

    Trial division, lazily: the first pair costs a search up to the
    smallest prime factor only.  Nothing is yielded for n < 2.  With a
    `limit`, the search stops past it and yields the undivided rest as
    (rest, 1): a prime, or a product of primes all over the limit.
    """
    p = 2
    while n > 1:
        if p * p > n or (limit is not None and p > limit):
            p = n
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            yield p, e
        p += 1


def _is_prime(n: int, limit: int | None = None) -> bool:
    """Whether n is prime; with a `limit`, whether no prime up to it divides n but n itself."""
    return next(_prime_factors(n, limit), None) == (n, 1)


# -- parsing ------------------------------------------------------------------


class _Parser:
    """Under a size cap, trial-divides no further than the cap and picks no polynomial
    for a field above it: the builders then reject such terms by their size."""

    def __init__(self, text: str, max_size: int | None = None):
        self.text = text
        self.pos = 0
        self.max_size = max_size

    def fail(self, message: str, pos: int | None = None) -> NoReturn:
        raise ParseError(message, self.pos if pos is None else pos, self.text)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def looking_at(self, literal: str) -> bool:
        return self.text.startswith(literal, self.pos)

    def eat(self, literal: str) -> bool:
        if self.looking_at(literal):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.eat(literal):
            self.fail(f"expected {literal!r}")

    def parse_nat(self, what: str = "number") -> tuple[int, int]:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail(f"expected {what}")
        try:
            return int(self.text[start : self.pos]), start
        except ValueError:  # over Python's limit on the digits of an int
            self.fail(f"{what} has too many digits", start)

    def parse_expression(self) -> RingExpr:
        self.skip_ws()
        factors = [self.parse_term()]
        while True:
            self.skip_ws()
            if self.eat("x"):
                self.skip_ws()
                factors.append(self.parse_term())
            else:
                break
        self.skip_ws()
        if not self.at_end():
            self.fail("unexpected trailing input")
        if len(factors) == 1:
            return factors[0]
        return ProductExpr(tuple(factors))

    def parse_term(self) -> RingExpr:
        start = self.pos
        if self.eat("Z/"):
            n, npos = self.parse_nat("modulus")
            if self.looking_at("["):
                if not _is_prime(n, self.max_size):
                    self.fail("polynomial quotient base must be prime", npos)
                self.expect("[x]/(")
                return self.parse_poly(n)
            if n < 2:
                self.fail("modulus must be at least 2", npos)
            return ZnExpr(n)
        if self.eat("GF("):
            q, qpos = self.parse_nat("field size")
            if self.eat("^"):
                k, kpos = self.parse_nat("exponent")
                if not _is_prime(q, self.max_size):
                    self.fail("field characteristic must be prime", qpos)
                if k < 1:
                    self.fail("field exponent must be at least 1", kpos)
                p = q
            else:
                if q < 2:
                    self.fail("field size must be at least 2", qpos)
                p, k = next(_prime_factors(q, self.max_size))
                if p**k != q:
                    self.fail("field size must be a prime power", qpos)
            self.expect(")")
            if k == 1:
                return ZnExpr(p)
            if _over_cap(p, k, self.max_size):
                # SQZ(p,k-1) has p**k elements too: building it raises the same size error
                return SqzExpr(p, k - 1)
            return PolyQuotExpr(p, minimal_irreducible(p, k))
        if self.eat("SQZ("):
            p, ppos = self.parse_nat("prime")
            if not _is_prime(p, self.max_size):
                self.fail("SQZ base must be prime", ppos)
            self.expect(",")
            k, kpos = self.parse_nat("vector dimension")
            if k < 1:
                self.fail("SQZ dimension must be at least 1", kpos)
            self.expect(")")
            return SqzExpr(p, k)
        if self.eat("table:"):
            pstart = self.pos
            while self.pos < len(self.text) and not self.text[self.pos].isspace():
                self.pos += 1
            path = self.text[pstart : self.pos]
            if not path:
                self.fail("expected a file path after table:", pstart)
            return TableFileExpr(path)
        self.fail("expected a ring term (Z/, GF(, SQZ(, or table:)", start)

    def parse_poly(self, p: int) -> PolyQuotExpr | SqzExpr:
        """f of Z/p[x]/(f) and its closing parenthesis, as the quotient's expression."""
        start = self.pos
        acc: dict[int, int] = {}
        while True:
            self.skip_ws()
            if self.text[self.pos : self.pos + 1].isdigit():
                c, _ = self.parse_nat("coefficient")
                if self.eat("x"):
                    deg = self.parse_exponent()
                else:
                    deg = 0
            elif self.eat("x"):
                c = 1
                deg = self.parse_exponent()
            else:
                self.fail("expected a polynomial term")
            acc[deg] = acc.get(deg, 0) + c
            self.skip_ws()
            if not self.eat("+"):
                break
        reduced = {d: c % p for d, c in acc.items() if c % p}
        degree = max(reduced, default=0)
        if degree < 1:
            self.fail("polynomial must have degree at least 1", start)
        if reduced[degree] != 1:
            self.fail("polynomial must be monic", start)
        self.expect(")")
        if degree > 1 and _over_cap(p, degree, self.max_size):
            return SqzExpr(p, degree - 1)  # as GF(p^k) does: no tuple as long as the degree
        return PolyQuotExpr(p, tuple(reduced.get(d, 0) for d in range(degree + 1)))

    def parse_exponent(self) -> int:
        if self.eat("^"):
            e, _ = self.parse_nat("exponent")
            return e
        return 1


def parse_expression(text: str) -> RingExpr:
    return _Parser(text).parse_expression()


def _terms_str(coeffs: Sequence[int], names: Sequence[str]) -> str:
    """c1v1+c2v2+... over paired coefficients and names: 0v dropped, 1v written v, "" a constant."""
    parts = [v if c == 1 and v else f"{c}{v}" for c, v in zip(coeffs, names) if c]
    return "+".join(parts) if parts else "0"


def _monomials(count: int) -> list[str]:
    """Names of x^(count-1), ..., x, 1 in that order, the constant as ""."""
    return ["" if d == 0 else "x" if d == 1 else f"x^{d}" for d in range(count - 1, -1, -1)]


def _poly_str(coeffs: Sequence[int]) -> str:
    return _terms_str(coeffs[::-1], _monomials(len(coeffs)))


def format_expression(expr: RingExpr) -> str:
    if isinstance(expr, ZnExpr):
        return f"Z/{expr.modulus}"
    if isinstance(expr, PolyQuotExpr):
        return f"Z/{expr.p}[x]/({_poly_str(expr.coeffs)})"
    if isinstance(expr, SqzExpr):
        return f"SQZ({expr.p},{expr.k})"
    if isinstance(expr, TableFileExpr):
        return f"table:{expr.path}"
    if isinstance(expr, ProductExpr):
        return " x ".join(format_expression(f) for f in expr.factors)
    raise TypeError(f"not a ring expression: {expr!r}")


# -- irreducible polynomials ----------------------------------------------------


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num by den over F_p; den monic."""
    num = num[:]
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    return [c % p for c in num[:dd]]


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    deg = len(coeffs) - 1
    if deg < 1:
        return False
    for r in range(p):
        if sum(c * pow(r, i, p) for i, c in enumerate(coeffs)) % p == 0:
            return False
    if deg < 4:
        return True
    num = list(coeffs)
    for d in range(2, deg // 2 + 1):
        for m in range(p**d):
            den, rest = [], m
            for _ in range(d):
                den.append(rest % p)
                rest //= p
            den.append(1)
            if not any(_poly_rem(num, den, p)):
                return False
    return True


@lru_cache(maxsize=None)
def minimal_irreducible(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible of degree k over F_p in base-p coefficient order."""
    if not _is_prime(p) or k < 1:
        raise ValueError("need a prime p and degree k >= 1")
    for m in range(p**k):
        low, rest = [], m
        for _ in range(k):
            low.append(rest % p)
            rest //= p
        coeffs = tuple(low) + (1,)
        if _is_irreducible(coeffs, p):
            return coeffs
    raise AssertionError("an irreducible polynomial of every degree exists")


# -- builders -------------------------------------------------------------------


def _over_cap(p: int, k: int, max_size: int | None) -> bool:
    """Whether p**k elements exceed the cap, if any, without forming a huge p**k."""
    return max_size is not None and p ** min(k, max_size.bit_length()) > max_size


def _check_size(p: int, k: int, max_size: int) -> None:
    """Raise CapacityError when p**k elements exceed the cap."""
    if _over_cap(p, k, max_size):
        size = p**k if k * math.log10(p) < 4300 else f"{p}^{k}"  # str() stops at 4,300 digits
        raise CapacityError(f"ring of size {size} exceeds the size cap ({max_size})")


def _zn_ring(n: int, max_size: int) -> RingTable:
    if n < 2:
        raise ValueError("modulus must be at least 2")
    _check_size(n, 1, max_size)
    def law(ufunc):  # modular at every size, in intp: a + b or a * b may overflow the inputs' type
        return lambda a, b: ufunc(a, b, dtype=np.intp) % n

    return RingTable(n, 1, law(np.add), law(np.multiply), name=f"Z/{n}", _ops=True)


def _digit_ring(p: int, d: int, one: int, mul, names: Sequence[str], name: str) -> RingTable:
    """The ring on d base-p digits, index sum(digit_i * p**i), added digitwise.

    `mul(digits)` gets the read-only digit table and returns the product of
    broadcast index arrays, as a new array of digits not yet reduced mod p,
    each at most d*(p-1)**2, in the digits' type: the smallest signed type that
    holds that bound, and so a digit of a sum.  `names`: the digits' label names, highest first.
    """
    n = p**d
    digits = np.empty((n, d), dtype=np.min_scalar_type(-1 - d * (p - 1) ** 2))
    idx = np.arange(n)
    for i in range(d):
        digits[:, i] = idx % p
        idx //= p
    digits.setflags(write=False)
    weights = p ** np.arange(d, dtype=np.int64)
    product = mul(digits)

    def multiply(a, b):
        digit_sums = product(a, b)
        digit_sums %= p  # in place, saving an allocation of the whole block
        return digit_sums @ weights

    ring = RingTable(n, one, lambda a, b: ((digits[a] + digits[b]) % p) @ weights, multiply, name=name)
    ring._make_labels = lambda: (_terms_str(row, names) for row in digits[:, ::-1].tolist())
    return ring


def _polyquot_ring(p: int, coeffs: tuple[int, ...], max_size: int) -> RingTable:
    deg = len(coeffs) - 1
    if deg < 1 or coeffs[deg] != 1:
        raise ValueError("polynomial must be monic of degree at least 1")
    _check_size(p, deg, max_size)
    if not _is_prime(p):
        raise ValueError("polynomial quotient base must be prime")

    # x^0 .. x^(2deg-2) mod f: x^(e+1) is x * x^e with x^deg folded into f's lower terms, negated.
    powers = [[int(i == e) for i in range(deg)] for e in range(deg)]
    for _ in range(deg - 1):
        top = powers[-1]
        powers.append([((top[i - 1] if i else 0) - top[-1] * coeffs[i]) % p for i in range(deg)])
    # by_x[i, j, k]: coefficient of x^k in x^(i+j) mod f.
    by_x = [[powers[i + j] for j in range(deg)] for i in range(deg)]

    def mul(digits):
        # times[a][j]: a * x^j, filled one digit position at a time, in n * deg^2 steps: for
        # r < p^i, times[c * p^i + r] = times[r] + c * by_x[i] (mod p).  A sum is at most
        # p * (p - 1), so it stays in the digits' type, and so does the product's contraction.
        by = np.array(by_x, digits.dtype)
        times = np.zeros((len(digits), deg, deg), digits.dtype)
        for i in range(deg):
            low = times[: p**i]
            for c in range(1, p):
                high = times[c * p**i : (c + 1) * p**i]
                np.add(low, c * by[i], out=high)
                high %= p
        return lambda a, b: (digits[b][..., None, :] @ times[a])[..., 0, :]

    return _digit_ring(p, deg, 1, mul, _monomials(deg), f"Z/{p}[x]/({_poly_str(coeffs)})")


_SQZ_VARS = ("x", "y", "z")


def _sqz_ring(p: int, k: int, max_size: int) -> RingTable:
    if k < 1:
        raise ValueError("SQZ dimension must be at least 1")
    _check_size(p, k + 1, max_size)
    if not _is_prime(p):
        raise ValueError("SQZ base must be prime")
    names = _SQZ_VARS[:k] if k <= len(_SQZ_VARS) else tuple(f"t{i+1}" for i in range(k))

    def mul(digits):
        # digit k is the scalar part; the vector part times the vector part is 0
        scalar, is_vector = digits[:, k:], np.arange(k + 1) < k
        return lambda a, b: scalar[a] * digits[b] + scalar[b] * (digits[a] * is_vector)

    return _digit_ring(p, k + 1, p**k, mul, ("", *names), f"SQZ({p},{k})")


def build_ring(expr: RingExpr, *, max_size: int = DEFAULT_MAX_RING_SIZE) -> RingTable:
    if isinstance(expr, ZnExpr):
        return _zn_ring(expr.modulus, max_size)
    if isinstance(expr, PolyQuotExpr):
        return _polyquot_ring(expr.p, expr.coeffs, max_size)
    if isinstance(expr, SqzExpr):
        return _sqz_ring(expr.p, expr.k, max_size)
    if isinstance(expr, TableFileExpr):
        ring = load_table_ring(expr.path)
        _check_size(ring.size, 1, max_size)
        return ring
    if isinstance(expr, ProductExpr):
        factors = [
            build_ring(f, max_size=max_size) if isinstance(f, (TableFileExpr, ProductExpr))
            else _base_factor(f, max_size)
            for f in expr.factors
        ]
        return direct_product(*factors, max_size=max_size)
    raise TypeError(f"not a ring expression: {expr!r}")


@lru_cache(maxsize=16)
def _base_factor(expr: RingExpr, max_size: int) -> RingTable:
    """A base factor of a product, built once per process and cap.  Only `direct_product` reads
    it, and only its size, identity, name, labels and laws, none of which changes; the product
    it makes is a fresh ring.  `build_ring` never keeps a table file, which may change."""
    return build_ring(expr, max_size=max_size)


def ring_from_text(text: str, *, max_size: int = DEFAULT_MAX_RING_SIZE) -> RingTable:
    return build_ring(_Parser(text, max_size).parse_expression(), max_size=max_size)


def expression_size(expr: RingExpr) -> int:
    """Element count of the ring an expression denotes, without building it.

    Table-file expressions read only the size field from the file.
    """
    if isinstance(expr, ZnExpr):
        return expr.modulus
    if isinstance(expr, PolyQuotExpr):
        return expr.p ** (len(expr.coeffs) - 1)
    if isinstance(expr, SqzExpr):
        return expr.p ** (expr.k + 1)
    if isinstance(expr, ProductExpr):
        return math.prod(expression_size(f) for f in expr.factors)
    if isinstance(expr, TableFileExpr):
        try:
            with open(expr.path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise TableFormatError(f"cannot read table file: {exc}") from exc
        size = data.get("size") if isinstance(data, dict) else None
        if not _is_json_int(size) or size < 2:
            raise TableFormatError("size must be an integer >= 2")
        return size
    raise TypeError(f"not a ring expression: {expr!r}")


# -- table files ------------------------------------------------------------------


def _is_json_int(value) -> bool:
    """An integer read from JSON; true and false load as bools, which are ints too."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_table_ring(path: str) -> RingTable:
    """Load a ring from a JSON table file and validate the ring axioms.

    Expects keys size, one, add, mul (row-major flat tables) and an
    optional labels list.  Element 0 must be the additive identity,
    which the axiom check enforces.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise TableFormatError(f"cannot read table file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TableFormatError(f"table file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise TableFormatError("table file must hold a JSON object")
    for key in ("size", "one", "add", "mul"):
        if key not in data:
            raise TableFormatError(f"table file is missing {key!r}")
    size = data["size"]
    if not _is_json_int(size) or size < 2:
        raise TableFormatError("size must be an integer >= 2")
    one = data["one"]
    if not _is_json_int(one) or not 0 <= one < size:
        raise TableFormatError("one must be an element index")
    if one == 0:
        raise TableFormatError("one must not be element 0, the additive identity")
    for key in ("add", "mul"):
        table = data[key]
        if not isinstance(table, list) or len(table) != size * size:
            raise TableFormatError(f"{key} table must hold size*size entries")
        # The whole list at once; entry by entry only to name the first offender.
        if set(map(type, table)) != {int} or min(table) < 0 or max(table) >= size:
            bad = next(v for v in table if not _is_json_int(v) or not 0 <= v < size)
            raise TableFormatError(f"{key} table entry {bad!r} out of range")
    labels = data.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != size:
            raise TableFormatError("labels must list one string per element")
        if not all(isinstance(x, str) for x in labels):
            raise TableFormatError("labels must list one string per element")
    ring = RingTable(
        size,
        one,
        data["add"],
        data["mul"],
        labels=labels,
        name=f"table:{os.path.basename(path)}",
    )
    validate_ring_axioms(ring)
    return ring


def save_table_ring(ring: RingTable, path: str) -> None:
    """Write a ring as a JSON table file (inverse of load_table_ring)."""
    obj = {
        "size": ring.size,
        "one": ring.one,
        "add": [v for a in range(ring.size) for v in ring.add_row(a).tolist()],
        "mul": [v for a in range(ring.size) for v in ring.mul_row(a).tolist()],
        "labels": list(ring.labels),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")
