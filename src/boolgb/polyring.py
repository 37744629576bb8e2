"""Multivariate polynomial arithmetic over F2.

The ring has 3n variables laid out block-major as x1,y1,z1,x2,y2,z2,...
A monomial is a dense exponent tuple of length 3n (index = flat variable
id).  A polynomial is a frozenset of monomials: over F2 a term is either
present or absent, so addition is symmetric difference and every nonzero
coefficient is 1.

Two ring modes exist.  In "full" mode exponents are unbounded nonnegative
integers.  In "boolean" mode the relation v*v = v is built into the
arithmetic, so every stored exponent is 0 or 1 and multiplication is
union of supports.
"""

from typing import Iterable, NamedTuple

FULL = "full"
BOOLEAN = "boolean"
MODES = (FULL, BOOLEAN)

KINDS = ("x", "y", "z")

# return values of mono_cmp
LT, EQ, GT = -1, 0, 1


class ModeMismatchError(ValueError):
    """Operands live in different ring modes (or different variable counts)."""


class DivisionError(ArithmeticError):
    """Monomial quotient requested where the divisor does not divide."""


class ZeroPolynomialError(ValueError):
    """The zero polynomial has no leading monomial."""


class ParseError(ValueError):
    """Malformed polynomial text; `position` is a 0-based index into the input."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(ParseError):
    """A variable is outside the ring, e.g. x5 when n=4."""


# ---------------------------------------------------------------------------
# variables

class VarId(NamedTuple):
    """A ring variable: block index (1-based), kind letter, flat index."""

    block: int
    kind: str
    flat: int

    @classmethod
    def from_flat(cls, flat: int) -> "VarId":
        return cls(flat // 3 + 1, KINDS[flat % 3], flat)

    @classmethod
    def make(cls, block: int, kind: str) -> "VarId":
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        return cls(block, kind, 3 * (block - 1) + KINDS.index(kind))

    @property
    def name(self) -> str:
        return f"{self.kind}{self.block}"


def num_vars(n: int) -> int:
    """Number of ring variables for block count n."""
    return 3 * n


def var_flat(kind: str, block: int) -> int:
    """Flat index of variable `kind<block>` in the fixed x,y,z block-major layout."""
    return VarId.make(block, kind).flat


def var_name(flat: int) -> str:
    return VarId.from_flat(flat).name


# ---------------------------------------------------------------------------
# monomials (dense exponent tuples)

def mono_one(nvars: int):
    """The monomial 1."""
    return (0,) * nvars


def mono_var(flat: int, nvars: int, exp: int = 1):
    """The monomial v^exp for the variable with the given flat index."""
    m = [0] * nvars
    m[flat] = exp
    return tuple(m)


def mono_degree(m) -> int:
    return sum(m)


def mono_exponents(m):
    """Sparse view: list of (flat, exp) pairs with exp > 0, flat ascending."""
    return [(i, e) for i, e in enumerate(m) if e]


def mono_support(m) -> int:
    """Bitmask of variables occurring in m (bit i = flat variable i)."""
    mask = 0
    for i, e in enumerate(m):
        if e:
            mask |= 1 << i
    return mask


def mono_mul(a, b, mode=FULL):
    """Product of two monomials; boolean mode caps every exponent at 1."""
    if mode == BOOLEAN:
        return tuple(map(max, a, b))
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b) -> bool:
    """True iff a divides b (every exponent of a is <= that of b)."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(b, a):
    """Quotient b/a; raises DivisionError when a does not divide b."""
    if not mono_divides(a, b):
        raise DivisionError(f"{format_mono(a)} does not divide {format_mono(b)}")
    return tuple(y - x for x, y in zip(a, b))


def mono_lcm(a, b):
    """Least common multiple: per-variable max of exponents."""
    return tuple(map(max, a, b))


# ---------------------------------------------------------------------------
# monomial orders

class MonomialOrder:
    """A degree-compatible total order on monomials.

    Both schemes compare total degree first.  On ties, deglex compares
    exponent vectors lexicographically with x1 most significant;
    degrevlex looks at the last variable where the monomials differ and
    ranks the one with the *smaller* exponent there higher.  `key`
    returns a tuple that sorts ascending in the order (so max(key) is
    the leading monomial); `negkey` sorts descending.
    """

    __slots__ = ("scheme",)

    DEGLEX = "deglex"
    DEGREVLEX = "degrevlex"

    def __init__(self, scheme: str):
        if scheme not in (self.DEGLEX, self.DEGREVLEX):
            raise ValueError(f"unknown order scheme: {scheme!r}")
        self.scheme = scheme

    def key(self, m):
        if self.scheme == self.DEGLEX:
            return (sum(m), m)
        return (sum(m), tuple(-e for e in reversed(m)))

    def negkey(self, m):
        if self.scheme == self.DEGLEX:
            return (-sum(m), tuple(-e for e in m))
        return (-sum(m), tuple(reversed(m)))

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.scheme == other.scheme

    def __hash__(self):
        return hash(self.scheme)

    def __repr__(self):
        return f"MonomialOrder({self.scheme!r})"


DEGLEX = MonomialOrder(MonomialOrder.DEGLEX)
DEGREVLEX = MonomialOrder(MonomialOrder.DEGREVLEX)


def get_order(name: str) -> MonomialOrder:
    """Look up an order by scheme name ('deglex' or 'degrevlex')."""
    return MonomialOrder(name)


def mono_cmp(order: MonomialOrder, a, b) -> int:
    """Compare monomials under the order: LT (-1), EQ (0) or GT (+1)."""
    ka, kb = order.key(a), order.key(b)
    if ka < kb:
        return LT
    if ka > kb:
        return GT
    return EQ


# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    """An element of F2[x1,y1,z1,...,xn,yn,zn] or of its Boolean quotient.

    `terms` is a frozenset of exponent tuples; the zero polynomial is the
    empty set.  Instances are immutable and hashable.  The arithmetic
    operators + and * are aliases for poly_add and poly_mul.
    """

    __slots__ = ("terms", "nvars", "mode")

    def __init__(self, terms: Iterable, nvars: int, mode: str = FULL):
        if mode not in MODES:
            raise ValueError(f"unknown mode: {mode!r}")
        terms = frozenset(terms)
        for m in terms:
            if len(m) != nvars:
                raise ValueError(
                    f"monomial {m} has {len(m)} exponents, ring has {nvars}")
            if m and min(m) < 0:
                raise ValueError(f"monomial {m} has a negative exponent")
            if mode == BOOLEAN and any(e > 1 for e in m):
                raise ValueError(
                    f"boolean-mode monomial must be squarefree: {format_mono(m)}")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Max total degree over all terms; -1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    def __add__(self, other):
        return poly_add(self, other)

    def __mul__(self, other):
        return poly_mul(self, other)

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.terms == other.terms
                and self.nvars == other.nvars
                and self.mode == other.mode)

    def __hash__(self):
        return hash((self.terms, self.nvars, self.mode))

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return f"Polynomial({format_poly(self)!r}, nvars={self.nvars}, mode={self.mode!r})"


def poly_zero(nvars: int, mode: str = FULL) -> Polynomial:
    return Polynomial((), nvars, mode)


def poly_one(nvars: int, mode: str = FULL) -> Polynomial:
    return Polynomial((mono_one(nvars),), nvars, mode)


def poly_var(flat: int, nvars: int, mode: str = FULL) -> Polynomial:
    return Polynomial((mono_var(flat, nvars),), nvars, mode)


def _check_compatible(f: Polynomial, g: Polynomial):
    if f.mode != g.mode or f.nvars != g.nvars:
        raise ModeMismatchError(
            f"incompatible operands: mode {f.mode}/{g.mode}, "
            f"nvars {f.nvars}/{g.nvars}")


def poly_add(f: Polynomial, g: Polynomial) -> Polynomial:
    """Sum over F2: symmetric difference of the term sets."""
    _check_compatible(f, g)
    return Polynomial(f.terms ^ g.terms, f.nvars, f.mode)


def poly_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    """Product, cancelling duplicate monomials mod 2."""
    _check_compatible(f, g)
    acc = set()
    boolean = f.mode == BOOLEAN
    for a in f.terms:
        for b in g.terms:
            m = tuple(map(max, a, b)) if boolean else tuple(x + y for x, y in zip(a, b))
            if m in acc:
                acc.discard(m)
            else:
                acc.add(m)
    return Polynomial(acc, f.nvars, f.mode)


def leading_monomial(f: Polynomial, order: MonomialOrder = DEGLEX):
    """Largest term of f under the order; raises on the zero polynomial."""
    if not f.terms:
        raise ZeroPolynomialError("zero polynomial has no leading monomial")
    return max(f.terms, key=order.key)


def to_boolean(f: Polynomial) -> Polynomial:
    """Image of f in the Boolean quotient: cap exponents, cancel mod 2."""
    acc = set()
    for m in f.terms:
        b = tuple(min(e, 1) for e in m)
        if b in acc:
            acc.discard(b)
        else:
            acc.add(b)
    return Polynomial(acc, f.nvars, BOOLEAN)


def to_full(f: Polynomial) -> Polynomial:
    """Lift a Boolean polynomial to full mode (terms are already squarefree)."""
    return Polynomial(f.terms, f.nvars, FULL)


# ---------------------------------------------------------------------------
# text form
#
# Grammar:  poly   := ['+'|'-'] term (('+'|'-') term)*
#           term   := factor ('*' factor)*
#           factor := var ('^' posint)? | int
#           var    := ('x'|'y'|'z') posint
# Whitespace is insignificant; '-' is the same as '+' in characteristic 2;
# integer coefficients are reduced mod 2.

def format_mono(m) -> str:
    if not any(m):
        return "1"
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(var_name(i))
        elif e > 1:
            parts.append(f"{var_name(i)}^{e}")
    return "*".join(parts)


def format_poly(f: Polynomial, order: MonomialOrder = DEGLEX) -> str:
    """Canonical text: terms descending under the order, '+' only, no spaces."""
    if not f.terms:
        return "0"
    terms = sorted(f.terms, key=order.key, reverse=True)
    return "+".join(format_mono(m) for m in terms)


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def read_int(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return int(self.text[start:self.pos]), start


def parse_poly(text: str, n: int, mode: str = FULL) -> Polynomial:
    """Parse polynomial text for the ring with n blocks (3n variables).

    Repeated terms cancel mod 2, '-' is treated as '+', and in boolean
    mode exponents collapse to 1 (v^k = v in the quotient).
    """
    nvars = num_vars(n)
    tok = _Tokenizer(text)
    terms = set()

    def parse_factor():
        c = tok.peek()
        if c is None:
            raise ParseError("unexpected end of input", tok.pos)
        if c.isdigit():
            value, _ = tok.read_int()
            return value % 2, None
        if c in KINDS:
            start = tok.pos
            tok.pos += 1
            index, _ = tok.read_int()
            if index < 1 or index > n:
                raise UnknownVariableError(
                    f"variable {c}{index} is outside the ring (n={n})", start)
            flat = var_flat(c, index)
            exp = 1
            if tok.peek() == "^":
                tok.pos += 1
                exp, at = tok.read_int()
                if exp < 1:
                    raise ParseError("exponent must be positive", at)
            if mode == BOOLEAN:
                exp = 1
            return 1, (flat, exp)
        raise ParseError(f"unexpected character {c!r}", tok.pos)

    def parse_term():
        coeff, factor = parse_factor()
        exps = [0] * nvars
        if factor is not None:
            flat, exp = factor
            exps[flat] += exp
        while tok.peek() == "*":
            tok.pos += 1
            c, factor = parse_factor()
            coeff = coeff * c if factor is None else coeff
            if factor is not None:
                flat, exp = factor
                exps[flat] += exp
        if mode == BOOLEAN:
            exps = [min(e, 1) for e in exps]
        return coeff % 2, tuple(exps)

    if tok.peek() in ("+", "-"):
        tok.pos += 1
    coeff, m = parse_term()
    if coeff:
        terms.add(m)
    while tok.peek() is not None:
        c = tok.peek()
        if c not in ("+", "-"):
            raise ParseError(f"expected '+' or '-', found {c!r}", tok.pos)
        tok.pos += 1
        coeff, m = parse_term()
        if coeff:
            terms.symmetric_difference_update((m,))
    return Polynomial(terms, nvars, mode)
