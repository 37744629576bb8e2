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

import functools
import re
from typing import Iterable

FULL = "full"
BOOLEAN = "boolean"
MODES = (FULL, BOOLEAN)

KINDS = ("x", "y", "z")


class ModeMismatchError(ValueError):
    """Operands live in different ring modes (or different variable counts)."""


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

def num_vars(n: int) -> int:
    """Number of ring variables for block count n."""
    return 3 * n


def var_flat(kind: str, block: int) -> int:
    """Flat index of variable `kind<block>` in the fixed x,y,z block-major layout."""
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    return 3 * (block - 1) + KINDS.index(kind)


def var_name(flat: int) -> str:
    return f"{KINDS[flat % 3]}{flat // 3 + 1}"


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


def mono_mul(a, b, mode=FULL):
    """Product of two monomials; boolean mode caps every exponent at 1."""
    if mode == BOOLEAN:
        return tuple(map(max, a, b))
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b) -> bool:
    """True iff a divides b (every exponent of a is <= that of b)."""
    return all(x <= y for x, y in zip(a, b))


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
    the leading monomial).
    """

    __slots__ = ("scheme",)

    DEGLEX = "deglex"
    DEGREVLEX = "degrevlex"

    def __init__(self, scheme: str):
        if scheme not in (self.DEGLEX, self.DEGREVLEX):
            raise ValueError(f"unknown order scheme: {scheme!r:.100}")
        self.scheme = scheme

    def key(self, m):
        if self.scheme == self.DEGLEX:
            return (sum(m), m)
        return (sum(m), tuple(-e for e in reversed(m)))

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
        if nvars < 3 or nvars % 3:
            raise ValueError(f"a ring has 3n variables with n >= 1, got nvars={nvars}")
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

    # immutable: a copy is the object itself, and a pickle rebuilds it
    # through the checked constructor rather than by setting its slots
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return Polynomial, (self.terms, self.nvars, self.mode)

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


_set_terms = Polynomial.terms.__set__
_set_nvars = Polynomial.nvars.__set__
_set_mode = Polynomial.mode.__set__


def _trusted_poly(terms: frozenset, nvars: int, mode: str) -> Polynomial:
    """A Polynomial from terms the library built itself, without the
    constructor's per-term checks: the caller vouches that `mode` is one
    of MODES and every term is a valid exponent tuple of the ring.  Input
    from outside goes through `Polynomial(...)`."""
    f = object.__new__(Polynomial)
    _set_terms(f, terms)
    _set_nvars(f, nvars)
    _set_mode(f, mode)
    return f


def poly_zero(nvars: int, mode: str = FULL) -> Polynomial:
    return Polynomial((), nvars, mode)


def poly_one(nvars: int, mode: str = FULL) -> Polynomial:
    return Polynomial((mono_one(nvars),), nvars, mode)


def poly_var(flat: int, nvars: int, mode: str = FULL) -> Polynomial:
    return Polynomial((mono_var(flat, nvars),), nvars, mode)


def _check_compatible(*polys):
    """Raise ModeMismatchError unless all share one (mode, nvars): the one ring check."""
    mode, nvars = polys[0].mode, polys[0].nvars
    for f in polys:
        if f.mode != mode or f.nvars != nvars:
            raise ModeMismatchError(
                f"incompatible operands: mode {mode}/{f.mode}, "
                f"nvars {nvars}/{f.nvars}")


def poly_add(f: Polynomial, g: Polynomial) -> Polynomial:
    """Sum over F2: symmetric difference of the term sets."""
    _check_compatible(f, g)
    return Polynomial(f.terms ^ g.terms, f.nvars, f.mode)


def _sum_mod2(monomials) -> set:
    """The monomials that occur an odd number of times: their sum over F2."""
    acc = set()
    for m in monomials:
        if m in acc:
            acc.discard(m)
        else:
            acc.add(m)
    return acc


def poly_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    """Product, cancelling duplicate monomials mod 2."""
    _check_compatible(f, g)
    boolean = f.mode == BOOLEAN
    return Polynomial(_sum_mod2(
        tuple(map(max, a, b)) if boolean else tuple(x + y for x, y in zip(a, b))
        for a in f.terms for b in g.terms), f.nvars, f.mode)


def leading_monomial(f: Polynomial, order: MonomialOrder = DEGLEX):
    """Largest term of f under the order; raises on the zero polynomial."""
    if not f.terms:
        raise ZeroPolynomialError("zero polynomial has no leading monomial")
    return max(f.terms, key=order.key)


def to_boolean(f: Polynomial) -> Polynomial:
    """Image of f in the Boolean quotient: cap exponents, cancel mod 2."""
    return Polynomial(_sum_mod2(tuple(min(e, 1) for e in m) for m in f.terms),
                      f.nvars, BOOLEAN)


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
# Whitespace may separate any two tokens, a variable's letter from its
# index too; '-' is the same as '+' in characteristic 2; integer
# coefficients are reduced mod 2.  An integer is a run of decimal digits
# (str.isdecimal, the digits int() reads); a run longer than int()
# converts is a ParseError.

def read_decimal(text: str, lo: int, hi: int):
    """The integer that text spells if it lies in lo..hi, else None: the
    one reader of numbers in outside input.  text is decimal digits alone,
    as in the grammar; leading zeros are dropped, so int() sees at most as
    many digits as hi has."""
    if text.isdecimal():
        # int() of one digit is its value, in any script
        digits = text[next((i for i, c in enumerate(text) if int(c)), len(text) - 1):]
        if len(digits) <= len(str(hi)) and lo <= (value := int(digits)) <= hi:
            return value
    return None


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


# One factor: a variable letter with its index and an optional exponent,
# or an integer.  Each digit group may match empty, so that a missing
# integer is reported where it was expected; an empty last group means
# no factor starts there.  In str patterns \s and \d match exactly the
# characters of str.isspace and str.isdecimal, so str.strip drops exactly
# the blanks that \s skips.
_FACTOR = re.compile(r"\s*(?:([xyz])\s*(\d*)(?:\s*\^\s*(\d*))?|(\d*))")
# Text split at '*', '+' and '-', each separator kept as an item of its
# own between two pieces.  No factor contains a separator, so each piece
# holds one factor and every error lies in a piece or at its end.
_SPLIT = re.compile(r"([*+-])").split
# Distinct (piece, n) pairs the factor memo keeps.  A ring writes its
# factors with 3n variables and a few exponents, far fewer than this.
_FACTOR_MEMO = 1024


class _FactorError(Exception):
    """Args (cls, message, at): an error at `at` in one piece, raised as
    cls(message, start of the piece + at).

    A None message means no factor starts at `at`: what is there, the
    end of the input or another character, depends on the whole text.
    """


def _read_int(digits: str, at: int) -> int:
    if not digits:
        raise _FactorError(ParseError, "expected an integer", at)
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise _FactorError(ParseError, "integer too long", at) from None


@functools.lru_cache(maxsize=_FACTOR_MEMO)
def _factor(piece: str, n: int):
    """One piece as (flat, power) for a variable, (-1, parity) for an integer.

    Raises _FactorError with a position relative to the piece; errors are
    not memoized.
    """
    factor = _FACTOR.match(piece)
    kind, index, exp, digits = factor.groups()
    if kind:
        block = _read_int(index, factor.start(2))
        if not 1 <= block <= n:
            raise _FactorError(
                UnknownVariableError,
                f"variable {kind}{block} is outside the ring (n={n})",
                factor.start(1))
        power = 1 if exp is None else _read_int(exp, factor.start(3))
        if power < 1:
            raise _FactorError(ParseError, "exponent must be positive",
                               factor.start(3))
        value = var_flat(kind, block), power
    elif digits:
        value = -1, _read_int(digits, factor.start(4)) & 1
    else:
        raise _FactorError(ParseError, None, factor.end())
    rest = piece[factor.end():].lstrip()
    if rest:
        raise _FactorError(ParseError, f"expected '+' or '-', found {rest[0]!r}",
                           len(piece) - len(rest))
    return value


def parse_poly(text: str, n: int, mode: str = FULL) -> Polynomial:
    """Parse polynomial text for the ring with n blocks (3n variables).

    Repeated terms cancel mod 2, '-' is treated as '+', and in boolean
    mode exponents collapse to 1 (v^k = v in the quotient).  Raises
    ValueError unless n >= 1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    nvars = num_vars(n)
    parts = _SPLIT(text)
    parts.append("")  # the end of the text closes the last term
    # a '+' or '-' with only blanks before it is a leading sign
    first = 2 if parts[1] in ("+", "-") and not parts[0].strip() else 0
    monos = []
    exps, odd = [0] * nvars, 1
    try:
        for piece, op in zip(parts[first::2], parts[first + 1::2]):
            flat, value = _factor(piece, n)
            if flat < 0:
                odd &= value
            else:
                exps[flat] += value
            if op != "*":
                if odd:
                    monos.append(tuple(min(e, 1) for e in exps) if mode == BOOLEAN
                                 else tuple(exps))
                exps, odd = [0] * nvars, 1
    except _FactorError as exc:
        # the memo's answer depends on (piece, n) alone, so no piece equal
        # to the one that failed came before it
        cls, message, at = exc.args
        pos = sum(map(len, parts[:parts.index(piece, first)])) + at
        if message is None:
            message = ("unexpected end of input" if pos == len(text)
                       else f"unexpected character {text[pos]!r}")
        raise cls(message, pos) from None
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    # every term is a tuple of nvars exponents >= 0, at most 1 in boolean mode
    return _trusted_poly(frozenset(_sum_mod2(monos)), nvars, mode)
