"""Brute-force ground truth over F2^(3n).

Points are encoded as integers: bit i carries the value of the flat
variable i.  Enumeration covers all 2^(3n) points, so it is the
independent oracle against which the algebraic engine is checked, valid
whenever the generator set contains (or, in boolean mode, implies) every
field polynomial — then all solutions over the algebraic closure are
already F2-valued and exhaustive scan sees the whole solution set.  It is
bit-sliced (Biham, FSE 1997): a truth table over all points is one int.
"""

import math

from .groebner import GeneratorSet
from .polyring import BOOLEAN, FULL, Polynomial, mono_support, mono_var

DEFAULT_MAX_BITS = 24  # enumeration cap: 3n <= 24, i.e. up to 2^24 points


class TooManyVariablesError(ValueError):
    """Enumeration request beyond the configured point cap."""


class ArityMismatchError(ValueError):
    """Point length does not match the polynomial's variable count."""


class FieldPolysMissingError(ValueError):
    """Evaluation-based membership is unsound without all field polynomials."""


class SolutionFormatError(ValueError):
    """A solution dump that does not follow the documented format."""


class SolutionSet:
    """A set of F2^(3n) points held as one bitmap: bit p is set when the
    point with mask p (bit i = flat variable i) is in the set."""

    __slots__ = ("bits", "n")

    def __init__(self, *, bits: int, n: int):
        self.bits = bits
        self.n = n

    @property
    def masks(self):
        """The point masks in ascending order, decoded from the bitmap."""
        data = self.bits.to_bytes((self.bits.bit_length() + 7) // 8, "little")
        return [8 * i + j for i, byte in enumerate(data) if byte
                for j in range(8) if byte >> j & 1]

    def points(self):
        """Decode to 0/1 tuples of length 3n, sorted by encoding."""
        nv = 3 * self.n
        return [tuple((p >> i) & 1 for i in range(nv)) for p in self.masks]

    def __len__(self):
        return self.bits.bit_count()

    def __eq__(self, other):
        return (isinstance(other, SolutionSet)
                and self.n == other.n and self.bits == other.bits)

    def __hash__(self):
        return hash((self.bits, self.n))

    def __contains__(self, point):
        p = _point_mask(point, 3 * self.n)
        return p >= 0 and (self.bits >> p) & 1 == 1

    def __repr__(self):
        return f"SolutionSet({len(self)} points, n={self.n})"


def _point_mask(point, nvars: int) -> int:
    if isinstance(point, int):
        return point
    if len(point) != nvars:
        raise ArityMismatchError(
            f"point has {len(point)} coordinates, ring has {nvars}")
    mask = 0
    for i, v in enumerate(point):
        if v:
            mask |= 1 << i
    return mask


def evaluate(f: Polynomial, point) -> int:
    """Value of f at a point of F2^(3n) (0 or 1).

    The point is a 0/1 sequence indexed by flat variable id, or an
    already-encoded integer mask.  Exponents are irrelevant on {0,1}: a
    term evaluates to 1 iff all its variables are set.
    """
    p = _point_mask(point, f.nvars)
    value = 0
    for m in f.terms:
        tm = mono_support(m)
        if p & tm == tm:
            value ^= 1
    return value


def exponent_table(bounds, v: int, e: int) -> int:
    """Truth table of 'exponent of v >= e' over the box of exponent vectors
    below bounds, vector (e_u) being point sum(e_u * prod(bounds[:u])).
    With every bound 2 the box is the oracle's F2^nvars and e = 1 gives
    the truth table of variable v."""
    stride = math.prod(bounds[:v])
    period = stride * bounds[v]
    size = period * math.prod(bounds[v + 1:])
    table = ((1 << stride * max(bounds[v] - e, 0)) - 1) << stride * e
    while period < size:  # doubling, then cut back to the box
        table |= table << period
        period *= 2
    return table & ((1 << size) - 1)


def _mono_table(m, table_of, everything: int) -> int:
    """Truth table of monomial m: the AND of table_of(v, e) over its factors."""
    t = everything
    for v, e in enumerate(m):
        if e:
            t &= table_of(v, e)
    return t


def _poly_table(f: Polynomial, tables, everything: int) -> int:
    """Truth table of f: the XOR of its terms' tables (exponents do not
    matter on {0,1})."""
    value = 0
    for m in f.terms:
        value ^= _mono_table(m, lambda v, e: tables[v], everything)
    return value


def _solution_bitmap(F: GeneratorSet, max_bits: int):
    """The solution bitmap of F, with the variables' truth tables over
    F2^nvars and the all-ones table it was built from."""
    nvars = F.nvars
    if nvars > max_bits:
        raise TooManyVariablesError(
            f"{nvars} variables exceed the {max_bits}-bit enumeration cap")
    bounds = (2,) * nvars
    tables = [exponent_table(bounds, v, 1) for v in range(nvars)]
    everything = alive = (1 << (1 << nvars)) - 1
    for f in F.polynomials:
        alive &= ~_poly_table(f, tables, everything)
    return alive, tables, everything


def enumerate_solutions(F: GeneratorSet, max_bits: int = DEFAULT_MAX_BITS) -> SolutionSet:
    """All points of F2^(3n) where every generator vanishes.

    This equals the solution set over the algebraic closure exactly when
    F contains (or implies) all field polynomials; the caller asserts
    that.  The result is the AND of the complements of the generators'
    truth tables.
    """
    return SolutionSet(bits=_solution_bitmap(F, max_bits)[0], n=F.n)


def solution_sets_equal(F1: GeneratorSet, F2: GeneratorSet,
                        max_bits: int = DEFAULT_MAX_BITS) -> bool:
    """Exhaustive comparison of two solution sets over F2^(3n)."""
    if F1.nvars != F2.nvars:
        raise ValueError("generator sets live in different rings")
    return enumerate_solutions(F1, max_bits) == enumerate_solutions(F2, max_bits)


def has_all_field_polys(F: GeneratorSet) -> bool:
    """Structural check: c^2 + c present for every variable (full mode);
    boolean mode carries the field relations in the ring itself."""
    if F.mode == BOOLEAN:
        return True
    nv = F.nvars
    want = {
        Polynomial((mono_var(v, nv, 2), mono_var(v, nv)), nv, FULL)
        for v in range(nv)
    }
    return want <= set(F.polynomials)


def membership_by_evaluation(f: Polynomial, F: GeneratorSet,
                             max_bits: int = DEFAULT_MAX_BITS) -> bool:
    """True iff f vanishes on every enumerated solution of F.

    Equivalent to ideal membership when F contains all field polynomials
    (the ideal is then radical with all solutions in F2^(3n)); raises
    FieldPolysMissingError otherwise since the equivalence would be
    unsound, and ArityMismatchError when f and F live in different rings.
    """
    if not has_all_field_polys(F):
        raise FieldPolysMissingError(
            "generator set lacks field polynomials; evaluation does not "
            "decide membership")
    if f.nvars != F.nvars:
        raise ArityMismatchError(f"f has {f.nvars} variables, F has {F.nvars}")
    alive, tables, everything = _solution_bitmap(F, max_bits)
    return _poly_table(f, tables, everything) & alive == 0


def dump_solutions(S: SolutionSet) -> str:
    """Text dump: header '# n=<n> count=<k>' then sorted hex masks."""
    lines = [f"# n={S.n} count={len(S)}"]
    lines.extend(format(p, "x") for p in S.masks)
    return "\n".join(lines) + "\n"


def load_solutions(text: str) -> SolutionSet:
    """Read a dump_solutions text; raises SolutionFormatError unless it is
    one '# n=<n> count=<k>' header (1 <= 3n <= DEFAULT_MAX_BITS) and then
    k distinct hex masks below 2^(3n)."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    header = [field.partition("=") for field in lines[0].split()] if lines else []
    if ([key for key, _, _ in header] != ["#", "n", "count"]
            or not all(value.isdecimal() and len(value) < 10  # n, k < 2^24
                       for _, _, value in header[1:])):
        raise SolutionFormatError("solution dump lacks its '# n=<n> count=<k>' header")
    n, count = (int(value) for _, _, value in header[1:])
    if not 1 <= 3 * n <= DEFAULT_MAX_BITS:
        raise SolutionFormatError(
            f"solution dump n={n} is outside 1..{DEFAULT_MAX_BITS // 3}")
    masks = lines[1:]
    if len(masks) != count or any(m.strip("0123456789abcdefABCDEF") for m in masks):
        raise SolutionFormatError(
            f"solution dump must hold {count} hex masks after its header")
    bitmap = bytearray(1 << 3 * n >> 3)
    for p in (int(m, 16) for m in masks):
        if p >> 3 * n or bitmap[p >> 3] >> (p & 7) & 1:
            raise SolutionFormatError(
                f"solution mask {p:x} is outside F2^{3 * n} or repeated")
        bitmap[p >> 3] |= 1 << (p & 7)
    return SolutionSet(bits=int.from_bytes(bitmap, "little"), n=n)
