"""Brute-force ground truth over F2^(3n), by exhaustive search with early abort.

Points are encoded as integers: bit i carries the value of the flat
variable i.  The enumerator adds the variables in flat order and splits
every live candidate into one copy per value of the new variable; each
polynomial is evaluated as soon as its last variable is in, and the
candidates where it is nonzero are dropped (Bouillaguet et al., "Fast
exhaustive search for polynomial systems in F2", CHES 2010).  Candidates
are bit-sliced (Biham, FSE 1997): one int column per variable factor,
bit k belonging to the k-th candidate in ascending mask order.  The cost
follows the live candidates, about 4^n on the H and G families, not the
2^(3n) points.

The solution set is the independent oracle against which the algebraic
engine is checked, valid whenever the ideal of the generator set holds
every field polynomial (listed, of normal form 0, or in boolean mode
part of the ring) — then all solutions over the algebraic closure are
already F2-valued and exhaustive search sees the whole solution set.
Run on leading monomials over a box of exponent vectors, the same
enumerator counts standard monomials (`construction.count_standard_monomials`).
"""

from itertools import chain, compress, repeat

from .groebner import MAX_FILE_N, GeneratorSet, GroebnerBasis, normal_form
from .polyring import BOOLEAN, FULL, Polynomial, mono_var, read_decimal

DEFAULT_MAX_BITS = 24  # enumeration cap: at most 2^24 live candidates

_BIT = bytes.maketrans(b"01", b"\0\1")
_MARK = bytes.maketrans(b"01", b"\0\2")  # a dropped digit becomes '2' or '3'
_DIGIT = [bytes(ord("0") + (x >> j & 1) for x in range(256)) for j in range(8)]


class TooManyVariablesError(ValueError):
    """Enumeration request beyond the configured candidate cap."""


class ArityMismatchError(ValueError):
    """Point length does not match the polynomial's variable count."""


class FieldPolysMissingError(ValueError):
    """Evaluation-based membership is unsound without all field polynomials."""


class SolutionFormatError(ValueError):
    """A solution dump that does not follow the documented format."""


# ---------------------------------------------------------------------------
# the enumerator

def _replicate(column: int, width: int, copies: int) -> int:
    """`copies` copies of a width-bit column side by side, by doubling."""
    total = width * copies
    while width < total:
        column |= column << width
        width *= 2
    return column if width == total else column & ((1 << total) - 1)


def _value(poly, columns, count: int, prefix) -> int:
    """Column of poly's values: the XOR over its terms of the AND of their
    factors' columns; a term without factors is the constant 1.  prefix
    holds the factors of the term evaluated last with their running ANDs,
    so a term that shares its first factors with it starts from their AND."""
    value = 0
    for term in poly:
        if not term:
            value ^= (1 << count) - 1
            continue
        k = 0
        while k < len(prefix) and k < len(term) and prefix[k][0] == term[k]:
            k += 1
        del prefix[k:]
        t = prefix[-1][1] if k else -1
        for key in term[k:]:
            t &= columns[key]
            prefix.append((key, t))
        value ^= t
    return value


def _compress(columns, drop: int, count: int) -> int:
    """Delete the candidates whose bit is set in drop from every column, in
    place; returns how many are left.  Each column is spelled out one digit
    byte per candidate, the dropped digits are lifted to '2' or '3' by one
    addition and deleted by translate, and the rest read back in base 2."""
    left = count - drop.bit_count()
    if not left:
        columns.update(dict.fromkeys(columns, 0))
        return 0
    spell = f"0{count}b"
    marks = int.from_bytes(format(drop, spell).encode().translate(_MARK), "big")
    for key, column in columns.items():
        digits = int.from_bytes(format(column, spell).encode(), "big") + marks
        columns[key] = int(digits.to_bytes(count, "big").translate(None, b"23"), 2)
    return left


def _enumerate(polys, bounds, max_bits: int, keep=()):
    """Exhaustive search with early abort over the box of exponent vectors
    below bounds.

    Each polynomial is a sorted list of terms, each term a tuple of (v, e)
    factors in ascending v with 1 <= e < bounds[v]: the term is 1 at a
    candidate whose exponent of v is at least e for every factor.
    Candidates run in ascending order of sum(e_v * prod(bounds[:v])), so a
    split of v puts the copies with exponent 0 first, and only the (v, e)
    factors in use get a column.  Returns the number of candidates where every polynomial
    vanishes and the columns of the factors in keep over them.  Raises
    TooManyVariablesError before a split would pass 2^max_bits candidates.
    """
    nvars = len(bounds)
    due = [[] for _ in range(nvars)]  # due[v]: the polynomials whose last variable is v
    for poly in sorted(polys):  # neighbours share leading factors
        due[max((term[-1][0] for term in poly if term), default=0)].append(poly)
    last_use = {}  # the variable after which no polynomial reads the column
    for v, polys_v in enumerate(due):
        last_use.update(dict.fromkeys(chain.from_iterable(chain.from_iterable(polys_v)), v))
    last_use.update(dict.fromkeys(keep, nvars))
    exponents = [[] for _ in range(nvars)]
    for v, e in last_use:
        exponents[v].append(e)

    count, columns = 1, {}
    for v, b in enumerate(bounds):
        if b > 1:
            # past 2^max_bits, compared without building that power
            if (count * b - 1).bit_length() > max_bits:
                raise TooManyVariablesError(
                    f"the search needs {count * b} live candidates, past the "
                    f"2^{max_bits} enumeration cap")
            for key, column in columns.items():
                columns[key] = _replicate(column, count, b)
            for e in exponents[v]:
                columns[v, e] = ((1 << (b - e) * count) - 1) << e * count
            count *= b
        drop, prefix = 0, []
        for poly in due[v]:
            drop |= _value(poly, columns, count, prefix)
        for key in [key for key in columns if last_use[key] <= v]:
            del columns[key]
        if drop:
            count = _compress(columns, drop, count)
    return count, columns


def _terms(f: Polynomial):
    """f's terms as factor tuples on F2 points, where exponents do not
    matter: terms with the same support cancel in pairs."""
    terms = set()
    for m in f.terms:
        terms ^= {tuple(zip(compress(range(len(m)), m), repeat(1)))}
    return sorted(terms)


def _solutions(F: GeneratorSet, max_bits: int, keep):
    return _enumerate([_terms(f) for f in F.polynomials], (2,) * F.nvars,
                      max_bits, keep)


# ---------------------------------------------------------------------------
# points and solution sets

class SolutionSet:
    """A set of F2^(3n) points, bit-sliced in ascending mask order:
    columns[v] has bit k set when the k-th smallest point sets flat
    variable v, and count is the number of points."""

    __slots__ = ("columns", "count", "n")

    def __init__(self, columns, count: int, n: int):
        self.columns = tuple(columns)
        self.count = count
        self.n = n

    @property
    def masks(self):
        """The point masks in ascending order, transposed from the columns
        eight variables at a time through one byte per point."""
        count, width = self.count, (len(self.columns) + 7) // 8
        if not count:
            return []
        spell = f"0{count}b"
        lanes = bytearray(width * count)
        for g in range(width):
            byte = 0
            for j, column in enumerate(self.columns[8 * g:8 * g + 8]):
                bits = format(column, spell).encode().translate(_BIT)
                byte |= int.from_bytes(bits, "big") << j
            lanes[g::width] = byte.to_bytes(count, "little")
        return [int.from_bytes(lanes[k:k + width], "little")
                for k in range(0, len(lanes), width)]

    def points(self):
        """Decode to 0/1 tuples of length 3n, sorted by encoding."""
        nv = 3 * self.n
        return [tuple((p >> i) & 1 for i in range(nv)) for p in self.masks]

    def __len__(self):
        return self.count

    def __eq__(self, other):
        return (isinstance(other, SolutionSet) and self.n == other.n
                and self.count == other.count and self.columns == other.columns)

    def __hash__(self):
        return hash((self.columns, self.n))

    def __contains__(self, point):
        nvars = 3 * self.n
        if isinstance(point, int) and not 0 <= point < 1 << nvars:
            return False
        p = _point_mask(point, nvars)
        hit = (1 << self.count) - 1
        for v, column in enumerate(self.columns):
            hit &= column if p >> v & 1 else ~column
        return hit != 0

    def __repr__(self):
        return f"SolutionSet({len(self)} points, n={self.n})"


def _point_mask(point, nvars: int) -> int:
    if isinstance(point, int):
        if not 0 <= point < 1 << nvars:
            raise ArityMismatchError(f"point mask {point} is outside F2^{nvars}")
        return point
    if len(point) != nvars:
        raise ArityMismatchError(
            f"point has {len(point)} coordinates, ring has {nvars}")
    mask = 0
    for i, v in enumerate(point):
        if v not in (0, 1):
            raise ValueError(f"coordinate {i} of the point is {v!r}, not 0 or 1")
        if v:
            mask |= 1 << i
    return mask


def evaluate(f: Polynomial, point) -> int:
    """Value of f at a point of F2^(3n) (0 or 1).

    The point is a 0/1 sequence indexed by flat variable id, or an
    already-encoded integer mask in 0..2^(3n)-1; anything else raises
    ArityMismatchError (wrong length, mask out of range) or ValueError (a
    coordinate other than 0 or 1).  Exponents are irrelevant on {0,1}: a
    term evaluates to 1 iff all its variables are set.
    """
    p = _point_mask(point, f.nvars)
    # one candidate: each variable's column is its one bit at the point
    return _value(_terms(f), {(v, 1): p >> v & 1 for v in range(f.nvars)}, 1, [])


def enumerate_solutions(F: GeneratorSet, max_bits: int = DEFAULT_MAX_BITS) -> SolutionSet:
    """All points of F2^(3n) where every generator vanishes.

    This equals the solution set over the algebraic closure exactly when
    F contains (or implies) all field polynomials; the caller asserts
    that.  Raises TooManyVariablesError when the search would hold more
    than 2^max_bits live candidates.
    """
    keep = [(v, 1) for v in range(F.nvars)]
    count, columns = _solutions(F, max_bits, keep)
    return SolutionSet([columns[key] for key in keep], count, F.n)


def solution_sets_equal(F1: GeneratorSet, F2: GeneratorSet,
                        max_bits: int = DEFAULT_MAX_BITS) -> bool:
    """Exhaustive comparison of two solution sets over F2^(3n)."""
    if F1.nvars != F2.nvars:
        raise ValueError("generator sets live in different rings")
    return enumerate_solutions(F1, max_bits) == enumerate_solutions(F2, max_bits)


def has_all_field_polys(F: GeneratorSet) -> bool:
    """True when the ideal of F provably holds c^2 + c for every variable
    (full mode): each is listed in F or has normal form 0 modulo F.  A
    reduced basis drops c^2 + c when some leading monomial divides c^2.
    Boolean mode carries the field relations in the ring itself."""
    if F.mode == BOOLEAN:
        return True
    nv = F.nvars
    missing = {
        Polynomial((mono_var(v, nv, 2), mono_var(v, nv)), nv, FULL)
        for v in range(nv)
    } - set(F.polynomials)
    if not missing:
        return True
    G = GroebnerBasis(F.polynomials, F.order)
    return all(normal_form(c, G).is_zero for c in missing)


def membership_by_evaluation(f: Polynomial, F: GeneratorSet,
                             max_bits: int = DEFAULT_MAX_BITS) -> bool:
    """True iff f vanishes on every enumerated solution of F.

    Equivalent to ideal membership when the ideal of F contains all field
    polynomials (it is then radical with all solutions in F2^(3n)); raises
    FieldPolysMissingError otherwise since the equivalence would be
    unsound, and ArityMismatchError when f and F live in different rings.
    f is evaluated on the solutions' columns of its own variables.
    """
    if not has_all_field_polys(F):
        raise FieldPolysMissingError(
            "generator set lacks field polynomials; evaluation does not "
            "decide membership")
    if f.nvars != F.nvars:
        raise ArityMismatchError(f"f has {f.nvars} variables, F has {F.nvars}")
    terms = _terms(f)
    count, columns = _solutions(F, max_bits, {key for term in terms for key in term})
    return _value(terms, columns, count, []) == 0


# ---------------------------------------------------------------------------
# dumps

def dump_solutions(S: SolutionSet) -> str:
    """Text dump: header '# n=<n> count=<k>' then sorted hex masks."""
    lines = [f"# n={S.n} count={len(S)}"]
    lines.extend(format(p, "x") for p in S.masks)
    return "\n".join(lines) + "\n"


def _columns(masks, nvars: int):
    """The columns of ascending masks, the inverse of SolutionSet.masks."""
    width = (nvars + 7) // 8
    lanes = b"".join(p.to_bytes(width, "little") for p in masks)
    return [int(lanes[v // 8::width].translate(_DIGIT[v % 8])[::-1], 2) if masks else 0
            for v in range(nvars)]


def load_solutions(text: str) -> SolutionSet:
    """Read a dump_solutions text; raises SolutionFormatError unless it is
    one '# n=<n> count=<k>' header (1 <= n <= MAX_FILE_N, as for basis
    dumps) and then k distinct hex masks below 2^(3n)."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    header = [field.partition("=") for field in lines[0].split()] if lines else []
    values = [read_decimal(value, 0, 10 ** 9 - 1) for _, _, value in header[1:]]
    if [key for key, _, _ in header] != ["#", "n", "count"] or None in values:
        raise SolutionFormatError("solution dump lacks its '# n=<n> count=<k>' header")
    n, count = values
    if not 1 <= n <= MAX_FILE_N:
        raise SolutionFormatError(f"solution dump n={n} is outside 1..{MAX_FILE_N}")
    if len(lines) - 1 != count or any(m.strip("0123456789abcdefABCDEF") for m in lines[1:]):
        raise SolutionFormatError(
            f"solution dump must hold {count} hex masks after its header")
    masks = sorted(int(m, 16) for m in lines[1:])
    for p, above in zip(masks, masks[1:] + [1 << 3 * n]):
        if p >= above:
            raise SolutionFormatError(
                f"solution mask {format(p, 'x')[:100]} is outside F2^{3 * n} or repeated")
    return SolutionSet(_columns(masks, 3 * n), count, n)
