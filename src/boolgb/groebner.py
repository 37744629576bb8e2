"""Buchberger's algorithm over F2, normal forms, and basis predicates.

The engine runs in either ring mode.  In boolean mode the field
relations v*v = v are part of the arithmetic, so on top of the ordinary
S-pairs the algorithm processes one extra task per basis element f and
variable v in the support of lm(f): the normal form of v*f.  Without
those tasks the implicit field equations are not covered and the output
can fail to be a basis of the quotient ideal.

Pair selection is the normal strategy (smallest lcm degree, ties broken
by the monomial order on the lcm, then by pair index).  The update step
is Gebauer-Moeller style: it applies the product criterion (coprime
leading monomials) and the chain criterion.  Reduction is deterministic:
always the largest reducible monomial, divided by the first divisor in
list order.

Inside the engine a monomial is one packed Python int (Monagan & Pearce,
CASC 2007); exponent tuples are packed where polynomials enter and
unpacked where they leave.  A `_Packing` fixes the layout for one
(nvars, mode, order, width):

- Boolean mode: a monomial is its support bitmask.  Multiply and lcm
  are `|`, a divides b is `a & b == a`.
- Full mode: one field of `width` bits per variable plus a total-degree
  field on top.  The top bit of every field is a guard bit that is zero
  in every stored monomial, so a divides b is `((b|G) - a) & G == G`
  and multiply is `+`.  The lcm selects each field from a or b with a
  mask built from the same subtraction, and recomputes the degree.
- Fields are 1, 2, 4, ... bytes wide, the fewest that hold twice the
  largest input degree; up to 8 bytes, one `struct` call packs or
  unpacks a whole monomial.  An lcm or product whose degree does not fit
  raises `_Overflow`; `buchberger` then widens the fields and restarts,
  so a field never wraps.  Reduction cannot overflow: under a degree
  order a reducer's tail is no larger in degree than its leading
  monomial, so no product outgrows the monomial it replaces.
- `key(m)` is one int that sorts exactly like `MonomialOrder.key` of the
  unpacked monomial: degree first, then the variables laid out from the
  most to the least significant one (x1 first for deglex; the last
  variable first, with every exponent complemented, for degrevlex).
"""

import heapq
import json
import operator
import struct
import time
from dataclasses import dataclass
from itertools import chain

from .polyring import (
    BOOLEAN,
    DEGLEX,
    MODES,
    ModeMismatchError,
    MonomialOrder,
    Polynomial,
    ZeroPolynomialError,
    get_order,
)
# The engine does not call these tuple kernels.  The benchmark's tracer
# (perfbench/tracing.py) wraps them as attributes of this module and fails
# if they are missing, so they stay imported until it stops counting them.
from .polyring import mono_divides, mono_lcm  # noqa: F401


DEFAULT_MAX_PAIRS = 10 ** 6
DEFAULT_MAX_BASIS = 10 ** 5
# largest n a basis dump may declare: every monomial becomes a dense
# tuple of 3n exponents
_MAX_DUMP_N = 1000


class ResourceLimitError(RuntimeError):
    """A configured pair or basis cap was exceeded; stats are attached."""

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats


class NotAGroebnerBasisError(ValueError):
    """Strict interreduction found an element that does not reduce to zero."""


class BasisFormatError(ValueError):
    """A basis document does not follow the dump_basis schema."""


@dataclass
class ReductionStats:
    """Counters for one engine run."""

    pairs_generated: int = 0
    pairs_skipped_by_criteria: int = 0
    reductions_to_zero: int = 0
    wall_time: float = 0.0

    def as_block(self, basis_size=None) -> str:
        """Flat key=value block (one entry per line)."""
        lines = [
            f"pairsGenerated={self.pairs_generated}",
            f"pairsSkippedByCriteria={self.pairs_skipped_by_criteria}",
            f"reductionsToZero={self.reductions_to_zero}",
            f"wallTimeMs={int(self.wall_time * 1000)}",
        ]
        if basis_size is not None:
            lines.append(f"basisSize={basis_size}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# packed monomials

_BITS = bytes.maketrans(b"\x00\x01", b"01")
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


class _Overflow(Exception):
    """A full-mode monomial of degree args[0] does not fit the packed fields."""


class _Packing:
    """Packed-int monomials for one ring, order and field width.

    Attributes that are callables are the kernels: pack, unpack, key,
    unkey, divides, first_divisor, lcm, mul, quo and support.
    """

    __slots__ = ("boolean", "fmax", "shifts", "dshift", "pack", "unpack",
                 "key", "unkey", "divides", "first_divisor", "lcm", "mul",
                 "quo", "support")

    def __init__(self, nvars, mode, order, degree):
        boolean = mode == BOOLEAN
        deglex = order.scheme == MonomialOrder.DEGLEX
        if boolean:
            width = 1
        else:
            # whole-byte fields that hold twice the largest input degree
            # (so an lcm of two input monomials always fits) and a guard bit
            nbytes = 1
            while 8 * nbytes <= max(2 * degree, 1).bit_length():
                nbytes *= 2
            width = 8 * nbytes
        fmax = (1 << (width - 1)) - 1 if width > 1 else 1
        if deglex:
            shifts = [width * (nvars - 1 - i) for i in range(nvars)]
        else:
            shifts = [width * i for i in range(nvars)]
        dshift = width * nvars  # the degree field (full mode) starts here
        vars_mask = (1 << dshift) - 1
        self.boolean = boolean
        self.fmax = fmax
        self.shifts = shifts
        self.dshift = dshift

        def unpack(p):
            return tuple((p >> s) & fmax for s in shifts)

        if boolean:
            flip = 0 if deglex else vars_mask
            # one '0'/'1' character per variable, the first one most significant
            if deglex:
                def pack(m):
                    return int(bytes(m).translate(_BITS), 2)
            else:
                def pack(m):
                    return int(bytes(m[::-1]).translate(_BITS), 2)

            def first_divisor(divisors, m):
                for i, d in enumerate(divisors):
                    if d & m == d:
                        return i
                return -1

            self.pack = pack
            self.unpack = unpack
            self.key = lambda m: (m.bit_count() << nvars) | (m ^ flip)
            self.unkey = lambda k: (k & vars_mask) ^ flip
            self.divides = lambda a, b: a & b == a
            self.first_divisor = first_divisor
            self.lcm = self.mul = int.__or__
            self.quo = int.__xor__
            self.support = int
            return

        if nbytes in _STRUCT_CODES:
            # fields of 1, 2, 4 or 8 bytes: one struct call per monomial
            byteorder = "big" if deglex else "little"
            fields = struct.Struct(
                (">" if deglex else "<") + str(nvars) + _STRUCT_CODES[nbytes])
            size = nbytes * nvars

            def pack(m):
                d = sum(m)
                if d > fmax:
                    raise _Overflow(d)
                return int.from_bytes(fields.pack(*m), byteorder) | (d << dshift)

            def unpack(p):
                return fields.unpack((p & vars_mask).to_bytes(size, byteorder))
        else:
            def pack(m):
                d = sum(m)
                if d > fmax:
                    raise _Overflow(d)
                return sum(map(operator.lshift, m, shifts)) | (d << dshift)

        low = width - 1
        ones = sum(1 << s for s in shifts)
        guard = sum(1 << (s + low) for s in shifts) | (1 << (dshift + low))
        values = ones * fmax  # every value bit of every variable field
        flip = 0 if deglex else values
        top = width * (nvars - 1)
        field = (1 << width) - 1

        def lcm(a, b):
            ge = ((a | guard) - b) & guard  # guard bits where a_i >= b_i
            sel = ge - (ge >> low)          # value bits of those fields
            v = ((a & sel) | (b & ~sel)) & vars_mask
            d = (v * ones >> top) & field   # sum of the variable fields
            if d > fmax:
                raise _Overflow(d)
            return v | (d << dshift)

        def mul(a, b):
            p = a + b
            if p & guard:
                raise _Overflow(p >> dshift)
            return p

        def first_divisor(divisors, m):
            mg = m | guard
            for i, d in enumerate(divisors):
                if (mg - d) & guard == guard:
                    return i
            return -1

        self.pack = pack
        self.unpack = unpack
        self.key = self.unkey = flip.__xor__
        self.divides = lambda a, b: ((b | guard) - a) & guard == guard
        self.first_divisor = first_divisor
        self.lcm = lcm
        self.mul = mul
        self.quo = int.__sub__
        # one guard bit per nonzero variable field: a spread support mask
        self.support = lambda m: (m + values) & guard & vars_mask

    def pack_terms(self, terms):
        return frozenset(map(self.pack, terms))

    def unpack_terms(self, terms):
        return frozenset(map(self.unpack, terms))


def _packing_for(polys, mode, order, nvars):
    """A packing whose fields fit every monomial of polys with headroom."""
    terms = chain.from_iterable(f.terms for f in polys)
    return _Packing(nvars, mode, order, max(map(sum, terms)))


def _mul_terms(pk, q, terms, acc):
    """acc + q*terms over F2: the one term-multiply kernel of the engine."""
    mul = pk.mul
    for t in terms:
        p = mul(q, t)
        if p in acc:
            acc.discard(p)
        else:
            acc.add(p)
    return acc


def _spoly_terms(pk, lmf, f_terms, lmg, g_terms):
    """Packed term set of the S-polynomial of f and g."""
    lcm = pk.lcm(lmf, lmg)
    acc = _mul_terms(pk, pk.quo(lcm, lmf), f_terms, set())
    return _mul_terms(pk, pk.quo(lcm, lmg), g_terms, acc)


def _support_vars(pk, m):
    """Flat indices of the variables of a packed boolean monomial."""
    return [v for v, s in enumerate(pk.shifts) if m >> s & 1]


class GeneratorSet:
    """A finite set of nonzero generators in one ring mode, with an order.

    Zero polynomials are dropped and duplicates removed (first occurrence
    wins), so len(polynomials) is the true generator count.
    """

    __slots__ = ("polynomials", "order", "mode", "nvars", "n")

    def __init__(self, polynomials, order: MonomialOrder = DEGLEX):
        polys = []
        seen = set()
        for f in polynomials:
            if f.is_zero or f in seen:
                continue
            seen.add(f)
            polys.append(f)
        if not polys:
            raise ValueError("generator set needs at least one nonzero polynomial")
        mode = polys[0].mode
        nvars = polys[0].nvars
        for f in polys:
            if f.mode != mode or f.nvars != nvars:
                raise ValueError("generators must share one mode and variable count")
        self.polynomials = tuple(polys)
        self.order = order
        self.mode = mode
        self.nvars = nvars
        self.n = nvars // 3

    def __len__(self):
        return len(self.polynomials)

    def __iter__(self):
        return iter(self.polynomials)

    def __repr__(self):
        return (f"GeneratorSet({len(self.polynomials)} polynomials, "
                f"n={self.n}, mode={self.mode!r}, order={self.order.scheme})")


class GroebnerBasis:
    """A list of basis elements sorted ascending by leading monomial.

    The `reduced` flag is a cache, never a proof; verification predicates
    recompute the property.
    """

    __slots__ = ("elements", "order", "mode", "nvars", "n", "reduced")

    def __init__(self, elements, order: MonomialOrder, reduced: bool = False):
        elements = list(elements)
        if not elements:
            raise ValueError("basis needs at least one element")
        if any(f.is_zero for f in elements):
            raise ZeroPolynomialError("basis elements must be nonzero")
        mode = elements[0].mode
        nvars = elements[0].nvars
        for f in elements:
            if f.mode != mode or f.nvars != nvars:
                raise ModeMismatchError(
                    "basis elements must share one mode and variable count")
        elements.sort(key=lambda f: order.key(max(f.terms, key=order.key)))
        self.elements = tuple(elements)
        self.order = order
        self.mode = mode
        self.nvars = nvars
        self.n = nvars // 3
        self.reduced = reduced

    def leading_monomials(self):
        return [max(f.terms, key=self.order.key) for f in self.elements]

    def as_set(self):
        return frozenset(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return (f"GroebnerBasis({len(self.elements)} elements, n={self.n}, "
                f"mode={self.mode!r}, order={self.order.scheme}, reduced={self.reduced})")


# ---------------------------------------------------------------------------
# reduction

class _Reducer:
    """Packed reducer list with a divisor cache."""

    __slots__ = ("pk", "lms", "tails", "hits", "misses")

    def __init__(self, pk, term_sets=()):
        self.pk = pk
        self.lms = []
        self.tails = []
        self.hits = {}       # monomial -> index of first divisor (stable: appends only)
        self.misses = set()  # monomials no current leading monomial divides
        for terms in term_sets:
            self.append(terms)

    def append(self, terms):
        if len(terms) == 1:
            (lm,) = terms
        else:
            lm = max(terms, key=self.pk.key)
        self.lms.append(lm)
        self.tails.append(tuple(terms - {lm}))
        if self.misses:
            divides = self.pk.divides
            self.misses = {m for m in self.misses if not divides(lm, m)}

    def find_divisor(self, m):
        """Index of the first leading monomial dividing m, or -1."""
        if m in self.misses:
            return -1
        idx = self.hits.get(m)
        if idx is not None:
            return idx
        idx = self.pk.first_divisor(self.lms, m)
        if idx < 0:
            self.misses.add(m)
        else:
            self.hits[m] = idx
        return idx


def _reduce_terms(terms, red: _Reducer):
    """Full normal form of a packed term set against the reducers.

    Processes monomials largest-first via a heap of negated keys; every
    replacement monomial is strictly smaller than the one it replaces,
    so a single descending pass is complete.  Duplicate heap entries
    cancel in pairs (coefficients are mod 2).
    """
    pk = red.pk
    key, unkey, mul, quo = pk.key, pk.unkey, pk.mul, pk.quo
    if not pk.boolean:
        mul = int.__add__  # cannot overflow: see the module docstring
    lms, tails, find = red.lms, red.tails, red.find_divisor
    heappush, heappop = heapq.heappush, heapq.heappop
    heap = [-key(m) for m in terms]
    heapq.heapify(heap)
    out = []
    while heap:
        k = heappop(heap)
        count = 1
        while heap and heap[0] == k:
            heappop(heap)
            count += 1
        if not count & 1:
            continue
        m = unkey(-k)
        i = find(m)
        if i < 0:
            out.append(m)
            continue
        q = quo(m, lms[i])
        for t in tails[i]:
            heappush(heap, -key(mul(q, t)))
    return frozenset(out)


def normal_form(f: Polynomial, G, order: MonomialOrder = DEGLEX) -> Polynomial:
    """Remainder of f under multivariate division by the list G.

    No monomial of the result is divisible by any leading monomial of G,
    and the result is congruent to f modulo the ideal (G).  G may be a
    GroebnerBasis or any list of nonzero polynomials; the zero input is
    allowed and maps to zero.
    """
    if isinstance(G, GroebnerBasis):
        order = G.order
        G = G.elements
    G = list(G)
    if not G or f.is_zero:
        return f
    for g in G:
        if g.is_zero:
            raise ZeroPolynomialError("reducers must be nonzero")
        if g.mode != f.mode or g.nvars != f.nvars:
            raise ModeMismatchError(
                "reducers must match the mode and variable count of f")
    pk = _packing_for(G + [f], f.mode, order, f.nvars)
    red = _Reducer(pk, [pk.pack_terms(g.terms) for g in G])
    r = _reduce_terms(pk.pack_terms(f.terms), red)
    return Polynomial(pk.unpack_terms(r), f.nvars, f.mode)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder = DEGLEX) -> Polynomial:
    """S-polynomial (lcm/lm(f))*f + (lcm/lm(g))*g; signs vanish over F2."""
    if f.is_zero or g.is_zero:
        raise ZeroPolynomialError("s_polynomial requires nonzero operands")
    if f.mode != g.mode or f.nvars != g.nvars:
        raise ModeMismatchError("operands must share one mode and variable count")
    pk = _packing_for((f, g), f.mode, order, f.nvars)
    tf, tg = pk.pack_terms(f.terms), pk.pack_terms(g.terms)
    s = _spoly_terms(pk, max(tf, key=pk.key), tf, max(tg, key=pk.key), tg)
    return Polynomial(pk.unpack_terms(s), f.nvars, f.mode)


# ---------------------------------------------------------------------------
# Buchberger

def buchberger(F: GeneratorSet, max_pairs: int = DEFAULT_MAX_PAIRS,
               max_basis: int = DEFAULT_MAX_BASIS):
    """Compute a (not yet reduced) Groebner basis of (F).

    Returns (GroebnerBasis with reduced=False, ReductionStats).  Raises
    ResourceLimitError, with the stats so far attached, when more than
    max_pairs candidate pairs are generated or the working basis exceeds
    max_basis elements.
    """
    t0 = time.perf_counter()
    pk = _packing_for(F.polynomials, F.mode, F.order, F.nvars)
    while True:
        try:
            return _buchberger(F, pk, max_pairs, max_basis, t0)
        except _Overflow as exc:
            pk = _Packing(F.nvars, F.mode, F.order, exc.args[0])


def _buchberger(F, pk, max_pairs, max_basis, t0):
    key, lcm, divides = pk.key, pk.lcm, pk.divides
    first_divisor = pk.first_divisor
    stats = ReductionStats()

    red = _Reducer(pk)
    lms = red.lms
    masks = []        # support masks of the leading monomials
    full_terms = []   # packed term sets of working elements
    live = {}         # live ordinary pairs: (i, j) -> lcm
    heap = []         # (lcm key, kind, i, j); pruned pairs skipped at pop

    def update(new_terms):
        """Gebauer-Moeller insertion of a new element."""
        t = len(full_terms)
        if t + 1 > max_basis:
            stats.wall_time = time.perf_counter() - t0
            raise ResourceLimitError(f"basis cap exceeded ({max_basis})", stats)
        lmf = max(new_terms, key=key)
        maskf = pk.support(lmf)

        stats.pairs_generated += t
        pruned = 0
        # chain criterion: prune existing pairs made redundant by the new lm
        for pair, lcm_ij in [item for item in live.items() if divides(lmf, item[1])]:
            i, j = pair
            if lcm(lms[i], lmf) != lcm_ij and lcm(lms[j], lmf) != lcm_ij:
                del live[pair]
                pruned += 1

        # group candidate pairs by lcm, keep one representative per minimal lcm
        groups = {}
        for i, lm in enumerate(lms):
            groups.setdefault(lcm(lm, lmf), []).append(i)
        minimal = []
        for lcm_f in sorted(groups, key=key):
            members = groups[lcm_f]  # ascending indices
            if first_divisor(minimal, lcm_f) >= 0:
                pruned += len(members)
                continue
            minimal.append(lcm_f)
            # product criterion: coprime leading monomials reduce to zero
            if any(masks[i] & maskf == 0 for i in members):
                pruned += len(members)
            else:
                live[(members[0], t)] = lcm_f
                heapq.heappush(heap, (key(lcm_f), 0, members[0], t))
                pruned += len(members) - 1
        stats.pairs_skipped_by_criteria += pruned

        full_terms.append(new_terms)
        red.append(new_terms)
        masks.append(maskf)
        if pk.boolean:
            for v in _support_vars(pk, lmf):
                stats.pairs_generated += 1
                heapq.heappush(heap, (key(lmf), 1, t, v))
        if stats.pairs_generated > max_pairs:
            stats.wall_time = time.perf_counter() - t0
            raise ResourceLimitError(f"pair cap exceeded ({max_pairs})", stats)

    for f in F.polynomials:
        update(pk.pack_terms(f.terms))

    while heap:
        _, kind, i, j = heapq.heappop(heap)
        if kind == 0:
            if live.pop((i, j), None) is None:
                continue  # pruned by the chain criterion after being queued
            if len(full_terms[i]) == 1 and len(full_terms[j]) == 1:
                # S-polynomial of two monomials is identically zero over F2
                stats.reductions_to_zero += 1
                continue
            s_terms = _spoly_terms(pk, lms[i], full_terms[i], lms[j], full_terms[j])
        else:
            # field task: v*f, where a boolean variable is one bit
            s_terms = _mul_terms(pk, 1 << pk.shifts[j], full_terms[i], set())
        r = _reduce_terms(s_terms, red) if s_terms else frozenset()
        if r:
            update(r)
        else:
            stats.reductions_to_zero += 1

    stats.wall_time = time.perf_counter() - t0
    basis = GroebnerBasis(
        [Polynomial(pk.unpack_terms(t), F.nvars, F.mode) for t in full_terms],
        F.order, reduced=False)
    return basis, stats


# ---------------------------------------------------------------------------
# interreduction and predicates

def interreduce(G: GroebnerBasis, strict: bool = False) -> GroebnerBasis:
    """The unique reduced Groebner basis of the ideal of G (same order).

    Keeps only elements whose leading monomial is divisible by no other
    kept leading monomial, then fully normal-forms every tail against the
    kept elements.  One reducer serves every tail: a tail monomial is
    smaller than its own leading monomial, which therefore never divides
    it.  Over F2 everything is monic already.  With strict=True, every
    discarded element is checked to reduce to zero against the result
    (NotAGroebnerBasisError otherwise).
    """
    pk = _packing_for(G.elements, G.mode, G.order, G.nvars)
    red = _Reducer(pk)  # the kept elements
    removed = []
    # G.elements ascend by leading monomial, so divisors come first
    for f in G.elements:
        terms = pk.pack_terms(f.terms)
        if red.find_divisor(max(terms, key=pk.key)) >= 0:
            removed.append(f)
        else:
            red.append(terms)
    reduced = [
        Polynomial(pk.unpack_terms(_reduce_terms(tail, red) | {lm}), G.nvars, G.mode)
        for lm, tail in zip(red.lms, red.tails)]
    result = GroebnerBasis(reduced, G.order, reduced=True)
    if strict:
        for f in removed:
            if not normal_form(f, result).is_zero:
                raise NotAGroebnerBasisError(
                    "discarded element does not reduce to zero; "
                    "input was not a Groebner basis")
    return result


def is_groebner_basis(polys, order: MonomialOrder = DEGLEX,
                      use_criteria: bool = True) -> bool:
    """True iff every S-polynomial of a pair reduces to zero against the list.

    With use_criteria=False the check is fully exhaustive (no pair is
    skipped).  In boolean mode the implicit field tasks v*f are checked
    as well.
    """
    polys = list(polys)
    if not polys:
        return True
    if isinstance(order, str):
        order = get_order(order)
    pk = _packing_for(polys, polys[0].mode, order, polys[0].nvars)
    terms = [pk.pack_terms(f.terms) for f in polys]
    red = _Reducer(pk, terms)
    lms = red.lms
    masks = [pk.support(lm) for lm in lms]
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if use_criteria and masks[i] & masks[j] == 0:
                continue  # product criterion: provably reduces to zero
            if len(terms[i]) == 1 and len(terms[j]) == 1:
                continue  # monomial pair: S-polynomial is zero over F2
            s_terms = _spoly_terms(pk, lms[i], terms[i], lms[j], terms[j])
            if s_terms and _reduce_terms(s_terms, red):
                return False
    if pk.boolean:
        for i, lm in enumerate(lms):
            for v in _support_vars(pk, lm):
                s_terms = _mul_terms(pk, 1 << pk.shifts[v], terms[i], set())
                if s_terms and _reduce_terms(s_terms, red):
                    return False
    return True


def is_reduced_basis(polys, order: MonomialOrder = DEGLEX) -> bool:
    """True iff leading monomials are pairwise non-divisible and all tails
    are reduced (no monomial of any element divisible by another's lm)."""
    polys = list(polys)
    if not polys:
        return True
    pk = _packing_for(polys, polys[0].mode, order, polys[0].nvars)
    key = pk.key
    packed = [pk.pack_terms(f.terms) for f in polys]
    # ascending by leading monomial, a divisor is always inserted first
    red = _Reducer(pk)
    for terms in sorted(packed, key=lambda t: key(max(t, key=key))):
        if red.find_divisor(max(terms, key=key)) >= 0:
            return False
        red.append(terms)
    # a tail monomial is below its own lm, so any divisor is another lm
    return not any(red.find_divisor(m) >= 0 for tail in red.tails for m in tail)


def ideal_membership(f: Polynomial, G: GroebnerBasis) -> bool:
    """True iff f lies in the ideal of the Groebner basis G (normal form 0)."""
    return normal_form(f, G).is_zero


def groebner_basis(F: GeneratorSet, max_pairs: int = DEFAULT_MAX_PAIRS,
                   max_basis: int = DEFAULT_MAX_BASIS, strict: bool = False):
    """Reduced Groebner basis of (F): buchberger followed by interreduce."""
    raw, stats = buchberger(F, max_pairs=max_pairs, max_basis=max_basis)
    return interreduce(raw, strict=strict), stats


# ---------------------------------------------------------------------------
# basis dump format

def dump_basis(G: GroebnerBasis) -> str:
    """JSON text: {n, mode, order, elements}; elements ascending by leading
    monomial, monomials within an element descending (leading first),
    each monomial a sparse [[varFlat, exp], ...] list."""
    keyf = G.order.key
    elements = []
    for f in G.elements:
        monos = sorted(f.terms, key=keyf, reverse=True)
        elements.append([[[i, e] for i, e in enumerate(m) if e] for m in monos])
    payload = {
        "n": G.n,
        "mode": G.mode,
        "order": G.order.scheme,
        "elements": elements,
    }
    return json.dumps(payload)


def load_basis(text: str) -> GroebnerBasis:
    """Parse and validate a dump_basis document.

    Raises BasisFormatError unless the text is a JSON object with an
    integer n in 1.._MAX_DUMP_N, a known mode and order, and a nonempty list of
    nonempty elements whose monomials are lists of [varFlat, exp] pairs
    (each variable in 0..3n-1 at most once, exp >= 1, and exp == 1 in
    boolean mode) listed strictly descending under the declared order.
    The reduced flag is not part of the schema and is restored as False
    (flags are caches, never proofs).
    """
    try:
        payload = json.loads(text)
        n, mode, elements = payload["n"], payload["mode"], payload["elements"]
        order = get_order(payload["order"])
    except (ValueError, TypeError, KeyError) as exc:
        raise BasisFormatError(f"not a basis dump: {exc!r}") from None
    if not (_is_int(n) and 1 <= n <= _MAX_DUMP_N and mode in MODES
            and isinstance(elements, list) and elements):
        raise BasisFormatError(
            f"bad basis dump header: n={n!r}, mode={mode!r}, "
            f"{len(elements) if isinstance(elements, list) else 'no'} elements")
    nvars = 3 * n
    max_exp = 1 if mode == BOOLEAN else float("inf")
    polys = []
    for index, element in enumerate(elements):
        monos = _load_element(element, nvars, max_exp)
        keys = [order.key(m) for m in monos or ()]
        if not monos or any(a <= b for a, b in zip(keys, keys[1:])):
            raise BasisFormatError(
                f"element {index} breaks the basis dump schema (monomials are "
                f"lists of [varFlat, exp] pairs, varFlat in 0..{nvars - 1} at "
                f"most once, exp >= 1, and 1 in boolean mode, listed strictly "
                f"descending under {order.scheme}): {json.dumps(element)[:100]}")
        polys.append(Polynomial(monos, nvars, mode))
    return GroebnerBasis(polys, order, reduced=False)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _load_element(element, nvars, max_exp):
    """Exponent tuples of one dumped element; None if a monomial is malformed."""
    if not isinstance(element, list):
        return None
    monos = []
    for sparse in element:
        if not isinstance(sparse, list):
            return None
        m = [0] * nvars
        for pair in sparse:
            if not (isinstance(pair, list) and len(pair) == 2
                    and _is_int(pair[0]) and _is_int(pair[1])
                    and 0 <= pair[0] < nvars and not m[pair[0]]
                    and 1 <= pair[1] <= max_exp):
                return None
            m[pair[0]] = pair[1]
        monos.append(tuple(m))
    return monos
