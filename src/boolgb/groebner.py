"""Buchberger's algorithm over F2, normal forms, and basis predicates.

The engine runs in either ring mode.  In boolean mode the field
relations v*v = v are part of the arithmetic, so on top of the ordinary
S-pairs the algorithm processes one extra task per basis element f and
variable v in the support of lm(f): the normal form of v*f.  Without
those tasks the implicit field equations are not covered and the output
can fail to be a basis of the quotient ideal.  One kernel, `_task_terms`,
builds every task, S-pair or field task, for the engine, the predicates
and `s_polynomial` alike, but for the one-monomial S-polynomials that
`is_groebner_basis` forms itself (below).  It never forms the lcm terms
of an S-pair, which cancel mod 2: the S-polynomial of f and g is
(lcm/lm f)*tail(f) + (lcm/lm g)*tail(g).  Its products go to the
reduction kernel as they are, repeats included, since reduction cancels
equal monomials in pairs; only `s_polynomial` sums them mod 2 itself.

Pair selection is the normal strategy (smallest lcm degree, ties broken
by the monomial order on the lcm, then by pair index).  The update step
is Gebauer-Moeller style (JSC 1988): it applies the product criterion
(coprime leading monomials); the chain criterion is checked when a pair
pops.  A monomial pairs only with the elements that are not monomials,
and in boolean mode gets no field tasks (v*m = m); a pair of two
monomials has a zero S-polynomial, so it counts as processed unformed.
A pair of a monomial m and an element f with g = gcd(m, lm f) has the
S-polynomial (m/g)*tail(f); the monomial criterion drops it when g
divides the gcd of f's tail (computed once, when f enters), since then
m divides every monomial of it.  It is the product criterion's
generalization (g = 1) and acts exactly like it: a group of pairs with
one lcm is dropped when one member meets either criterion, and its lcm
still prunes the larger lcms of the same update.

An update reads each partner's lcm by its excess e = lcm/lm_f over the
new leading monomial, as lcm_a | lcm_b exactly when e_a | e_b, and
computes all of them in one batch (`_Packing.excesses`, after the
guard-bit arithmetic of Monagan & Pearce): the partners' leading
monomials sit back to back in fixed-width slots of a bytearray that the
update appends to: one for all elements, one for the non-monomials and
one for the uncovered ones (below).  One kernel serves both ring modes
around a per-mode core of a few big-int operations, which gives every
excess and, per slot, the bits of the pair's gcd lm_i/e outside its
bound; a carry per slot turns those into a flag, set where the gcd
divides the bound.  That is the
criteria: the monomial criterion bounds the gcd by the gcd of the
non-monomial's tail (kept in a parallel bytearray), the product
criterion by 1 (e = lm_i).  Partners of one excess form a group.  If
some e is 1 (a partner's lm divides lm_f), that lcm is the only minimal
one.  Otherwise an excess of degree 1 is one variable, which no other
excess properly divides and which divides exactly the excesses that
contain it: those variables are minimal, and one AND with the mask of
their exponent fields prunes every excess that contains one.  Only the
few left, as one set (582 of 13,746 distinct lcms on full deglex H(6)),
are checked among themselves, a level against the minimal ones of lower
degree, as two distinct monomials of one degree never divide each
other.  The lowest partner of a group is looked up only when it queues
a pair.  A batch holds no lcm of degree past the fields, by the width
rule below: the update admits lm_f only when the fields hold twice its
degree, and every partner was admitted so.

Call a non-monomial f covered when every variable of lm f divides the
gcd of its tail, as each x^2 + x in the full ring; then lm f has an
exponent of at least 2, or it would divide its own smaller tail.  A
squarefree monomial m may leave such partners out of its update:
- the pair is known zero: gcd(m, lm f) is squarefree, so it divides
  the radical of lm f, which divides the tail's gcd;
- f's excess lm f/gcd(m, lm f) keeps an exponent of at least 1 where
  lm f has one of at least 2, so it divides no excess of a partner
  whose leading monomial is squarefree.
So while every uncovered non-monomial has a squarefree leading monomial
(a flag that turns off for good, as elements never leave), m's batch
reads only the uncovered ones, from their own slots and tail gcds, and
the others still count as skipped by the criteria.  The flag is needed:
for m = x1, the covered x1^2 + x1 has the excess x1, which divides the
excess x1*y1 of x1^2*y1 + z1 and so prunes that pair.  No Boolean
element is covered and every Boolean monomial is squarefree, so both
modes take one path.  That batch depends on supports alone: the excess
lm f/gcd(m, lm f) is the support of lm f less that of m, the gcd
divides f's tail gcd exactly when its support lies in that gcd's, and
the key orders squarefree monomials as the Boolean key orders their
supports.  So in both modes it reads support masks, with the kernels of
the Boolean packing (`_Packing.masks`), and lifts back to a packed
monomial only a queued excess, once per distinct one a run.

The chain criterion drops a queued pair (i, j) as it pops when some
element t > j, so added since the pair was queued, has lm_t | lcm_ij
while lcm(lm_i, lm_t) and lcm(lm_j, lm_t) both differ from lcm_ij.
These are exactly the pairs an update would prune at the arrival of
each t, as no leading monomial, lcm or heap key ever changes; only the
heap holds pair state.  On seeded random systems in 3 or 4 blocks that
query drops a quarter to a third of the queued pairs; on H(n) it never
fires.  One cheaper rule goes before it: a task each of whose terms has
a monomial first divisor reduces to zero in one step, whatever cancels,
as each term is removed and replaced by nothing.  The reducer's kernel
`settles` tests it, and such a task counts as a reduction to zero with
no chain query and no call of `reduce`.  A one-term task with no
divisor is its own normal form, so after the chain query it enters the
basis without a reduction.  Neither step adds or drops an element, so
every basis is the same as with the chain query alone.  On full deglex
H(8) the rule settles 63,424 of the 70,048 popped tasks, and 64 reach a
reduction.  A popped pair's heap key unpacks to lcm_ij, which both the
chain check and the pair's S-polynomial read, so the pop loop computes
no lcm.

Divisibility searches read one support index (after Roune & Stillman,
ISSAC 2012), the reducer's: a list of int columns, one per flag of the
`flags` kernel, with a bit per element whose leading monomial sets that
flag.  A monomial has one flag per variable that occurs in it and one,
the square flag, when it is not squarefree.  A reducer built from a
list of elements fills each column in one pass, so in time linear in
the list; `extend(element)` appends one element, as the engine does,
and one walk, `divisors(m, above)`, reads the index: the divisors of m are
among the elements in no column of a flag m lacks, found by one OR over
those columns.  A squarefree m thus leaves out every leading monomial
with a square at once, so each of its candidates divides it.  `divides`
still confirms every candidate, as an m with a square keeps the square
column and a candidate's exponents may pass m's.  Reduction
always divides the largest reducible monomial by its first divisor in
basis order (ascending leading monomial, ties in the order given); the
chain criterion reads the divisors of lcm_ij above j.  One memo map
answers the first-divisor lookup: a monomial's entry is its first
divisor's index, or ~c for a miss found at c elements (no entry reads
as ~0), so every lookup is one dict read, a negative one a miss.  A
lookup after a miss walks only the elements appended since, and none on
a basis that does not grow; when the element appended at that count has
lm m, `extend` records it as m's first divisor, as no earlier element
divides m.  The one reduction kernel, `reduce`, is bound once per
reducer, as a closure over the order key, the multiply, the reducer's
element lists and its memo; the engine, `interreduce`,
`normal_form` and `is_groebner_basis` all call it.  The pop loop and
`is_groebner_basis` ask the settle rule, `settles`, first.  The latter
runs over the non-monomials.  A non-monomial j reads, in one excess
batch, the monomials whose leading monomials share a variable with lm_j
(the product criterion leaves out the others): the S-polynomial of j and
such a monomial is q*tail_j for its excess q = lcm/lm_j, so j checks each
distinct q once, and a one-term tail's S-polynomial, the monomial q*t,
which the predicate forms itself, is checked once over all j.  A second
batch over the earlier non-monomials, with the packed 1 as every bound,
gives each lcm lm_j*e and flags the coprime pairs.  On full G(6) that is
72 batches and 2,241 tasks for 765 elements.  Every basis meets the
width rule.

Inside the engine a monomial is one packed Python int (Monagan & Pearce,
CASC 2007), and an element is its packed terms in descending order:
lm first, then the tail, kept by the reducer as lms[i] and tails[i], the
engine's one working set.  Exponent tuples are packed where polynomials
enter and unpacked where they leave.  A `GroebnerBasis` holds its
elements only packed, in the one reducer that every read of it uses;
`buchberger` and `interreduce` build theirs from the packed elements
they hold, `load_basis` packs each dumped monomial once and checks the
order of an element on its packed keys, and every basis unpacks its
`elements` only when they are first read.  Those `elements`
lead back to the basis by a weak reference, so the predicates and
`normal_form`, given them with the basis's order, read its reducer and
share its first-divisor memo rather than packing them again.  A
`_Packing` fixes the layout for one (nvars, mode, order, width):

- Boolean mode: a monomial is its support bitmask.  Multiply and lcm
  are `|`, the gcd is `&`, a divides b is `a & b == a`.
- Full mode: one field of `width` bits per variable plus a total-degree
  field on top.  The top bit of every field is a guard bit that is zero
  in every stored monomial, so a divides b is `((b|G) - a) & G == G`
  and multiply is `+`.  The lcm selects each field from a or b with a
  mask built from the same subtraction and recomputes the degree; the
  gcd is `a + b - lcm(a, b)`.
- The quotient a/b is `a - b` in both modes: every quotient taken has
  its divisor, and a bitmask b inside a gives a - b = a ^ b.
- Fields are 1, 2, 4, ... bytes wide, the fewest that hold twice the
  largest input degree; up to 8 bytes, one `struct` call packs or
  unpacks a whole monomial.  The width rule: the fields hold twice the
  degree of every leading monomial in the basis.  Under a degree order
  a tail monomial is no larger in degree than its leading monomial, and
  no field exceeds the total degree, so every lcm of two elements fits,
  and every product is bounded by an lcm or by the monomial it
  replaces.  Two places raise `_Overflow`: `pack`, and the update when
  an entering element's leading monomial breaks the rule.  `buchberger`
  then widens the fields and restarts, and `normal_form` packs a query
  too wide for a basis's fields anew, so a field never wraps.
- `key(m)` is one int that sorts exactly like `MonomialOrder.key` of the
  unpacked monomial: degree first, then the variables laid out from the
  most to the least significant one (x1 first for deglex; the last
  variable first, with every exponent complemented, for degrevlex).
"""

import functools
import heapq
import itertools
import json
import operator
import struct
import sys
import time
import weakref

from .polyring import (
    BOOLEAN,
    DEGLEX,
    FULL,
    MODES,
    MonomialOrder,
    Polynomial,
    ZeroPolynomialError,
    _check_compatible,
    _sum_mod2,
    _trusted_poly,
    get_order,
)
# The engine does not call these tuple kernels.  The benchmark's tracer
# (perfbench/tracing.py) wraps them as attributes of this module and fails
# if they are missing, so they stay imported until it stops counting them.
from .polyring import mono_divides, mono_lcm  # noqa: F401


DEFAULT_MAX_PAIRS = 10 ** 6
DEFAULT_MAX_BASIS = 10 ** 5
# largest n a generator file or basis dump may declare: every monomial
# becomes a dense tuple of 3n exponents
MAX_FILE_N = 1000


class ResourceLimitError(RuntimeError):
    """A configured pair or basis cap was exceeded; stats are attached."""

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats


class NotAGroebnerBasisError(ValueError):
    """Strict interreduction found an element that does not reduce to zero."""


class BasisFormatError(ValueError):
    """A basis document does not follow the dump_basis schema."""


class ReductionStats:
    """Counters for one engine run; the pair cap compares pairs_queued.

    Every generated candidate (ordinary pair or Boolean field task) is
    either queued, skipped by a criterion, or never formed because it is
    a pair of two monomials or a field task of a monomial (pairs_monomial),
    so pairs_generated is their sum.  A queued pair that the chain query
    drops as it pops counts in pairs_chain_pruned as well.  Every other
    queued task reduces to zero or adds an element; one whose terms all
    have a monomial first divisor counts as a reduction to zero with no
    chain query.
    """

    def __init__(self):
        self.pairs_queued = 0
        self.pairs_skipped_by_criteria = 0
        self.pairs_monomial = 0
        self.pairs_chain_pruned = 0
        self.reductions_to_zero = 0
        self.wall_time = 0.0

    @property
    def pairs_generated(self):
        return self.pairs_queued + self.pairs_skipped_by_criteria + self.pairs_monomial

    def as_block(self, basis_size=None) -> str:
        """Flat key=value block (one entry per line)."""
        lines = [
            f"pairsGenerated={self.pairs_generated}",
            f"pairsQueued={self.pairs_queued}",
            f"pairsSkippedByCriteria={self.pairs_skipped_by_criteria}",
            f"pairsMonomial={self.pairs_monomial}",
            f"pairsChainPruned={self.pairs_chain_pruned}",
            f"reductionsToZero={self.reductions_to_zero}",
            f"wallTimeMs={int(self.wall_time * 1000)}",
        ]
        if basis_size is not None:
            lines.append(f"basisSize={basis_size}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# packed monomials

_BITS = bytes.maketrans(b"\x00\x01", b"01")
_UNBITS = bytes.maketrans(b"01", b"\x00\x01")
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
# 1 for a byte whose top bit is clear
_CLEAR = bytes(x < 128 for x in range(256))
# 1 for each flag digit '0', 0 for each '1'
_LACKS = bytes.maketrans(b"01", b"\x01\x00")


def _splitter(size):
    """A function from little-endian bytes of size-byte slots to their ints."""
    if size in _STRUCT_CODES and sys.byteorder == "little":
        code = _STRUCT_CODES[size]
        return lambda b: memoryview(b).cast(code).tolist()
    unpack = struct.Struct(f"{size}s").iter_unpack
    return lambda b: list(map(int.from_bytes, map(operator.itemgetter(0), unpack(b)),
                              itertools.repeat("little")))



class _Overflow(Exception):
    """A full-mode monomial of degree args[0] does not fit the packed fields."""


class _Packing:
    """Packed-int monomials for one ring, order and field width.

    Attributes that are callables are the kernels: pack, unpack, key,
    unkey, degree, divides, any_divides, lcm, gcd, mul, support, flags,
    slot, excesses, mask and lift.  any_divides(ms, b) is True when some
    monomial of the list ms divides b, in one C-level loop.  There is no
    quotient kernel: a/b is a - b in both modes, for b dividing a (see
    the module docstring).  Of the kernels only pack raises
    _Overflow.  Full-mode lcm and gcd need the width rule: the fields
    hold twice the degree of each operand, as of every leading monomial
    the engine admits.

    flags(m) is a bytes of binary digits, the same length for every
    monomial: first the square flag, b"1" when m is not squarefree, then
    one flag per variable, b"1" when it occurs in m.  In full mode they
    are read off the support's guard bits, one per field, with the degree
    field's guard bit set where the degree passes the number of
    variables; in Boolean mode they are m's own binary digits, under a
    square flag that is always b"0".

    The batch kernels work on runs of slots: slot(m) is m as the bytes of
    one fixed-width, little-endian slot (full mode: the variable fields
    and an empty degree field; Boolean mode: padded to 1, 2, 4 or 8
    bytes, past the variables).  excesses(slots, f, bounds=b"", g=None)
    reads k monomials a_i from slots and k bounds h_i from bounds (the
    packed 1 if none, each ANDed with g if given) and returns the list of
    lcm(a_i, f)/f and k bytes, 1 where gcd(a_i, f) divides h_i.
    Each mode gives it only a core over the whole run as ints, which
    returns the excesses and the bits of each gcd outside its bound; the
    full core is lcm's guard-bit selection, with each degree field filled
    by one multiply by `ones`, which the width rule keeps within fmax.

    masks is the Boolean packing of the same variables and order (the
    packing itself in Boolean mode), whose monomials are support masks.
    mask(m) is m's support as one of them, int(flags(m)[1:], 2), and
    lift(e) the squarefree monomial of this packing with support e.  On
    squarefree monomials the two packings agree: masks' key orders them
    as key does, its degree is theirs, its divisibility is theirs, and its
    lcm, gcd and quotient lift to theirs.
    """

    __slots__ = ("boolean", "fmax", "shifts", "pack", "unpack", "key", "unkey",
                 "degree", "divides", "any_divides", "lcm", "gcd", "mul", "support",
                 "flags", "slot", "excesses", "_masks", "mask", "lift")

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

        if boolean:
            flip = 0 if deglex else vars_mask
            # one '0'/'1' character per variable, the first one most significant
            digits = f"0{nvars}b"
            # x1 first for deglex, the last variable first for degrevlex; a
            # tuple or bytes sliced [::1] is the object itself
            step = 1 if deglex else -1

            def pack(m):
                return int(bytes(m[::step]).translate(_BITS), 2)

            def unpack(p):
                return tuple(format(p, digits).encode().translate(_UNBITS)[::step])

            self.pack = pack
            self.unpack = unpack
            self.key = lambda m: (m.bit_count() << nvars) | (m ^ flip)
            self.unkey = lambda k: (k & vars_mask) ^ flip
            self.degree = int.bit_count
            self.divides = lambda a, b: a & b == a
            self.any_divides = lambda ms, b: 0 in map((~b).__and__, ms)
            self.lcm = self.mul = int.__or__
            self.gcd = int.__and__
            self.support = int
            # the binary digits of m under the square flag 0 and a leading 1,
            # which fixes their count; [3:] drops the "0b1"
            top = 2 << nvars
            self.flags = lambda m: bin(m | top).encode()[3:]
            # slots of 1, 2, 4 or 8 bytes, split in one cast, with a spare
            # top bit above the variables
            span = next((s for s in (1, 2, 4, 8) if 8 * s > nvars), nvars // 8 + 1)

            def slot(m):
                return m.to_bytes(span, "little")

            def core(a, fs, h, k):
                # the excesses a_i & ~f; the bits of the gcd a_i & f outside h_i
                return a & ~fs, a & fs & ~h

            self._masks = None  # masks is the packing itself, with no cycle
            self.mask = self.lift = int
        else:
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

                def unpack(p):
                    return tuple((p >> s) & fmax for s in shifts)

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
                # the sum of the variable fields, at most fmax by the width rule
                return v | (((v * ones >> top) & field) << dshift)

            def gcd(a, b):
                # min = a + b - max, field by field: a + b carries nowhere, as
                # each is of degree at most fmax/2
                return a + b - lcm(a, b)

            self.pack = pack
            self.unpack = unpack
            self.key = self.unkey = flip.__xor__
            self.degree = lambda m: m >> dshift
            self.divides = lambda a, b: ((b | guard) - a) & guard == guard
            self.any_divides = lambda ms, b: guard in map(
                guard.__and__, map((b | guard).__sub__, ms))
            self.lcm = lcm
            self.gcd = gcd
            self.mul = int.__add__
            # one guard bit per nonzero variable field: a spread support mask
            var_guards = guard & vars_mask
            self.support = lambda m: (m + values) & var_guards

            # a slot holds the variable fields and an empty degree field, so
            # that a subtraction of slots borrows across no slot
            span = nbytes * (nvars + 1)
            square = 1 << (dshift + low)  # the degree field's guard bit
            # the digit 0 in the top byte of every field
            zeros = int.from_bytes(b"0".ljust(nbytes, b"\0") * (nvars + 1), "big")

            def flags(m):
                # the support, and the square flag where the degree d passes
                # the number c of variables: d + fmax - c > fmax
                s = (m + values) & var_guards
                s |= (m + ((fmax - s.bit_count()) << dshift)) & square
                # each guard bit moved to bit 0 of its field's top byte, and
                # the top bytes, big-endian, read off as digits
                return ((s >> 7) | zeros).to_bytes(span, "big")[::nbytes]

            self.flags = flags
            guards = var_guards.to_bytes(span, "little")
            degrees = (fmax << dshift).to_bytes(span, "little")

            def slot(m):
                return (m & vars_mask).to_bytes(span, "little")

            def core(a, fs, h, k):
                gs = int.from_bytes(guards * k, "little")
                d = (a | gs) - fs
                ge = d & gs                       # guard bits where a_i >= f_i
                v = d & (ge - (ge >> low))        # there a_i - f_i, elsewhere 0
                # the excesses, each degree summed at `top` by one multiply;
                # the guard bits of the gcd a_i - v_i's fields above h_i's
                return (v | v * ones << width & int.from_bytes(degrees * k, "little"),
                        ((h | gs) - (a - v)) & gs ^ gs)

            # through the class, as the module's name for it may be wrapped
            # (tests wrap it to record the packings the engine builds)
            masks = self._masks = type(self)(nvars, BOOLEAN, order, 1)
            self.mask = lambda m: int(flags(m)[1:], 2)
            self.lift = lambda e: pack(masks.unpack(e))

        split = _splitter(span)
        lows = ((1 << 8 * span - 1) - 1).to_bytes(span, "little")

        def excesses(slots, f, bounds=b"", g=None):
            size = len(slots)
            k = size // span
            h = int.from_bytes(bounds, "little")
            if g is not None:
                h &= int.from_bytes(slot(g) * k, "little")
            es, outside = core(int.from_bytes(slots, "little"),
                               int.from_bytes(slot(f) * k, "little"), h, k)
            # the gcd divides h_i iff it has nothing outside h_i, that is iff
            # adding the bits below the slot's top bit leaves that bit clear
            s = (outside + int.from_bytes(lows * k, "little")).to_bytes(size, "little")
            return split(es.to_bytes(size, "little")), s[span - 1::span].translate(_CLEAR)

        self.slot = slot
        self.excesses = excesses

    @property
    def masks(self):
        return self._masks or self

    def pack_element(self, terms):
        """The packed terms of an element, descending: leading monomial first."""
        return sorted(map(self.pack, terms), key=self.key, reverse=True)

    def unpack_terms(self, terms):
        return frozenset(map(self.unpack, terms))


def _task_terms(pk, lms, tails, kind, i, j, lcm):
    """Packed terms of one task on elements lms[k] + tails[k], as a list
    whose repeated monomials still have to cancel mod 2.  Kind 0: the
    S-polynomial of elements i and j, qi*tail_i + qj*tail_j, as the two
    lcm terms cancel; lcm is lcm(lm_i, lm_j).  Kind 1: the Boolean field
    task v_j*f_i = lm_i + v_j*tail_i, as v_j*lm_i = lm_i; lcm is lm_i,
    and a boolean variable is one bit."""
    mul, ti = pk.mul, tails[i]
    if kind:
        return [lcm, *map(mul, itertools.repeat(1 << pk.shifts[j]), ti)]
    terms = list(map(mul, itertools.repeat(lcm - lms[i]), ti))
    tj = tails[j]
    if tj:  # empty when j is a monomial
        terms += map(mul, itertools.repeat(lcm - lms[j]), tj)
    return terms


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
        _check_compatible(*polys)
        self.polynomials = tuple(polys)
        self.order = order
        self.mode = polys[0].mode
        self.nvars = polys[0].nvars
        self.n = self.nvars // 3

    def __len__(self):
        return len(self.polynomials)

    def __iter__(self):
        return iter(self.polynomials)

    def __repr__(self):
        return (f"GeneratorSet({len(self.polynomials)} polynomials, "
                f"n={self.n}, mode={self.mode!r}, order={self.order.scheme})")


class _Elements(tuple):
    """A basis's `elements`: a tuple with a weak reference, `basis`, to
    the basis it was read from, so that `_as_basis` maps it back to that
    basis and its reducer.  The reference is weak because the basis holds
    this tuple: a strong one would make a cycle, and a dropped basis would
    wait for the cycle collector.  A slice of it is a plain tuple."""


class GroebnerBasis:
    """A list of basis elements sorted ascending by leading monomial.

    Ties keep the order given.  A basis holds its elements only packed,
    in the reducer that every read of it uses: polynomials are packed
    once, when the basis is built, and the engine and `load_basis` hand
    theirs over packed.  `elements` unpacks them on its first read, into
    an `_Elements` tuple that leads back to the basis, so the predicates
    and `normal_form` given `elements` with the basis's order read this
    reducer too.  The `reduced` flag is a cache, never a proof;
    verification predicates recompute it.
    """

    __slots__ = ("_elements", "order", "mode", "nvars", "n", "reduced", "_reducer",
                 "__weakref__")

    def __init__(self, elements, order: MonomialOrder, reduced: bool = False):
        elements = list(elements)
        if not elements:
            raise ValueError("basis needs at least one element")
        if any(f.is_zero for f in elements):
            raise ZeroPolynomialError("basis elements must be nonzero")
        _check_compatible(*elements)
        pk = _Packing(elements[0].nvars, elements[0].mode, order,
                      max(f.degree() for f in elements))
        self._build(pk, [pk.pack_element(f.terms) for f in elements], order, reduced)

    def _build(self, pk, packed, order, reduced):
        """Fill the basis from packed elements, lm first and the tail
        descending, and return it.  They are sorted stably by leading
        monomial into one reducer."""
        self._elements = None
        self._reducer = _Reducer(pk, sorted(packed, key=lambda element: pk.key(element[0])))
        self.order = order
        self.mode = BOOLEAN if pk.boolean else FULL
        self.nvars = len(pk.shifts)
        self.n = self.nvars // 3
        self.reduced = reduced
        return self

    @property
    def elements(self):
        """The elements as polynomials, in basis order."""
        if self._elements is None:
            red = self._reducer
            unpack_terms, nvars, mode = red.pk.unpack_terms, self.nvars, self.mode
            # the packing unpacks only valid terms of this ring
            elements = _Elements(_trusted_poly(unpack_terms((lm, *tail)), nvars, mode)
                                 for lm, tail in zip(red.lms, red.tails))
            elements.basis = weakref.ref(self)
            self._elements = elements
        return self._elements

    def leading_monomials(self):
        return [self._reducer.pk.unpack(lm) for lm in self._reducer.lms]

    def as_set(self):
        return frozenset(self.elements)

    def __len__(self):
        return len(self._reducer.lms)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return (f"GroebnerBasis({len(self)} elements, n={self.n}, "
                f"mode={self.mode!r}, order={self.order.scheme}, reduced={self.reduced})")


# ---------------------------------------------------------------------------
# reduction

class _Reducer:
    """Packed elements lms[i] + tails[i], with their leading monomials
    bit-sliced by flag: columns[p] holds bit i for each element i whose
    lm sets flag p of `_Packing.flags`, a variable's or, at p = 0, the
    square flag.  `divisors` is the one reader of the columns, and they
    have two writers.  The constructor fills each column in one pass over
    the flags of all the given lms, so a reducer of |G| elements is built
    in time linear in |G|.  `extend(element)`, the engine's step, appends
    one element and ORs one bit into each column of a flag its lm sets.
    Each writer is the faster one for its own case: a reducer built
    through `extend` rewrites |G|-bit columns per element, quadratic in
    |G|, and an append through the per-column pass reads every column.

    One memo map answers first-divisor lookups: an entry is the first
    divisor's index, or ~c for a miss at c elements, and none reads ~0.

    Its kernels extend, divisors, find_divisor, settles and reduce are
    closures bound once per reducer.  They hold its lists, which only grow
    in place, and no reference to the reducer itself, so a dropped reducer
    is freed at once rather than by the cycle collector.
    """

    __slots__ = ("pk", "lms", "tails", "columns", "extend", "divisors", "find_divisor",
                 "settles", "reduce")

    def __init__(self, pk, elements=()):
        lms = [element[0] for element in elements]
        tails = [tuple(element[1:]) for element in elements]
        flags, divides = pk.flags, pk.divides
        width = len(flags(0))
        if lms:
            # the flags of every lm back to back, reversed: column p reads
            # every width-th digit from the last lm's flag p, which puts
            # element i at bit i
            digits = b"".join(map(flags, lms))[::-1]
            columns = [int(digits[width - 1 - p::width], 2) for p in range(width)]
        else:
            columns = [0] * width
        compress, or_, fold = itertools.compress, operator.or_, functools.reduce
        key, unkey, mul = pk.key, pk.unkey, pk.mul
        heapify, heappush, heappop = heapq.heapify, heapq.heappush, heapq.heappop
        first = {}  # monomial -> its first divisor's index, or ~count at a miss
        memo = first.get
        positions = range(width)

        def extend(element):
            """Append one element, given lm first and the tail descending,
            and return the flags of its lm."""
            lm, *tail = element
            index = len(lms)
            bit = 1 << index
            digits = flags(lm)
            for p in compress(positions, digits.translate(_UNBITS)):
                columns[p] |= bit
            # a miss at exactly this count: no earlier element divides lm,
            # so the new element is its first divisor
            if memo(lm, -1) == ~index:
                first[lm] = index
            # in place, as the kernels hold the lists
            lms.append(lm)
            tails.append(tuple(tail))
            return digits

        def divisors(m, above=-1):
            """The indices above `above` of the leading monomials dividing
            m, ascending.  The candidates are the elements in no column of
            a flag that m lacks; `divides` confirms each, as a full-mode
            m with a square keeps the square column."""
            outside = fold(or_, compress(columns, flags(m).translate(_LACKS)), 0)
            found = (((1 << len(lms)) - 1) ^ outside) >> above + 1
            while found:
                low = found & -found
                idx = above + low.bit_length()
                if divides(lms[idx], m):
                    yield idx
                found ^= low

        def find_divisor(m):
            """Index of the first leading monomial dividing m, or -1."""
            i = memo(m, -1)
            if i < 0:
                # after a miss at count ~i only the elements appended since
                # can divide m
                count = len(lms)
                if ~i == count:
                    return -1
                i = next(divisors(m, ~i - 1), -1)
                first[m] = i if i >= 0 else ~count
            return i

        def settles(terms):
            """True when every term has a monomial first divisor, so that
            reduce(terms) is []: each term that does not cancel is removed
            and replaced by nothing."""
            for m in terms:
                i = memo(m, -1)  # the memo inline, as in reduce
                if i < 0:
                    i = find_divisor(m)
                    if i < 0:
                        return False
                if tails[i]:
                    return False
            return True

        def reduce(terms):
            """The full normal form of packed terms, descending.

            The terms may come in any order.  Takes monomials largest-first
            from a heap of negated keys; every replacement monomial is
            strictly smaller than the one it replaces, so a single
            descending pass is complete.  Duplicate heap entries cancel in
            pairs (coefficients are mod 2).
            """
            heap = [-key(m) for m in terms]
            heapify(heap)
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
                i = memo(m, -1)  # the memo inline: only a miss pays a call
                if i < 0:
                    i = find_divisor(m)
                    if i < 0:
                        out.append(m)
                        continue
                q = m - lms[i]
                for t in tails[i]:
                    heappush(heap, -key(mul(q, t)))
            return out

        self.pk, self.lms, self.tails, self.columns = pk, lms, tails, columns
        self.extend, self.divisors, self.find_divisor = extend, divisors, find_divisor
        self.settles, self.reduce = settles, reduce


def _as_basis(G, order):
    """G if it is a GroebnerBasis; the basis whose `elements` G is, while
    that basis lives and has this order; else GroebnerBasis(G, order).
    None if G is empty."""
    if isinstance(G, GroebnerBasis):
        return G
    if isinstance(G, _Elements):
        basis = G.basis()
        if basis is not None and basis.order == order:
            return basis
    G = list(G)
    return GroebnerBasis(G, order) if G else None


def normal_form(f: Polynomial, G, order: MonomialOrder = DEGLEX) -> Polynomial:
    """Remainder of f under multivariate division by G.

    No monomial of the result is divisible by any leading monomial of G,
    and the result is congruent to f modulo the ideal (G).  G may be a
    GroebnerBasis, read in its own order; the `elements` of a live basis
    with this order, read as that basis; or any other sequence of nonzero
    polynomials, read as GroebnerBasis(G, order): each step divides by the
    first divisor in basis order (ascending leading monomial, ties in list
    order), which matters only when G is not a Groebner basis.  Zero maps
    to zero.
    """
    if f.is_zero:
        return f
    G = _as_basis(G, order)
    if G is None:
        return f
    _check_compatible(f, G)
    red = G._reducer
    pk = red.pk
    # reduce heapifies its input, so the query's terms go in unsorted
    try:
        terms = list(map(pk.pack, f.terms))
    except _Overflow:
        # a query of higher degree than the fields hold: widen, never wrap
        pk = _Packing(f.nvars, f.mode, G.order, f.degree())
        red = _Reducer(pk, [pk.pack_element(g.terms) for g in G.elements])
        terms = list(map(pk.pack, f.terms))
    return _trusted_poly(pk.unpack_terms(red.reduce(terms)), f.nvars, f.mode)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder = DEGLEX) -> Polynomial:
    """S-polynomial (lcm/lm(f))*f + (lcm/lm(g))*g; signs vanish over F2."""
    if f.is_zero or g.is_zero:
        raise ZeroPolynomialError("s_polynomial requires nonzero operands")
    _check_compatible(f, g)
    pk = _Packing(f.nvars, f.mode, order, max(f.degree(), g.degree()))
    (lf, *tf), (lg, *tg) = pk.pack_element(f.terms), pk.pack_element(g.terms)
    s = _sum_mod2(_task_terms(pk, [lf, lg], [tf, tg], 0, 0, 1, pk.lcm(lf, lg)))
    return Polynomial(pk.unpack_terms(s), f.nvars, f.mode)


# ---------------------------------------------------------------------------
# Buchberger

def buchberger(F: GeneratorSet, max_pairs: int = DEFAULT_MAX_PAIRS,
               max_basis: int = DEFAULT_MAX_BASIS):
    """Compute a (not yet reduced) Groebner basis of (F).

    Returns (GroebnerBasis, ReductionStats).  Raises
    ResourceLimitError, with the stats so far attached, when more than
    max_pairs pairs are queued (ordinary pairs that survive the criteria,
    plus the Boolean field tasks) or the working basis exceeds max_basis
    elements.
    """
    t0 = time.perf_counter()
    pk = _Packing(F.nvars, F.mode, F.order, max(f.degree() for f in F.polynomials))
    while True:
        try:
            return _buchberger(F, pk, max_pairs, max_basis, t0)
        except _Overflow as exc:
            pk = _Packing(F.nvars, F.mode, F.order, exc.args[0])


def _minimal_excesses(es, fields, key, degree, any_divides):
    """One representative per minimal lcm among the excesses es, found
    with the kernels of their packing (see the module docstring): the
    variables among them are minimal, the mask of their fields prunes
    every excess that contains one, and the rest are checked level by
    level among themselves.  fields maps each packed variable to the bits
    of its field."""
    if 0 in es:  # the packed 1: lm_i | lm_f
        return [0]
    minimal = list(fields.keys() & es)
    ones = functools.reduce(operator.or_, map(fields.get, minimal), 0)
    rest = sorted(set(itertools.filterfalse(ones.__and__, es)), key=key)
    others = []
    for _, level in itertools.groupby(rest, degree):
        others += [e for e in level if not any_divides(others, e)]
    return minimal + others


def _buchberger(F, pk, max_pairs, max_basis, t0):
    key, unkey, degree, lcm = pk.key, pk.unkey, pk.degree, pk.lcm
    mul, slot, excesses, masks, mask = pk.mul, pk.slot, pk.excesses, pk.masks, pk.mask
    nvars, boolean = len(pk.shifts), pk.boolean

    def kernels(p, lift):
        """A batch's lift to pk and its minimal-lcm search kernels on p."""
        # each packed variable, a monomial of degree 1, and the bits of its field
        fields = {p.pack((0,) * v + (1,) + (0,) * (nvars - 1 - v)): p.fmax << s
                  for v, s in enumerate(p.shifts)}
        return lift, fields, p.key, p.degree, p.any_divides

    # the packed batches' excesses are pk's own, which int leaves as they
    # are; the squarefree batch's are masks, each distinct one lifted once
    packed, supports = kernels(pk, int), kernels(masks, functools.cache(pk.lift))
    stats = ReductionStats()

    red = _Reducer(pk)  # the working elements, lm first
    lms, tails, settles, reduce = red.lms, red.tails, red.settles, red.reduce
    find_divisor, divisors = red.find_divisor, red.divisors
    nonmono = []      # indices of the working elements that are not monomials
    uncovered = []    # those of nonmono that are not covered
    # the update's batches: per element, a slot of its leading monomial
    # (slots) and one of all ones for a monomial, the packed 1 otherwise
    # (kinds); per element of nonmono, its leading monomial and the gcd of
    # its tail, and per element of uncovered, their support masks
    slots, kinds, nonslots, gcdslots = bytearray(), bytearray(), bytearray(), bytearray()
    unslots, ungcdslots = bytearray(), bytearray()
    squarefree = True  # while every uncovered lm is squarefree; never on again
    span = len(slot(0))
    heap = []         # (lcm key, kind, i, j): pairs, and field tasks of kind 1

    def update(element):
        """Gebauer-Moeller insertion of a new element, given lm first."""
        nonlocal squarefree
        t = len(lms)
        if t + 1 > max_basis:
            raise ResourceLimitError(f"basis cap exceeded ({max_basis})", stats)
        # the width rule: full-mode fields hold twice the degree of every lm
        d = degree(element[0])
        if not boolean and 2 * d > pk.fmax:
            raise _Overflow(d)
        digits = red.extend(element)
        lmf, tailf = lms[t], tails[t]
        monomial = not tailf
        # lm f's square flag and support mask, read off the flags that
        # extend indexed it by
        sqfree = digits.startswith(b"0")
        maskf = lmf if boolean else int(digits[1:], 2)

        # a monomial pairs only with non-monomials: the S-polynomial of two
        # monomials is zero, so such a pair counts as processed unformed
        partners = nonmono if monomial else range(t)
        stats.pairs_monomial += t - len(partners)
        formed = len(partners)
        # every partner's excess e = lcm/lm_f in one batch, and the excesses
        # of the pairs known to reduce to zero, whose gcd g = lm_i/e divides
        # a bound: the monomial criterion bounds g by the gcd of the
        # non-monomial's tail, the product criterion by 1.  A squarefree
        # monomial leaves out the covered partners while every uncovered lm
        # is squarefree, and reads supports (see the module docstring)
        batch = packed
        if not monomial:
            gcdf = functools.reduce(pk.gcd, tailf)
            es, known = excesses(slots, lmf, kinds, gcdf)
        elif squarefree and sqfree:
            partners, batch = uncovered, supports
            es, known = masks.excesses(unslots, maskf, ungcdslots)
        else:
            es, known = excesses(nonslots, lmf, gcdslots)
        zero = set(itertools.compress(es, known))
        # a group of pairs with one lcm queues its lowest partner, unless a
        # member is known to reduce to zero; every other partner is pruned
        lift, *search = batch
        queued = [e for e in _minimal_excesses(es, *search) if e not in zero]
        for e in queued:
            heapq.heappush(heap, (key(mul(lmf, lift(e))), 0, partners[es.index(e)], t))
        stats.pairs_queued += len(queued)
        stats.pairs_skipped_by_criteria += formed - len(queued)

        if boolean:
            support_vars = _support_vars(pk, lmf)
            if monomial:
                stats.pairs_monomial += len(support_vars)  # v*m = m
            else:
                stats.pairs_queued += len(support_vars)
                for v in support_vars:
                    heapq.heappush(heap, (key(lmf), 1, t, v))
        s = slot(lmf)
        slots.extend(s)
        if monomial:
            kinds.extend(b"\xff" * span)
        else:
            kinds.extend(bytes(span))
            nonmono.append(t)
            nonslots.extend(s)
            gcdslots.extend(slot(gcdf))
            # uncovered: some variable of lm f is not in the gcd of its tail
            maskg = mask(gcdf)
            if maskf & ~maskg:
                uncovered.append(t)
                unslots.extend(masks.slot(maskf))
                ungcdslots.extend(masks.slot(maskg))
                squarefree &= sqfree
        if stats.pairs_queued > max_pairs:
            raise ResourceLimitError(f"pair cap exceeded ({max_pairs})", stats)

    def chain(i, j, lcm_ij):
        """The chain criterion on the pair (i, j) as it pops: some element
        t > j, so added since the pair was queued, has lm_t | lcm_ij while
        lcm(lm_i, lm_t) and lcm(lm_j, lm_t) both differ from lcm_ij."""
        lmi, lmj = lms[i], lms[j]
        return any(lcm(lmi, lmt) != lcm_ij and lcm(lmj, lmt) != lcm_ij
                   for lmt in map(lms.__getitem__, divisors(lcm_ij, j)))

    try:  # a cap error carries the time too
        for f in F.polynomials:
            update(pk.pack_element(f.terms))

        while heap:
            k, kind, i, j = heapq.heappop(heap)
            lcm_ij = unkey(k)  # of a field task: lm_i
            terms = _task_terms(pk, lms, tails, kind, i, j, lcm_ij)
            if settles(terms):  # zero in one step
                stats.reductions_to_zero += 1
                continue
            if kind == 0 and chain(i, j, lcm_ij):
                stats.pairs_chain_pruned += 1
                continue
            # a lone term with no divisor is its own normal form
            r = terms if len(terms) == 1 and find_divisor(terms[0]) < 0 else reduce(terms)
            if r:
                update(r)
            else:
                stats.reductions_to_zero += 1
    finally:
        stats.wall_time = time.perf_counter() - t0
    basis = GroebnerBasis.__new__(GroebnerBasis)._build(
        pk, [(lm, *tail) for lm, tail in zip(lms, tails)], F.order, reduced=False)
    return basis, stats


# ---------------------------------------------------------------------------
# interreduction and predicates

def interreduce(G: GroebnerBasis, strict: bool = False) -> GroebnerBasis:
    """The unique reduced Groebner basis of the ideal of G (same order).

    Keeps only elements whose leading monomial is divisible by no earlier
    one, then fully normal-forms every kept tail with G's own reducer: a
    dropped element is never a first divisor, since an earlier kept lm
    divides its own, and a tail monomial is below its own lm.  Over F2
    everything is monic already.  With strict=True, every discarded
    element is checked to reduce to zero against the result
    (NotAGroebnerBasisError otherwise).
    """
    red = G._reducer
    lms, tails = red.lms, red.tails
    kept, removed = [], []
    # in basis order an lm is redundant exactly when its first divisor is not itself
    for i, lm in enumerate(lms):
        if red.find_divisor(lm) != i:
            removed.append(i)
        else:
            kept.append([lm, *red.reduce(tails[i])])
    result = GroebnerBasis.__new__(GroebnerBasis)._build(red.pk, kept, G.order, reduced=True)
    if strict:
        # the result has G's packing: a discarded element reduces as it is
        for i in removed:
            if result._reducer.reduce([lms[i], *tails[i]]):
                raise NotAGroebnerBasisError(
                    "discarded element does not reduce to zero; "
                    "input was not a Groebner basis")
    return result


def is_groebner_basis(polys, order: MonomialOrder = DEGLEX,
                      use_criteria: bool = True) -> bool:
    """True iff every S-polynomial of a pair reduces to zero against polys.

    polys is read as G in normal_form, so a basis's own `elements` with
    its order are checked on its reducer; an empty list is a Groebner
    basis.
    With use_criteria=False no pair is skipped by the product criterion.
    It is the only criterion here: the engine's monomial and chain
    criteria are left out, so that this check stays independent of them.
    In boolean mode the implicit field tasks v*f are checked as well.  A
    pair of two monomials (zero S-polynomial) and a field task of a
    monomial (v*m = m) are never formed.

    The check runs over the non-monomials.  Each non-monomial j reads its
    monomial partners in one batch of the update's excess kernel: every
    monomial, or with the product criterion those that share a variable
    with lm_j.  The batch gives each one's multiplier q = lcm/lm_j, and
    the pair's S-polynomial is q*tail_j, so one task per distinct q covers
    all of j's monomial pairs; for a one-term tail t it is the monomial
    q*t, checked once over every j.  Identical S-polynomials are checked
    once with use_criteria=False as well, since that is an identity, not a
    criterion.  The earlier non-monomials make a second batch, with the
    packed 1 as every bound, which flags the coprime pairs; each other
    pair is one task.  A task each of whose terms has a monomial first
    divisor reduces to zero, so `settles` answers it without a reduction;
    every other task is reduced.
    """
    basis = _as_basis(polys, order)
    if basis is None:
        return True
    red = basis._reducer
    pk, lms, tails, settles, reduce = red.pk, red.lms, red.tails, red.settles, red.reduce
    excesses, mul, slot, support = pk.excesses, pk.mul, pk.slot, pk.support
    span = len(slot(0))
    monos = [i for i, tail in enumerate(tails) if not tail]
    nonmono = [j for j, tail in enumerate(tails) if tail]
    monoslots = [slot(lms[i]) for i in monos]
    monosupports = [support(lms[i]) for i in monos]
    nonslots = memoryview(b"".join(slot(lms[j]) for j in nonmono))

    def tasks():
        checked = set()  # the one-monomial S-polynomials so far
        for k, j in enumerate(nonmono):
            lm, tail = lms[j], tails[j]
            # the monomials in one batch, where the product criterion leaves
            # out those that share no variable with lm_j
            part, batch = monos, monoslots
            if use_criteria:
                shares = list(map(support(lm).__and__, monosupports))
                part = list(itertools.compress(part, shares))
                batch = itertools.compress(batch, shares)
            es = excesses(b"".join(batch), lm)[0]  # each monomial's q
            if len(tail) == 1:  # each S = q*t is one monomial, formed here
                fresh = set(map(mul, es, itertools.repeat(tail[0]))) - checked
                checked |= fresh
                yield from ([m] for m in fresh)
            else:  # one task per multiplier q, with a monomial that gives it
                yield from (_task_terms(pk, lms, tails, 0, j, i, mul(lm, q))
                            for q, i in dict(zip(es, part)).items())
            # the earlier non-monomials in one batch
            es, coprime = excesses(nonslots[:k * span], lm)
            for i, e, c in zip(nonmono, es, coprime):
                if not (use_criteria and c):  # product criterion
                    yield _task_terms(pk, lms, tails, 0, i, j, mul(lm, e))
            if pk.boolean:
                for v in _support_vars(pk, lm):
                    yield _task_terms(pk, lms, tails, 1, j, v, lm)

    return all(settles(terms) or not reduce(terms) for terms in tasks())


def is_reduced_basis(polys, order: MonomialOrder = DEGLEX) -> bool:
    """True iff no monomial of any element is divisible by another element's
    lm, so the lms are pairwise non-divisible; polys as in is_groebner_basis."""
    basis = _as_basis(polys, order)
    if basis is None:
        return True
    red = basis._reducer
    find = red.find_divisor
    # a tail monomial is below its own lm, so any divisor is another lm
    return (all(find(lm) == i for i, lm in enumerate(red.lms))
            and not any(find(m) >= 0 for tail in red.tails for m in tail))


def ideal_membership(f: Polynomial, G: GroebnerBasis) -> bool:
    """True iff f lies in the ideal of the Groebner basis G (normal form 0)."""
    return normal_form(f, G).is_zero


# ---------------------------------------------------------------------------
# basis dump format

def dump_basis(G: GroebnerBasis) -> str:
    """JSON text: {n, mode, order, elements}; elements ascending by leading
    monomial, monomials within an element descending (leading first, as
    the reducer holds them), each monomial a sparse [[varFlat, exp], ...]
    list."""
    red = G._reducer
    unpack = red.pk.unpack
    if red.pk.boolean:
        # each variable's one pair, shared by every monomial that has it
        ones = [[v, 1] for v in range(G.nvars)]
        compress = itertools.compress
        elements = [[list(compress(ones, unpack(m))) for m in (lm, *tail)]
                    for lm, tail in zip(red.lms, red.tails)]
    else:
        elements = [[[[i, e] for i, e in enumerate(unpack(m)) if e] for m in (lm, *tail)]
                    for lm, tail in zip(red.lms, red.tails)]
    return json.dumps({"n": G.n, "mode": G.mode, "order": G.order.scheme,
                       "elements": elements})


def load_basis(text: str) -> GroebnerBasis:
    """Parse and validate a dump_basis document.

    Raises BasisFormatError unless the text is a JSON object with an
    integer n in 1..MAX_FILE_N, a known mode and order, and a nonempty list of
    nonempty elements whose monomials are lists of [varFlat, exp] pairs
    (each variable in 0..3n-1 at most once, exp >= 1, and exp == 1 in
    boolean mode) listed strictly descending under the declared order.
    The error names the first element that breaks the schema.  The order
    is checked on packed keys, in fields that hold every monomial read
    before the first malformed element.
    """
    try:
        payload = json.loads(text)
        n, mode, elements = payload["n"], payload["mode"], payload["elements"]
        order = get_order(payload["order"])
    except (ValueError, TypeError, KeyError, RecursionError) as exc:
        # RecursionError: nesting deeper than the JSON decoder follows
        raise BasisFormatError(f"not a basis dump: {exc!r}") from None
    if not (type(n) is int and 1 <= n <= MAX_FILE_N and mode in MODES
            and isinstance(elements, list) and elements):
        raise BasisFormatError(
            f"bad basis dump header: n={n!r:.100}, mode={mode!r:.100}, "
            f"{len(elements) if isinstance(elements, list) else 'no'} elements")
    nvars = 3 * n
    max_exp = 1 if mode == BOOLEAN else float("inf")
    loaded = []
    for element in elements:
        monos = _load_element(element, nvars, max_exp)
        if not monos:
            break
        loaded.append(monos)
    # under a degree order the largest degree of a valid dump is an lm's
    pk = _Packing(nvars, mode, order,
                  max(map(sum, itertools.chain.from_iterable(loaded)), default=0))
    pack, key = pk.pack, pk.key
    packed = []
    for monos in loaded:
        element = list(map(pack, monos))
        keys = list(map(key, element))
        if any(map(operator.le, keys, keys[1:])):
            break
        packed.append(element)
    if len(packed) < len(elements):
        index = len(packed)
        raise BasisFormatError(
            f"element {index} breaks the basis dump schema (monomials are "
            f"lists of [varFlat, exp] pairs, varFlat in 0..{nvars - 1} at "
            f"most once, exp >= 1, and 1 in boolean mode, listed strictly "
            f"descending under {order.scheme}): {json.dumps(elements[index])[:100]}")
    return GroebnerBasis.__new__(GroebnerBasis)._build(pk, packed, order, reduced=False)


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
            # JSON gives a bool only for true and false, whose type is not int
            if not (isinstance(pair, list) and len(pair) == 2):
                return None
            v, e = pair
            if not (type(v) is int and type(e) is int and 0 <= v < nvars and not m[v]
                    and 1 <= e <= max_exp):
                return None
            m[v] = e
        monos.append(tuple(m))
    return monos
