"""Packed-int monomials inside the engine: layout, kernels and overflow."""

import collections
import functools
import hashlib
import heapq
import random
import types

import pytest

from boolgb import (
    BOOLEAN,
    DEGLEX,
    DEGREVLEX,
    FULL,
    GeneratorSet,
    GroebnerBasis,
    Polynomial,
    buchberger,
    dump_basis,
    format_poly,
    interreduce,
    is_groebner_basis,
    leading_monomial,
    make_G,
    make_H,
    make_S,
    mono_divides,
    mono_lcm,
    mono_mul,
    normal_form,
    parse_poly,
    s_polynomial,
)
from boolgb import groebner
from test_oracle_differential import random_system
from test_polyring import random_poly

CASES = [(mode, order) for mode in (FULL, BOOLEAN) for order in (DEGLEX, DEGREVLEX)]
# full-mode exponent scales that give fields of 1, 2, 4 and 8 bytes (one
# struct call per monomial) and of 16 bytes (the shift-and-sum fallback)
SCALED = [(mode, order, 1) for mode, order in CASES] + [
    (FULL, order, scale) for order in (DEGLEX, DEGREVLEX)
    for scale in (300, 2 ** 12, 2 ** 30, 2 ** 70)]


def random_monomials(rng, nvars, mode, count, max_exp=3, scale=1):
    top = 1 if mode == BOOLEAN else max_exp
    return [tuple(scale * rng.randint(0, top) for _ in range(nvars))
            for _ in range(count)]


@pytest.mark.parametrize("mode,order,scale", SCALED)
def test_packed_key_sorts_like_monomial_order_key(mode, order, scale):
    rng = random.Random(7)
    nvars = 9
    monos = random_monomials(rng, nvars, mode, 400, scale=scale)
    pk = groebner._Packing(nvars, mode, order, max(map(sum, monos)))
    assert [pk.unpack(pk.pack(m)) for m in monos] == monos
    by_tuple = sorted(set(monos), key=order.key)
    by_packed = sorted(set(monos), key=lambda m: pk.key(pk.pack(m)))
    assert by_packed == by_tuple
    for m in monos:
        assert pk.unkey(pk.key(pk.pack(m))) == pk.pack(m)


@pytest.mark.parametrize("mode,order,scale", SCALED)
def test_packed_kernels_agree_with_tuple_kernels(mode, order, scale):
    rng = random.Random(11)
    nvars = 6
    monos = random_monomials(rng, nvars, mode, 60, max_exp=2, scale=scale)
    pk = groebner._Packing(nvars, mode, order, max(map(sum, monos)))
    for a in monos:
        # a flag per variable of a, and the square flag where a has a square
        flags = pk.flags(pk.pack(a))
        assert set(flags) <= set(b"01") and len(flags) == nvars + 1
        assert flags.count(b"1") == sum(map(bool, a)) + (max(a) > 1)
        for b in monos:
            pa, pb = pk.pack(a), pk.pack(b)
            assert pk.divides(pa, pb) == mono_divides(a, b)
            assert pk.unpack(pk.lcm(pa, pb)) == mono_lcm(a, b)
            assert pk.gcd(pa, pb) == pk.pack(tuple(map(min, a, b)))
            assert pk.unpack(pk.mul(pa, pb)) == mono_mul(a, b, mode)
            assert (pk.support(pa) & pk.support(pb) == 0) == (
                not any(x and y for x, y in zip(a, b)))
    # the scan kernel: some monomial of a list divides b
    packed = [pk.pack(d) for d in monos]
    for b in packed:
        for k in range(0, len(packed) + 1, 4):
            ms = packed[k:k + 4]
            assert pk.any_divides(ms, b) == any(pk.divides(a, b) for a in ms)
    # the reducer's divisor index, extended one element at a time and in
    # two batches, and filled by the constructor; each monomial is an
    # element without a tail
    single, batched = groebner._Reducer(pk), groebner._Reducer(pk)
    for p in packed:
        single.extend([[p]])
    batched.extend([[p] for p in packed[:7]])
    batched.extend([[p] for p in packed[7:]])
    built = groebner._Reducer(pk, [[p] for p in packed])
    assert built.lms == batched.lms == single.lms == packed
    assert built.columns == batched.columns == single.columns
    for a in monos:
        divisors = [i for i, d in enumerate(monos) if mono_divides(d, a)]
        for red in (single, batched, built):
            assert red.find_divisor(pk.pack(a)) == (divisors or [-1])[0]
            # the walk the chain query starts above j, for every j
            for above in range(-1, len(packed)):
                assert list(red.divisors(pk.pack(a), above)) == [
                    i for i in divisors if i > above]


@pytest.mark.parametrize("mode,order,scale", SCALED)
def test_s_polynomial_matches_tuple_reference(mode, order, scale):
    # the packed kernel never forms the two lcm terms; the reference
    # (lcm/lm f)*f + (lcm/lm g)*g forms them and cancels them mod 2
    rng = random.Random(23)
    nvars = 6
    shared = 0
    for _ in range(300):
        f, g = (Polynomial(random_monomials(rng, nvars, mode, rng.randint(1, 4),
                                            max_exp=2, scale=scale), nvars, mode)
                for _ in range(2))
        lf, lg = leading_monomial(f, order), leading_monomial(g, order)
        lcm = mono_lcm(lf, lg)
        qf, qg = (Polynomial({tuple(a - b for a, b in zip(lcm, lm))}, nvars, mode)
                  for lm in (lf, lg))
        assert s_polynomial(f, g, order) == qf * f + qg * g
        shared += any(a and b for a, b in zip(lf, lg))
    assert shared > 100  # pairs past the product criterion


def spread(rng, total, count):
    """count random nonnegative ints that sum to total."""
    cuts = sorted(rng.randint(0, total) for _ in range(count - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


# one-byte, two-byte and 16-byte fields; slots of 4 and 8 bytes split by
# one cast, the others (and Boolean slots past 8 bytes) slot by slot
EXCESS_CASES = [(mode, order, 3, nvars) for mode, order in CASES for nvars in (3, 6)] + [
    (FULL, order, degree, nvars) for order in (DEGLEX, DEGREVLEX)
    for degree in (300, 2 ** 70) for nvars in (3, 6)] + [
    (BOOLEAN, order, 1, 66) for order in (DEGLEX, DEGREVLEX)]


@pytest.mark.parametrize("mode,order,degree,nvars", EXCESS_CASES)
def test_batched_excesses_match_the_scalar_kernels(mode, order, degree, nvars):
    # every partner's excess quo(lcm(a, f), f) and its criterion flag,
    # gcd(a, f) | bound, in one batch, against the scalar kernels; lcm
    # degrees and single exponents reach fmax, the most the width rule
    # lets an lcm of two leading monomials reach
    rng = random.Random(31)
    pk = groebner._Packing(nvars, mode, order, degree)
    fmax = pk.fmax

    def monomial(fields):
        return pk.pack(tuple(fields))

    for trial in range(60):
        if mode == BOOLEAN:
            f = [rng.randint(0, 1) for _ in range(nvars)]
        elif trial % 10 == 0:  # one exponent of fmax: every excess is 1
            f = [0] * nvars
            f[rng.randrange(nvars)] = fmax
        else:
            f = spread(rng, rng.choice([0, fmax // 2, rng.randint(0, fmax), fmax]), nvars)
        budget = fmax - sum(f)  # every lcm stays within fmax
        partners = []
        for _ in range(rng.choice([0, 1, 40])):
            if mode == BOOLEAN:
                a = [rng.randint(0, 1) for _ in range(nvars)]
            else:
                excess = spread(rng, rng.choice([0, budget, rng.randint(0, budget)]), nvars)
                if rng.random() < 0.2:  # the whole budget in one field
                    excess = [0] * nvars
                    excess[rng.randrange(nvars)] = budget
                a = [fi + e if e else rng.randint(0, fi) for fi, e in zip(f, excess)]
            partners.append(monomial(a))
        if partners:
            partners[rng.randrange(len(partners))] = monomial(f)  # excess 1
        pf = monomial(f)
        expected = [pk.quo(pk.lcm(a, pf), pf) for a in partners]
        gcds = [pk.quo(a, e) for a, e in zip(partners, expected)]
        # bounds the gcd divides (itself, the partner) or may not (a field less)
        bounds = []
        for g, a in zip(gcds, partners):
            fields = list(pk.unpack(g))
            v = rng.randrange(nvars)
            fields[v] = max(fields[v] - 1, 0)
            bounds.append(rng.choice([g, a, monomial(fields), 0]))
        slots = b"".join(map(pk.slot, partners))
        es, known = pk.excesses(slots, pf, b"".join(map(pk.slot, bounds)))
        assert es == expected
        assert list(known) == [pk.divides(g, h) for g, h in zip(gcds, bounds)]
        # no bounds: every bound is the packed 1, the product criterion
        es, coprime = pk.excesses(slots, pf)
        assert es == expected
        assert list(coprime) == [pk.divides(g, 0) for g in gcds]
        # the bounds ANDed with a monomial g: all ones keeps g, zero gives 1
        g = monomial(f if mode == BOOLEAN else spread(rng, rng.randint(0, fmax), nvars))
        keep = [rng.randint(0, 1) for _ in partners]
        span = len(pk.slot(0))
        masks = b"".join(b"\xff" * span if k else bytes(span) for k in keep)
        es, known = pk.excesses(slots, pf, masks, g)
        assert es == expected
        assert list(known) == [pk.divides(gcd, g if k else 0) for gcd, k in zip(gcds, keep)]

    # the same batch on squarefree monomials, read as support masks in the
    # Boolean packing pk.masks: its excesses lift to the packed batch's,
    # with the same flags, for bounds with and without squares
    bk, mask, lift = pk.masks, pk.mask, pk.lift
    assert bk.boolean and bk.shifts == sorted(bk.shifts, reverse=order == DEGLEX)
    top = 1 if mode == BOOLEAN else 2
    for _ in range(60):
        f, *partners = (monomial([rng.randint(0, 1) for _ in range(nvars)])
                        for _ in range(1 + rng.choice([0, 1, 40])))
        bounds = [monomial([rng.randint(0, top) for _ in range(nvars)]) for _ in partners]
        es, known = pk.excesses(b"".join(map(pk.slot, partners)), f,
                                b"".join(map(pk.slot, bounds)))
        mes, mknown = bk.excesses(b"".join(bk.slot(mask(a)) for a in partners), mask(f),
                                  b"".join(bk.slot(mask(h)) for h in bounds))
        assert list(map(lift, mes)) == es and mknown == known
        for m in (f, *partners):
            assert lift(mask(m)) == m and bk.degree(mask(m)) == pk.degree(m)
        # the masks sort as the monomials do
        assert (sorted(partners, key=lambda a: bk.key(mask(a)))
                == sorted(partners, key=pk.key))
        # any monomial's mask is the Boolean packing of its support
        for h in bounds:
            assert mask(h) == bk.pack(tuple(min(e, 1) for e in pk.unpack(h)))


@pytest.mark.parametrize("mode,order", CASES)
def test_reducer_finds_a_divisor_appended_after_a_miss(mode, order):
    pk = groebner._Packing(3, mode, order, 3)
    red = groebner._Reducer(pk, [pk.pack_element({(0, 1, 0)})])
    m = pk.pack((1, 0, 1))
    assert red.find_divisor(m) == -1
    red.extend([pk.pack_element({(1, 0, 0), (0, 0, 1)})])
    assert red.find_divisor(m) == 1


@pytest.mark.parametrize("mode,order", CASES)
def test_an_entering_lm_after_its_miss_is_its_own_first_divisor(mode, order):
    pk = groebner._Packing(3, mode, order, 3)
    walked = []  # the pairs the divisor walk confirms
    divides = pk.divides
    pk.divides = lambda a, b: walked.append((a, b)) or divides(a, b)
    y, xz, xy = pk.pack((0, 1, 0)), pk.pack((1, 0, 1)), pk.pack((1, 1, 0))
    z = pk.pack((0, 0, 1))
    # a miss for x1*z1 at one element, then x1*z1 + z1 enters as element 1:
    # it answers without a walk
    red = groebner._Reducer(pk, [[y]])
    assert red.find_divisor(xz) == -1
    red.extend([[xz, z]])
    del walked[:]
    assert red.find_divisor(xz) == 1 and walked == []
    # a miss at one element, then x1*y1 (no divisor of x1*z1) enters before
    # x1*z1 + z1: the miss stays a miss, and the lookup walks the elements
    # appended since it, to the one candidate, x1*z1 itself
    red = groebner._Reducer(pk, [[y]])
    assert red.find_divisor(xz) == -1
    red.extend([[xy], [xz, z]])
    del walked[:]
    assert red.find_divisor(xz) == 2 and walked == [(xz, xz)]
    assert red.find_divisor(xz) == 2 and walked == [(xz, xz)]  # now a hit


def _assert_one_pass_fill_matches_extend(basis):
    """The constructor's one pass per column against `extend` one element
    at a time: the same lists, columns and first divisors of every lm and
    tail monomial."""
    red = basis._reducer
    pk, elements = red.pk, [(lm, *tail) for lm, tail in zip(red.lms, red.tails)]
    built, appended = groebner._Reducer(pk, elements), groebner._Reducer(pk)
    for element in elements:
        appended.extend([element])
    assert (built.lms, built.tails) == (appended.lms, appended.tails) == (red.lms, red.tails)
    assert built.columns == appended.columns
    monos = [*red.lms, *(m for tail in red.tails for m in tail)]
    assert list(map(built.find_divisor, monos)) == list(map(appended.find_divisor, monos))


@pytest.mark.parametrize("mode,order", CASES)
def test_one_pass_fill_matches_extend_on_G(mode, order):
    for n in range(2, 7):
        _assert_one_pass_fill_matches_extend(
            GroebnerBasis(make_G(n, mode, order).polynomials, order))


def test_one_pass_fill_matches_extend_on_random_families():
    systems = [F for seed in (1, 2, 3) for F in dense_systems(seed)] + chain_systems()
    for F in systems:
        raw = buchberger(F)[0]
        for basis in (raw, interreduce(raw)):
            _assert_one_pass_fill_matches_extend(basis)


@pytest.mark.parametrize("mode,order", CASES)
def test_one_pass_fill_of_no_elements_is_empty(mode, order):
    pk = groebner._Packing(3, mode, order, 3)
    red = groebner._Reducer(pk, [])
    assert red.columns == groebner._Reducer(pk).columns == [0] * len(pk.flags(0))
    assert red.lms == red.tails == [] and red.find_divisor(pk.pack((1, 0, 0))) == -1
    # and it grows like any other reducer
    red.extend([pk.pack_element({(1, 0, 0), (0, 0, 1)})])
    assert red.find_divisor(pk.pack((1, 1, 0))) == 0


# the walk's systems: G(3), whose full ring holds every x_i^2 + x_i; raw
# H(3); and the wide system, whose fields the engine widens to two bytes
WALK_SYSTEMS = ("G3", "H3", "wide")


def _walk_basis(system, mode, order):
    if system == "G3":
        return GroebnerBasis(make_G(3, mode, order).polynomials, order)
    if system == "H3":
        return buchberger(make_H(3, mode, order))[0]
    # the raw deglex basis, read in the given order: it keeps y1^125
    wide = buchberger(GeneratorSet([parse_poly("x1^63+y1", 1, mode),
                                    parse_poly("x1*y1^62+z1", 1, mode)], DEGLEX))[0]
    return GroebnerBasis(wide.elements, order)


def _walk_queries(rng, red, count):
    """Seeded monomials, squarefree and not, within the reducer's fields,
    and each leading monomial."""
    pk, nvars = red.pk, len(red.pk.shifts)
    monos = [m for max_exp in (1, 3) for m in random_monomials(rng, nvars, FULL, count, max_exp)]
    # the squarefree ones with higher exponents, of degree at most fmax
    top = max(1, min(20, pk.fmax // nvars))
    monos += [tuple(e * rng.randint(1, top) for e in m) for m in monos[:count]]
    if pk.boolean:
        monos = [tuple(min(e, 1) for e in m) for m in monos]
    return [*map(pk.pack, monos), *red.lms]


@pytest.mark.parametrize("mode,order", CASES)
@pytest.mark.parametrize("system", WALK_SYSTEMS)
def test_divisor_walk_matches_a_scan(mode, order, system):
    red = _walk_basis(system, mode, order)._reducer
    pk, lms = red.pk, red.lms
    if system == "wide" and mode == FULL:
        assert pk.fmax > 127  # two-byte fields
    rng = random.Random(71)
    for m in _walk_queries(rng, red, 150):
        for above in (-1, 0, len(lms) // 3, len(lms) - 2, len(lms) - 1):
            assert list(red.divisors(m, above)) == [
                i for i in range(above + 1, len(lms)) if pk.divides(lms[i], m)]


@pytest.mark.parametrize("order", (DEGLEX, DEGREVLEX))
@pytest.mark.parametrize("system", WALK_SYSTEMS)
def test_full_walk_of_a_squarefree_query_tests_only_divisors(order, system):
    # a squarefree query lacks the square flag, so the walk leaves out
    # every leading monomial with a square, x_i^2 among them, at once
    red = _walk_basis(system, FULL, order)._reducer
    pk = red.pk
    answers = []
    divides = pk.divides
    pk.divides = lambda a, b: answers.append(divides(a, b)) or answers[-1]
    counted = groebner._Reducer(pk, [(lm, *tail) for lm, tail in zip(red.lms, red.tails)])
    rng = random.Random(73)
    squarefree = [m for m in _walk_queries(rng, counted, 150)
                  if pk.degree(m) == pk.support(m).bit_count()]
    found = sum(len(list(counted.divisors(m))) for m in squarefree)
    assert len(squarefree) > 100 and answers == [True] * found
    assert found or system == "wide"  # there every lm has a square


@pytest.fixture
def widths(monkeypatch):
    """The largest field value of every _Packing built from here on."""
    built = []
    packing = groebner._Packing

    def recording(*args):
        pk = packing(*args)
        built.append(pk.fmax)
        return pk

    monkeypatch.setattr(groebner, "_Packing", recording)
    return built


def test_full_mode_overflow_widens_instead_of_wrapping(widths):
    # inputs of degree 63 get one-byte fields (exponents up to 127); the
    # basis grows y1^125, whose lcm with x1^63 has degree 188
    F = GeneratorSet([parse_poly("x1^63+y1", 1), parse_poly("x1*y1^62+z1", 1)],
                     DEGLEX)
    raw, stats = buchberger(F)
    assert widths[0] < 188 <= widths[1]  # buchberger restarted wider
    # expected basis and counts from the exponent-tuple engine
    assert sorted(format_poly(f) for f in interreduce(raw)) == [
        "x1*y1^62+z1", "x1^62*z1+y1^63", "x1^63+y1", "y1^125+x1^61*z1^2"]
    assert (stats.pairs_generated, stats.pairs_skipped_by_criteria,
            stats.reductions_to_zero) == (6, 2, 2)


def test_overflow_in_a_monomial_update_widens(widths):
    # inputs of degree 55 get one-byte fields (exponents up to 127); the
    # basis grows the monomial x1^2*y1^85*z1^6, whose update pairs it with
    # the one non-monomial, x1^5*y1^9*z1^41 + ..., at an lcm of degree 131,
    # the only lcm of the run past 127
    F = GeneratorSet([parse_poly("x1^14*y1^7*z1^15", 1),
                      parse_poly("x1^5*y1^9*z1^41+x1^2*y1^28*z1^6", 1)], DEGLEX)
    raw, stats = buchberger(F)
    assert widths[0] < 131 <= widths[1]  # buchberger restarted wider
    reduced = interreduce(raw)
    assert is_groebner_basis(list(reduced), DEGLEX)
    assert sorted(format_poly(f) for f in reduced) == [
        "x1^11*y1^28*z1^6", "x1^14*y1^7*z1^15", "x1^2*y1^85*z1^6",
        "x1^5*y1^66*z1^6", "x1^5*y1^9*z1^41+x1^2*y1^28*z1^6", "x1^8*y1^47*z1^6"]
    assert (stats.pairs_generated, stats.pairs_queued, stats.pairs_monomial,
            stats.reductions_to_zero) == (15, 4, 10, 0)


def test_high_exponents_are_exact():
    F = GeneratorSet([parse_poly("x1^300+y1", 1), parse_poly("x1*y1^299+z1", 1)],
                     DEGLEX)
    basis = interreduce(buchberger(F)[0])
    assert sorted(format_poly(f) for f in basis) == [
        "x1*y1^299+z1", "x1^299*z1+y1^300", "x1^300+y1", "y1^599+x1^298*z1^2"]
    assert is_groebner_basis(list(basis), DEGLEX)


# inputs whose bases grow leading monomials past half the fields their
# inputs get: those of the three tests above, and one that reaches degree
# 71 while every lcm of its basis still fits one-byte fields
HIGH_DEGREE = [("x1^63+y1", "x1*y1^62+z1"),
               ("x1^14*y1^7*z1^15", "x1^5*y1^9*z1^41+x1^2*y1^28*z1^6"),
               ("x1^300+y1", "x1*y1^299+z1"),
               ("x1*z1+1+y1^2", "x1^2+x1^35*y1")]


def _run(F):
    """The raw and reduced dumps of F's basis, the engine's counters, and
    is_groebner_basis on lists packed anew: F's generators, the elements
    of both bases, and the reduced basis less its first element."""
    raw, stats = buchberger(F)
    reduced = interreduce(raw)
    counters = {k: v for k, v in vars(stats).items() if k != "wall_time"}
    answers = [is_groebner_basis(list(G), F.order, use_criteria)
               for G in (F, raw, reduced, list(reduced)[1:])
               for use_criteria in (True, False)]
    return dump_basis(raw), dump_basis(reduced), counters, answers


@pytest.mark.parametrize("gens", HIGH_DEGREE)
def test_fields_hold_twice_every_leading_degree(gens):
    # the width rule, read off the raw basis's own reducer; the predicates
    # take the bases themselves, as a list would be packed anew
    raw, _ = buchberger(GeneratorSet([parse_poly(p, 1) for p in gens], DEGLEX))
    red = raw._reducer
    assert 2 * max(map(red.pk.degree, red.lms)) <= red.pk.fmax
    assert is_groebner_basis(raw)
    assert is_groebner_basis(interreduce(raw), use_criteria=False)


@pytest.mark.parametrize("F", [
    GeneratorSet([parse_poly(p, 1) for p in gens], DEGLEX) for gens in HIGH_DEGREE] + [
    make_H(3, mode, order) for mode, order in CASES])
def test_field_width_changes_no_decision(F, monkeypatch):
    # the engine restarts with wider fields as an element enters; a run
    # whose full-mode fields start wide never restarts, and decides alike.
    # The predicate's batches read every lcm in the fields of a list's own
    # packing (x1^63*y1^62 in one-byte fields for the first input), and
    # answer alike in fields wide from the start
    default = _run(F)
    assert default[3][2:6] == [True] * 4 and False in default[3]
    packing = groebner._Packing

    def wide(nvars, mode, order, degree):
        return packing(nvars, mode, order, degree if mode == BOOLEAN else 2 ** 70)

    monkeypatch.setattr(groebner, "_Packing", wide)
    assert _run(F) == default


@pytest.mark.parametrize("order", (DEGLEX, DEGREVLEX))
@pytest.mark.parametrize("degree", (3, 300, 2 ** 70))
def test_full_mode_product_of_degree_fmax_is_exact(order, degree):
    # fields hold twice the largest input degree and fmax is odd, so no
    # product of two inputs reaches it; these do, with every exponent in
    # one field and spread over all three
    pk = groebner._Packing(3, FULL, order, degree)
    f = pk.fmax
    h = f // 2
    for a, b in [((h, 0, 0), (f - h, 0, 0)), ((h, 1, 0), (1, f - h - 3, 1))]:
        product = mono_mul(a, b, FULL)
        assert sum(product) == f
        p = pk.mul(pk.pack(a), pk.pack(b))
        assert p == pk.pack(product)
        assert pk.unpack(p) == product and pk.degree(p) == f


@pytest.mark.parametrize("mode,order", CASES)
def test_basis_normal_form_matches_list_normal_form(mode, order):
    rng = random.Random(13)
    basis = interreduce(buchberger(make_H(2, mode, order))[0])
    for _ in range(100):
        f = random_poly(rng, 2, mode, max_exp=3)
        assert normal_form(f, basis) == normal_form(f, list(basis), basis.order)
    # a query of higher degree than the basis gets fields wide enough for it
    f = parse_poly("x1^40*y2^30+z1", 2, mode)
    assert normal_form(f, basis) == normal_form(f, list(basis), basis.order)


@pytest.mark.parametrize("mode,order", CASES)
def test_queries_read_the_basis_packing(mode, order, widths):
    basis = interreduce(buchberger(make_H(2, mode, order))[0])
    rng = random.Random(17)
    del widths[:]
    for _ in range(100):
        normal_form(random_poly(rng, 2, mode, max_exp=3), basis)
    assert widths == []


def test_query_above_the_basis_fields_is_widened_once(widths):
    basis = interreduce(buchberger(make_H(2))[0])
    del widths[:]
    # degree 210 does not fit the one-byte fields (exponents up to 127);
    # the field polynomials of H(2) bring every power down to x1*y2
    f = parse_poly("x1^150*y2^60+z1", 2)
    assert normal_form(f, basis) == normal_form(parse_poly("x1*y2+z1", 2), basis)
    assert len(widths) == 1 and widths[0] >= 210


def test_strict_interreduce_packs_only_its_result(widths):
    G2 = list(make_G(2).polynomials)
    redundant = [parse_poly(t, 2) for t in
                 ("x1*y2*z1+x1*y2", "x1*z1*z2+x1*z2", "y1*z1*x2+y1*x2")]
    basis = GroebnerBasis(G2 + redundant, DEGLEX)
    del widths[:]
    assert interreduce(basis, strict=True).as_set() == frozenset(G2)
    # the result is built from the basis's own packed elements
    assert widths == []


@pytest.mark.parametrize("mode,order", CASES)
def test_engine_bases_equal_the_bases_of_their_elements(mode, order):
    # buchberger and interreduce build their bases from packed elements;
    # GroebnerBasis packs the same polynomials anew
    rng = random.Random(29)
    for n in range(2, 6):
        raw = buchberger(make_H(n, mode, order))[0]
        reduced = interreduce(raw)
        for built, reduced_flag in ((raw, False), (reduced, True)):
            again = GroebnerBasis(list(built), order, reduced_flag)
            assert built.elements == again.elements
            assert built.leading_monomials() == again.leading_monomials()
            assert built.reduced == reduced_flag
            for _ in range(50):
                f = random_poly(rng, n, mode, max_exp=3)
                assert normal_form(f, built) == normal_form(f, again)


@pytest.mark.parametrize("mode,order,counts,digest", [
    (FULL, DEGLEX, (37128, 1660, 6065, 29403, 1408),
     "e54957a936aa5786f650edaadb946692b24f599bed88fe01bd373225d50b2a42"),
    (BOOLEAN, DEGREVLEX, (34398, 1660, 2120, 30618, 1408),
     "e47432b1576c4c65ebfe084849beededd37850509d06f6691594226badab56cc"),
    (FULL, DEGREVLEX, (37128, 1660, 6065, 29403, 1408),
     "6edb5bb0f89555d1f1c36cf3962a2037c2be2abbadf55bdb470330ce93e7b526"),
    (BOOLEAN, DEGLEX, (34398, 1660, 2120, 30618, 1408),
     "20bd2dcb772b6e421672762e6f2cf4a4c45deec95f329a83a5c71baeb8ace6e6"),
])
def test_reduction_stats_pinned_at_n5(mode, order, counts, digest):
    raw, stats = buchberger(make_H(5, mode, order))
    assert (stats.pairs_generated, stats.pairs_queued,
            stats.pairs_skipped_by_criteria, stats.pairs_monomial,
            stats.reductions_to_zero) == counts
    # the raw basis, byte for byte, as the engine gave it before the
    # monomial criterion pruned any pair: a dropped nonzero pair changes it
    assert hashlib.sha256(dump_basis(raw).encode()).hexdigest() == digest
    assert interreduce(raw).as_set() == frozenset(make_G(5, mode, order).polynomials)


@pytest.mark.parametrize("mode,order,counts,digest", [
    (FULL, DEGLEX, (292230, 5880, 20994, 265356, 5140),
     "7cc9fd36f88bd2efe99276a97d401a68735ba4bbdc8fcbd3afd59e5b9c6bc574"),
    (BOOLEAN, DEGREVLEX, (283041, 5880, 7431, 269730, 5140),
     "8f5d8146ee61d6d36a5a4e6d54c25eb054b927324c9532ed602a25f2519407f4"),
    (FULL, DEGREVLEX, (292230, 5880, 20994, 265356, 5140),
     "17f353e94a9cd88a96c9212af89d2a15da5584a03612a51d2e31a318189933dc"),
    (BOOLEAN, DEGLEX, (283041, 5880, 7431, 269730, 5140),
     "56f57005fa25d1e4b483015a10761197c48f3691489ef59ca1f1274f669e29a6"),
])
def test_reduction_stats_pinned_at_n6(mode, order, counts, digest):
    # the benchmark's size: every engine decision on H(6), counters and
    # the raw basis byte for byte
    raw, stats = buchberger(make_H(6, mode, order))
    assert (stats.pairs_generated, stats.pairs_queued,
            stats.pairs_skipped_by_criteria, stats.pairs_monomial,
            stats.reductions_to_zero) == counts
    assert hashlib.sha256(dump_basis(raw).encode()).hexdigest() == digest


def test_reduced_dumps_pinned():
    # the reduced bases of H(2..6) in all four mode x order pairs, byte for
    # byte, as a dump sorted each element by MonomialOrder.key wrote them
    digest = hashlib.sha256()
    for mode, order in CASES:
        for n in range(2, 7):
            reduced = interreduce(buchberger(make_H(n, mode, order))[0])
            digest.update(dump_basis(reduced).encode() + b"\n")
    assert digest.hexdigest() == (
        "95221b0c8655bebb37fa46b55c44b953a1fb9408ba094b10da536dee2889ef48")


def chain_systems():
    """24 seeded random systems, cycling n in {1, 2}, both modes and both
    orders, with the field polynomials adjoined in the full ring.  The
    chain query prunes on 9 of them, where it never does on H(n)."""
    rng = random.Random(317)
    systems = []
    for k in range(24):
        n, mode = 1 + k % 2, (FULL, BOOLEAN)[k // 2 % 2]
        F = random_system(rng, n, mode)
        gens = list(F.polynomials) + (list(make_S(n)) if mode == FULL else [])
        systems.append(GeneratorSet(gens, (DEGLEX, DEGREVLEX)[k // 4 % 2]))
    return systems


def test_reduction_stats_pinned_where_the_chain_criterion_fires():
    # every engine decision on systems where the chain criterion prunes:
    # the counters that do not depend on when a prune is counted, and the
    # raw bases byte for byte
    counts, pruned = [], 0
    digest = hashlib.sha256()
    for F in chain_systems():
        raw, stats = buchberger(F)
        counts.append((stats.pairs_generated, stats.pairs_queued,
                       stats.pairs_monomial, stats.reductions_to_zero))
        # a queued pair is pruned, reduced to zero, or adds an element
        pruned += stats.pairs_queued - stats.reductions_to_zero - (len(raw) - len(F))
        digest.update(dump_basis(raw).encode() + b"\n")
    assert counts == [
        (21, 5, 0, 3), (45, 13, 0, 10), (4, 3, 0, 3), (106, 45, 6, 30),
        (21, 6, 0, 3), (66, 3, 10, 1), (23, 7, 4, 4), (106, 42, 2, 28),
        (21, 0, 0, 0), (91, 26, 0, 15), (18, 10, 3, 6), (26, 21, 0, 17),
        (36, 7, 0, 3), (231, 47, 0, 18), (33, 17, 1, 13), (46, 28, 0, 19),
        (10, 1, 1, 0), (78, 14, 1, 9), (17, 7, 3, 4), (14, 13, 0, 11),
        (21, 6, 0, 3), (105, 24, 0, 11), (4, 3, 0, 3), (1, 0, 1, 0)]
    assert pruned == 42
    assert digest.hexdigest() == (
        "b5e5a5798ac7feb35413487aef65c2901264412046cbf698ab399aca49899d39")


def test_random_dumps_pinned():
    # the raw and reduced bases of 300 seeded random systems, cycling n in
    # {1, 2, 3}, both modes and both orders, with the field polynomials
    # adjoined in the full ring, byte for byte; the rule that settles a
    # task at pop decides no element, so the digest predates it
    rng = random.Random(401)
    digest = hashlib.sha256()
    pruned = zero = 0
    for k in range(300):
        n, mode = 1 + k % 3, (FULL, BOOLEAN)[k // 3 % 2]
        F = random_system(rng, n, mode)
        gens = list(F.polynomials) + (list(make_S(n)) if mode == FULL else [])
        raw, stats = buchberger(GeneratorSet(gens, (DEGLEX, DEGREVLEX)[k // 6 % 2]))
        digest.update(dump_basis(raw).encode() + b"\n")
        digest.update(dump_basis(interreduce(raw)).encode() + b"\n")
        pruned += stats.pairs_chain_pruned
        zero += stats.reductions_to_zero
    assert digest.hexdigest() == (
        "20cb09f7e55a7c07a6e22f15c1ee19c7915078f7d03b98d70983bf859ca921c8")
    # the rule settles tasks before the chain query, and no look-back drop
    # prunes a repeat: 15 tasks move from pruned to reductions to zero
    # (then: 1387 pruned, 5702 reductions to zero)
    assert (pruned, zero) == (1372, 5717)


def dense_systems(seed):
    """8 dense random systems: system k in n = 3 + k % 2 blocks, full or
    Boolean by k // 2 % 2, deglex or degrevlex by k // 4 % 2, with 4-8
    generators of 3-6 monomials, each a product of up to three random
    variables, and the field polynomials adjoined in the full ring."""
    rng = random.Random(seed)
    systems = []
    for k in range(8):
        n, mode = 3 + k % 2, (FULL, BOOLEAN)[k // 2 % 2]
        nvars = 3 * n
        gens = []
        for _ in range(rng.randint(4, 8)):
            terms = set()
            for _ in range(rng.randint(3, 6)):
                m = [0] * nvars
                for _ in range(rng.randint(0, 3)):
                    v = rng.randrange(nvars)
                    m[v] = 1 if mode == BOOLEAN else m[v] + 1
                terms.add(tuple(m))
            gens.append(Polynomial(terms, nvars, mode))
        gens += list(make_S(n)) if mode == FULL else []
        systems.append(GeneratorSet(gens, (DEGLEX, DEGREVLEX)[k // 4 % 2]))
    return systems


def test_dense_random_dumps_pinned():
    # the raw bases of the dense family for seeds 1-3, byte for byte: the
    # input where the chain query drops a quarter to a third of the
    # queued pairs, so a step tuned to H(n) that decides an element
    # differently shows here
    digest = hashlib.sha256()
    queued = pruned = 0
    for seed in (1, 2, 3):
        for F in dense_systems(seed):
            raw, stats = buchberger(F)
            digest.update(dump_basis(raw).encode() + b"\n")
            queued += stats.pairs_queued
            pruned += stats.pairs_chain_pruned
    assert digest.hexdigest() == (
        "8ea955b154ed61c1ab12498413234073686f3dc1831d13d2733903ee92f094a4")
    assert (queued, pruned) == (11428, 3345)


def test_long_tail_dumps_pinned():
    # one block in the full ring under deglex, whose raw basis has tails
    # of up to 168 terms where those of H(n) have at most 3, and where the
    # chain query prunes: its counters and its raw and reduced bases, byte
    # for byte.  is_groebner_basis, with the product criterion alone,
    # takes tens of seconds on the reduced basis, so it is left out
    F = GeneratorSet([parse_poly(p, 1) for p in (
        "x1^2*y1*z1^9+x1*y1^8*z1^2+y1*z1^2", "x1*y1^15+x1^2*y1*z1^2",
        "y1^2*z1^11+y1*z1^10+z1")], DEGLEX)
    raw, stats = buchberger(F)
    reduced = interreduce(raw)
    assert (stats.pairs_generated, stats.pairs_queued, stats.pairs_skipped_by_criteria,
            stats.pairs_monomial, stats.pairs_chain_pruned,
            stats.reductions_to_zero) == (12720, 439, 12281, 0, 114, 168)
    assert (len(raw), max(map(len, raw)), len(reduced)) == (160, 169, 64)
    assert [hashlib.sha256(dump_basis(G).encode()).hexdigest() for G in (raw, reduced)] == [
        "1e316cbc2392b1a9bb22f982902c4b6c211fed5fa391bef25cc086845858cc7c",
        "6ad6dab00632d475a968605fe7609b450e0e998c6886e046ea2fd147ba61b549"]


def _known_zero(pk, f, g):
    """The criteria on the S-pair of two packed elements, lm first: the
    product criterion for two non-monomials, and for a monomial m and an
    element h, g = gcd(m, lm h) divides every tail monomial of h."""
    if len(f) > 1 and len(g) > 1:
        return pk.support(f[0]) & pk.support(g[0]) == 0
    (m,), h = (f, g) if len(f) == 1 else (g, f)
    gcd = pk.gcd(m, h[0])
    return all(pk.divides(gcd, u) for u in h[1:])


def _reference_update(pk, elements, t):
    """The pairs a Gebauer-Moeller update queues as elements[t] enters
    after elements[:t], as heap entries, by brute force: every lcm that
    no other partner lcm properly divides, with the lowest index of its
    group, unless one member of the group meets a criterion."""
    f = elements[t]
    partners = [i for i in range(t) if len(f) > 1 or len(elements[i]) > 1]
    lcms = {i: pk.lcm(elements[i][0], f[0]) for i in partners}
    queued = set()
    for lcm in set(lcms.values()):
        if any(other != lcm and pk.divides(other, lcm) for other in lcms.values()):
            continue
        members = [i for i in partners if lcms[i] == lcm]
        if not any(_known_zero(pk, elements[i], f) for i in members):
            queued.add((pk.key(lcm), 0, members[0], t))
    return queued


def _random_dump_systems(count):
    """The first count systems of test_random_dumps_pinned."""
    rng = random.Random(401)
    for k in range(count):
        n, mode = 1 + k % 3, (FULL, BOOLEAN)[k // 3 % 2]
        F = random_system(rng, n, mode)
        gens = list(F.polynomials) + (list(make_S(n)) if mode == FULL else [])
        yield GeneratorSet(gens, (DEGLEX, DEGREVLEX)[k // 6 % 2])


def test_update_queues_the_reference_pairs(monkeypatch):
    # every pair the engine queues, update by update, against the brute
    # force over the same elements in the order they entered.  Of the
    # 2,366 updates here, 55 (all in the random systems) have a partner lm
    # that divides lm_f, so that lcm is the only minimal one.  In 591 the
    # mask of the variables among the excesses leaves some lcms over, and
    # the levelled scan among those prunes 75 lcms in 55 updates of the
    # random systems and none on H(n).  The two small systems have covered
    # elements: in the first, x1's batch keeps the covered x1^2+x1, whose
    # lcm prunes the uncovered x1^2*y1+z1's; in the second, x1*z1 and
    # x1*y1 leave the covered x1^2*y1+x1*y1 out, and x1^2 keeps it
    pushes, built, batches = [], [], []
    heappush = groebner.heapq.heappush
    init = groebner._Packing.__init__

    def recording_init(pk, *args):
        init(pk, *args)
        excesses, span = pk.excesses, len(pk.slot(0))

        def recording_excesses(slots, f, bounds=b"", g=None):
            if g is None:  # a monomial's batch: no tail gcd to AND in
                batches.append(len(slots) // span)
            return excesses(slots, f, bounds, g)

        pk.excesses = recording_excesses

    def recording_push(heap, item):
        if type(item) is tuple and item[1] == 0:
            pushes.append(item)
        heappush(heap, item)

    def recording_build(basis, pk, packed, *args, **kwargs):
        built.append((pk, packed))
        return build(basis, pk, packed, *args, **kwargs)

    build = groebner.GroebnerBasis._build
    monkeypatch.setattr(groebner, "heapq", types.SimpleNamespace(
        heappush=recording_push, heappop=heapq.heappop, heapify=heapq.heapify))
    monkeypatch.setattr(groebner.GroebnerBasis, "_build", recording_build)
    monkeypatch.setattr(groebner._Packing, "__init__", recording_init)
    systems = [make_H(n, mode, order) for n in range(2, 6) for mode, order in CASES]
    systems += [GeneratorSet([parse_poly(p, 1, FULL) for p in text.split(", ")], order)
                for text in ("x1^2+x1, x1^2*y1+z1, x1", "x1^2*y1+x1*y1, y1*z1+x1, x1*z1")
                for order in (DEGLEX, DEGREVLEX)]
    updates = 0
    for F in systems + list(_random_dump_systems(60)):
        del pushes[:], built[:], batches[:]
        buchberger(F)
        if (F.n, F.mode, F.order) == (5, FULL, DEGLEX):
            # H(5): a monomial's batch skips the 15 covered x^2+x of its
            # 30 non-monomials
            assert max(batches) <= 15
        (pk, elements), = built  # the working elements, in the order they entered
        by_update = collections.defaultdict(set)
        for push in pushes:
            by_update[push[3]].add(push)
        assert len(pushes) == sum(map(len, by_update.values()))
        for t in range(len(elements)):
            assert by_update[t] == _reference_update(pk, elements, t), (F, t)
        updates += len(elements)
    assert updates == 2366


@pytest.mark.parametrize("mode,order", CASES)
def test_monomial_pair_criterion_is_sound(mode, order):
    # whenever the rule says zero, the S-polynomial reduces to zero by the
    # monomial alone; g = gcd(m, lm f) != 1 is the case past the product
    # criterion
    rng = random.Random(19)
    fired = past_product = 0
    for _ in range(3000):
        f = random_poly(rng, 1, mode, max_terms=4, max_exp=3)
        if f.is_zero:
            continue
        m = random_monomials(rng, 3, mode, 1)[0]
        pk = groebner._Packing(3, mode, order, max(f.degree(), sum(m)))
        (lm, *tail), pm = pk.pack_element(f.terms), pk.pack(m)
        if tail:
            # the monomial's update: f is its partner, bounded by its tail's gcd
            (e,), known = pk.excesses(pk.slot(lm), pm,
                                      pk.slot(functools.reduce(pk.gcd, tail)))
            zero = bool(known[0])
            # g divides the tail's gcd exactly when it divides every tail monomial
            g = pk.quo(lm, e)
            assert g == pk.gcd(lm, pm)
            assert zero == all(pk.divides(g, t) for t in tail)
        else:
            zero = True  # two monomials: the S-polynomial is zero
        if not zero:
            continue
        M = Polynomial({m}, 3, mode)
        assert normal_form(s_polynomial(M, f, order), [M], order).is_zero
        fired += 1
        past_product += pk.support(pm) & pk.support(lm) != 0
    assert fired > 100 and past_product > 50
    # the engine drops such a pair whether the monomial or the other
    # element comes last (g = x1 divides the tail x1*z2 or x1*y2); only the
    # two Boolean field tasks of f are queued
    f, m = parse_poly("x1*y2+x1*z2", 2, mode), parse_poly("x1*y1", 2, mode)
    for gens in ([f, m], [m, f]):
        raw, stats = buchberger(GeneratorSet(gens, order))
        assert (stats.pairs_queued, stats.pairs_skipped_by_criteria) == (
            2 if mode == BOOLEAN else 0, 1)
        assert raw.as_set() == {f, m}


@pytest.mark.parametrize("order", [DEGLEX, DEGREVLEX])
def test_a_squarefree_monomial_may_skip_covered_partners(order):
    # f is covered when every variable of lm f divides the gcd of its
    # tail.  For a squarefree monomial m, gcd(m, lm f) is squarefree, so
    # the pair is known to reduce to zero; and lm f has an exponent of at
    # least 2, which f's excess keeps, so it divides no excess of a
    # partner g with a squarefree lm, and prunes none of their lcms
    rng = random.Random(43)
    nvars = 6
    pk = groebner._Packing(nvars, FULL, order, 8)
    for _ in range(300):
        m = pk.pack(tuple(rng.randint(0, 1) for _ in range(nvars)))
        lm = [rng.choice([0, 0, 1, 2, 3]) for _ in range(nvars)]
        lm[rng.randrange(nvars)] = rng.randint(2, 3)
        radical = [min(x, 1) for x in lm]
        # tail monomials are multiples of the radical of lower degree
        tail = {tuple(r + rng.randint(0, 1) for r in radical)
                for _ in range(rng.randint(1, 3))}
        tail = [pk.pack(u) for u in tail if sum(u) < sum(lm)]
        if not tail:
            continue
        plm = pk.pack(tuple(lm))
        gcd = functools.reduce(pk.gcd, tail)
        assert pk.divides(pk.pack(tuple(radical)), gcd)  # f is covered
        (ef,), known = pk.excesses(pk.slot(plm), m, pk.slot(gcd))
        assert known == b"\x01"
        gs = [pk.pack(tuple(rng.randint(0, 1) for _ in range(nvars))) for _ in range(20)]
        es, _ = pk.excesses(b"".join(map(pk.slot, gs)), m)
        assert not any(pk.divides(ef, e) for e in es)
    # a partner g with a non-squarefree lm breaks the second fact: for
    # m = x1 and f = x1^2+x1, f's excess x1 divides g's excess x1*y1
    m, f, g, x1, x1y1 = (pk.pack_element(parse_poly(p, 2, FULL).terms)
                         for p in ("x1", "x1^2+x1", "x1^2*y1+z1", "x1", "x1*y1"))
    (ef,), known = pk.excesses(pk.slot(f[0]), m[0], pk.slot(f[1]))
    (eg,), _ = pk.excesses(pk.slot(g[0]), m[0])
    assert known == b"\x01"
    assert [ef, eg] == x1 + x1y1
    assert pk.divides(ef, eg)
