"""Packed-int monomials inside the engine: layout, kernels and overflow."""

import random

import pytest

from boolgb import (
    BOOLEAN,
    DEGLEX,
    DEGREVLEX,
    FULL,
    GeneratorSet,
    GroebnerBasis,
    buchberger,
    format_poly,
    interreduce,
    is_groebner_basis,
    make_G,
    make_H,
    mono_divides,
    mono_lcm,
    mono_mul,
    normal_form,
    parse_poly,
)
from boolgb import groebner
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
        for b in monos:
            pa, pb = pk.pack(a), pk.pack(b)
            assert pk.divides(pa, pb) == mono_divides(a, b)
            assert pk.unpack(pk.lcm(pa, pb)) == mono_lcm(a, b)
            assert pk.unpack(pk.mul(pa, pb)) == mono_mul(a, b, mode)
            assert (pk.support(pa) & pk.support(pb) == 0) == (
                not any(x and y for x, y in zip(a, b)))
    # the divisor index, before and after every third slot is removed
    index = groebner._SupportIndex(pk)
    assert [index.add(pk.pack(d)) for d in monos] == list(range(len(monos)))
    live = list(range(len(monos)))
    for removing in (False, True):
        if removing:
            for s in live[::3]:
                index.remove(s)
            del live[::3]
        for a in monos:
            divisors = [i for i in live if mono_divides(monos[i], a)]
            assert index.first_divisor(pk.pack(a)) == (divisors or [-1])[0]
            assert index.multiples(pk.pack(a)) == [
                i for i in live if mono_divides(a, monos[i])]


@pytest.mark.parametrize("mode,order", CASES)
def test_reducer_finds_a_divisor_appended_after_a_miss(mode, order):
    pk = groebner._Packing(3, mode, order, 3)
    red = groebner._Reducer(pk, [frozenset({pk.pack((0, 1, 0))})])
    m = pk.pack((1, 0, 1))
    assert red.find_divisor(m) == -1
    red.append(frozenset({pk.pack((1, 0, 0)), pk.pack((0, 0, 1))}))
    assert red.find_divisor(m) == 1


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


def test_high_exponents_are_exact():
    F = GeneratorSet([parse_poly("x1^300+y1", 1), parse_poly("x1*y1^299+z1", 1)],
                     DEGLEX)
    basis = interreduce(buchberger(F)[0])
    assert sorted(format_poly(f) for f in basis) == [
        "x1*y1^299+z1", "x1^299*z1+y1^300", "x1^300+y1", "y1^599+x1^298*z1^2"]
    assert is_groebner_basis(list(basis), DEGLEX)


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
    assert len(widths) == 1


@pytest.mark.parametrize("mode,order,counts", [
    (FULL, DEGLEX, (37128, 3685, 4040, 29403, 3433)),
    (BOOLEAN, DEGREVLEX, (34398, 2470, 1310, 30618, 2218)),
])
def test_reduction_stats_pinned_at_n5(mode, order, counts):
    raw, stats = buchberger(make_H(5, mode, order))
    assert (stats.pairs_generated, stats.pairs_queued,
            stats.pairs_skipped_by_criteria, stats.pairs_monomial,
            stats.reductions_to_zero) == counts
    assert interreduce(raw).as_set() == frozenset(make_G(5, mode, order).polynomials)

