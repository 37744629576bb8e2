"""Packed-int monomials inside the engine: layout, kernels and overflow."""

import random

import pytest

from boolgb import (
    BOOLEAN,
    DEGLEX,
    DEGREVLEX,
    FULL,
    GeneratorSet,
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
        first = pk.first_divisor([pk.pack(d) for d in monos], pk.pack(a))
        assert first == next(i for i, d in enumerate(monos) if mono_divides(d, a))


def test_full_mode_overflow_widens_instead_of_wrapping(monkeypatch):
    # inputs of degree 63 get one-byte fields (exponents up to 127); the
    # basis grows y1^125, whose lcm with x1^63 has degree 188
    widths = []
    packing = groebner._Packing

    def recording(*args):
        pk = packing(*args)
        widths.append(pk.fmax)
        return pk

    monkeypatch.setattr(groebner, "_Packing", recording)
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


@pytest.mark.parametrize("mode,order,counts", [
    (FULL, DEGLEX, (37128, 33443, 3433)),
    (BOOLEAN, DEGREVLEX, (34398, 30713, 3433)),
])
def test_reduction_stats_pinned_at_n5(mode, order, counts):
    raw, stats = buchberger(make_H(5, mode, order))
    assert (stats.pairs_generated, stats.pairs_skipped_by_criteria,
            stats.reductions_to_zero) == counts
    assert interreduce(raw).as_set() == frozenset(make_G(5, mode, order).polynomials)

