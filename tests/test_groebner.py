"""Engine behavior: S-polynomials, normal forms, Buchberger, interreduction."""

import random

import pytest

from boolgb import (
    BOOLEAN,
    DEGLEX,
    DEGREVLEX,
    FULL,
    BasisFormatError,
    GeneratorSet,
    GroebnerBasis,
    NotAGroebnerBasisError,
    Polynomial,
    ResourceLimitError,
    ZeroPolynomialError,
    buchberger,
    dump_basis,
    format_poly,
    ideal_membership,
    interreduce,
    is_groebner_basis,
    is_reduced_basis,
    leading_monomial,
    load_basis,
    make_G,
    make_H,
    make_S,
    normal_form,
    parse_poly,
    poly_zero,
    s_polynomial,
    to_full,
)
from test_polyring import random_poly


def P(text, n=1, mode=FULL):
    return parse_poly(text, n, mode)


# ---------------------------------------------------------------------------
# s_polynomial

def test_spoly_cancels_leads():
    # independently verified: y*(x^2+x) + x*(x*y+x+y+z) = x^2 + x*z
    s = s_polynomial(P("x1^2+x1"), P("x1*y1+x1+y1+z1"), DEGLEX)
    assert s == P("x1^2 + x1*z1")


def test_spoly_self_is_zero():
    f = P("x1*y1 + z1")
    assert s_polynomial(f, f, DEGLEX).is_zero


def test_spoly_of_monomials_is_zero():
    assert s_polynomial(P("x1*y1"), P("z1"), DEGLEX).is_zero
    assert s_polynomial(P("x1*z1"), P("y1*z1"), DEGLEX).is_zero


def test_spoly_zero_operand_rejected():
    with pytest.raises(ZeroPolynomialError):
        s_polynomial(P("x1"), poly_zero(3), DEGLEX)


# ---------------------------------------------------------------------------
# normal_form

def test_nf_two_step_chain():
    # x^2 -> x, x*z -> x, then x + x = 0 (verified against an external CAS)
    f = P("x1^2 + x1*z1")
    assert normal_form(f, [P("x1^2+x1"), P("x1*z1+x1")], DEGLEX).is_zero


def test_nf_empty_reducers():
    f = P("x1*y1 + z1")
    assert normal_form(f, [], DEGLEX) == f
    assert normal_form(poly_zero(3), [P("x1")], DEGLEX).is_zero


def test_nf_member_of_G2():
    G2 = make_G(2)
    assert normal_form(P("z1*z2", 2), list(G2.polynomials), DEGLEX).is_zero


def test_nf_no_reducible_monomials_remain():
    rng = random.Random(41)
    H2, _ = buchberger(make_H(2))
    basis = interreduce(H2)
    lms = basis.leading_monomials()
    for _ in range(200):
        f = random_poly(rng, 2, FULL)
        r = normal_form(f, basis)
        for m in r.terms:
            assert not any(all(a <= b for a, b in zip(lm, m)) for lm in lms)


def test_nf_idempotent_and_congruent():
    rng = random.Random(43)
    raw, _ = buchberger(make_H(2))
    basis = interreduce(raw)
    for _ in range(200):
        f = random_poly(rng, 2, FULL)
        r = normal_form(f, basis)
        assert normal_form(r, basis) == r
        assert normal_form(f + r, basis).is_zero


def test_nf_reduces_largest_monomial_with_first_divisor():
    # both reducers divide x*y; list order decides the replacement
    f = P("x1*y1")
    r1 = normal_form(f, [P("x1*y1 + x1"), P("x1*y1 + y1")], DEGLEX)
    r2 = normal_form(f, [P("x1*y1 + y1"), P("x1*y1 + x1")], DEGLEX)
    assert r1 == P("x1")
    assert r2 == P("y1")


# ---------------------------------------------------------------------------
# buchberger

def test_buchberger_single_monomial():
    basis, stats = buchberger(GeneratorSet([P("x1")], DEGLEX))
    assert [format_poly(g) for g in basis] == ["x1"]
    assert stats.pairs_generated == 0


def test_buchberger_h2_reduces_to_21():
    raw, _ = buchberger(make_H(2))
    assert len(interreduce(raw)) == 21


def test_buchberger_discovers_xz_lead():
    from boolgb import format_mono
    raw, _ = buchberger(GeneratorSet([P("x1^2+x1"), P("x1*y1+x1+y1+z1")], DEGLEX))
    lms = {format_mono(leading_monomial(g, DEGLEX)) for g in raw}
    assert "x1*z1" in lms


def test_buchberger_pair_cap():
    with pytest.raises(ResourceLimitError) as err:
        buchberger(make_H(3), max_pairs=10)
    assert err.value.stats is not None
    assert err.value.stats.pairs_generated > 10


def test_buchberger_basis_cap():
    with pytest.raises(ResourceLimitError):
        buchberger(make_H(3), max_basis=5)


def test_generator_set_drops_zero_and_duplicates():
    F = GeneratorSet([P("x1"), poly_zero(3), P("x1"), P("y1")], DEGLEX)
    assert len(F) == 2
    with pytest.raises(ValueError):
        GeneratorSet([poly_zero(3)], DEGLEX)


# ---------------------------------------------------------------------------
# interreduce

def test_interreduce_fixed_point_on_reduced_basis():
    G2 = make_G(2)
    basis = GroebnerBasis(list(G2.polynomials), DEGLEX, reduced=False)
    red = interreduce(basis)
    assert red.as_set() == frozenset(G2.polynomials)
    assert red.reduced
    again = interreduce(red)
    assert again.as_set() == red.as_set()


def test_interreduce_h4_gives_105():
    raw, _ = buchberger(make_H(4))
    assert len(interreduce(raw)) == 105


def test_interreduce_g2_as_generators():
    raw, _ = buchberger(make_G(2))
    assert interreduce(raw).as_set() == frozenset(make_G(2).polynomials)


def test_interreduce_strict_rejects_non_basis():
    # {x*y, x+y}: minimalization drops x*y, which does not reduce to zero
    # against {x+y} alone, so the input was not a Groebner basis.
    bad = GroebnerBasis([P("x1*y1"), P("x1+y1")], DEGLEX, reduced=False)
    with pytest.raises(NotAGroebnerBasisError):
        interreduce(bad, strict=True)


def test_interreduce_output_sorted_by_leading_monomial():
    raw, _ = buchberger(make_H(3))
    red = interreduce(raw)
    keys = [DEGLEX.key(leading_monomial(g, DEGLEX)) for g in red]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# predicates

def test_is_groebner_basis_g3():
    assert is_groebner_basis(list(make_G(3).polynomials), DEGLEX)


def test_is_groebner_basis_small_cases():
    assert is_groebner_basis([P("x1*y1+x1"), P("x1")], DEGLEX)
    assert is_groebner_basis([P("x1*y1+z1")], DEGLEX)
    assert not is_groebner_basis([P("x1*y1"), P("x1+y1")], DEGLEX)
    # exhaustive mode agrees
    assert is_groebner_basis(list(make_G(2).polynomials), DEGLEX, use_criteria=False)


def test_is_reduced_basis_boundary():
    assert is_reduced_basis([], DEGLEX) and is_groebner_basis([], DEGLEX)
    assert is_reduced_basis(list(make_G(4).polynomials), DEGLEX)
    assert not is_reduced_basis(list(make_G(1).polynomials), DEGLEX)
    assert not is_reduced_basis([P("x1"), P("x1+y1")], DEGLEX)


def test_ideal_membership():
    raw, _ = buchberger(make_H(3))
    basis = interreduce(raw)
    assert ideal_membership(basis.elements[0], basis)
    assert ideal_membership(P("z1*z2*z3", 3), basis)
    raw2, _ = buchberger(make_H(2))
    basis2 = interreduce(raw2)
    assert not ideal_membership(P("x1", 2), basis2)


def test_closure_all_spolys_reduce_to_zero():
    for n in (1, 2, 3):
        raw, _ = buchberger(make_H(n))
        basis = interreduce(raw)
        assert is_groebner_basis(list(basis.elements), DEGLEX,
                                 use_criteria=(n > 2))


def test_uniqueness_under_generator_permutation():
    rng = random.Random(47)
    reference = None
    polys = list(make_H(3).polynomials)
    for _ in range(4):
        shuffled = polys[:]
        rng.shuffle(shuffled)
        raw, _ = buchberger(GeneratorSet(shuffled, DEGLEX))
        red = interreduce(raw)
        if reference is None:
            reference = red.as_set()
        else:
            assert red.as_set() == reference


# ---------------------------------------------------------------------------
# boolean engine and mode consistency

def boolean_lifted_basis(n, F_bool):
    raw, _ = buchberger(F_bool)
    red = interreduce(raw)
    lifted = [to_full(g) for g in red.elements] + list(make_S(n))
    return interreduce(GroebnerBasis(lifted, F_bool.order, reduced=False))


def test_mode_consistency_on_h():
    for n in (1, 2, 3):
        full_raw, _ = buchberger(make_H(n))
        full_red = interreduce(full_raw)
        via_boolean = boolean_lifted_basis(n, make_H(n, mode=BOOLEAN))
        assert via_boolean.as_set() == full_red.as_set()


def test_mode_consistency_random_systems():
    rng = random.Random(53)
    for _ in range(10):
        n = rng.randint(1, 3)
        gens = []
        while not gens:
            gens = [random_poly(rng, n, BOOLEAN, max_terms=4)
                    for _ in range(rng.randint(1, 4))]
            gens = [g for g in gens if not g.is_zero]
        F_bool = GeneratorSet(gens, DEGLEX)
        F_full = GeneratorSet([to_full(g) for g in gens] + list(make_S(n)), DEGLEX)
        full_red = interreduce(buchberger(F_full)[0])
        assert boolean_lifted_basis(n, F_bool).as_set() == full_red.as_set()


def test_boolean_basis_size_is_3n_plus_3n():
    # in the quotient the field polynomials vanish, leaving L, T and P
    for n in (2, 3):
        raw, _ = buchberger(make_H(n, mode=BOOLEAN))
        assert len(interreduce(raw)) == 3 * n + 3 ** n


# ---------------------------------------------------------------------------
# dump / load

def test_dump_load_roundtrip():
    raw, _ = buchberger(make_H(2))
    basis = interreduce(raw)
    text = dump_basis(basis)
    loaded = load_basis(text)
    assert loaded.as_set() == basis.as_set()
    assert loaded.n == 2 and loaded.mode == FULL
    assert dump_basis(loaded) == text


def test_dump_is_sorted_and_sparse():
    raw, _ = buchberger(make_H(2))
    basis = interreduce(raw)
    import json
    payload = json.loads(dump_basis(basis))
    assert set(payload) == {"n", "mode", "order", "elements"}
    assert payload["order"] == "deglex"
    # leading monomials ascend; exponents are sparse [varFlat, exp] pairs
    lead_keys = [DEGLEX.key(tuple_from(payload["elements"][i][0], 6))
                 for i in range(len(payload["elements"]))]
    assert lead_keys == sorted(lead_keys)
    for element in payload["elements"]:
        for monomial in element:
            for var, exp in monomial:
                assert 0 <= var < 6 and exp >= 1


def tuple_from(sparse, nvars):
    m = [0] * nvars
    for var, exp in sparse:
        m[var] = exp
    return tuple(m)


def test_stats_invariants():
    raw, stats = buchberger(make_H(3))
    assert stats.pairs_skipped_by_criteria <= stats.pairs_generated
    assert stats.reductions_to_zero >= 0
    assert stats.wall_time >= 0.0
    block = stats.as_block(basis_size=len(raw))
    assert "pairsGenerated=" in block and "basisSize=" in block


def test_basis_rejects_zero_elements():
    with pytest.raises(ZeroPolynomialError):
        GroebnerBasis([P("x1"), poly_zero(3)], DEGLEX)
    with pytest.raises(ZeroPolynomialError):
        normal_form(P("x1"), [poly_zero(3)], DEGLEX)


def test_ideal_containing_one():
    raw, _ = buchberger(GeneratorSet([P("x1+1"), P("x1")], DEGLEX))
    red = interreduce(raw)
    assert [format_poly(g) for g in red] == ["1"]
    assert normal_form(P("x1*y1+z1"), red).is_zero


def test_mode_mismatch_rejected():
    from boolgb import ModeMismatchError, s_polynomial as sp
    f_bool = P("x1+y1", 1, BOOLEAN)
    with pytest.raises(ModeMismatchError):
        normal_form(f_bool, [P("x1")], DEGLEX)
    with pytest.raises(ModeMismatchError):
        sp(f_bool, P("x1"), DEGLEX)
    with pytest.raises(ModeMismatchError):
        GroebnerBasis([P("x1"), f_bool], DEGLEX)


def test_boolean_mode_predicates():
    raw, _ = buchberger(make_H(2, mode=BOOLEAN))
    basis = interreduce(raw)
    assert is_groebner_basis(list(basis.elements), DEGLEX)
    assert is_reduced_basis(list(basis.elements), DEGLEX)


# ---------------------------------------------------------------------------
# load_basis validation

def _dump(elements, n=1, mode=FULL, order="deglex"):
    import json
    return json.dumps({"n": n, "mode": mode, "order": order, "elements": elements})


@pytest.mark.parametrize("text, message", [
    (_dump([[[[99, 1]]]]), "element 0 breaks"),
    ('{"n": 1, "mode": "full", "order": "deglex"}', "KeyError"),
    (_dump([[[[0, -1]]]]), "element 0 breaks"),
    (_dump([[[[0, 1]]]], mode="fancy"), "mode='fancy'"),
    (_dump([[[[0, 1]]]], order="lex"), "unknown order"),
    (_dump([[[[0, 2]]]], mode=BOOLEAN), "element 0 breaks"),
    # x1 + x1*y1 listed lowest term first: not the declared deglex order
    (_dump([[[[0, 1]], [[0, 1], [1, 1]]]]), "element 0 breaks"),
    (_dump([[[[0, 1], [0, 1]]]]), "element 0 breaks"),
    (_dump([[[[0, 1]]], []]), "element 1 breaks"),
    (_dump([]), "0 elements"),
    (_dump([[[[0, 1]]]], n=0), "n=0"),
    (_dump([[[[0, 1]]]], n=10 ** 21), "n=10"),
    (_dump([[[[0, 1.5]]]]), "element 0 breaks"),
    ("[1, 2]", "not a basis dump"),
    ("{not json", "not a basis dump"),
])
def test_load_basis_rejects_malformed_documents(text, message):
    with pytest.raises(BasisFormatError, match=message):
        load_basis(text)


def test_load_basis_accepts_degrevlex_boolean_dump():
    basis = interreduce(buchberger(make_H(2, BOOLEAN, DEGREVLEX))[0])
    assert load_basis(dump_basis(basis)).as_set() == basis.as_set()


def test_negative_exponents_never_reach_the_engine():
    # packed fields would read -1 as a divisible exponent; at the seed
    # normal_form(x1^-1, [x1]) left the term alone
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial({(-1, 0, 0)}, 3)
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial({(0, 0, 1), (0, -2, 1)}, 3, BOOLEAN)
