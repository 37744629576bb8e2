"""Engine behavior: S-polynomials, normal forms, Buchberger, interreduction."""

import collections
import gc
import itertools
import random
import weakref

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
    mono_divides,
    mono_lcm,
    mono_mul,
    normal_form,
    parse_poly,
    poly_zero,
    s_polynomial,
    to_full,
)
from boolgb import groebner
from test_packing import CASES, chain_systems, random_monomials
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


def test_nf_first_divisor_in_basis_order():
    # reducers are tried by ascending leading monomial, so x1 + 1 divides
    # x1*y1 first although it is listed second
    assert normal_form(P("x1*y1"), [P("x1*y1+z1"), P("x1+1")], DEGLEX) == P("y1")


def reference_division(G, order):
    """Division by G with exponent tuples, as a function from f to its
    remainder: take the largest monomial left, divide it by the first
    element of G, sorted stably by ascending leading monomial, whose
    leading monomial divides it, and add the products of that element's
    tail mod 2.  It also returns the number of steps where more than one
    element divided the monomial.  G is sorted once, and each monomial's
    divisors are found once, for every f."""
    lms = [leading_monomial(g, order) for g in G]
    basis = sorted(zip(lms, G), key=lambda element: order.key(element[0]))
    lms = [lm for lm, _ in basis]
    tails = [g.terms - {lm} for lm, g in basis]
    divisors = {}  # monomial -> the indices of its divisors

    def divide(f):
        left, rest, choices = set(f.terms), set(), 0
        while left:
            m = max(left, key=order.key)
            left.remove(m)
            if m not in divisors:
                divisors[m] = [k for k, lm in enumerate(lms) if mono_divides(lm, m)]
            found = divisors[m]
            if not found:
                rest.add(m)
                continue
            choices += len(found) > 1
            q = tuple(a - b for a, b in zip(m, lms[found[0]]))
            for t in tails[found[0]]:
                left ^= {mono_mul(q, t, f.mode)}
        return Polynomial(rest, f.nvars, f.mode), choices

    return divide


@pytest.mark.parametrize("mode,order", CASES)
def test_nf_matches_reference_division_on_non_groebner_lists(mode, order):
    # lists drawn from a small pool of monomials, so that leading monomials
    # tie and products repeat; on a list that is not a Groebner basis the
    # remainder depends on which divisor each step takes
    rng = random.Random(61)
    nvars = 6
    ties = choices = non_groebner = 0
    for _ in range(150):
        pool = random_monomials(rng, nvars, mode, 6, max_exp=2)
        G = [Polynomial(set(rng.sample(pool, rng.randint(1, 3))), nvars, mode)
             for _ in range(rng.randint(2, 5))]
        lms = [leading_monomial(g, order) for g in G]
        ties += len(set(lms)) < len(lms)
        non_groebner += not is_groebner_basis(G, order)
        divide = reference_division(G, order)
        for _ in range(4):
            f = Polynomial({mono_mul(*rng.sample(pool, 2), mode) for _ in range(4)}
                           | set(rng.sample(pool, 2)), nvars, mode)
            expected, steps = divide(f)
            assert normal_form(f, G, order) == expected
            choices += steps
    assert ties > 60 and non_groebner > 100 and choices > 800


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


@pytest.mark.parametrize("mode", [FULL, BOOLEAN])
def test_pair_cap_counts_queued_pairs(mode):
    # H(2) queues this many pairs, field tasks included; it generates more
    # candidates
    queued = {FULL: 37, BOOLEAN: 40}[mode]
    raw, stats = buchberger(make_H(2, mode), max_pairs=queued)
    assert len(interreduce(raw)) == (21 if mode == FULL else 15)
    assert stats.pairs_generated > queued
    with pytest.raises(ResourceLimitError):
        buchberger(make_H(2, mode), max_pairs=queued - 1)


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
    # the monomial comes first in basis order; S = z1 is irreducible
    assert not is_groebner_basis([P("x1*y1+z1"), P("y1")], DEGLEX)
    # exhaustive mode agrees
    assert is_groebner_basis(list(make_G(2).polynomials), DEGLEX, use_criteria=False)


def reference_is_groebner_basis(G, order):
    """Buchberger's test by exponent tuples and reference_division alone,
    with no criterion: the S-polynomial of every two elements and, in
    boolean mode, v*f for every variable v of every lm f divide to zero
    by G."""
    mode, nvars = G[0].mode, G[0].nvars
    lms = [leading_monomial(g, order) for g in G]
    tasks = []
    for a, b in itertools.combinations(range(len(G)), 2):
        lcm = mono_lcm(lms[a], lms[b])
        tasks.append(collections.Counter(
            mono_mul(tuple(x - y for x, y in zip(lcm, lms[k])), t, mode)
            for k in (a, b) for t in G[k].terms))
    if mode == BOOLEAN:
        for f, lm in zip(G, lms):
            for v in itertools.compress(range(nvars), lm):
                var = tuple(int(k == v) for k in range(nvars))
                tasks.append(collections.Counter(mono_mul(var, t, mode) for t in f.terms))
    divide = reference_division(G, order)
    return all(divide(Polynomial({m for m, c in task.items() if c % 2}, nvars, mode))[0].is_zero
               for task in tasks)


def _scaled(f, k):
    """f with every exponent multiplied by k: x_i -> x_i^k maps monomials
    one to one, keeps both orders and divisibility, and so keeps every
    division step."""
    return Polynomial({tuple(k * e for e in m) for m in f.terms}, f.nvars, f.mode)


@pytest.mark.parametrize("mode,order", CASES)
def test_is_groebner_basis_matches_a_tuple_reference(mode, order):
    # random lists, the engine's bases of random systems, and those bases
    # less one element; full-mode lists are scaled, some to exponents up
    # to 40, so that their fields are two bytes wide
    rng = random.Random(67)
    answers = collections.Counter()
    for trial in range(200):
        nvars = rng.choice((3, 6))
        pool = random_monomials(rng, nvars, mode, 6, max_exp=2)
        G = [Polynomial(set(rng.sample(pool, rng.randint(1, 3))), nvars, mode)
             for _ in range(rng.randint(2, 5))]
        if trial % 2:
            try:
                G = list(buchberger(GeneratorSet(G, order), max_basis=12)[0])
            except ResourceLimitError:
                continue
            if trial % 4 == 3 and len(G) > 1:
                del G[rng.randrange(len(G))]
        if mode == FULL:
            G = [_scaled(g, rng.choice((1, 2, 20))) for g in G]
        expected = reference_is_groebner_basis(G, order)
        assert is_groebner_basis(G, order) == expected
        assert is_groebner_basis(G, order, use_criteria=False) == expected
        answers[expected] += 1
    # 466 of the 780 lists, over the four cases, are no Groebner basis
    assert answers[False] > 80 and answers[True] > 40


@pytest.mark.parametrize("mode,order", CASES)
def test_is_groebner_basis_matches_the_reference_where_s_polynomials_repeat(mode, order):
    # in G(n) many monomials share one multiplier q = lcm/lm_f with a
    # non-monomial f, and many one-term tails give one monomial S-polynomial;
    # each is checked once.  G(n) less one element is often no basis
    answers = collections.Counter()
    for n in (2, 3):
        G = list(make_G(n, mode, order).polynomials)
        for polys in [G] + [G[:i] + G[i + 1:] for i in range(len(G))]:
            expected = reference_is_groebner_basis(polys, order)
            assert is_groebner_basis(polys, order) == expected
            assert is_groebner_basis(polys, order, use_criteria=False) == expected
            answers[expected] += 1
    assert answers == ({True: 17, False: 51} if mode == FULL else {True: 7, False: 46})


def predicate_task_count(G, order):
    """The tasks is_groebner_basis checks on G, counted by exponent tuples:
    one per distinct multiplier q = lcm/lm_f that a monomial sharing a
    variable with lm_f gives a non-monomial f, counted instead by the
    monomial q*t over every f when f's tail is one term t; one per pair of
    non-monomials whose leading monomials share a variable; and in boolean
    mode one field task per variable of a non-monomial's lm."""
    mode = G[0].mode
    lms = [leading_monomial(g, order) for g in G]
    monos = [lm for g, lm in zip(G, lms) if len(g.terms) == 1]
    nonmono = [(lm, g.terms - {lm}) for g, lm in zip(G, lms) if len(g.terms) > 1]

    def shared(a, b):
        return any(x and y for x, y in zip(a, b))

    count, one_term = 0, set()
    for k, (lm, tail) in enumerate(nonmono):
        qs = {tuple(x - y for x, y in zip(mono_lcm(m, lm), lm))
              for m in monos if shared(m, lm)}
        if len(tail) == 1:
            one_term |= {mono_mul(q, t, mode) for q in qs for t in tail}
        else:
            count += len(qs)
        count += sum(shared(lm, other) for other, _ in nonmono[:k])
        if mode == BOOLEAN:
            count += sum(lm)
    return count + len(one_term)


@pytest.mark.parametrize("mode,order", CASES)
def test_is_groebner_basis_checks_each_s_polynomial_once(mode, order):
    # every task reaches settles once, so its calls count the predicate's work
    for n in (3, 4, 6):
        basis = GroebnerBasis(make_G(n, mode, order).polynomials, order)
        red = basis._reducer
        calls = []
        settles = red.settles

        def counting(terms):
            calls.append(len(terms))
            return settles(terms)

        red.settles = counting
        assert is_groebner_basis(basis)
        if n < 6:
            assert len(calls) == predicate_task_count(list(basis), order)
    assert len(calls) == (2241 if mode == FULL else 2240)


def test_is_reduced_basis_boundary():
    assert is_reduced_basis([], DEGLEX) and is_groebner_basis([], DEGLEX)
    assert is_reduced_basis(list(make_G(4).polynomials), DEGLEX)
    assert not is_reduced_basis(list(make_G(1).polynomials), DEGLEX)
    assert not is_reduced_basis([P("x1"), P("x1+y1")], DEGLEX)


@pytest.mark.parametrize("mode,order", CASES)
def test_predicates_read_a_basis_as_its_element_list(mode, order):
    reduced = interreduce(buchberger(make_H(3, mode, order))[0])
    # H(3) is reduced but no Groebner basis; G(1) is one but not reduced
    H3 = GroebnerBasis(list(make_H(3, mode, order)), order)
    G1 = GroebnerBasis(list(make_G(1, mode, order)), order)
    answers = set()
    for basis in (reduced, H3, G1):
        answer = (is_groebner_basis(basis), is_reduced_basis(basis))
        assert answer == (is_groebner_basis(list(basis), order),
                          is_reduced_basis(list(basis), order))
        answers.add(answer)
    assert answers == {(True, True), (False, True), (True, False)}


def test_predicates_read_a_basis_in_its_own_order():
    # a reduced degrevlex basis; under deglex y1^2 is no leading monomial
    polys = [P("y1^2+x1*z1+x1"), P("x1*y1+x1*z1+x1"), P("x1^2*z1+x1*z1^2+x1^2+x1")]
    basis = GroebnerBasis(polys, DEGREVLEX)
    assert is_groebner_basis(basis) and is_reduced_basis(basis)
    assert not is_groebner_basis(polys) and not is_reduced_basis(polys)


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

def test_mode_consistency_on_h(boolean_lifted_basis):
    for n in (1, 2, 3):
        full_raw, _ = buchberger(make_H(n))
        full_red = interreduce(full_raw)
        via_boolean = boolean_lifted_basis(n, make_H(n, mode=BOOLEAN))
        assert via_boolean.as_set() == full_red.as_set()


def test_mode_consistency_random_systems(boolean_lifted_basis):
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


@pytest.mark.parametrize("order", [DEGLEX, DEGREVLEX])
@pytest.mark.parametrize("mode", [FULL, BOOLEAN])
def test_every_candidate_is_queued_skipped_or_monomial(mode, order):
    # H(n), where the chain query never prunes, and the seeded systems of
    # this mode and order, where it does
    H = [make_H(n, mode, order) for n in (2, 3, 4, 5, 6)]
    chained = [F for F in chain_systems()
               if (F.mode, F.order.scheme) == (mode, order.scheme)]
    counts = []  # (pairs_monomial, pairs_chain_pruned) of each system
    for F in H + chained:
        raw, stats = buchberger(F)
        assert stats.pairs_generated == (stats.pairs_queued
                                         + stats.pairs_skipped_by_criteria
                                         + stats.pairs_monomial), F
        # a queued task is chain-pruned as it pops, or reduced: to zero or
        # to a new element
        assert stats.pairs_queued - stats.pairs_chain_pruned == (
            stats.reductions_to_zero + len(raw) - len(F)), F
        assert (f"pairsMonomial={stats.pairs_monomial}\n"
                f"pairsChainPruned={stats.pairs_chain_pruned}\n") in stats.as_block()
        counts.append((stats.pairs_monomial, stats.pairs_chain_pruned))
    assert all(monomial > 0 and pruned == 0
               for monomial, pruned in counts[:len(H)])
    assert sum(pruned for _, pruned in counts[len(H):]) > 0


def test_basis_rejects_zero_elements():
    with pytest.raises(ZeroPolynomialError):
        GroebnerBasis([P("x1"), poly_zero(3)], DEGLEX)
    with pytest.raises(ZeroPolynomialError):
        normal_form(P("x1"), [poly_zero(3)], DEGLEX)
    with pytest.raises(ValueError, match="at least one element"):
        GroebnerBasis([], DEGLEX)


def test_ideal_containing_one():
    for mode in (FULL, BOOLEAN):
        for gens in (("x1+1", "x1"), ("x1", "x1+1"),
                     # pairs are still live when 1 (empty support) arrives
                     ("x1*y1+z1", "y1*z1+x1", "x1", "x1+1")):
            F = GeneratorSet([P(g, 1, mode) for g in gens], DEGLEX)
            red = interreduce(buchberger(F)[0])
            assert [format_poly(g) for g in red] == ["1"], (mode, gens)
            assert normal_form(P("x1*y1+z1", 1, mode), red).is_zero


@pytest.mark.parametrize("gens,order", [
    # lm z1^2 arrives while the pair with lcm x1*y1*z1 is live
    (("y1+1", "x1*y1*z1", "y1*z1+z1^2"), DEGLEX),
    (("x1^2*z1+1", "y1^2*z1+z1+1", "x1^2*y1+x1+1", "x1^2*y1"), DEGREVLEX),
])
def test_chain_criterion_checks_exponents_in_full_mode(gens, order):
    """The full-mode support columns record which variables occur, not
    their exponents: a new lm whose support the lcm of a live pair holds,
    but which does not divide it, must not prune that pair."""
    raw, _ = buchberger(GeneratorSet([P(g) for g in gens], order))
    assert is_groebner_basis(raw.elements, order, use_criteria=False)


def test_mode_mismatch_rejected():
    from boolgb import ModeMismatchError, s_polynomial as sp
    f_bool = P("x1+y1", 1, BOOLEAN)
    with pytest.raises(ModeMismatchError):
        normal_form(f_bool, [P("x1")], DEGLEX)
    with pytest.raises(ModeMismatchError):
        sp(f_bool, P("x1"), DEGLEX)
    with pytest.raises(ModeMismatchError):
        GroebnerBasis([P("x1"), f_bool], DEGLEX)
    with pytest.raises(ModeMismatchError):
        GeneratorSet([P("x1"), f_bool], DEGLEX)
    with pytest.raises(ModeMismatchError):
        GeneratorSet([P("x1"), P("x2", 2)], DEGLEX)


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
    # x1*y2 above y1*x2: deglex order, but degrevlex ranks y1*x2 higher
    (_dump([[[[0, 1], [4, 1]], [[1, 1], [3, 1]]]], n=2, mode=BOOLEAN, order="degrevlex"),
     "element 0 breaks"),
    (_dump([[[[0, 1], [0, 1]]]]), "element 0 breaks"),
    (_dump([[[[0, 1]]], []]), "element 1 breaks"),
    # x1 + y1^200: a tail far past the fields its lm's degree would size
    (_dump([[[[0, 1]], [[1, 200]]]]), "element 0 breaks"),
    # a misordered element 1 is named before a malformed element 2
    (_dump([[[[0, 1]]], [[[0, 1]], [[1, 5]]], [7]]), "element 1 breaks"),
    # JSON true is not an integer, as a variable index or as an exponent
    (_dump([[[[True, 1]]]]), "element 0 breaks"),
    (_dump([[[[0, True]]]]), "element 0 breaks"),
    (_dump([[[[0, True]]]], mode=BOOLEAN), "element 0 breaks"),
    (_dump([]), "0 elements"),
    (_dump([[[[0, 1]]]], n=0), "n=0"),
    (_dump([[[[0, 1]]]], n=10 ** 21), "n=10"),
    (_dump([[[[0, 1.5]]]]), "element 0 breaks"),
    # a pair that is not a two-item list
    (_dump([[[5]]]), "element 0 breaks"),
    (_dump([[[[0]]]]), "element 0 breaks"),
    (_dump([[[[0, 1, 2]]]]), "element 0 breaks"),
    ("[1, 2]", "not a basis dump"),
    ("{not json", "not a basis dump"),
    # nested deeper than the JSON decoder follows, bare or under a header
    pytest.param("[" * 200_000 + "]" * 200_000, "RecursionError", id="nested"),
    pytest.param(_dump("deep").replace('"deep"', "[" * 200_000 + "]" * 200_000),
                 "RecursionError", id="nested-elements"),
])
def test_load_basis_rejects_malformed_documents(text, message):
    with pytest.raises(BasisFormatError, match=message):
        load_basis(text)


@pytest.mark.parametrize("mode,order", CASES)
def test_a_loaded_dump_keeps_the_fields_of_its_basis(mode, order):
    for n in range(2, 7):
        basis = GroebnerBasis(make_G(n, mode, order).polynomials, order)
        assert load_basis(dump_basis(basis))._reducer.pk.fmax == basis._reducer.pk.fmax


def test_a_loaded_dump_keeps_fields_the_engine_widened():
    # under deglex the engine widens the fields of this system to two bytes
    # as y1^125 enters; its raw and reduced bases keep them through a dump
    raw = buchberger(GeneratorSet([P("x1^63+y1"), P("x1*y1^62+z1")], DEGLEX))[0]
    for basis in (raw, interreduce(raw)):
        assert basis._reducer.pk.fmax > 127
        assert load_basis(dump_basis(basis))._reducer.pk.fmax == basis._reducer.pk.fmax


def test_load_basis_accepts_degrevlex_boolean_dump():
    basis = interreduce(buchberger(make_H(2, BOOLEAN, DEGREVLEX))[0])
    assert load_basis(dump_basis(basis)).as_set() == basis.as_set()
    # the misordered element of the rejected dumps, listed y1*x2 first
    text = _dump([[[[1, 1], [3, 1]], [[0, 1], [4, 1]]]], n=2, mode=BOOLEAN, order="degrevlex")
    assert load_basis(text).elements == (P("y1*x2+x1*y2", 2, BOOLEAN),)


@pytest.mark.parametrize("mode,order", CASES)
def test_a_basis_holds_its_elements_only_packed(mode, order, monkeypatch):
    # neither GroebnerBasis nor load_basis makes a Polynomial: the basis
    # keeps none of its input, and the first read of `elements` unpacks
    # every element into a new one, by either constructor
    polys = list(interreduce(buchberger(make_H(3, mode, order))[0]))
    text = dump_basis(GroebnerBasis(polys, order))
    made = []

    def counting(constructor):
        def construct(*args):
            made.append(constructor(*args))
            return made[-1]
        return construct

    for name in ("Polynomial", "_trusted_poly"):
        monkeypatch.setattr(groebner, name, counting(getattr(groebner, name)))
    for basis in (GroebnerBasis(polys, order), load_basis(text)):
        assert made == []
        assert basis.elements == tuple(polys)
        assert basis.as_set() == frozenset(polys)
        assert list(basis.elements) == made
        assert not any(f is g for f, g in zip(made, polys))
        del made[:]


def test_negative_exponents_never_reach_the_engine():
    # packed fields would read -1 as a divisible exponent; at the seed
    # normal_form(x1^-1, [x1]) left the term alone
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial({(-1, 0, 0)}, 3)
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial({(0, 0, 1), (0, -2, 1)}, 3, BOOLEAN)


# ---------------------------------------------------------------------------
# a basis's own elements read through its reducer

def _bases(mode, order):
    """name -> a builder of one basis of each kind, built anew per call."""
    H = make_H(3, mode, order)
    text = dump_basis(interreduce(buchberger(H)[0]))
    polys = list(make_G(2, mode, order))
    return {
        "loaded": lambda: load_basis(text),
        "raw": lambda: buchberger(H)[0],
        "interreduced": lambda: interreduce(buchberger(H)[0]),
        "constructed": lambda: GroebnerBasis(polys, order),
    }


def _queries(basis, count=20):
    """Nonzero queries: normal_form answers zero without reading G."""
    rng = random.Random(32)
    polys = (random_poly(rng, basis.n, basis.mode) for _ in itertools.count())
    return list(itertools.islice(filter(None, polys), count))


def _answers(G, order, queries):
    return (is_groebner_basis(G, order), is_reduced_basis(G, order),
            [normal_form(f, G, order) for f in queries])


@pytest.fixture
def reducers_built(monkeypatch):
    """The number of `_Reducer`s built since the fixture was set up."""
    built = [0]
    reducer = groebner._Reducer

    def counting(*args):
        built[0] += 1
        return reducer(*args)

    monkeypatch.setattr(groebner, "_Reducer", counting)
    return lambda: built[0]


@pytest.mark.parametrize("mode,order", CASES)
def test_elements_with_their_order_read_the_basis_reducer(mode, order, reducers_built):
    for name, build in _bases(mode, order).items():
        basis = build()
        queries = _queries(basis)
        expected = _answers(GroebnerBasis(list(basis.elements), order), order, queries)
        before = reducers_built()
        assert _answers(basis.elements, basis.order, queries) == expected, name
        assert ideal_membership(queries[0], basis) == (not expected[2][0]), name
        assert reducers_built() == before, name


@pytest.mark.parametrize("mode,order", CASES)
def test_other_orders_and_copies_of_elements_are_packed_again(mode, order, reducers_built):
    other = DEGREVLEX if order == DEGLEX else DEGLEX
    for name, build in _bases(mode, order).items():
        basis = build()
        queries = _queries(basis, 3)
        for G, read in ((basis.elements, other), (list(basis.elements), order),
                        (list(basis.elements), other)):
            expected = _answers(GroebnerBasis(list(basis.elements), read), read, queries)
            before = reducers_built()
            assert _answers(G, read, queries) == expected, (name, read)
            # one packing per predicate and one per query
            assert reducers_built() == before + 2 + len(queries), (name, read)


@pytest.mark.parametrize("mode,order", CASES)
def test_elements_do_not_keep_their_basis_alive(mode, order, reducers_built):
    for name, build in _bases(mode, order).items():
        basis = build()
        queries = _queries(basis, 3)
        expected = _answers(basis.elements, order, queries)
        gc.disable()
        try:
            ref, elements = weakref.ref(basis), basis.elements
            del basis
            # freed at once, without the cycle collector
            assert ref() is None, name
        finally:
            gc.enable()
        before = reducers_built()
        assert _answers(elements, order, queries) == expected, name
        assert reducers_built() == before + 2 + len(queries), name
        # a slice is a plain tuple
        assert type(elements[:]) is tuple


@pytest.mark.parametrize("mode,order", CASES)
def test_elements_equal_checked_polynomials(mode, order):
    # `elements` skips the constructor's per-term checks; what it makes
    # is equal, with an equal hash, to what the checks let through
    for name, build in _bases(mode, order).items():
        basis = build()
        checked = tuple(Polynomial(f.terms, f.nvars, f.mode) for f in basis.elements)
        assert basis.elements == checked, name
        assert list(map(hash, basis.elements)) == list(map(hash, checked)), name
        for f, g in zip(basis.elements, checked):
            assert type(f.terms) is frozenset and (f.nvars, f.mode) == (g.nvars, g.mode)
