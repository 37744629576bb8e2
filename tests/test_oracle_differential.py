"""The bit-sliced oracle against point-by-point references.

Random small systems (n = 1..3) in both ring modes: solution sets
against `evaluate` at every point of F2^(3n), evaluation membership
against normal forms from both engines, bases of systems with monomial
generators against the exhaustive predicates and evaluation, and the
standard-monomial count against a brute-force scan of its exponent box.
"""

import itertools
import random

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
    count_standard_monomials,
    enumerate_solutions,
    evaluate,
    ideal_membership,
    interreduce,
    is_groebner_basis,
    is_reduced_basis,
    make_S,
    membership_by_evaluation,
    mono_divides,
    parse_poly,
    to_boolean,
    to_full,
)
from test_polyring import random_mono, random_poly


def random_system(rng, n, mode):
    while True:
        gens = [random_poly(rng, n, mode, max_terms=4) for _ in range(rng.randint(1, 4))]
        gens = [g for g in gens if not g.is_zero]
        if gens:
            return GeneratorSet(gens, DEGLEX)


@pytest.mark.parametrize("mode", (FULL, BOOLEAN))
def test_enumeration_matches_pointwise_evaluation(mode):
    rng = random.Random(211)
    for n in (1, 2, 3):
        for _ in range(40 // n):
            F = random_system(rng, n, mode)
            sols = enumerate_solutions(F)
            for p in range(1 << 3 * n):
                vanishes = not any(evaluate(f, p) for f in F.polynomials)
                assert (p in sols) == vanishes
            assert sols.masks == [p for p in range(1 << 3 * n) if p in sols]
            assert len(sols) == len(sols.masks)


def test_evaluation_membership_matches_both_engines():
    rng = random.Random(223)
    for n in (1, 2, 3):
        checked = 0
        while checked < 12 // n:
            gens = [g for g in (random_poly(rng, n, BOOLEAN, max_terms=3)
                                for _ in range(rng.randint(1, 3)))
                    if not g.is_zero and g.degree() <= 3]
            if not gens:
                continue
            F_bool = GeneratorSet(gens, DEGLEX)
            F_full = GeneratorSet([to_full(g) for g in gens] + list(make_S(n)), DEGLEX)
            full_basis = interreduce(buchberger(F_full)[0])
            bool_basis = interreduce(buchberger(F_bool)[0])
            for _ in range(15):
                f = random_poly(rng, n, FULL, max_terms=5)
                by_eval = membership_by_evaluation(f, F_full)
                assert by_eval == ideal_membership(f, full_basis)
                assert by_eval == ideal_membership(to_boolean(f), bool_basis)
                assert by_eval == membership_by_evaluation(to_boolean(f), F_bool)
            checked += 1


@pytest.mark.parametrize("order", (DEGLEX, DEGREVLEX))
@pytest.mark.parametrize("mode", (FULL, BOOLEAN))
def test_systems_with_monomial_generators(mode, order):
    """The S-polynomial of two monomials is the one task the kernel skips;
    a mixed pair must still be reduced."""
    rng = random.Random(239)
    for n in (1, 2, 3):
        nvars = 3 * n
        for _ in range(12 // n):
            gens = [g for g in (random_poly(rng, n, mode, max_terms=3)
                                for _ in range(rng.randint(1, 3)))
                    if not g.is_zero and g.degree() <= 3]
            count, monos = rng.randint(1, 3), set()
            while len(monos) < count:
                m = random_mono(rng, nvars, max_exp=1 if mode == BOOLEAN else 2,
                                max_deg=3)
                if any(m):
                    monos.add(m)
            gens += [Polynomial((m,), nvars, mode) for m in monos]
            if mode == FULL:
                gens += make_S(n)  # evaluation decides membership only with them
            F = GeneratorSet(gens, order)
            raw, _ = buchberger(F)
            assert is_groebner_basis(raw.elements, order, use_criteria=False)
            reduced = interreduce(raw)
            assert is_reduced_basis(reduced.elements, order)
            for _ in range(10):
                f = random_poly(rng, n, mode, max_terms=4)
                if rng.random() < 0.5:
                    f = f * rng.choice(F.polynomials)
                assert ideal_membership(f, reduced) == membership_by_evaluation(f, F)


def brute_force_standard_count(basis):
    """Monomials of the exponent box that no leading monomial divides."""
    lms = basis.leading_monomials()
    bounds = [min(lm[v] for lm in lms if sum(lm) == lm[v] > 0)
              for v in range(basis.nvars)]
    return sum(not any(mono_divides(lm, cand) for lm in lms)
               for cand in itertools.product(*(range(b) for b in bounds)))


def random_zero_dimensional_basis(rng, n, max_bound, order):
    """Pure powers v^b (b in 1..max_bound) for every variable plus a few
    random monomials, some beyond the box; only leading monomials count."""
    nvars = 3 * n
    monos = [tuple(rng.randint(1, max_bound) if u == v else 0 for u in range(nvars))
             for v in range(nvars)]
    monos += [random_mono(rng, nvars, max_exp=max_bound + 1, max_deg=5)
              for _ in range(rng.randint(0, 8))]
    return GroebnerBasis([Polynomial((m,), nvars) for m in set(monos) if any(m)],
                         order)


@pytest.mark.parametrize("max_bound", (1, 2, 3))
def test_standard_count_matches_brute_force(max_bound):
    rng = random.Random(227 + max_bound)
    for n in (1, 2):
        for _ in range(25):
            basis = random_zero_dimensional_basis(
                rng, n, max_bound, rng.choice((DEGLEX, DEGREVLEX)))
            assert count_standard_monomials(basis) == brute_force_standard_count(basis)


def test_standard_count_mixed_box():
    # box 3 x 2 x 1: x1^a * y1^b with a < 3, b < 2, minus the multiples of x1^2*y1
    basis = GroebnerBasis([parse_poly(t, 1) for t in ("x1^3", "y1^2", "z1", "x1^2*y1")],
                          DEGLEX)
    assert count_standard_monomials(basis) == brute_force_standard_count(basis) == 5
