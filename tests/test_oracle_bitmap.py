"""The oracle against a bitmap reference over all 2^(3n) points.

The reference is the bit-sliced truth-table oracle (Biham, FSE 1997) that
the enumerator replaced: a truth table over a box of points is one int
whose bit p is the value at point p.  It scans every point, so it is an
independent witness for the enumerator, which only ever sees the live
candidates.  The closed forms 4^n - 3^n stay the third witness.
"""

import math
import random

import pytest

from boolgb import (
    BOOLEAN,
    DEGLEX,
    DEGREVLEX,
    FULL,
    GeneratorSet,
    GroebnerBasis,
    count_standard_monomials,
    enumerate_solutions,
    make_G,
    make_H,
    make_S,
    membership_by_evaluation,
)
from test_oracle_differential import random_zero_dimensional_basis
from test_polyring import random_poly


# ---------------------------------------------------------------------------
# the reference

def exponent_table(bounds, v, e):
    """Truth table of 'exponent of v >= e' over the box of exponent vectors
    below bounds, vector (e_u) being point sum(e_u * prod(bounds[:u])).
    With every bound 2 the box is F2^nvars and e = 1 gives the truth table
    of variable v."""
    stride = math.prod(bounds[:v])
    period = stride * bounds[v]
    size = period * math.prod(bounds[v + 1:])
    table = ((1 << stride * max(bounds[v] - e, 0)) - 1) << stride * e
    while period < size:  # doubling, then cut back to the box
        table |= table << period
        period *= 2
    return table & ((1 << size) - 1)


def _mono_table(m, table_of, everything):
    """Truth table of monomial m: the AND of table_of(v, e) over its factors."""
    t = everything
    for v, e in enumerate(m):
        if e:
            t &= table_of(v, e)
    return t


def _poly_table(f, tables, everything):
    """Truth table of f: the XOR of its terms' tables (exponents do not
    matter on {0,1})."""
    value = 0
    for m in f.terms:
        value ^= _mono_table(m, lambda v, e: tables[v], everything)
    return value


def solution_bitmap(F):
    """The solution bitmap of F, with the variables' truth tables over
    F2^nvars and the all-ones table it was built from."""
    nvars = F.nvars
    tables = [exponent_table((2,) * nvars, v, 1) for v in range(nvars)]
    everything = alive = (1 << (1 << nvars)) - 1
    for f in F.polynomials:
        alive &= ~_poly_table(f, tables, everything)
    return alive, tables, everything


def bitmap_masks(bits):
    data = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
    return [8 * i + j for i, byte in enumerate(data) if byte
            for j in range(8) if byte >> j & 1]


def bitmap_membership(f, F):
    alive, tables, everything = solution_bitmap(F)
    return _poly_table(f, tables, everything) & alive == 0


def bitmap_standard_count(G):
    """The box of exponents below the pure-power bounds, minus the popcount
    of the OR over leading monomials of the AND of their factors' tables."""
    lms = G.leading_monomials()
    if any(not any(lm) for lm in lms):
        return 0
    bounds = [2 if G.mode == BOOLEAN else None] * G.nvars
    for lm in lms:
        support = [v for v, e in enumerate(lm) if e]
        if len(support) == 1:
            v = support[0]
            if bounds[v] is None or lm[v] < bounds[v]:
                bounds[v] = lm[v]
    box = math.prod(bounds)
    everything = (1 << box) - 1
    divisible = 0
    for lm in lms:
        divisible |= _mono_table(lm, lambda v, e: exponent_table(bounds, v, e),
                                 everything)
    return box - divisible.bit_count()


# ---------------------------------------------------------------------------
# the enumerator against it

@pytest.mark.parametrize("mode", (FULL, BOOLEAN))
@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6))
def test_solutions_of_h_and_g_match_bitmap(n, mode):
    for F in (make_H(n, mode), make_G(n, mode)):
        sols = enumerate_solutions(F)
        bits = solution_bitmap(F)[0]
        assert sols.masks == bitmap_masks(bits)
        assert len(sols) == bits.bit_count() == 4 ** n - 3 ** n


@pytest.mark.parametrize("order", (DEGLEX, DEGREVLEX))
@pytest.mark.parametrize("mode", (FULL, BOOLEAN))
def test_standard_count_of_g_matches_bitmap(mode, order):
    for n in range(1, 7):
        basis = GroebnerBasis(list(make_G(n, mode, order).polynomials), order,
                              reduced=True)
        assert count_standard_monomials(basis) == bitmap_standard_count(basis)
        if n > 1:
            assert bitmap_standard_count(basis) == 4 ** n - 3 ** n


@pytest.mark.parametrize("max_bound", (1, 2, 3))
def test_standard_count_of_random_boxes_matches_bitmap(max_bound):
    rng = random.Random(307 + max_bound)
    for n in (1, 2, 3):
        for _ in range(30 // n):
            basis = random_zero_dimensional_basis(
                rng, n, max_bound, rng.choice((DEGLEX, DEGREVLEX)))
            assert count_standard_monomials(basis) == bitmap_standard_count(basis)


def test_membership_matches_bitmap_on_random_queries():
    rng = random.Random(311)
    for n in (1, 2, 3, 4):
        systems = [make_H(n), make_G(n), make_H(n, BOOLEAN)]
        gens = [g for g in (random_poly(rng, n, FULL, max_terms=4) for _ in range(3))
                if not g.is_zero]
        systems.append(GeneratorSet(gens + list(make_S(n)), DEGLEX))
        for F in systems:
            for _ in range(40):
                f = random_poly(rng, n, F.mode, max_terms=5)
                if rng.random() < 0.5:
                    f = f * rng.choice(F.polynomials)
                assert membership_by_evaluation(f, F) == bitmap_membership(f, F)
