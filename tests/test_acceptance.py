"""Acceptance suite: one test per gating criterion, exact tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.  The stretch targets (the n=6 and n=8 bases, the n=7
oracle identities) are not gating and run only when BOOLGB_STRETCH=1 is set.
"""

import os
import random
import time
from contextlib import contextmanager

import pytest

from boolgb import (
    BOOLEAN,
    DEGLEX,
    DEGREVLEX,
    FULL,
    GeneratorSet,
    GroebnerBasis,
    buchberger,
    count_standard_monomials,
    dump_solutions,
    enumerate_solutions,
    format_poly,
    ideal_membership,
    interreduce,
    is_groebner_basis,
    is_reduced_basis,
    load_solutions,
    make_G,
    make_H,
    make_S,
    membership_by_evaluation,
    normal_form,
    parse_poly,
    poly_add,
    poly_mul,
    solution_sets_equal,
    to_full,
)
from boolgb.cli import main as cli_main
from test_polyring import random_poly


@contextmanager
def report(name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")


def test_blowup_reproduction(reduced_h):
    """Reduced deglex basis of H(n) has exactly 6n+3^n elements, n=2..5."""
    with report("blowup 4n+1 -> 6n+3^n, n=2..5, exact"):
        for n, expected in ((2, 21), (3, 45), (4, 105), (5, 273)):
            basis, elapsed = reduced_h(n)
            assert len(basis) == expected, (n, len(basis))
            limit = 120.0 if n == 5 else 10.0
            assert elapsed < limit, f"n={n} took {elapsed:.1f}s (limit {limit}s)"


@pytest.mark.skipif(os.environ.get("BOOLGB_STRETCH") != "1",
                    reason="stretch target; set BOOLGB_STRETCH=1 to run")
def test_blowup_stretch_n6(reduced_h):
    with report("stretch n=6 -> 765 elements under 15 min"):
        basis, elapsed = reduced_h(6)
        assert len(basis) == 765
        assert elapsed < 900.0


@pytest.mark.skipif(os.environ.get("BOOLGB_STRETCH") != "1",
                    reason="stretch target; set BOOLGB_STRETCH=1 to run")
def test_blowup_stretch_n8(reduced_h):
    """The interreduced basis of H(8) is G(8): 6n+3^n = 6609 elements in
    the full ring under deglex, 3n+3^n = 6585 in the Boolean ring under
    degrevlex."""
    with report("stretch n=8 -> G(8), full deglex and Boolean degrevlex, "
                "under 15 min each"):
        basis, elapsed = reduced_h(8)
        assert len(basis) == 6609
        assert basis.as_set() == frozenset(make_G(8).polynomials)
        assert elapsed < 900.0
        start = time.perf_counter()
        basis = interreduce(buchberger(make_H(8, BOOLEAN, DEGREVLEX))[0])
        elapsed = time.perf_counter() - start
        assert len(basis) == 6585
        assert basis.as_set() == frozenset(make_G(8, BOOLEAN, DEGREVLEX).polynomials)
        assert elapsed < 900.0


def test_basis_identity(reduced_h):
    """interreduce(buchberger(H(n))) equals G(n) as a set, both orders, n=2..4."""
    with report("basis identity GB(H)=G for n=2..4, deglex and degrevlex"):
        for n in (2, 3, 4):
            for scheme in ("deglex", "degrevlex"):
                basis, _ = reduced_h(n, scheme)
                expected = frozenset(make_G(n).polynomials)
                assert basis.as_set() == expected, (n, scheme)
                # same check through canonical serializations
                got = sorted(format_poly(f, basis.order) for f in basis)
                want = sorted(format_poly(f, basis.order)
                              for f in make_G(n).polynomials)
                assert got == want


def test_solution_set_identity():
    """Sol(H(n)) == Sol(G(n)) by exhaustive enumeration, n=1..6."""
    with report("solution-set identity Sol(H)=Sol(G), n=1..6"):
        for n in (1, 2, 3, 4, 5, 6):
            assert solution_sets_equal(make_H(n), make_G(n)), n


def test_counting_identities(reduced_h):
    """|Sol(H(n))| = 4^n-3^n (n=1..6); standard monomials of the computed
    basis (n=2..5) and of G(n) itself (n=2..6) likewise."""
    with report("counting: solutions and standard monomials = 4^n-3^n"):
        for n in (1, 2, 3, 4, 5, 6):
            assert len(enumerate_solutions(make_H(n))) == 4 ** n - 3 ** n, n
        for n in (2, 3, 4, 5):
            basis, _ = reduced_h(n)
            assert count_standard_monomials(basis) == 4 ** n - 3 ** n, n
        for n in (2, 3, 4, 5, 6):
            basis = GroebnerBasis(make_G(n).polynomials, DEGLEX, reduced=True)
            assert count_standard_monomials(basis) == 4 ** n - 3 ** n, n


@pytest.mark.skipif(os.environ.get("BOOLGB_STRETCH") != "1",
                    reason="stretch target; set BOOLGB_STRETCH=1 to run")
def test_oracle_stretch_n7():
    """Sol(H(7)) == Sol(G(7)), and both counts equal 4^7-3^7 = 14197."""
    with report("stretch n=7 oracle: Sol(H)=Sol(G), counts 14197"):
        sols = enumerate_solutions(make_H(7))
        assert sols == enumerate_solutions(make_G(7))
        assert len(sols) == 4 ** 7 - 3 ** 7
        basis = GroebnerBasis(make_G(7).polynomials, DEGLEX, reduced=True)
        assert count_standard_monomials(basis) == 4 ** 7 - 3 ** 7


@pytest.mark.skipif(os.environ.get("BOOLGB_STRETCH") != "1",
                    reason="stretch target; set BOOLGB_STRETCH=1 to run")
def test_oracle_stretch_n9():
    """Sol(H(9)) == Sol(G(9)) with 4^9-3^9 = 242,461 points, past 2^24 of
    the 2^27 points, and G(9) has as many standard monomials.  The
    solution dump reads back equal."""
    with report("stretch n=9 oracle: Sol(H)=Sol(G), counts 242461"):
        sols = enumerate_solutions(make_H(9))
        assert len(sols) == 242_461
        assert sols == enumerate_solutions(make_G(9))
        assert load_solutions(dump_solutions(sols)) == sols
        basis = GroebnerBasis(make_G(9).polynomials, DEGLEX, reduced=True)
        assert count_standard_monomials(basis) == 242_461


def test_reducedness_boundary():
    """G(n) reduced for n=2..5 but not n=1; Groebner for n=2..4 exhaustively."""
    with report("reducedness boundary: reduced iff n>1; exhaustive closure n=2..4"):
        assert not is_reduced_basis(list(make_G(1).polynomials), DEGLEX)
        for n in (2, 3, 4, 5):
            assert is_reduced_basis(list(make_G(n).polynomials), DEGLEX), n
        for n in (2, 3, 4):
            assert is_groebner_basis(list(make_G(n).polynomials), DEGLEX,
                                     use_criteria=False), n


def test_growth_table(tmp_path, capsys):
    """cmd_bench rows for n=2..5: inputCount=4n+1, gbCount=6n+3^n, bitsize<=c*n^2."""
    with report("growth table via bench, n=2..5"):
        out = tmp_path / "growth.csv"
        rc = cli_main(["bench", "--n", "2", "--n-max", "5", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        lines = out.read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(",")))
                for line in lines[1:]]
        assert len(rows) == 4
        for row in rows:
            n = int(row["n"])
            assert int(row["inputCount"]) == 4 * n + 1
            assert row["gbCount"] != "", f"n={n} row incomplete"
            assert int(row["gbCount"]) - int(row["predictedGbCount"]) == 0
            assert int(row["predictedGbCount"]) == 6 * n + 3 ** n
        c = int(rows[0]["inputBitsize"]) / 4  # fixed by the n=2 measurement
        for row in rows:
            n = int(row["n"])
            assert int(row["inputBitsize"]) <= c * n * n


def test_oracle_algebra_equivalence(reduced_h):
    """Membership via reduced basis == membership by evaluation, 200 random
    polynomials per n for n=1..5, 100% agreement."""
    with report("oracle/algebra equivalence, 200 random polys per n=1..5"):
        rng = random.Random(101)
        for n in (1, 2, 3, 4, 5):
            H = make_H(n)
            basis, _ = reduced_h(n)
            agree = 0
            for _ in range(200):
                f = random_poly(rng, n, FULL, max_terms=6)
                alg = ideal_membership(f, basis)
                ora = membership_by_evaluation(f, H)
                agree += alg == ora
            assert agree == 200, (n, agree)


def test_engine_cross_validation(reduced_h, boolean_lifted_basis):
    """Boolean-engine bases, lifted and joined with the field polynomials,
    match full-engine bases: H(n) for n=2..4 and 50 random systems."""
    with report("engine cross-validation: H n=2..4 plus 50 random systems"):
        for n in (2, 3, 4):
            full_basis, _ = reduced_h(n)
            via_bool = boolean_lifted_basis(n, make_H(n, mode=BOOLEAN))
            assert via_bool.as_set() == full_basis.as_set(), n

        rng = random.Random(103)
        checked = 0
        while checked < 50:
            n = 3  # 9 variables
            gens = [random_poly(rng, n, BOOLEAN, max_terms=4)
                    for _ in range(rng.randint(1, 5))]
            gens = [g for g in gens if not g.is_zero and g.degree() <= 3]
            if not gens:
                continue
            F_bool = GeneratorSet(gens, DEGLEX)
            F_full = GeneratorSet([to_full(g) for g in gens] + list(make_S(n)),
                                  DEGLEX)
            full_red = interreduce(buchberger(F_full)[0])
            assert boolean_lifted_basis(n, F_bool).as_set() == full_red.as_set()
            checked += 1


def test_property_suites(reduced_h):
    """Ring axioms, boolean idempotence, normal-form laws, text round-trip:
    at least 1000 randomized cases each, zero failures."""
    with report("property suites, >=1000 randomized cases each"):
        rng = random.Random(107)

        for _ in range(1000):  # ring axioms
            mode = rng.choice((FULL, BOOLEAN))
            n = rng.randint(1, 3)
            f = random_poly(rng, n, mode)
            g = random_poly(rng, n, mode)
            h = random_poly(rng, n, mode)
            assert poly_add(f, g) == poly_add(g, f)
            assert poly_add(poly_add(f, g), h) == poly_add(f, poly_add(g, h))
            assert poly_add(poly_add(f, g), g) == f
            assert poly_mul(f, poly_add(g, h)) == poly_add(poly_mul(f, g),
                                                           poly_mul(f, h))

        for _ in range(1000):  # boolean idempotence
            f = random_poly(rng, rng.randint(1, 4), BOOLEAN)
            assert poly_mul(f, f) == f

        basis, _ = reduced_h(2)
        for _ in range(1000):  # normal-form idempotence and congruence
            f = random_poly(rng, 2, FULL, max_terms=6)
            r = normal_form(f, basis)
            assert normal_form(r, basis) == r
            assert normal_form(poly_add(f, r), basis).is_zero

        for _ in range(1000):  # parse/format round-trip
            mode = rng.choice((FULL, BOOLEAN))
            n = rng.randint(1, 4)
            f = random_poly(rng, n, mode)
            order = rng.choice((DEGLEX, DEGREVLEX))
            assert parse_poly(format_poly(f, order), n, mode) == f
