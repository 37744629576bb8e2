"""Brute-force evaluation, enumeration, and the algebra/oracle agreement."""

import random

import pytest

from boolgb import (
    ArityMismatchError,
    BOOLEAN,
    DEGLEX,
    FieldPolysMissingError,
    FULL,
    GeneratorSet,
    SolutionFormatError,
    TooManyVariablesError,
    buchberger,
    dump_solutions,
    enumerate_solutions,
    evaluate,
    ideal_membership,
    interreduce,
    load_solutions,
    make_G,
    make_H,
    make_L,
    membership_by_evaluation,
    parse_poly,
    poly_one,
    poly_zero,
    solution_sets_equal,
)
from test_polyring import random_poly


def P(text, n, mode=FULL):
    return parse_poly(text, n, mode)


# ---------------------------------------------------------------------------
# evaluate

def test_evaluate_examples():
    f = P("x1*y1 + x1 + y1", 1)
    assert evaluate(f, (1, 1, 0)) == 1
    assert evaluate(poly_zero(3), (0, 1, 0)) == 0
    g = P("x1*y1 + x1 + y1 + z1", 1)
    assert evaluate(g, (0, 0, 0)) == 0


def test_evaluate_ignores_exponents_on_01():
    assert evaluate(P("x1^2", 1), (1, 0, 0)) == 1
    assert evaluate(P("x1^2 + x1", 1), (1, 0, 0)) == 0


def test_evaluate_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        evaluate(P("x1", 1), (1, 0))


def test_evaluate_accepts_int_masks():
    f = P("x1*z1", 1)  # needs bits 0 and 2
    assert evaluate(f, 0b101) == 1
    assert evaluate(f, 0b001) == 0


def test_evaluate_rejects_points_outside_the_ring():
    f = P("x1 + 1", 1)
    for mask in (8, -1, 1 << 64):  # outside 0..2^3-1
        with pytest.raises(ArityMismatchError):
            evaluate(f, mask)
        assert mask not in enumerate_solutions(GeneratorSet([f], DEGLEX))
    for point in ((2, 0, 0), (0, -1, 0), (0, 0, 0.5)):
        with pytest.raises(ValueError):
            evaluate(f, point)
    assert evaluate(f, 7) == 0 and evaluate(f, (True, False, False)) == 0


def test_evaluate_respects_ring_ops():
    rng = random.Random(61)
    for _ in range(300):
        mode = rng.choice((FULL, BOOLEAN))
        n = rng.randint(1, 3)
        f = random_poly(rng, n, mode)
        g = random_poly(rng, n, mode)
        p = tuple(rng.randint(0, 1) for _ in range(3 * n))
        assert evaluate(f + g, p) == evaluate(f, p) ^ evaluate(g, p)
        assert evaluate(f * g, p) == evaluate(f, p) & evaluate(g, p)


# ---------------------------------------------------------------------------
# enumeration

def test_solution_counts_match_4n_minus_3n():
    for n in (1, 2, 3, 4, 5):
        sols = enumerate_solutions(make_H(n))
        assert len(sols) == 4 ** n - 3 ** n


def test_enumerate_single_generator():
    F = GeneratorSet([P("x1", 1)], DEGLEX)
    sols = enumerate_solutions(F)
    assert len(sols) == 4
    assert all(p[0] == 0 for p in sols.points())


def test_solution_structure():
    # every solution has z_i = x_i*y_i + x_i + y_i and some block with
    # x_i = y_i = 0
    for n in (1, 2, 3):
        for p in enumerate_solutions(make_H(n)).points():
            blocks = [(p[3 * i], p[3 * i + 1], p[3 * i + 2]) for i in range(n)]
            for x, y, z in blocks:
                assert z == (x * y + x + y) % 2
            assert any(x == 0 and y == 0 for x, y, _ in blocks)


def test_enumeration_cap():
    # the cap bounds the live candidates, not the 2^(3n) points: those of
    # H(9) peak at 2^19 and those of H(2) at 2^5
    assert len(enumerate_solutions(make_H(9))) == 4 ** 9 - 3 ** 9
    with pytest.raises(TooManyVariablesError, match="enumeration cap"):
        enumerate_solutions(make_H(9), max_bits=18)
    assert len(enumerate_solutions(make_H(2), max_bits=5)) == 7
    with pytest.raises(TooManyVariablesError, match="enumeration cap"):
        enumerate_solutions(make_H(2), max_bits=4)


def test_solution_sets_equal_h_g():
    for n in (1, 2, 3, 4):
        assert solution_sets_equal(make_H(n), make_G(n))


def test_solution_sets_equal_trivial_and_negative():
    F = make_H(2)
    assert solution_sets_equal(F, F)
    assert not solution_sets_equal(make_H(2), GeneratorSet([P("x1", 2)], DEGLEX))
    with pytest.raises(ValueError, match="different rings"):
        solution_sets_equal(make_H(1), make_H(2))


# ---------------------------------------------------------------------------
# membership by evaluation

def test_membership_examples():
    for n in (1, 2, 3):
        assert membership_by_evaluation(P("x1*z1 + x1", n), make_H(n))
    assert not membership_by_evaluation(poly_one(6), make_H(2))
    assert membership_by_evaluation(P("z1*z2", 2), make_H(2))


def test_membership_requires_field_polys():
    F = GeneratorSet(make_L(2), DEGLEX)
    with pytest.raises(FieldPolysMissingError):
        membership_by_evaluation(P("x1", 2), F)


def test_membership_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        membership_by_evaluation(P("z2", 2), make_H(1))
    with pytest.raises(ArityMismatchError):
        membership_by_evaluation(P("x1", 1), make_H(2))


def test_membership_boolean_mode_is_allowed():
    Hb = make_H(2, mode=BOOLEAN)
    assert membership_by_evaluation(P("x1*z1 + x1", 2, BOOLEAN), Hb)


def test_oracle_agrees_with_algebra():
    rng = random.Random(67)
    for n in (1, 2, 3):
        H = make_H(n)
        basis = interreduce(buchberger(H)[0])
        for _ in range(70):
            f = random_poly(rng, n, FULL)
            assert ideal_membership(f, basis) == membership_by_evaluation(f, H)


# ---------------------------------------------------------------------------
# dumps

def test_solution_dump_roundtrip():
    sols = enumerate_solutions(make_H(2))
    text = dump_solutions(sols)
    lines = text.splitlines()
    assert lines[0] == f"# n=2 count={len(sols)}"
    assert len(lines) == 1 + len(sols)
    loaded = load_solutions(text)
    assert loaded == sols
    assert all(p in loaded for p in loaded.points())
    assert 0 in loaded and 0b100 not in loaded and 1 << 6 not in loaded


def test_solution_dump_sorted_hex():
    sols = enumerate_solutions(make_H(1))
    body = dump_solutions(sols).splitlines()[1:]
    values = [int(s, 16) for s in body]
    assert values == sorted(values)


def test_load_solutions_reads_past_the_enumeration_cap():
    # the file bound is n <= 1000, as for basis dumps, not the 2^24 cap
    loaded = load_solutions("# n=9 count=1\n7ffffff\n")
    assert list(loaded.masks) == [(1 << 27) - 1] and loaded.n == 9


@pytest.mark.parametrize("text", [
    "# n=0 count=5\nfffffff\n",             # n below 1
    "# n=1001 count=0\n",                   # beyond the file bound of 1000
    "# n=1 count=9\n3\n3\n",                # count mismatch, repeated mask
    "# n=1 count=2\n3\n3\n",                # repeated mask
    "# n=1 count=3\n1\n2\n",                # count mismatch
    "1\n2\n",                               # no header
    "",                                     # empty
    "# n=1\n1\n",                           # no count
    "# n=1 count=1 mode=full\n1\n",         # unknown field
    "# n=one count=1\n1\n",                 # n not a number
    "# n=1 count=" + "9" * 5000 + "\n",     # beyond int()'s digit limit
    "# n=1 count=1\n# n=1 count=1\n1\n",    # second header
    "# n=1 count=1\n8\n",                   # mask beyond F2^3
    "# n=1 count=1\n0x1\n",                 # not plain hex
    "# n=1 count=1\n-1\n",                  # not plain hex
])
def test_load_solutions_rejects_malformed_dump(text):
    with pytest.raises(SolutionFormatError):
        load_solutions(text)


def test_load_solutions_quotes_at_most_100_digits_of_a_mask():
    with pytest.raises(SolutionFormatError,
                       match=r"^solution mask f{100} is outside F2\^3 or repeated$"):
        load_solutions("# n=1 count=1\n" + "f" * 3000 + "\n")
