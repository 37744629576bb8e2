"""Generator families, metrics, predictions, standard-monomial counting."""

import itertools

import pytest

from boolgb import (
    BOOLEAN,
    DEGLEX,
    DEGREVLEX,
    FULL,
    GroebnerBasis,
    NotZeroDimensionalError,
    ParseError,
    ResourceLimitError,
    TooManyVariablesError,
    UnknownVariableError,
    buchberger,
    count_standard_monomials,
    evaluate,
    enumerate_solutions,
    input_bitsize,
    interreduce,
    make_G,
    make_H,
    make_L,
    make_P,
    make_S,
    make_T,
    make_family,
    max_degree,
    parse_poly,
    poly_var,
    predicted_gb_size,
    predicted_solution_count,
    save_generators,
    load_generators,
    z_product,
)
from boolgb.construction import format_generator_file, generators_text, parse_generator_file


def P(text, n, mode=FULL):
    return parse_poly(text, n, mode)


# ---------------------------------------------------------------------------
# families

def test_make_S_n1_exact():
    assert make_S(1) == [P("x1^2+x1", 1), P("y1^2+y1", 1), P("z1^2+z1", 1)]


def test_make_S_counts_and_shape():
    for n in (1, 2, 5):
        S = make_S(n)
        assert len(S) == 3 * n
        for f in S:
            assert f.degree() == 2 and len(f.terms) == 2


def test_make_L_n1_exact():
    assert make_L(1) == [P("x1*y1 + x1 + y1 + z1", 1)]
    assert len(make_L(4)) == 4


def test_L_encodes_nor_of_x_y():
    # on F2 points with z = x*y + x + y:  z = 0  iff  x = 0 and y = 0
    f = make_L(1)[0]
    for x, y in itertools.product((0, 1), repeat=2):
        z = (x * y + x + y) % 2
        assert evaluate(f, (x, y, z)) == 0
        assert (z == 0) == (x == 0 and y == 0)


def test_make_T_n1_exact():
    assert make_T(1) == [P("x1*z1 + x1", 1), P("y1*z1 + y1", 1)]
    assert len(make_T(3)) == 6


def test_T_vanishes_on_solutions_of_H():
    for n in (1, 2, 3):
        sols = enumerate_solutions(make_H(n))
        for f in make_T(n):
            assert all(evaluate(f, p) == 0 for p in sols.points())


def test_make_P_small():
    assert make_P(1) == [P("x1", 1), P("y1", 1), P("z1", 1)]
    P2 = make_P(2)
    assert len(P2) == 9
    assert P("x1*y2", 2) in P2
    for n in (1, 2, 3, 4):
        assert len(make_P(n)) == 3 ** n


def test_make_P_enumeration_order():
    P2 = make_P(2)
    assert P2[0] == P("x1*x2", 2)
    assert P2[1] == P("x1*y2", 2)
    assert P2[-1] == P("z1*z2", 2)


def test_make_P_cap():
    with pytest.raises(ResourceLimitError):
        make_P(13)


def test_make_H_counts():
    assert len(make_H(1)) == 5
    assert len(make_H(4)) == 17
    for n in (1, 2, 3, 5):
        assert len(make_H(n)) == 4 * n + 1


def test_make_G_counts():
    assert len(make_G(4)) == 105
    assert len(make_G(1)) == 9
    for n in (1, 2, 3, 4):
        assert len(make_G(n)) == 6 * n + 3 ** n


def test_H_subset_of_G():
    for n in (1, 2, 3, 4):
        assert set(make_H(n).polynomials) <= set(make_G(n).polynomials)
        assert z_product(n) in make_P(n)


def test_boolean_mode_drops_field_polys():
    Hb = make_H(2, mode=BOOLEAN)
    assert len(Hb) == 3  # L1, L2 and z1*z2
    assert all(f.mode == BOOLEAN for f in Hb)


def test_make_family_dispatch():
    assert len(make_family("H", 2)) == 9
    assert len(make_family("G", 2)) == 21
    assert len(make_family("S", 2)) == 6
    assert len(make_family("L", 2)) == 2
    assert len(make_family("T", 2)) == 4
    assert len(make_family("P", 2)) == 9
    with pytest.raises(ValueError):
        make_family("Q", 2)


def test_make_family_S_is_empty_in_boolean_mode():
    # c^2 + c vanishes in the Boolean quotient: no set to build
    with pytest.raises(ValueError, match="empty"):
        make_family("S", 1, BOOLEAN)


def test_degree_bound_of_families():
    for n in (1, 2, 3, 4, 5):
        bound = max(2, n)
        assert max_degree(make_H(n)) <= bound
        assert max_degree(make_G(n)) <= bound


# ---------------------------------------------------------------------------
# metrics

def test_bitsize_empty_is_zero():
    assert input_bitsize([]) == 0


def test_bitsize_monotone_in_n():
    assert input_bitsize(make_H(4)) > input_bitsize(make_H(2))


def test_bitsize_quadratic_bound():
    c = input_bitsize(make_H(2)) / 4
    for n in range(2, 9):
        assert input_bitsize(make_H(n)) <= c * n * n


def test_max_degree_h3():
    assert max_degree(make_H(3)) == 3  # from z1*z2*z3


def test_predictions():
    assert predicted_gb_size(4) == 105
    assert predicted_solution_count(2) == 7
    assert [predicted_gb_size(n) for n in (2, 3, 4, 5)] == [21, 45, 105, 273]
    assert [predicted_solution_count(n) for n in (1, 2, 3)] == [1, 7, 37]
    with pytest.raises(ValueError):
        predicted_gb_size(0)


# ---------------------------------------------------------------------------
# standard monomials

def test_count_standard_monomials_g4():
    basis = GroebnerBasis(list(make_G(4).polynomials), DEGLEX, reduced=True)
    assert count_standard_monomials(basis) == 4 ** 4 - 3 ** 4


def test_count_standard_monomials_all_vars():
    nvars = 6
    basis = GroebnerBasis([poly_var(v, nvars) for v in range(nvars)],
                          DEGLEX, reduced=True)
    assert count_standard_monomials(basis) == 1


def test_standard_monomials_block_product_description_n2():
    # block-wise products with c_i in {1, x_i, y_i, z_i}, minus the 3^n
    # all-variable products: 4^2 - 3^2 = 7 of them at n = 2
    n = 2
    basis = interreduce(buchberger(make_H(n))[0])
    assert count_standard_monomials(basis) == 16 - 9

    choices = []
    for i in (1, 2):
        block = [None, f"x{i}", f"y{i}", f"z{i}"]
        choices.append(block)
    described = set()
    for pick in itertools.product(*choices):
        names = [p for p in pick if p]
        if len(names) == n:  # a full product lies in P(n)
            continue
        described.add("*".join(names) if names else "1")
    assert len(described) == 7


def test_count_standard_monomials_box_cap():
    # the cap bounds the live candidates: those of G(2) peak at 12 of the
    # 2^6 monomials in its box
    basis = GroebnerBasis(list(make_G(2).polynomials), DEGLEX, reduced=True)
    assert count_standard_monomials(basis, max_bits=4) == 7
    with pytest.raises(TooManyVariablesError, match="enumeration cap"):
        count_standard_monomials(basis, max_bits=3)
    huge = GroebnerBasis([P(t, 1) for t in ("x1^4096", "y1^4096", "z1^2")],
                         DEGLEX, reduced=True)  # a box of 2^25 monomials
    with pytest.raises(TooManyVariablesError, match="enumeration cap"):
        count_standard_monomials(huge)


@pytest.mark.parametrize("order", [DEGLEX, DEGREVLEX])
def test_count_standard_monomials_boolean_bounds_every_variable(order):
    # v*v = v: no field polynomial is needed to bound a boolean variable
    for n in range(1, 6):
        G = make_G(n, BOOLEAN, order)
        basis = GroebnerBasis(list(G.polynomials), order, reduced=True)
        assert count_standard_monomials(basis) == 4 ** n - 3 ** n
        reduced = interreduce(buchberger(make_H(n, BOOLEAN, order))[0])
        assert count_standard_monomials(reduced) == 4 ** n - 3 ** n


def test_count_standard_monomials_rejects_positive_dimension():
    basis = GroebnerBasis([P("x1*y1", 1)], DEGLEX, reduced=True)
    with pytest.raises(NotZeroDimensionalError):
        count_standard_monomials(basis)


# ---------------------------------------------------------------------------
# generator files

def test_generator_file_roundtrip(tmp_path):
    F = make_H(2)
    path = tmp_path / "h2.gens"
    save_generators(F, str(path))
    loaded = load_generators(str(path))
    assert loaded.polynomials == F.polynomials
    assert loaded.mode == FULL and loaded.n == 2


def test_generator_file_format():
    text = format_generator_file(make_H(1))
    lines = text.splitlines()
    assert lines[0] == "# n=1 mode=full"
    assert len(lines) == 1 + 5
    assert lines[1] == "x1^2+x1"
    assert lines[-1] == "z1"


def test_generator_file_comments_and_blank_lines():
    text = "# n=1 mode=full\n\n# a comment\nx1 + y1  # trailing note\n"
    F = parse_generator_file(text)
    assert F.polynomials == (P("x1+y1", 1),)


@pytest.mark.parametrize("body, error, message", [
    ("   x1 + y1^  # c", ParseError, "line 4: expected an integer (at position 8)"),
    ("x1 + z3", UnknownVariableError, "line 4: variable z3 is outside the ring"),
])
def test_generator_file_parse_error_names_its_line(body, error, message):
    with pytest.raises(error) as info:
        parse_generator_file(f"# n=2 mode=full\nx1 + y1\nz1\n{body}\n")
    assert type(info.value) is error
    assert str(info.value).startswith(message)
    assert f"(at position {info.value.position})" in str(info.value)


def test_generator_file_requires_header():
    with pytest.raises(ValueError):
        parse_generator_file("x1+y1\n")


@pytest.mark.parametrize("header", [
    "n=1001 mode=full", "n=" + "1" * 5000 + " mode=full", "n=1 mode=" + "q" * 5000])
def test_generator_file_bad_header_n_names_its_line(header):
    # a 5000-digit n is out of range, not past Python's int() digit limit;
    # the message quotes at most 100 characters of the field
    with pytest.raises(ValueError, match="^line 1: bad header field '(n|mode)=") as info:
        parse_generator_file(f"# {header}\nx1\n")
    assert len(str(info.value)) < 200


def test_generator_file_disagreeing_header_quotes_at_most_100_characters():
    # leading zeros are read as nothing, so a field of any length can name n = 2
    with pytest.raises(ValueError, match="^line 2: header field 'n=0{98}' disagrees") as info:
        parse_generator_file("# n=1 mode=full\n# n=" + "0" * 5000 + "2\nx1\n")
    assert len(str(info.value)) < 200


def test_generators_text_matches_bitsize_definition():
    F = make_H(1)
    text = generators_text(F)
    assert input_bitsize(F) == 8 * len(text.encode("ascii"))
    assert text.endswith("\n")


def test_count_standard_monomials_whole_ring():
    from boolgb import poly_one
    basis = GroebnerBasis([poly_one(3)], DEGLEX, reduced=True)
    assert count_standard_monomials(basis) == 0
