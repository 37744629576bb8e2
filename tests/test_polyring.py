"""Ring arithmetic, monomial orders, and the text form."""

import copy
import pickle
import random
import re
import sys

import pytest

from boolgb import (
    BOOLEAN,
    DEGLEX,
    DEGREVLEX,
    FULL,
    ModeMismatchError,
    UnknownVariableError,
    ParseError,
    Polynomial,
    ZeroPolynomialError,
    format_poly,
    leading_monomial,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_one,
    parse_poly,
    poly_add,
    poly_mul,
    poly_one,
    poly_var,
    poly_zero,
    to_boolean,
    var_flat,
    var_name,
)
from boolgb.polyring import _FACTOR_MEMO, _factor, _sum_mod2


def mono(n, **exps):
    """Monomial from variable names, e.g. mono(1, x1=2)."""
    m = [0] * (3 * n)
    for name, e in exps.items():
        m[var_flat(name[0], int(name[1:]))] = e
    return tuple(m)


def random_mono(rng, nvars, max_exp=2, max_deg=4):
    m = [0] * nvars
    for _ in range(rng.randint(0, max_deg)):
        m[rng.randrange(nvars)] += 1
    return tuple(min(e, max_exp) for e in m)


def random_poly(rng, n, mode, max_terms=5, max_exp=2):
    nvars = 3 * n
    cap = 1 if mode == BOOLEAN else max_exp
    terms = {random_mono(rng, nvars, max_exp=cap) for _ in range(rng.randint(0, max_terms))}
    return Polynomial(terms, nvars, mode)


# ---------------------------------------------------------------------------
# variables

def test_var_layout_block_major():
    assert [var_name(i) for i in range(6)] == ["x1", "y1", "z1", "x2", "y2", "z2"]
    assert var_flat("z", 2) == 5
    assert var_name(4) == "y2" and var_flat("y", 2) == 4
    with pytest.raises(ValueError):
        var_flat("x", 0)


def test_var_layout_bijective():
    for flat in range(30):
        name = var_name(flat)
        assert var_flat(name[0], int(name[1:])) == flat
        assert flat == 3 * (int(name[1:]) - 1) + "xyz".index(name[0])


# ---------------------------------------------------------------------------
# monomial arithmetic

def test_mono_mul_full_adds_exponents():
    x = mono(1, x1=1)
    assert mono_mul(x, x, FULL) == mono(1, x1=2)


def test_mono_mul_boolean_caps():
    x = mono(1, x1=1)
    assert mono_mul(x, x, BOOLEAN) == x


def test_mono_mul_disjoint_supports():
    a = mono(1, x1=1, y1=1)
    b = mono(1, z1=1)
    want = mono(1, x1=1, y1=1, z1=1)
    assert mono_mul(a, b, FULL) == want
    assert mono_mul(a, b, BOOLEAN) == want


def test_mono_divides():
    x = mono(1, x1=1)
    x2 = mono(1, x1=2)
    assert mono_divides(x, x2)
    assert not mono_divides(mono(1, x1=1, y1=1), mono(1, x1=1, z1=1))
    assert mono_divides(mono_one(3), mono(1, x1=2, z1=1))


def test_mono_lcm():
    assert mono_lcm(mono(1, x1=2), mono(1, x1=1, y1=1)) == mono(1, x1=2, y1=1)
    m = mono(1, x1=1, z1=2)
    assert mono_lcm(m, m) == m
    assert mono_lcm(mono(1, x1=1, y1=1), mono(1, z1=1)) == mono(1, x1=1, y1=1, z1=1)


# ---------------------------------------------------------------------------
# monomial orders

def test_cmp_degree_first_both_schemes():
    xy = mono(1, x1=1, y1=1)
    z = mono(1, z1=1)
    for order in (DEGLEX, DEGREVLEX):
        assert order.key(xy) > order.key(z)
        assert order.key(z) < order.key(xy)


def test_cmp_deglex_priority():
    assert DEGLEX.key(mono(1, x1=1)) > DEGLEX.key(mono(1, y1=1))
    assert DEGLEX.key(mono(1, x1=1)) == DEGLEX.key(mono(1, x1=1))


def test_cmp_schemes_differ_on_textbook_example():
    # x1*z1 vs y1^2: deglex ranks by the first variable (x1*z1 higher),
    # degrevlex by the smallest exponent on the last variable (y1^2 higher).
    xz = mono(1, x1=1, z1=1)
    yy = mono(1, y1=2)
    assert DEGLEX.key(xz) > DEGLEX.key(yy)
    assert DEGREVLEX.key(xz) < DEGREVLEX.key(yy)


def test_cmp_is_total_order_and_multiplicative():
    rng = random.Random(7)
    nvars = 6
    for _ in range(1000):
        a = random_mono(rng, nvars)
        b = random_mono(rng, nvars)
        c = random_mono(rng, nvars)
        for order in (DEGLEX, DEGREVLEX):
            ka, kb = order.key(a), order.key(b)
            # antisymmetry / totality: exactly one of <, ==, > holds
            assert [ka < kb, ka == kb, ka > kb].count(True) == 1
            assert (ka == kb) == (a == b)
            # degree compatibility
            if sum(a) < sum(b):
                assert ka < kb
            # multiplicativity (full-ring product)
            if ka < kb:
                assert order.key(mono_mul(a, c)) < order.key(mono_mul(b, c))
            # 1 is minimal
            if sum(a):
                assert order.key(mono_one(nvars)) < ka


def test_cmp_transitive_on_sorted_sample():
    rng = random.Random(11)
    monos = [random_mono(rng, 6) for _ in range(200)]
    for order in (DEGLEX, DEGREVLEX):
        ordered = sorted(monos, key=order.key)
        for a, b in zip(ordered, ordered[1:]):
            assert order.key(a) <= order.key(b)


# ---------------------------------------------------------------------------
# polynomial arithmetic

def test_poly_add_self_cancels():
    f = parse_poly("x1*y1 + z1", 1)
    assert (f + f).is_zero


def test_poly_add_symmetric_difference():
    f = parse_poly("x1 + y1", 1)
    g = parse_poly("y1 + z1", 1)
    assert f + g == parse_poly("x1 + z1", 1)


def test_poly_add_identity():
    f = parse_poly("x1*y1 + x1", 1)
    assert f + poly_zero(3) == f


def test_poly_add_mode_mismatch():
    f = poly_var(0, 3, FULL)
    g = poly_var(0, 3, BOOLEAN)
    with pytest.raises(ModeMismatchError):
        poly_add(f, g)
    with pytest.raises(ModeMismatchError):
        poly_mul(f, poly_var(0, 6, FULL))


def test_poly_mul_char2_square():
    f_bool = parse_poly("x1 + 1", 1, BOOLEAN)
    assert f_bool * f_bool == f_bool
    f_full = parse_poly("x1 + 1", 1, FULL)
    assert f_full * f_full == parse_poly("x1^2 + 1", 1, FULL)


def test_poly_mul_binomials():
    for mode in (FULL, BOOLEAN):
        f = parse_poly("x1 + 1", 1, mode)
        g = parse_poly("y1 + 1", 1, mode)
        assert f * g == parse_poly("x1*y1 + x1 + y1 + 1", 1, mode)


def test_boolean_idempotence_randomized():
    rng = random.Random(23)
    for _ in range(1000):
        f = random_poly(rng, rng.randint(1, 4), BOOLEAN)
        assert f * f == f


def test_ring_axioms_randomized():
    rng = random.Random(29)
    for _ in range(1000):
        mode = rng.choice((FULL, BOOLEAN))
        n = rng.randint(1, 3)
        f = random_poly(rng, n, mode)
        g = random_poly(rng, n, mode)
        h = random_poly(rng, n, mode)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert (f + g) + g == f  # self-inverse addition
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f


def test_leading_monomial():
    f = parse_poly("x1*y1 + x1 + y1 + z1", 1)
    assert leading_monomial(f, DEGLEX) == mono(1, x1=1, y1=1)
    assert leading_monomial(f, DEGREVLEX) == mono(1, x1=1, y1=1)
    assert leading_monomial(parse_poly("x1^2 + x1", 1)) == mono(1, x1=2)
    m = parse_poly("y1*z1", 1)
    assert leading_monomial(m) == mono(1, y1=1, z1=1)
    with pytest.raises(ZeroPolynomialError):
        leading_monomial(poly_zero(3))


def test_to_boolean_cancels_collapsing_terms():
    # x^2 + x maps to x + x = 0 in the quotient
    assert to_boolean(parse_poly("x1^2 + x1", 1)).is_zero
    assert to_boolean(parse_poly("x1^2 + y1", 1)) == parse_poly("x1 + y1", 1, BOOLEAN)


# ---------------------------------------------------------------------------
# parse / format

def test_parse_family_generators():
    f = parse_poly("x1*y1 + x1 + y1 - z1", 1)
    assert f.terms == frozenset(
        [mono(1, x1=1, y1=1), mono(1, x1=1), mono(1, y1=1), mono(1, z1=1)])
    assert parse_poly("0", 2).is_zero
    zzz = parse_poly("z1*z2*z3", 3)
    assert zzz == Polynomial([mono(3, z1=1, z2=1, z3=1)], 9, FULL)


def test_parse_minus_is_plus():
    assert parse_poly("x1 - y1", 1) == parse_poly("x1 + y1", 1)


def test_parse_coefficients_mod_2():
    assert parse_poly("2*x1", 1).is_zero
    assert parse_poly("3*x1", 1) == poly_var(0, 3)
    assert parse_poly("x1 + x1", 1).is_zero
    assert parse_poly("1 + 0", 1) == poly_one(3)


def test_parse_whitespace_and_powers():
    assert parse_poly("  x1 ^ 2\t+ x1 ", 1) == parse_poly("x1^2+x1", 1)
    assert parse_poly("x1*x1", 1) == parse_poly("x1^2", 1)
    assert parse_poly("x1^2", 1, BOOLEAN) == poly_var(0, 3, BOOLEAN)
    assert parse_poly("x 1 ^ 2 * y 1", 1) == parse_poly("x1^2*y1", 1)
    assert parse_poly("- x1 - 3*y1 + 2", 1) == parse_poly("x1+y1", 1)
    # int() reads the decimal digits of every script, so the parser does too
    assert parse_poly("x\u0663", 3) == parse_poly("x3", 3)


# input, n, exception class, position, message
PARSE_ERRORS = [
    ("x1 + ", 1, ParseError, 5, "unexpected end of input"),
    ("x1 ++ y1", 1, ParseError, 4, "unexpected character '+'"),
    ("w1", 1, ParseError, 0, "unexpected character 'w'"),
    ("*x1", 1, ParseError, 0, "unexpected character '*'"),
    ("+", 1, ParseError, 1, "unexpected end of input"),
    ("x1*", 1, ParseError, 3, "unexpected end of input"),
    ("x", 1, ParseError, 1, "expected an integer"),
    ("x1^", 1, ParseError, 3, "expected an integer"),
    ("x1^-2", 1, ParseError, 3, "expected an integer"),
    ("x1^0", 1, ParseError, 3, "exponent must be positive"),
    ("x1 y1", 1, ParseError, 3, "expected '+' or '-', found 'y'"),
    ("3 x1", 1, ParseError, 2, "expected '+' or '-', found 'x'"),
    ("x1^2^3", 1, ParseError, 4, "expected '+' or '-', found '^'"),
    ("x5", 4, UnknownVariableError, 0, "variable x5 is outside the ring (n=4)"),
    ("x0", 1, UnknownVariableError, 0, "variable x0 is outside the ring (n=1)"),
    ("z3", 2, UnknownVariableError, 0, "variable z3 is outside the ring (n=2)"),
    # a superscript digit passes str.isdigit but is no decimal digit
    ("x1^\u00b2", 1, ParseError, 3, "expected an integer"),
    ("\u00b2", 1, ParseError, 0, "unexpected character '\u00b2'"),
]


@pytest.mark.parametrize("text, n, cls, position, message", PARSE_ERRORS)
def test_parse_errors_carry_position(text, n, cls, position, message):
    with pytest.raises(ParseError) as err:
        parse_poly(text, n)
    assert type(err.value) is cls
    assert err.value.position == position
    assert str(err.value) == f"{message} (at position {position})"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter converts digit runs of any length")
@pytest.mark.parametrize("prefix", ["x1^", "", "x"])
def test_parse_digit_run_past_int_limit(prefix):
    digits = "9" * (sys.get_int_max_str_digits() + 700)
    with pytest.raises(ParseError) as err:
        parse_poly(prefix + digits, 1)
    assert err.value.position == len(prefix)


# The parser as it was before the factor memo: one walk over the text,
# two regex matches per factor.  parse_poly must agree with it on every
# text, in its terms or in its error's class, position and message.
_REF_FACTOR = re.compile(r"\s*(?:([xyz])\s*(\d*)(?:\s*\^\s*(\d*))?|(\d*))")
_REF_SEPARATOR = re.compile(r"\s*([*+-]|\Z)?")


def _reference_read_int(digits, at):
    if not digits:
        raise ParseError("expected an integer", at)
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise ParseError("integer too long", at) from None


def reference_parse_poly(text, n, mode=FULL):
    nvars = 3 * n
    sign = _REF_SEPARATOR.match(text)
    pos = sign.end() if sign[1] in ("+", "-") else 0
    monos = []
    op = "+"
    while op:
        if op != "*":
            exps, odd = [0] * nvars, True
        factor = _REF_FACTOR.match(text, pos)
        kind, index, exp, digits = factor.groups()
        if kind:
            block = _reference_read_int(index, factor.start(2))
            if not 1 <= block <= n:
                raise UnknownVariableError(
                    f"variable {kind}{block} is outside the ring (n={n})",
                    factor.start(1))
            power = 1 if exp is None else _reference_read_int(exp, factor.start(3))
            if power < 1:
                raise ParseError("exponent must be positive", factor.start(3))
            exps[var_flat(kind, block)] += power
        elif digits:
            if _reference_read_int(digits, factor.start(4)) % 2 == 0:
                odd = False
        else:
            pos = factor.end()
            if pos == len(text):
                raise ParseError("unexpected end of input", pos)
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        sep = _REF_SEPARATOR.match(text, factor.end())
        pos, op = sep.end(), sep[1]
        if op is None:
            raise ParseError(f"expected '+' or '-', found {text[pos]!r}", pos)
        if op != "*" and odd:
            monos.append(tuple(min(e, 1) for e in exps) if mode == BOOLEAN
                         else tuple(exps))
    return Polynomial(_sum_mod2(monos), nvars, mode)


def _parse_outcome(parse, text, n, mode):
    try:
        return parse(text, n, mode).terms
    except ParseError as exc:
        return type(exc), exc.position, str(exc)


# blanks, separators, letters, a zero, digit runs, an Arabic-Indic three
# (a decimal digit) and a superscript two (not one), an unknown letter
_TEXT_ALPHABET = [" ", "\t", "+", "-", "*", "^", "x", "y", "z", "0", "1", "2",
                  "13", "007", "٣", "²", "w"]


def _random_text(rng, n):
    """Noise from the alphabet, or well-formed text with one edit or none."""
    if rng.random() < 0.4:
        return "".join(rng.choice(_TEXT_ALPHABET) for _ in range(rng.randint(0, 12)))
    terms = []
    for _ in range(rng.randint(1, 4)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.2:
                factors.append(str(rng.randint(0, 12)))
                continue
            factor = rng.choice("xyz") + rng.choice(["", " "]) + str(rng.randint(1, n))
            if rng.random() < 0.3:
                factor += rng.choice(["^", " ^ ", "^\t"]) + str(rng.randint(1, 4))
            factors.append(factor)
        terms.append(rng.choice(["*", " * "]).join(factors))
    text = rng.choice(["", "-", " + ", "\t- "]) + rng.choice(["+", " - ", "-"]).join(terms)
    if rng.random() < 0.5:
        at = rng.randrange(len(text) + 1)
        cut = at + rng.randint(0, 1)
        text = text[:at] + rng.choice(_TEXT_ALPHABET) + text[cut:]
    return text


def test_parse_rejects_an_unknown_mode():
    # parse_poly builds its result without the constructor's checks, but
    # keeps the mode check
    with pytest.raises(ValueError, match="unknown mode: 'bogus'"):
        parse_poly("x1", 1, "bogus")


@pytest.mark.parametrize("mode", [FULL, BOOLEAN])
def test_polynomials_copy_and_pickle(mode):
    f = parse_poly("x1+y1", 1, mode)
    copies = [copy.copy(f), copy.deepcopy(f), copy.deepcopy([f])[0]]
    copies += [pickle.loads(pickle.dumps(f, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for g in copies:
        assert g == f and hash(g) == hash(f)
        assert (g.terms, g.nvars, g.mode) == (f.terms, f.nvars, f.mode)
        with pytest.raises(AttributeError, match="immutable"):
            g.terms = frozenset()
        assert g == f
    # a pickle rebuilds through the checked constructor, which refuses a
    # Boolean monomial with a square
    rebuild, args = f.__reduce__()
    assert rebuild(*args) == f
    with pytest.raises(ValueError, match="squarefree"):
        rebuild(frozenset({(2, 0, 0)}), 3, BOOLEAN)


def test_parse_matches_the_reference_walker():
    rng = random.Random(2015)
    parsed = 0
    for _ in range(20000):
        n, mode = rng.randint(1, 3), rng.choice((FULL, BOOLEAN))
        text = _random_text(rng, n)
        expected = _parse_outcome(reference_parse_poly, text, n, mode)
        assert _parse_outcome(parse_poly, text, n, mode) == expected, (text, n, mode)
        parsed += isinstance(expected, frozenset)
    # both outcomes are common, so neither side of the parser goes untested
    assert 5000 < parsed < 15000


@pytest.mark.parametrize("texts", [("x9", "x1+x9"), ("x1+x9", "x9")])
def test_factor_memo_never_keeps_an_absolute_position(texts):
    _factor.cache_clear()
    for text in texts * 2:
        with pytest.raises(UnknownVariableError) as err:
            parse_poly(text, 1)
        assert err.value.position == text.index("x9")


def test_factor_memo_is_keyed_by_the_ring():
    _factor.cache_clear()
    assert parse_poly("x2", 2) == poly_var(3, 6)
    with pytest.raises(UnknownVariableError) as err:
        parse_poly("x2", 1)
    assert str(err.value) == "variable x2 is outside the ring (n=1) (at position 0)"


def test_factor_memo_stays_bounded():
    _factor.cache_clear()
    count = 3 * _FACTOR_MEMO
    f = parse_poly("*".join(f"x1^{k}" for k in range(1, count + 1)), 1)
    assert f == Polynomial([(count * (count + 1) // 2, 0, 0)], 3)
    assert _factor.cache_info().currsize <= _FACTOR_MEMO


def test_format_canonical():
    f = parse_poly("z1 + x1 + x1*y1 + y1", 1)
    assert format_poly(f, DEGLEX) == "x1*y1+x1+y1+z1"
    assert format_poly(poly_zero(3)) == "0"
    assert format_poly(poly_one(3)) == "1"
    assert format_poly(parse_poly("x1^2+x1", 1)) == "x1^2+x1"


def test_parse_format_roundtrip_randomized():
    rng = random.Random(31)
    for _ in range(1000):
        mode = rng.choice((FULL, BOOLEAN))
        n = rng.randint(1, 4)
        f = random_poly(rng, n, mode)
        for order in (DEGLEX, DEGREVLEX):
            assert parse_poly(format_poly(f, order), n, mode) == f
