"""Generator families over F2 and their size/degree metrics.

The families live in 3n variables x_i, y_i, z_i (blocks i = 1..n):

  S(n)  field polynomials c^2 + c, one per variable        (3n elements)
  L(n)  x_i*y_i + x_i + y_i + z_i                          (n elements)
  T(n)  x_i*z_i + x_i  and  y_i*z_i + y_i                  (2n elements)
  P(n)  all products c_1*...*c_n with c_i in {x_i,y_i,z_i} (3^n elements)

  H(n) = S + L + {z_1*...*z_n}      (4n+1 elements)
  G(n) = S + L + T + P              (6n+3^n elements)

H(n) generates the same ideal as G(n), and for n > 1 the set G(n) is the
reduced total-degree Groebner basis of that ideal, so the input of size
4n+1 blows up to a basis of size 6n+3^n.
"""

import itertools

from .groebner import (
    MAX_FILE_N,
    GeneratorSet,
    GroebnerBasis,
    ResourceLimitError,
)
from .oracle import DEFAULT_MAX_BITS, _enumerate
from .polyring import (
    BOOLEAN,
    DEGLEX,
    FULL,
    MODES,
    MonomialOrder,
    ParseError,
    Polynomial,
    format_poly,
    mono_var,
    num_vars,
    parse_poly,
    read_decimal,
)

# P(n) has 3^n elements; refuse to materialize beyond this block count.
DEFAULT_MAX_N = 12


class NotZeroDimensionalError(ValueError):
    """Standard-monomial counting needs a pure-power leading monomial per variable."""


def _check_n(n: int):
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def _blocks(n: int):
    """The flat variables (x_i, y_i, z_i) of each block i = 1..n."""
    _check_n(n)
    return [(v, v + 1, v + 2) for v in range(0, num_vars(n), 3)]


def _monomial(nv: int, *flat):
    """The squarefree monomial of the given flat variables."""
    m = [0] * nv
    for v in flat:
        m[v] = 1
    return tuple(m)


def make_S(n: int):
    """Field polynomials c^2 + c in flat variable order (full mode only)."""
    _check_n(n)
    nv = num_vars(n)
    return [Polynomial((mono_var(v, nv, 2), mono_var(v, nv)), nv, FULL)
            for v in range(nv)]


def make_L(n: int, mode: str = FULL):
    """The n polynomials x_i*y_i + x_i + y_i + z_i."""
    nv = num_vars(n)
    return [Polynomial((_monomial(nv, x, y), _monomial(nv, x), _monomial(nv, y),
                        _monomial(nv, z)), nv, mode) for x, y, z in _blocks(n)]


def make_T(n: int, mode: str = FULL):
    """The 2n polynomials x_i*z_i + x_i and y_i*z_i + y_i."""
    nv = num_vars(n)
    blocks = _blocks(n)
    return [Polynomial((_monomial(nv, block[k], block[2]), _monomial(nv, block[k])),
                       nv, mode) for k in (0, 1) for block in blocks]


def make_P(n: int, mode: str = FULL):
    """All 3^n products c_1*...*c_n, c_i in {x_i, y_i, z_i}, enumerated in
    lexicographic choice order (x before y before z in each block)."""
    blocks = _blocks(n)
    if n > DEFAULT_MAX_N:
        raise ResourceLimitError(f"P({n}) has 3^{n} elements; cap is n <= {DEFAULT_MAX_N}")
    nv = num_vars(n)
    return [Polynomial((_monomial(nv, *pick),), nv, mode)
            for pick in itertools.product(*blocks)]


def z_product(n: int, mode: str = FULL) -> Polynomial:
    """The single monomial z_1*z_2*...*z_n."""
    nv = num_vars(n)
    return Polynomial((_monomial(nv, *(z for _, _, z in _blocks(n))),), nv, mode)


def make_H(n: int, mode: str = FULL, order: MonomialOrder = DEGLEX) -> GeneratorSet:
    """H(n) = S + L + {z_1*...*z_n}; 4n+1 generators in full mode.

    In boolean mode the field polynomials vanish (c^2 + c = c + c = 0),
    leaving the n+1 generators that present the same quotient ideal.
    """
    S = make_S(n) if mode == FULL else []
    return GeneratorSet(S + make_L(n, mode) + [z_product(n, mode)], order)


def make_G(n: int, mode: str = FULL, order: MonomialOrder = DEGLEX) -> GeneratorSet:
    """G(n) = S + L + T + P; 6n+3^n generators in full mode.

    P comes first, so that past its cap nothing else is built."""
    P = make_P(n, mode)
    S = make_S(n) if mode == FULL else []
    return GeneratorSet(S + make_L(n, mode) + make_T(n, mode) + P, order)


FAMILIES = {
    "S": lambda n, mode: make_S(n),
    "L": make_L,
    "T": make_T,
    "P": make_P,
}


def make_family(name: str, n: int, mode: str = FULL,
                order: MonomialOrder = DEGLEX) -> GeneratorSet:
    """Build any of the named families H, G, S, L, T, P as a GeneratorSet."""
    if name == "H":
        return make_H(n, mode, order)
    if name == "G":
        return make_G(n, mode, order)
    if name == "S" and mode == BOOLEAN:
        raise ValueError("S(n) is empty in the Boolean quotient, where c^2 = c")
    if name in FAMILIES:
        return GeneratorSet(FAMILIES[name](n, mode), order)
    raise ValueError(f"unknown family {name!r}")


# ---------------------------------------------------------------------------
# metrics and predictions

def _poly_list(F):
    if isinstance(F, GeneratorSet):
        return F.polynomials, F.order
    return list(F), DEGLEX


def generators_text(F) -> str:
    """Canonical text of a generator set: one polynomial per line, terms
    descending under the set's order, '+' only.  Accepts a GeneratorSet
    or a plain iterable of polynomials (then deglex ordering)."""
    polys, order = _poly_list(F)
    lines = [format_poly(f, order) for f in polys]
    return "\n".join(lines) + "\n" if lines else ""


def input_bitsize(F) -> int:
    """8 x byte length of the canonical text serialization."""
    return 8 * len(generators_text(F).encode("ascii"))


def max_degree(F) -> int:
    """Largest total degree of any term of any generator."""
    polys, _ = _poly_list(F)
    return max((f.degree() for f in polys), default=0)


def predicted_gb_size(n: int) -> int:
    """6n + 3^n, the size of the reduced basis for n > 1."""
    _check_n(n)
    return 6 * n + 3 ** n


def predicted_solution_count(n: int) -> int:
    """4^n - 3^n, the number of F2 points cut out by H(n)."""
    _check_n(n)
    return 4 ** n - 3 ** n


def count_standard_monomials(G: GroebnerBasis,
                             max_bits: int = DEFAULT_MAX_BITS) -> int:
    """Number of monomials divisible by no leading monomial of G.

    Requires a pure-power leading monomial c^k for every variable (the
    ideal is zero-dimensional with per-variable bound k); in boolean mode
    v*v = v bounds every variable by 2 without one.  The candidates are
    the box of exponents below the bounds, searched by the oracle's
    enumerator with each leading monomial as a polynomial: it is 1 exactly
    at the candidates it divides, so those are dropped as soon as its last
    variable is in, and the candidates left are the standard monomials.
    For the H and G families every bound is 2.  Raises
    TooManyVariablesError when the search would hold more than 2^max_bits
    live candidates.
    """
    nvars = G.nvars
    lms = G.leading_monomials()
    if any(not any(lm) for lm in lms):
        return 0  # the ideal is the whole ring; nothing is standard
    bounds = [2 if G.mode == BOOLEAN else None] * nvars
    for lm in lms:
        support = [v for v, e in enumerate(lm) if e]
        if len(support) == 1:
            v = support[0]
            if bounds[v] is None or lm[v] < bounds[v]:
                bounds[v] = lm[v]
    missing = [v for v, b in enumerate(bounds) if b is None]
    if missing:
        raise NotZeroDimensionalError(
            f"no pure-power leading monomial for variable(s) {missing}; "
            f"cannot bound the quotient")
    # a leading monomial with an exponent at its bound divides nothing in the box
    factors = (tuple(zip(itertools.compress(range(nvars), lm), itertools.compress(lm, lm)))
               for lm in lms)
    polys = [[term] for term in factors if all(e < bounds[v] for v, e in term)]
    return _enumerate(polys, bounds, max_bits)[0]


# ---------------------------------------------------------------------------
# generator-set files

def save_generators(F: GeneratorSet, path: str):
    """Write the canonical generator-set file: header plus one polynomial
    per line ('#' starts a comment)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_generator_file(F))


def format_generator_file(F: GeneratorSet) -> str:
    return f"# n={F.n} mode={F.mode}\n" + generators_text(F)


def parse_generator_file(text: str, order: MonomialOrder = DEGLEX) -> GeneratorSet:
    """Read a generator-set file produced by save_generators.

    Raises ValueError unless n (in 1..MAX_FILE_N) and a known mode are set
    by '#' header lines before the first polynomial, and no later header
    gives n or mode a different value.  A ParseError from a polynomial
    names its 1-based line; its position counts from the first non-blank
    character of that line.
    """
    header = {}
    polys = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("#"):
            for part in stripped[1:].split():
                key, sep, value = part.partition("=")
                if not sep or key not in ("n", "mode"):
                    continue
                if key == "n":
                    value = read_decimal(value, 1, MAX_FILE_N)
                    valid = value is not None
                else:
                    valid = value in MODES
                if not valid:
                    raise ValueError(
                        f"line {lineno}: bad header field {part[:100]!r} (n must be "
                        f"in 1..{MAX_FILE_N}, mode one of {', '.join(MODES)})")
                if header.setdefault(key, value) != value:
                    raise ValueError(
                        f"line {lineno}: header field {part[:100]!r} disagrees with "
                        f"the first header ({key}={header[key]})")
            continue
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if len(header) < 2:
            raise ValueError(
                f"line {lineno}: polynomial before '# n=<n> mode=<mode>' header")
        try:
            polys.append(parse_poly(body, header["n"], header["mode"]))
        except ParseError as exc:  # keeps its class and position
            exc.args = (f"line {lineno}: {exc}",)
            raise
    if not polys:
        raise ValueError("generator file contains no polynomials")
    return GeneratorSet(polys, order)


def load_generators(path: str, order: MonomialOrder = DEGLEX) -> GeneratorSet:
    with open(path, "r", encoding="ascii") as fh:
        return parse_generator_file(fh.read(), order)
