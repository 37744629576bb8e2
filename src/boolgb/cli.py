"""Command-line front end: gen, gb, verify, bench, nf, member.

Exit codes: 0 all good, 2 usage or parse error, 3 resource limit,
4 verification failure.  BOOLGB_CAPS=pairs=...,basis=...,points=...
overrides the default caps; command-line flags override both.  Every cap
is a positive integer; anything else is a usage error.
"""

import argparse
import functools
import json
import os
import sys
import tempfile
import time

from . import construction, groebner, oracle
from .groebner import (
    MAX_FILE_N,
    GeneratorSet,
    ResourceLimitError,
    buchberger,
    dump_basis,
    interreduce,
    is_groebner_basis,
    is_reduced_basis,
    load_basis,
    normal_form,
)
from .polyring import (
    BOOLEAN,
    FULL,
    format_poly,
    get_order,
    parse_poly,
    to_boolean,
    to_full,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_VERIFY = 4


class Caps:
    def __init__(self):
        self.pairs = groebner.DEFAULT_MAX_PAIRS
        self.basis = groebner.DEFAULT_MAX_BASIS
        self.points = oracle.DEFAULT_MAX_BITS

    @classmethod
    def from_env(cls) -> "Caps":
        """Caps from BOOLGB_CAPS; raises ValueError on a malformed entry."""
        caps = cls()
        raw = os.environ.get("BOOLGB_CAPS", "")
        for part in raw.split(","):
            part = part.strip()
            if not part:
                continue
            key, _, value = part.partition("=")
            key = key.strip()
            if key not in ("pairs", "basis", "points"):
                raise ValueError(f"BOOLGB_CAPS: unknown cap {key!r}")
            setattr(caps, key, _positive_int(value.strip(), f"BOOLGB_CAPS {key}"))
        return caps


def _positive_int(text: str, what: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise ValueError(f"{what} must be a positive integer, got {text!r}")
    return int(text)


def _cap_flag(text: str) -> int:
    """argparse type of the --max-* flags."""
    try:
        return _positive_int(text, "cap")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class EngineDisagreementError(Exception):
    """The full and boolean engines returned different bases."""


class VanishingInputError(ValueError):
    """A generator file whose generators are all zero in the Boolean quotient."""


def _atomic_write(path: str, text: str):
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".boolgb-")
    umask = os.umask(0)
    os.umask(umask)
    try:
        # mkstemp creates mode 0600; give the file what open() would
        os.chmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str):
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _boolean_input(F: GeneratorSet) -> GeneratorSet:
    """Image of F in the Boolean quotient (field polynomials vanish)."""
    images = [to_boolean(f) for f in F.polynomials]
    images = [f for f in images if not f.is_zero]
    if not images:
        raise VanishingInputError("all generators vanish in the Boolean quotient")
    return GeneratorSet(images, F.order)


def _with_field_polys(F: GeneratorSet) -> GeneratorSet:
    """F with the 3n field polynomials adjoined (full mode)."""
    return GeneratorSet(
        list(construction.make_S(F.n)) + [to_full(f) if f.mode == BOOLEAN else f
                                          for f in F.polynomials], F.order)


def _boolean_as_full(basis, n, order):
    """Lift a boolean basis, adjoin field polynomials, interreduce in full
    mode; the basis () of the zero ideal lifts to that of S(n)."""
    lifted = [to_full(f) for f in basis] + list(construction.make_S(n))
    return interreduce(groebner.GroebnerBasis(lifted, order))


def _reduced_basis(F: GeneratorSet, engine: str, caps: Caps):
    """Reduced basis and engine stats of (F) under one --engine choice.

    'full' works in the full ring (a Boolean F is lifted and gets the
    field polynomials); 'boolean' returns the Boolean-mode basis of the
    image of F in the quotient; 'both' returns the full basis of F plus
    the field polynomials and raises EngineDisagreementError unless the
    lifted Boolean basis equals it (if every generator vanishes in the
    quotient, the Boolean basis is empty and lifts to that of S(n)).
    """
    def run(E):
        raw, stats = buchberger(E, max_pairs=caps.pairs, max_basis=caps.basis)
        return interreduce(raw), stats

    if engine == "boolean":
        return run(_boolean_input(F))
    if engine == "full":
        return run(F if F.mode == FULL else _with_field_polys(F))
    basis, stats = run(_with_field_polys(F))
    try:
        bool_basis, _ = run(_boolean_input(F))
    except VanishingInputError:
        bool_basis = ()  # F lies in the ideal of S(n)
    if _boolean_as_full(bool_basis, F.n, F.order).as_set() != basis.as_set():
        raise EngineDisagreementError(f"full and boolean engines disagree at n={F.n}")
    return basis, stats


def _full_basis(F: GeneratorSet, engine: str, caps: Caps):
    """The reduced basis of F in the full ring; a Boolean one is lifted."""
    basis, _ = _reduced_basis(F, engine, caps)
    return _boolean_as_full(basis, F.n, F.order) if engine == "boolean" else basis


# ---------------------------------------------------------------------------
# commands

def cmd_gen(args, caps: Caps) -> int:
    try:
        F = construction.make_family(args.family, args.n, args.mode, args.order)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    _emit(construction.format_generator_file(F), args.out)
    report = f"family={args.family} n={args.n} count={len(F)}\n"
    (sys.stdout if args.out else sys.stderr).write(report)
    return EXIT_OK


def cmd_gb(args, caps: Caps) -> int:
    try:
        F = construction.load_generators(args.input, args.order)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    basis, stats = _reduced_basis(F, args.engine, caps)
    _emit(dump_basis(basis) + "\n", args.out)
    if args.verbose:
        sys.stderr.write(stats.as_block(basis_size=len(basis)) + "\n")
    return EXIT_OK


def _verify_checks(args, caps: Caps):
    """Run the four identity checks for one n; yields (id, status, detail)."""
    n, order = args.n, args.order
    try:
        G = construction.make_G(n, FULL, order)
    except ResourceLimitError as exc:
        for check in ("V1", "V2a", "V2b", "V3", "V4"):
            yield (check, "SKIPPED", str(exc))
        return
    H = construction.make_H(n, FULL, order)
    # Sol(H), enumerated once for V1 and V4; past the points cap, the
    # error both report
    try:
        sols = oracle.enumerate_solutions(H, max_bits=caps.points)
    except oracle.TooManyVariablesError as exc:
        sols = exc

    # V1: equal solution sets by exhaustive enumeration
    try:
        if isinstance(sols, Exception):
            raise sols
        equal = sols == oracle.enumerate_solutions(G, max_bits=caps.points)
        yield ("V1", "PASS" if equal else "FAIL",
               "Sol(H) == Sol(G) by enumeration")
    except oracle.TooManyVariablesError as exc:
        yield ("V1", "SKIPPED", str(exc))

    # V2: G is a Groebner basis; reduced exactly when n > 1.  V2a, V2b and
    # the interreduction behind V3 and V4 read one basis of G
    G = groebner.GroebnerBasis(G.polynomials, order)
    gb_ok = is_groebner_basis(G)
    reduced_ok = is_reduced_basis(G)
    yield ("V2a", "PASS" if gb_ok else "FAIL", "G is a Groebner basis")
    if n > 1:
        yield ("V2b", "PASS" if reduced_ok else "FAIL", "G is reduced (n>1)")
    else:
        yield ("V2b", "PASS" if not reduced_ok else "FAIL",
               "G not reduced at n=1, flagged EXPECTED")

    # V3: engine output equals the unique reduced basis; count matches 6n+3^n
    expected = interreduce(G)
    try:
        basis = _full_basis(H, args.engine, caps)
    except ResourceLimitError as exc:
        yield ("V3", "SKIPPED", str(exc))
    except EngineDisagreementError as exc:
        yield ("V3", "FAIL", str(exc))
    else:
        same = basis.as_set() == expected.as_set()
        size_ok = len(basis) == construction.predicted_gb_size(n)
        if n > 1:
            yield ("V3", "PASS" if (same and size_ok) else "FAIL",
                   f"|GB(H)| = {len(basis)}, predicted {construction.predicted_gb_size(n)}")
        else:
            yield ("V3", "PASS" if (same and not size_ok) else "FAIL",
                   f"|GB(H)| = {len(basis)} != 9 at n=1, flagged EXPECTED")

    # V4: standard-monomial count == solution count == 4^n - 3^n, on the
    # predicted reduced basis (V3 compares the engine's basis with it)
    try:
        std = construction.count_standard_monomials(expected, max_bits=caps.points)
        if isinstance(sols, Exception):
            raise sols
        predicted = construction.predicted_solution_count(n)
        ok = std == len(sols) == predicted
        yield ("V4", "PASS" if ok else "FAIL",
               f"standard monomials {std}, solutions {len(sols)}, predicted {predicted}")
    except oracle.TooManyVariablesError as exc:
        yield ("V4", "SKIPPED", str(exc))


def cmd_verify(args, caps: Caps) -> int:
    results = list(_verify_checks(args, caps))
    if args.fmt == "json":
        payload = [{"check": cid, "status": status, "detail": detail}
                   for cid, status, detail in results]
        _emit(json.dumps({"n": args.n, "results": payload}) + "\n", args.out)
    else:
        lines = [f"{cid} {status}: {detail}" for cid, status, detail in results]
        _emit("\n".join(lines) + "\n", args.out)
    if any(status == "FAIL" for _, status, _ in results):
        return EXIT_VERIFY
    return EXIT_OK


def _bench_record(n: int, args, caps: Caps) -> dict:
    """One growth-table row, keyed by its CSV column and JSON key names."""
    H = construction.make_H(n, FULL, args.order)
    gb_count = None
    start = time.perf_counter()
    try:
        gb_count = len(_full_basis(H, args.engine, caps))
    except ResourceLimitError:
        pass
    wall = time.perf_counter() - start

    solution_count = None
    try:
        solution_count = len(oracle.enumerate_solutions(H, max_bits=caps.points))
    except oracle.TooManyVariablesError:
        pass
    return {
        "n": n,
        "inputCount": len(H),
        "inputBitsize": construction.input_bitsize(H),
        "inputMaxDegree": construction.max_degree(H),
        "gbCount": gb_count,
        "predictedGbCount": construction.predicted_gb_size(n),
        "solutionCount": solution_count,
        "predictedSolutionCount": construction.predicted_solution_count(n),
        "wallTimeMs": int(wall * 1000),
    }


def cmd_bench(args, caps: Caps) -> int:
    n_max = args.n if args.n_max is None else args.n_max
    if n_max < args.n:
        sys.stderr.write("error: --n-max must be >= --n\n")
        return EXIT_USAGE
    rows = [_bench_record(n, args, caps) for n in range(args.n, n_max + 1)]
    if args.fmt == "json":
        _emit(json.dumps(rows) + "\n", args.out)
    else:
        lines = [",".join(rows[0])]
        lines.extend(",".join("" if v is None else str(v) for v in row.values())
                     for row in rows)
        _emit("\n".join(lines) + "\n", args.out)
    if any(row["gbCount"] is None for row in rows):
        return EXIT_RESOURCE
    return EXIT_OK


def _load_query(args):
    """The basis dump and the polynomial of an nf or member command."""
    with open(args.basis, "r") as fh:
        basis = load_basis(fh.read())
    return basis, parse_poly(args.poly, basis.n, basis.mode)


def cmd_nf(args, caps: Caps) -> int:
    try:
        basis, f = _load_query(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    r = normal_form(f, basis)
    _emit(format_poly(r, basis.order) + "\n", args.out)
    return EXIT_OK


def cmd_member(args, caps: Caps) -> int:
    try:
        basis, f = _load_query(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    member = normal_form(f, basis).is_zero
    line = f"member={'true' if member else 'false'}"
    if args.oracle:
        F = GeneratorSet(list(basis.elements), basis.order)
        try:
            by_eval = oracle.membership_by_evaluation(f, F, max_bits=caps.points)
        except (oracle.FieldPolysMissingError, oracle.TooManyVariablesError) as exc:
            line += " oracle=unavailable"
            sys.stderr.write(f"note: {exc}\n")
        else:
            line += f" oracle={'true' if by_eval else 'false'}"
            if by_eval != member:
                _emit(line + "\n", args.out)
                sys.stderr.write("error: oracle disagrees with normal form\n")
                return EXIT_VERIFY
    _emit(line + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

# every argument of any command; each command lists the ones it reads
_ARGUMENTS = {
    "input": dict(help="generator-set file"),
    "poly": dict(help="polynomial text"),
    "basis": dict(help="basis dump file (JSON)"),
    "--family": dict(choices=("H", "G", "S", "L", "T", "P"), required=True),
    "--mode": dict(choices=(FULL, BOOLEAN), default=FULL),
    "--n": dict(type=int, required=True, help="block count n >= 1"),
    "--n-max": dict(type=int, default=None),
    "--order": dict(choices=("deglex", "degrevlex"), default="deglex",
                    help="monomial order"),
    "--engine": dict(choices=("full", "boolean", "both"), default="full",
                     help="ring engine"),
    "--max-pairs": dict(type=_cap_flag, default=None),
    "--max-basis": dict(type=_cap_flag, default=None),
    "--out": dict(default=None, help="output path (atomic write)"),
    "--format": dict(dest="fmt", choices=("text", "json"), default="text"),
    "--oracle": dict(action="store_true", help="cross-check by exhaustive evaluation"),
    "-v": dict(dest="verbose", action="store_true", help="print the run's counters"),
}

_RUN = ("--n", "--order", "--engine", "--max-pairs", "--max-basis", "--out", "--format")

_COMMANDS = {
    "gen": (cmd_gen, "write a generator family file",
            ("--family", "--mode", "--n", "--order", "--out")),
    "gb": (cmd_gb, "reduced Groebner basis of a generator file",
           ("input", "--order", "--engine", "--max-pairs", "--max-basis", "--out", "-v")),
    "verify": (cmd_verify, "check the construction identities at one n", _RUN),
    "bench": (cmd_bench, "growth table over an n range", _RUN + ("--n-max",)),
    "nf": (cmd_nf, "normal form of a polynomial against a basis dump",
           ("poly", "basis", "--out")),
    "member": (cmd_member, "ideal membership against a basis dump",
               ("poly", "basis", "--oracle", "--out")),
}


@functools.cache  # built once per process: a build costs about a millisecond
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolgb",
        description="Groebner bases over F2: the 4n+1 -> 6n+3^n blowup harness.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for argument in arguments:
            p.add_argument(argument, **_ARGUMENTS[argument])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if hasattr(args, "order"):
        args.order = get_order(args.order)
    try:
        caps = Caps.from_env()
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    caps.pairs = getattr(args, "max_pairs", None) or caps.pairs
    caps.basis = getattr(args, "max_basis", None) or caps.basis
    for dest in ("n", "n_max"):
        n = getattr(args, dest, None)
        if n is not None and not 1 <= n <= MAX_FILE_N:
            sys.stderr.write(f"error: --{dest.replace('_', '-')} must be in "
                             f"1..{MAX_FILE_N}, the largest n a file may declare\n")
            return EXIT_USAGE
    command = _COMMANDS[args.command][0]
    try:
        return command(args, caps)
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        if exc.stats is not None:
            sys.stderr.write(exc.stats.as_block() + "\n")
        return EXIT_RESOURCE
    except EngineDisagreementError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VERIFY
    except VanishingInputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:  # commands catch their own read errors
        sys.stderr.write(f"error: cannot write output: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
