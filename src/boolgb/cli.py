"""Command-line front end: gen, gb, verify, bench, nf, member.

Exit codes: 0 all good, 2 usage or parse error, 3 resource limit,
4 verification failure.  BOOLGB_CAPS=pairs=...,basis=...,points=...
overrides the default caps; command-line flags override both.  Every cap
is a positive integer; anything else is a usage error.
"""

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass

from . import construction, groebner, oracle
from .groebner import (
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
    ParseError,
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


@dataclass
class Caps:
    pairs: int = groebner.DEFAULT_MAX_PAIRS
    basis: int = groebner.DEFAULT_MAX_BASIS
    points: int = oracle.DEFAULT_MAX_BITS

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


@dataclass
class RunConfig:
    command: str
    n: int = 0
    n_max: int = 0
    mode: str = FULL
    order_scheme: str = "deglex"
    engine: str = "full"
    caps: Caps = None
    out: str = None
    fmt: str = "text"
    verbose: int = 0

    @property
    def order(self):
        return get_order(self.order_scheme)


def _atomic_write(path: str, text: str):
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".boolgb-")
    try:
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


def _reduced_basis(F: GeneratorSet, caps: Caps):
    raw, stats = buchberger(F, max_pairs=caps.pairs, max_basis=caps.basis)
    return interreduce(raw), stats


def _boolean_input(F: GeneratorSet) -> GeneratorSet:
    """Image of F in the Boolean quotient (field polynomials vanish)."""
    images = [to_boolean(f) for f in F.polynomials]
    images = [f for f in images if not f.is_zero]
    if not images:
        raise ValueError("all generators vanish in the Boolean quotient")
    return GeneratorSet(images, F.order)


def _with_field_polys(F: GeneratorSet) -> GeneratorSet:
    """F with the 3n field polynomials adjoined (full mode)."""
    return GeneratorSet(
        list(construction.make_S(F.n)) + [to_full(f) if f.mode == BOOLEAN else f
                                          for f in F.polynomials], F.order)


def _boolean_as_full(basis, n, order):
    """Lift a boolean basis, adjoin field polynomials, interreduce in full mode."""
    lifted = [to_full(f) for f in basis.elements]
    combined = groebner.GroebnerBasis(
        lifted + list(construction.make_S(n)), order, reduced=False)
    return interreduce(combined)


# ---------------------------------------------------------------------------
# commands

def cmd_gen(cfg: RunConfig, family: str) -> int:
    F = construction.make_family(family, cfg.n, cfg.mode, cfg.order)
    text = construction.format_generator_file(F)
    _emit(text, cfg.out)
    report = f"family={family} n={cfg.n} count={len(F)}\n"
    (sys.stdout if cfg.out else sys.stderr).write(report)
    return EXIT_OK


def cmd_gb(cfg: RunConfig, input_path: str) -> int:
    try:
        F = construction.load_generators(input_path, cfg.order)
    except (ParseError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE

    try:
        if cfg.engine == "boolean":
            basis, stats = _reduced_basis(_boolean_input(F), cfg.caps)
        elif cfg.engine == "both":
            full_basis, stats = _reduced_basis(_with_field_polys(F), cfg.caps)
            bool_basis, _ = _reduced_basis(_boolean_input(F), cfg.caps)
            lifted = _boolean_as_full(bool_basis, F.n, cfg.order)
            if lifted.as_set() != full_basis.as_set():
                sys.stderr.write("error: full and boolean engines disagree\n")
                return EXIT_VERIFY
            basis = full_basis
        else:
            if F.mode == BOOLEAN:
                # full-ring presentation of a quotient ideal: lift the
                # generators and adjoin the field polynomials
                F = _with_field_polys(F)
            basis, stats = _reduced_basis(F, cfg.caps)
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        if exc.stats is not None:
            sys.stderr.write(exc.stats.as_block() + "\n")
        return EXIT_RESOURCE

    _emit(dump_basis(basis) + "\n", cfg.out)
    if cfg.verbose:
        sys.stderr.write(stats.as_block(basis_size=len(basis)) + "\n")
    return EXIT_OK


def _verify_checks(cfg: RunConfig):
    """Run the four identity checks for one n; yields (id, status, detail)."""
    n = cfg.n
    order = cfg.order
    caps = cfg.caps

    H = construction.make_H(n, FULL, order)
    try:
        G = construction.make_G(n, FULL, order)
    except ResourceLimitError as exc:
        yield ("V1", "SKIPPED", str(exc))
        return

    # V1: equal solution sets by exhaustive enumeration
    try:
        equal = oracle.solution_sets_equal(H, G, max_bits=caps.points)
        yield ("V1", "PASS" if equal else "FAIL",
               "Sol(H) == Sol(G) by enumeration")
    except oracle.TooManyVariablesError as exc:
        yield ("V1", "SKIPPED", str(exc))

    # V2: G is a Groebner basis; reduced exactly when n > 1
    gb_ok = is_groebner_basis(G.polynomials, order)
    reduced_ok = is_reduced_basis(G.polynomials, order)
    yield ("V2a", "PASS" if gb_ok else "FAIL", "G is a Groebner basis")
    if n > 1:
        yield ("V2b", "PASS" if reduced_ok else "FAIL", "G is reduced (n>1)")
    else:
        yield ("V2b", "PASS" if not reduced_ok else "FAIL",
               "G not reduced at n=1, flagged EXPECTED")

    # V3: engine output equals the unique reduced basis; count matches 6n+3^n
    try:
        basis, _ = _reduced_basis(H, caps)
        if cfg.engine in ("boolean", "both"):
            bool_basis, _ = _reduced_basis(_boolean_input(H), caps)
            lifted = _boolean_as_full(bool_basis, n, order)
            if cfg.engine == "boolean":
                basis = lifted
            elif lifted.as_set() != basis.as_set():
                yield ("V3", "FAIL", "full and boolean engines disagree")
                return
        expected = interreduce(
            groebner.GroebnerBasis(list(G.polynomials), order, reduced=False))
        same = basis.as_set() == expected.as_set()
        size_ok = len(basis) == construction.predicted_gb_size(n)
        if n > 1:
            yield ("V3", "PASS" if (same and size_ok) else "FAIL",
                   f"|GB(H)| = {len(basis)}, predicted {construction.predicted_gb_size(n)}")
        else:
            yield ("V3", "PASS" if (same and not size_ok) else "FAIL",
                   f"|GB(H)| = {len(basis)} != 9 at n=1, flagged EXPECTED")
    except ResourceLimitError as exc:
        yield ("V3", "SKIPPED", str(exc))
        return

    # V4: standard-monomial count == solution count == 4^n - 3^n
    try:
        std = construction.count_standard_monomials(basis)
        sols = len(oracle.enumerate_solutions(H, max_bits=caps.points))
        predicted = construction.predicted_solution_count(n)
        ok = std == sols == predicted
        yield ("V4", "PASS" if ok else "FAIL",
               f"standard monomials {std}, solutions {sols}, predicted {predicted}")
    except oracle.TooManyVariablesError as exc:
        yield ("V4", "SKIPPED", str(exc))


def cmd_verify(cfg: RunConfig) -> int:
    results = list(_verify_checks(cfg))
    if cfg.fmt == "json":
        payload = [{"check": cid, "status": status, "detail": detail}
                   for cid, status, detail in results]
        _emit(json.dumps({"n": cfg.n, "results": payload}) + "\n", cfg.out)
    else:
        lines = [f"{cid} {status}: {detail}" for cid, status, detail in results]
        _emit("\n".join(lines) + "\n", cfg.out)
    if any(status == "FAIL" for _, status, _ in results):
        return EXIT_VERIFY
    return EXIT_OK


def _bench_record(n: int, cfg: RunConfig) -> construction.GrowthRecord:
    order = cfg.order
    caps = cfg.caps
    H = construction.make_H(n, FULL, order)
    gb_count = None
    start = time.perf_counter()
    try:
        if cfg.engine == "boolean":
            bool_basis, _ = _reduced_basis(_boolean_input(H), caps)
            basis = _boolean_as_full(bool_basis, n, order)
        else:
            basis, _ = _reduced_basis(H, caps)
            if cfg.engine == "both":
                bool_basis, _ = _reduced_basis(_boolean_input(H), caps)
                lifted = _boolean_as_full(bool_basis, n, order)
                if lifted.as_set() != basis.as_set():
                    raise EngineDisagreementError(
                        f"full and boolean engines disagree at n={n}")
        gb_count = len(basis)
    except ResourceLimitError:
        pass
    wall = time.perf_counter() - start

    solution_count = None
    if 3 * n <= caps.points:
        solution_count = len(oracle.enumerate_solutions(H, max_bits=caps.points))
    return construction.GrowthRecord(
        n=n,
        input_count=len(H),
        input_bitsize=construction.input_bitsize(H),
        input_max_degree=construction.max_degree(H),
        gb_count=gb_count,
        predicted_gb_count=construction.predicted_gb_size(n),
        solution_count=solution_count,
        predicted_solution_count=construction.predicted_solution_count(n),
        wall_time=wall,
    )


def cmd_bench(cfg: RunConfig) -> int:
    if cfg.n_max < cfg.n:
        sys.stderr.write("error: --n-max must be >= --n\n")
        return EXIT_USAGE
    try:
        records = [_bench_record(n, cfg) for n in range(cfg.n, cfg.n_max + 1)]
    except EngineDisagreementError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VERIFY
    if cfg.fmt == "json":
        payload = [
            {
                "n": r.n, "inputCount": r.input_count,
                "inputBitsize": r.input_bitsize,
                "inputMaxDegree": r.input_max_degree,
                "gbCount": r.gb_count,
                "predictedGbCount": r.predicted_gb_count,
                "solutionCount": r.solution_count,
                "predictedSolutionCount": r.predicted_solution_count,
                "wallTimeMs": int(r.wall_time * 1000),
            }
            for r in records
        ]
        _emit(json.dumps(payload) + "\n", cfg.out)
    else:
        lines = [construction.GrowthRecord.CSV_HEADER]
        lines.extend(r.csv_row() for r in records)
        _emit("\n".join(lines) + "\n", cfg.out)
    if any(r.gb_count is None for r in records):
        return EXIT_RESOURCE
    return EXIT_OK


def _load_basis_file(path: str):
    with open(path, "r") as fh:
        return load_basis(fh.read())


def cmd_nf(cfg: RunConfig, poly_text: str, basis_path: str) -> int:
    try:
        basis = _load_basis_file(basis_path)
        f = parse_poly(poly_text, basis.n, basis.mode)
    except (ParseError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    r = normal_form(f, basis)
    _emit(format_poly(r, basis.order) + "\n", cfg.out)
    return EXIT_OK


def cmd_member(cfg: RunConfig, poly_text: str, basis_path: str,
               use_oracle: bool = False) -> int:
    try:
        basis = _load_basis_file(basis_path)
        f = parse_poly(poly_text, basis.n, basis.mode)
    except (ParseError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    member = normal_form(f, basis).is_zero
    line = f"member={'true' if member else 'false'}"
    if use_oracle:
        F = GeneratorSet(list(basis.elements), basis.order)
        try:
            by_eval = oracle.membership_by_evaluation(f, F, max_bits=cfg.caps.points)
        except oracle.FieldPolysMissingError as exc:
            line += " oracle=unavailable"
            sys.stderr.write(f"note: {exc}\n")
        else:
            line += f" oracle={'true' if by_eval else 'false'}"
            if by_eval != member:
                _emit(line + "\n", cfg.out)
                sys.stderr.write("error: oracle disagrees with normal form\n")
                return EXIT_VERIFY
    _emit(line + "\n", cfg.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolgb",
        description="Groebner bases over F2: the 4n+1 -> 6n+3^n blowup harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_n=False):
        if needs_n:
            p.add_argument("--n", type=int, required=True, help="block count n >= 1")
        p.add_argument("--order", choices=("deglex", "degrevlex"),
                       default="deglex", help="monomial order")
        p.add_argument("--engine", choices=("full", "boolean", "both"),
                       default="full", help="ring engine")
        p.add_argument("--max-pairs", type=_cap_flag, default=None)
        p.add_argument("--max-basis", type=_cap_flag, default=None)
        p.add_argument("--out", default=None, help="output path (atomic write)")
        p.add_argument("--format", dest="fmt", choices=("text", "json", "csv"),
                       default=None)
        p.add_argument("-v", "--verbose", action="count", default=0)

    p = sub.add_parser("gen", help="write a generator family file")
    p.add_argument("--family", choices=("H", "G", "S", "L", "T", "P"), required=True)
    p.add_argument("--mode", choices=(FULL, BOOLEAN), default=FULL)
    common(p, needs_n=True)

    p = sub.add_parser("gb", help="reduced Groebner basis of a generator file")
    p.add_argument("input", help="generator-set file")
    common(p)

    p = sub.add_parser("verify", help="check the construction identities at one n")
    common(p, needs_n=True)

    p = sub.add_parser("bench", help="growth table over an n range")
    p.add_argument("--n-max", type=int, default=None)
    common(p, needs_n=True)

    p = sub.add_parser("nf", help="normal form of a polynomial against a basis dump")
    p.add_argument("poly", help="polynomial text")
    p.add_argument("basis", help="basis dump file (JSON)")
    common(p)

    p = sub.add_parser("member", help="ideal membership against a basis dump")
    p.add_argument("poly", help="polynomial text")
    p.add_argument("basis", help="basis dump file (JSON)")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check by exhaustive evaluation")
    common(p)
    return parser


def _config_from_args(args) -> RunConfig:
    caps = Caps.from_env()
    if args.max_pairs is not None:
        caps.pairs = args.max_pairs
    if args.max_basis is not None:
        caps.basis = args.max_basis
    cfg = RunConfig(
        command=args.command,
        n=getattr(args, "n", 0) or 0,
        n_max=getattr(args, "n_max", 0) or 0,
        mode=getattr(args, "mode", FULL),
        order_scheme=args.order,
        engine=args.engine,
        caps=caps,
        out=args.out,
        fmt=args.fmt or "text",
        verbose=args.verbose,
    )
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    if cfg.command in ("gen", "verify", "bench") and cfg.n < 1:
        sys.stderr.write("error: --n must be >= 1\n")
        return EXIT_USAGE
    try:
        if cfg.command == "gen":
            return cmd_gen(cfg, args.family)
        if cfg.command == "gb":
            return cmd_gb(cfg, args.input)
        if cfg.command == "verify":
            return cmd_verify(cfg)
        if cfg.command == "bench":
            if not cfg.n_max:
                cfg.n_max = cfg.n
            return cmd_bench(cfg)
        if cfg.command == "nf":
            return cmd_nf(cfg, args.poly, args.basis)
        if cfg.command == "member":
            return cmd_member(cfg, args.poly, args.basis, use_oracle=args.oracle)
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return EXIT_RESOURCE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
