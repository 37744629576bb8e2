"""The benchmark's workloads, their set-up and their correctness gate.

Each workload is a closed loop: one client in one process runs a job,
checks its answer, and only then starts the next job.  Jobs reach the
library through module attributes (``groebner.buchberger``), never
through names bound at import time, so the traced run sees every call it
wraps.  Expected counts are computed here from the closed forms, not
taken from the library, so a library bug cannot move both sides.
"""

import os
import random
import time

from boolgb import cli, construction, groebner, oracle, polyring


class Outcome:
    """Checks attempted and failed, plus the timings of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.query_ms = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def error_rate(self):
        return len(self.failures) / max(self.attempted, 1)


class GbFullDeglex:
    """H(n) -> buchberger -> interreduce in the full ring under deglex."""

    name = "gb-full-deglex"

    def __init__(self, n, seed, workdir):
        self.n = n
        self.H = construction.make_H(n, polyring.FULL, polyring.DEGLEX)
        self.expected = frozenset(
            construction.make_G(n, polyring.FULL, polyring.DEGLEX).polynomials)

    def job(self, out):
        raw, _ = groebner.buchberger(self.H)
        basis = groebner.interreduce(raw)
        out.check(basis.as_set() == self.expected,
                  "reduced basis of H(n) differs from G(n)")
        out.check(len(basis) == 6 * self.n + 3 ** self.n,
                  f"|GB| = {len(basis)}, expected 6n+3^n")


class GbBooleanDegrevlex:
    """The same ideal through ``boolgb gb --engine boolean --order degrevlex``."""

    name = "gb-boolean-degrevlex"

    def __init__(self, n, seed, workdir):
        self.n = n
        self.h_path = os.path.join(workdir, f"h{n}.gens")
        self.out_path = os.path.join(workdir, f"h{n}.basis.json")
        construction.save_generators(
            construction.make_H(n, polyring.FULL, polyring.DEGLEX), self.h_path)
        self.expected = frozenset(construction.make_G(
            n, polyring.BOOLEAN, polyring.DEGREVLEX).polynomials)

    def job(self, out):
        if os.path.exists(self.out_path):
            os.remove(self.out_path)  # a stale dump must not pass the gate
        code = cli.main(["gb", self.h_path, "--engine", "boolean",
                         "--order", "degrevlex", "--out", self.out_path])
        if not out.check(code == 0, f"boolgb gb exited with {code}"):
            return
        with open(self.out_path) as fh:
            basis = groebner.load_basis(fh.read())
        out.check(basis.mode == polyring.BOOLEAN
                  and basis.order == polyring.DEGREVLEX
                  and basis.as_set() == self.expected,
                  "dumped basis differs from Boolean G(n) under degrevlex")
        out.check(len(basis) == 3 * self.n + 3 ** self.n,
                  f"|GB| = {len(basis)}, expected 3n+3^n")


class CertifyQuery:
    """Use a basis without building it: load, certify, count, and answer
    seeded membership queries, each checked against the oracle."""

    name = "certify-query"
    queries_per_job = 1000

    def __init__(self, n, seed, workdir):
        self.n = n
        self.H = construction.make_H(n, polyring.FULL, polyring.DEGLEX)
        G = construction.make_G(n, polyring.FULL, polyring.DEGLEX)
        self.G = G
        self.expected = frozenset(G.polynomials)
        self.dump = groebner.dump_basis(
            groebner.GroebnerBasis(G.polynomials, polyring.DEGLEX))
        self.queries = make_queries(G, seed, self.queries_per_job)

    def job(self, out):
        n = self.n
        basis = groebner.load_basis(self.dump)
        out.check(basis.as_set() == self.expected,
                  "loaded basis differs from G(n)")
        out.check(groebner.is_groebner_basis(basis.elements, basis.order),
                  "is_groebner_basis(G(n)) is false")
        out.check(groebner.is_reduced_basis(basis.elements, basis.order),
                  "is_reduced_basis(G(n)) is false")
        standard = construction.count_standard_monomials(basis)
        sol_h = oracle.enumerate_solutions(self.H)
        sol_g = oracle.enumerate_solutions(self.G)
        out.check(standard == len(sol_h) == 4 ** n - 3 ** n,
                  f"standard monomials {standard}, solutions {len(sol_h)}, "
                  f"expected 4^n-3^n")
        out.check(sol_h == sol_g, "Sol(H) != Sol(G)")

        answers = []
        for text, _ in self.queries:
            start = time.perf_counter()
            f = polyring.parse_poly(text, n, polyring.FULL)
            member = groebner.normal_form(f, basis).is_zero
            out.query_ms.append((time.perf_counter() - start) * 1000.0)
            answers.append((f, member))
        check_queries(out, self.queries, answers, sol_h)


def check_queries(out, queries, answers, solutions):
    """Compare each membership answer with evaluation on the oracle's points.

    The ideal of H(n) contains every field polynomial, so it is radical
    with all its zeros in F2^(3n): f is a member exactly when it vanishes
    on every enumerated solution.  Evaluation is bit-parallel over the
    solution list: a variable's column is an int with bit k set when the
    k-th solution sets that variable.
    """
    points = sorted(solutions.masks)
    nvars = 3 * solutions.n
    everything = (1 << len(points)) - 1
    columns = [sum(1 << k for k, p in enumerate(points) if p >> v & 1)
               for v in range(nvars)]
    for (text, built_member), (f, member) in zip(queries, answers):
        values = 0
        for m in f.terms:
            bits = everything
            for v, e in enumerate(m):
                if e:
                    bits &= columns[v]
            values ^= bits
        truth = values == 0
        out.check(member == truth and (truth or not built_member),
                  f"query {text!r}: normal form says member={member}, "
                  f"oracle says {truth}")


def make_queries(G, seed, count):
    """Seeded membership queries as (text, built as a member).

    Even-numbered queries are sums of monomial multiples of basis
    elements, so they are members; odd ones add a few random monomials,
    which makes them non-members almost always.  Only the oracle decides
    the expected answer.
    """
    rng = random.Random(seed)
    nvars = G.nvars
    zero = polyring.poly_zero(nvars)

    def monomials(k, max_degree):
        out = []
        for _ in range(k):
            m = [0] * nvars
            for _ in range(rng.randint(0, max_degree)):
                m[rng.randrange(nvars)] += 1
            out.append(tuple(m))
        return polyring.Polynomial(out, nvars)

    queries = []
    for i in range(count):
        f = zero
        for _ in range(rng.randint(1, 3)):
            f = f + monomials(1, 2) * rng.choice(G.polynomials)
        member = i % 2 == 0
        if not member:
            f = f + monomials(rng.randint(1, 3), 3)
        queries.append((polyring.format_poly(f), member))
    return queries


WORKLOADS = {w.name: w for w in (GbFullDeglex, GbBooleanDegrevlex, CertifyQuery)}
