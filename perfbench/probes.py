"""``timeit`` medians of the polyring kernels.

Operands are sampled from the terms and elements of G(n) with a fixed
stride, so every run and every seed times the same inputs.
"""

import statistics
import timeit

from boolgb import construction, polyring

SAMPLE = 200
REPEAT = 7


def _per_call(fn, calls, number):
    times = timeit.repeat(fn, number=number, repeat=REPEAT)
    return statistics.median(times) / (number * calls)


def polyring_probes(n):
    """{metric name: median time per call}, in the metric's unit."""
    G = construction.make_G(n, polyring.FULL, polyring.DEGLEX)
    terms = sorted({m for f in G.polynomials for m in f.terms})
    monos = terms[::max(1, len(terms) // SAMPLE)][:SAMPLE]
    pairs = list(zip(monos, monos[1:] + monos[:1]))
    squarefree = [tuple(min(e, 1) for e in m) for m in monos]
    bool_pairs = list(zip(squarefree, squarefree[1:] + squarefree[:1]))
    polys = list(G.polynomials)
    polys = polys[::max(1, len(polys) // SAMPLE)][:SAMPLE]
    texts = [polyring.format_poly(f) for f in polys]

    divides, lcm, mul = polyring.mono_divides, polyring.mono_lcm, polyring.mono_mul
    full, boolean = polyring.FULL, polyring.BOOLEAN
    deglex, degrevlex = polyring.DEGLEX.key, polyring.DEGREVLEX.key
    parse, fmt = polyring.parse_poly, polyring.format_poly
    ns, us = 1e9, 1e6
    return {
        "polyring.mono_divides_ns": ns * _per_call(
            lambda: [divides(a, b) for a, b in pairs], len(pairs), 50),
        "polyring.mono_lcm_ns": ns * _per_call(
            lambda: [lcm(a, b) for a, b in pairs], len(pairs), 50),
        "polyring.mono_mul_full_ns": ns * _per_call(
            lambda: [mul(a, b, full) for a, b in pairs], len(pairs), 50),
        "polyring.mono_mul_boolean_ns": ns * _per_call(
            lambda: [mul(a, b, boolean) for a, b in bool_pairs], len(bool_pairs), 50),
        "polyring.key_deglex_ns": ns * _per_call(
            lambda: [deglex(m) for m in monos], len(monos), 50),
        "polyring.key_degrevlex_ns": ns * _per_call(
            lambda: [degrevlex(m) for m in monos], len(monos), 50),
        "polyring.parse_poly_us": us * _per_call(
            lambda: [parse(t, n) for t in texts], len(texts), 5),
        "polyring.format_poly_us": us * _per_call(
            lambda: [fmt(f) for f in polys], len(polys), 5),
    }
