import time

import pytest

from boolgb import buchberger, get_order, interreduce, make_H
from boolgb.cli import _boolean_as_full


@pytest.fixture(scope="session")
def reduced_h():
    """Memoized reduced deglex/degrevlex bases of H(n), with build times.

    Returns a callable get(n, scheme="deglex") -> (GroebnerBasis, seconds).
    """
    cache = {}

    def get(n, scheme="deglex"):
        key = (n, scheme)
        if key not in cache:
            order = get_order(scheme)
            start = time.perf_counter()
            raw, _ = buchberger(make_H(n, order=order))
            basis = interreduce(raw)
            cache[key] = (basis, time.perf_counter() - start)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def boolean_lifted_basis():
    """The Boolean engine's reduced basis, lifted as `--engine both` lifts it.

    Returns a callable get(n, F_bool) -> GroebnerBasis.
    """
    def get(n, F_bool):
        raw, _ = buchberger(F_bool)
        return _boolean_as_full(interreduce(raw), n, F_bool.order)

    return get
