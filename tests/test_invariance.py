"""Invariances that the definitions of the A-gauges guarantee.

Every A-gauge is unchanged by a unitary congruence of the whole pair
(A -> V A V*, T -> V T V*) and by a positive scaling of the metric
(A -> alpha A), and each is homogeneous of degree one in the operator:
T -> c T multiplies it by |c|. Metrics are drawn at every rank of
dimensions 1 to 4, and operators that admit an A-adjoint.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from anumrad import (
    a_crawford,
    a_crawford_C,
    a_min_modulus,
    a_numerical_radius,
    a_seminorm,
    gen_compatible,
    gen_psd,
    new_frame,
)

GAUGES = (a_numerical_radius, a_seminorm, a_crawford, a_crawford_C, a_min_modulus)
TOL = 1e-10

seeds = st.integers(0, 2**64 - 1)


@st.composite
def pairs(draw):
    """(A, T): a metric of dimension 1..4 at any nonzero rank, and an
    operator with an A-adjoint."""
    n = draw(st.integers(1, 4))
    a = gen_psd(n, draw(st.integers(1, n)), draw(seeds))
    return a, gen_compatible(new_frame(a), draw(seeds))


def _gauges(a, t):
    f = new_frame(a)
    return [g(f, t) for g in GAUGES]


def _assert_close(got, want):
    for g, x, v in zip(GAUGES, got, want):
        assert abs(x - v) <= TOL * (1.0 + abs(v)), (g.__name__, x, v)


@settings(derandomize=True, deadline=None)
@given(pair=pairs(), seed=seeds)
def test_gauges_are_invariant_under_unitary_congruence(pair, seed):
    a, t = pair
    rng = np.random.default_rng(seed)
    n = a.shape[0]
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v, _ = np.linalg.qr(g)
    vh = v.conj().T
    _assert_close(_gauges(v @ a @ vh, v @ t @ vh), _gauges(a, t))


@settings(derandomize=True, deadline=None)
@given(pair=pairs(), alpha=st.floats(1e-3, 1e3))
def test_gauges_are_invariant_under_metric_scaling(pair, alpha):
    a, t = pair
    _assert_close(_gauges(alpha * a, t), _gauges(a, t))


@settings(derandomize=True, deadline=None)
@given(pair=pairs(), modulus=st.floats(1e-3, 1e3), phase=st.floats(0.0, 2.0 * np.pi))
def test_gauges_scale_with_the_modulus_of_an_operator_factor(pair, modulus, phase):
    a, t = pair
    c = modulus * np.exp(1j * phase)
    _assert_close(_gauges(a, c * t), [modulus * v for v in _gauges(a, t)])
