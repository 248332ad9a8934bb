"""The input contract: malformed input is a ValueError that names the
argument, never a run under another value than the one given.

Each input fact has one rule: ``seeding.check_integer`` (and its seed case
``check_seed``) for integers, ``catalog._check_tol`` for tolerances,
``catalog.OPERAND_NAMES`` with its fallbacks for operand names,
``adjoint.require_adjoint`` for the A-adjoint, and ``catalog._Ctx.k`` for
the admission of each operand (shape, A-adjoint and A-seminorm bound), which
``run_check``, ``run_all`` and ``check_instance`` run on the whole instance
before any check (``catalog._Ctx.admit``), and ``gauges.GaugeSweep`` for the
matrix of every classical gauge. The property test below
draws values in and out of each integer argument's range and checks every
entry point that the integer rule guards.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anumrad import (
    FuzzConfig,
    GaugeSweep,
    crawford,
    crawford_C,
    fuzz,
    gen_compatible,
    gen_psd,
    instance_from_dict,
    instance_to_dict,
    make_instance,
    new_frame,
    numerical_radius,
    oracle_gauge,
    run_all,
    run_check,
    sweep_gauges,
)
from anumrad.errors import BadRank, DimensionMismatch, NoAdjoint
from anumrad.harness import Instance, check_instance

SEEDS = (0, 2**64)
F2 = new_frame(np.diag([1.0, 0.0]))
T2 = np.diag([2.0, 1j])
INSTANCE = instance_to_dict(make_instance(2, 2, 1))
ONE_CHECK = ["equiv_half_upper"]


def _fuzz(top=None, **fields):
    fields = {"trials": 1, "n_min": 1, "n_max": 2, "checks": ONE_CHECK, **fields}
    return fuzz(FuzzConfig(**fields), top=top)


# (argument name as the error names it, [low, high) of the rule, the call,
# the integers drawn): accepted draws stay small, so every call is cheap
ENTRIES = {
    "FuzzConfig.trials": ("trials", (0, None), lambda v: _fuzz(trials=v), (-2, 1)),
    "FuzzConfig.master_seed": ("master_seed", SEEDS, lambda v: _fuzz(master_seed=v), None),
    "FuzzConfig.n_min": ("n_min", (1, None), lambda v: _fuzz(n_min=v, n_max=4), (-1, 4)),
    "FuzzConfig.n_max": ("n_max", (2, None), lambda v: _fuzz(n_min=2, n_max=v), (-1, 4)),
    "fuzz.top": ("top", (0, None), lambda v: _fuzz(top=v), (-2, 3)),
    "instance_from_dict.dim": ("instance field 'dim'", (2, 3),
                               lambda v: instance_from_dict({**INSTANCE, "dim": v}), (-2, 4)),
    "instance_from_dict.seed": ("instance field 'seed'", SEEDS,
                                lambda v: instance_from_dict({**INSTANCE, "seed": v}), None),
    "make_instance.n": ("n", (1, None), lambda v: make_instance(v, 1, 1), (-2, 4)),
    "make_instance.rank": ("rank", (None, None), lambda v: make_instance(3, v, 1), (-2, 4)),
    "make_instance.seed": ("seed", SEEDS, lambda v: make_instance(2, 1, v), None),
    "gen_psd.n": ("n", (1, None), lambda v: gen_psd(v, 1, 1), (-2, 4)),
    "gen_psd.rank": ("rank", (None, None), lambda v: gen_psd(3, v, 1), (-2, 4)),
    "gen_psd.seed": ("seed", SEEDS, lambda v: gen_psd(2, 1, v), None),
    "gen_compatible.seed": ("seed", SEEDS, lambda v: gen_compatible(F2, v), None),
    "oracle_gauge.samples": ("samples", (1, None),
                             lambda v: oracle_gauge(F2, T2, "norm", v, 0), (-2, 3)),
    "oracle_gauge.seed": ("seed", SEEDS, lambda v: oracle_gauge(F2, T2, "norm", 1, v), None),
    "run_check.seed": ("seed", SEEDS,
                       lambda v: run_check("equiv_half_upper", F2, {"T": T2}, seed=v), None),
}


def _values(ints):
    """Integers (Python and numpy) from ``ints``, or around both ends of the
    seed range, plus floats, bools and strings."""
    lo, hi = ints if ints is not None else (-2, 3)
    whole = st.integers(lo, hi)
    if ints is None:
        whole = whole | st.integers(2**64 - 2, 2**64 + 1)
    numpy = whole.filter(lambda v: v < 2**63).map(np.int64) | whole.filter(
        lambda v: 0 <= v < 2**64).map(np.uint64)
    return whole | numpy | st.floats() | st.booleans() | st.text(max_size=3)


def _rule_accepts(value, low, high) -> bool:
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        return False
    value = int(value)
    return (low is None or value >= low) and (high is None or value < high)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(data=st.data())
def test_integer_arguments_follow_the_one_rule(entry, data):
    name, (low, high), call, ints = ENTRIES[entry]
    value = data.draw(_values(ints), label=name)
    if _rule_accepts(value, low, high):
        try:
            call(value)
        except BadRank:  # a rank outside [0, n] is a BadRank, not a ValueError
            assert name == "rank" and not 0 <= value <= 3
    else:
        with pytest.raises(ValueError, match="^" + re.escape(name) + " must"):
            call(value)


@pytest.mark.parametrize("seed", [-1, 1.0, True, 2**64])
def test_make_instance_rejects_a_seed_it_would_record_as_another(seed):
    # splitmix64 would build the instance of seed -1 mod 2**64, and the
    # instance would record -1, 1.0 or True as its seed
    with pytest.raises(ValueError, match="^seed must"):
        make_instance(3, 2, seed)


@pytest.mark.parametrize("n,rank,name", [(3.0, 2, "n"), (3, 2.0, "rank")])
def test_make_instance_rejects_float_sizes(n, rank, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        make_instance(n, rank, 1)


@pytest.mark.parametrize("seed", [True, 1.5, "7", -1, 2**64])
def test_oracle_rejects_a_seed_it_would_run_as_another(seed):
    # True would run the seed-1 estimate; -1 failed inside numpy without
    # naming the argument
    with pytest.raises(ValueError, match="^seed must"):
        oracle_gauge(F2, T2, "w", 3, seed)


@pytest.mark.parametrize("tol", [True, False, "1e-8", None, [1e-8]])
def test_tolerance_must_be_a_real_number(tol):
    # a bool ran as tolerance 1.0 or 0.0; a string failed with a TypeError
    for call in (lambda: run_check("equiv_half_upper", F2, {"T": T2}, tol=tol),
                 lambda: run_all(F2, {"T": T2}, tol=tol),
                 lambda: FuzzConfig(trials=1, tol=tol)):
        with pytest.raises(ValueError, match="^tolerance must"):
            call()
    assert FuzzConfig(trials=1, tol=np.float32(1e-6)).tol == np.float32(1e-6)


def _raises_at_every_entry(exc, message, a, operands, check="equiv_half_upper"):
    """run_check, run_all and check_instance each raise ``exc`` with exactly
    ``message`` for the same input fault, before any check runs."""
    f = new_frame(a)
    inst = Instance(dim=f.dim, a=a, operators=operands, seed=0)
    for call in (lambda: run_check(check, f, operands),
                 lambda: run_all(f, operands, checks=[check]),
                 lambda: check_instance(inst, [check])):
        with pytest.raises(exc, match="^" + re.escape(message) + "$"):
            call()


def test_a_missing_operand_is_a_value_error_that_names_it():
    # X falls back to T, but T has no fallback; run_all folded the error
    # into the row of every check that read T
    _raises_at_every_entry(ValueError, "operand 'T' not supplied", F2.a, {"X": T2})


def test_a_misspelled_operand_is_rejected_not_replaced_by_its_fallback():
    # {"T": t, "x": s} would run the X checks on X = T
    with pytest.raises(ValueError, match=r"unknown operand\(s\) \['x'\]"):
        run_check("thm_prod_particular_plus", F2, {"T": T2, "x": 2 * T2})
    with pytest.raises(ValueError, match="unknown operand"):
        run_all(F2, {"T": T2, "x": 2 * T2})


@pytest.mark.parametrize("a,t", [
    # ||T||_A = 1e52: run_check raised numpy's LinAlgError (SVD did not
    # converge) from thm_power_r_3, and only check_instance named T
    (np.eye(2), 1e52 * np.array([[1.0, 1.0], [0.0, 1.0]])),
    # K(T) overflows to inf and nan: nan > 1e36 is false, so T was admitted
    # and check_instance reported 35 violations
    (np.diag([1e3, 1e-3]), 1e307 * np.array([[1.0, 1.0], [0.0, 1.0]])),
], ids=["large", "overflowed"])
def test_an_operand_past_the_seminorm_bound_is_a_value_error_that_names_it(a, t):
    # the overflowed compression warned (RuntimeWarning: overflow encountered
    # in multiply) before the bound could name T, and run_all folded the
    # error into a row
    _raises_at_every_entry(ValueError, "operator 'T' has A-seminorm above 1e+36; larger "
                           "operands overflow the checks", a, {"T": t}, "thm_power_r_3")


def test_an_operand_of_the_wrong_shape_is_a_dimension_mismatch_that_names_it():
    # run_check raised DimensionMismatch without the operand's name, and
    # check_instance a ValueError with it, for the same fact
    _raises_at_every_entry(DimensionMismatch, "operator 'T' has shape (3, 3), expected (2, 2)",
                           F2.a, {"T": np.eye(3)})


def test_an_operand_without_adjoint_is_named():
    # the error read "operator does not satisfy the Douglas range condition"
    # without saying that X failed
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    operands = {"T": np.diag([2.0, 1.0]), "X": swap}
    message = "operator 'X' does not admit an A-adjoint"
    _raises_at_every_entry(NoAdjoint, message, F2.a, operands, "thm_prod_pm_plus")
    # a bad operand is rejected even where the selected check does not read it
    _raises_at_every_entry(NoAdjoint, message, F2.a, operands, "equiv_half_upper")


@pytest.mark.parametrize("m,message", [
    (np.ones((2, 3)), "gauge requires a square matrix, got (2, 3)"),
    (np.diag([1.0, np.nan]), "matrix entries must be finite (no NaN/Inf)"),
    (np.diag([1.0, np.inf]), "matrix entries must be finite (no NaN/Inf)"),
], ids=["2x3", "nan", "inf"])
def test_a_gauge_sweep_admits_its_matrix(m, message):
    # GaugeSweep admitted nothing: a 2x3 matrix failed with a numpy broadcast
    # error, and diag(1, inf) read w = 0.0 with two RuntimeWarnings
    for call in (GaugeSweep, sweep_gauges, numerical_radius, crawford, crawford_C):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            call(m)


def test_a_gauge_sweep_takes_a_list_of_lists():
    # a square list of lists failed with AttributeError in GaugeSweep
    rows = [[1.0, 2.0j], [0.5, -1.0]]
    assert GaugeSweep(rows).w == numerical_radius(np.array(rows))
