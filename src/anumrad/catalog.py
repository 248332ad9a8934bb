# src/anumrad/catalog.py

"""Registry of executable inequality checks on A-weighted gauges.

Every check compares a left-hand side against a right-hand side at a
relative tolerance and reports a structured CheckResult. Multi-part
statements are registered as atomic sub-checks (``_lower``/``_upper``,
``_plus``/``_minus``, roman numerals); the family name is a common prefix, so
id filters accept either the exact id or a family prefix that ends where an
``_``-separated word of the id ends (``thm_block_lower_i`` is one id, not the
four ``thm_block_lower_*``). Each paper statement has one evaluator, and a
family of variants registers from one ``_register_family`` loop whose rows
bind the variant fields (a ``sign``, ``c_first``, ``use_x``/``use_minmod``,
the exponent ``r``) to it as keywords. The two sides of a two-sided bound
(``upper``) and the two operand orders of one bound (``w_of_x``) are rows too.

Hypothesis gating: checks whose statement assumes a strictly positive metric
are *skipped* (never failed) on degenerate frames; the same applies to the
nilpotency-conditional equality checks and to the lower bounds that divide by
the operator seminorm. Hypotheses are tested on K(T) as well, so the
nilpotency hypothesis reads K(T)^k = K(T^k) = 0, that is A T^k = 0: every
term of the equalities it gates is a gauge of K(T).

Operands a check names but the caller omits fall back to X = Y = T and
P = Q = I (``OPERAND_NAMES`` and ``_FALLBACK`` state both once).

Checks work in compressed coordinates only (see ``_Ctx``): each operand is
compressed to the range of A once, and admitted there (``_Ctx.k``: shape,
A-adjoint and A-seminorm bound), and every derived operator (T^2,
T#T + TT#, PXQ# +- QYP#, the antidiagonal block under diag(A, A)) is built
from those r x r matrices, and the power term ||(T#T)^r + (TT#)^r||_A is
read from one SVD of K(T). Nothing here reads an operand on H.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .adjoint import reduced
from .errors import DimensionMismatch, NoAdjoint, UnknownCheckId
from .frame import AFrame, require_range
from .gauges import sweep_gauges
from .matrixcore import (as_cmatrix, frob, herm_part, pow2_unit, singular_values, spec_norm,
                         tile)
from .seeding import check_seed, label_seed

DEFAULT_TOL = 1e-8

_POINTWISE_SAMPLES = 50

# Relative size below which K(T)^k counts as vanishing
# (``nilpotent2``/``nilpotent3``).
_HYPOTHESIS_TOL = 1e-12

# Largest operand A-seminorm that ``_Ctx.k`` admits, at every entry point
# (``run_check``, ``run_all`` and the harness that calls them). Past it a
# check's arithmetic leaves the double range and an overflowed inf or nan
# would read as a theorem violation. Measured on random instances (n 2..6,
# full and half rank) with every operand scaled to A-seminorm 10^e: on the
# full-rank ones the sweep's curvature, which squares the entries of the
# degree-4 matrix T^2 P + P T^2 (P = T#T + TT#, thm_refined_fourth), first
# overflowed at e = 39 or 40 while every row still passed, and on all of
# them the first failed row came at e = 52, where thm_power_r_3's SVD does
# not converge. 1e36 stays three orders below the first overflow.
_MAX_SEMINORM = 1e36

@dataclass(frozen=True)
class CheckResult:
    """One inequality evaluation: lhs vs rhs with slack = rhs - lhs.

    ``metadata`` holds only the named terms a caller reads
    (``comparison_rhs``, ``plain_rhs``, ``nrm_T``, ``power_term``,
    ``nilpotency_defect``, ...) or an errored row's ``error`` text; a skipped
    row's reason is ``REGISTRY[check_id].hypothesis``."""

    check_id: str
    lhs: float
    rhs: float
    passed: bool
    hypothesis_met: bool
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def skipped(self) -> bool:
        return not self.hypothesis_met


@dataclass(frozen=True)
class CheckDef:
    """Registry row: id, comparison mode, hypothesis and evaluator."""

    check_id: str
    mode: str  # 'le' (lhs <= rhs) or 'eq' (lhs == rhs)
    # 'always' | 'strict' | 'strict_nonzero_t' | 'nilpotent2' | 'nilpotent3'
    hypothesis: str
    roles: Tuple[str, ...]
    evaluate: Callable[["_Ctx"], Tuple[float, float, Dict[str, object]]]
    description: str = ""


# The operand vocabulary of ``CheckDef.roles``, in the order that fixes each
# operand's random stream (``harness.make_instance``), and the fallback of an
# operand the caller omits: X = Y = T and P = Q = I. T has none.
OPERAND_NAMES = ("T", "X", "Y", "P", "Q")
_FALLBACK = {"X": "T", "Y": "T", "P": "I", "Q": "I"}

REGISTRY: "Dict[str, CheckDef]" = {}


def registry_ids() -> list[str]:
    return sorted(REGISTRY)


def resolve_ids(checks: Optional[Sequence[str]]) -> list[str]:
    """Expand exact ids and family prefixes into sorted registry ids; a
    prefix matches whole ``_``-separated words only. This is the one place a
    check filter becomes ids. A bare string raises ValueError: it iterates as
    its characters, so "equiv_half" would read as the ids 'e', 'q', ...; a
    filter of one id is a one-element list."""
    if isinstance(checks, str):
        raise ValueError(f"checks must be a list, such as [{checks!r}], not a bare string")
    if not checks:
        return registry_ids()
    out = set()
    for pat in checks:
        prefix = pat + "_"
        hits = [cid for cid in REGISTRY if cid == pat or cid.startswith(prefix)]
        if not hits:
            raise UnknownCheckId(pat)
        out.update(hits)
    return sorted(out)


def operands_needed(ids: Sequence[str]) -> frozenset:
    """The operands the resolved checks ``ids`` read: the union of their
    ``CheckDef.roles``."""
    return frozenset(role for cid in ids for role in REGISTRY[cid].roles)


def check_operand_names(names) -> None:
    """Raise ValueError for any name outside ``OPERAND_NAMES``."""
    unknown = sorted(set(names) - set(OPERAND_NAMES))
    if unknown:
        raise ValueError(f"unknown operand(s) {unknown}; expected names from {OPERAND_NAMES}")


def missing_operands(operands, checks: Optional[Sequence[str]] = None) -> list[str]:
    """Operands the selected checks need (``operands_needed``) that neither
    ``operands`` nor their fallbacks (``_FALLBACK``) supply."""
    have = set(operands or {}) | {"I"}
    return sorted(name for name in operands_needed(resolve_ids(checks))
                  if name not in have and _FALLBACK.get(name) not in have)


class _Ctx:
    """Per-instance evaluation context: frame, operands and one gauge memo.

    Every A-gauge of an operator with an A-adjoint is the classical gauge of
    its range compression K(T) = U* A^{1/2} T (A^{1/2})^dagger U
    (``adjoint.reduced``), and on those operators K is a *-homomorphism:
    K(ST) = K(S) K(T), K(S + T) = K(S) + K(T) and K(T#) = K(T)*. Under
    diag(A, A) the antidiagonal block [[0, X], [Y, 0]] compresses to
    [[0, K(X)], [K(Y), 0]]. So each operand is compressed once (``k``), and
    hypotheses and check bodies read only those r x r matrices, with # as
    the conjugate transpose and Re_A as the Hermitian part.

    Sweeps, singular values and SVDs share one memo keyed by (function,
    matrix shape, matrix bytes) (``_memo``), so that checks sharing a derived
    matrix (the same K(T)^2, the same antidiagonal, ...) pay for each once
    per instance. A metric of rank zero has no compressions, so it raises
    EmptyRange here.
    """

    def __init__(self, f: AFrame, operands, seed: int):
        self.f = require_range(f)
        self.seed = check_seed(seed)
        self._ops = {k: as_cmatrix(v) for k, v in dict(operands or {}).items()}
        check_operand_names(self._ops)  # a misspelled X must not read as X = T
        self._k: dict = {}
        self._memos: dict = {}
        self._antidiag = None

    @staticmethod
    def _key(m: np.ndarray):
        return (m.shape, m.tobytes())

    def k(self, name: str) -> np.ndarray:
        """Range compression of operand ``name`` or of its fallback
        (``_FALLBACK``), computed once per instance. This is the one
        admission of an operand, and each error names it: a missing operand
        with no fallback or an A-seminorm above ``_MAX_SEMINORM`` raises
        ValueError, a wrong shape DimensionMismatch, and an operand without
        an A-adjoint NoAdjoint."""
        if name not in self._k:
            if name in self._ops:
                op = self._ops[name]
                try:
                    k = reduced(self.f, op)
                except DimensionMismatch:
                    raise DimensionMismatch(f"operator {name!r} has shape {op.shape}, expected "
                                            f"({self.f.dim}, {self.f.dim})") from None
                except NoAdjoint:
                    raise NoAdjoint(f"operator {name!r} does not admit an A-adjoint") from None
                # ``not <=`` also rejects the NaN an overflowed compression leaves
                if not self.nrm(k) <= _MAX_SEMINORM:
                    raise ValueError(f"operator {name!r} has A-seminorm above "
                                     f"{_MAX_SEMINORM:g}; larger operands overflow the checks")
                self._k[name] = k
            elif name not in _FALLBACK:
                raise ValueError(f"operand {name!r} not supplied")
            elif _FALLBACK[name] == "I":
                self._k[name] = np.eye(self.f.rank, dtype=np.complex128)
            else:
                self._k[name] = self.k(_FALLBACK[name])
        return self._k[name]

    def _memo(self, fn, m: np.ndarray):
        """fn(m), computed once per instance for each function and matrix ``m``."""
        k = (fn,) + self._key(m)
        if k not in self._memos:
            self._memos[k] = fn(m)
        return self._memos[k]

    def _gauges(self, m: np.ndarray):
        return self._memo(sweep_gauges, m)

    def w(self, m) -> float:
        return self._gauges(m).w

    def c(self, m) -> float:
        return self._gauges(m).crawford

    def cc(self, m) -> float:
        return self._gauges(m).crawford_c

    def nrm(self, m) -> float:
        return float(self._memo(singular_values, m)[0])

    def mm(self, m) -> float:
        return float(self._memo(singular_values, m)[-1])

    def antidiag(self) -> np.ndarray:
        """Compression [[0, K(X)], [K(Y), 0]] of the antidiagonal block
        operator under diag(A, A), tiled once per instance."""
        if self._antidiag is None:
            kx, ky = self.k("X"), self.k("Y")
            zero = np.zeros_like(kx)
            self._antidiag = tile(zero, kx, ky, zero)
        return self._antidiag

    wb = w  # w of a block operator under diag(A, A), read from its compression

    @staticmethod
    def pm(k: np.ndarray) -> np.ndarray:
        """K*K + KK*, the compression of T#T + TT#."""
        kh = k.conj().T
        return kh @ k + k @ kh

    def power_norm(self, k: np.ndarray, r: float) -> float:
        """||(K*K)^r + (KK*)^r|| for K = K(T), which is ||(T#T)^r + (TT#)^r||_A.
        With K = W diag(s) V*, (K*K)^r = V diag(s^2r) V* and
        (KK*)^r = W diag(s^2r) W*, so one SVD of K per instance serves both
        factors and every exponent."""
        w, s, vh = self._memo(np.linalg.svd, k)
        p = s ** (2.0 * r)
        return spec_norm((vh.conj().T * p) @ vh + (w * p) @ w.conj().T)


def _nilpotency_defect(k: np.ndarray, order: int) -> float:
    """||K^order||_F / ||K||_F^order for K = K(T), taken on K / ||K||_F after K
    is brought to unit peak by an exact power of two (``pow2_unit``), so that
    no norm or power under- or overflows at any scale; it vanishes when
    A T^order = 0 (K = 0 reads 0)."""
    k = pow2_unit(k)
    nk = frob(k)
    return frob(np.linalg.matrix_power(k / nk, order)) if nk != 0.0 else 0.0


def _hypothesis_state(cd: CheckDef, ctx: _Ctx) -> bool:
    """Whether the check's hypothesis holds on this instance."""
    if cd.hypothesis == "always":
        return True
    if cd.hypothesis == "strict":
        return ctx.f.strictly_positive
    t = ctx.k("T")
    if cd.hypothesis == "strict_nonzero_t":
        return ctx.f.strictly_positive and ctx.nrm(t) > 0.0
    if cd.hypothesis == "nilpotent2":
        return _nilpotency_defect(t, 2) <= _HYPOTHESIS_TOL
    if cd.hypothesis == "nilpotent3":
        return _nilpotency_defect(t, 3) <= _HYPOTHESIS_TOL
    raise AssertionError(f"unknown hypothesis kind {cd.hypothesis!r}")


def _check_tol(tol: float) -> None:
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not (
            math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance must be a finite nonnegative number, got {tol!r}")


def _verdict(lhs: float, rhs: float, mode: str, tol: float) -> bool:
    """The one verdict rule of every row, at the gap tol * (1 + |rhs|)."""
    gap = tol * (1.0 + abs(rhs))
    slack = rhs - lhs
    if mode == "eq":
        return abs(slack) <= gap
    return slack >= -gap


def _register(check_id, *, mode="le", hypothesis="always", roles=("T",), description=""):
    def deco(fn):
        if check_id in REGISTRY:
            raise AssertionError(f"duplicate check id {check_id}")
        REGISTRY[check_id] = CheckDef(
            check_id=check_id,
            mode=mode,
            hypothesis=hypothesis,
            roles=tuple(roles),
            evaluate=fn,
            description=description,
        )
        return fn

    return deco


def _register_family(family, evaluate, roles, rows):
    """Register one check ``family_suffix`` per row (suffix, variant fields,
    hypothesis, description): the statement's one evaluator with the row's
    variant fields bound as keywords."""
    for suffix, fields, hypothesis, description in rows:
        _register(f"{family}_{suffix}", hypothesis=hypothesis, roles=roles,
                  description=description)(partial(evaluate, **fields))


# --------------------------------------------------------------------------
# Seminorm / numerical radius equivalence and the basic lemmas
# --------------------------------------------------------------------------

def _equiv_half(ctx, upper: bool):
    t = ctx.k("T")
    w, n = ctx.w(t), ctx.nrm(t)
    return (w, n, {}) if upper else (0.5 * n, w, {})


_register_family("equiv_half", _equiv_half, ("T",), [
    ("lower", {"upper": False}, "always", "||T||_A / 2 <= w_A(T)"),
    ("upper", {"upper": True}, "always", "w_A(T) <= ||T||_A"),
])


@_register("lem_selfadj_eq", mode="eq",
            description="w_A(S) = ||S||_A for the A-selfadjoint S = Re_A(T)")
def _lem_selfadj_eq(ctx):
    s = herm_part(ctx.k("T"))
    return ctx.w(s), ctx.nrm(s), {}


@_register("lem_sup_theta",
            description="sampled sup over theta of ||Re_A(e^{i theta} T)||_A "
                        "stays below w_A(T)")
def _lem_sup_theta(ctx):
    t = ctx.k("T")
    thetas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    ph = np.exp(1j * thetas)[:, None, None]
    stack = 0.5 * (ph * t + ph.conj() * t.conj().T)
    sv = np.linalg.svd(stack, compute_uv=False)
    return float(sv[:, 0].max()), ctx.w(t), {}


@_register("lem_positivity_mono", roles=("X", "Y"),
            description="A-positive dominance X' >= Y' implies ||X'||_A >= ||Y'||_A "
                        "with X' = X#X + Y#Y, Y' = X#X")
def _lem_positivity_mono(ctx):
    x, y = ctx.k("X"), ctx.k("Y")
    s1 = x.conj().T @ x
    s2 = y.conj().T @ y
    return ctx.nrm(s1), ctx.nrm(s1 + s2), {}


# --------------------------------------------------------------------------
# Antidiagonal block bounds and their corollaries
# --------------------------------------------------------------------------

def _antidiag_ms(ctx):
    x, y = ctx.k("X"), ctx.k("Y")
    sx, sy = x.conj().T, y.conj().T
    m1 = x @ sx + sy @ y
    m2 = sx @ x + y @ sy
    return x, y, m1, m2


def _thm_antidiag(ctx, upper: bool):
    _, _, m1, m2 = _antidiag_ms(ctx)
    wb2 = ctx.wb(ctx.antidiag()) ** 2
    top = max(ctx.nrm(m1), ctx.nrm(m2))
    return (wb2, 0.5 * top, {}) if upper else (0.25 * top, wb2, {})


_register_family("thm_antidiag", _thm_antidiag, ("X", "Y"), [
    ("lower", {"upper": False}, "always",
     "max(||XX#+Y#Y||_A, ||X#X+YY#||_A)/4 <= wB(antidiag)^2"),
    ("upper", {"upper": True}, "always",
     "wB(antidiag)^2 <= max(||XX#+Y#Y||_A, ||X#X+YY#||_A)/2"),
])


def _cor_kittaneh_A(ctx, upper: bool):
    t = ctx.k("T")
    nrm_p = ctx.nrm(ctx.pm(t))
    w2 = ctx.w(t) ** 2
    return (w2, 0.5 * nrm_p, {}) if upper else (0.25 * nrm_p, w2, {})


_register_family("cor_kittaneh_A", _cor_kittaneh_A, ("T",), [
    ("lower", {"upper": False}, "strict", "||TT#+T#T||_A / 4 <= w_A(T)^2"),
    ("upper", {"upper": True}, "strict", "w_A(T)^2 <= ||TT#+T#T||_A / 2"),
])


@_register("thm_fourth_antidiag_lower", roles=("X", "Y"),
            description="max(||P||_A, ||Q||_A)/16 <= wB(antidiag)^4 with "
                        "P=(XX#+Y#Y)^2+4 Re_A(XY)^2, Q=(X#X+YY#)^2+4 Re_A(YX)^2")
def _thm_fourth_antidiag_lower(ctx):
    x, y, m1, m2 = _antidiag_ms(ctx)
    rexy = herm_part(x @ y)
    reyx = herm_part(y @ x)
    p = m1 @ m1 + 4.0 * rexy @ rexy
    q = m2 @ m2 + 4.0 * reyx @ reyx
    lhs = max(ctx.nrm(p), ctx.nrm(q)) / 16.0
    return lhs, ctx.wb(ctx.antidiag()) ** 4, {}


@_register("thm_fourth_antidiag_upper", roles=("X", "Y"),
            description="wB(antidiag)^4 <= max(||XX#+Y#Y||_A^2+4 w_A(XY)^2, "
                        "||X#X+YY#||_A^2+4 w_A(YX)^2)/8")
def _thm_fourth_antidiag_upper(ctx):
    x, y, m1, m2 = _antidiag_ms(ctx)
    rhs = 0.125 * max(
        ctx.nrm(m1) ** 2 + 4.0 * ctx.w(x @ y) ** 2,
        ctx.nrm(m2) ** 2 + 4.0 * ctx.w(y @ x) ** 2,
    )
    return ctx.wb(ctx.antidiag()) ** 4, rhs, {}


@_register("cor_fourth_lower", hypothesis="strict",
            description="||(TT#+T#T)^2 + 4 Re_A(T^2)^2||_A / 16 <= w_A(T)^4")
def _cor_fourth_lower(ctx):
    t = ctx.k("T")
    pm = ctx.pm(t)
    ret2 = herm_part(t @ t)
    inner = pm @ pm + 4.0 * ret2 @ ret2
    return ctx.nrm(inner) / 16.0, ctx.w(t) ** 4, {}


@_register("cor_fourth_upper", hypothesis="strict",
            description="w_A(T)^4 <= ||TT#+T#T||_A^2 / 8 + w_A(T^2)^2 / 2")
def _cor_fourth_upper(ctx):
    t = ctx.k("T")
    pm = ctx.pm(t)
    t2 = t @ t
    rhs = 0.125 * ctx.nrm(pm) ** 2 + 0.5 * ctx.w(t2) ** 2
    return ctx.w(t) ** 4, rhs, {}


# --------------------------------------------------------------------------
# Refined fourth-power, cubic and power bounds
# --------------------------------------------------------------------------

@_register("thm_refined_fourth", hypothesis="strict",
            description="w_A(T)^4 <= w_A(T^2)^2/4 + w_A(T^2 P + P T^2)/8 + "
                        "||P||_A^2/16 with P = T#T + TT#")
def _thm_refined_fourth(ctx):
    t = ctx.k("T")
    pm = ctx.pm(t)
    t2 = t @ t
    g = t2 @ pm + pm @ t2
    w_t2 = ctx.w(t2)
    w_g = ctx.w(g)
    nrm_p = ctx.nrm(pm)
    rhs = 0.25 * w_t2 ** 2 + 0.125 * w_g + nrm_p ** 2 / 16.0
    meta = {
        "w_T2": w_t2,
        "w_T2P_PT2": w_g,
        "nrm_P": nrm_p,
        "comparison_rhs": (nrm_p + 2.0 * w_t2) ** 2 / 16.0,
    }
    return ctx.w(t) ** 4, rhs, meta


def _cubic_mixed(t):
    s = t.conj().T
    t2 = t @ t
    return t2 @ s + s @ t2 + t @ s @ t


@_register("thm_cubic", hypothesis="strict",
            description="w_A(T)^3 <= w_A(T^3)/4 + w_A(T^2 T# + T# T^2 + T T# T)/4")
def _thm_cubic(ctx):
    t = ctx.k("T")
    rhs = 0.25 * ctx.w(t @ t @ t) + 0.25 * ctx.w(_cubic_mixed(t))
    return ctx.w(t) ** 3, rhs, {}


@_register("thm_cubic_sq_zero", mode="eq", hypothesis="nilpotent2",
            description="A T^2 = 0 forces w_A(T) = sqrt(||TT#+T#T||_A)/2")
def _thm_cubic_sq_zero(ctx):
    t = ctx.k("T")
    rhs = 0.5 * math.sqrt(ctx.nrm(ctx.pm(t)))
    return ctx.w(t), rhs, {"nilpotency_defect": _nilpotency_defect(t, 2)}


@_register("thm_cubic_cube_zero", mode="eq", hypothesis="nilpotent3",
            description="A T^3 = 0 forces w_A(T)^3 = w_A(T^2 T# + T# T^2 + T T# T)/4")
def _thm_cubic_cube_zero(ctx):
    t = ctx.k("T")
    rhs = 0.25 * ctx.w(_cubic_mixed(t))
    return ctx.w(t) ** 3, rhs, {"nilpotency_defect": _nilpotency_defect(t, 3)}


def _thm_power_r(ctx, r: float):
    t = ctx.k("T")
    term = ctx.power_norm(t, r)
    rhs = 0.5 * ctx.w(t @ t) ** r + 0.25 * term
    return ctx.w(t) ** (2.0 * r), rhs, {"r": r, "power_term": term}


_register_family("thm_power_r", _thm_power_r, ("T",), [
    (suffix, {"r": r}, "always",
     f"w_A(T)^(2r) <= w_A(T^2)^r/2 + ||(T#T)^r+(TT#)^r||_A/4 at r={r}")
    for suffix, r in (("1", 1.0), ("1p5", 1.5), ("2", 2.0), ("3", 3.0))
])


@_register("thm_lower_fourth", hypothesis="strict",
            description="C_A(T^2)^2/4 + c_A(T^2 P + P T^2)/8 + ||P||_A^2/16 "
                        "<= w_A(T)^4 with P = T#T + TT#")
def _thm_lower_fourth(ctx):
    t = ctx.k("T")
    pm = ctx.pm(t)
    t2 = t @ t
    g = t2 @ pm + pm @ t2
    nrm_p = ctx.nrm(pm)
    lhs = 0.25 * ctx.cc(t2) ** 2 + 0.125 * ctx.c(g) + nrm_p ** 2 / 16.0
    return lhs, ctx.w(t) ** 4, {"nrm_P": nrm_p}


# --------------------------------------------------------------------------
# Product bounds
# --------------------------------------------------------------------------

def _thm_prod_pm(ctx, sign: float):
    p, q = ctx.k("P"), ctx.k("Q")
    x, y = ctx.k("X"), ctx.k("Y")
    rhs = 2.0 * ctx.nrm(p) * ctx.nrm(q) * ctx.wb(ctx.antidiag())
    m = p @ x @ q.conj().T + sign * (q @ y @ p.conj().T)
    return ctx.w(m), rhs, {}


_register_family("thm_prod_pm", _thm_prod_pm, ("P", "Q", "X", "Y"), [
    ("plus", {"sign": +1.0}, "always",
     "w_A(PXQ# + QYP#) <= 2 ||P||_A ||Q||_A wB(antidiag(X,Y))"),
    ("minus", {"sign": -1.0}, "strict",
     "w_A(PXQ# - QYP#) <= 2 ||P||_A ||Q||_A wB(antidiag(X,Y))"),
])


def _thm_prod_particular(ctx, sign: float):
    p, q, x = ctx.k("P"), ctx.k("Q"), ctx.k("X")
    m = p @ x @ q.conj().T + sign * (q @ x @ p.conj().T)
    rhs = 2.0 * ctx.nrm(p) * ctx.nrm(q) * ctx.w(x)
    return ctx.w(m), rhs, {}


_register_family("thm_prod_particular", _thm_prod_particular, ("P", "Q", "X"), [
    ("plus", {"sign": +1.0}, "strict", "w_A(PXQ# + QXP#) <= 2 ||P||_A ||Q||_A w_A(X)"),
    ("minus", {"sign": -1.0}, "strict", "w_A(PXQ# - QXP#) <= 2 ||P||_A ||Q||_A w_A(X)"),
])


def _cor_commutator(ctx, sign: float):
    t, q = ctx.k("T"), ctx.k("Q")
    m = t @ q.conj().T + sign * (q @ t)
    rhs = 2.0 * ctx.w(t) * ctx.nrm(q)
    return ctx.w(m), rhs, {}


_register_family("cor_commutator", _cor_commutator, ("T", "Q"), [
    ("plus", {"sign": +1.0}, "strict", "w_A(TQ# + QT) <= 2 w_A(T) ||Q||_A"),
    ("minus", {"sign": -1.0}, "strict", "w_A(TQ# - QT) <= 2 w_A(T) ||Q||_A"),
])


@_register("lem_pointwise", hypothesis="strict", roles=("X", "T", "Y"),
            description="|<X#TYx,x>_A| + |<Y#TXx,x>_A| <= 2 w_A(T) ||Xx||_A ||Yx||_A "
                        "on sampled x (worst sample reported)")
def _lem_pointwise(ctx):
    # unit vectors x are drawn on H and mapped once to
    # y = U* A^{1/2} x = diag(lam)^{1/2} U* x; then
    # <X#TYx, x>_A = y* K_X* K_T K_Y y and ||Xx||_A = ||K_X y||
    x, t, y = ctx.k("X"), ctx.k("T"), ctx.k("Y")
    g1 = x.conj().T @ t @ y
    g2 = y.conj().T @ t @ x
    wt = ctx.w(t)
    n = ctx.f.dim
    rng = np.random.default_rng(label_seed(ctx.seed, "lem_pointwise"))
    xs = rng.standard_normal((n, _POINTWISE_SAMPLES)) + 1j * rng.standard_normal(
        (n, _POINTWISE_SAMPLES)
    )
    xs /= np.linalg.norm(xs, axis=0)
    ys = np.sqrt(ctx.f.lam)[:, None] * (ctx.f.range_u.conj().T @ xs)
    quad1 = np.abs(np.einsum("ij,ij->j", ys.conj(), g1 @ ys))
    quad2 = np.abs(np.einsum("ij,ij->j", ys.conj(), g2 @ ys))
    nx = np.linalg.norm(x @ ys, axis=0)
    ny = np.linalg.norm(y @ ys, axis=0)
    lhs_all = quad1 + quad2
    rhs_all = 2.0 * wt * nx * ny
    worst = int(np.argmax((lhs_all - rhs_all) / (1.0 + np.abs(rhs_all))))
    return float(lhs_all[worst]), float(rhs_all[worst]), {}


def _thm_crawford_prod(ctx, c_first: bool):
    x, t, y = ctx.k("X"), ctx.k("T"), ctx.k("Y")
    g1 = x.conj().T @ t @ y
    g2 = y.conj().T @ t @ x
    rhs = 2.0 * ctx.w(t) * ctx.nrm(x) * ctx.nrm(y)
    lhs = ctx.c(g1) + ctx.w(g2) if c_first else ctx.w(g1) + ctx.c(g2)
    return lhs, rhs, {}


_register_family("thm_crawford_prod", _thm_crawford_prod, ("X", "T", "Y"), [
    ("cw", {"c_first": True}, "strict",
     "c_A(X#TY) + w_A(Y#TX) <= 2 w_A(T) ||X||_A ||Y||_A"),
    ("wc", {"c_first": False}, "strict",
     "w_A(X#TY) + c_A(Y#TX) <= 2 w_A(T) ||X||_A ||Y||_A"),
])


def _cor_prod_improved(ctx, w_of_x: bool):
    x, y = ctx.k("X"), ctx.k("Y")
    lead, other, g = (x, y, y.conj().T @ x) if w_of_x else (y, x, y @ x.conj().T)
    plain = 2.0 * ctx.w(lead) * ctx.nrm(other)
    rhs = plain - ctx.c(g)
    return ctx.w(x @ y), rhs, {"plain_rhs": plain}


_register_family("cor_prod_improved", _cor_prod_improved, ("X", "Y"), [
    ("1", {"w_of_x": True}, "strict", "w_A(XY) <= 2 w_A(X) ||Y||_A - c_A(Y#X)"),
    ("2", {"w_of_x": False}, "strict", "w_A(XY) <= 2 w_A(Y) ||X||_A - c_A(YX#)"),
])


# --------------------------------------------------------------------------
# Block and seminorm lower bounds
# --------------------------------------------------------------------------

def _thm_block_lower(ctx, use_x: bool, use_minmod: bool):
    x, y = ctx.k("X"), ctx.k("Y")
    lead, prod = (x, y @ x) if use_x else (y, x @ y)
    gauge = ctx.mm(lead) ** 2 if use_minmod else ctx.nrm(lead) ** 2
    inner = ctx.w(prod) if use_minmod else ctx.c(prod)
    return gauge + inner, 2.0 * ctx.wb(ctx.antidiag()) * ctx.nrm(lead), {}


_register_family("thm_block_lower", _thm_block_lower, ("X", "Y"), [
    ("i", {"use_x": True, "use_minmod": False}, "strict",
     "||X||_A^2 + c_A(YX) <= 2 wB(antidiag) ||X||_A"),
    ("ii", {"use_x": True, "use_minmod": True}, "strict",
     "m_A(X)^2 + w_A(YX) <= 2 wB(antidiag) ||X||_A"),
    ("iii", {"use_x": False, "use_minmod": False}, "strict",
     "||Y||_A^2 + c_A(XY) <= 2 wB(antidiag) ||Y||_A"),
    ("iv", {"use_x": False, "use_minmod": True}, "strict",
     "m_A(Y)^2 + w_A(XY) <= 2 wB(antidiag) ||Y||_A"),
])


@_register("thm_wa_lower_1", hypothesis="strict_nonzero_t",
            description="||T||_A/2 + c_A(T^2)/(2||T||_A) <= w_A(T)")
def _thm_wa_lower_1(ctx):
    t = ctx.k("T")
    nt = ctx.nrm(t)
    lhs = 0.5 * nt + ctx.c(t @ t) / (2.0 * nt)
    return lhs, ctx.w(t), {}


@_register("thm_wa_lower_2", hypothesis="strict_nonzero_t",
            description="m_A(T)^2/(2||T||_A) + w_A(T^2)/(2||T||_A) <= w_A(T)")
def _thm_wa_lower_2(ctx):
    t = ctx.k("T")
    lhs = (ctx.mm(t) ** 2 + ctx.w(t @ t)) / (2.0 * ctx.nrm(t))
    return lhs, ctx.w(t), {}


@_register("thm_wa_lower_max", hypothesis="strict_nonzero_t",
            description="max(||T||_A^2 + c_A(T^2), m_A(T)^2 + w_A(T^2)) / "
                        "(2||T||_A) <= w_A(T)")
def _thm_wa_lower_max(ctx):
    t = ctx.k("T")
    nt = ctx.nrm(t)
    t2 = t @ t
    lhs = max(nt ** 2 + ctx.c(t2), ctx.mm(t) ** 2 + ctx.w(t2)) / (2.0 * nt)
    return lhs, ctx.w(t), {"nrm_T": nt}


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------

def _unevaluated(check_id: str, passed: bool, hypothesis_met: bool,
                 metadata: Dict[str, object]) -> CheckResult:
    """A skipped or errored check: no lhs, rhs or slack."""
    nan = float("nan")
    return CheckResult(check_id, nan, nan, passed, hypothesis_met, metadata)


def errored_result(check_id: str, error: str) -> CheckResult:
    """A check that raised ``error``: failed, not skipped, never evaluated."""
    return _unevaluated(check_id, False, True, {"error": error})


def _run_one(cd: CheckDef, ctx: _Ctx, tol: float) -> CheckResult:
    if not _hypothesis_state(cd, ctx):
        return _unevaluated(cd.check_id, True, False, {})
    lhs, rhs, meta = cd.evaluate(ctx)
    lhs = float(lhs)
    rhs = float(rhs)
    return CheckResult(
        check_id=cd.check_id,
        lhs=lhs,
        rhs=rhs,
        passed=_verdict(lhs, rhs, cd.mode, tol),
        hypothesis_met=True,
        metadata=meta,
    )


def run_check(check_id: str, f: AFrame, operands, *, seed: int = 0,
              tol: float = DEFAULT_TOL) -> CheckResult:
    """Evaluate a single registry check; errors propagate to the caller.

    ``seed`` seeds the checks that sample (``lem_pointwise``)."""
    _check_tol(tol)
    cd = REGISTRY.get(check_id)
    if cd is None:
        raise UnknownCheckId(check_id)
    ctx = _Ctx(f, operands, seed)
    return _run_one(cd, ctx, tol)


def run_all(f: AFrame, operands, *, seed: int = 0, tol: float = DEFAULT_TOL,
            checks: Optional[Sequence[str]] = None) -> list[CheckResult]:
    """Evaluate a filtered batch of checks on one instance.

    The one selection ``checks`` takes exact ids and family prefixes
    (``resolve_ids``; default all). A bare string or a filter that matches
    no id raises (``ValueError``, ``UnknownCheckId``) before any check runs.
    All checks share one gauge cache. Per-check errors are folded into
    failed results (error message in metadata) instead of aborting the
    batch; the result list is ordered by check_id.
    """
    _check_tol(tol)
    ids = resolve_ids(checks)
    ctx = _Ctx(f, operands, seed)
    results = []
    for cid in ids:
        cd = REGISTRY[cid]
        try:
            results.append(_run_one(cd, ctx, tol))
        except Exception as exc:  # noqa: BLE001 - fold into the report
            results.append(errored_result(cid, f"{type(exc).__name__}: {exc}"))
    return results
