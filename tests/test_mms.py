"""Symbolic validation of the frozen manufactured solutions and sources.

The closed forms in porous_opt.mms were derived by hand; these tests rebuild
the state and costate fields, their derivatives and the sources with sympy
from the strong PDE forms and compare pointwise, so no derivation error can
hide in the oracles.
"""

import numpy as np
import pytest
import sympy as sp

from porous_opt import mms
from porous_opt.model import default_model

X, Y, TS = sp.symbols("x y t", real=True)
DELTA = sp.Rational(1, 20)


def _sym_model():
    c = sp.Symbol("c")
    lam_o = DELTA + c**2
    lam_w = DELTA + (1 - c) ** 2
    lam = lam_o + lam_w
    return c, {
        "alpha": 1 / lam,
        "b": 2 * c,
        "D": lam * lam_o * lam_w,
        "f": -lam_o,
    }


def _grad(e):
    return sp.Matrix([sp.diff(e, X), sp.diff(e, Y)])


def _div(v):
    return sp.diff(v[0], X) + sp.diff(v[1], Y)


def _check(sym_expr, num_fun, vector=False, ts=(0.0, 0.35, 0.8)):
    rng = np.random.default_rng(17)
    pts = rng.uniform(0.02, 0.98, size=(25, 2))
    fn = sp.lambdify((X, Y, TS), sym_expr, "numpy")
    for t in ts:
        sym_v = np.asarray(fn(pts[:, 0], pts[:, 1], t), dtype=float)
        num_v = np.asarray(num_fun(pts, t), dtype=float)
        if vector:
            sym_v = sym_v.reshape(2, -1).T
        assert np.abs(sym_v - num_v).max() < 1e-12


CC = sp.cos(sp.pi * X) * sp.cos(sp.pi * Y)
CURL = sp.Matrix([sp.sin(sp.pi * X) * sp.cos(sp.pi * Y),
                  -sp.cos(sp.pi * X) * sp.sin(sp.pi * Y)])
T_END = 1.0


def _check_fields(c, u, p, exact):
    """All seven fields of ``exact`` against the sympy (c, u, p)."""
    _check(c, exact.c)
    _check(u, exact.u, vector=True)
    _check(p, exact.p)
    _check(sp.diff(c, TS), exact.c_t)
    _check(_grad(c), exact.grad_c, vector=True)
    _check(sp.diff(c, X, 2) + sp.diff(c, Y, 2), exact.lap_c)
    _check(_grad(p), exact.grad_p, vector=True)


def _state_sources_sym(c, u, p):
    cs, m = _sym_model()
    alpha = m["alpha"].subs(cs, c)
    b = m["b"].subs(cs, c)
    D = m["D"].subs(cs, c)
    s_u = alpha * u + _grad(p)
    s_c = sp.diff(c, TS) - _div(D * _grad(c)) + b * (u.T * _grad(c))[0]
    return s_u, s_c


@pytest.fixture(scope="module")
def state_syms():
    c = sp.Rational(1, 2) + sp.Rational(1, 4) * CC * sp.exp(-TS)
    u = (1 + TS / 2) * CURL
    p = sp.Rational(1, 2) * (1 + TS) * CC
    return c, u, p


CSTAR = sp.Rational(3, 10) * (T_END - TS) * (sp.Rational(1, 2) + sp.Rational(1, 2) * CC)
USTAR = sp.Rational(2, 5) * (1 + (T_END - TS)) * CURL
# the costate variants share c* and u*; each has its pressure and constructor
COSTATE_VARIANTS = {
    "default": (sp.Rational(35, 100) * (1 + (T_END - TS)) * CC, mms.ExactFields.costate),
    "tilted": (-sp.Rational(3, 10) * (1 + (T_END - TS)) * (X + Y - 1),
               mms.ExactFields.tilted_costate),
}


def test_state_fields_match(state_syms):
    _check_fields(*state_syms, mms.ExactFields.state())


@pytest.mark.parametrize("variant", ["default", "tilted"])
def test_costate_fields_match(variant):
    pstar, make = COSTATE_VARIANTS[variant]
    _check_fields(CSTAR, USTAR, pstar, make(T_END))
    assert sp.simplify(sp.integrate(pstar, (X, 0, 1), (Y, 0, 1))) == 0
    assert sp.simplify(CSTAR.subs(TS, T_END)) == 0  # terminal condition


def test_state_boundary_compatibility(state_syms):
    c, u, p = state_syms
    # u . n = 0 and dc/dn = 0 on the four sides; p has zero mean
    for side, comp in ((0, 0), (1, 0)):
        assert sp.simplify(u[comp].subs(X, side)) == 0
        assert sp.simplify(sp.diff(c, X).subs(X, side)) == 0
    for side in (0, 1):
        assert sp.simplify(u[1].subs(Y, side)) == 0
        assert sp.simplify(sp.diff(c, Y).subs(Y, side)) == 0
    assert sp.integrate(sp.integrate(p, (X, 0, 1)), (Y, 0, 1)) == 0
    assert sp.simplify(_div(u)) == 0


def test_state_sources_match(state_syms):
    s_u, s_c = _state_sources_sym(*state_syms)
    src = mms.state_sources(mms.ExactFields.state(), default_model())
    _check(s_u, src.s_u, vector=True)
    _check(s_c, src.s_c)


def test_costate_sources_match(state_syms):
    c, u, _ = state_syms
    cstar, ustar, pstar = CSTAR, USTAR, COSTATE_VARIANTS["default"][0]

    cs, m = _sym_model()
    alpha = m["alpha"].subs(cs, c)
    alpha_p = sp.diff(m["alpha"], cs).subs(cs, c)
    b = m["b"].subs(cs, c)
    D = m["D"].subs(cs, c)
    Dp = sp.diff(m["D"], cs).subs(cs, c)

    s_u_star = alpha * ustar + _grad(pstar) + cstar * b * _grad(c)
    drift = ((b * u - Dp * _grad(c)).T * _grad(cstar))[0]
    s_c_star = (-sp.diff(cstar, TS) - _div(D * _grad(cstar)) - drift
                + alpha_p * (ustar.T * u)[0])

    src = mms.costate_sources(mms.ExactFields.state(),
                              mms.ExactFields.costate(T_END), default_model())
    _check(s_u_star, src.s_u_star, vector=True)
    _check(s_c_star, src.s_c_star)


def test_mild_state_sources_match():
    # the weak-transport variant used by the control study
    c = sp.Rational(1, 2) + sp.Rational(1, 10) * CC * (1 - sp.Rational(2, 5) * TS)
    u = sp.Rational(1, 5) * (1 + TS / 2) * CURL
    p = sp.Rational(1, 2) * (1 + TS) * CC
    exact = mms.ExactFields.mild_state()
    _check_fields(c, u, p, exact)
    s_u, s_c = _state_sources_sym(c, u, p)
    src = mms.state_sources(exact, default_model())
    _check(s_u, src.s_u, vector=True)
    _check(s_c, src.s_c)


def test_synthetic_optimum_satisfies_projection():
    model = default_model()
    syn = mms.SyntheticOptimum.build(model, T=1.0, alpha0=1.0, qhat=2.0)
    for t in (0.0, 0.4, 1.0):
        q = syn.q_exact(t)
        assert 0.0 <= q <= 2.0
    # interior on this configuration
    qs = syn.q_exact_vector(np.linspace(0.0, 1.0, 21))
    assert qs.min() > 0.01 and qs.max() < 1.99


def test_box_helpers():
    from porous_opt.mesh import square_mesh

    mesh = square_mesh(8)
    tris = mms.box_tris(mesh, mms.BOX0)
    area = mesh.tri_area[tris].sum()
    assert area == pytest.approx(0.25, rel=1e-12)
    ind = mms.box_indicator(mms.BOX0)
    assert ind(np.array([[0.1, 0.1], [0.9, 0.9]])).tolist() == [1.0, 0.0]
    val = mms._box_integral(lambda p: np.ones(p.shape[0]), mms.BOX0)
    assert val == pytest.approx(0.25, rel=1e-12)
