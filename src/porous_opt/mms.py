"""Manufactured solutions and compensating sources for convergence studies.

Every exact field, state or costate, belongs to one family on the unit
square, built from cc = cos(pi x) cos(pi y) and time coefficients a, b, s,
k:

    c = a(t) + b(t) cc,    u = s(t) curl,    p = k(t) shape,

with curl = (sin(pi x) cos(pi y), -cos(pi x) sin(pi y)) and the pressure
shape cc or the plane x + y - 1.  The boundary data are compatible: u is
divergence-free with zero normal trace, p has zero mean, and c has zero
normal derivative on the boundary.  The derivatives the sources need come
from the closed forms grad(cc) = -pi (sin(pi x) cos(pi y),
cos(pi x) sin(pi y)) and lap(cc) = -2 pi^2 cc, so a variant gives only its
time coefficients.  The source expressions below were derived by hand
from the strong forms; ``tests/test_mms.py`` rebuilds the fields and the
sources with sympy and compares them pointwise, so no numeric
differentiation enters the oracle.

All derivations assume unit permeability and porosity, which is what the
default coefficient model provides.
"""

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .model import CoefficientModel
from .solver import MMSSources

PI = np.pi


def _cc(p):
    return np.cos(PI * p[:, 0]) * np.cos(PI * p[:, 1])


def _grad_cc(p):
    x, y = p[:, 0], p[:, 1]
    return -PI * np.column_stack(
        [np.sin(PI * x) * np.cos(PI * y), np.cos(PI * x) * np.sin(PI * y)]
    )


def _curl_field(p):
    x, y = p[:, 0], p[:, 1]
    return np.column_stack(
        [np.sin(PI * x) * np.cos(PI * y), -np.cos(PI * x) * np.sin(PI * y)]
    )


@dataclass(frozen=True)
class ExactFields:
    """One member of the manufactured family and the derivatives the
    sources need.

    ``a``, ``b`` and their time derivatives ``a_t``, ``b_t`` give the
    saturation, ``s`` the velocity and ``k`` the pressure; each maps a time
    to a number.  ``plane`` selects the pressure shape x + y - 1 in place
    of cc.  The field methods map ((n, 2) points, t) to values.
    """

    a: Callable
    a_t: Callable
    b: Callable
    b_t: Callable
    s: Callable
    k: Callable
    plane: bool = False

    def c(self, p, t):
        return self.a(t) + self.b(t) * _cc(p)

    def c_t(self, p, t):
        return self.a_t(t) + self.b_t(t) * _cc(p)

    def grad_c(self, p, t):
        return self.b(t) * _grad_cc(p)

    def lap_c(self, p, t):
        return self.b(t) * (-2.0 * PI**2 * _cc(p))

    def u(self, p, t):
        return self.s(t) * _curl_field(p)

    def p(self, p, t):
        if self.plane:
            return self.k(t) * (p[:, 0] + p[:, 1] - 1.0)
        return self.k(t) * _cc(p)

    def grad_p(self, p, t):
        if self.plane:
            return np.full((p.shape[0], 2), self.k(t))
        return self.k(t) * _grad_cc(p)

    @staticmethod
    def state():
        """State fields: c = 1/2 + e^-t cc / 4, u = (1 + t/2) curl,
        p = (1 + t) cc / 2."""
        return ExactFields(
            a=lambda t: 0.5, a_t=lambda t: 0.0,
            b=lambda t: 0.25 * np.exp(-t), b_t=lambda t: -0.25 * np.exp(-t),
            s=lambda t: 1.0 + 0.5 * t, k=lambda t: 0.5 * (1.0 + t),
        )

    @staticmethod
    def mild_state(u_scale=0.2, c_amp=0.1):
        """State variant with time-linear saturation and weak transport.

        Backward-Euler truncation scales with second time derivatives, and
        the dominant pre-asymptotic drift of the jump-term-free convection
        and cross-gradient terms scales with the velocity magnitude and the
        saturation gradient; this profile keeps the cleanly first-order
        terms in charge of compound studies where both grids refine
        together.
        """
        return ExactFields(
            a=lambda t: 0.5, a_t=lambda t: 0.0,
            b=lambda t: c_amp * (1.0 - 0.4 * t), b_t=lambda t: -0.4 * c_amp,
            s=lambda t: u_scale * (1.0 + 0.5 * t), k=lambda t: 0.5 * (1.0 + t),
        )

    @staticmethod
    def costate(T):
        """Costate fields; the saturation 0.3 (T - t)(1 + cc)/2 vanishes
        at t = T."""
        return ExactFields(
            a=lambda t: 0.15 * (T - t), a_t=lambda t: -0.15,
            b=lambda t: 0.15 * (T - t), b_t=lambda t: -0.15,
            s=lambda t: 0.4 * (1.0 + (T - t)), k=lambda t: 0.35 * (1.0 + (T - t)),
        )

    @staticmethod
    def tilted_costate(T):
        """Costate variant with an affine, rotation-odd pressure.

        The cosine pressure of :meth:`costate` integrates identically over
        the two well boxes, which would park the synthetic optimal control
        on the lower clamp; the tilt keeps the activity strictly interior.
        """
        return replace(
            ExactFields.costate(T), k=lambda t: -0.3 * (1.0 + (T - t)), plane=True
        )


def state_sources(exact: ExactFields, model: CoefficientModel) -> MMSSources:
    """Sources making the exact state fields solve the well-free forward
    system (the exact velocity is divergence-free, so no mass source)."""

    def s_u(p, t):
        c = exact.c(p, t)
        alpha = model.alpha(c) / model.kappa(p)
        return alpha[:, None] * exact.u(p, t) + exact.grad_p(p, t)

    def s_c(p, t):
        c = exact.c(p, t)
        g = exact.grad_c(p, t)
        g2 = np.einsum("ne,ne->n", g, g)
        diff = model.diffusion_prime(c) * g2 + model.diffusion(c) * exact.lap_c(p, t)
        conv = model.b(c) * np.einsum("ne,ne->n", exact.u(p, t), g)
        return model.phi(p) * exact.c_t(p, t) - diff + conv

    return MMSSources(s_u=s_u, s_div=None, s_c=s_c)


def costate_sources(state: ExactFields, costate: ExactFields,
                    model: CoefficientModel) -> MMSSources:
    """Sources for the coupled state/costate study (no wells, zero w)."""
    base = state_sources(state, model)

    def s_u_star(p, t):
        c = state.c(p, t)
        alpha = model.alpha(c) / model.kappa(p)
        drift = (costate.c(p, t) * model.b(c))[:, None] * state.grad_c(p, t)
        return alpha[:, None] * costate.u(p, t) + costate.grad_p(p, t) + drift

    def s_c_star(p, t):
        c = state.c(p, t)
        gc = state.grad_c(p, t)
        gcs = costate.grad_c(p, t)
        diff = (
            model.diffusion_prime(c) * np.einsum("ne,ne->n", gc, gcs)
            + model.diffusion(c) * costate.lap_c(p, t)
        )
        drift = np.einsum(
            "ne,ne->n",
            model.b(c)[:, None] * state.u(p, t)
            - model.diffusion_prime(c)[:, None] * gc,
            gcs,
        )
        prod = model.alpha_prime(c) * np.einsum(
            "ne,ne->n", costate.u(p, t), state.u(p, t)
        )
        return -model.phi(p) * costate.c_t(p, t) - diff - drift + prod

    return MMSSources(
        s_u=base.s_u, s_div=None, s_c=base.s_c,
        s_u_star=s_u_star, s_c_star=s_c_star,
    )


# ---------------------------------------------------------------------------
# synthetic-optimum problem for the control convergence study
# ---------------------------------------------------------------------------

BOX0 = (0.0, 0.5, 0.0, 0.5)     # injection patch (lower-left quadrant)
BOX1 = (0.5, 1.0, 0.5, 1.0)     # production patch (upper-right quadrant)


def box_indicator(box):
    x0, x1, y0, y1 = box

    def ind(p):
        return (
            (p[:, 0] >= x0) & (p[:, 0] <= x1) & (p[:, 1] >= y0) & (p[:, 1] <= y1)
        ).astype(float)

    return ind


def box_tris(mesh, box):
    """Triangles whose barycentres lie inside an axis-aligned box."""
    x0, x1, y0, y1 = box
    b = mesh.barycentre
    return np.flatnonzero(
        (b[:, 0] > x0) & (b[:, 0] < x1) & (b[:, 1] > y0) & (b[:, 1] < y1)
    )


def _box_integral(fun, box, npts=16):
    x0, x1, y0, y1 = box
    nodes, weights = np.polynomial.legendre.leggauss(npts)
    xs = 0.5 * (x1 - x0) * (nodes + 1.0) + x0
    ys = 0.5 * (y1 - y0) * (nodes + 1.0) + y0
    wx = 0.5 * (x1 - x0) * weights
    wy = 0.5 * (y1 - y0) * weights
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    w2 = np.outer(wx, wy).ravel()
    return float(np.dot(w2, fun(pts)))


@dataclass
class SyntheticOptimum:
    """A problem whose exact optimal control is known by construction.

    The manufactured state/costate fields define an activity profile
    G(t) = int f(c) r0 c* - (r0 - r1) p* dx; the clamp of -G/alpha0 is the
    exact optimal control, and the sources make the whole optimality system
    hold at that control.
    """

    model: CoefficientModel
    state: ExactFields
    costate: ExactFields
    alpha0: float
    qhat: float
    sigma: float
    sources: MMSSources
    q_exact: Callable

    @staticmethod
    def build(model: CoefficientModel, T: float, alpha0: float, qhat: float):
        state = ExactFields.mild_state()
        costate = ExactFields.tilted_costate(T)
        sigma = (BOX0[1] - BOX0[0]) * (BOX0[3] - BOX0[2])
        ind0 = box_indicator(BOX0)
        ind1 = box_indicator(BOX1)

        def activity(t):
            inner = _box_integral(
                lambda p: model.f(state.c(p, t)) * costate.c(p, t)
                - costate.p(p, t),
                BOX0,
            ) / sigma
            outer = _box_integral(lambda p: costate.p(p, t), BOX1) / sigma
            return inner + outer

        def q_exact(t):
            return float(np.clip(-activity(t) / alpha0, 0.0, qhat))

        base = costate_sources(state, costate, model)

        def s_div(p, t):
            return -(ind0(p) - ind1(p)) / sigma * q_exact(t)

        def s_c(p, t):
            r0 = ind0(p) / sigma
            return base.s_c(p, t) - model.f(state.c(p, t)) * r0 * q_exact(t)

        def s_c_star(p, t):
            r1 = ind1(p) / sigma
            react = r1 * q_exact(t) * model.b(state.c(p, t)) * costate.c(p, t)
            return base.s_c_star(p, t) + react

        src = MMSSources(
            s_u=base.s_u, s_div=s_div, s_c=s_c,
            s_u_star=base.s_u_star, s_c_star=s_c_star,
        )
        return SyntheticOptimum(
            model=model, state=state, costate=costate, alpha0=alpha0,
            qhat=qhat, sigma=sigma, sources=src, q_exact=q_exact,
        )

    def q_exact_vector(self, times):
        return np.array([self.q_exact(t) for t in np.asarray(times)])
