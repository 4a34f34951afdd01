"""Manufactured solutions and compensating sources for convergence studies.

The exact fields are fixed closed-form expressions on the unit square with
compatible boundary data: velocities are divergence-free curls with zero
normal trace, pressures have zero mean, and saturations have zero normal
derivative on the boundary.  The source expressions below were derived by
hand from the strong forms and are cross-checked symbolically by
``scripts/derive_mms.py`` (and the test suite), so no numeric
differentiation enters the oracle.

All derivations assume unit permeability and porosity, which is what the
default coefficient model provides.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import CoefficientModel
from .solver import MMSSources

PI = np.pi


def _cc(p):
    return np.cos(PI * p[:, 0]) * np.cos(PI * p[:, 1])


def _curl_field(p):
    x, y = p[:, 0], p[:, 1]
    return np.column_stack(
        [np.sin(PI * x) * np.cos(PI * y), -np.cos(PI * x) * np.sin(PI * y)]
    )


@dataclass
class StateExact:
    """Closed-form state fields and the derivatives the sources need."""

    c: Callable
    u: Callable
    p: Callable
    c_t: Callable
    grad_c: Callable
    lap_c: Callable
    grad_p: Callable

    @staticmethod
    def default():
        def c(p, t):
            return 0.5 + 0.25 * _cc(p) * np.exp(-t)

        def c_t(p, t):
            return -0.25 * _cc(p) * np.exp(-t)

        def grad_c(p, t):
            x, y = p[:, 0], p[:, 1]
            f = -0.25 * PI * np.exp(-t)
            return np.column_stack(
                [f * np.sin(PI * x) * np.cos(PI * y), f * np.cos(PI * x) * np.sin(PI * y)]
            )

        def lap_c(p, t):
            return -0.5 * PI**2 * _cc(p) * np.exp(-t)

        def u(p, t):
            return (1.0 + 0.5 * t) * _curl_field(p)

        def pres(p, t):
            return 0.5 * (1.0 + t) * _cc(p)

        def grad_p(p, t):
            x, y = p[:, 0], p[:, 1]
            f = -0.5 * (1.0 + t) * PI
            return np.column_stack(
                [f * np.sin(PI * x) * np.cos(PI * y), f * np.cos(PI * x) * np.sin(PI * y)]
            )

        return StateExact(c, u, pres, c_t, grad_c, lap_c, grad_p)

    @staticmethod
    def mild(u_scale=0.2, c_amp=0.1):
        """Variant with time-linear saturation and weak transport.

        Backward-Euler truncation scales with second time derivatives, and
        the dominant pre-asymptotic drift of the jump-term-free convection
        and cross-gradient terms scales with the velocity magnitude and the
        saturation gradient; this profile keeps the cleanly first-order
        terms in charge of compound studies where both grids refine
        together.
        """
        base = StateExact.default()

        def amp(t):
            return c_amp * (1.0 - 0.4 * t)

        def c(p, t):
            return 0.5 + _cc(p) * amp(t)

        def c_t(p, t):
            return -0.4 * c_amp * _cc(p) * np.ones_like(np.asarray(t, dtype=float))

        def grad_c(p, t):
            x, y = p[:, 0], p[:, 1]
            f = -PI * amp(t)
            return np.column_stack(
                [f * np.sin(PI * x) * np.cos(PI * y), f * np.cos(PI * x) * np.sin(PI * y)]
            )

        def lap_c(p, t):
            return -2.0 * PI**2 * _cc(p) * amp(t)

        def u(p, t):
            return u_scale * base.u(p, t)

        return StateExact(c, u, base.p, c_t, grad_c, lap_c, base.grad_p)


@dataclass
class CostateExact:
    """Closed-form costate fields; the saturation vanishes at t = T."""

    T: float
    c: Callable
    u: Callable
    p: Callable
    c_t: Callable
    grad_c: Callable
    lap_c: Callable
    grad_p: Callable

    @staticmethod
    def default(T):
        def c(p, t):
            return 0.3 * (T - t) * (0.5 + 0.5 * _cc(p))

        def c_t(p, t):
            return -0.3 * (0.5 + 0.5 * _cc(p))

        def grad_c(p, t):
            x, y = p[:, 0], p[:, 1]
            f = -0.15 * PI * (T - t)
            return np.column_stack(
                [f * np.sin(PI * x) * np.cos(PI * y), f * np.cos(PI * x) * np.sin(PI * y)]
            )

        def lap_c(p, t):
            return -0.3 * (T - t) * PI**2 * _cc(p)

        def u(p, t):
            return 0.4 * (1.0 + (T - t)) * _curl_field(p)

        def pres(p, t):
            return 0.35 * (1.0 + (T - t)) * _cc(p)

        def grad_p(p, t):
            x, y = p[:, 0], p[:, 1]
            f = -0.35 * (1.0 + (T - t)) * PI
            return np.column_stack(
                [f * np.sin(PI * x) * np.cos(PI * y), f * np.cos(PI * x) * np.sin(PI * y)]
            )

        return CostateExact(T, c, u, pres, c_t, grad_c, lap_c, grad_p)

    @staticmethod
    def tilted(T):
        """Variant with an affine, rotation-odd pressure.

        The cosine pressure of :meth:`default` integrates identically over
        the two well boxes, which would park the synthetic optimal control
        on the lower clamp; the tilt keeps the activity strictly interior.
        """
        base = CostateExact.default(T)

        def pres(p, t):
            return -0.3 * (1.0 + (T - t)) * (p[:, 0] + p[:, 1] - 1.0)

        def grad_p(p, t):
            f = -0.3 * (1.0 + (T - t))
            return np.full((p.shape[0], 2), f)

        return CostateExact(T, base.c, base.u, pres, base.c_t, base.grad_c,
                            base.lap_c, grad_p)


def state_sources(exact: StateExact, model: CoefficientModel) -> MMSSources:
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


def costate_sources(state: StateExact, costate: CostateExact,
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
    state: StateExact
    costate: CostateExact
    alpha0: float
    qhat: float
    sigma: float
    sources: MMSSources
    q_exact: Callable

    @staticmethod
    def build(model: CoefficientModel, T: float, alpha0: float, qhat: float):
        state = StateExact.mild()
        costate = CostateExact.tilted(T)
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
