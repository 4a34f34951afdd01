"""Coefficient functions, regularized well data, and run configuration.

The default coefficient set uses quadratic relative mobilities with a small
floor ``delta_floor`` so that the diffusion coefficient stays strictly
positive on [0, 1]:

    lam_o(c) = delta_floor + c**2          (oil mobility)
    lam_w(c) = delta_floor + (1 - c)**2    (water mobility)
    lam      = lam_o + lam_w
    alpha(c) = 1 / lam(c)                  (inverse total mobility)
    b(c)     = lam_o'(c) = 2 c
    D(c)     = lam * lam_o * lam_w * peclet
    f(c)     = -lam_o(c)

Permeability ``kappa(x)`` and porosity ``phi(x)`` enter as separate spatial
factors (both default to 1): the Darcy coefficient is alpha(c)/kappa(x) and
the diffusion coefficient kappa(x)*D(c).

Wells are regularized Dirac sources: disjoint patches of triangles around
the injection/production points, with densities 1/|patch| so each patch
integrates to one.  The terminal objective weight is a box window in time,
w(t) = wtilde/epsilon for t in the final window of width epsilon, whose
time integral is exactly wtilde.  The well constructors take epsilon as a
required keyword; the only ``auto`` window is the config's 2 dt.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DomainError
from .fespaces import p1_basis_at
from .mesh import PrimalMesh
from .quadrature import QuadratureRule

_GRID = np.linspace(0.0, 1.0, 1001)


@dataclass(frozen=True)
class CoefficientModel:
    """Saturation-dependent coefficients with their sampled bounds.

    All callables accept numpy arrays.  ``kappa`` and ``phi`` map (n, 2)
    point arrays to (n,) values.
    """

    alpha: Callable
    alpha_prime: Callable
    b: Callable
    diffusion: Callable
    diffusion_prime: Callable
    f: Callable
    kappa: Callable
    phi: Callable
    a_low: float
    a_high: float
    d_low: float
    d_high: float

    def validate(self, fd_step=1e-5, fd_tol=1e-6):
        """Check positivity bounds and derivative consistency on a 1001-grid.

        Raises :class:`ConfigError` when a bound fails or a finite-difference
        probe of alpha' or D' deviates by more than ``fd_tol``.
        """
        inv_alpha = 1.0 / self.alpha(_GRID)
        dvals = self.diffusion(_GRID)
        if inv_alpha.min() <= 0.0 or dvals.min() <= 0.0:
            raise ConfigError("coefficient bounds violated: alpha^-1 or D not positive")
        if not (
            self.a_low <= inv_alpha.min() + 1e-12
            and inv_alpha.max() <= self.a_high + 1e-12
        ):
            raise ConfigError("declared alpha bounds do not cover the samples")
        if not (self.d_low <= dvals.min() + 1e-12 and dvals.max() <= self.d_high + 1e-12):
            raise ConfigError("declared diffusion bounds do not cover the samples")
        interior = _GRID[(_GRID > fd_step) & (_GRID < 1.0 - fd_step)]
        for fun, der, name in (
            (self.alpha, self.alpha_prime, "alpha"),
            (self.diffusion, self.diffusion_prime, "D"),
        ):
            fd = (fun(interior + fd_step) - fun(interior - fd_step)) / (2.0 * fd_step)
            err = np.max(np.abs(fd - der(interior)))
            if err > fd_tol:
                raise ConfigError(f"{name}' disagrees with finite differences: {err:.2e}")
        return True


def default_model(delta_floor=0.05, peclet=1.0, kappa=None, phi=None) -> CoefficientModel:
    """Quadratic-mobility coefficient set with floored diffusion."""
    if not delta_floor > 0.0:
        raise ConfigError("delta_floor must be > 0")
    if not peclet > 0.0:
        raise ConfigError("peclet must be > 0")

    def lam_o(c):
        return delta_floor + np.square(c)

    def lam_w(c):
        return delta_floor + np.square(1.0 - c)

    def lam(c):
        return lam_o(c) + lam_w(c)

    def lam_prime(c):
        return 4.0 * np.asarray(c) - 2.0

    def alpha(c):
        return 1.0 / lam(c)

    def alpha_prime(c):
        return -lam_prime(c) / np.square(lam(c))

    def b(c):
        return 2.0 * np.asarray(c, dtype=float)

    def diffusion(c):
        return peclet * lam(c) * lam_o(c) * lam_w(c)

    def diffusion_prime(c):
        c = np.asarray(c, dtype=float)
        return peclet * (
            lam_prime(c) * lam_o(c) * lam_w(c)
            + lam(c) * 2.0 * c * lam_w(c)
            - lam(c) * lam_o(c) * 2.0 * (1.0 - c)
        )

    def f(c):
        return -lam_o(c)

    kappa = kappa if kappa is not None else (lambda pts: np.ones(np.asarray(pts).shape[0]))
    phi = phi if phi is not None else (lambda pts: np.ones(np.asarray(pts).shape[0]))

    inv_alpha = lam(_GRID)
    dvals = diffusion(_GRID)

    return CoefficientModel(
        alpha=alpha,
        alpha_prime=alpha_prime,
        b=b,
        diffusion=diffusion,
        diffusion_prime=diffusion_prime,
        f=f,
        kappa=kappa,
        phi=phi,
        a_low=float(inv_alpha.min()),
        a_high=float(inv_alpha.max()),
        d_low=float(dvals.min()),
        d_high=float(dvals.max()),
    )


def unit_model() -> CoefficientModel:
    """Constant-coefficient model (alpha = D = 1, b = f' ... all frozen).

    Handy for linear manufactured-solution studies of the Darcy block.
    """
    one = lambda c: np.ones_like(np.asarray(c, dtype=float))
    zero = lambda c: np.zeros_like(np.asarray(c, dtype=float))
    ptsone = lambda pts: np.ones(np.asarray(pts).shape[0])
    return CoefficientModel(
        alpha=one,
        alpha_prime=zero,
        b=zero,
        diffusion=one,
        diffusion_prime=zero,
        f=zero,
        kappa=ptsone,
        phi=ptsone,
        a_low=1.0,
        a_high=1.0,
        d_low=1.0,
        d_high=1.0,
    )


@dataclass(frozen=True)
class WellModel:
    """Regularized injection/production wells plus objective prices.

    ``injection_tris`` / ``production_tris`` are disjoint triangle index
    sets; the source densities are 1/sigma_i on each patch so both
    integrate to exactly one.
    """

    mesh: PrimalMesh
    injection_tris: np.ndarray
    production_tris: np.ndarray
    sigma0: float
    sigma1: float
    wtilde: float
    epsilon: float
    alpha0: float
    qhat: float
    T: float

    def __post_init__(self):
        check_well_data(self.T, self.epsilon, self.alpha0, self.qhat, self.wtilde)
        if np.intersect1d(self.injection_tris, self.production_tris).size:
            raise DomainError("well patches overlap")

    def r0_values(self):
        """Element-wise density of the injection source, integrates to 1."""
        r = np.zeros(self.mesh.num_triangles)
        r[self.injection_tris] = 1.0 / self.sigma0
        return r

    def r1_values(self):
        r = np.zeros(self.mesh.num_triangles)
        r[self.production_tris] = 1.0 / self.sigma1
        return r

    def w(self, t):
        """Terminal objective weight at time t.

        Nonzero (= wtilde/epsilon) on the window (T - epsilon, T].  When
        epsilon is a whole number of fine steps, as the config's ``auto``
        (2 dt) is, the open left end makes the right-endpoint time
        quadrature of the window integrate to exactly wtilde; otherwise it
        does not.
        """
        if t > self.T - self.epsilon + 1e-12 * max(self.T, 1.0) and t <= self.T + 1e-12:
            return self.wtilde / self.epsilon
        return 0.0


def check_well_data(T, epsilon, alpha0, qhat, wtilde):
    """Raise :class:`ConfigError` unless the water price and the control
    bound are positive, the oil price is finite and >= 0 (zero decouples the
    objective from the state), and the terminal window ``epsilon`` lies in
    (0, T]."""
    if not np.isfinite(wtilde) or wtilde < 0.0:
        raise ConfigError("wtilde (oil price) must be finite and >= 0")
    if not alpha0 > 0.0:
        raise ConfigError("alpha0 (water price) must be > 0")
    if not qhat > 0.0:
        raise ConfigError("qhat (control bound) must be > 0")
    if not 0.0 < epsilon <= T:
        raise ConfigError("epsilon must lie in (0, T]")


def build_wells(mesh: PrimalMesh, x0, x1, target_sigma, *, T, epsilon, wtilde=1.0,
                alpha0=1.0, qhat=1.0) -> WellModel:
    """Construct well patches as the smallest barycentre-balls of triangles
    reaching ``target_sigma`` in area around each well point.

    Each patch goes to :func:`wells_from_tris` nearest triangle first.
    Raises :class:`DomainError` when the well points coincide, one lies
    outside the mesh, or the two patches overlap.
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    if np.allclose(x0, x1):
        raise DomainError("injection and production wells coincide")

    patches = []
    for x in (x0, x1):
        if not _point_in_mesh(mesh, x):
            raise DomainError(f"well at {x.tolist()} lies outside the domain")
        dist = np.linalg.norm(mesh.barycentre - x, axis=1)
        order = np.argsort(dist, kind="stable")
        acc = np.cumsum(mesh.tri_area[order])
        count = int(np.searchsorted(acc, target_sigma - 1e-14) + 1)
        patches.append(order[: min(count, mesh.num_triangles)])

    return wells_from_tris(mesh, *patches, T=T, epsilon=epsilon, wtilde=wtilde,
                           alpha0=alpha0, qhat=qhat)


def wells_from_tris(mesh, injection_tris, production_tris, *, T, epsilon,
                    wtilde=1.0, alpha0=1.0, qhat=1.0) -> WellModel:
    """Well patches from explicit triangle index sets.

    Each patch area sigma is the sum of its triangles' areas in the order
    given.  Raises :class:`DomainError` for an empty patch or an index that
    repeats or lies outside [0, n_t).
    """
    n_t = mesh.num_triangles
    inj, prod = (np.asarray(t, dtype=np.int64) for t in (injection_tris, production_tris))
    for name, tris in (("injection", inj), ("production", prod)):
        if tris.size == 0:
            raise DomainError("well patches must be non-empty")
        seen = set()
        for i in tris.tolist():
            if i in seen or not 0 <= i < n_t:
                why = "repeats" if i in seen else f"lies outside [0, {n_t})"
                raise DomainError(f"{name} patch: triangle index {i} {why}")
            seen.add(i)
    return WellModel(
        mesh=mesh, injection_tris=np.sort(inj), production_tris=np.sort(prod),
        sigma0=float(mesh.tri_area[inj].sum()), sigma1=float(mesh.tri_area[prod].sum()),
        wtilde=wtilde, epsilon=float(epsilon), alpha0=alpha0, qhat=qhat, T=float(T),
    )


def _point_in_mesh(mesh, x, tol=1e-12):
    lam = p1_basis_at(mesh, np.broadcast_to(x, (mesh.num_triangles, 2)))
    return bool(np.any(lam.min(axis=1) >= -tol))


@dataclass(frozen=True)
class RunConfig:
    """Time grids, scheme parameters and solver knobs; checked on construction.

    The pressure grid has ``m_steps`` uniform intervals and the saturation
    grid ``n_steps`` (a multiple of ``m_steps``).  ``xi`` is the interior
    penalty constant and ``q_init`` the initial control; ``None`` (``auto``)
    resolves through :meth:`xi_for` and :meth:`q_init_for`.  ``quad`` is
    the rule of the two quadrature degrees, whose construction checks them.
    """

    T: float = 1.0
    m_steps: int = 8
    n_steps: int = 32
    xi: Optional[float] = None
    c0: float = 0.5
    q_init: Optional[float] = None
    kmax: int = 50
    q_tol: float = 1e-9
    solver_tol: float = 1e-10
    tri_quad_degree: int = 4
    edge_quad_degree: int = 3
    quad: QuadratureRule = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # comparisons are written to fail on NaN
        if not self.T > 0.0:
            raise ConfigError("T must be > 0")
        if self.m_steps < 1 or self.n_steps < 1:
            raise ConfigError("m_steps and n_steps must be >= 1")
        if self.n_steps % self.m_steps != 0:
            raise ConfigError("n_steps must be a multiple of m_steps")
        if self.xi is not None and not self.xi > 0.0:
            raise ConfigError("xi must be > 0")
        if not 0.0 <= self.c0 <= 1.0:
            raise ConfigError("c0 must lie in [0, 1]")
        if self.kmax < 1:
            raise ConfigError("kmax must be >= 1")
        if not self.q_tol > 0.0:
            raise ConfigError("q_tol must be > 0")
        if not self.solver_tol > 0.0:
            raise ConfigError("solver_tol must be > 0")
        object.__setattr__(
            self, "quad", QuadratureRule(self.tri_quad_degree, self.edge_quad_degree)
        )

    def xi_for(self, model: CoefficientModel) -> float:
        """The penalty constant; ``auto`` is 10 * d_high of ``model``."""
        return self.xi if self.xi is not None else 10.0 * model.d_high

    def q_init_for(self, qhat: float) -> float:
        """The initial control; ``auto`` is half the control bound ``qhat``."""
        return self.q_init if self.q_init is not None else 0.5 * qhat

    @property
    def dt(self):
        return self.T / self.n_steps

    @property
    def substeps(self):
        return self.n_steps // self.m_steps

    def fine_times(self):
        return np.linspace(0.0, self.T, self.n_steps + 1)

    def coarse_times(self):
        return np.linspace(0.0, self.T, self.m_steps + 1)
