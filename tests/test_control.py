import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porous_opt import control as ctl
from porous_opt import solver as sol
from porous_opt.errors import ConfigError
from porous_opt.fespaces import P1_MASS
from porous_opt.mesh import square_mesh
from porous_opt.model import RunConfig, default_model, wells_from_tris

RNG = np.random.default_rng(5)

node_values = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=1, max_size=40
)


def make_problem(n=4, m_steps=2, n_steps=4, wtilde=1.0, alpha0=1.0, qhat=1.0,
                 c0=0.5, T=1.0, **kw):
    mesh = square_mesh(n)
    model = default_model()
    wells = wells_from_tris(mesh, [0], [mesh.num_triangles - 1], T=T,
                            wtilde=wtilde, alpha0=alpha0, qhat=qhat,
                            epsilon=2.0 * T / n_steps)
    rc = RunConfig(T=T, m_steps=m_steps, n_steps=n_steps, c0=c0, **kw)
    return sol.Problem.build(mesh, model, wells, rc)


# ---------------------------------------------------------------------------
# projection / classification algebra
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(vals=node_values, alpha0=st.floats(min_value=0.05, max_value=10.0),
       qhat=st.floats(min_value=0.1, max_value=5.0))
def test_projection_clamps_exactly(vals, alpha0, qhat):
    g = np.asarray(vals)
    q = ctl.project_control(g, alpha0, qhat)
    assert (q >= 0.0).all() and (q <= qhat).all()
    inner = -g / alpha0
    interior = (inner > 0) & (inner < qhat)
    assert np.allclose(q[interior], inner[interior])


def test_projection_clamp_cases():
    assert ctl.project_control(np.array([1.0]), 1.0, 2.0)[0] == 0.0      # inner -1
    assert ctl.project_control(np.array([-3.0]), 1.0, 2.0)[0] == 2.0    # inner 3 > qhat
    assert ctl.project_control(np.array([-1.0]), 1.0, 2.0)[0] == 1.0    # interior


def test_projection_requires_positive_alpha0():
    with pytest.raises(ConfigError):
        ctl.project_control(np.zeros(3), 0.0, 1.0)


@settings(deadline=None, max_examples=60)
@given(vals=node_values, qhat=st.floats(min_value=0.1, max_value=5.0))
def test_classification_partitions(vals, qhat):
    v = np.asarray(vals)
    state = ctl.classify_active_sets(v, qhat)
    nl, nu, ni = state.counts()
    assert nl + nu + ni == v.size
    assert not (state.lower & state.upper).any()


def test_ties_are_inactive():
    state = ctl.classify_active_sets(np.array([0.0, 1.0, -0.1, 1.1]), 1.0)
    assert state.inactive[0] and state.inactive[1]
    assert state.lower[2] and state.upper[3]


@settings(deadline=None, max_examples=60)
@given(vals=node_values, alpha0=st.floats(min_value=0.05, max_value=10.0),
       qhat=st.floats(min_value=0.1, max_value=5.0))
def test_update_equals_projection(vals, alpha0, qhat):
    # the projection is the active-set update: 0 on lower, qhat on upper,
    # the unconstrained value elsewhere
    g = np.asarray(vals)
    v = -g / alpha0
    state = ctl.classify_active_sets(v, qhat)
    q = ctl.project_control(g, alpha0, qhat)
    assert (q[state.lower] == 0.0).all()
    assert (q[state.upper] == qhat).all()
    assert np.array_equal(q[state.inactive], v[state.inactive])


def test_set_equality_detection():
    a = ctl.classify_active_sets(np.array([-1.0, 0.5, 2.0]), 1.0)
    b = ctl.classify_active_sets(np.array([-2.0, 0.7, 1.5]), 1.0)
    c = ctl.classify_active_sets(np.array([0.5, 0.5, 2.0]), 1.0)
    assert a.same_sets(b)
    assert not a.same_sets(c)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def test_objective_zero_state_zero_control():
    prob = make_problem(c0=0.0)
    traj = sol.run_forward(prob, np.zeros(prob.rc.n_steps + 1))
    J, Js, Jc = ctl.objective(traj, prob.wells, prob.mesh)
    assert J == 0.0 and Js == 0.0 and Jc == 0.0


def test_objective_frozen_state_window_integral():
    # constant saturation: the state term collapses to (wtilde/2) c^2 |Omega|
    prob = make_problem(c0=0.0, wtilde=3.0)
    traj = sol.run_forward(prob, np.zeros(prob.rc.n_steps + 1))
    cbar = 0.8
    traj.C[:] = cbar
    J, Js, Jc = ctl.objective(traj, prob.wells, prob.mesh)
    assert Jc == 0.0
    assert Js == pytest.approx(0.5 * 3.0 * cbar**2 * prob.mesh.domain_area, rel=1e-12)


def test_objective_control_term_weights():
    prob = make_problem(wtilde=0.0, alpha0=2.0, c0=0.0)
    q = RNG.uniform(0.0, 1.0, prob.rc.n_steps + 1)
    traj = sol.run_forward(prob, q)
    _, _, Jc = ctl.objective(traj, prob.wells, prob.mesh)
    wts = ctl.time_weights(prob.rc.n_steps, prob.rc.dt)
    assert Jc == pytest.approx(0.5 * 2.0 * float(np.sum(wts * q**2)), rel=1e-13)


def test_objective_matches_dense_quadrature_oracle():
    # independent path: dense Gauss quadrature in space, explicit loop in time
    from porous_opt.quadrature import QuadratureRule

    prob = make_problem(n=4, m_steps=2, n_steps=4, wtilde=2.0, c0=0.4)
    q = np.full(prob.rc.n_steps + 1, 0.6)
    traj = sol.run_forward(prob, q)
    J, _, _ = ctl.objective(traj, prob.wells, prob.mesh)

    quad = QuadratureRule(tri_degree=5)
    verts = prob.mesh.tri_vertices()
    pts, w = quad.map_to_triangles(verts[:, 0], verts[:, 1], verts[:, 2])
    ref = 0.0
    for n in range(1, prob.rc.n_steps + 1):
        t = traj.fine_times[n]
        cvals = sol.P1DGField(prob.mesh, traj.C[n]).eval_at(pts)
        ref += 0.5 * prob.rc.dt * prob.wells.w(t) * float(np.einsum("tq,tq->", w, cvals**2))
        ref += 0.5 * prob.wells.alpha0 * prob.rc.dt * q[n] ** 2
    assert J == pytest.approx(ref, abs=1e-10)


# ---------------------------------------------------------------------------
# reduced gradient
# ---------------------------------------------------------------------------

def test_gradient_reduces_to_penalty_when_costates_vanish():
    prob = make_problem(wtilde=0.0, alpha0=1.7)
    q = RNG.uniform(0.1, 0.9, prob.rc.n_steps + 1)
    traj = sol.run_forward(prob, q)
    sol.run_adjoint(prob, traj)
    g = ctl.reduced_gradient_density(traj, prob.wells, prob.ws)
    assert np.allclose(g, 1.7 * q, atol=1e-12)


def test_gradient_requires_adjoint():
    prob = make_problem()
    traj = sol.run_forward(prob, np.full(prob.rc.n_steps + 1, 0.5))
    with pytest.raises(ConfigError):
        ctl.gradient_without_penalty(traj, prob.wells, prob.model, prob.ws)


def test_gradient_refuses_a_second_model():
    # f comes from the workspace's model: any other model object is refused
    # rather than mixed in
    prob = make_problem()
    traj = sol.run_forward(prob, np.full(prob.rc.n_steps + 1, 0.5))
    sol.run_adjoint(prob, traj)
    other = default_model()
    with pytest.raises(ConfigError, match="workspace's model"):
        ctl.gradient_without_penalty(traj, prob.wells, other, prob.ws)
    g = ctl.gradient_without_penalty(traj, prob.wells, prob.ws.model, prob.ws)
    assert np.isfinite(g).all()


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_zero_price_converges_to_zero_control_in_two_sweeps():
    prob = make_problem(wtilde=0.0)
    result = ctl.optimize(prob)
    assert result.converged
    assert result.iterations == 2
    assert np.array_equal(result.q, np.zeros(prob.rc.n_steps + 1))
    assert result.projected_gradient_residual <= 1e-12


def test_optimize_respects_bounds_exactly():
    prob = make_problem(n=4, m_steps=2, n_steps=4, wtilde=5.0, alpha0=0.01,
                        qhat=0.4)
    result = ctl.optimize(prob)
    assert (result.q >= 0.0).all() and (result.q <= 0.4).all()


def test_optimize_cap_returns_flagged_result():
    prob = make_problem(kmax=1)
    result = ctl.optimize(prob)
    assert not result.converged
    assert result.iterations == 1
    assert len(result.history) == 1


def test_variational_inequality_at_converged_control():
    prob = make_problem(n=6, m_steps=3, n_steps=6, wtilde=1.0, alpha0=0.5)
    result = ctl.optimize(prob)
    assert result.converged
    traj = result.trajectory
    g = ctl.reduced_gradient_density(traj, prob.wells, prob.ws)
    wts = ctl.time_weights(prob.rc.n_steps, prob.rc.dt)
    qhat = prob.wells.qhat
    for _ in range(100):
        q_tilde = RNG.uniform(0.0, qhat, result.q.size)
        assert float(np.sum(wts * g * (q_tilde - result.q))) >= -1e-8


def test_initial_guess_invariance_convex_dominated():
    # large alpha0 makes the fixed point strongly contracting
    kw = dict(n=4, m_steps=2, n_steps=4, wtilde=1.0, alpha0=20.0, qhat=1.0,
              q_tol=1e-12)
    r0 = ctl.optimize(make_problem(**kw), q0=np.zeros(5))
    r1 = ctl.optimize(make_problem(**kw), q0=np.ones(5))
    assert r0.converged and r1.converged
    wts = ctl.time_weights(4, 0.25)
    diff = np.sqrt(np.sum(wts * (r0.q - r1.q) ** 2))
    assert diff <= 1e-4


def test_history_records_every_sweep():
    prob = make_problem(n=4, m_steps=2, n_steps=4)
    result = ctl.optimize(prob)
    assert len(result.history) == result.iterations
    for k, h in enumerate(result.history):
        assert h["k"] == k
        assert np.isfinite(h["J"])


# ---------------------------------------------------------------------------
# Anderson mixing of the projected fixed-point map
# ---------------------------------------------------------------------------

MIXED_KW = dict(n=6, m_steps=3, n_steps=6, wtilde=1.0, alpha0=0.5)


def picard(prob, tol):
    """The unmixed loop q <- G(q) to ``tol``; returns (q, sweeps at which the
    optimizer's stopping rule first held)."""
    wells = prob.wells
    q = prob.q_initial()
    prev, stop_at = None, None
    for k in range(200):
        traj = sol.run_forward(prob, q)
        sol.run_adjoint(prob, traj)
        gwo = ctl.gradient_without_penalty(traj, wells, prob.model, prob.ws)
        state = ctl.classify_active_sets(-gwo / wells.alpha0, wells.qhat)
        q_new = ctl.project_control(gwo, wells.alpha0, wells.qhat)
        dq = float(np.max(np.abs(q_new - q)))
        if (stop_at is None and prev is not None and state.same_sets(prev)
                and dq <= prob.rc.q_tol):
            stop_at = k + 1
        q, prev = q_new, state
        if dq <= tol:
            return q, stop_at
    raise AssertionError("plain loop did not reach its tolerance")


def test_mixed_loop_matches_plain_loop_in_fewer_sweeps():
    prob = make_problem(**MIXED_KW)
    q_ref, plain_sweeps = picard(prob, 1e-12)
    result = ctl.optimize(prob)
    assert result.converged
    assert np.abs(result.q - q_ref).max() <= 1e-8
    assert result.iterations <= plain_sweeps


def test_mixing_history_reset_when_active_sets_change(monkeypatch):
    # from qhat/2 the first sweep finds a lower-active node that the second
    # no longer has; the difference across that change must not be mixed
    depths = []
    step = ctl.AndersonMixer.step

    def record(self, q, Gq):
        out = step(self, q, Gq)
        depths.append(self.depth)
        return out

    monkeypatch.setattr(ctl.AndersonMixer, "step", record)
    prob = make_problem(**MIXED_KW)
    result = ctl.optimize(prob)
    counts = [(h["n_lower"], h["n_upper"]) for h in result.history]
    changed = [k for k in range(1, len(counts)) if counts[k] != counts[k - 1]]
    assert changed and result.mixing_resets >= len(changed)
    for k in changed:
        assert depths[k] == 0
    assert max(depths) == ctl.ANDERSON_DEPTH


def test_anderson_mixer_solves_affine_map():
    # type-II Anderson on an affine contraction in R^3 with depth 3 reaches
    # the fixed point once three independent differences are stored
    A = np.array([[0.5, 0.2, 0.0], [0.1, 0.6, 0.3], [0.0, 0.2, 0.7]])
    b = np.array([1.0, -2.0, 0.5])
    x_star = np.linalg.solve(np.eye(3) - A, b)
    mixer = ctl.AndersonMixer()
    x = np.zeros(3)
    for _ in range(5):
        x = mixer.step(x, A @ x + b)
    assert np.abs(x - x_star).max() <= 1e-10
    mixer.reset()
    assert mixer.depth == 0
    assert np.array_equal(mixer.step(x, A @ x + b), A @ x + b)
