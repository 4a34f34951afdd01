import numpy as np
import pytest

from porous_opt import control, mms, verify
from porous_opt.errors import ConfigError
from porous_opt.mesh import build_primal, square_mesh
from porous_opt.model import RunConfig, build_wells, default_model, wells_from_tris
from porous_opt.solver import MMSSources, Problem, run_forward


def jittered_square(n=6, amp=0.45, seed=9):
    """square_mesh(n) with each interior vertex moved by up to ``amp`` h per axis;
    the default gives non-convex diamond cells (quality ratio 2.57)."""
    mesh = square_mesh(n)
    ij = np.rint(mesh.vertices * n)
    inner = np.flatnonzero(((ij > 0) & (ij < n)).all(axis=1))
    verts = mesh.vertices.copy()
    verts[inner] += np.random.default_rng(seed).uniform(-amp, amp, (inner.size, 2)) / n
    jittered = build_primal(verts, mesh.triangles)
    assert np.array_equal(jittered.triangles, mesh.triangles)  # none turned over
    return jittered


def test_operator_suite_passes_small():
    report = verify.operator_identity_suite(square_mesh(4), n_samples=25, label="4x4")
    assert report.passed
    assert report.brel_max_rel <= 1e-12
    assert report.contraction_max_ratio <= 1.0 + 1e-12


def test_operator_suite_passes_on_non_convex_diamond_cells():
    report = verify.operator_identity_suite(jittered_square(), label="jittered 6x6")
    assert report.passed
    assert report.brel_max_rel <= 1e-12


def test_constant_fields_reproduced_exactly():
    # constant exact fields: zero velocity, zero-mean (zero) pressure, and a
    # constant saturation have vanishing sources; the scheme reproduces them
    # to solver tolerance on every level
    model = default_model()
    for n in (4, 8):
        mesh = square_mesh(n)
        wells = wells_from_tris(mesh, [0], [mesh.num_triangles - 1], T=1.0, epsilon=0.1,
                                wtilde=0.0)
        rc = RunConfig(T=1.0, m_steps=n, n_steps=n, c0=0.42)
        prob = Problem.build(mesh, model, wells, rc)
        traj = run_forward(prob, np.zeros(n + 1))
        assert np.abs(traj.C - 0.42).max() < 1e-10
        assert np.abs(traj.U).max() < 1e-10
        assert np.abs(traj.P).max() < 1e-10


def test_zero_costate_study_case():
    # zero terminal data and zero sources give identically zero costates
    model = default_model()
    mesh = square_mesh(4)
    wells = wells_from_tris(mesh, [0], [mesh.num_triangles - 1], T=1.0, epsilon=0.1, wtilde=0.0)
    rc = RunConfig(T=1.0, m_steps=4, n_steps=4, c0=0.3)
    prob = Problem.build(mesh, model, wells, rc)
    traj = run_forward(prob, np.zeros(5))
    from porous_opt.solver import run_adjoint

    run_adjoint(prob, traj)
    assert np.abs(traj.Cstar).max() < 1e-12
    assert np.abs(traj.Ustar).max() < 1e-12


def test_state_study_two_levels_smoke():
    report = verify.manufactured_state_study(ns=(4, 8))
    # two levels: rates computable, errors decrease
    assert report.levels[0]["c"] > report.levels[1]["c"]
    assert report.levels[0]["u"] > report.levels[1]["u"]


def test_rate_fit():
    hs = [0.5, 0.25, 0.125]
    errs = [0.4, 0.2, 0.1]
    assert verify.fit_rate(hs, errs) == pytest.approx(1.0, abs=1e-12)


def test_convergence_report_formatting():
    rep = verify.ConvergenceReport("demo", [
        {"h": 0.5, "dt": 0.5, "e": 0.2},
        {"h": 0.25, "dt": 0.25, "e": 0.1},
    ]).finalize()
    text = str(rep)
    assert "demo" in text and "rates" in text
    assert rep.rates["e"] == pytest.approx(1.0, abs=1e-12)


def test_gradient_check_decoupled_exact():
    model = default_model()
    mesh = square_mesh(4)
    wells = wells_from_tris(mesh, [0], [mesh.num_triangles - 1], T=1.0, epsilon=0.1,
                            wtilde=0.0, alpha0=1.3)
    rc = RunConfig(T=1.0, m_steps=2, n_steps=4, c0=0.4)
    prob = Problem.build(mesh, model, wells, rc)
    q = np.full(5, 0.5)
    rng = np.random.default_rng(2)
    directions = [rng.uniform(-1, 1, 5) * 0.3]
    report = verify.gradient_check(prob, q, directions, steps=np.array([1e-4]))
    assert report.rel_errors.max() <= 1e-8


def test_undiluted_column_sees_a_state_gradient_fault(monkeypatch):
    # alpha0 = 2 at q = 0.5 makes the exact penalty part dominate the
    # directional derivative, which dilutes the gated mismatch; scaling the
    # state part of the gradient by 2 % must move the undiluted one more
    mesh = square_mesh(4)
    wells = build_wells(mesh, (0.1, 0.1), (0.9, 0.9), 0.05, T=1.0,
                        wtilde=0.5, epsilon=0.5, alpha0=2.0, qhat=1.0)
    rc = RunConfig(T=1.0, m_steps=4, n_steps=4, c0=0.5)
    prob = Problem.build(mesh, default_model(), wells, rc)
    dirs = [0.3 * np.sin(np.pi * rc.fine_times())]
    steps = np.array([1e-3, 1e-5])
    base = verify.gradient_check(prob, np.full(5, 0.5), dirs, steps)
    exact = control.gradient_without_penalty
    monkeypatch.setattr(verify, "gradient_without_penalty",
                        lambda *args: 1.02 * exact(*args))
    faulty = verify.gradient_check(prob, np.full(5, 0.5), dirs, steps)
    gated = abs(faulty.best_rel_error - base.best_rel_error)
    undiluted = abs(faulty.best_undiluted_rel_error - base.best_undiluted_rel_error)
    assert undiluted > 10.0 * gated
    assert "undiluted" in str(base)


def test_gradient_check_requires_interior_control():
    model = default_model()
    mesh = square_mesh(4)
    wells = wells_from_tris(mesh, [0], [mesh.num_triangles - 1], T=1.0, epsilon=0.1)
    rc = RunConfig(T=1.0, m_steps=2, n_steps=4)
    prob = Problem.build(mesh, model, wells, rc)
    q = np.zeros(5)  # on the boundary of the box
    with pytest.raises(ConfigError):
        verify.gradient_check(prob, q, [np.ones(5)], steps=np.array([1e-3]))


def test_synthetic_optimum_interior():
    syn = mms.SyntheticOptimum.build(default_model(), 1.0, 1.0, 2.0)
    qs = syn.q_exact_vector(np.linspace(0, 1, 33))
    assert qs.min() > 0.0 and qs.max() < 2.0
