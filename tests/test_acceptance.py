"""End-to-end acceptance suite.

One test per criterion, each printing a PASS/FAIL line (visible with -s or
on failure).  Criteria:

 1. exact operator identities (duality, eta-norm equality) on three meshes
 2. gamma_h contraction and O(h) approximation rate
 3. divergence-free costate velocity along an adjoint run
 4. state mass-equation residuals and well-source balance
 5. manufactured-solution convergence of all six fields (L2 and broken H1)
 6. control convergence on the synthetic-optimum problem
 7. adjoint-vs-finite-difference gradient consistency: the adjoint gradient
    is the optimise-then-discretise one, so it matches the derivative of
    the discrete J only to O(dt) and its FD mismatch plateaus instead of
    forming a V; only the decoupled regime is exact
 8. active-set behavior on the quarter-five-spot regression problem
 9. byte-identical outputs across repeated runs and thread settings
"""

import time
from pathlib import Path

import numpy as np
import pytest

from porous_opt import fespaces as fes
from porous_opt import verify
from porous_opt.cli import main as cli_main
from porous_opt.config import parse_config
from porous_opt.control import optimize, time_weights
from porous_opt.mesh import read_mesh, square_mesh
from porous_opt.model import RunConfig, default_model, wells_from_tris
from porous_opt.solver import Problem, run_adjoint, run_forward

DATA = Path(__file__).resolve().parents[1] / "data"


def _report(num, name, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {tag} {detail}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_1_operator_identities():
    t0 = time.perf_counter()
    meshes = [
        ("square 8x8", square_mesh(8)),
        ("square 16x16", square_mesh(16)),
        ("unstructured", read_mesh(DATA / "unstructured_square.node",
                                   DATA / "unstructured_square.ele")),
    ]
    worst_brel = worst_eta = 0.0
    for label, mesh in meshes:
        rep = verify.operator_identity_suite(mesh, n_samples=100, label=label)
        worst_brel = max(worst_brel, rep.brel_max_rel)
        worst_eta = max(worst_eta, rep.eta_norm_max_rel)
        assert rep.passed, str(rep)
    elapsed = time.perf_counter() - t0
    _report(1, "operator identities",
            worst_brel <= 1e-12 and worst_eta <= 1e-12 and elapsed < 10.0,
            f"(brel {worst_brel:.1e}, eta {worst_eta:.1e}, {elapsed:.1f}s)")


def test_criterion_2_gamma_contraction_and_rate():
    from tests.test_fespaces import gamma_interp_error

    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_ratio = 0.0
    for n in (8, 16):
        mesh = square_mesh(n)
        from porous_opt.mesh import build_diamond_dual

        dd = build_diamond_dual(mesh)
        for _ in range(100):
            vals = rng.normal(size=mesh.num_edges)
            vals[mesh.boundary_edge] = 0.0
            v = fes.RT0Field(mesh, vals)
            gv = fes.gamma_h(v)
            ng = np.sqrt(np.einsum("c,ce,ce->", dd.cell_area, gv, gv))
            worst_ratio = max(worst_ratio, ng / fes.l2_norm(v))

    def smooth(p):
        return np.column_stack(
            [np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
             -np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])]
        )

    ns = (4, 8, 16, 32)
    errs = [gamma_interp_error(square_mesh(n), fes.RT0Field.interpolate(square_mesh(n), smooth))
            for n in ns]
    rate = verify.fit_rate([1.0 / n for n in ns], errs)
    elapsed = time.perf_counter() - t0
    _report(2, "gamma_h contraction and O(h) rate",
            worst_ratio <= 1.0 + 1e-12 and rate >= 0.9 and elapsed < 30.0,
            f"(max ratio {worst_ratio:.12f}, rate {rate:.3f}, {elapsed:.1f}s)")


def _quarter_five_spot_problem():
    spec = parse_config(DATA / "quarter_five_spot.cfg")
    return spec.build_problem()


def test_criterion_3_divergence_free_costate():
    prob = _quarter_five_spot_problem()
    q = prob.q_initial()
    traj = run_forward(prob, q)
    run_adjoint(prob, traj)
    div_max = traj.costate_div_max
    for m in range(prob.rc.m_steps + 1):
        d = fes.RT0Field(prob.mesh, traj.Ustar[m]).divergence().values
        div_max = max(div_max, float(np.abs(d).max()))
    _report(3, "divergence-free costate velocity", div_max <= 1e-10,
            f"(max |div U*| = {div_max:.2e})")


def test_criterion_4_state_mass_equation():
    from porous_opt.assembly import well_source_vector

    prob = _quarter_five_spot_problem()
    traj = run_forward(prob, prob.q_initial())
    interior = ~prob.mesh.boundary_edge
    worst_res = 0.0
    for m in range(prob.rc.m_steps + 1):
        F = well_source_vector(prob.wells, traj.q[m * prob.rc.substeps])
        r = F - prob.ws.B @ traj.U[m][interior]
        worst_res = max(worst_res, np.linalg.norm(r) / max(np.linalg.norm(F), 1.0))
    worst_sum = 0.0
    for qv in np.linspace(0.0, prob.wells.qhat, 5):
        F = well_source_vector(prob.wells, qv)
        worst_sum = max(worst_sum, abs(F.sum()))
    _report(4, "state mass equation", worst_res <= 1e-10 and worst_sum <= 1e-12,
            f"(residual {worst_res:.2e}, |sum F| {worst_sum:.2e})")


def test_criterion_5_manufactured_convergence():
    t0 = time.perf_counter()
    state = verify.manufactured_state_study(ns=(4, 8, 16, 32), T=1.0)
    costate = verify.manufactured_costate_study(ns=(4, 8, 16, 32), T=1.0)
    elapsed = time.perf_counter() - t0
    ok = state.passed and costate.passed and elapsed < 300.0
    if not ok:
        print(state)
        print(costate)
    rates = {**state.rates, **costate.rates}
    _report(5, "manufactured-solution convergence", ok,
            "(" + ", ".join(f"{k}={v:.2f}" for k, v in rates.items())
            + f", {elapsed:.0f}s)")


def test_criterion_6_control_convergence():
    t0 = time.perf_counter()
    report = verify.synthetic_control_study()
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 180.0
    if not ok:
        print(report)
    _report(6, "control convergence", ok,
            f"(rate {report.rates['q']:.3f}, {elapsed:.0f}s)")


def _desk_gradient_check(n, N, epsilon, steps):
    """Gradient check on the coupled desk problem with matched grids.

    Smooth feasible directions: the adjoint density and the discrete map
    approximate the same continuous gradient; white-noise directions probe
    only the node-placement gap.
    """
    from porous_opt.model import build_wells

    mesh = square_mesh(n)
    wells = build_wells(mesh, (0.1, 0.1), (0.9, 0.9), 0.05, T=1.0,
                        wtilde=0.5, epsilon=epsilon, alpha0=2.0, qhat=1.0)
    rc = RunConfig(T=1.0, m_steps=N, n_steps=N, c0=0.5)
    prob = Problem.build(mesh, default_model(), wells, rc)
    t = rc.fine_times()
    dirs = [0.3 * np.sin(np.pi * t),
            0.3 * np.sin(np.pi * t) * (0.5 + 0.5 * np.cos(np.pi * t))]
    return verify.gradient_check(prob, np.full(N + 1, 0.5), dirs, steps=steps)


def test_criterion_7_gradient_consistency():
    t0 = time.perf_counter()
    model = default_model()
    rng = np.random.default_rng(1)

    # decoupled regime: zero oil price makes J purely quadratic in q
    mesh = square_mesh(4)
    wells = wells_from_tris(mesh, [0], [mesh.num_triangles - 1], T=1.0, epsilon=0.1,
                            wtilde=0.0, alpha0=1.0)
    rc = RunConfig(T=1.0, m_steps=2, n_steps=4, c0=0.4)
    prob = Problem.build(mesh, model, wells, rc)
    q = np.full(5, 0.5)
    directions = [rng.uniform(-1.0, 1.0, 5) * 0.3]
    dec = verify.gradient_check(prob, q, directions, steps=np.array([1e-4]))
    decoupled_ok = dec.rel_errors.max() <= 1e-8

    # coupled regime: the mismatch is the O(dt) gap of the
    # optimise-then-discretise gradient, not a V in the FD step
    steps = np.array([1e-1, 1e-2, 1e-3, 1e-5, 1e-8, 1e-11, 1e-14])
    coup = _desk_gradient_check(16, 32, 2.0 / 32, steps)
    coupled_ok = coup.best_rel_error <= 1e-2

    # FD has converged: the worst mismatch is flat over the mid-range steps,
    # so the plateau is the adjoint gap, not FD truncation or round-off
    mid = coup.rel_errors.max(axis=0)[(steps <= 1e-2) & (steps >= 1e-8)]
    spread = float(mid.max() / mid.min())
    flat_ok = spread <= 1.05

    # the gap is a consistency error: at fixed h, with the observation
    # window fixed so every level discretises the same continuous problem,
    # each direction's gap shrinks at first order in dt.  A rate well above
    # one means the O(dt) part is cancelling against a bias that does not
    # shrink, so the rate is held within the 0.15 margin on both sides.
    # This confirms first-order consistency only: it cannot tell the
    # intended lag from another O(dt) term, nor see a bias much smaller
    # than the gap at the finest level.
    dts = np.array([1.0 / 16, 1.0 / 32, 1.0 / 64])
    gaps = np.array([
        _desk_gradient_check(8, round(1.0 / dt), 1.0 / 8,
                             np.array([1e-3, 1e-5])).rel_errors.min(axis=1)
        for dt in dts
    ])
    rates = [verify.fit_rate(dts, gaps[:, i]) for i in range(gaps.shape[1])]
    rate_ok = all(0.85 <= r <= 1.15 for r in rates)

    elapsed = time.perf_counter() - t0
    ok = decoupled_ok and coupled_ok and flat_ok and rate_ok
    if not ok:
        print(coup)
        print("adjoint-vs-FD gap per direction, n = 8, epsilon = 1/8:")
        for dt, g in zip(dts, gaps):
            print(f"  dt {dt:.4e}  " + "  ".join(f"{e:.4e}" for e in g))
    _report(7, "gradient consistency", ok,
            f"(decoupled {dec.rel_errors.max():.1e}, coupled best "
            f"{coup.best_rel_error:.1e}, plateau spread {spread:.4f}, rates "
            "in dt " + ", ".join(f"{r:.2f}" for r in rates)
            + f", {elapsed:.0f}s)")


def test_criterion_8_active_set_behavior():
    prob = _quarter_five_spot_problem()
    result = optimize(prob)
    qhat = prob.wells.qhat
    bounds_exact = bool((result.q >= 0.0).all() and (result.q <= qhat).all())
    ok = (
        result.converged
        and result.iterations <= 20
        and bounds_exact
        and result.projected_gradient_residual <= 1e-6
    )

    # zero oil price: q = 0 in exactly two sweeps
    mesh = square_mesh(8)
    wells0 = wells_from_tris(mesh, [0], [mesh.num_triangles - 1], T=1.0, epsilon=0.1, wtilde=0.0)
    rc0 = RunConfig(T=1.0, m_steps=2, n_steps=4, c0=0.5)
    res0 = optimize(Problem.build(mesh, model=default_model(), wells=wells0, rc=rc0))
    zero_ok = (res0.converged and res0.iterations == 2
               and np.array_equal(res0.q, np.zeros(5)))
    _report(8, "active-set behavior", ok and zero_ok,
            f"(iters {result.iterations}, pg residual "
            f"{result.projected_gradient_residual:.1e}, zero-price sweeps "
            f"{res0.iterations})")


def test_criterion_9_determinism(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "mesh = square\nn = 8\nT = 0.5\nm_steps = 2\nn_steps = 4\n"
        "sigma = 0.05\nx0 = 0.2 0.2\nx1 = 0.8 0.8\nkmax = 25\n"
    )
    outs = []
    for i, threads in enumerate((1, 4)):
        out = tmp_path / f"run{i}"
        code = cli_main(["optimize", "--config", str(cfg), "--out", str(out),
                         "--threads", str(threads)])
        assert code == 0
        outs.append(out)
    same = True
    for name in ("history.csv", "control.csv", "objective_terms.csv", "summary.csv"):
        paths = [o / name for o in outs if (o / name).exists()]
        if len(paths) == 2 and paths[0].read_bytes() != paths[1].read_bytes():
            same = False
    _report(9, "byte-identical outputs", same, "(optimize, --threads 1 vs 4)")
