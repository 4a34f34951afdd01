"""Command-line interface: mesh-info, forward, adjoint, optimize, verify,
config.

Each command takes only the options it reads, and refuses any other with
exit 2:

- ``mesh-info``: ``--config``;
- ``config``: ``--config`` and one of ``--show-defaults`` (which takes no
  ``--config``) and ``--resolve``;
- ``verify``: ``--config``, ``--out`` and ``--suite``;
- ``forward``, ``adjoint`` and ``optimize``: ``--config``, ``--out``,
  ``--save-every``, ``--threads`` and ``--dump-matrices``.

Exit codes: 0 success, 1 solver failure or a failed verification check,
2 configuration error, 3 optimizer hit its iteration cap (results are still
written).  Every command that takes ``--out`` drops a machine-readable
``status.json`` into that directory, with status "ok", "failed" (a check
that did not pass), "warning" (the cap) or "error".  The log level comes
from the ``POROUS_OPT_LOG`` environment variable.  BLAS runs on one thread
unless ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS``
say otherwise: the per-step products of the assembly kernels are too small
to gain from more, and OpenBLAS's thread start-up dominates them (at n = 64
the saturation state assembly took 63.5 ms per call on two threads against
33.0 ms on one, on a 2-core host).
"""

import argparse
import logging
import os
import sys
from pathlib import Path

# the counts are read when numpy loads BLAS, so they are set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from .config import RunSpec, parse_config  # noqa: E402
from .control import objective, objective_integrands, optimize  # noqa: E402
from .errors import ConfigError, PorousOptError  # noqa: E402
from .fespaces import P0Field, P1DGField, RT0Field  # noqa: E402
from .io import (  # noqa: E402
    mesh_hash,
    sha256_of_text,
    write_csv,
    write_status,
    write_vtk,
)
from .solver import run_adjoint, run_forward  # noqa: E402

log = logging.getLogger("porous_opt")

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3


def _setup_logging():
    level = os.environ.get("POROUS_OPT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def build_parser():
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", type=str, default=None, help="run configuration file")
    output = argparse.ArgumentParser(add_help=False, parents=[config])
    output.add_argument("--out", type=str, default="out", help="output directory")
    run = argparse.ArgumentParser(add_help=False, parents=[output])
    run.add_argument("--save-every", type=int, default=0, metavar="K",
                     help="write VTK snapshots every K saturation steps")
    run.add_argument("--threads", type=int, default=1,
                     help="accepted and checked (>= 1), but sets no thread "
                          "count: the adjoint factors its step matrices on one "
                          "helper thread whatever the value, and the outputs "
                          "are the same for every value")
    run.add_argument("--dump-matrices", type=str, default=None, metavar="DIR",
                     help="dump the first step's matrices of the reported "
                          "run in MatrixMarket format: A and F at (C0, q0), "
                          "E, H and G at (C0, U0, q1), and the fixed B and D")

    parser = argparse.ArgumentParser(
        prog="porous-opt",
        description="Finite-volume-element solver and active-set optimizer "
                    "for water-injection control in two-phase porous media flow.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("mesh-info", parents=[config], help="print mesh counts and quality"
                   ).set_defaults(handler=cmd_mesh_info)
    sub.add_parser("forward", parents=[run], help="run the forward state sweep"
                   ).set_defaults(handler=cmd_forward)
    sub.add_parser("adjoint", parents=[run], help="run forward + adjoint sweeps"
                   ).set_defaults(handler=lambda a, s: cmd_forward(a, s, adjoint=True))
    sub.add_parser("optimize", parents=[run], help="run the active-set control iteration"
                   ).set_defaults(handler=cmd_optimize)
    ver = sub.add_parser("verify", parents=[output], help="run a verification suite")
    ver.add_argument("--suite", required=True,
                     choices=("operators", "state", "costate", "control", "gradient"))
    ver.set_defaults(handler=cmd_verify)
    cfg = sub.add_parser("config", parents=[config], help="inspect configuration")
    group = cfg.add_mutually_exclusive_group(required=True)
    group.add_argument("--show-defaults", action="store_true",
                       help="print the built-in defaults; takes no --config")
    group.add_argument("--resolve", action="store_true",
                       help="print the configuration with every auto value made explicit")
    cfg.set_defaults(handler=cmd_config)
    return parser


def _provenance(spec, mesh=None):
    prov = {"config_sha256": sha256_of_text(spec.resolved().to_text())}
    if mesh is not None:
        prov["mesh_sha256"] = mesh_hash(mesh)
    return prov


def _dump_matrices(problem, traj, out_dir):
    """Write the first step's matrices of the swept trajectory ``traj``."""
    import scipy.io as sio

    from .assembly import assemble_darcy, assemble_saturation_state

    out, ws = Path(out_dir), problem.ws
    c_field = P1DGField(problem.mesh, traj.C[0])
    A, F = assemble_darcy(c_field, problem.wells, traj.q[0], ws)
    E, H, G = assemble_saturation_state(
        c_field, RT0Field(problem.mesh, traj.U[0]), problem.wells, traj.q[1], ws, problem.xi,
    )
    for name, mat in (("A", A), ("B", ws.B), ("D", ws.D), ("E", ws.dual_matrix(E)),
                      ("H", ws.dual_matrix(*H))):
        sio.mmwrite(str(out / f"{name}.mtx"), mat)
    for name, vec in (("F", F), ("G", G)):
        sio.mmwrite(str(out / f"{name}.mtx"), vec.reshape(-1, 1))
    log.info("matrix dumps written to %s", out)


def _make_dir(option, path):
    """Create the directory ``path`` that ``option`` names, or raise a
    :class:`ConfigError` naming both."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{option} {path}: cannot create the directory "
                          f"({exc.strerror})") from exc


def _snapshot(problem, traj, out, prov, every):
    if every <= 0:
        return
    for n in range(0, problem.rc.n_steps + 1, every):
        fields = {"saturation": P1DGField(problem.mesh, traj.C[n])}
        if traj.has_costate:
            fields["costate_saturation"] = P1DGField(problem.mesh, traj.Cstar[n])
        write_vtk(out / f"saturation_{n:05d}.vtk", problem.mesh, fields, prov)
    for m in range(problem.rc.m_steps + 1):
        fields = {
            "pressure": P0Field(problem.mesh, traj.P[m]),
            "velocity": RT0Field(problem.mesh, traj.U[m]),
        }
        if traj.has_costate:
            fields["costate_pressure"] = P0Field(problem.mesh, traj.Pstar[m])
            fields["costate_velocity"] = RT0Field(problem.mesh, traj.Ustar[m])
        write_vtk(out / f"darcy_{m:05d}.vtk", problem.mesh, fields, prov)


def _write_step_objective(problem, traj, out, prov):
    state, control = objective_integrands(traj, problem.wells, problem.mesh)
    write_csv(out / "objective_terms.csv",
              ("n", "t", "state_integrand", "control_integrand"),
              zip(range(state.size), traj.fine_times, state, control), prov)


def cmd_mesh_info(args, spec):
    mesh = spec.build_mesh()
    print(f"vertices:        {mesh.num_vertices}")
    print(f"triangles:       {mesh.num_triangles}")
    print(f"edges:           {mesh.num_edges} "
          f"({len(mesh.interior_edges)} interior)")
    print(f"area:            {mesh.domain_area:.12g}")
    print(f"h:               {mesh.h:.12g}")
    print(f"quality ratio:   {mesh.quality_ratio:.12g}")
    return EXIT_OK, {}


def cmd_forward(args, spec, adjoint=False):
    problem = spec.build_problem()
    out = Path(args.out)
    prov = _provenance(spec, problem.mesh)
    traj = run_forward(problem, problem.q_initial())
    if args.dump_matrices:
        _dump_matrices(problem, traj, args.dump_matrices)
    extra = {}
    if adjoint:
        run_adjoint(problem, traj)
        extra["costate_div_max"] = traj.costate_div_max
        write_csv(out / "costate_summary.csv", ("costate_div_max",),
                  [(traj.costate_div_max,)], prov)
    J, J_state, J_control = objective(traj, problem.wells, problem.mesh)
    _write_step_objective(problem, traj, out, prov)
    _snapshot(problem, traj, out, prov, args.save_every)
    write_csv(out / "summary.csv", ("J", "J_state", "J_control"),
              [(J, J_state, J_control)], prov)
    print(f"J = {J:.12g} (state {J_state:.12g}, control {J_control:.12g})")
    return EXIT_OK, extra


def cmd_optimize(args, spec):
    problem = spec.build_problem()
    out = Path(args.out)
    prov = _provenance(spec, problem.mesh)
    result = optimize(problem)
    if args.dump_matrices:
        _dump_matrices(problem, result.trajectory, args.dump_matrices)
    write_csv(out / "history.csv", ("k", "J", "n_lower", "n_upper", "dq_norm"),
              [(h["k"], h["J"], h["n_lower"], h["n_upper"], h["dq_norm"])
               for h in result.history], prov)
    write_csv(out / "control.csv", ("t", "q"),
              list(zip(result.trajectory.fine_times, result.q)), prov)
    _write_step_objective(problem, result.trajectory, out, prov)
    _snapshot(problem, result.trajectory, out, prov, args.save_every)
    J, _, _ = objective(result.trajectory, problem.wells, problem.mesh)
    print(f"iterations: {result.iterations}  converged: {result.converged}")
    print(f"J = {J:.12g}  projected-gradient residual = "
          f"{result.projected_gradient_residual:.3e}")
    extra = {
        "iterations": result.iterations,
        "mixing_resets": result.mixing_resets,
        "converged": result.converged,
        "projected_gradient_residual": result.projected_gradient_residual,
    }
    return (EXIT_OK if result.converged else EXIT_NOT_CONVERGED), extra


def cmd_verify(args, spec):
    from . import verify as ver

    out = Path(args.out)
    prov = _provenance(spec)
    if args.suite == "operators":
        mesh = spec.build_mesh()
        report = ver.operator_identity_suite(mesh, label=f"{spec.mesh} mesh")
        rows = [(report.brel_max_rel, report.eta_norm_max_rel,
                 report.contraction_max_ratio, report.costate_div_max,
                 report.penalty_asymmetry, report.penalty_min_eig,
                 int(report.passed))]
        write_csv(out / "verify_operators.csv",
                  ("brel_max_rel", "eta_norm_max_rel", "contraction_max_ratio",
                   "costate_div_max", "penalty_asymmetry", "penalty_min_eig",
                   "passed"), rows, prov)
        print(report)
        return (EXIT_OK if report.passed else EXIT_SOLVER), {"passed": report.passed}
    if args.suite == "gradient":
        problem = spec.build_problem()
        qhat = problem.wells.qhat
        q = np.full(problem.rc.n_steps + 1, 0.5 * qhat)
        # smooth feasible direction: adjoint density and discrete map
        # approximate the same continuous directional derivative
        t = problem.rc.fine_times()
        directions = [0.3 * qhat * np.sin(np.pi * t / problem.rc.T)]
        steps = np.logspace(-1, -7, 7) * qhat * 0.1
        report = ver.gradient_check(problem, q, directions, steps)
        write_csv(out / "verify_gradient.csv", ("step", "max_rel_mismatch"),
                  list(zip(report.steps, report.rel_errors.max(axis=0))), prov)
        print(report)
        ok = report.best_rel_error <= 1e-2
        return (EXIT_OK if ok else EXIT_SOLVER), {"passed": ok}

    study = {
        "state": ver.manufactured_state_study,
        "costate": ver.manufactured_costate_study,
        "control": ver.synthetic_control_study,
    }[args.suite]
    report = study()
    rows = [tuple(lv.values()) for lv in report.levels]
    write_csv(out / f"verify_{args.suite}.csv", tuple(report.levels[0].keys()),
              rows, prov)
    print(report)
    return (EXIT_OK if report.passed else EXIT_SOLVER), {
        "passed": report.passed, "rates": report.rates,
    }


def cmd_config(args, spec):
    if args.show_defaults:
        print(RunSpec().to_text(), end="")
    else:
        spec.build_wells(spec.build_mesh())  # the well checks a run makes
        print(spec.resolved().to_text(), end="")
    return EXIT_OK, {}


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    status_path = None
    try:
        if "out" in args:
            _make_dir("--out", args.out)
            status_path = Path(args.out) / "status.json"
        if "threads" in args and args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        if "save_every" in args and args.save_every < 0:
            raise ConfigError("--save-every must be >= 0")
        if "dump_matrices" in args and args.dump_matrices:
            _make_dir("--dump-matrices", args.dump_matrices)  # before the run, not after it
        if "show_defaults" in args and args.show_defaults and args.config is not None:
            raise ConfigError(f"--show-defaults prints the built-in defaults and takes "
                              f"no --config (got {args.config})")
        spec = RunSpec() if args.config is None else parse_config(args.config)
        code, extra = args.handler(args, spec)
        if status_path is not None:
            status = {EXIT_OK: "ok", EXIT_SOLVER: "failed"}.get(code, "warning")
            write_status(status_path, status, code, extra=extra)
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        if status_path is not None:
            write_status(status_path, "error", EXIT_CONFIG, error=str(exc))
        return EXIT_CONFIG
    except PorousOptError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        if status_path is not None:
            write_status(status_path, "error", EXIT_SOLVER, error=str(exc))
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
