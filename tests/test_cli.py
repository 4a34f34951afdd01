import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from porous_opt.cli import main
from porous_opt.config import RunSpec, parse_config, parse_config_text
from porous_opt.errors import ConfigError

DATA = Path(__file__).resolve().parents[1] / "data"


SMALL_CFG = """\
mesh = square
n = 4
T = 0.5
m_steps = 2
n_steps = 4
wtilde = 1.0
sigma = 0.1
x0 = 0.2 0.2
x1 = 0.8 0.8
kmax = 25
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return path


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

def test_empty_config_is_all_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    spec = parse_config(path)
    assert spec == RunSpec()


def test_negative_xi_names_key():
    with pytest.raises(ConfigError, match="xi"):
        parse_config_text("xi = -1\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_config_text("frobnicate = 3\n")


def test_type_mismatch_names_key():
    with pytest.raises(ConfigError, match="n_steps"):
        parse_config_text("n_steps = lots\n")


def test_cross_field_validation():
    with pytest.raises(ConfigError, match="n_steps"):
        parse_config_text("m_steps = 3\nn_steps = 4\n")
    with pytest.raises(ConfigError, match="q_init"):
        parse_config_text("qhat = 1.0\nq_init = 2.0\n")
    with pytest.raises(ConfigError, match="n_steps"):
        dataclasses.replace(RunSpec(), m_steps=3)


def test_config_round_trip_through_resolve():
    spec = parse_config(DATA / "quarter_five_spot.cfg")
    resolved = spec.resolved()
    reparsed = parse_config_text(resolved.to_text())
    assert reparsed == resolved
    # resolving is idempotent
    assert reparsed.resolved() == resolved


def test_comments_and_blank_lines():
    spec = parse_config_text("# comment\n\nn = 8  # trailing\n")
    assert spec.n == 8


# ---------------------------------------------------------------------------
# subcommands and exit codes
# ---------------------------------------------------------------------------

def test_mesh_info_two_triangle(tmp_path, capsys):
    node = tmp_path / "m.node"
    ele = tmp_path / "m.ele"
    node.write_text("4 2\n0 0 0\n1 1 0\n2 1 1\n3 0 1\n")
    ele.write_text("2 3\n0 0 1 2\n1 0 2 3\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"mesh = files\nnodes_file = {node}\nelems_file = {ele}\n")
    code = main(["mesh-info", "--config", str(cfg)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "triangles:       2" in captured
    assert "edges:           5" in captured


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("xi = -1\n")
    code = main(["mesh-info", "--config", str(bad)])
    assert code == 2
    assert "xi" in capsys.readouterr().err


def _with(base, override):
    """Config text ``base`` without the keys ``override`` sets, then ``override``."""
    keys = {line.partition("=")[0].strip() for line in override.splitlines()}
    kept = [line for line in base.splitlines() if line.partition("=")[0].strip() not in keys]
    return "\n".join(kept) + "\n" + override


@pytest.mark.parametrize("bad, message", [
    ("tri_quad_degree = 3\n", "triangle quadrature degree 3 unavailable"),
    ("x0 = 1.5 0.5\n", "well at [1.5, 0.5] lies outside the domain"),
    # auto epsilon = 2 dt exceeds T
    ("m_steps = 1\nn_steps = 1\n", "epsilon must lie in (0, T]"),
    # J would be nan
    ("wtilde = nan\n", "wtilde: expected a finite number, got 'nan'"),
    # flips the sign of the terminal term
    ("wtilde = -1\n", "wtilde (oil price) must be finite and >= 0"),
    # J = nan, and NaN in status.json
    ("alpha0 = inf\n", "alpha0: expected a finite number, got 'inf'"),
    # switches every residual check off
    ("solver_tol = inf\n", "solver_tol: expected a finite number, got 'inf'"),
    ("qhat = inf\n", "qhat: expected a finite number, got 'inf'"),
    ("xi = inf\n", "xi: expected a finite number or auto, got 'inf'"),
    ("T = inf\n", "T: expected a finite number, got 'inf'"),
    ("delta_floor = inf\n", "delta_floor: expected a finite number, got 'inf'"),
    ("epsilon = -inf\n", "epsilon: expected a finite number or auto, got '-inf'"),
    ("x1 = 0.8 nan\n", "x1: expected two finite coordinates, got '0.8 nan'"),
    ("n = 4\nT = 0.5\n\nn = 8\n", "key 'n' given twice (lines 9 and 12)"),
], ids=["quad_degree", "well_outside", "auto_epsilon", "wtilde_nan",
        "wtilde_negative", "alpha0_inf", "solver_tol_inf", "qhat_inf", "xi_inf",
        "T_inf", "delta_floor_inf", "epsilon_minus_inf", "x1_nan", "repeated_key"])
def test_resolve_and_run_reject_alike(bad, message, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_with(SMALL_CFG, bad))
    assert main(["config", "--resolve", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 2
    status = json.loads((out / "status.json").read_text())
    assert status["status"] == "error" and status["exit_code"] == 2
    assert message in status["error"]


@pytest.mark.parametrize("content, message", [
    (None, "config file "),
    (b"n = 4\n\xff\xfe = 3\n", "unknown key '\ufffd\ufffd' (line 2)"),
], ids=["missing_file", "not_utf8"])
def test_unreadable_config_is_a_configuration_error(tmp_path, capsys, content, message):
    cfg = tmp_path / "c.cfg"
    if content is not None:
        cfg.write_bytes(content)
    out = tmp_path / "out"
    assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err
    status = json.loads((out / "status.json").read_text())
    assert status["status"] == "error" and status["exit_code"] == 2


@pytest.mark.parametrize("option, value, message", [
    ("--threads", "0", "--threads must be >= 1"),
    ("--save-every", "-1", "--save-every must be >= 0"),
    ("--dump-matrices", "afile", "--dump-matrices {afile}: cannot create the directory"),
    ("--out", "afile", "--out {afile}: cannot create the directory"),
], ids=["zero_threads", "negative_save_every", "dump_matrices_is_a_file", "out_is_a_file"])
def test_unusable_option_is_a_configuration_error(tmp_path, capsys, option, value, message):
    # each is refused before the run starts; status.json goes into --out
    # unless --out itself cannot be a directory
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    args = {"--out": str(tmp_path / "out"), option: value.replace("afile", str(afile))}
    assert main(["forward", *(word for pair in args.items() for word in pair)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: " + message.format(afile=afile)), err
    assert afile.read_text() == "kept\n"
    if option != "--out":
        out = tmp_path / "out"
        assert not (out / "summary.csv").exists()
        status = json.loads((out / "status.json").read_text())
        assert status["status"] == "error" and status["exit_code"] == 2
        assert message.split(" ")[0] in status["error"]


TINY_CFG = "n = 4\nm_steps = 2\nn_steps = 4\n"


def test_solver_failure_exits_1_with_status(tmp_path, capsys):
    # no solve reaches a relative residual of 1e-300
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY_CFG + "solver_tol = 1e-300\n")
    out = tmp_path / "out"
    assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("solver error: Darcy solve at coarse step 0")
    status = json.loads((out / "status.json").read_text())
    assert status["status"] == "error" and status["exit_code"] == 1


@pytest.mark.parametrize("node, ele, message", [
    (None, "1 3\n0 0 1 2\n", "nodes_file = "),
    ("3\n0 0 0\n1 1 0\n2 0 1\n", "1 3\n0 0 1 2\n", "m.node, line 1: "),
    ("3 2\n0 0 0\n1 1 x\n2 0 1\n", "1 3\n0 0 1 2\n", "m.node, line 3: "),
    ("3 2\n0 0 0\n1 1 1\n2 2 2\n", "1 3\n0 0 1 2\n",
     "m.ele: degenerate triangle(s) at indices [0]"),
    ("5 2\n0 0 0\n1 1 0\n2 1 1\n3 0 1\n4 2 0\n", "3 3\n0 0 1 2\n1 0 2 3\n2 0 2 4\n",
     "m.ele: edge (0, 2) shared by more than two triangles"),
    # both triangles run edge (0, 1) from 0 to 1, so both lie above it
    ("4 2\n0 0 0\n1 1 0\n2 0 1\n3 0.5 0.2\n", "2 3\n0 0 1 2\n1 0 1 3\n",
     "m.ele: 1 folded edge(s): edge (0, 1) has triangles 0 and 1 on the same side"),
], ids=["missing_file", "header_without_width", "non_numeric_coordinate",
        "degenerate_triangle", "edge_shared_by_three_triangles", "folded"])
def test_broken_mesh_file_is_a_named_error(tmp_path, capsys, node, ele, message):
    # a mesh file that cannot be read, parsed or triangulated ends the run
    # with a configuration error naming the key or the file (and line), and
    # a status.json, not a traceback
    if node is not None:
        (tmp_path / "m.node").write_text(node)
    (tmp_path / "m.ele").write_text(ele)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"mesh = files\nnodes_file = {tmp_path / 'm.node'}\n"
                   f"elems_file = {tmp_path / 'm.ele'}\nT = 0.5\nm_steps = 2\nn_steps = 4\n")
    out = tmp_path / "out"
    assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err and "Traceback" not in err
    status = json.loads((out / "status.json").read_text())
    assert status["status"] == "error" and status["exit_code"] == 2
    assert message in status["error"]


def test_forward_writes_outputs(small_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["forward", "--config", str(small_cfg), "--out", str(out),
                 "--save-every", "2"])
    assert code == 0
    assert (out / "summary.csv").exists()
    assert (out / "objective_terms.csv").exists()
    assert (out / "status.json").exists()
    assert (out / "saturation_00000.vtk").exists()
    status = json.loads((out / "status.json").read_text())
    assert status["status"] == "ok" and status["exit_code"] == 0
    # provenance header present
    head = (out / "summary.csv").read_text().splitlines()[:3]
    assert any(line.startswith("# config_sha256=") for line in head)
    assert any(line.startswith("# mesh_sha256=") for line in head)


def test_adjoint_reports_divergence(small_cfg, tmp_path):
    out = tmp_path / "out"
    code = main(["adjoint", "--config", str(small_cfg), "--out", str(out)])
    assert code == 0
    status = json.loads((out / "status.json").read_text())
    assert status["costate_div_max"] <= 1e-10


def test_optimize_hitting_cap_exits_3_with_results(tmp_path):
    cfg = tmp_path / "cap.cfg"
    cfg.write_text(_with(SMALL_CFG, "kmax = 1\n"))
    out = tmp_path / "out"
    code = main(["optimize", "--config", str(cfg), "--out", str(out)])
    assert code == 3
    assert (out / "history.csv").exists()
    assert (out / "control.csv").exists()
    status = json.loads((out / "status.json").read_text())
    assert status["exit_code"] == 3 and status["converged"] is False


def test_optimize_status_reports_mixing_resets(small_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(small_cfg), "--out", str(out)]) == 0
    status = json.loads((out / "status.json").read_text())
    assert isinstance(status["mixing_resets"], int)
    assert 0 <= status["mixing_resets"] < status["iterations"]
    header = [l for l in (out / "history.csv").read_text().splitlines()
              if not l.startswith("#")][0]
    assert header == "k,J,n_lower,n_upper,dq_norm"


def test_optimize_converges_small(small_cfg, tmp_path):
    out = tmp_path / "out"
    code = main(["optimize", "--config", str(small_cfg), "--out", str(out)])
    assert code == 0
    rows = [l for l in (out / "control.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert rows[0] == "t,q"
    assert len(rows) == 1 + 5  # header + N+1 nodes


def test_dump_matrices(small_cfg, tmp_path):
    out = tmp_path / "out"
    dump = tmp_path / "mats"
    code = main(["forward", "--config", str(small_cfg), "--out", str(out),
                 "--dump-matrices", str(dump)])
    assert code == 0
    for name in ("A", "B", "D", "E", "H", "F", "G"):
        assert (dump / f"{name}.mtx").exists()

    # the files read back as the first step's matrices, at the velocity U0 of
    # the node-0 Darcy solve, every stored slot (explicit zeros of the
    # saturation pattern included) listed
    import scipy.io as sio

    from porous_opt.assembly import assemble_darcy, assemble_saturation_state
    from porous_opt.fespaces import P1DGField, RT0Field
    from porous_opt.solver import run_forward

    prob = parse_config(small_cfg).build_problem()
    traj = run_forward(prob, prob.q_initial())
    c0 = P1DGField(prob.mesh, prob.c0_values)
    A, _ = assemble_darcy(c0, prob.wells, traj.q[0], prob.ws)
    E, H, _ = assemble_saturation_state(c0, RT0Field(prob.mesh, traj.U[0]), prob.wells,
                                        traj.q[1], prob.ws, prob.xi)
    assert np.abs(E.toarray()).max() > 0.0
    for name, mat in (("A", A), ("B", prob.ws.B), ("D", prob.ws.D), ("E", E), ("H", H)):
        back = sio.mmread(dump / f"{name}.mtx")
        assert back.nnz == mat.nnz
        assert np.array_equal(back.toarray(), mat.toarray())


def test_config_show_defaults(capsys):
    code = main(["config", "--show-defaults"])
    assert code == 0
    text = capsys.readouterr().out
    assert "mesh = square" in text
    assert "xi = auto" in text


@pytest.mark.parametrize("exists", [True, False], ids=["readable", "missing"])
def test_show_defaults_refuses_a_config(tmp_path, capsys, exists):
    # the defaults are those of no file, whether or not the file can be read
    cfg = tmp_path / "c.cfg"
    if exists:
        cfg.write_text(SMALL_CFG)
    assert main(["config", "--show-defaults", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: --show-defaults ")
    assert "--config" in captured.err


def test_config_resolve(small_cfg, capsys):
    code = main(["config", "--resolve", "--config", str(small_cfg)])
    assert code == 0
    text = capsys.readouterr().out
    spec = parse_config_text(text)
    assert spec.xi is not None and spec.epsilon is not None


def test_verify_operators_cli(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("mesh = square\nn = 4\n")
    out = tmp_path / "out"
    code = main(["verify", "--suite", "operators", "--config", str(cfg),
                 "--out", str(out)])
    assert code == 0
    lines = [line for line in (out / "verify_operators.csv").read_text().splitlines()
             if not line.startswith("#")]
    assert lines[0] == ("brel_max_rel,eta_norm_max_rel,contraction_max_ratio,"
                        "costate_div_max,penalty_asymmetry,penalty_min_eig,passed")


def test_verify_gradient_cli(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY_CFG)
    out = tmp_path / "out"
    code = main(["verify", "--suite", "gradient", "--config", str(cfg), "--out", str(out)])
    status = json.loads((out / "status.json").read_text())
    assert code == (0 if status["passed"] else 1)
    assert status["status"] == ("ok" if status["passed"] else "failed")
    lines = [line for line in (out / "verify_gradient.csv").read_text().splitlines()
             if not line.startswith("#")]
    assert lines[0] == "step,max_rel_mismatch"
    assert len(lines) == 1 + 7


def test_determinism_across_thread_flag(small_cfg, tmp_path):
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["forward", "--config", str(small_cfg), "--out", str(out1),
                 "--threads", "1"]) == 0
    assert main(["forward", "--config", str(small_cfg), "--out", str(out2),
                 "--threads", "4"]) == 0
    for name in ("summary.csv", "objective_terms.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# each command with the options it reads nothing from, and valid arguments
# for the rest of its command line
_BASE_ARGS = {"mesh-info": [], "config": ["--resolve"], "verify": ["--suite", "operators"]}
_UNREAD = {"mesh-info": ("--out", "--save-every", "--threads", "--dump-matrices"),
           "config": ("--out", "--save-every", "--threads", "--dump-matrices"),
           "verify": ("--save-every", "--threads", "--dump-matrices")}
_VALUES = {"--out": "made", "--save-every": "4", "--threads": "3", "--dump-matrices": "made"}


@pytest.mark.parametrize("command, option", [(c, o) for c, opts in _UNREAD.items()
                                             for o in opts])
def test_command_refuses_an_option_it_does_not_read(tmp_path, monkeypatch, capsys,
                                                    command, option):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, *_BASE_ARGS[command], option, _VALUES[option]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# records the thread variables at the moment numpy is first imported
_PROBE = """
import json, os, sys
VARS = {vars!r}
seen = {{}}


class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({{v: os.environ.get(v) for v in VARS}})


sys.meta_path.insert(0, Probe())
import porous_opt.cli
print(json.dumps(seen))
"""


@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "3"}], ids=["unset", "set"])
def test_cli_pins_blas_threads_before_numpy_loads(preset):
    # importing the CLI sets each BLAS thread count to 1 before numpy loads
    # BLAS, and keeps a count the environment already gives
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(DATA.parent / "src"), env.get("PYTHONPATH", "")])
    env.update(preset)
    res = subprocess.run([sys.executable, "-c", _PROBE.format(vars=_BLAS_VARS)], env=env,
                         capture_output=True, text=True, check=True)
    seen = json.loads(res.stdout)
    assert seen == {v: preset.get(v, "1") for v in _BLAS_VARS}
