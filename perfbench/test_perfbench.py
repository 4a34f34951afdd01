"""Tests of the benchmark itself, on problems small enough to run in seconds.

    python3 -m pytest perfbench
"""

import dataclasses
import json

import numpy as np
import pytest

import run  # pins the BLAS threads and puts the checkout's src on the path
import calibrate
import spans
import workloads

TINY = {
    kind: workloads.Workload(f"tiny-{kind}", kind, n=4, m=2, N=4, setups=1)
    for kind in ("optimize", "sweep")
}
OTHER_SEED = workloads.DEFAULT_SEED + 7


def _solve(workload, seed=OTHER_SEED):
    problem = workloads.run_spec(workload, run.ROOT).build_problem()
    q = workloads.make_control(seed, workload.N, problem.wells.qhat)
    return workloads.solve(workload, problem, q)


def _traced(workload):
    tracer = spans.Tracer()
    with spans.patched(tracer, spans.layer_targets()):
        out = _solve(workload)
    metrics = spans.layer_metrics(
        tracer, outer_iterations=out.outer_iterations,
        saddles=list(out.trajectory.saddles.values()),
        plain_solve_s=1.0, traced_solve_s=1.0,
    )
    return out, metrics


def _arrays(out):
    traj = out.trajectory
    arrays = [np.asarray(out.vector), traj.C, traj.U, traj.P]
    if traj.has_costate:
        arrays += [traj.Cstar, traj.Ustar, traj.Pstar]
    return arrays


@pytest.mark.parametrize("kind", sorted(TINY))
def test_traced_calibrated_and_plain_outputs_are_bitwise_identical(kind):
    plain = _solve(TINY[kind])
    traced, _ = _traced(TINY[kind])
    clock = calibrate.Clock()
    with spans.patched(clock, calibrate.step_targets()):
        calibrated = _solve(TINY[kind])
    assert clock.samples
    for other in (traced, calibrated):
        assert plain.J == other.J
        for a, b in zip(_arrays(plain), _arrays(other), strict=True):
            assert a.tobytes() == b.tobytes()


def _counts(metrics):
    return {k: v for k, v in metrics.items()
            if k.endswith((".calls", ".lu_fill", ".calls_per_step", ".per_factor"))
            or k in ("control.outer_iterations", "control.sweeps", "solver.saddles_cached")}


@pytest.mark.parametrize("kind", sorted(TINY))
def test_layer_counts_repeat_exactly(kind):
    first, m1 = _traced(TINY[kind])
    _, m2 = _traced(TINY[kind])
    assert _counts(m1) == _counts(m2)
    assert set(m1) == set(spans.LAYER_METRICS)

    w = TINY[kind]
    sweeps = m1["control.sweeps"]
    assert sweeps == m1["control.outer_iterations"] + 1
    assert m1["solver.sat_step.calls"] == sweeps * w.N
    assert m1["solver.darcy_factor.calls"] == sweeps * (w.m + 1)
    assert m1["solver.saddles_cached"] == w.m + 1
    # the steps behind steps_per_s are the saturation steps the layers took
    assert first.steps == m1["solver.sat_step.calls"] + m1["solver.costate_step.calls"]
    assert m1["solver.costate_step.calls"] == sweeps * w.N
    assert m1["assembly.sat_state.calls_per_step"] == 2
    assert m1["solver.darcy_solve.per_factor"] == 2


def test_every_wrapped_name_is_restored():
    targets = spans.layer_targets()
    before = [vars(owner)[attr] for owner, attr, _, _ in targets]
    with pytest.raises(RuntimeError):
        with spans.patched(spans.Tracer(), targets):
            assert all(vars(o)[a] is not b for (o, a, _, _), b in zip(targets, before))
            raise RuntimeError("interrupted run")
    _traced(TINY["sweep"])
    run.timed_run(TINY["sweep"], OTHER_SEED, 0.0)
    assert all(vars(o)[a] is b for (o, a, _, _), b in zip(targets, before))


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert tracer.self_time("outer") == pytest.approx(outer.duration - inner.duration)


def test_check_accepts_its_own_reference():
    w = TINY["optimize"]
    out = _solve(w)
    assert workloads.check(w, out, workloads.reference_record(w, OTHER_SEED, out)) == []


@pytest.mark.parametrize("corrupt", [
    lambda o: dataclasses.replace(o, J=o.J * (1 + 1e-6)),
    lambda o: dataclasses.replace(o, vector=o.vector + 1e-6 * np.abs(o.vector).max()),
    lambda o: dataclasses.replace(o, vector=o.vector[:-1]),
    lambda o: dataclasses.replace(o, J=float("nan")),
    lambda o: dataclasses.replace(o, converged=False),
    lambda o: dataclasses.replace(o, residual=1e-6),
])
def test_corrupted_output_is_reported(corrupt):
    w = TINY["optimize"]
    out = _solve(w)
    ref = workloads.reference_record(w, OTHER_SEED, out)
    assert workloads.check(w, corrupt(out), ref)


def test_corrupted_output_counts_as_failed_run(monkeypatch):
    real_solve = workloads.solve

    def corrupted(*args):
        out = real_solve(*args)
        out.trajectory.C[-1, 0, 0] = np.nan
        return out

    monkeypatch.setattr(workloads, "solve", corrupted)
    metrics, _, attempted, failed = run.timed_run(TINY["sweep"], OTHER_SEED, 0.0)
    assert attempted == failed == 1
    assert metrics["ok_frac"] == 0.0


def test_make_control_is_seeded_smooth_and_feasible():
    a = workloads.make_control(3, 32, 2.0)
    assert np.array_equal(a, workloads.make_control(3, 32, 2.0))
    assert not np.array_equal(a, workloads.make_control(4, 32, 2.0))
    assert np.abs(a - 1.0).max() <= 0.2
    assert np.abs(np.diff(a)).max() < 0.1


def test_references_cover_every_workload_at_the_default_seed():
    for w in workloads.WORKLOADS.values():
        ref = workloads.load_reference(w, workloads.DEFAULT_SEED)
        assert len(ref["vector"]) == w.N + 1
        assert workloads.load_reference(w, OTHER_SEED) is None


def test_benchmark_json_matches_the_code():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        k: (u, b) for k, (u, b, _) in spans.LAYER_METRICS.items()
    }
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
