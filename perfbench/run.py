"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload optimize-n16 --seed 0 --seconds 38 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
``--trace 0`` times ``RunSpec.build_problem()`` several times and the
workload's solve as often as fits in ``--seconds`` (at least once), and
reports the medians, calibrated to a reference host speed (see
``calibrate.py``), as the end-to-end metrics.  ``--trace 1`` times one
untraced solve, then sets up and solves once more with every layer wrapped,
and reports the per-layer metrics.  Every solve's output is checked (see ``workloads.check``).

The last line of standard output is the result object; the line before it
records the environment, the problem size and the samples behind each
metric.
"""

import ctypes
import os

# BLAS and OpenMP must be pinned before numpy loads them.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"


def pin_mmap_threshold():
    """Fix glibc's mmap threshold at its 128 KiB default; True on success.

    glibc raises the threshold whenever a large block is freed, so later
    large blocks land on the heap and fragment it.  Peak RSS then varies by
    about 15 % between identical runs of optimize-n16; with the threshold
    fixed it repeats to 0.1 % and tracks the memory the program holds.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    return libc.mallopt(-3, 128 * 1024) == 1  # -3 is M_MMAP_THRESHOLD


MMAP_THRESHOLD_PINNED = pin_mmap_threshold()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import porous_opt  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# name -> unit of every end-to-end metric
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def environment(workload, seed):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "mmap_threshold_pinned": MMAP_THRESHOLD_PINNED,
        "commit": git_commit(),
        "seed": seed,
        "workload": workload.name,
        "triangles": workload.triangles,
        "m": workload.m,
        "N": workload.N,
    }


def attempt(workload, problem, q, reference):
    """One solve and its check: (outcome or None, seconds in the solve, problems)."""
    t0 = time.perf_counter()
    try:
        out = workloads.solve(workload, problem, q)
    except Exception:  # a solve that raises is counted as failed, not fatal
        traceback.print_exc()
        return None, time.perf_counter() - t0, ["solve raised"]
    elapsed = time.perf_counter() - t0
    problems = workloads.check(workload, out, reference)
    for p in problems:
        print(f"{workload.name}: {p}", file=sys.stderr)
    return out, elapsed, problems


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workload, seed, seconds):
    """Untraced run: (metrics, the samples behind each, attempted, failed).

    Times are host-calibrated (see ``calibrate``); the samples are raw.
    """
    spec = workloads.run_spec(workload, ROOT)
    setup_clock = calibrate.Clock()
    setup_times = []
    with spans.patched(setup_clock, calibrate.setup_targets()):
        for _ in range(workload.setups):
            problem = None  # free the previous build before timing the next
            setup_clock.sample()
            kernel_s = setup_clock.spent
            t0 = time.perf_counter()
            problem = spec.build_problem()
            setup_times.append(time.perf_counter() - t0 - (setup_clock.spent - kernel_s))
    setup_clock.sample()
    q = workloads.make_control(seed, workload.N, problem.wells.qhat)
    reference = workloads.load_reference(workload, seed)

    # The first solve fixes how many fill ``seconds``: rounding, rather than
    # stopping when the next solve would overrun, keeps the count the same
    # from run to run while the solve time drifts by up to a fifth.
    solve_clock = calibrate.Clock()
    solve_times, rates, oks = [], [], []
    solves = 1
    with spans.patched(solve_clock, calibrate.step_targets()):
        while len(solve_times) < solves:
            solve_clock.sample()
            kernel_s = solve_clock.spent
            out, elapsed, problems = attempt(workload, problem, q, reference)
            if not solve_times:
                solves = max(1, round(seconds / elapsed))
            elapsed -= solve_clock.spent - kernel_s  # kernel runs inside the solve
            solve_times.append(elapsed)
            oks.append(0.0 if problems else 1.0)
            if out is not None:
                rates.append(out.steps / elapsed)
            out = None  # free the trajectory before the next solve
    solve_clock.sample()

    setup_scale, solve_scale = setup_clock.scale(), solve_clock.scale()
    metrics = {
        "setup_s": statistics.median(setup_times) * setup_scale,
        "solve_s": statistics.median(solve_times) * solve_scale,
        "steps_per_s": statistics.median(rates) / solve_scale if rates else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": statistics.fmean(oks),
    }
    samples = {"setup_s": setup_times, "solve_s": solve_times, "steps_per_s": rates,
               "peak_rss_mb": [metrics["peak_rss_mb"]], "ok_frac": oks,
               "setup_kernel_s": setup_clock.samples, "solve_kernel_s": solve_clock.samples}
    return metrics, samples, len(oks), oks.count(0.0)


def traced_run(workload, seed):
    """One untraced and one traced set-up plus solve: (metrics, samples, attempted, failed)."""
    spec = workloads.run_spec(workload, ROOT)
    problem = spec.build_problem()
    q = workloads.make_control(seed, workload.N, problem.wells.qhat)
    reference = workloads.load_reference(workload, seed)
    _, plain_s, plain_problems = attempt(workload, problem, q, reference)
    problem = None

    tracer = spans.Tracer()
    with spans.patched(tracer, spans.layer_targets()):
        problem = spec.build_problem()
        out, traced_s, traced_problems = attempt(workload, problem, q, reference)

    metrics = spans.layer_metrics(
        tracer,
        outer_iterations=out.outer_iterations if out is not None else 0,
        saddles=list(out.trajectory.saddles.values()) if out is not None else [],
        plain_solve_s=plain_s,
        traced_solve_s=traced_s,
    )
    samples = {"plain_solve_s": [plain_s], "traced_solve_s": [traced_s]}
    return metrics, samples, 2, bool(plain_problems) + bool(traced_problems)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    lib = Path(porous_opt.__file__).resolve().parent
    if lib != ROOT / "src" / "porous_opt":
        print(f"porous_opt was imported from {lib}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        values, samples, attempted, failed = traced_run(workload, args.seed)
        units = {name: unit for name, (unit, _, _) in spans.LAYER_METRICS.items()}
    else:
        values, samples, attempted, failed = timed_run(workload, args.seed, args.seconds)
        units = END_TO_END
    print(json.dumps({"env": environment(workload, args.seed), "samples": samples}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
