"""Run every workload, print its end-to-end metrics, write the per-layer JSON.

    python3 perfbench/run_all.py [--seed 0] [--seconds S] [--out FILE]

Each workload runs alone in a fresh ``run.py`` process, first untraced (the
end-to-end metrics, printed with their unit and sample count), then traced.
The traced per-layer metrics, each with the end-to-end metric it should
move, go to ``--out`` (default ``perfbench/results/BENCH_layers.json``)
together with the environment of every run.  Exits non-zero when a run
fails or reports an incorrect output.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from spans import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Longest a single run may take, with margin for a slow box.
RUN_TIMEOUT_S = 900


def run_one(workload, seed, seconds, trace):
    """(environment line, result line) of one ``run.py`` process, or None."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or len(lines) < 2:
        sys.stderr.write(res.stderr)
        print(f"{workload}: run.py exited with {res.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out", type=Path, default=HERE / "results" / "BENCH_layers.json")
    args = ap.parse_args(argv)

    names = [w["name"] for w in bench["workloads"]]
    ok = True
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in names:
        got = run_one(name, args.seed, args.seconds, trace=0)
        if got is None:
            ok = False
            continue
        detail, result = got
        ok &= result["correct"]
        print(f"{name}  correct={result['correct']}  "
              f"attempted={result['attempted']}  failed={result['failed']}")
        for metric, m in result["metrics"].items():
            n = len(detail["samples"][metric])
            print(f"  {metric:<12} {m['value']:>12.6g} {m['unit']:<5} ({n} samples)")
        report["workloads"][name] = {"env": detail["env"], "end_to_end": result["metrics"]}

    for name in names:
        got = run_one(name, args.seed, args.seconds, trace=1)
        if got is None:
            ok = False
            continue
        detail, result = got
        ok &= result["correct"]
        entry = report["workloads"].setdefault(name, {"env": detail["env"]})
        entry["per_layer"] = {
            metric: {**m, "better": LAYER_METRICS[metric][1], "moves": LAYER_METRICS[metric][2]}
            for metric, m in result["metrics"].items()
        }

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"per-layer metrics written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
