"""Record the outputs the benchmark checks the default seed against.

    python3 perfbench/record_references.py [WORKLOAD ...]

Solves each named workload (all by default) once at the default seed and
writes its J and output vector to ``perfbench/references.json``.  Re-record
only in a change that is meant to move the outputs, and say so in it.
"""

import json
import sys

import run  # pins the BLAS threads and puts the checkout's src on the path
import workloads


def main(names):
    path = workloads.REFERENCES
    refs = json.loads(path.read_text()) if path.exists() else {}
    for name in names or sorted(workloads.WORKLOADS):
        w = workloads.WORKLOADS[name]
        problem = workloads.run_spec(w, run.ROOT).build_problem()
        q = workloads.make_control(workloads.DEFAULT_SEED, w.N, problem.wells.qhat)
        out = workloads.solve(w, problem, q)
        problems = workloads.check(w, out)
        if problems:
            sys.exit(f"{name}: {'; '.join(problems)}")
        refs[name] = workloads.reference_record(w, workloads.DEFAULT_SEED, out)
        print(f"{name}: J = {out.J!r}", flush=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
