"""Host-speed calibration of the end-to-end times.

On a shared host the speed of this process's CPU drifts by a third within
minutes and changes within seconds, so wall times of the same solve taken a
few minutes apart spread far wider than any bound a regression check can
use.  A fixed kernel that does not touch the program (a SuperLU
factorization, an interpreted loop and NumPy vector arithmetic, the three
kinds of work the solver does) is timed on the same thread, before each
set-up and solve and, through hooks on the builders of a set-up and on the
saturation step functions, about every ``EVERY_S`` seconds inside them.
The kernel's time is taken out of the set-up's and solve's, and each phase's
times are scaled by
``KERNEL_REF_S / median(kernel time in that phase)``: they read as seconds on
a host where the kernel takes ``KERNEL_REF_S``.  The raw wall times are
printed with the result.
"""

import statistics
import time
from functools import lru_cache, wraps

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# The kernel's median time on an idle 2-core Xeon host; it only sets the unit.
KERNEL_REF_S = 0.02
EVERY_S = 0.5


@lru_cache(maxsize=1)
def _laplacian():
    n = 40
    eye = sp.identity(n, format="csr")
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
    return (sp.kron(eye, t) + sp.kron(t, eye)).tocsc()


def kernel():
    """Fixed work independent of the program; returns a value so it is not skipped."""
    a = _laplacian()
    x = spla.splu(a).solve(np.ones(a.shape[0]))
    s = 0.0
    for i in range(100000):
        s += (i % 7) * 0.5
    # In place: with fresh arrays the kernel would time page faults, which
    # slow down while a large problem is held and would skew the scale.
    v = np.arange(20000.0)
    w = np.empty_like(v)
    for _ in range(150):
        np.multiply(v, v, out=w)
        w += 1.0
        np.sqrt(w, out=v)
    return float(x[0] + s + v[0])


class Clock:
    """Kernel samples of one phase of a run and the time they took."""

    def __init__(self):
        kernel()  # untimed: builds the matrix and loads SuperLU
        self.samples = []
        self.spent = 0.0
        self._due = 0.0

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self._due = t1 + EVERY_S

    def wrap(self, _name, fn, _probe=None):
        """``fn`` preceded by a kernel sample when one is due (``spans.patched`` API)."""

        @wraps(fn)
        def sampled(*args, **kwargs):
            if time.perf_counter() >= self._due:
                self.sample()
            return fn(*args, **kwargs)

        return sampled

    def scale(self):
        """Factor turning this phase's wall times into reference-host seconds."""
        return KERNEL_REF_S / statistics.median(self.samples)


def setup_targets():
    """The mesh, dual and workspace builders of a set-up, as ``spans.patched`` takes them."""
    from porous_opt import assembly, config, solver

    return [
        (config, "square_mesh", "", None),
        (solver, "build_diamond_dual", "", None),
        (solver, "build_barycentric_dual", "", None),
        (assembly.AssemblyWorkspace, "__init__", "", None),
    ]


def step_targets():
    """The step functions the sweeps call once per fine step, as ``spans.patched`` takes them."""
    from porous_opt import solver

    return [
        (solver, "step_saturation_forward", "", None),
        (solver, "step_saturation_backward", "", None),
    ]
