from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porous_opt.config import parse_config
from porous_opt.errors import ConfigError, DomainError
from porous_opt.mesh import square_mesh
from porous_opt.model import (
    RunConfig,
    _point_in_mesh,
    build_wells,
    default_model,
    unit_model,
    wells_from_tris,
)


def test_default_model_plug_in_values():
    m = default_model(delta_floor=0.05)
    assert m.alpha(0.0) == pytest.approx(1.0 / (2 * 0.05 + 1.0))
    assert m.b(0.0) == 0.0
    assert m.f(0.0) == pytest.approx(-0.05)
    assert m.b(1.0) == pytest.approx(2.0)
    assert m.f(1.0) == pytest.approx(-1.05)


def test_default_model_bounds_positive():
    m = default_model()
    grid = np.linspace(0.0, 1.0, 1001)
    inv_alpha = 1.0 / m.alpha(grid)
    assert inv_alpha.min() >= m.a_low - 1e-12 and inv_alpha.max() <= m.a_high + 1e-12
    d = m.diffusion(grid)
    assert d.min() > 0.0
    assert d.min() == pytest.approx(m.d_low)
    assert d.max() == pytest.approx(m.d_high)


def test_default_model_validate():
    assert default_model().validate()
    assert unit_model().validate()


@settings(deadline=None, max_examples=60)
@given(c=st.floats(min_value=0.001, max_value=0.999))
def test_derivatives_match_finite_differences(c):
    m = default_model()
    h = 1e-6
    fd_alpha = (m.alpha(c + h) - m.alpha(c - h)) / (2 * h)
    fd_d = (m.diffusion(c + h) - m.diffusion(c - h)) / (2 * h)
    assert abs(fd_alpha - m.alpha_prime(c)) < 1e-6
    assert abs(fd_d - m.diffusion_prime(c)) < 1e-6


def test_bad_model_parameters():
    with pytest.raises(ConfigError):
        default_model(delta_floor=0.0)
    with pytest.raises(ConfigError):
        default_model(peclet=-1.0)


# ---------------------------------------------------------------------------
# wells
# ---------------------------------------------------------------------------

def test_single_element_patches():
    mesh = square_mesh(8)
    w = wells_from_tris(mesh, [0], [mesh.num_triangles - 1], T=1.0, epsilon=0.1)
    assert w.sigma0 == pytest.approx(mesh.tri_area[0])
    r0 = w.r0_values()
    assert r0[0] == pytest.approx(1.0 / mesh.tri_area[0])
    assert np.count_nonzero(r0) == 1


def test_sources_normalized_and_balanced():
    mesh = square_mesh(8)
    w = build_wells(mesh, (0.1, 0.1), (0.9, 0.9), 0.02, T=1.0, epsilon=0.1)
    area = mesh.tri_area
    assert w.r0_values() @ area == pytest.approx(1.0, abs=1e-12)
    assert w.r1_values() @ area == pytest.approx(1.0, abs=1e-12)
    assert (w.r0_values() - w.r1_values()) @ area == pytest.approx(0.0, abs=1e-12)
    assert w.sigma0 >= 0.02


def test_quarter_five_spot_patches_disjoint():
    mesh = square_mesh(16)
    w = build_wells(mesh, (0.1, 0.1), (0.9, 0.9), 0.02, T=1.0, epsilon=0.1)
    assert np.intersect1d(w.injection_tris, w.production_tris).size == 0


def test_overlapping_patches_rejected():
    mesh = square_mesh(4)
    with pytest.raises(DomainError):
        build_wells(mesh, (0.45, 0.5), (0.55, 0.5), 0.3, T=1.0, epsilon=0.1)


def test_well_outside_domain_rejected():
    mesh = square_mesh(4)
    with pytest.raises(DomainError):
        build_wells(mesh, (1.5, 0.5), (0.2, 0.2), 0.02, T=1.0, epsilon=0.1)


@pytest.mark.parametrize("x, inside", [
    ((0.0, 0.0), True),
    ((1.0, 1.0), True),
    ((0.375, 0.375), True),         # on the interior diagonal of cell (1, 1)
    ((1 / 6, 1 / 12), True),        # centroid of (0, 0), (1/4, 0), (1/4, 1/4)
    ((1.0 + 1e-9, 0.5), False),
    ((-1e-3, 0.5), False),
], ids=["corner_00", "corner_11", "on_interior_edge", "centroid", "right_of_x1",
        "left_of_x0"])
def test_point_in_mesh(x, inside):
    assert _point_in_mesh(square_mesh(4), np.array(x)) is inside


def test_coincident_wells_rejected():
    mesh = square_mesh(4)
    with pytest.raises(DomainError):
        build_wells(mesh, (0.5, 0.5), (0.5, 0.5), 0.02, T=1.0, epsilon=0.1)


def test_terminal_weight_window():
    mesh = square_mesh(2)
    w = wells_from_tris(mesh, [0], [7], T=1.0, wtilde=3.0, epsilon=0.25)
    assert w.w(0.5) == 0.0
    assert w.w(0.74) == 0.0
    assert w.w(0.9) == pytest.approx(12.0)
    assert w.w(1.0) == pytest.approx(12.0)
    # the window integrates to wtilde
    ts = np.linspace(0.0, 1.0, 100001)
    integral = np.trapezoid([w.w(t) for t in ts], ts)
    assert integral == pytest.approx(3.0, rel=1e-3)


def test_well_model_validation():
    mesh = square_mesh(2)
    with pytest.raises(ConfigError):
        wells_from_tris(mesh, [0], [7], T=1.0, epsilon=0.1, alpha0=0.0)
    with pytest.raises(ConfigError):
        wells_from_tris(mesh, [0], [7], T=1.0, epsilon=2.0)
    with pytest.raises(DomainError):
        wells_from_tris(mesh, [0, 1], [1, 2], T=1.0, epsilon=0.1)


@pytest.mark.parametrize("inj, prod, patch, index", [
    ([0, 0], [31], "injection", 0),
    ([-1], [31], "injection", -1),
    ([0], [32], "production", 32),
    ([0], [5, 31, 5], "production", 5),
])
def test_bad_patch_index_rejected(inj, prod, patch, index):
    # square_mesh(4) has 32 triangles: a repeated index would count its area
    # twice in sigma, a negative one would wrap round to the last triangle
    mesh = square_mesh(4)
    with pytest.raises(DomainError, match=rf"{patch} patch: triangle index {index} "):
        wells_from_tris(mesh, inj, prod, T=1.0, epsilon=0.1)


def _config_specs():
    data = Path(__file__).resolve().parents[1] / "data"
    square = parse_config(data / "quarter_five_spot.cfg")
    files = replace(parse_config(data / "unstructured_square.cfg"),
                    nodes_file=str(data / "unstructured_square.node"),
                    elems_file=str(data / "unstructured_square.ele"))
    return [square, replace(square, n=64), files]


@pytest.mark.parametrize("spec", _config_specs(), ids=["n16", "n64", "unstructured"])
def test_build_wells_is_wells_from_tris_on_its_patches(spec):
    # each patch is the nearest-first prefix reaching sigma, and its area is
    # the prefix sum at the last triangle taken, bit for bit
    mesh = spec.build_mesh()
    wells = spec.build_wells(mesh)
    got = [(wells.injection_tris, wells.sigma0), (wells.production_tris, wells.sigma1)]
    for x, (tris, sigma) in zip((spec.x0, spec.x1), got):
        order = np.argsort(np.linalg.norm(mesh.barycentre - np.asarray(x), axis=1),
                           kind="stable")
        acc = np.cumsum(mesh.tri_area[order])
        count = min(int(np.searchsorted(acc, spec.sigma - 1e-14) + 1), mesh.num_triangles)
        assert np.array_equal(tris, np.sort(order[:count]))
        assert sigma == acc[count - 1]
    assert wells.epsilon == spec.well_epsilon == 2.0 * spec.rc.dt


def test_well_constructors_require_epsilon():
    mesh = square_mesh(4)
    with pytest.raises(TypeError, match="epsilon"):
        build_wells(mesh, (0.1, 0.1), (0.9, 0.9), 0.02, T=1.0)
    with pytest.raises(TypeError, match="epsilon"):
        wells_from_tris(mesh, [0], [31], T=1.0)


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

def test_run_config_grids():
    rc = RunConfig(T=2.0, m_steps=4, n_steps=12)
    assert rc.dt == pytest.approx(2.0 / 12.0)
    assert rc.substeps == 3
    assert rc.fine_times().size == 13
    assert rc.coarse_times().size == 5


@pytest.mark.parametrize("kwargs", [
    {"T": -1.0},
    {"n_steps": 10, "m_steps": 4},
    {"xi": -2.0},
    {"c0": 1.5},
    {"kmax": 0},
    {"q_tol": 0.0},
    {"solver_tol": 0.0},
    {"tri_quad_degree": 3},
])
def test_run_config_validation(kwargs):
    with pytest.raises(ConfigError):
        RunConfig(**kwargs)
