import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from gradtopo import fem, stress
from gradtopo.config import cantilever_config
from gradtopo.material import MaterialModel
from gradtopo.mesh import build_rect_mesh


def setup(nx=4, ny=2):
    cfg = cantilever_config(mesh_nx=nx, mesh_ny=ny)
    mesh = build_rect_mesh(cfg)
    return cfg, mesh, MaterialModel.from_config(cfg)


def nodal_stress_load(agg, mesh, mat, phi, chi, kappa5):
    """The stress-penalty adjoint load as Optimizer.adjoint_solve builds it:
    the element loads of stress.element_stress_load, scattered by S^T."""
    s = mat.stiffness_factors(fem.element_averages(mesh, phi),
                              fem.element_averages(mesh, chi))[0]
    q = stress.element_stress_load(agg, mesh, s, mat.K_A, kappa5)
    return fem.strain_operator(mesh).T @ q.ravel()


def test_von_mises_hand_values():
    s = np.array([[10.0, 0.0, 0.0],     # uniaxial
                  [0.0, 0.0, 5.0],      # pure shear
                  [7.0, 7.0, 0.0],      # equal biaxial
                  [3.0, -1.0, 2.0]])    # 9 + 3 + 1 + 12 = 25
    vm = stress.von_mises(s)
    assert vm == pytest.approx([10.0, 5.0 * np.sqrt(3.0), 7.0, 5.0])


def test_von_mises_gradient_fd():
    rng = np.random.default_rng(3)
    sigma = 40.0 * rng.standard_normal((20, 3))
    grad = stress.von_mises_gradient(sigma, stress.von_mises(sigma))
    h = 1e-6
    for k in range(3):
        dp = sigma.copy()
        dm = sigma.copy()
        dp[:, k] += h
        dm[:, k] -= h
        fd = (stress.von_mises(dp) - stress.von_mises(dm)) / (2 * h)
        assert np.allclose(grad[:, k], fd, rtol=1e-5, atol=1e-7)


def test_von_mises_gradient_zero_at_kink():
    sigma = np.zeros((3, 3))
    g = stress.von_mises_gradient(sigma, stress.von_mises(sigma))
    assert np.all(g == 0.0)


def test_pnorm_zero_stress_element_has_zero_gradient():
    cfg, mesh, mat = setup()
    sigma = 30.0 * np.random.default_rng(4).standard_normal((mesh.element_count, 3))
    sigma[3] = 0.0
    agg = stress.pnorm_aggregate(sigma, mesh, sigma_y=45.0, p=8)
    assert np.array_equal(agg.sigma_e, stress.von_mises(sigma))
    assert np.all(agg.dF_dsigma[3] == 0.0)
    assert np.all(np.delete(agg.dF_dsigma, 3, axis=0) != 0.0)


def test_pnorm_uniform_field():
    cfg, mesh, mat = setup()
    sigma = np.tile([30.0, 0.0, 0.0], (mesh.element_count, 1))
    agg = stress.pnorm_aggregate(sigma, mesh, sigma_y=45.0, p=8)
    # uniform ratio: normalized p-norm equals the ratio itself
    assert agg.sigma_pn == pytest.approx(30.0 / 45.0, rel=1e-12)
    assert agg.F_value == pytest.approx((30.0 / 45.0 - 1.0) ** 2, rel=1e-12)


def test_pnorm_large_p_tracks_max():
    # 16 elements: worst-case normalized gap (1/16)^(1/64) is above 0.95
    cfg, mesh, mat = setup(4, 2)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        sigma = 50.0 * rng.standard_normal((mesh.element_count, 3))
        vm = stress.von_mises(sigma)
        rmax = vm.max() / 45.0
        agg = stress.pnorm_aggregate(sigma, mesh, sigma_y=45.0, p=64)
        assert agg.sigma_pn == pytest.approx(rmax, rel=0.05)
        assert agg.sigma_pn <= rmax + 1e-12   # mean of ratios <= max


def test_pnorm_no_overflow_at_p64():
    cfg, mesh, mat = setup()
    sigma = np.tile([4.5e3, 0.0, 0.0], (mesh.element_count, 1))  # ratio 100
    agg = stress.pnorm_aggregate(sigma, mesh, sigma_y=45.0, p=64)
    assert np.isfinite(agg.sigma_pn) and np.isfinite(agg.F_value)
    assert np.all(np.isfinite(agg.dF_dsigma))
    assert agg.sigma_pn == pytest.approx(100.0, rel=0.05)


def test_pnorm_zero_field():
    cfg, mesh, mat = setup()
    agg = stress.pnorm_aggregate(np.zeros((mesh.element_count, 3)), mesh, 45.0, 8)
    assert agg.sigma_pn == 0.0
    assert agg.F_value == 1.0
    assert np.all(agg.dF_dsigma == 0.0)


def test_dF_dsigma_finite_difference():
    cfg, mesh, mat = setup(6, 3)
    rng = np.random.default_rng(5)
    sigma = 60.0 * rng.standard_normal((mesh.element_count, 3))

    def F(s):
        return stress.pnorm_aggregate(s, mesh, 45.0, 8).F_value

    agg = stress.pnorm_aggregate(sigma, mesh, 45.0, 8)
    h = 1e-5
    rng2 = np.random.default_rng(17)
    for _ in range(5):
        d = rng2.standard_normal(sigma.shape)
        fd = (F(sigma + h * d) - F(sigma - h * d)) / (2 * h)
        an = float((agg.dF_dsigma * d).sum())
        assert an == pytest.approx(fd, rel=1e-5, abs=1e-12)


def test_pointwise_penalty_gradient_undoes_area_weight():
    cfg, mesh, mat = setup()
    rng = np.random.default_rng(9)
    sigma = 50.0 * rng.standard_normal((mesh.element_count, 3))
    agg = stress.pnorm_aggregate(sigma, mesh, 45.0, 8)
    F_sigma = stress.pointwise_penalty_gradient(agg, mesh)
    back = F_sigma * (mesh.element_areas / mesh.area)[:, None]
    assert np.allclose(back, agg.dF_dsigma, rtol=1e-12)


def test_adjoint_stress_load_zero_for_kappa5_zero():
    cfg, mesh, mat = setup()
    sigma = np.ones((mesh.element_count, 3))
    agg = stress.pnorm_aggregate(sigma, mesh, 45.0, 8)
    q = nodal_stress_load(agg, mesh, mat, np.ones(mesh.node_count),
                          np.ones(mesh.node_count), 0.0)
    assert np.all(q == 0.0)


def test_adjoint_stress_load_is_exact_penalty_derivative():
    """q_sigma . v equals kappa5 |Omega| d/dh F(sigma(u + h v)) at fixed K."""
    cfg, mesh, mat = setup(5, 3)
    rng = np.random.default_rng(23)
    phi = 0.5 + 0.5 * rng.random(mesh.node_count)
    chi = phi * rng.random(mesh.node_count)
    u = 1e-2 * rng.standard_normal(2 * mesh.node_count)
    sigma = reference.element_stress(mesh, mat, phi, chi, u)
    agg = stress.pnorm_aggregate(sigma, mesh, 45.0, 8)
    kappa5 = 2.5
    q = nodal_stress_load(agg, mesh, mat, phi, chi, kappa5)
    h = 1e-6
    for _ in range(4):
        v = rng.standard_normal(2 * mesh.node_count)
        sp = reference.element_stress(mesh, mat, phi, chi, u + h * v)
        sm = reference.element_stress(mesh, mat, phi, chi, u - h * v)
        fd = (stress.pnorm_aggregate(sp, mesh, 45.0, 8).F_value
              - stress.pnorm_aggregate(sm, mesh, 45.0, 8).F_value) / (2 * h)
        assert float(q @ v) == pytest.approx(kappa5 * mesh.area * fd, rel=1e-5)


@settings(max_examples=40, deadline=None)
@given(st.floats(-100, 100), st.floats(-100, 100), st.floats(-100, 100))
def test_von_mises_nonnegative_and_scale_invariant(s11, s22, s12):
    s = np.array([[s11, s22, s12]])
    vm = float(stress.von_mises(s)[0])
    assert vm >= 0.0
    assert float(stress.von_mises(2.0 * s)[0]) == pytest.approx(2.0 * vm, rel=1e-9, abs=1e-9)


def test_adjoint_stress_load_matches_reference_formula():
    cfg, mesh, mat = setup(7, 3)
    rng = np.random.default_rng(31)
    phi = 0.3 + 0.5 * rng.random(mesh.node_count)
    chi = phi * rng.random(mesh.node_count)
    sigma = 50.0 * rng.standard_normal((mesh.element_count, 3))
    agg = stress.pnorm_aggregate(sigma, mesh, 45.0, 8)
    kappa5 = 2.5
    # element-wise kappa5 A_e B_e^T K(phi_e, chi_e) F_sigma, summed node by node
    ref = reference.adjoint_stress_load(agg, mesh, mat, phi, chi, kappa5)
    q = nodal_stress_load(agg, mesh, mat, phi, chi, kappa5)
    assert np.allclose(q, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
