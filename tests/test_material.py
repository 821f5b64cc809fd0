import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from gradtopo.material import MaterialModel, W, dW, plane_stress_matrix


def model(**kw):
    args = dict(E=12500.0, nu=0.25, beta=1.0 / 6.0, ersatz=0.01)
    args.update(kw)
    return MaterialModel(**args)


def test_plane_stress_matrix_values():
    # E/(1-nu^2) = 12500/0.9375
    D = plane_stress_matrix(12500.0, 0.25)
    c = 12500.0 / 0.9375
    assert D == pytest.approx(c * np.array([[1.0, 0.25, 0.0],
                                            [0.25, 1.0, 0.0],
                                            [0.0, 0.0, 0.375]]))
    # symmetric positive definite
    assert np.allclose(D, D.T)
    assert np.all(np.linalg.eigvalsh(D) > 0)


def test_double_well_endpoints_and_symmetry():
    assert W(0.0) == 0.0 and W(1.0) == 0.0
    assert W(0.5) == pytest.approx(1.0 / 16.0)
    x = np.linspace(0, 1, 11)
    assert np.allclose(W(x), W(1.0 - x))
    assert np.all(W(np.linspace(0.05, 0.95, 19)) > 0)


def test_double_well_derivative_fd():
    x = np.linspace(-0.2, 1.2, 29)
    h = 1e-6
    fd = (W(x + h) - W(x - h)) / (2 * h)
    assert np.allclose(dW(x), fd, atol=1e-8)


def test_km_endpoints():
    m = model()
    assert m.km(1.0) == pytest.approx(1.0)
    assert m.km(0.0) == pytest.approx(1.0 / 6.0)


def test_beta_one_single_material():
    m = model(beta=1.0)
    chi = np.linspace(0, 1, 7)
    assert np.allclose(m.km(chi), 1.0)
    assert np.allclose(m.dkm(chi), 0.0)


def test_stiffness_factor_solid_and_void():
    m = model()
    assert m.stiffness_factors(1.0, 1.0)[0] == pytest.approx(1.0)
    # void floor: gamma^2 = 1e-4 at full beta-phase chi -> km * gamma^2
    assert m.stiffness_factors(0.0, 1.0)[0] == pytest.approx(1e-4)
    assert m.stiffness_factors(0.0, 0.0)[0] == pytest.approx(1e-4 / 6.0)


def test_stiffness_factor_monotone_in_phi_and_chi():
    m = model()
    phi = np.linspace(0, 1, 41)
    s = m.stiffness_factors(phi, 0.7)[0]
    assert np.all(np.diff(s) > 0)
    chi = np.linspace(0, 1, 41)
    s = m.stiffness_factors(0.6, chi)[0]
    assert np.all(np.diff(s) > 0)


def test_inputs_clamped():
    m = model()
    assert m.stiffness_factors(1.4, 2.0) == pytest.approx(m.stiffness_factors(1.0, 1.0))
    assert m.stiffness_factors(-0.3, -1.0) == pytest.approx(m.stiffness_factors(0.0, 0.0))


def test_dK_dphi_fd():
    m = model()
    h = 1e-7
    for phi, chi in ((0.3, 0.8), (0.7, 0.2), (0.5, 0.5)):
        fd = (reference.K_of(m, phi + h, chi) - reference.K_of(m, phi - h, chi)) / (2 * h)
        assert np.allclose(reference.dK_dphi(m, phi, chi), fd, rtol=1e-6, atol=1e-6)


def test_dK_dchi_fd():
    m = model()
    h = 1e-7
    for phi, chi in ((0.3, 0.8), (0.7, 0.2)):
        fd = (reference.K_of(m, phi, chi + h) - reference.K_of(m, phi, chi - h)) / (2 * h)
        assert np.allclose(reference.dK_dchi(m, phi, chi), fd, rtol=1e-6, atol=1e-6)


def test_array_broadcasting():
    m = model()
    phi = np.linspace(0, 1, 5)
    chi = np.linspace(0, 1, 5)
    K = reference.K_of(m, phi, chi)
    assert K.shape == (5, 3, 3)
    for i in range(5):
        assert np.allclose(K[i], reference.K_of(m, phi[i], chi[i]))


@settings(max_examples=50, deadline=None)
@given(phi=st.floats(0, 1), chi=st.floats(0, 1),
       beta=st.floats(0.05, 1.0))
@example(phi=7.39679429243114e-13, chi=0.0, beta=0.375)
@example(phi=1e-13, chi=0.3, beta=0.9999999999999999)
def test_stiffness_factor_bounds_property(phi, chi, beta):
    m = model(beta=beta)
    s = m.stiffness_factors(phi, chi)[0]
    # always positive, never exceeds the solid bulk value
    assert 0 < s <= 1.0 + 1e-12
    # the ersatz floor, grouped as in s = k_m * (phi^3 + gamma^2 (1-phi)^3)
    # so that both sides round the same products
    assert s >= beta * (m.ersatz ** 2 * (1 - phi) ** 3)
