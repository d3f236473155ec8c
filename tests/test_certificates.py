import functools
import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from shearspec.assembly import assemble_prism, fem1d
from shearspec.certificates import (
    ETA_ENERGY,
    ETA_MASS,
    ETA_MEAN,
    RAMP_ENERGY,
    RAMP_MASS,
    BRANCH_POINT,
    CertificateResult,
    bform_count,
    bound_factor,
    default_profile,
    existence_certificate,
    prism_eigen_check,
    prism_mu_unit,
)
from shearspec.cross_section import ess_threshold
from shearspec.geometry import Rect

PI2 = math.pi**2
UNIT = Rect(0.0, 1.0, 0.0, 1.0)
SHIFTED = Rect(1.0, 2.0, -0.5, 0.7)

# strip benchmark gap scaled to the unit square: lambda_1 - E_1
UNIT_SQUARE_GAP = 2.0 * PI2 * (0.93008579 - 1.0)


def _gauss(f, a, b, panels, order=16):
    """Composite Gauss-Legendre quadrature of f over [a, b]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        total += half * float(w @ np.asarray(f(0.5 * (lo + hi) + half * x)))
    return total


gauss = functools.partial(_gauss, panels=8)


# -------------------------------------------------------------- profiles

def test_default_profile_shapes():
    p = default_profile()
    xs = np.linspace(0.0, 3.0, 601)
    vals = p.w(xs)
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    assert p.w(0.3) == pytest.approx(1.0)
    assert p.w(2.7) == pytest.approx(0.0)
    assert p.eta(0.0) == pytest.approx(1.0)
    assert abs(p.eta(1.0)) < 1e-14
    assert p.dirichlet_energy == RAMP_ENERGY
    # each closed-form constant the certificate uses, against quadrature
    # of the profile callables; w' is integrated over its smooth support
    assert RAMP_ENERGY == pytest.approx(PI2 / 8.0, abs=1e-15)
    assert gauss(lambda x: p.w_prime(x) ** 2, 1.0, 2.0) \
        == pytest.approx(RAMP_ENERGY, abs=1e-12)
    assert gauss(lambda x: p.w(x) ** 2, 0.0, 1.0) \
        + gauss(lambda x: p.w(x) ** 2, 1.0, 2.0) \
        == pytest.approx(RAMP_MASS, abs=1e-12)
    assert gauss(lambda x: p.eta(x) ** 2, 0.0, 1.0) \
        == pytest.approx(ETA_MASS, abs=1e-12)
    assert gauss(lambda x: p.eta_prime(x) ** 2, 0.0, 1.0) \
        == pytest.approx(ETA_ENERGY, abs=1e-12)
    assert gauss(p.eta, 0.0, 1.0) == pytest.approx(ETA_MEAN, abs=1e-12)


# ---------------------------------------------------- existence certificate

def phi_closed_energy(beta, rect):
    """Independent closed forms for q_beta(phi) on a rectangle."""
    w2, c = rect.width2, rect.c
    G0 = c * c + c * w2 + w2**2 / 3.0 - w2**2 / (2.0 * PI2)
    q = (48.0 / 35.0) * G0 + (2.0 / 7.0) * (1.0 + beta * beta)
    return q, G0


def test_certificate_unit_square_frozen():
    cert = existence_certificate(1.0, UNIT)
    q_exp, _ = phi_closed_energy(1.0, UNIT)
    assert cert.q_phi == pytest.approx(q_exp, abs=1e-12)
    assert cert.n == 5
    assert cert.eps == pytest.approx(1.0 / (2.0 * q_exp), abs=1e-12)
    assert cert.piece_cross == pytest.approx(-cert.eps, abs=1e-12)
    assert cert.total == pytest.approx(PI2 / 40.0 - 1.0 / (4.0 * q_exp),
                                       abs=1e-12)
    assert cert.total < 0.0
    assert cert.verdict
    assert cert.quad_error < abs(cert.total)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("rect", [UNIT, SHIFTED, Rect(0, 1, 0, math.pi
                                                      * math.sqrt(2.0))])
def test_certificate_closed_phi_energy(beta, rect):
    cert = existence_certificate(beta, rect)
    q_exp, _ = phi_closed_energy(beta, rect)
    assert cert.q_phi == pytest.approx(q_exp, rel=1e-12)
    assert cert.verdict


def _phi_energy(beta, rect, prof, panels):
    """q_beta(phi) for phi = eta(x) y2 chi(y) by tensor quadrature.

    Every integral factors: eta pieces over [0,1], the y1 ground mode,
    and g(y2) = y2 chi_2(y2) over (c, d).
    """
    w1, w2 = rect.width1, rect.width2
    a, c = rect.a, rect.c
    E1 = ess_threshold(beta, rect)

    def chi2(y):
        return math.sqrt(2.0 / w2) * np.sin(np.pi * (y - c) / w2)

    def dchi2(y):
        return math.sqrt(2.0 / w2) * (np.pi / w2) * np.cos(np.pi * (y - c) / w2)

    def g(y):
        return y * chi2(y)

    def dg(y):
        return chi2(y) + y * dchi2(y)

    I_eta = _gauss(lambda x: prof.eta(x) ** 2, 0.0, 1.0, panels)
    I_etap = _gauss(lambda x: prof.eta_prime(x) ** 2, 0.0, 1.0, panels)
    I_mix = _gauss(lambda x: prof.eta(x) * prof.eta_prime(x), 0.0, 1.0, panels)
    G0 = _gauss(lambda y: g(y) ** 2, c, c + w2, panels)
    G1 = _gauss(lambda y: dg(y) ** 2, c, c + w2, panels)
    Gm = _gauss(lambda y: g(y) * dg(y), c, c + w2, panels)
    Q1 = _gauss(lambda y: (math.sqrt(2.0 / w1) * (np.pi / w1)
                           * np.cos(np.pi * (y - a) / w1)) ** 2,
                a, a + w1, panels)
    # (eta' g - beta eta g')^2 expands into three separable pieces
    shear = I_etap * G0 - 2.0 * beta * I_mix * Gm + beta**2 * I_eta * G1
    trans = I_eta * (Q1 * G0 + G1)
    shift = -E1 * I_eta * G0
    q_phi = shear + trans + shift
    extras = {"I_eta": I_eta, "G0": G0,
              "I_eta1": _gauss(prof.eta, 0.0, 1.0, panels),
              "C0": _gauss(lambda y: chi2(y) * g(y), c, c + w2, panels),
              "I_w2": _gauss(lambda x: np.asarray(prof.w(x)) ** 2,
                             0.0, 2.0, panels)}
    return q_phi, extras


def quadrature_certificate(beta, rect):
    """The certificate as computed before its closed form: every
    integral of the trial energy and norm by 4-panel quadrature."""
    prof = default_profile()
    eta0 = float(prof.eta(0.0))
    q_phi, ex = _phi_energy(beta, rect, prof, 4)
    eps = beta * eta0 / (2.0 * q_phi)
    depth = beta * beta * eta0 * eta0 / (4.0 * q_phi)
    n = int(prof.dirichlet_energy / depth) + 1
    piece_ramp = prof.dirichlet_energy / n
    piece_phi = eps * eps * q_phi
    total = piece_ramp - eps * beta * eta0 + piece_phi
    norm_sq = (n * ex["I_w2"] + 2.0 * eps * ex["I_eta1"] * ex["C0"]
               + eps * eps * ex["I_eta"] * ex["G0"])
    # q_phi sums E1 I_eta G0 against terms of like size, and its
    # rounding grows with that cancellation
    scale = (q_phi + ess_threshold(beta, rect) * ex["I_eta"] * ex["G0"]) / q_phi
    return dict(n=n, eps=eps, q_phi=q_phi, total=total, norm_sq=norm_sq,
                piece_ramp=piece_ramp, piece_phi=piece_phi, scale=scale)


@st.composite
def certificate_inputs(draw):
    """(beta, rect): widths 0.1-10, offsets a, c in [-5, 5]."""
    a = draw(st.floats(-5.0, 5.0))
    c = draw(st.floats(-5.0, 5.0))
    w1 = draw(st.floats(0.1, 10.0))
    w2 = draw(st.floats(0.1, 10.0))
    beta = draw(st.floats(1e-3, 1e3))
    return beta, Rect(a, a + w1, c, c + w2)


@settings(max_examples=300, deadline=None)
@given(certificate_inputs())
def test_closed_form_matches_quadrature_certificate(case):
    beta, rect = case
    cert = existence_certificate(beta, rect)
    old = quadrature_certificate(beta, rect)
    rel = 1e-12 * old["scale"]
    ratio = RAMP_ENERGY * 4.0 * cert.q_phi / (beta * beta)
    # n is a floor: it is decided only away from the integers by more
    # than the two q_phi may differ
    if abs(ratio - round(ratio)) > 2.0 * rel * ratio:
        assert cert.n == old["n"]
    assert cert.q_phi == pytest.approx(old["q_phi"], rel=rel)
    assert cert.eps == pytest.approx(old["eps"], rel=rel)
    if cert.n == old["n"]:
        assert cert.norm_sq == pytest.approx(old["norm_sq"], rel=rel)
        assert cert.total == pytest.approx(
            old["total"],
            abs=rel * (abs(old["piece_ramp"]) + abs(old["piece_phi"])))


def test_cross_term_identity_by_quadrature():
    # independent bilinear-form evaluation of the cross term; the
    # module never computes this integral, it uses the exact value
    p = default_profile()
    for beta in (0.5, 1.0, 2.0):
        for rect in (UNIT, SHIFTED):
            w1, w2 = rect.width1, rect.width2
            a, c = rect.a, rect.c
            E1 = ess_threshold(beta, rect)

            def chi1(y):
                return math.sqrt(2.0 / w1) * np.sin(np.pi * (y - a) / w1)

            def chi2(y):
                return math.sqrt(2.0 / w2) * np.sin(np.pi * (y - c) / w2)

            def dchi1(y):
                return math.sqrt(2.0 / w1) * (np.pi / w1) \
                    * np.cos(np.pi * (y - a) / w1)

            def dchi2(y):
                return math.sqrt(2.0 / w2) * (np.pi / w2) \
                    * np.cos(np.pi * (y - c) / w2)

            # separable factors of q(psi_n, phi) with w_n = 1 on supp eta
            I_ep = gauss(p.eta_prime, 0.0, 1.0)
            I_e = gauss(p.eta, 0.0, 1.0)
            m_dg = gauss(lambda y: dchi2(y) * (y * chi2(y)), c, c + w2)
            t_d2 = gauss(lambda y: dchi2(y) * (chi2(y) + y * dchi2(y)),
                         c, c + w2)
            t_d1 = gauss(lambda y: dchi1(y) * dchi1(y), a, a + w1)
            g_y1 = gauss(lambda y: chi1(y) * chi1(y), a, a + w1)
            m_g = gauss(lambda y: chi2(y) * (y * chi2(y)), c, c + w2)
            cross = (I_ep * (-beta) * m_dg * g_y1
                     + I_e * (beta**2 * t_d2 * g_y1 + t_d1 * m_g
                              + t_d2 * g_y1 - E1 * m_g * g_y1))
            assert cross == pytest.approx(-beta / 2.0, abs=1e-8)


def test_ramp_piece_scales_inversely_with_n():
    seen = set()
    for beta in (0.5, 1.0, 2.0, 4.0):
        cert = existence_certificate(beta, UNIT)
        assert cert.piece_ramp * cert.n == pytest.approx(PI2 / 8.0,
                                                         abs=1e-12)
        seen.add(cert.n)
    assert len(seen) > 1


def test_certificate_n_is_minimal():
    for beta in (0.6, 1.0, 3.0):
        cert = existence_certificate(beta, UNIT)
        if cert.n == 1:
            continue
        worse = PI2 / (8.0 * (cert.n - 1)) + cert.piece_cross + cert.piece_phi
        assert worse >= 0.0


def test_certificate_bounds_true_gap():
    # the trial energy can never undershoot the actual gap to the
    # threshold; benchmark value for the unit square at beta = 1
    cert = existence_certificate(1.0, UNIT)
    assert cert.total >= UNIT_SQUARE_GAP
    assert cert.rayleigh >= UNIT_SQUARE_GAP
    assert cert.norm_sq > 1.0


def test_certificate_result_consistency_enforced():
    with pytest.raises(ValueError):
        CertificateResult(beta=1.0, n=3, eps=0.1, piece_ramp=1.0,
                          piece_cross=-1.0, piece_phi=0.5, total=0.0,
                          q_phi=1.0, quad_error=0.0, norm_sq=2.0,
                          verdict=False)


def test_certificate_rejects_masks():
    from shearspec.cross_section import l_shaped_mask
    with pytest.raises(ValueError):
        existence_certificate(1.0, l_shaped_mask(8))


# --------------------------------------------------------------- b form

def fd_well_count(c0, w, span=50, n=6000):
    """Dense FD count of negative eigenvalues of -c0 f'' - 1_[0,w] f
    on (0, span*w), Dirichlet ends."""
    L = span * w
    h = L / n
    x = np.arange(1, n) * h
    diag = 2.0 * c0 / h**2 - (x <= w).astype(float)
    off = np.full(n - 2, -c0 / h**2)
    lam = sla.eigvalsh_tridiagonal(diag, off, select="v",
                                   select_range=(-2.0, -1e-10))
    return len(lam)


def test_bform_examples():
    assert bform_count(0.5, 1.0, 0.0, 1.0, 10.0) == 0
    assert bform_count(0.5, 1.0, 0.0, 9.0, 10.0) == 1
    assert bform_count(1.0, 2.0, 0.75, 9.0, 10.0) == 2


def test_bform_matches_fd_oracle():
    cases = [(0.5, 1.0, 0.0, 1.0), (0.5, 1.0, 0.0, 9.0),
             (1.0, 2.0, 0.75, 9.0), (1.0, 2.0, 0.25, 16.0),
             (0.2, 0.5, 0.3, 4.0)]
    for beta, eps, kappa, nu in cases:
        c0 = 1.0 - 2.0 * kappa * beta / eps
        w = math.sqrt(nu)
        assert bform_count(beta, eps, kappa, nu, 7.0) == fd_well_count(c0, w)


def test_bform_matches_phase_formula():
    # zero-energy phase: floor(w / (pi sqrt(c0)) + 1/2), away from
    # resonant widths
    for c0 in (0.1, 0.25, 0.5, 0.75, 1.0):
        for w in (0.5, 1.0, 2.0, 3.0, 4.5, 6.0):
            theta = w / (math.pi * math.sqrt(c0)) + 0.5
            if abs(theta - round(theta)) < 0.05:
                continue
            kappa = 1.0 - c0  # with beta = 1, eps = 2
            got = bform_count(1.0, 2.0, kappa, w * w, 5.0)
            assert got == math.floor(theta), (c0, w)


def shooting_count(c0, w):
    """Reference count by shooting: the zero-energy solution of
    -c0 f'' - f = 0 on (0, w), f(0) = 0, propagated step by step with
    the exact rotation; its sign changes in the well, plus one if the
    affine tail beyond it still heads toward the axis."""
    root = math.sqrt(c0)
    steps = max(32, int(8.0 * w / (math.pi * root)) + 1)
    h = w / steps
    ch, sh = math.cos(h / root), math.sin(h / root)
    f, fp = 0.0, 1.0
    count = 0
    prev = 0.0
    for _ in range(steps):
        f, fp = ch * f + root * sh * fp, -sh / root * f + ch * fp
        if prev != 0.0 and f != 0.0 and math.copysign(1.0, f) != math.copysign(1.0, prev):
            count += 1
        if f != 0.0:
            prev = f
    # beyond the well the solution is affine; one more crossing iff it
    # still heads toward the axis
    if f != 0.0 and fp != 0.0 and math.copysign(1.0, f) != math.copysign(1.0, fp):
        count += 1
    return count


@st.composite
def wells(draw):
    """(beta, eps >= beta, kappa, nu) with c0 = 1 - 2 kappa beta / eps
    in [1e-4, 1] and nu up to 1e4."""
    beta = draw(st.floats(1e-3, 10.0))
    eps = beta * draw(st.floats(1.0, 10.0))
    c0 = draw(st.floats(1e-4, 1.0))
    kappa = (1.0 - c0) * eps / (2.0 * beta)
    nu = draw(st.floats(1e-6, 1e4))
    return beta, eps, kappa, nu


@settings(max_examples=300, deadline=None)
@given(wells())
def test_bform_closed_form_matches_shooting(well):
    beta, eps, kappa, nu = well
    want = shooting_count(1.0 - 2.0 * kappa * beta / eps, math.sqrt(nu))
    assert bform_count(beta, eps, kappa, nu, 7.0) == want


def test_bform_validation():
    with pytest.raises(ValueError):
        bform_count(2.0, 1.0, 0.0, 1.0, 10.0)  # eps < beta
    with pytest.raises(ValueError):
        bform_count(1.0, 1.0, 0.6, 1.0, 10.0)  # c0 < 0
    with pytest.raises(ValueError):
        bform_count(1.0, 2.0, 0.1, -1.0, 10.0)  # nu <= 0
    with pytest.raises(ValueError):
        bform_count(1.0, 2.0, -0.1, 1.0, 10.0)  # kappa < 0


# ---------------------------------------------------------------- prism

class _PrismMode:
    """Closed-form eigenfunction of the unit-shear prism problem on
    x in (-A, 0), y1 in (0, 2B), 0 < y2 < x + A, with A = (d-c)/sqrt(2)
    and B = (b-a)/2: Dirichlet on the y1 faces and on y2 = 0, Neumann on
    x = 0 and on the slant."""

    def __init__(self, mu, A, B, ky1):
        self.mu, self.A, self.B, self.ky1 = mu, A, B, ky1
        self.amp = 2.0 / (A * math.sqrt(B))

    def value(self, x, y1, y2):
        x, y1, y2 = (np.asarray(v, dtype=float) for v in (x, y1, y2))
        kx = np.pi / (2 * self.A)
        return (self.amp * np.cos(kx * x) * np.sin(self.ky1 * y1)
                * np.sin(kx * y2))

    def gradient(self, x, y1, y2):
        x, y1, y2 = (np.asarray(v, dtype=float) for v in (x, y1, y2))
        kx = np.pi / (2 * self.A)
        gx = -self.amp * kx * np.sin(kx * x) * np.sin(self.ky1 * y1) \
            * np.sin(kx * y2)
        g1 = self.amp * self.ky1 * np.cos(kx * x) * np.cos(self.ky1 * y1) \
            * np.sin(kx * y2)
        g2 = self.amp * kx * np.cos(kx * x) * np.sin(self.ky1 * y1) \
            * np.cos(kx * y2)
        return gx, g1, g2


def _prism_mode(rect, index):
    """First two closed-form modes at unit shear; the second doubles the
    y1 frequency, the lower excited level only up to aspect 2/sqrt(3)."""
    A, B = rect.width2 / math.sqrt(2.0), rect.width1 / 2.0
    mu1, mu2 = prism_mu_unit(rect)
    if index == 1:
        return _PrismMode(mu1, A, B, math.pi / (2 * B))
    if index == 2:
        if rect.aspect > BRANCH_POINT:
            raise ValueError("second closed-form mode requires aspect "
                             "<= 2/sqrt(3)")
        return _PrismMode(mu2, A, B, math.pi / B)
    raise ValueError(f"closed forms cover modes 1 and 2, not {index}")


def test_prism_mode_boundary_conditions():
    for rect in (UNIT, Rect(0, 2, 0, 1)):
        for index in (1, 2):
            m = _prism_mode(rect, index)
            A, depth = m.A, 2.0 * m.B
            t = np.linspace(1e-3, A - 1e-3, 9)
            y1 = np.linspace(1e-3, depth - 1e-3, 9)
            # Dirichlet faces: y1 = 0, y1 = depth, y2 = 0
            assert np.abs(m.value(-A / 2, 0.0, A / 4)) < 1e-14
            assert np.abs(m.value(-A / 2, depth, A / 4)) < 1e-14
            assert np.abs(m.value(-A / 2, 0.4 * depth, 0.0)) < 1e-14
            # Neumann at x = 0
            gx, _, _ = m.gradient(0.0, y1, A / 3)
            assert np.abs(gx).max() < 1e-13
            # Neumann on the slant y2 = x + A
            gx, _, g2 = m.gradient(-A + t, 0.37 * depth, t)
            assert np.abs((-gx + g2) / math.sqrt(2.0)).max() < 1e-12


def test_prism_mode_levels_and_errors():
    m1 = _prism_mode(UNIT, 1)
    m2 = _prism_mode(UNIT, 2)
    assert m1.mu == pytest.approx(2.0 * PI2, rel=1e-14)
    assert m2.mu == pytest.approx(5.0 * PI2, rel=1e-14)
    with pytest.raises(ValueError):
        _prism_mode(Rect(0, 1, 0, 2), 2)  # aspect past the branch point
    with pytest.raises(ValueError):
        _prism_mode(UNIT, 3)


def test_prism_check_unit_square():
    rep = prism_eigen_check(1.0, UNIT, 48)
    assert rep.rel_mu1 is not None and rep.rel_mu1 < 0.01
    assert rep.rel_mu2 is not None and rep.rel_mu2 < 0.01
    assert rep.mu1 > rep.closed_mu1
    assert rep.mu2 > rep.closed_mu2
    assert rep.lower_margin > 0.0
    assert rep.threshold_margin > 0.0


def test_prism_check_matches_full_dense_solve():
    # only the lowest triangle pairs are solved; the full dense pencil
    # must give the same two lowest prism levels
    rep = prism_eigen_check(1.0, UNIT, 64)
    Atri, Mtri, _, _ = assemble_prism(1.0, UNIT, 64)
    lam_t = sla.eigh(Atri.toarray(), Mtri.toarray(), eigvals_only=True)
    lam_1 = fem1d(64, UNIT.width1).spectral().lam
    sums = np.sort((lam_t[:, None] + lam_1[None, :]).ravel())
    assert rep.mu1 == pytest.approx(sums[0], rel=1e-10)
    assert rep.mu2 == pytest.approx(sums[1], rel=1e-10)


def test_prism_check_wide_rect():
    rep = prism_eigen_check(1.0, Rect(0, 1, 0, 2), 48)
    assert rep.closed_mu1 == pytest.approx(1.25 * PI2, rel=1e-14)
    assert rep.rel_mu1 < 0.01
    assert rep.rel_mu2 < 0.01


def test_prism_check_off_unit_beta():
    for beta in (0.5, 2.0):
        rep = prism_eigen_check(beta, UNIT, 32)
        assert rep.rel_mu1 is None and rep.rel_mu2 is None
        assert rep.lower_margin > 0.0


def test_prism_check_near_critical_beta():
    beta = 0.9 * math.sqrt(3.0)  # inside the uniqueness window at R = 1
    rep = prism_eigen_check(beta, UNIT, 32)
    assert rep.threshold_margin > 0.0


def test_prism_check_reports_both_sides_of_the_chain():
    # lower_bound and threshold_rhs are bound_factor(beta) * mu2(1) and
    # E1(beta), the two sides the beta_star(R) chain compares
    for beta, rect in ((1.56, UNIT), (1.2, Rect(0, 1, 0, 2))):
        rep = prism_eigen_check(beta, rect, 16)
        assert rep.lower_bound == bound_factor(beta) * prism_mu_unit(rect)[1]
        assert rep.threshold_rhs == ess_threshold(beta, rect)


def test_prism_slant_residual_decreases():
    r16 = prism_eigen_check(1.0, UNIT, (16, 8)).slant_residual
    r32 = prism_eigen_check(1.0, UNIT, (32, 8)).slant_residual
    assert r32 < 0.7 * r16
