"""Second variation, directional quotients, and the breaking certificate."""

import math

import pytest

import ckn_lab.variation as variation
from ckn_lab.params import beta_fs, derive, validate
from ckn_lab.profiles import PowerPeakProfile, amplitude_constant, extremal, s_r_closed
from ckn_lab.quadrature import integrate_rows, integrate_semiinfinite, power_weighted
from ckn_lab.specfun import DomainError
from ckn_lab.variation import (
    DEFAULT_EPS,
    Verdict,
    certify,
    directional_quotient,
    second_variation,
)


def _beta_oracle(a, b):
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


def test_second_variation_reference_point(p511):
    sv = second_variation(p511)
    assert sv.value == pytest.approx(-5.858682485431447, rel=1e-10)
    assert sv.mu == pytest.approx(4.0, rel=1e-13)
    assert sv.factor == pytest.approx(-1.0, rel=1e-13)
    assert sv.I1 == pytest.approx(math.pi / 32.0, rel=1e-12)
    assert sv.I2 == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert sv.prefactor == pytest.approx(8.0 * math.pi**2 / 15.0, rel=1e-12)


def test_second_variation_factored_identity(p511):
    """The emitted value recombines exactly from its published factors."""
    sv = second_variation(p511)
    m = derive(p511).M
    recombined = sv.prefactor * sv.factor * (2.0 * sv.I1 + ((2.0 * m - 5.0) + sv.mu) * sv.I2)
    assert sv.value == pytest.approx(recombined, rel=1e-12)


def test_second_variation_integrals_against_beta_oracle(p511):
    # I1 = (1/2)[B((M-3)/2,(M+3)/2) + (M-3)(M-5) B((M-1)/2,(M+1)/2)],
    # I2 = (1/2) B((M-2)/2,(M-2)/2), both at M=6
    sv = second_variation(p511)
    i1 = 0.5 * (_beta_oracle(1.5, 4.5) + 3.0 * 1.0 * _beta_oracle(2.5, 3.5))
    i2 = 0.5 * _beta_oracle(2.0, 2.0)
    assert sv.I1 == pytest.approx(i1, rel=1e-12)
    assert sv.I2 == pytest.approx(i2, rel=1e-12)


def test_second_variation_sign_tracks_curve_side():
    N, alpha = 5, 1.0
    curve = beta_fs(N, alpha)
    assert second_variation(validate(N, alpha, curve + 0.1)).value < 0.0
    assert second_variation(validate(N, alpha, curve - 0.1)).value > 0.0
    on_curve = second_variation(validate(N, alpha, curve)).value
    assert on_curve == pytest.approx(0.0, abs=1e-12)


def test_directional_quotient_reference_value(p511):
    q = directional_quotient(p511, 0.01)
    assert q == pytest.approx(221.68730915697185, rel=1e-10)
    assert q < s_r_closed(p511)


def test_directional_quotient_even_in_eps(p511):
    assert directional_quotient(p511, 0.01) == directional_quotient(p511, -0.01)


def test_directional_quotient_recovers_radial_constant(p511):
    assert directional_quotient(p511, 1e-8) == pytest.approx(
        s_r_closed(p511), rel=1e-10
    )


def test_directional_quotient_taylor_window(p511):
    """The epsilon^2 drop is within a small factor of the curvature model.

    The direction carries U's amplitude, so its size is eps times it."""
    s_r = s_r_closed(p511)
    eps = 1e-2
    drop = s_r - directional_quotient(p511, eps)
    u, d = extremal(p511), derive(p511)
    (star,) = integrate_rows(lambda r: (power_weighted(u.eval(r), r, d.p_star, p511.beta + p511.N - 1.0),))
    norm_star = (d.omega * star.value) ** (1.0 / d.p_star)
    size = eps * amplitude_constant(p511)
    model = -second_variation(p511).value * size * size / norm_star**2
    assert drop > 0.0
    assert 0.2 < drop / model < 5.0


@pytest.mark.parametrize("eps, expected", [(0.0, "221.68826741979248"), (0.01, "221.68730915697185")])
def test_directional_quotient_integrates_in_one_pass(monkeypatch, p511, eps, expected):
    """The energies and the angular sum are rows of one integrate_rows call."""
    calls = []

    def spy(name, integrate):
        def counted(*args, **kwargs):
            calls.append(name)
            return integrate(*args, **kwargs)

        return counted

    monkeypatch.setattr(variation, "integrate_rows", spy("integrate_rows", integrate_rows))
    monkeypatch.setattr(
        variation, "integrate_semiinfinite", spy("integrate_semiinfinite", integrate_semiinfinite), raising=False
    )
    assert repr(directional_quotient(p511, eps)) == expected
    assert calls == ["integrate_rows"]


def test_directional_quotient_makes_one_log_pass_per_profile(monkeypatch):
    """U's and g's values come from their jets: two log passes per integrand call, not three."""
    passes, calls = [], []
    logs = PowerPeakProfile._logs
    monkeypatch.setattr(PowerPeakProfile, "_logs", lambda self, arr: passes.append(self) or logs(self, arr))

    def counted(rows):
        def integrand(r):
            calls.append(r.size)
            return rows(r)

        return integrand

    monkeypatch.setattr(variation, "integrate_rows", lambda rows: integrate_rows(counted(rows)))
    directional_quotient(validate(5, 1.0, 1.0), 1e-2)
    assert calls and len(passes) == 2 * len(calls)


def test_directional_quotient_rejects_large_eps(p511):
    with pytest.raises(DomainError):
        directional_quotient(p511, 0.7)


def test_quotient_rises_on_symmetric_side():
    p = validate(5, 1.0, 0.3)
    assert directional_quotient(p, 0.01) > s_r_closed(p)


def test_certificate_at_breaking_point(p511):
    cert = certify(p511)
    assert cert.verdict is Verdict.BREAKING
    assert cert.expected is Verdict.BREAKING
    assert cert.witness_signs == (-1, -1, -1)
    assert cert.discrepancies == ()
    assert cert.eps == DEFAULT_EPS
    assert cert.second_variation < 0.0
    assert cert.ritz_rho1 < 0.0
    assert cert.directional_quotient < cert.s_r


def test_certificate_at_symmetric_point():
    cert = certify(validate(5, 1.0, 0.3))
    assert cert.verdict is Verdict.NOT_BREAKING
    assert cert.witness_signs == (1, 1, 1)
    assert cert.discrepancies == ()


def test_certificate_on_the_curve():
    """On the curve the second-order witnesses vanish; the quotient rises at
    fourth order in eps, just above its second-order dead zone."""
    p = validate(5, 1.0, beta_fs(5, 1.0))
    cert = certify(p)
    assert cert.verdict is Verdict.BOUNDARY
    assert cert.witness_signs == (0, 1, 0)
    assert cert.discrepancies == ()


_SWEEP_POINTS = [
    (N, alpha, beta_fs(N, alpha) + frac * (N * alpha / (N - 2.0) - beta_fs(N, alpha)))
    for N in (5, 6, 8, 12)
    for alpha in (0.5, 1.0, 2.0, 4.0, 8.0)
    for frac in (0.5, 0.95)
]


@pytest.mark.parametrize("point", _SWEEP_POINTS, ids=lambda pt: "N{}-a{}-b{:.4g}".format(*pt))
def test_certificate_breaks_across_the_breaking_region(point):
    """Half and 95 % of the way from the curve to the upper edge, with
    amplitudes up to 2e8 at N = 12, every witness says Breaking."""
    cert = certify(validate(*point))
    assert cert.verdict is Verdict.BREAKING
    assert cert.witness_signs == (-1, -1, -1)
    assert cert.discrepancies == ()


@pytest.mark.parametrize("beta", [-0.5, -0.7, -0.8])
def test_certificate_below_the_curve_deep_in_the_strip(beta):
    cert = certify(validate(5, 1.0, beta))
    assert cert.verdict is Verdict.NOT_BREAKING
    assert cert.witness_signs == (1, 1, 1)
    assert cert.discrepancies == ()


def test_certificate_flags_forced_disagreement(p511):
    """A giant dead zone kills every witness; the verdict then contradicts
    the region expectation and must surface as a discrepancy."""
    cert = certify(p511, tol=1e30)
    assert cert.verdict is Verdict.BOUNDARY
    assert cert.discrepancies != ()


def test_certificate_reports_conflicting_witness_signs(monkeypatch, p511):
    """A quotient that rises against two negative witnesses is a conflict:
    Boundary, with both the conflict and the missed expectation reported."""
    monkeypatch.setattr(variation, "directional_quotient", lambda p, eps: s_r_closed(p) * (1.0 + eps))
    cert = certify(p511)
    assert cert.witness_signs == (-1, 1, -1)
    assert cert.verdict is Verdict.BOUNDARY
    assert cert.expected is Verdict.BREAKING
    assert cert.discrepancies == (
        "witness signs conflict: second_variation/quotient/ritz = (-1, 1, -1)",
        "measured verdict Boundary != expected Breaking from classification SymmetryBreaking",
    )


def test_certificate_argument_validation(p511):
    with pytest.raises(DomainError):
        certify(p511, eps=0.0)
    with pytest.raises(DomainError):
        certify(p511, tol=-1.0)
    with pytest.raises(DomainError, match="tol"):
        certify(p511, tol=float("nan"))
    with pytest.raises(DomainError):
        certify(p511, eps=float("nan"))


def test_certificate_is_frozen(p511):
    cert = certify(p511)
    with pytest.raises(AttributeError):
        cert.verdict = Verdict.NOT_BREAKING
