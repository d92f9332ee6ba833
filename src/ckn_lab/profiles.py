"""Closed-form radial profiles.

Everything here is built from two small families that are closed under
differentiation, multiplication by powers of r, and linear combination:

* power-peak profiles   f(r) = sum_i c_i * r^(p_i) * (nu + r^sigma)^(e_i)
* Gaussian profiles     f(r) = sum_i c_i * r^(p_i) * exp(-r^2)

The ground-state profile, the kernel modes, and every test function in
the identity batteries live in one of these families, so fourth-order
operators can be applied exactly (term rewriting) instead of by finite
differences.

Three representation choices matter for accuracy downstream:

* Exponents are ints over one common denominator (float inputs are
  dyadic, so the conversion is lossless).  Derivative chains then stay on
  an exact integer lattice, equal exponents merge exactly instead of
  drifting apart by rounding, and evaluation reads correctly rounded quotients.
* Power-peak coefficients (and nu) are floats, or `Fraction`s when given
  as `Fraction`s; the algebra is the same for both, and the
  Euler-Lagrange residual runs its operator chain through it in exact
  rational arithmetic.
* `canonical()` rewrites all terms sharing an exponent residue down to
  the smallest peak exponent via binomial expansion.  Combinations that
  are algebraically zero (e.g. the defect of an exact solution in its
  Euler-Lagrange equation) then cancel in coefficient space, where the
  error is ulps of the coefficients, rather than in value space, where
  cancellation at large r would cost eight significant digits.

Evaluation runs in log space: the factors r^p and (nu + r^sigma)^e
overflow double precision long before their product does.  `jet(r, k)`
returns f, f', ..., f^(k) from one pass of log r and log(nu + r^sigma),
which `eval` (k = 0) and the second-order operators share.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cached_property
from typing import Protocol

import numpy as np

# s_r_closed is not read here: perfbench still reads it as profiles.s_r_closed
from .params import Params, amplitude_constant, derive, gamma_m, s_r_closed  # noqa: F401
from .specfun import DomainError

__all__ = [
    "RadialProfile",
    "PowerPeakProfile",
    "GaussianProfile",
    "extremal",
    "kernel_mode",
    "weighted_laplacian",
    "euler_lagrange_residual",
    "emden_fowler",
    "cosh_profile_residual",
    "DEFAULT_RESIDUAL_SAMPLES",
]


class RadialProfile(Protocol):
    """What every radial profile offers.  The radial integrals read ``jet``, once per integrand
    call for all integrals of a profile, or ``eval``; the quadrature's tail rule, not the
    profile, judges whether an integrand decays at 0 and at infinity."""

    def eval(self, r): ...

    def jet(self, r, order: int) -> list: ...


def _as_array(r):
    arr = np.asarray(r, dtype=float)
    return arr, arr.ndim == 0


def _chain(f, order) -> list:
    """[f, f', ..., f^(order)]; each derivative is built once per profile."""
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise DomainError(f"derivative order must be an integer >= 0, got {order!r}")
    cache = f._dcache
    while len(cache) <= order:
        cache.append(cache[-1].differentiate())
    return cache[: order + 1]


def _values(profiles, r) -> list:
    """Each profile at r, from the first one's log pass (so all must share its sigma and nu)."""
    arr, scalar = _as_array(r)
    with np.errstate(all="ignore"):
        logs = profiles[0]._logs(arr)
        out = [f._sum(logs) for f in profiles]
    if scalar:
        return [float(v) for v in out]
    # a profile without r-dependent terms sums to a scalar
    return [v if np.ndim(v) else np.full(arr.shape, v) for v in out]


class _Evaluation:
    """eval and jet from a family's `_logs(arr)` and `_sum(logs)`."""

    def eval(self, r):
        return _values([self], r)[0]

    def jet(self, r, order: int) -> list:
        """[f(r), f'(r), ..., f^(order)(r)] from one log pass."""
        return _values(_chain(self, order), r)


def _ratio(x, name: str) -> tuple[int, int]:
    """x as (numerator, denominator > 0), exactly: binary floats are dyadic rationals."""
    if not isinstance(x, (int, Fraction)):
        x = float(x)
        if not math.isfinite(x):
            raise DomainError(f"{name} must be finite, got {x}")
    return x.as_integer_ratio()


def _frac(x) -> Fraction:
    return Fraction(*_ratio(x, "exponent"))


def _times(c, n: int, d: int):
    """c * (n/d): exact for a Fraction c; a float c, the other kind, times the rounded n/d."""
    return c * (n / d) if type(c) is float else Fraction(c.numerator * n, c.denominator * d)


class _Lattice(tuple):
    """(S, D) for sigma = S/D; passed as `sigma`, it marks the terms as (c, P, E) on the denominator D."""


class PowerPeakProfile(_Evaluation):
    """sum of c * r^p * (nu + r^sigma)^e terms (fixed sigma and nu).

    Immutable by convention.  The family is closed under d/dr:

        d/dr [r^p (nu + r^sigma)^e]
            = p r^(p-1) (nu + r^sigma)^e
              + e sigma r^(p+sigma-1) (nu + r^sigma)^(e-1)

    so derivatives of any order stay in the family and are exact.

    sigma, p and e are ints over one denominator; `terms` and `sigma_frac` read them as
    `Fraction`s.  Coefficients and nu given as `Fraction` stay exact, others become floats;
    a non-finite sigma, p, e or nu is a DomainError.
    """

    def __init__(self, terms, sigma, nu=1.0):
        if not isinstance(sigma, _Lattice):
            s, d = _ratio(sigma, "sigma")
            if s <= 0:
                raise DomainError(f"sigma must be positive, got {s / d}")
            if not 0 < nu < math.inf:
                raise DomainError(f"nu must be positive and finite, got {nu}")
            terms = [(c, _ratio(p, "p"), _ratio(e, "e")) for c, p, e in terms]
            D = math.lcm(d, *(r[1] for _, *pe in terms for r in pe))
            terms = [(c, pn * (D // pd), en * (D // ed)) for c, (pn, pd), (en, ed) in terms]
            sigma, nu = _Lattice((s * (D // d), D)), nu if isinstance(nu, Fraction) else float(nu)
        merged: dict[tuple[int, int], object] = {}
        for c, P, E in terms:
            if type(c) is not float and not isinstance(c, Fraction):
                c = float(c)
            if not c:
                continue
            old = merged.get((P, E))  # a cell's first c as it is: 0 + c is c, and Fractions stay exact
            merged[P, E] = c if old is None else old + c
        self._cells = tuple((c, P, E) for (P, E), c in sorted(merged.items()) if c)
        self._lattice = sigma
        self.sigma = sigma[0] / sigma[1]
        self.nu = nu
        self._dcache: list = [self]

    @cached_property
    def terms(self) -> tuple:
        D = self._lattice[1]
        return tuple((c, Fraction(P, D), Fraction(E, D)) for c, P, E in self._cells)

    @cached_property
    def sigma_frac(self) -> Fraction:
        return Fraction(*self._lattice)

    def _on(self, D: int) -> tuple[tuple, _Lattice]:
        """The cells and lattice on D, a multiple of the profile's denominator."""
        S, m = self._lattice[0], D // self._lattice[1]
        return (tuple((c, P * m, E * m) for c, P, E in self._cells) if m > 1 else self._cells), _Lattice((S * m, D))

    # -- evaluation ---------------------------------------------------

    @cached_property
    def _float_view(self) -> list:
        """(c > 0, log|c|, p, e) per term as Python floats, built on first evaluation."""
        D = self._lattice[1]
        return [(float(c) > 0.0, math.log(abs(float(c))), P / D, E / D) for c, P, E in self._cells]

    def _logs(self, arr):
        lr = np.log(arr)
        return lr, np.logaddexp(math.log(self.nu), self.sigma * lr)

    def _sum(self, logs):
        lr, lpk = logs
        out = 0.0  # a negative first term is 0.0 - t: +0.0 where t underflows
        for plus, logc, p, e in self._float_view:
            expo = logc
            if p != 0.0:
                expo = expo + p * lr
            if e != 0.0:
                expo = expo + e * lpk
            out = out + np.exp(expo) if plus else out - np.exp(expo)
        return out

    # -- algebra ------------------------------------------------------

    def differentiate(self) -> "PowerPeakProfile":
        S, D = self._lattice
        cells = []
        for c, P, E in self._cells:
            if P:
                cells.append((_times(c, P, D), P - D, E))
            if E:
                cells.append((_times(c, E * S, D * D), P + S - D, E - D))
        return PowerPeakProfile(cells, self._lattice, self.nu)

    def times_power(self, k) -> "PowerPeakProfile":
        n, d = _ratio(k, "power")
        cells, lattice = self._on(math.lcm(self._lattice[1], d))
        shift = n * (lattice[1] // d)
        return PowerPeakProfile([(c, P + shift, E) for c, P, E in cells], lattice, self.nu)

    def scaled(self, a) -> "PowerPeakProfile":
        return PowerPeakProfile([(a * c, P, E) for c, P, E in self._cells], self._lattice, self.nu)

    def compose_power(self, k) -> "PowerPeakProfile":
        """The profile r |-> f(r^k), staying inside the family (k > 0)."""
        n, d = _ratio(k, "power")
        if n <= 0:
            raise DomainError("compose_power requires a positive exponent")
        S, D = self._lattice
        return PowerPeakProfile([(c, P * n, E * d) for c, P, E in self._cells], _Lattice((S * n, D * d)), self.nu)

    def canonical(self) -> "PowerPeakProfile":
        """Rewrite to the lowest peak exponent per residue class.

        Terms whose peak exponents differ by integers are expanded by
        the binomial theorem onto the smallest exponent; coefficients of
        algebraically-cancelling combinations then subtract exactly.
        """
        S, D = self._lattice
        groups: dict[int, list] = {}
        for cell in self._cells:
            groups.setdefault(cell[2] % D, []).append(cell)  # e's fractional residue, times D
        cells = []
        for group in groups.values():
            e_min = min(E for _, _, E in group)
            for c, P, E in group:
                j = (E - e_min) // D
                if j > 64:
                    raise DomainError("canonical expansion span too large")
                for i in range(j + 1):
                    cells.append((c * math.comb(j, i) * self.nu ** (j - i), P + i * S, e_min))
        return PowerPeakProfile(cells, self._lattice, self.nu)

    def __add__(self, other: "PowerPeakProfile") -> "PowerPeakProfile":
        if not isinstance(other, PowerPeakProfile):
            return NotImplemented
        (S, D), (S2, D2) = self._lattice, other._lattice
        if S * D2 != S2 * D or other.nu != self.nu:
            raise DomainError("profiles combine only with matching sigma and nu")
        D = math.lcm(D, D2)
        cells, lattice = self._on(D)
        return PowerPeakProfile(cells + other._on(D)[0], lattice, self.nu)

    def __sub__(self, other: "PowerPeakProfile") -> "PowerPeakProfile":
        return self + other.scaled(-1)

    def __repr__(self):
        body = " + ".join(
            f"{float(c):g}*r^{float(p):g}*(nu+r^{self.sigma:g})^{float(e):g}" for c, p, e in self.terms
        )
        return f"PowerPeakProfile({body or '0'}, nu={float(self.nu):g})"


class GaussianProfile(_Evaluation):
    """sum of c * r^p * exp(-r^2) terms; closed under differentiation."""

    def __init__(self, terms):
        merged: dict[float, float] = {}
        for c, p in terms:
            if c != 0.0:
                merged[float(p)] = merged.get(float(p), 0.0) + float(c)
        self.terms = tuple((c, p) for p, c in sorted(merged.items()) if c != 0.0)
        self._dcache: list = [self]

    @staticmethod
    def _logs(arr):
        return np.log(arr), -arr * arr

    def _sum(self, logs):
        lr, damp = logs
        out = 0.0
        for c, p in self.terms:
            expo = math.log(abs(c)) + damp
            if p != 0.0:
                expo = expo + p * lr
            out = out + np.exp(expo) if c > 0.0 else out - np.exp(expo)
        return out

    def differentiate(self) -> "GaussianProfile":
        new_terms = []
        for c, p in self.terms:
            if p != 0.0:
                new_terms.append((c * p, p - 1.0))
            new_terms.append((-2.0 * c, p + 1.0))
        return GaussianProfile(new_terms)


# ---------------------------------------------------------------------------
# Ground state and kernel modes
# ---------------------------------------------------------------------------


def _exponents(p: Params) -> tuple[int, int, int]:
    """(S, K, D): the float inputs' sigma = 2+beta-alpha = S/D and kappa = N-4+2*alpha-beta = K/D."""
    (a, da), (b, db) = _ratio(p.alpha, "alpha"), _ratio(p.beta, "beta")
    D = math.lcm(da, db)
    A, B = a * (D // da), b * (D // db)
    return 2 * D + B - A, (p.N - 4) * D + 2 * A - B, D


def extremal(p: Params, lam: float = 1.0) -> PowerPeakProfile:
    """The radial minimizer family: lam^(kappa/2) * U(lam * r).

    kappa = N-4+2*alpha-beta is the decay rate; the profile is
    amplitude * lam^(-kappa/2) * (lam^(-sigma) + r^sigma)^(-kappa/sigma).
    """
    if not 0.0 < lam < math.inf:
        raise DomainError(f"scaling parameter must be positive and finite, got {lam}")
    lam = float(lam)
    S, K, D = _exponents(p)
    try:  # the plain float powers, so every in-range profile keeps its bits
        coeff = amplitude_constant(p) * lam ** (-(K / D) / 2.0)
        nu = lam ** (-(S / D))
    except OverflowError:
        coeff = nu = math.inf
    if not (sys.float_info.min <= coeff < math.inf and sys.float_info.min <= nu < math.inf):
        raise DomainError(
            f"scaling parameter {lam!r} puts nu = lam^(-{S / D:g}) or the coefficient "
            f"amplitude * lam^(-{K / D / 2.0:g}) outside double range"
        )
    return PowerPeakProfile([(coeff, 0, -K * D)], _Lattice((S * S, S * D)), nu)  # -kappa/sigma = -K*D/(S*D)


def kernel_mode(p: Params, which: str) -> PowerPeakProfile:
    """Radial factor of a linearized-kernel direction.

    which='Z0': scaling direction, (1 - r^sigma)(1 + r^sigma)^(-(N-2+alpha)/sigma);
    changes sign exactly once, at r = 1.
    which='Z1_radial': translation-type direction at the transition curve,
    r^(sigma/2)(1 + r^sigma)^(-(N-2+alpha)/sigma); the full mode carries an
    extra angular factor x_i/|x| tracked by mode index, not here.
    """
    S, K, D = _exponents(p)
    e = -2 * (S + K) * D  # -(N-2+alpha)/sigma = -(S+K)/S over the denominator 2*S*D, where sigma/2 is S*S
    if which == "Z0":
        terms = [(1.0, 0, e), (-1.0, 2 * S * S, e)]
    elif which == "Z1_radial":
        terms = [(1.0, S * S, e)]
    else:
        raise DomainError(f"unknown kernel mode {which!r}")
    return PowerPeakProfile(terms, _Lattice((2 * S * S, 2 * S * D)), nu=1.0)


# ---------------------------------------------------------------------------
# Weighted radial operators
# ---------------------------------------------------------------------------


def _require_power_peak(u) -> None:
    if not isinstance(u, PowerPeakProfile):
        raise DomainError(f"{type(u).__name__} is outside the power-peak family c r^p (nu + r^sigma)^e")


def weighted_laplacian(u, alpha: float, N: int):
    """Radial form of the weighted divergence: r^alpha * (u'' + (N-1+alpha) u'/r).

    u must be a `PowerPeakProfile` (DomainError otherwise), and so is the
    result; its derivatives to order 2 need u to order 4.
    """
    _require_power_peak(u)
    _, d1, d2 = _chain(u, 2)
    # the exact drift rounds to N - 1.0 + alpha, so float profiles see no change
    drift = N - 1 + _frac(alpha)
    return d2.times_power(alpha) + d1.times_power(_frac(alpha) - 1).scaled(drift)


DEFAULT_RESIDUAL_SAMPLES = tuple(np.geomspace(1e-2, 1e2, 25))


def euler_lagrange_residual(u, p: Params, samples=None) -> float:
    """Pointwise defect of u in the fourth-order Euler-Lagrange equation.

    Applying the weighted divergence, dividing by r^beta, and applying
    the weighted divergence again must reproduce r^beta |u|^(p*-2) u.
    Returns the max over the samples of |lhs - rhs| / (|lhs| + |rhs| + 1e-300).

    For a single-term profile a * r^p0 * (nu + r^sigma)^e0 (the minimizer
    family and its multiples) the defect is formed in coefficient space:
    the operator chain runs on the unit profile with `Fraction`
    coefficients (every multiplier it introduces is a dyadic float, hence
    an exact Fraction), the right side is subtracted as a single cell, and
    the difference is reduced to canonical cells before scaling by a.  For
    an exact solution everything cancels in Q except one ulp of
    |a|^(p*-2) at the cell that carries the solution's own decay, so the
    relative defect stays at rounding level uniformly in r instead of
    being amplified at far field where both sides are ~1e-15 of their
    peak size.
    """
    d = derive(p)
    pts = np.asarray(
        DEFAULT_RESIDUAL_SAMPLES if samples is None else samples, dtype=float
    )
    if isinstance(u, PowerPeakProfile) and len(u.terms) == 1:
        a, p0, e0 = u.terms[0]
        beta_f = _frac(p.beta)
        unit = PowerPeakProfile([(Fraction(1), p0, e0)], u.sigma_frac, Fraction(u.nu))
        inner = weighted_laplacian(unit, p.alpha, p.N).times_power(-beta_f)
        pstar_frac = 2 * (p.N + beta_f) / Fraction(*_exponents(p)[1:])  # the equation's p*, whatever u's sigma
        # |u|^(p*-2) u is a times |a|^(p*-2) |unit|^(p*-2) unit, for either sign of a
        rhs_unit = abs(a) ** (d.p_star - 2.0)
        rhs_cell = PowerPeakProfile(
            [(_frac(rhs_unit), beta_f + p0 * (pstar_frac - 1), e0 * (pstar_frac - 1))],
            u.sigma_frac,
            unit.nu,
        )
        dust = (weighted_laplacian(inner, p.alpha, p.N) - rhs_cell).canonical()
        rhs, defect = _values((rhs_cell.scaled(a), dust.scaled(a)), pts)
        # the chain on u is a times the chain on the unit profile, rhs + dust
        lhs = rhs + defect
        defect = np.abs(defect)
    else:
        inner = weighted_laplacian(u, p.alpha, p.N).times_power(-_frac(p.beta))
        lhs, uv = weighted_laplacian(inner, p.alpha, p.N).eval(pts), u.eval(pts)
        rhs = pts**p.beta * np.abs(uv) ** (d.p_star - 2.0) * uv
        defect = np.abs(lhs - rhs)
    return float(np.max(defect / (np.abs(lhs) + np.abs(rhs) + 1e-300)))


# ---------------------------------------------------------------------------
# Log-radius transform chain
# ---------------------------------------------------------------------------


def emden_fowler(u, p: Params):
    """Transform a radial profile to the autonomous fourth-order ODE picture.

    Substituting r = s^q and t = -ln s maps u to
    phi(t) = q^((M-4)/2) * s^((M-4)/2) * u(s^q), which for the ground
    state solves

        phi'''' - ((M-2)^2+4)/2 * phi'' + M^2(M-4)^2/16 * phi
            = |phi|^(8/(M-4)) * phi.

    Returns (phi, residual): phi(t) evaluates the transformed profile,
    residual(t) the defect in the ODE above, both accepting scalars or
    arrays.  residual(t, relative=True) gives |defect| divided by the
    larger of M^2(M-4)^2/16 |phi| and |phi|^(8/(M-4)) |phi| at each t, so
    that it judges the profile and not its size (0 where the defect is
    exactly 0).  Derivatives in t come from the exact s-derivatives of the
    profile algebra via d/dt = -s d/ds.

    Raises:
        DomainError: if u is not a `PowerPeakProfile`, or if a coefficient of phi,
            or later a term of the residual, exceeds double range, which happens
            for the ground state near the lower edge of the strip (M in the hundreds).
    """
    _require_power_peak(u)
    d = derive(p)
    m = d.M
    S, K, D = _exponents(p)
    half = Fraction(K, S)  # kappa/sigma = (M-4)/2
    try:
        scale = d.q ** float(half)
    except OverflowError:
        scale = math.inf
    psi = u.compose_power(Fraction(2 * D, S)).times_power(half).scaled(scale)
    if not all(math.isfinite(c) for c, _, _ in psi._cells):
        raise DomainError(
            f"transformed profile q^((M-4)/2) u overflows double precision at M={m!r}"
        )
    c2 = ((m - 2.0) ** 2 + 4.0) / 2.0
    c0 = m**2 * (m - 4.0) ** 2 / 16.0
    pw = 8.0 / (m - 4.0)

    def phi(t):
        return psi.eval(np.exp(-np.asarray(t, dtype=float)))  # a float for a scalar t, as eval gives

    def residual(t, relative=False):
        arr, scalar = _as_array(t)
        s = np.exp(-arr)
        v, d1, d2, d3, d4 = psi.jet(s, 4)
        # t-derivatives by the chain rule for t = -ln s:
        phi2 = s * d1 + s**2 * d2
        phi4 = s * d1 + 7.0 * s**2 * d2 + 6.0 * s**3 * d3 + s**4 * d4
        out = phi4 - c2 * phi2 + c0 * v - np.abs(v) ** pw * v
        if not np.all(np.isfinite(out)):
            raise DomainError(
                f"Emden-Fowler residual overflows double precision at M={m!r}"
            )
        if relative:
            mag = np.abs(v)
            size = np.maximum(c0 * mag, mag**pw * mag)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(out == 0.0, 0.0, np.abs(out) / size)
        return float(out) if scalar else out

    return phi, residual


def cosh_profile_residual(M: float, t) -> float:
    """ODE defect of the closed-form solitary profile, for any M > 4.

    The profile gamma_m(M)^((M-4)/8) * (2 cosh t)^(-(M-4)/2) should solve
    the transformed equation; this evaluates the defect directly from M,
    independent of any parameter triple (fractional M included).
    Derivatives use the recursion F^(n) = F * p_n(tanh t) with
    p_(n+1) = (1-w^2) p_n' - kappa w p_n.

    Raises:
        DomainError: if the amplitude gamma_m(M)^((M-4)/8) exceeds double
            range, which happens from M ~ 259.5 on.
    """
    try:
        amp = math.exp(math.log(gamma_m(M)) * (M - 4.0) / 8.0)
    except OverflowError:
        raise DomainError(
            f"cosh profile amplitude overflows double precision at M={M!r}"
        ) from None
    arr, scalar = _as_array(t)
    kappa = (M - 4.0) / 2.0
    u = np.tanh(arr)
    w = np.polynomial.Polynomial([0.0, 1.0])
    polys = [np.polynomial.Polynomial([1.0])]
    for _ in range(4):
        p = polys[-1]
        polys.append((1 - w**2) * p.deriv() - kappa * w * p)
    # log(2 cosh t) = |t| + log1p(e^(-2|t|)), stable for large |t|
    F = np.exp(-kappa * (np.abs(arr) + np.log1p(np.exp(-2.0 * np.abs(arr)))))
    p2, p4 = polys[2](u), polys[4](u)
    c2 = ((M - 2.0) ** 2 + 4.0) / 2.0
    c0 = M**2 * (M - 4.0) ** 2 / 16.0
    phi = amp * F
    lhs = amp * F * (p4 - c2 * p2 + c0)
    rhs = np.abs(phi) ** (8.0 / (M - 4.0)) * phi
    out = lhs - rhs
    return float(out) if scalar else out
