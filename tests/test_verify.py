"""A NaN in any input of a check must fail that check."""

import math
from types import SimpleNamespace

import pytest

from ckn_lab import verify

NAN = math.nan
_boundary = verify.check_boundary_sharp_constant

# (check, name of an input it reads from the verify module, NaN-making stand-in)
NAN_INPUTS = [
    (verify._check_closed_forms, "s_0_closed", lambda N: NAN),
    (verify._check_extremality, "quotient_radial", lambda u, p: NAN),
    (verify._check_euler_lagrange, "euler_lagrange_residual", lambda *args: NAN),
    (verify._check_transform_chain, "cosh_profile_residual", lambda m, ts: ts * NAN),
    (verify._check_fs_recoveries, "fs_locate", lambda N, a, tol: NAN),
    (verify._check_sign_law, "second_variation", lambda p: SimpleNamespace(value=NAN)),
    (verify._check_kernel_at_curve, "mode_quadratic_form", lambda *args: NAN),
    (verify._check_identity_battery, "check_pohozaev_identity", lambda u, N: NAN),
    (verify._check_boundary_equality, "check_boundary_sharp_constant",
     lambda N, a: (*_boundary(N, a)[:2], NAN)),  # NaN defect only
]


@pytest.mark.parametrize("check, name, stand_in", NAN_INPUTS, ids=[n for _, n, _ in NAN_INPUTS])
def test_nan_input_fails_its_check(monkeypatch, check, name, stand_in):
    assert check().passed
    monkeypatch.setattr(verify, name, stand_in)
    assert not check().passed


def test_a_failing_laplacian_bound_fails_the_battery_and_names_its_points(monkeypatch):
    monkeypatch.setattr(verify, "check_laplacian_bound", lambda u, p: (2.0, 1.0, False))
    result = verify._check_identity_battery()
    assert not result.passed
    assert ", laplacian bound fails at [" in result.detail
    for N, a, b in verify.BATTERY_POINTS:
        for k in (0, 1):
            assert f"({N}, {a}, {b}, {k})" in result.detail
