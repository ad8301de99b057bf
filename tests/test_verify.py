import math

import numpy as np
import pytest
from test_hyperbolic import _loop_addition_residual, _loop_mixed_residual

from superhyp import hyperbolic, verify
from superhyp.errors import MAX_GRID_POINTS, DomainError


@pytest.mark.parametrize(
    "suite, kwargs",
    [
        ("pauli", {"n_values": [2.5]}),
        ("pauli", {"n_values": []}),
        ("superhyp", {"x_values": []}),
        ("superhyp", {"x_values": [math.nan]}),
        ("bessel", {"kmax": 80.5}),
        ("genmatrix", {"w_values": []}),
        ("circle", {"N_values": [0]}),
        ("circle", {"alphas": []}),
        ("addition", {"trials": 0}),
        ("addition", {"trials": -5}),
        ("mixed", {"trials": 2.7}),
        ("mixed", {"trials": MAX_GRID_POINTS + 1}),
        ("addition", {"seed": 1.9}),
        ("mixed", {"seed": -1}),
    ],
)
def test_grids_go_through_the_shared_validators(suite, kwargs):
    with pytest.raises(DomainError):
        verify.run_suite(suite, **kwargs)


def test_default_grids_are_reported_as_before():
    report = verify.run_suite("pauli")
    assert report.params["n_values"] == list(range(2, 17))
    assert all(type(n) is int for n in report.params["n_values"])
    report = verify.run_suite("superhyp", n_values=[3])
    assert report.params["x_values"] == list(verify.DEFAULT_GRIDS["superhyp_x"])


@pytest.mark.parametrize("n", [2, 5, 8])
def test_cross_method_uses_one_filter_column_bit_for_bit(n):
    # entry j of one FFT column is exactly the real part of c_filter_complex(n, j, x)
    report = verify.run_suite("superhyp", n_values=[n])
    residuals = {
        c.inputs["x"]: c.residual for c in report.cases if c.inputs["check"] == "cross_method"
    }
    for x in verify.DEFAULT_GRIDS["superhyp_x"]:
        column = hyperbolic.filter_column(n, x).real
        per_filter = [hyperbolic.c_filter_complex(n, j, x).real for j in range(n)]
        assert list(column) == per_filter
        per_class = max(abs(hyperbolic.c_series(n, j, x) - per_filter[j]) for j in range(n))
        assert residuals[x] == per_class


@pytest.mark.parametrize("suite", ["addition", "mixed", "superhyp"])
def test_default_suites_make_one_series_call_per_level(monkeypatch, suite):
    calls = []
    series = hyperbolic.series_column

    def counted(n, x):
        calls.append(n)
        return series(n, x)

    monkeypatch.setattr(hyperbolic, "series_column", counted)
    verify.run_suite(suite)
    assert calls == list(verify.DEFAULT_GRIDS[f"{suite}_n"])


def _payload_cases(report):
    return report.to_payload()["cases"]


def _rounding(n, x, y):
    return 16 * n * np.finfo(float).eps * math.exp(abs(x) + abs(y))


def _per_trial_cases(suite, seed, trials):
    # the suites as a loop over trials: one draw of 2 per trial, scalar calls
    rng = np.random.default_rng(seed)
    tol = verify.DEFAULT_TOLERANCES[suite][suite]
    cases = []
    for n in verify.DEFAULT_GRIDS[f"{suite}_n"]:
        for trial in range(trials):
            x, y = rng.uniform(-3.0, 3.0, size=2)
            inputs = {"n": n, "trial": trial, "x": float(x), "y": float(y)}
            if suite == "addition":
                residual = hyperbolic.addition_residual(n, x, y)
                assert np.abs(residual - _loop_addition_residual(n, x, y)).max() <= _rounding(n, x, y)
                cases.append(verify._case(inputs, residual.max(), tol))
            else:
                residual = hyperbolic.mixed_product_residual(n, x, y)
                assert np.abs(residual - _loop_mixed_residual(n, x, y)).max() <= _rounding(n, x, y)
                for j, r in enumerate(residual):
                    cases.append(verify._case({**inputs, "j": j}, r, tol * math.exp(abs(x) + abs(y))))
    return _payload_cases(verify._finish(suite, {}, cases, 0.0))


@pytest.mark.parametrize("suite", ["addition", "mixed"])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("trials", [1, 100])
def test_batched_trial_suites_equal_the_per_trial_loop(suite, seed, trials):
    report = verify.run_suite(suite, seed=seed, trials=trials)
    assert _payload_cases(report) == _per_trial_cases(suite, seed, trials)


def test_batched_superhyp_equals_the_per_point_loop():
    report = verify.run_suite("superhyp")
    tol = verify.DEFAULT_TOLERANCES["superhyp"]
    cases = []
    for n in verify.DEFAULT_GRIDS["superhyp_n"]:
        for x in verify.DEFAULT_GRIDS["superhyp_x"]:
            det = hyperbolic.fundamental_identity_residual(n, x)
            cases.append(verify._case({"n": n, "x": x, "check": "identity"}, det, tol["identity"]))
            c = hyperbolic.series_column(n, x)
            if n in hyperbolic.POLY_IDENTITY_MONOMIALS:
                # the monomials as scalar ** on each value, not numpy's vectorised power
                total = 0.0
                for coeff, powers in hyperbolic.POLY_IDENTITY_MONOMIALS[n]:
                    term = coeff
                    for base, p in zip(c, powers):
                        term *= base**p
                    total += term
                poly = abs(total - 1.0)
                cases.append(verify._case({"n": n, "x": x, "check": "polynomial"}, poly, tol["polynomial"]))
                cases.append(
                    verify._case({"n": n, "x": x, "check": "agreement"}, abs(poly - det), tol["agreement"])
                )
            spread = np.abs(c - hyperbolic.filter_column(n, x).real).max()
            cases.append(
                verify._case(
                    {"n": n, "x": x, "check": "cross_method"}, spread, tol["cross_method"] * math.exp(abs(x))
                )
            )
    assert _payload_cases(report) == _payload_cases(verify._finish("superhyp", {}, cases, 0.0))
