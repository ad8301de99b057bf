import math

import pytest

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
    # entry j of one FFT column is exactly what c_filter(n, j, x) returns
    report = verify.run_suite("superhyp", n_values=[n])
    residuals = {
        c.inputs["x"]: c.residual for c in report.cases if c.inputs["check"] == "cross_method"
    }
    for x in verify.DEFAULT_GRIDS["superhyp_x"]:
        column = hyperbolic.filter_column(n, x).real
        assert [column[j] for j in range(n)] == [hyperbolic.c_filter(n, j, x) for j in range(n)]
        per_class = max(
            abs(hyperbolic.c_series(n, j, x) - hyperbolic.c_filter(n, j, x)) for j in range(n)
        )
        assert residuals[x] == per_class
