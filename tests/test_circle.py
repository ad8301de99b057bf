import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from superhyp import algebra, bessel, circle, genmatrix
from superhyp.errors import ARG_MAX, DomainError


def test_minimal_lattice_layout():
    ops = circle.build_lattice(1)
    assert ops.dim == 3
    np.testing.assert_array_equal(ops.levels, [-1, 0, 1])


def test_number_operator_is_exact_integer_diagonal():
    ops = circle.build_lattice(5, mode="open")
    assert ops.levels.dtype == np.int64
    np.testing.assert_array_equal(ops.levels, np.arange(-5, 6))


def test_clock_from_zero_gauge():
    ops = circle.build_lattice(2, alpha=0.0)
    expected = np.exp(2j * np.pi * np.arange(-2, 3) / 5)
    assert np.abs(ops.clock - expected).max() == 0.0


def test_build_guards():
    with pytest.raises(DomainError):
        circle.build_lattice(0)
    with pytest.raises(DomainError):
        circle.build_lattice(2, mode="absorbing")
    with pytest.raises(DomainError):
        circle.build_lattice(2, alpha=1.0)
    with pytest.raises(DomainError):
        circle.build_lattice(2, alpha=-0.1)
    for alpha in (None, "x", np.nan):
        with pytest.raises(DomainError, match="invalid-gauge"):
            circle.build_lattice(1, alpha=alpha)


def _eager_lattice(N, mode, alpha):
    # the dense G, S and clock V(alpha): the reference for the lattice's O(N) data
    dim = 2 * N + 1
    levels = np.arange(-N, N + 1, dtype=np.int64)
    s = np.eye(dim, k=-1, dtype=np.int64)
    if mode == "cyclic":
        s[0, dim - 1] = 1
    return {"g": np.diag(levels), "s": s, "sigma3t": np.diag(np.exp(2j * np.pi * (levels + alpha) / dim))}


@pytest.mark.parametrize("N", [1, 2, 5, 20])
@pytest.mark.parametrize("mode", circle.MODES)
@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.7])
def test_lazy_matrices_are_the_eager_construction(N, mode, alpha):
    # G is diag(levels), S its subdiagonal of 1s plus the corner, V(alpha) diag(clock)
    ops = circle.build_lattice(N, mode=mode, alpha=alpha)
    eager = _eager_lattice(N, mode, alpha)
    assert ops.levels.dtype == np.int64
    assert np.array_equal(np.diag(ops.levels), eager["g"])
    band = np.eye(ops.dim, k=-1, dtype=np.int64)
    band[0, -1] = ops.corner
    assert np.array_equal(band, eager["s"])
    assert ops.clock.dtype == np.complex128
    assert np.array_equal(np.diag(ops.clock), eager["sigma3t"])


def _outer_commutator(mode, g, s):
    # the former commutator_check: [G, S] - S from the n x n outer product of the levels
    dim = s.shape[0]
    levels = np.diag(g)
    defect = np.subtract.outer(levels, levels) * s - s
    corner = int(defect[0, dim - 1])
    rest = defect.copy()
    rest[0, dim - 1] = 0
    max_other = int(np.abs(rest).max())
    if mode == "cyclic":
        exact = max_other == 0 and corner % dim == 0
    else:
        exact = max_other == 0 and corner == 0
    return circle.CommutatorReport(mode, dim, corner, max_other, corner % dim, exact)


@pytest.mark.parametrize("N", [1, 2, 5, 20])
@pytest.mark.parametrize("mode", circle.MODES)
@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.7])
def test_band_commutator_is_the_outer_product_commutator(N, mode, alpha):
    eager = _eager_lattice(N, mode, alpha)
    want = _outer_commutator(mode, eager["g"], eager["s"])
    assert circle.commutator_check(circle.build_lattice(N, mode=mode, alpha=alpha)) == want


def test_commutator_corner_comes_from_the_wraparound_entry(monkeypatch):
    monkeypatch.setattr(circle.LatticeOperators, "corner", property(lambda self: 2))
    report = circle.commutator_check(circle.build_lattice(3, mode="open"))
    assert report.corner_defect == -14 and not report.exact


def test_build_lattice_builds_no_matrix():
    ops = circle.build_lattice(3, mode="cyclic", alpha=0.25)
    assert not any(isinstance(v, np.ndarray) for v in ops._asdict().values())
    circle.generating_operator(ops, 1.0, 0.8)
    assert not any(isinstance(v, np.ndarray) for v in ops._asdict().values())


@pytest.mark.parametrize("mode", circle.MODES)
def test_build_lattice_allocates_no_matrix_at_the_size_cap(mode):
    # one (2N+1)^2 int64 plane at N = 2047 would be 128 MiB
    tracemalloc.start()
    try:
        ops = circle.build_lattice(2047, mode=mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert ops.dim == 4095


def test_cyclic_shift_matches_finite_system_shift():
    np.testing.assert_array_equal(
        _eager_lattice(3, "cyclic", 0.0)["s"], algebra.shift_matrix(7).real.astype(np.int64)
    )


def test_shift_order_by_mode():
    for N in (1, 3):
        dim = 2 * N + 1
        cyc = _eager_lattice(N, "cyclic", 0.0)["s"]
        np.testing.assert_array_equal(
            np.linalg.matrix_power(cyc, dim), np.eye(dim, dtype=np.int64)
        )
        opn = _eager_lattice(N, "open", 0.0)["s"]
        np.testing.assert_array_equal(
            np.linalg.matrix_power(opn, dim), np.zeros((dim, dim), dtype=np.int64)
        )


def test_clock_shift_relation_in_cyclic_mode():
    for alpha in (0.0, 0.25):
        eager = _eager_lattice(4, "cyclic", alpha)
        sigma = np.exp(2j * np.pi / 9)
        s = eager["s"].astype(complex)
        assert np.abs(eager["sigma3t"] @ s - sigma * (s @ eager["sigma3t"])).max() <= 1e-12


@pytest.mark.parametrize("N", [1, 2, 5, 20])
def test_cyclic_commutator_corner_defect(N):
    report = circle.commutator_check(circle.build_lattice(N, mode="cyclic"))
    assert report.corner_defect == -(2 * N + 1)
    assert report.max_other_defect == 0
    assert report.defect_mod_dim == 0
    assert report.exact


@pytest.mark.parametrize("N", [1, 2, 5, 20])
def test_open_commutator_is_exact(N):
    report = circle.commutator_check(circle.build_lattice(N, mode="open"))
    assert report.corner_defect == 0
    assert report.max_other_defect == 0
    assert report.exact


def test_gauge_offset_does_not_change_commutator_report():
    for mode in circle.MODES:
        reports = [
            circle.commutator_check(circle.build_lattice(3, mode=mode, alpha=a))
            for a in (0.0, 0.25, 0.7)
        ]
        assert reports[0] == reports[1] == reports[2]


def test_cyclic_shift_is_unitary_and_open_shift_is_isometry_off_boundary():
    cyc = _eager_lattice(3, "cyclic", 0.0)["s"]
    np.testing.assert_array_equal(cyc.T @ cyc, np.eye(7, dtype=np.int64))
    opn = _eager_lattice(3, "open", 0.0)["s"]
    expected = np.eye(7, dtype=np.int64)
    expected[6, 6] = 0
    np.testing.assert_array_equal(opn.T @ opn, expected)


def test_clock_spectrum_carries_gauge_phase():
    untwisted = circle.build_lattice(4).clock
    for alpha in (0.0, 0.25, 0.7):
        clock = circle.build_lattice(4, alpha=alpha).clock
        expected = np.exp(2j * np.pi * (np.arange(-4, 5) + alpha) / 9)
        assert np.abs(clock - expected).max() <= 1e-12
        assert np.abs(clock - np.exp(2j * np.pi * alpha / 9) * untwisted).max() <= 1e-12


def test_generating_operator_element_at_zero():
    for m, k in ((0, 0), (2, -1)):
        value = circle.generating_operator_element(5, 0.0, 1.0, m, k)
        assert value == (1.0 if m == k else 0.0)


def test_generating_operator_element_guards():
    with pytest.raises(DomainError):
        circle.generating_operator_element(4, 1.0, 1.0, 5, 0)
    with pytest.raises(DomainError):
        circle.generating_operator_element(4, 31.0, 1.0, 0, 0)
    ops = circle.build_lattice(4)
    with pytest.raises(DomainError):
        circle.generating_operator(ops, 1.0, 0.0)
    # the shared weight bound: at w = 1e-200 the operator used to come back as NaN
    for x, w in ((1.0, 1e-200), (0.0, 1e-200), (20.0, 3.0)):
        with pytest.raises(DomainError):
            circle.generating_operator(circle.build_lattice(2, mode="open"), x, w)


def test_central_elements_converge_to_bessel_values():
    assert (
        abs(circle.generating_operator_element(40, 1.0, 1.0, 0, 0) - 1.2660658777520082)
        <= 1e-8
    )
    assert (
        abs(circle.generating_operator_element(40, 2.0, 1.0, 3, 0) - 0.21273995923985262)
        <= 1e-8
    )
    for diff in range(-5, 6):
        element = circle.generating_operator_element(40, 2.0, 1.0, diff, 0)
        assert abs(element - bessel.bessel_i(diff, 2.0)) <= 1e-8


def test_convergence_study_zero_argument():
    points = circle.convergence_study([5, 10, 20], 0.0, 1.0, 0)
    assert [p.error for p in points] == [0.0, 0.0, 0.0]
    assert [p.resolved for p in points] == [0.0, 0.0, 0.0]


def test_convergence_study_resolved_errors_nonincreasing():
    for x in (1.0, 2.0):
        for order in (0, 2, 5):
            points = circle.convergence_study([10, 20, 40], x, 1.0, order)
            resolved = [p.resolved for p in points]
            assert all(b <= a for a, b in zip(resolved, resolved[1:]))
            assert points[-1].error <= 1e-8


def test_convergence_study_measurable_regime_decays():
    # large enough argument that the N=8 truncation error is above rounding
    points = circle.convergence_study([8, 14, 20], 6.0, 1.0, 0)
    assert points[0].resolved > 0.0
    resolved = [p.resolved for p in points]
    assert all(b <= a for a, b in zip(resolved, resolved[1:]))


def test_convergence_study_flags_boundary_limited_points():
    points = circle.convergence_study([5, 10, 20], 1.0, 1.0, 5)
    assert points[0].boundary_limited
    assert not points[-1].boundary_limited


def test_convergence_study_guards():
    with pytest.raises(DomainError):
        circle.convergence_study([], 1.0, 1.0, 0)
    with pytest.raises(DomainError):
        circle.convergence_study([10, 10], 1.0, 1.0, 0)
    with pytest.raises(DomainError):
        circle.convergence_study([5, 10], 1.0, 1.0, 6)
    with pytest.raises(DomainError):
        circle.convergence_study([5, 10], 1.0, 0.0, 0)
    with pytest.raises(DomainError):
        circle.convergence_study([5, 10], 1.0, 1e-200, 0)


def test_cyclic_lattice_reproduces_finite_generating_matrix():
    x, w = 0.9, 0.8 + 0.2j
    ops = circle.build_lattice(3, mode="cyclic")
    lattice_matrix = circle.generating_operator(ops, x, w)
    finite = genmatrix.generating_matrix(7, x, w).matrix
    # whole matrices agree, and the central column is the first column
    # of the finite circulant after folding indices about the origin
    assert np.abs(lattice_matrix - finite).max() <= 1e-10
    np.testing.assert_allclose(
        lattice_matrix[:, 3], np.roll(finite[:, 0], 3), atol=1e-10
    )


@pytest.mark.parametrize("N", [1, 5, 200])
def test_open_lattice_real_route_is_the_complex_exponential(N):
    # the former route: the complex exponential of (x/2)(w S + S^T/w); at
    # N = 200, x = 20 the far corners lie below the smallest normal double
    eps = np.finfo(float).eps
    ops = circle.build_lattice(N, mode="open")
    s = _eager_lattice(N, "open", 0.0)["s"].astype(complex)
    for x in (4.0, 20.0) if N == 200 else (4.0,):
        for w in (np.exp(1.234j), 0.8, 0.8 * np.exp(1j * np.pi / 5), -1.0, 1j, 2.0, 1.0 / 3.0):
            scale = abs(x) * max(abs(w), 1.0 / abs(w))
            if scale > ARG_MAX:
                continue
            got = circle.generating_operator(ops, x, w)
            want = algebra.mat_exp((x / 2.0) * (w * s + s.T / w))
            floor = circle.RESOLUTION_EPS_FACTOR * eps * np.exp(scale)
            assert got.dtype == np.complex128
            assert np.abs(got - want).max() <= floor, (N, x, w)


@pytest.mark.parametrize(
    "N, x, w",
    [
        (1, 4.0, 2.0),
        (5, -7.0, 0.8 * np.exp(1j * np.pi / 5)),
        (5, 4.0, -1.0),
        (40, 20.0, np.exp(1.234j)),
        (200, -7.0, 1.0 / 3.0),
        (200, 20.0, 2.0),
    ],
)
def test_element_is_the_matrix_entry_bit_for_bit(N, x, w):
    matrix = circle.generating_operator(circle.build_lattice(N, mode="open"), x, w)
    labels = (-N, -N // 2, -1, 0, 1, N // 2, N)
    for m in labels:
        for k in labels:
            got = np.complex128(circle.generating_operator_element(N, x, w, m, k))
            assert got.tobytes() == matrix[m + N, k + N].tobytes(), (m, k)


def test_element_allocates_no_matrix_at_the_size_cap():
    # a (2N+1)^2 complex matrix at N = 2047 would be 128 MiB
    circle.generating_operator_element(2047, 20.0, 0.8, 3, -2)  # warm numpy's FFT plan cache
    tracemalloc.start()
    try:
        value = circle.generating_operator_element(2047, 20.0, 0.8, 3, -2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert abs(value - bessel.bessel_i(5, 20.0) * 0.8 ** 5) <= 1e-6


def test_open_operator_peak_memory():
    # the docstring's bound: two n^2 float64 planes (the complex result)
    # plus O(n) vectors; build_lattice adds no plane
    N = 1000
    plane = (2 * N + 1) ** 2 * 8
    for x, w in ((20.0, 2.0), (20.0, 0.8 * np.exp(1j * np.pi / 5)), (5.0, 1j)):
        tracemalloc.start()
        try:
            circle.generating_operator(circle.build_lattice(N, mode="open"), x, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * plane + 2**20, peak / plane


def _image_sum(N, x, w, m, k, cache):
    # w^(m-k) sum_j [I_{m-k+2jL}(x) - I_{m+k+L+2jL}(x)], L = 2N+2, at 40 digits;
    # orders past 400 are below 1e-300 at |x| <= 20 and are left out
    L = 2 * N + 2

    def bessel(order):
        order = abs(order)
        if order not in cache:
            cache[order] = mpmath.besseli(order, x, zeroprec=4000)
        return cache[order]

    total = mpmath.mpf(0)
    for j in range(-3, 4):
        for order, sign in ((m - k + 2 * j * L, 1), (m + k + L + 2 * j * L, -1)):
            if abs(order) <= 400:
                total += sign * bessel(order)
    return mpmath.mpc(w) ** (m - k) * total


@pytest.mark.parametrize("N", [5, 200])
def test_open_operator_meets_its_error_model(N):
    # every sampled entry is within (C + |m| + |k|) eps exp((|x|/2)(|w| + 1/|w|))
    # of the image sum: C from the FFT rounding, |m| + |k| from the gauge phases
    C = 4.0
    eps = np.finfo(float).eps
    ops = circle.build_lattice(N, mode="open")
    h = N // 2
    entries = [(0, 0), (1, 0), (0, 3), (N, 0), (0, -N), (h, -h), (-h, h),
               (N, N), (N, -N), (-N, N), (-N, -N)]
    mpmath.mp.dps = 40
    try:
        for x in (-7.0, 4.0, 20.0):
            cache = {}
            for w in (1.0, -1.0, np.exp(1.234j), 2.0, 1.0 / 3.0, 0.8 * np.exp(1j * np.pi / 5)):
                r = abs(w)
                if abs(x) * max(r, 1.0 / r) > ARG_MAX:
                    continue
                matrix = circle.generating_operator(ops, x, w)
                unit = eps * np.exp(abs(x) / 2.0 * (r + 1.0 / r))
                for m, k in entries:
                    want = _image_sum(N, x, w, m, k, cache)
                    err = float(abs(mpmath.mpc(matrix[m + N, k + N]) - want))
                    assert err <= (C + abs(m) + abs(k)) * unit, (x, w, m, k, err / unit)
    finally:
        mpmath.mp.dps = 15


def test_convergence_script_runs_the_readme_example():
    script = Path(__file__).resolve().parents[1] / "scripts" / "circle_convergence.py"
    env = dict(os.environ, PYTHONPATH=str(Path(circle.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(script), "--x", "6.0", "--N", "8,12,16,24", "--orders", "0,1,3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "order,N,error,resolved,boundary_limited"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 12
    for _, N, _, resolved, _ in rows:
        assert (float(resolved) > 0.0) == (N == "8"), (N, resolved)
    flags = {}
    for order, _, _, _, flag in rows:
        flags.setdefault(order, []).append(flag)
    assert flags == {
        "0": ["True", "False", "False", "False"],
        "1": ["True", "True", "False", "False"],
        "3": ["True", "True", "True", "False"],
    }


@pytest.mark.parametrize(
    "flags, code, message",
    [
        (["--N", "10,5"], 3, "error: invalid-argument: N_list must be nonempty and increasing, got [10, 5]\n"),
        (["--N", "abc"], 2, "error: argument --N: invalid parse_int_grid value: 'abc'\n"),
        (["--x", "1e9"], 3, "error: overflow-domain: need |x| <= 30.0, got 1000000000.0\n"),
    ],
)
def test_convergence_script_refuses_bad_input_in_one_line(flags, code, message):
    # a DomainError exits 3 as the CLI does, a malformed flag value 2 through argparse
    script = Path(__file__).resolve().parents[1] / "scripts" / "circle_convergence.py"
    env = dict(os.environ, PYTHONPATH=str(Path(circle.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(script), *flags], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == code and proc.stdout == ""
    assert proc.stderr.endswith(message) and "Traceback" not in proc.stderr
