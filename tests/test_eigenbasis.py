import ctypes
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st

from torusnodal.eigenbasis import (
    TWO_PI,
    EigenfunctionSpec,
    SampledField,
    _column_blocks,
    _openblas_function,
    enumerate_modes,
    evaluate,
    random_eigenfunction,
    real_part,
    require_sampling_grid,
    sample_grid,
    sine_mode_spec,
    spec_from_json,
    spec_to_json,
)
from torusnodal.errors import EmptySpectrum, NonRealValue, ResolutionTooCoarse
from torusnodal.harness import ExperimentPlan

from conftest import constant_spec, separable_sine_spec

# Energies with spectra of known size, validated against the brute-force
# oracle below before being frozen here.
KNOWN_COUNTS = {1: 4, 2: 4, 4: 4, 5: 8, 25: 12, 65: 16, 325: 24, 1105: 32}
EMPTY_ENERGIES = [3, 6, 7, 15, 30]


def brute_force_modes(energy: int) -> list[tuple[int, int]]:
    bound = int(math.isqrt(energy))
    out = [
        (a, b)
        for a in range(-bound, bound + 1)
        for b in range(-bound, bound + 1)
        if a * a + b * b == energy
    ]
    return sorted(out)


@pytest.mark.parametrize("energy,count", sorted(KNOWN_COUNTS.items()))
def test_enumerate_modes_matches_brute_force(energy, count):
    modes = enumerate_modes(energy)
    assert modes == brute_force_modes(energy)
    assert len(modes) == count


def test_enumerate_modes_sorted_and_closed_under_negation():
    modes = enumerate_modes(325)
    assert modes == sorted(modes)
    mode_set = set(modes)
    assert all((-a, -b) in mode_set for a, b in modes)


@pytest.mark.parametrize("energy", EMPTY_ENERGIES)
def test_empty_spectrum_raises(energy):
    with pytest.raises(EmptySpectrum):
        enumerate_modes(energy)


def test_enumerate_modes_rejects_nonpositive():
    for bad in (0, -4):
        with pytest.raises(ValueError):
            enumerate_modes(bad)


def test_random_eigenfunction_unit_norm_and_conjugacy():
    spec = random_eigenfunction(65, 7)
    coeffs = np.asarray(spec.coeffs)
    assert abs(np.sum(np.abs(coeffs) ** 2) - 1.0) < 1e-12
    index = {m: i for i, m in enumerate(spec.modes)}
    for (a, b), i in index.items():
        j = index[(-a, -b)]
        assert coeffs[j] == pytest.approx(np.conj(coeffs[i]), abs=1e-15)


def test_random_eigenfunction_seed_determinism():
    one = random_eigenfunction(65, 3)
    two = random_eigenfunction(65, 3)
    other = random_eigenfunction(65, 4)
    assert np.array_equal(np.asarray(one.coeffs), np.asarray(two.coeffs))
    assert not np.array_equal(np.asarray(one.coeffs), np.asarray(other.coeffs))


def test_spec_validation_rejects_bad_inputs():
    spec = random_eigenfunction(5, 0)
    modes = list(spec.modes)
    coeffs = np.asarray(spec.coeffs)

    with pytest.raises(ValueError):
        EigenfunctionSpec(energy=5, modes=[(9, 9)] + modes[1:], coeffs=coeffs)

    broken = coeffs.copy()
    broken[0] = broken[0] + 0.3j  # breaks conjugate pairing
    with pytest.raises(NonRealValue):
        EigenfunctionSpec(energy=5, modes=modes, coeffs=broken)

    with pytest.raises(ValueError):
        EigenfunctionSpec(energy=5, modes=modes, coeffs=coeffs * 2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_spec_rejects_non_finite_coefficients(bad):
    # Every comparison with NaN is false, so a NaN pair would pass both the
    # conjugate-symmetry and the unit-norm check.
    spec = random_eigenfunction(5, 0)
    coeffs = np.asarray(spec.coeffs).copy()
    coeffs[0] = coeffs[-1] = bad
    with pytest.raises(ValueError, match="coefficients must be finite"):
        EigenfunctionSpec(energy=5, modes=spec.modes, coeffs=coeffs)


def test_evaluate_matches_direct_mode_sum():
    spec = random_eigenfunction(65, 11)
    rng = np.random.default_rng(0)
    pts = rng.random((40, 2))
    got = evaluate(spec, pts)
    modes = np.asarray(spec.modes, dtype=float)
    phases = np.exp(2j * np.pi * pts @ modes.T)
    want = (phases @ np.asarray(spec.coeffs)).real
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("pts", [
    [0.1, 0.2],  # one point takes the (1, 2) batch
    np.zeros((3, 3)),
    [[0.1, 0.2], [np.nan, 0.3]],
])
def test_evaluate_takes_only_a_finite_batch_of_points(pts):
    with pytest.raises(ValueError, match=r"finite \(M, 2\) array"):
        evaluate(random_eigenfunction(65, 11), pts)


needs_openblas = pytest.mark.skipif(_openblas_function("set_num_threads") is None,
                                    reason="numpy is not linked to OpenBLAS")


def _blas_thread_calls():
    """OpenBLAS's set_num_threads and get_num_threads, through evaluate's own lookup."""
    set_threads = _openblas_function("set_num_threads")
    get_threads = _openblas_function("get_num_threads")
    set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
    get_threads.argtypes, get_threads.restype = (), ctypes.c_int
    return set_threads, get_threads


@needs_openblas
def test_evaluate_same_floats_at_one_and_two_blas_threads():
    set_threads, get_threads = _blas_thread_calls()
    rng = np.random.default_rng(3)
    cases = [(random_eigenfunction(e, 0), rng.random((m, 2)))
             for e in (65, 1105) for m in (441, 22_000)]
    evaluate(*cases[0])  # the first mode sum here pins BLAS to 1; raise it to 2 only after
    try:
        set_threads(2)
        assert get_threads() == 2
        two = [evaluate(spec, pts) for spec, pts in cases]
    finally:
        set_threads(1)
    assert get_threads() == 1
    one = [evaluate(spec, pts) for spec, pts in cases]
    for a, b in zip(two, one):
        assert np.array_equal(a, b)


def _blas_threads_after_evaluate(spec, pts) -> int:
    evaluate(spec, pts)
    return _blas_thread_calls()[1]()


@needs_openblas
def test_pool_worker_keeps_one_blas_thread_after_evaluate():
    # A spawned worker inherits no pin from this process: evaluate must set it.
    spec = random_eigenfunction(1105, 0)
    pts = np.random.default_rng(4).random((441, 2))
    with ProcessPoolExecutor(max_workers=1,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        assert pool.submit(_blas_threads_after_evaluate, spec, pts).result() == 1


# Each fork worker prints its OS thread count after every run it makes, in
# one write, so the workers' lines do not interleave.
_FORK_WORKER_THREADS = r"""
import os
from torusnodal import harness

run = harness.run_single

def counted(*job):
    result = run(*job)
    os.write(1, b"%d\n" % len(os.listdir("/proc/self/task")))
    return result

harness.run_single = counted
harness.run_plan(harness.ExperimentPlan(energies=(65,), seeds_per_energy=2,
                                        include_low_energy_control=False), threads=2)
"""


@needs_openblas
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc to count threads")
@pytest.mark.skipif(multiprocessing.get_all_start_methods()[0] != "fork",
                    reason="run_plan's pool does not fork here")
def test_fork_workers_of_run_plan_keep_one_os_thread():
    # A fresh interpreter, so no pin from this process hides a worker's own
    # set_num_threads, which would restart OpenBLAS's helper thread.
    proc = subprocess.run([sys.executable, "-c", _FORK_WORKER_THREADS],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1"]


def test_sine_fixture_closed_form():
    for k in (1, 3):
        spec = sine_mode_spec(k)
        xs = np.linspace(0.0, 1.0, 41, endpoint=False)
        pts = np.column_stack([xs, np.full_like(xs, 0.37)])
        want = math.sqrt(2.0) * np.sin(2 * np.pi * k * xs)
        assert np.max(np.abs(evaluate(spec, pts) - want)) < 1e-12


def test_separable_fixture_closed_form():
    spec = separable_sine_spec()
    rng = np.random.default_rng(1)
    pts = rng.random((50, 2))
    want = 2.0 * np.sin(2 * np.pi * pts[:, 0]) * np.sin(2 * np.pi * pts[:, 1])
    assert np.max(np.abs(evaluate(spec, pts) - want)) < 1e-12


def test_constant_fixture_is_one():
    spec = constant_spec()
    pts = np.random.default_rng(2).random((20, 2))
    assert np.max(np.abs(evaluate(spec, pts) - 1.0)) < 1e-15


def test_sample_grid_matches_pointwise_evaluation():
    spec = random_eigenfunction(65, 5)
    field = sample_grid(spec, 128)
    n = field.resolution
    xs = np.arange(n) / n
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    direct = evaluate(spec, pts).reshape(n, n)
    assert np.max(np.abs(field.values - direct)) < 1e-12


def traced_peak(fn) -> int:
    """tracemalloc peak, in bytes, of one call of fn after a warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def grid_sum(modes, coeffs, n):
    """Every column block of _column_blocks written into one n x n sheet."""
    sheet = np.empty((n, n), dtype=np.complex128)
    for j0, j1, block in _column_blocks(modes, coeffs, n):
        sheet[:, j0:j1] = block
    return sheet


def parent_grid_sum(modes, coeffs, n):
    """The whole-sheet sum that the column-block kernel replaced: a dense n x n spectrum,
    its occupied rows along axis 1, then the whole array along axis 0."""
    c = np.zeros((n, n), dtype=np.complex128)
    for (a, b), coeff in zip(modes, coeffs):
        c[a % n, b % n] += coeff
    rows = np.flatnonzero(np.any(c, axis=1))
    sheet = np.repeat(np.fft.ifft(np.zeros((1, n), dtype=np.complex128)), n, axis=0)
    sheet[rows] = np.fft.ifft(c[rows], axis=1)
    np.fft.ifft(sheet, axis=0, out=sheet)
    sheet *= n * n
    return sheet


def parent_sample_grid(spec, n):
    """The sample_grid that the column-block kernel replaced: the non-real check on the whole sheet."""
    require_sampling_grid(spec.energy, n)
    vals = real_part(parent_grid_sum(spec.modes, spec.coeffs, n), spec.coeffs)
    return SampledField(n, np.ascontiguousarray(vals), spec.lam)


def ifft2_grid_sum(modes, coeffs, n):
    """Reference: the whole spectral grid through one unpruned 2-D inverse FFT."""
    c = np.zeros((n, n), dtype=np.complex128)
    for (a, b), coeff in zip(modes, coeffs):
        c[a % n, b % n] += coeff
    return np.fft.ifft2(c) * (n * n)


def assert_grid_sum_matches_ifft2(modes, coeffs, n):
    # tobytes, not ==: a -0.0 where the reference has 0.0 must show.
    got, want = grid_sum(modes, coeffs, n), ifft2_grid_sum(modes, coeffs, n)
    assert got.tobytes() == want.tobytes(), f"n={n}"
    assert got.tobytes() == parent_grid_sum(modes, coeffs, n).tobytes(), f"n={n}"


@pytest.mark.parametrize("energy", [25, 50, 65, 325, 1105])
def test_pruned_grid_sum_matches_ifft2_on_plan_spectra(energy):
    tau = energy ** -0.5
    n_strip = max(64, 10 * math.ceil(math.sqrt(energy)))  # growth's corner-sheet grid
    for seed in range(3):
        spec = random_eigenfunction(energy, seed)
        assert_grid_sum_matches_ifft2(spec.modes, spec.coeffs, ExperimentPlan.grid_for(
            ExperimentPlan, energy))
        xi = np.array(spec.modes, dtype=float)
        for corner in ([-tau, -tau], [tau, -tau], [-tau, tau], [tau, tau]):
            damped = spec.coeffs * np.exp(-TWO_PI * (xi @ np.array(corner)))
            assert_grid_sum_matches_ifft2(spec.modes, damped, n_strip)


def test_pruned_grid_sum_matches_ifft2_on_fixtures():
    # 89, 101, 202 and 254 are sizes whose zero-row transform holds -0.0;
    # the fixtures' grids hold many exact zeros.
    assert np.signbit(np.fft.ifft(np.zeros(89, dtype=complex)).view(float)).any()
    for spec in (sine_mode_spec(1), sine_mode_spec(3), separable_sine_spec(), constant_spec()):
        for n in (16, 17, 64, 89, 101, 128, 202, 254, 256, 544):
            assert_grid_sum_matches_ifft2(spec.modes, spec.coeffs, n)


def test_pruned_grid_sum_matches_ifft2_when_a_row_cancels():
    # Modes (1, 2) and (1, 2 + n) alias to one cell and cancel, leaving row 1
    # all zeros; row 3 holds two entries, the second the first's negative.
    n = 32
    modes = ((1, 2), (1, 2 + n), (3, 1), (3, -1), (0, 5))
    coeffs = np.array([0.5 + 0.25j, -0.5 - 0.25j, 0.3 - 0.1j, -0.3 + 0.1j, 0.7 + 0j])
    assert_grid_sum_matches_ifft2(modes, coeffs, n)
    assert_grid_sum_matches_ifft2(modes[:2], coeffs[:2], n)
    assert not np.any(grid_sum(modes[:2], coeffs[:2], n))


def oracle_specs():
    """(label, spec, n) of the plan fields, the control and grids off both block sizes."""
    for energy in (25, 50, 65, 325, 1105):
        for seed in (0, 1):
            yield (energy, seed), random_eigenfunction(energy, seed), ExperimentPlan.grid_for(
                ExperimentPlan, energy)
    yield "control", sine_mode_spec(1), 347  # the desk plan's control grid
    for n in (89, 202, 347):  # 347 is a multiple of neither 64 columns nor 188 cell rows
        yield ("e65", n), random_eigenfunction(65, 3), n
        for spec in (sine_mode_spec(3), separable_sine_spec(), constant_spec()):
            yield (spec.energy, n), spec, n


def test_sample_grid_matches_the_parent_kernel():
    for label, spec, n in oracle_specs():
        got, want = sample_grid(spec, n), parent_sample_grid(spec, n)
        assert got.values.flags.c_contiguous, label
        assert got.values.tobytes() == want.values.tobytes(), label
        assert got.values.shape == want.values.shape, label


def test_sample_grid_rejects_a_spec_made_non_real_like_the_parent_kernel():
    # A coefficient changed after validation breaks conjugate symmetry.
    spec = random_eigenfunction(65, 2)
    coeffs = spec.coeffs.copy()
    coeffs[0] += 0.1j
    object.__setattr__(spec, "coeffs", coeffs)
    with pytest.raises(NonRealValue) as got:
        sample_grid(spec, 89)
    with pytest.raises(NonRealValue) as want:
        parent_sample_grid(spec, 89)
    assert str(got.value) == str(want.value)


def test_sample_grid_memory_is_bounded():
    # tracemalloc peak at E=1105, seed 0, N=544 (a 2.37 MB field): 3.77 MB,
    # against 9.75 MB for parent_sample_grid's dense complex spectrum and sheet.
    spec = random_eigenfunction(1105, 0)
    peak = traced_peak(lambda: sample_grid(spec, 544))
    assert peak < 4_000_000 <= traced_peak(lambda: parent_sample_grid(spec, 544)), peak


def test_sample_grid_parseval_identity():
    # The grid quadrature is exact for trigonometric polynomials below the
    # Nyquist limit, so the discrete mean square equals the coefficient norm.
    for seed in (0, 1, 2):
        field = sample_grid(random_eigenfunction(65, seed), 256)
        assert abs(np.mean(field.values**2) - 1.0) < 1e-10


def test_sample_grid_rejects_coarse_resolution():
    with pytest.raises(ResolutionTooCoarse):
        sample_grid(random_eigenfunction(65, 0), 64)


def test_field_at_and_interp():
    spec = random_eigenfunction(65, 9)
    field = sample_grid(spec, 512)
    rng = np.random.default_rng(3)
    pts = rng.random((64, 2))
    exact = evaluate(spec, pts)
    # Bilinear interpolation is only approximate but should be close on a
    # 512-point grid at this frequency.
    assert np.max(np.abs(field.interp(pts) - exact)) < 5e-3
    # At grid nodes interpolation reproduces the stored samples.
    k = np.arange(16)
    nodes = np.column_stack([k / 512.0, (3 * k % 512) / 512.0])
    assert np.max(np.abs(field.interp(nodes) - field.values[k, 3 * k % 512])) < 1e-12


def test_spec_json_round_trip(tmp_path):
    spec = random_eigenfunction(325, 13)
    path = tmp_path / "spec.json"
    path.write_text(spec_to_json(spec))
    back = spec_from_json(path.read_text())
    assert back.energy == spec.energy
    assert list(back.modes) == list(spec.modes)
    assert np.array_equal(np.asarray(back.coeffs), np.asarray(spec.coeffs))


def test_spec_json_is_deterministic():
    spec = random_eigenfunction(65, 2)
    assert spec_to_json(spec) == spec_to_json(random_eigenfunction(65, 2))


def test_json_rejects_garbage():
    with pytest.raises(ValueError, match="energy, modes and coeffs"):
        spec_from_json('{"energy": 65}')


@pytest.mark.parametrize("change, message", [
    (dict(energy=5.0), "spec energy must be an integer"),
    (dict(energy=True), "spec energy must be an integer"),
    (dict(modes=[[2, 1]] * 7 + [[2, 1, 0]]), "spec modes must be a list of integer pairs"),
    (dict(modes=[[2, True]] * 8), "spec modes must be a list of integer pairs"),
    (dict(modes=None), "spec modes must be a list of integer pairs"),
    (dict(coeffs=[["0.5", 0.0]] * 8), "spec coeffs must be a list of [re, im] finite number pairs"),
    (dict(coeffs=[[float("inf"), 0.0]] * 8), "spec coeffs must be a list of [re, im] finite"),
    (dict(coeffs=7), "spec coeffs must be a list of [re, im] finite number pairs"),
    (dict(**{"lambda": [14.0]}), "serialized lambda inconsistent with energy"),
    (dict(**{"lambda": float("nan")}), "serialized lambda inconsistent with energy"),
])
def test_spec_from_json_rejects_wrong_types(change, message):
    obj = json.loads(spec_to_json(random_eigenfunction(5, 0)))
    obj.update(change)
    with pytest.raises(ValueError, match=re.escape(message)):
        spec_from_json(json.dumps(obj))


@given(
    energy=st.sampled_from([1, 2, 4, 5, 8, 10, 13, 25, 50, 65]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_random_spec_invariants(energy, seed):
    spec = random_eigenfunction(energy, seed)
    coeffs = np.asarray(spec.coeffs)
    assert abs(np.sum(np.abs(coeffs) ** 2) - 1.0) < 1e-12
    index = {m: i for i, m in enumerate(spec.modes)}
    assert all((-a, -b) in index for a, b in spec.modes)
    pts = np.random.default_rng(0).random((8, 2))
    values = evaluate(spec, pts)
    assert np.all(np.isfinite(values))
