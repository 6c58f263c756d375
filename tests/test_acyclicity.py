import itertools
import math

import numpy as np
import pytest
import scipy.linalg

import dbnlearn.acyclicity as acyclicity
from dbnlearn.acyclicity import h_expm_and_grad, threshold_and_repair
from dbnlearn.core import DimensionError, is_acyclic


def h_expm(w):
    return h_expm_and_grad(w)[0]


def h_expm_grad(w):
    return h_expm_and_grad(w)[1]


def all_3x3_supports():
    """All 512 zero-diagonal boolean 3x3 supports."""
    slots = [(j, i) for j in range(3) for i in range(3) if j != i]
    for bits in itertools.product([False, True], repeat=6):
        w = np.zeros((3, 3))
        for (j, i), b in zip(slots, bits):
            w[j, i] = float(b)
        yield w


class TestHExpm:
    def test_zero_matrix(self):
        assert h_expm(np.zeros((4, 4))) == 0.0

    def test_single_edge_nilpotent(self):
        w = np.zeros((2, 2))
        w[0, 1] = 3.0
        assert abs(h_expm(w)) < 1e-12

    def test_two_cycle_value(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert h_expm(w) == pytest.approx(math.e + math.exp(-1.0) - 2.0, abs=1e-10)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            h_expm(np.zeros((2, 3)))

    def test_sign_flip_invariance(self, rng):
        w = rng.normal(size=(5, 5))
        flipped = w.copy()
        flipped[rng.random((5, 5)) < 0.5] *= -1.0
        assert h_expm(w) == pytest.approx(h_expm(np.abs(w)), rel=1e-12)
        assert h_expm(flipped) == pytest.approx(h_expm(w), rel=1e-12)

    def test_exactness_over_all_supports(self):
        for w in all_3x3_supports():
            assert (h_expm(w) < 1e-12) == is_acyclic(w != 0)


def central_difference(fn, w, eps=1e-6):
    grad = np.zeros_like(w)
    for j in range(w.shape[0]):
        for i in range(w.shape[1]):
            if j == i:
                continue
            hi, lo = w.copy(), w.copy()
            hi[j, i] += eps
            lo[j, i] -= eps
            grad[j, i] = (fn(hi) - fn(lo)) / (2 * eps)
    return grad


class TestGradients:
    def test_zero_matrix_gradient(self):
        assert np.all(h_expm_grad(np.zeros((3, 3))) == 0.0)

    def test_expm_gradient_matches_finite_differences(self, rng):
        for _ in range(20):
            w = rng.normal(scale=0.8, size=(4, 4))
            np.fill_diagonal(w, 0.0)
            num = central_difference(h_expm, w)
            ana = h_expm_grad(w)
            assert np.allclose(ana, num, rtol=1e-6, atol=1e-7)

    def test_two_cycle_gradient_against_finite_differences(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(h_expm_grad(w), central_difference(h_expm, w), rtol=1e-6)


class TestOneExpm:
    def test_value_and_gradient_from_one_exponential(self, rng, monkeypatch):
        w = rng.normal(size=(6, 6))
        a = w.copy()
        np.fill_diagonal(a, 0.0)
        e = scipy.linalg.expm(a * a)
        calls = []
        expm = scipy.linalg.expm
        monkeypatch.setattr(acyclicity.scipy.linalg, "expm", lambda m: calls.append(1) or expm(m))
        h, grad = h_expm_and_grad(w)
        assert len(calls) == 1
        # the separate formulas, bit for bit
        assert h == float(np.trace(e) - 6)
        assert np.array_equal(grad, 2.0 * e.T * a)


class TestThresholdAndRepair:
    def test_acyclic_support_unchanged(self):
        w = np.array([[0.0, 0.7, 0.0], [0.0, 0.0, -0.4], [0.0, 0.0, 0.0]])
        assert np.array_equal(threshold_and_repair(w, 0.0), w != 0.0)

    def test_two_cycle_keeps_heavier_edge(self):
        w = np.array([[0.0, 0.9], [0.2, 0.0]])
        out = threshold_and_repair(w, 0.1)
        assert out[0, 1] and not out[1, 0]

    def test_all_below_threshold_empty(self):
        w = np.full((3, 3), 0.05)
        np.fill_diagonal(w, 0.0)
        assert not threshold_and_repair(w, 0.1).any()

    def test_output_always_acyclic(self, rng):
        for _ in range(100):
            w = rng.normal(size=(5, 5)) * (rng.random((5, 5)) < 0.5)
            np.fill_diagonal(w, 0.0)
            assert is_acyclic(threshold_and_repair(w, 0.05))

    def test_deterministic_tie_break(self):
        w = np.array([[0.0, 0.5], [0.5, 0.0]])
        out = threshold_and_repair(w, 0.0)
        # equal weights: the (0, 1) edge sorts first and is removed
        assert not out[0, 1] and out[1, 0]
