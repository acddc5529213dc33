"""Tests for the chain decoders (against enumeration) and the semiring ops."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.factor_graph import (
    _logsumexp,
    chain_map_decode,
    chain_marginals,
    logsumexp_matmul,
    logsumexp_matmul_batch,
    logsumexp_vecmat,
    logsumexp_vecmat_batch,
    maxplus_matmul,
    maxplus_matmul_batch,
    maxplus_vecmat,
    maxplus_vecmat_batch,
)


def _enumerate(unary: np.ndarray, pairwise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every one of the K**T state paths of a chain, with its log score.

    The reference the chain decoders are held to: no message passing,
    just the sum of the unary and transition log potentials along each
    path.  Only usable on the tiny chains these tests build.
    """
    steps, states = unary.shape
    paths = np.array(list(itertools.product(range(states), repeat=steps)))
    scores = unary[np.arange(steps), paths].sum(axis=1)
    scores += pairwise[paths[:, :-1], paths[:, 1:]].sum(axis=1)
    return paths, scores


def _enumerated_marginals(unary: np.ndarray, pairwise: np.ndarray) -> np.ndarray:
    """Per-step marginals ``(T, K)`` by summing path weights state by state."""
    paths, scores = _enumerate(unary, pairwise)
    weights = np.exp(scores - scores.max())
    steps, states = unary.shape
    marginals = np.array(
        [[weights[paths[:, t] == k].sum() for k in range(states)] for t in range(steps)]
    )
    return marginals / weights.sum()


def _random_chain(steps: int, hard_zero: bool, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A random ``K = 3`` chain; ``hard_zero`` forbids the benign -> malicious move."""
    rng = np.random.default_rng(seed)
    unary = rng.normal(size=(steps, 3))
    pairwise = rng.normal(size=(3, 3))
    if hard_zero:
        pairwise[0, 2] = -np.inf
    return unary, pairwise


_CHAINS = pytest.mark.parametrize("hard_zero", [False, True], ids=["finite", "hard_zero"])
_LENGTHS = pytest.mark.parametrize("steps", range(1, 7))


class TestChainSpecializations:
    @_CHAINS
    @_LENGTHS
    def test_viterbi_matches_graph_map_score(self, steps, hard_zero):
        for seed in range(5):
            unary, pairwise = _random_chain(steps, hard_zero, seed)
            path = chain_map_decode(unary, pairwise)
            assert path.shape == (steps,)
            paths, scores = _enumerate(unary, pairwise)
            (index,) = np.flatnonzero((paths == path).all(axis=1))
            assert scores[index] == pytest.approx(scores.max(), abs=1e-9)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_chain_marginals_are_distributions(self, length, seed):
        rng = np.random.default_rng(seed)
        unary = rng.normal(size=(length, 3))
        pairwise = rng.normal(size=(3, 3))
        marginals = chain_marginals(unary, pairwise)
        assert marginals.shape == (length, 3)
        assert np.allclose(marginals.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(marginals >= 0)

    @_CHAINS
    @_LENGTHS
    def test_chain_marginals_match_factor_graph(self, steps, hard_zero):
        for seed in range(5):
            unary, pairwise = _random_chain(steps, hard_zero, seed)
            fast = chain_marginals(unary, pairwise)
            assert np.allclose(fast, _enumerated_marginals(unary, pairwise), atol=1e-9)

    def test_empty_chain(self):
        assert chain_map_decode(np.zeros((0, 3)), np.zeros((3, 3))).size == 0
        assert chain_marginals(np.zeros((0, 3)), np.zeros((3, 3))).shape == (0, 3)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            chain_map_decode(np.zeros((2, 3)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            chain_map_decode(np.zeros(3), np.zeros((3, 3)))


class TestAxisAwareLogsumexp:
    """The stacked kernels depend on ``_logsumexp`` over axes replaying
    the scalar reduction bit-for-bit and staying -inf-safe."""

    def test_axis_rows_match_scalar_calls(self):
        rng = np.random.default_rng(0)
        stacked = rng.normal(size=(9, 3)) * 50.0
        stacked[2, :] = -np.inf  # fully impossible row
        stacked[5, 1] = -np.inf
        rows = _logsumexp(stacked, axis=1)
        for i in range(stacked.shape[0]):
            scalar = _logsumexp(stacked[i])
            assert rows[i] == scalar or (np.isinf(rows[i]) and np.isinf(scalar))

    def test_keepdims_shape_and_values(self):
        rng = np.random.default_rng(1)
        stacked = rng.normal(size=(4, 3))
        kept = _logsumexp(stacked, axis=1, keepdims=True)
        assert kept.shape == (4, 1)
        assert np.array_equal(kept[:, 0], _logsumexp(stacked, axis=1))

    def test_middle_axis_of_three(self):
        rng = np.random.default_rng(2)
        stacked = rng.normal(size=(5, 3, 3))
        reduced = _logsumexp(stacked, axis=1)
        for n in range(5):
            for b in range(3):
                assert reduced[n, b] == _logsumexp(stacked[n, :, b])

    def test_all_minus_inf_input(self):
        stacked = np.full((2, 3), -np.inf)
        reduced = _logsumexp(stacked, axis=1)
        assert np.all(np.isneginf(reduced))
        assert _logsumexp(stacked) == -np.inf

    def test_default_axis_unchanged(self):
        values = np.array([0.0, 700.0, -700.0])
        assert _logsumexp(values) == pytest.approx(700.0)
        assert np.isscalar(_logsumexp(values)) or _logsumexp(values).ndim == 0


    @pytest.mark.parametrize("axis", [None, 0, 1, (0, 1)])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_ufunc_reduce_matches_np_max_and_np_sum(self, axis, keepdims):
        """Calling the ufunc reductions directly changes no bit, also on
        ``-inf`` / ``+inf`` / NaN rows."""

        def reference(array):
            maximum = np.max(array, axis=axis, keepdims=True)
            finite = np.isfinite(maximum)
            safe_max = np.where(finite, maximum, 0.0)
            with np.errstate(divide="ignore"):
                summed = np.log(np.sum(np.exp(array - safe_max), axis=axis, keepdims=True))
            result = np.where(finite, safe_max + summed, maximum)
            if keepdims:
                return result
            return np.squeeze(result, axis=axis) if axis is not None else result.reshape(())

        rng = np.random.default_rng(3)
        stacked = rng.normal(size=(8, 3)) * 40.0
        stacked[1, :] = -np.inf
        stacked[2, 0] = -np.inf
        stacked[3, 1] = np.inf
        stacked[4, 2] = np.nan
        stacked[5] = [np.inf, -np.inf, 0.0]
        for array in (stacked, stacked[[0, 2, 6, 7]]):
            with np.errstate(invalid="ignore"):
                got, expected = _logsumexp(array, axis=axis, keepdims=keepdims), reference(array)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(expected))


class TestScalarSemiringOps:
    """The scalar ops call ``ufunc.reduce`` directly; no bit may move
    relative to the ``.max(axis=...)`` / ``.sum(axis=...)`` wrappers,
    also on ``-inf`` / ``+inf`` / NaN rows."""

    def test_ufunc_reduce_matches_method_reductions(self):
        def matmul_reference(a, b, lse):
            stacked = a[:, :, None] + b[None, :, :]
            if not lse:
                return stacked.max(axis=1)
            shift = stacked.max(axis=1)
            with np.errstate(invalid="ignore", divide="ignore"):
                return shift + np.log(np.exp(stacked - shift[:, None, :]).sum(axis=1))

        rng = np.random.default_rng(5)
        for trial in range(40):
            a = rng.normal(size=(3, 3)) * 10.0 ** rng.integers(-2, 3)
            b = rng.normal(size=(3, 3)) * 10.0 ** rng.integers(-2, 3)
            if trial % 4 == 1:
                a[1, :] = -np.inf
            if trial % 4 == 2:
                b[0, 2] = np.inf
                a[2, 1] = -np.inf
            if trial % 4 == 3:
                b[1, 1] = np.nan
            with np.errstate(invalid="ignore"):
                pairs = [
                    (maxplus_matmul(a, b), matmul_reference(a, b, lse=False)),
                    (logsumexp_matmul(a, b), matmul_reference(a, b, lse=True)),
                    # A vec-mat is row 0 of the product with a one-row matrix.
                    (maxplus_vecmat(a[0], b), matmul_reference(a[:1], b, lse=False)[0]),
                    (logsumexp_vecmat(a[0], b), matmul_reference(a[:1], b, lse=True)[0]),
                ]
            for got, expected in pairs:
                assert np.array_equal(got, expected, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(expected))


class TestBatchedSemiringOps:
    """Entity-minor ``(K, K, N)`` / ``(K, N)`` stacks: slice ``[..., n]``
    of every result equals the scalar op on that slice, bitwise."""

    SIZES = (1, 2, 7, 256)

    def _stacks(self, seed, n, k=3):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(k, k, n)) * 30.0
        b = rng.normal(size=(k, k, n)) * 30.0
        v = rng.normal(size=(k, n)) * 30.0
        # Impossible transitions and NaNs survive stacking, per entity.
        a[:, 0, n // 2] = -np.inf
        b[2, :, n - 1] = -np.inf
        b[1, 1, 0] = np.nan
        v[1, n // 3] = -np.inf
        return a, b, v

    def test_maxplus_matmul_batch_matches_scalar(self):
        for n in self.SIZES:
            a, b, _ = self._stacks(n, n)
            with np.errstate(invalid="ignore"):
                out = maxplus_matmul_batch(a, b)
                assert out.shape == a.shape
                for i in range(n):
                    scalar = maxplus_matmul(a[..., i], b[..., i])
                    assert np.array_equal(out[..., i], scalar, equal_nan=True)

    def test_logsumexp_matmul_batch_matches_scalar(self):
        for n in self.SIZES:
            a, b, _ = self._stacks(50 + n, n)
            with np.errstate(invalid="ignore"):
                out = logsumexp_matmul_batch(a, b)
                assert out.shape == a.shape
                for i in range(n):
                    scalar = logsumexp_matmul(a[..., i], b[..., i])
                    assert np.array_equal(out[..., i], scalar, equal_nan=True)

    def test_vecmat_batch_ops_match_scalar(self):
        for n in self.SIZES:
            _, m, v = self._stacks(100 + n, n)
            with np.errstate(invalid="ignore"):
                out_max = maxplus_vecmat_batch(v, m)
                out_lse = logsumexp_vecmat_batch(v, m)
                assert out_max.shape == out_lse.shape == v.shape
                for i in range(n):
                    assert np.array_equal(
                        out_max[:, i], maxplus_vecmat(v[:, i], m[..., i]), equal_nan=True
                    )
                    assert np.array_equal(
                        out_lse[:, i], logsumexp_vecmat(v[:, i], m[..., i]), equal_nan=True
                    )
