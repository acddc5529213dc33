"""Tests for the factor-graph machinery: BP vs. brute force, chain decoders."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.factor_graph import (
    Factor,
    FactorGraph,
    Variable,
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


def _chain_graph(unary: np.ndarray, pairwise: np.ndarray) -> FactorGraph:
    """Build an explicit FactorGraph for a chain model."""
    steps, states = unary.shape
    graph = FactorGraph()
    variables = [graph.add_variable(Variable(f"s{t}", states)) for t in range(steps)]
    for t in range(steps):
        graph.add_factor(Factor(f"obs{t}", [variables[t]], np.exp(unary[t])))
        if t > 0:
            graph.add_factor(
                Factor(f"trans{t}", [variables[t - 1], variables[t]], np.exp(pairwise))
            )
    return graph


class TestFactorValidation:
    def test_shape_mismatch_rejected(self):
        v = Variable("x", 2)
        with pytest.raises(ValueError):
            Factor("f", [v], np.ones((3,)))

    def test_negative_potentials_rejected(self):
        v = Variable("x", 2)
        with pytest.raises(ValueError):
            Factor("f", [v], np.array([1.0, -0.5]))

    def test_all_zero_rejected(self):
        v = Variable("x", 2)
        with pytest.raises(ValueError):
            Factor("f", [v], np.zeros(2))

    def test_variable_cardinality_positive(self):
        with pytest.raises(ValueError):
            Variable("x", 0)

    def test_unknown_variable_in_factor(self):
        graph = FactorGraph()
        v = Variable("x", 2)
        with pytest.raises(KeyError):
            graph.add_factor(Factor("f", [v], np.ones(2)))


class TestInferenceAgainstBruteForce:
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_chain_marginals_match_enumeration(self, length, seed):
        rng = np.random.default_rng(seed)
        unary = rng.normal(size=(length, 3))
        pairwise = rng.normal(size=(3, 3))
        graph = _chain_graph(unary, pairwise)
        bp = graph.marginals(max_iterations=100)
        exact = graph.brute_force_marginals()
        for name in exact:
            assert np.allclose(bp[name], exact[name], atol=1e-5)

    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_map_matches_enumeration_score(self, length, seed):
        rng = np.random.default_rng(seed)
        unary = rng.normal(size=(length, 3))
        pairwise = rng.normal(size=(3, 3))
        graph = _chain_graph(unary, pairwise)
        bp_map = graph.map_assignment(max_iterations=100)
        exact_map = graph.brute_force_map()
        # Max-product may return a different argmax when there are ties;
        # compare the achieved score instead of the assignment itself.
        assert graph.log_score(bp_map) == pytest.approx(graph.log_score(exact_map), abs=1e-5)

    def test_is_chain_detects_structure(self):
        unary = np.zeros((3, 2))
        pairwise = np.zeros((2, 2))
        graph = _chain_graph(unary, pairwise)
        assert graph.is_chain()


class TestChainSpecializations:
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_viterbi_matches_graph_map_score(self, length, seed):
        rng = np.random.default_rng(seed)
        unary = rng.normal(size=(length, 3))
        pairwise = rng.normal(size=(3, 3))
        path = chain_map_decode(unary, pairwise)
        assert path.shape == (length,)
        graph = _chain_graph(unary, pairwise)
        assignment = {f"s{t}": int(path[t]) for t in range(length)}
        best = graph.brute_force_map() if length <= 4 else None
        if best is not None:
            assert graph.log_score(assignment) == pytest.approx(graph.log_score(best), abs=1e-6)

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

    def test_chain_marginals_match_factor_graph(self):
        rng = np.random.default_rng(3)
        unary = rng.normal(size=(4, 3))
        pairwise = rng.normal(size=(3, 3))
        fast = chain_marginals(unary, pairwise)
        graph = _chain_graph(unary, pairwise)
        exact = graph.brute_force_marginals()
        for t in range(4):
            assert np.allclose(fast[t], exact[f"s{t}"], atol=1e-6)

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

    @staticmethod
    def _arena_slice(shape):
        """A non-contiguous ``[..., :n]`` slice of a wider buffer, as the
        kernel's grow-only arena hands out."""
        return np.full(shape[:-1] + (shape[-1] + 5,), np.nan)[..., : shape[-1]]

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

    def test_scratch_out_buffers_do_not_change_results(self):
        """Operands, ``stacked_out`` and ``out`` as non-contiguous arena slices."""
        for n in self.SIZES:
            a, b, v = self._stacks(200 + n, n)
            k = a.shape[0]
            a_slice, b_slice, v_slice = (self._arena_slice(x.shape) for x in (a, b, v))
            a_slice[...], b_slice[...], v_slice[...] = a, b, v
            assert n == 1 or not a_slice.flags.c_contiguous
            with np.errstate(invalid="ignore"):
                for batch, plain_operands, sliced_operands, stacked_shape in (
                    (maxplus_matmul_batch, (a, b), (a_slice, b_slice), (k, k, k, n)),
                    (logsumexp_matmul_batch, (a, b), (a_slice, b_slice), (k, k, k, n)),
                    (maxplus_vecmat_batch, (v, b), (v_slice, b_slice), (k, k, n)),
                    (logsumexp_vecmat_batch, (v, b), (v_slice, b_slice), (k, k, n)),
                ):
                    plain = batch(*plain_operands)
                    out = self._arena_slice(plain.shape)
                    buffered = batch(
                        *sliced_operands, stacked_out=self._arena_slice(stacked_shape), out=out
                    )
                    assert buffered is out
                    assert np.array_equal(plain, buffered, equal_nan=True)

    def test_aliasing_contract(self):
        """``stacked_out`` is clobbered, the operands are not; a second
        product may reuse ``stacked_out`` while the first result lives."""
        a, b, v = self._stacks(9, 7)
        a_before, b_before, v_before = a.copy(), b.copy(), v.copy()
        stacked = np.empty((3, 3, 3, 7))
        with np.errstate(invalid="ignore"):
            first = logsumexp_matmul_batch(a, b, stacked_out=stacked)
            kept = first.copy()
            second = maxplus_matmul_batch(a, b, stacked_out=stacked)
            third = logsumexp_vecmat_batch(v, b, stacked_out=stacked[0])
        assert np.array_equal(first, kept, equal_nan=True)
        assert not np.shares_memory(first, stacked)
        assert not np.shares_memory(second, stacked)
        assert not np.shares_memory(third, stacked)
        for before, after in ((a_before, a), (b_before, b), (v_before, v)):
            assert np.array_equal(before, after, equal_nan=True)
