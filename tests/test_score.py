import numpy as np
import pytest

import fashiongraph.autodiff as ad
import fashiongraph.score as score_module
from fashiongraph.autodiff import Tensor
from fashiongraph.dataio import SyntheticConfig, generate_synthetic, split_interactions
from fashiongraph.embed import ModelDims, init_model
from fashiongraph.graph import build_fashion_graph
from fashiongraph.propagate import forward
from fashiongraph.score import (
    PAD_LOGIT,
    order_candidates,
    outfit_compat_score,
    rec_score,
    rview_scores_tensor,
    score_items,
    view_maps,
    view_scores,
)
from fashiongraph.train import TrainConfig, make_model

from conftest import score_lists

DIMS = ModelDims(d=8, d_v=6, d_t=4, d_h=5, heads=2, r_views=3, view_hidden=4)


def model(seed=0):
    return init_model(2, 2, 2, DIMS, seed)


def leaky(x, slope=0.2):
    return np.where(x >= 0, x, slope * x)


def rview_maps(O, m):
    """A and C of one outfit matrix O (n, d), each (R, n): ``view_maps`` of
    its rows, the logits softmaxed over the outfit's items."""
    with ad.no_grad():
        L, C = view_maps(m, Tensor(O))
    z = np.exp(L.data - L.data.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True), C.data


def flat(row_lists):
    """Flat rows and one length per list, the form ``rview_scores_tensor`` takes."""
    return (np.array([r for rows in row_lists for r in rows], dtype=np.int64),
            np.array([len(rows) for rows in row_lists], dtype=np.int64))


def batched_reference(m, h_items, row_lists):
    """The R-view scores as the padded (B, d, n) formulation computed them:
    each list's items gathered, transposed, and both maps applied per list."""
    slope = m.dims.leaky_slope
    P = {k: p.data for k, p in m.params.items()}
    rows, lengths = flat(row_lists)
    present = np.arange(lengths.max()) < lengths[:, None]
    idx = np.zeros(present.shape, dtype=np.int64)
    idx[present] = rows
    O_T = h_items[idx].transpose(0, 2, 1)  # (B, d, n)
    logits = P["view_attn_out"] @ leaky(P["view_attn_in"] @ O_T, slope)
    logits = logits + np.where(present, 0.0, PAD_LOGIT)[:, None, :]
    z = np.exp(logits - logits.max(axis=2, keepdims=True))
    A = z / z.sum(axis=2, keepdims=True)
    C = np.tanh(P["view_compat_out"] @ leaky(P["view_compat_in"] @ O_T, slope))
    return (A * C).sum(axis=(1, 2)) / m.dims.r_views


def rview_attention(O, m):
    return rview_maps(O, m)[0]


def rview_compat(O, m):
    return rview_maps(O, m)[1]


class TestRecScore:
    def test_orthogonal_is_zero(self):
        assert rec_score([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_unit_vector_self_dot(self):
        v = np.zeros(8)
        v[3] = 1.0
        assert rec_score(v, v) == 1.0

    def test_arithmetic(self):
        assert rec_score([1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            rec_score([1.0, 2.0], [1.0, 2.0, 3.0])


class TestRViewMaps:
    def test_single_item_rows_are_one(self):
        m = model()
        O = np.random.default_rng(0).normal(size=(1, 8))
        A = rview_attention(O, m)
        np.testing.assert_allclose(A, np.ones((3, 1)))

    def test_zero_outer_map_uniform(self):
        m = model()
        m.params["view_attn_out"].data[:] = 0.0
        O = np.random.default_rng(1).normal(size=(4, 8))
        A = rview_attention(O, m)
        np.testing.assert_allclose(A, np.full((3, 4), 0.25))

    def test_attention_matches_scratch(self):
        m = model(seed=2)
        O = np.random.default_rng(3).normal(size=(5, 8))
        W4 = m.params["view_attn_out"].data
        W5 = m.params["view_attn_in"].data
        logits = W4 @ leaky(W5 @ O.T)
        expected = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(rview_attention(O, m), expected, atol=1e-12)

    def test_compat_zero_outer_map(self):
        m = model()
        m.params["view_compat_out"].data[:] = 0.0
        O = np.random.default_rng(4).normal(size=(3, 8))
        np.testing.assert_array_equal(rview_compat(O, m), np.zeros((3, 3)))

    def test_compat_matches_scratch(self):
        m = model(seed=5)
        O = np.random.default_rng(6).normal(size=(4, 8))
        W6 = m.params["view_compat_out"].data
        W7 = m.params["view_compat_in"].data
        expected = np.tanh(W6 @ leaky(W7 @ O.T))
        np.testing.assert_allclose(rview_compat(O, m), expected, atol=1e-12)

    def test_compat_bounded_below_one_for_large_preactivation(self):
        m = model()
        m.params["view_compat_out"].data[:] = 1.0
        m.params["view_compat_in"].data[:] = 1.0
        O = np.full((2, 8), 0.4)
        # hidden = 3.2 each, pre-activation 12.8: large yet below the point
        # (~19) where float64 tanh rounds to exactly 1
        C = rview_compat(O, m)
        assert np.all(C < 1.0) and np.all(C > 0.999)

    def test_row_stochastic_and_bounds_random(self):
        m = model(seed=7)
        rng = np.random.default_rng(8)
        for _ in range(20):
            O = rng.normal(size=(rng.integers(1, 6), 8)) * rng.uniform(0.1, 5)
            A = rview_attention(O, m)
            C = rview_compat(O, m)
            np.testing.assert_allclose(A.sum(axis=1), 1.0, atol=1e-6)
            assert np.all(A >= 0)
            assert np.all(np.abs(C) <= 1.0)
            assert abs(outfit_compat_score(A, C)) < 1.0

    def test_dim_mismatch(self):
        m = model()
        with pytest.raises(ValueError):
            rview_attention(np.zeros((3, 9)), m)


class TestCompatScore:
    # Worked three-view example: per-view weighted scores and their mean.
    A_EXAMPLE = np.array([[0.6, 0.2, 0.2], [0.3, 0.5, 0.2], [0.1, 0.3, 0.6]])
    C_EXAMPLE = np.array([[0.8, 0.5, 0.2], [0.4, 0.7, 0.9], [0.3, 0.5, 0.3]])

    def test_worked_example_views(self):
        np.testing.assert_allclose(
            view_scores(self.A_EXAMPLE, self.C_EXAMPLE), [0.62, 0.65, 0.36], atol=1e-12
        )

    def test_worked_example_final(self):
        assert abs(outfit_compat_score(self.A_EXAMPLE, self.C_EXAMPLE) - 0.5433) < 1e-4

    def test_zero_compat_gives_zero(self):
        assert outfit_compat_score(self.A_EXAMPLE, np.zeros((3, 3))) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            outfit_compat_score(self.A_EXAMPLE, np.zeros((2, 3)))


class TestScoreOutfit:
    def setup_method(self):
        self.ds = generate_synthetic(
            SyntheticConfig(n_users=6, n_outfits=8, n_items=20, interactions_per_user=5,
                            d_v=6, d_t=4),
            seed=9,
        )
        self.splits = split_interactions(self.ds, seed=9)
        self.graph = build_fashion_graph(self.ds, self.splits)
        self.cfg = TrainConfig(seed=9, d=8, d_h=5, view_hidden=4, r_views=3, heads=2)
        self.m = make_model(self.graph, self.ds, self.cfg)
        self.prop = forward(self.graph, self.ds, self.m)

    def outfit_lists(self):
        return [self.ds.outfits[o] for o in sorted(self.ds.outfits)]

    def test_deterministic(self):
        a = score_lists(self.outfit_lists(), self.prop, self.m)
        b = score_lists(self.outfit_lists(), self.prop, self.m)
        assert np.array_equal(a, b)

    def test_permutation_invariance(self):
        items = self.ds.outfits[0]
        fwd = score_items(items, self.prop, self.m)
        rev = score_items(list(reversed(items)), self.prop, self.m)
        np.testing.assert_allclose(fwd, rev, atol=1e-12)

    def test_bounded(self):
        scores = score_lists(self.outfit_lists(), self.prop, self.m)
        assert len(scores) == len(self.ds.outfits) and np.all(np.abs(scores) < 1.0)

    def test_unknown_item_id_raises_key_error_naming_it(self):
        items = list(self.ds.outfits[1])
        with pytest.raises(KeyError, match="unknown item id 987654"):
            score_lists([items, [*items[:1], 987654]], self.prop, self.m)
        with pytest.raises(KeyError, match="unknown item id -3"):
            score_items([-3, *items], self.prop, self.m)

    def test_rview_result_consistent(self):
        rows = [self.graph.item_index[i] for i in self.ds.outfits[2]]
        A, C = rview_maps(self.prop.h_item_star[rows], self.m)
        score = score_items(self.ds.outfits[2], self.prop, self.m)
        assert outfit_compat_score(A, C) == pytest.approx(score, abs=1e-12)

    def test_batched_tensor_path_matches_single(self):
        rows = [[self.graph.item_index[i] for i in self.ds.outfits[o]]
                for o in (0, 1, 2)]
        h = Tensor(self.prop.h_item_star)
        scores = rview_scores_tensor(self.m, h, *flat(rows)).data
        for k in range(3):
            single = rview_scores_tensor(self.m, h, *flat(rows[k : k + 1])).data[0]
            np.testing.assert_allclose(scores[k], single, atol=1e-12)

    def test_view_parameter_gradients_match_finite_differences(self):
        rows, lengths = flat([[self.graph.item_index[i] for i in self.ds.outfits[o]]
                              for o in (0, 3)])
        h = Tensor(self.prop.h_item_star)

        def value():
            with ad.no_grad():
                return float(ad.sum_(rview_scores_tensor(self.m, h, rows, lengths)).item())

        self.m.zero_grads()
        ad.sum_(rview_scores_tensor(self.m, h, rows, lengths)).backward()
        step = 1e-5
        for name in ("view_attn_in", "view_attn_out", "view_compat_in", "view_compat_out"):
            p = self.m.params[name]
            g = np.asarray(p.grad)
            for k in range(p.data.size):
                idx = np.unravel_index(k, p.data.shape)
                orig = p.data[idx]
                p.data[idx] = orig + step
                plus = value()
                p.data[idx] = orig - step
                minus = value()
                p.data[idx] = orig
                numeric = (plus - minus) / (2 * step)
                rel = abs(g[idx] - numeric) / max(1.0, abs(g[idx]), abs(numeric))
                assert rel < 1e-4, (name, idx)


class TestPerItemKernel:
    # Mixed lengths, one-item lists, and an item repeated within a list and
    # across lists, in float64.
    ROW_LISTS = [[3, 1, 4], [5], [0, 2, 6, 7, 8], [1, 1], [9, 3], [4]]

    def setup_method(self):
        self.m = init_model(2, 2, 2, DIMS, seed=21)
        self.h = np.random.default_rng(22).normal(size=(10, DIMS.d))

    def test_equals_the_padded_batch_formulation(self):
        with ad.no_grad():
            got = rview_scores_tensor(self.m, Tensor(self.h), *flat(self.ROW_LISTS)).data
        expected = batched_reference(self.m, self.h, self.ROW_LISTS)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        for k, rows in enumerate(self.ROW_LISTS):
            alone = batched_reference(self.m, self.h, [rows])[0]
            assert got[k] == pytest.approx(alone, abs=1e-12)

    def test_one_item_list_scores_its_mean_fit(self):
        with ad.no_grad():
            got = rview_scores_tensor(self.m, Tensor(self.h), *flat([[5], [0, 5]])).data
        _, C = rview_maps(self.h[[5]], self.m)
        assert got[0] == pytest.approx(C.mean(), abs=1e-12)

    def test_padding_carries_no_weight_and_no_gradient(self):
        # Row 0 stands in for every padded slot; a batch that never names
        # it leaves its gradient exactly zero, whatever the padding.
        h = Tensor(self.h.copy(), requires_grad=True)
        ad.sum_(rview_scores_tensor(self.m, h, *flat([[3, 1, 4, 2], [5], [7, 8]]))).backward()
        assert np.all(h.grad[0] == 0.0) and np.all(h.grad[[9, 6]] == 0.0)
        assert np.all(np.abs(h.grad[[1, 2, 3, 4, 5, 7, 8]]).sum(axis=1) > 0)
        # Padding a list out changes neither its score nor its gradient.
        for rows in ([5], [7, 8]):
            alone = Tensor(self.h.copy(), requires_grad=True)
            score = rview_scores_tensor(self.m, alone, *flat([rows]))
            ad.sum_(score).backward()
            np.testing.assert_allclose(alone.grad[rows], h.grad[rows], rtol=0, atol=1e-12)

    def test_empty_list_or_mismatched_lengths_raise(self):
        h = Tensor(self.h)
        with pytest.raises(ValueError):
            rview_scores_tensor(self.m, h, np.array([1, 2]), np.array([2, 0]))
        with pytest.raises(ValueError):
            rview_scores_tensor(self.m, h, np.array([1, 2]), np.array([1]))
        with pytest.raises(ValueError):
            rview_scores_tensor(self.m, h, np.zeros(0, dtype=np.int64), np.zeros(0))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_softmaxes_of_logits_a_thousand_apart_are_finite_and_sum_to_one(dtype, monkeypatch):
    # exp(1e3) overflows and exp(-1e3) underflows in both dtypes, so only the
    # shift by each group's maximum keeps the weights finite and summing to 1.
    # Groups (items of one list): [0, 1], [2, 3, 4] all near -1e3, and [5].
    logits = np.array([[1e3, -1e3, -1e3, 1 - 1e3, -1e3, 1e3],
                       [-1e3, 1e3, -1e3, -1e3, -1e3, -1e3],
                       [1e3, 1e3, 1e3, -1e3, 1e3, 5.0]], dtype=dtype)  # (views, items)
    fits = np.random.default_rng(0).uniform(-1, 1, size=logits.shape).astype(dtype)
    groups, lengths = np.array([0, 0, 1, 1, 1, 2]), np.array([2, 3, 1])

    L = Tensor(logits, requires_grad=True)
    A = ad.segment_softmax(L, groups, 3, axis=1)
    assert A.data.dtype == dtype and np.isfinite(A.data).all()
    np.testing.assert_allclose(np.add.reduceat(A.data, [0, 2, 5], axis=1), 1.0, rtol=1e-6)
    ad.sum_(A * Tensor(fits)).backward()
    assert np.isfinite(L.grad).all()

    m = init_model(2, 2, 2, DIMS, seed=0, dtype=dtype)
    for fit in (np.ones_like(fits), fits):
        L = Tensor(logits, requires_grad=True)
        monkeypatch.setattr(score_module, "view_maps", lambda m, h, L=L, C=Tensor(fit): (L, C))
        h = Tensor(np.zeros((6, DIMS.d), dtype))  # read only through the patched view_maps
        scores = rview_scores_tensor(m, h, np.arange(6), lengths)
        assert scores.data.dtype == dtype and np.isfinite(scores.data).all()
        if fit is not fits:  # a fit of 1 scores each view's weight sum
            np.testing.assert_allclose(scores.data, 1.0, rtol=1e-6)
        ad.sum_(scores).backward()
        assert np.isfinite(L.grad).all()


def test_order_candidates_shift_invariance():
    rng = np.random.default_rng(0)
    ids = list(range(30))
    scores = {i: float(rng.normal()) for i in ids}
    base = order_candidates(ids, scores)
    shifted = order_candidates(ids, {i: s + 17.5 for i, s in scores.items()})
    assert base == shifted


def test_order_candidates_tie_breaks_by_id():
    scores = {5: 1.0, 2: 1.0, 9: 2.0}
    assert order_candidates(scores.keys(), scores) == [9, 2, 5]
