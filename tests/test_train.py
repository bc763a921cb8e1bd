import math
import warnings

import numpy as np
import pytest

from fashiongraph.dataio import (
    Dataset,
    Splits,
    SyntheticConfig,
    generate_synthetic,
    split_interactions,
)
from fashiongraph.graph import build_fashion_graph
from fashiongraph.train import (
    Adam,
    TrainConfig,
    TrainingDivergedError,
    TripleBatch,
    batch_loss,
    bpr_comp_loss,
    bpr_rec_loss,
    gradient_check,
    make_model,
    sample_negatives,
    train_epoch,
)

from conftest import make_item


def flat_parameters(m):
    return np.concatenate([p.data.ravel() for _, p in m.parameters()])


class TestBprLoss:
    def test_zero_difference_is_ln2(self):
        assert abs(bpr_rec_loss(1.0, 1.0) - math.log(2)) < 1e-12
        assert abs(bpr_comp_loss(0.3, 0.3) - math.log(2)) < 1e-12

    def test_large_positive_difference_vanishes(self):
        assert 0.0 <= bpr_rec_loss(30.0, 0.0) < 1e-12

    def test_large_negative_difference_linear(self):
        assert abs(bpr_rec_loss(0.0, 30.0) - 30.0) < 1e-12

    def test_nonnegative_and_strictly_decreasing(self):
        diffs = np.linspace(-10, 10, 100)
        losses = bpr_rec_loss(diffs, np.zeros_like(diffs))
        assert np.all(losses >= 0)
        assert np.all(np.diff(losses) < 0)

    def test_ln2_only_at_zero(self):
        assert bpr_rec_loss(0.5, 0.4) < math.log(2) < bpr_rec_loss(0.4, 0.5)


class TestAdam:
    def test_single_step_closed_form(self):
        from fashiongraph.embed import ModelDims, init_model

        m = init_model(1, 1, 1, ModelDims(d=2, d_v=2, d_t=2, d_h=2, heads=1,
                                          r_views=1, view_hidden=1), seed=0)
        theta0 = {name: p.data.copy() for name, p in m.parameters()}
        grads = {}
        rng = np.random.default_rng(0)
        for name, p in m.parameters():
            p.grad = rng.normal(size=p.data.shape)
            grads[name] = p.grad.copy()
        opt = Adam(lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
        opt.step(m)
        for name, p in m.parameters():
            g = grads[name]
            m_hat = (0.1 * g) / (1 - 0.9)
            v_hat = (0.001 * g * g) / (1 - 0.999)
            expected = theta0[name] - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            np.testing.assert_allclose(p.data, expected, atol=1e-12)

    def test_two_steps_follow_recurrence(self):
        from fashiongraph.embed import ModelDims, init_model

        m = init_model(1, 1, 1, ModelDims(d=2, d_v=2, d_t=2, d_h=2, heads=1,
                                          r_views=1, view_hidden=1), seed=1)
        opt = Adam(lr=0.05)
        g1 = {name: np.full_like(p.data, 0.5) for name, p in m.parameters()}
        g2 = {name: np.full_like(p.data, -0.25) for name, p in m.parameters()}
        start = {name: p.data.copy() for name, p in m.parameters()}
        for grads in (g1, g2):
            for name, p in m.parameters():
                p.grad = grads[name]
            opt.step(m)
        name = "user_table"
        m1 = 0.1 * 0.5
        v1 = 0.001 * 0.25
        x1 = start[name] - 0.05 * (m1 / (1 - 0.9)) / (np.sqrt(v1 / (1 - 0.999)) + 1e-8)
        m2 = 0.9 * m1 + 0.1 * (-0.25)
        v2 = 0.999 * v1 + 0.001 * 0.0625
        x2 = x1 - 0.05 * (m2 / (1 - 0.81)) / (np.sqrt(v2 / (1 - 0.999**2)) + 1e-8)
        np.testing.assert_allclose(m.params[name].data, x2, atol=1e-12)

    def test_a_parameter_without_a_gradient_holds_zero_moments_after_a_step(self):
        from fashiongraph.embed import ModelDims, init_model

        m = init_model(1, 1, 1, ModelDims(d=2, d_v=2, d_t=2, d_h=2, heads=1,
                                          r_views=1, view_hidden=1), seed=2)
        for name, p in m.parameters():
            p.grad = None if name == "user_table" else np.ones_like(p.data)
        opt = Adam(lr=0.1)
        opt.step(m)
        assert list(opt.m) == list(opt.v) == [name for name, _ in m.parameters()]
        for moments in (opt.m, opt.v):
            assert moments["user_table"].dtype == m.params["user_table"].data.dtype
            assert not moments["user_table"].any()
            assert moments["outfit_table"].any()

    def test_state_round_trip(self):
        opt = Adam(lr=0.1)
        opt.t = 5
        opt.m["w"] = np.array([1.5], dtype=np.float32)
        opt.v["w"] = np.array([2.5], dtype=np.float32)
        arrays = opt.state_arrays()
        fresh = Adam(lr=0.1)
        fresh.load_state_arrays(arrays, np.float32)
        assert fresh.t == 5
        np.testing.assert_array_equal(fresh.m["w"], opt.m["w"])
        np.testing.assert_array_equal(fresh.v["w"], opt.v["w"])


class TestSampling:
    def test_deterministic(self, grad_fixture):
        ds, splits, graph = grad_fixture
        a = sample_negatives(ds, splits, seed=1, epoch=3)
        b = sample_negatives(ds, splits, seed=1, epoch=3)
        assert np.array_equal(a.rec_neg, b.rec_neg)
        assert a.comp_neg == b.comp_neg

    def test_epochs_differ(self, grad_fixture):
        ds, splits, graph = grad_fixture
        a = sample_negatives(ds, splits, seed=1, epoch=0)
        b = sample_negatives(ds, splits, seed=1, epoch=1)
        assert not (np.array_equal(a.rec_neg, b.rec_neg) and a.comp_neg == b.comp_neg)

    def test_rec_negative_never_interacted(self, grad_fixture):
        ds, splits, graph = grad_fixture
        batch = sample_negatives(ds, splits, seed=2)
        for u, o_neg in zip(batch.rec_users, batch.rec_neg):
            assert o_neg not in splits.user_known(int(u))

    def test_comp_negative_category_multiset(self, grad_fixture):
        ds, splits, graph = grad_fixture
        batch = sample_negatives(ds, splits, seed=3)
        for o_pos, items_neg in zip(batch.comp_pos, batch.comp_neg):
            pos_cats = sorted(ds.items[i].category for i in ds.outfits[int(o_pos)])
            neg_cats = sorted(ds.items[i].category for i in items_neg)
            assert pos_cats == neg_cats

    def test_comp_negative_not_an_existing_outfit(self, grad_fixture):
        ds, splits, graph = grad_fixture
        existing = {frozenset(v) for v in ds.outfits.values()}
        batch = sample_negatives(ds, splits, seed=4)
        for items_neg in batch.comp_neg:
            assert frozenset(items_neg) not in existing

    def test_all_but_one_outfit_forces_negative(self):
        items = {i: make_item(i % 2, seed=i) for i in range(4)}
        outfits = {o: [o % 4, (o + 1) % 4] for o in range(5)}
        inter = {(1, o) for o in range(4)}  # user 1 never saw outfit 4
        ds = Dataset(users=[1], outfits=outfits, items=items,
                     interactions=frozenset(inter), categories=["a", "b"])
        splits = split_interactions(ds, seed=0)
        with pytest.warns(UserWarning, match="no category-template negative"):
            batch = sample_negatives(ds, splits, seed=0)
        assert set(batch.rec_neg) == {4}

    def test_user_with_every_outfit_skipped_with_warning(self):
        items = {i: make_item(i % 2, seed=i) for i in range(4)}
        outfits = {o: [o % 4, (o + 1) % 4] for o in range(3)}
        inter = {(1, o) for o in range(3)}
        ds = Dataset(users=[1], outfits=outfits, items=items,
                     interactions=frozenset(inter), categories=["a", "b"])
        splits = split_interactions(ds, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batch = sample_negatives(ds, splits, seed=0)
        assert batch.n_rec == 0
        assert any("every outfit" in str(w.message) for w in caught)


class TestTrainEpoch:
    def _setup(self, **cfg_kwargs):
        ds = generate_synthetic(
            SyntheticConfig(n_users=8, n_outfits=12, n_items=24,
                            interactions_per_user=6, d_v=6, d_t=4),
            seed=21,
        )
        splits = split_interactions(ds, seed=21)
        graph = build_fashion_graph(ds, splits)
        cfg = TrainConfig(seed=21, d=8, d_h=5, view_hidden=4, r_views=3, heads=2,
                          **cfg_kwargs)
        return ds, splits, graph, cfg, make_model(graph, ds, cfg)

    def test_zero_lr_keeps_parameters_and_matches_eval_loss(self):
        ds, splits, graph, cfg, m = self._setup(lr=0.0, dropout_embed=0.0,
                                                dropout_attn=0.0)
        before = flat_parameters(m)
        opt = Adam.from_config(cfg)
        stats = train_epoch(m, graph, ds, splits, cfg, opt, epoch=1)
        assert np.array_equal(flat_parameters(m), before)
        batch = sample_negatives(ds, splits, cfg.seed, 1)
        loss, l_rec, l_comp = batch_loss(m, graph, ds, batch, cfg, mode="eval")
        assert stats.l_rec == pytest.approx(l_rec, abs=1e-12)
        assert stats.l_comp == pytest.approx(l_comp, abs=1e-12)

    def test_same_seed_identical_trajectory(self):
        results = []
        for _ in range(2):
            ds, splits, graph, cfg, m = self._setup(epochs=3)
            opt = Adam.from_config(cfg)
            losses = [train_epoch(m, graph, ds, splits, cfg, opt, e).l_total
                      for e in range(1, 4)]
            results.append((losses, flat_parameters(m)))
        assert results[0][0] == results[1][0]
        assert np.array_equal(results[0][1], results[1][1])

    def test_loss_decreases_on_planted_signal(self):
        # separable clusters, negatives dominated by pool items, no dropout:
        # the epoch loss must fall in at least 90% of consecutive epochs
        scfg = SyntheticConfig(n_users=24, n_outfits=40, n_items=240,
                               interactions_per_user=20, cluster_purity=1.0,
                               items_per_outfit=5, feature_noise=0.3,
                               unused_item_fraction=0.9)
        ds = generate_synthetic(scfg, seed=7)
        splits = split_interactions(ds, seed=7)
        graph = build_fashion_graph(ds, splits)
        cfg = TrainConfig(seed=0, lr=0.001, l2=0.0, dropout_embed=0.0, dropout_attn=0.0)
        m = make_model(graph, ds, cfg)
        opt = Adam.from_config(cfg)
        totals = [train_epoch(m, graph, ds, splits, cfg, opt, e).l_total
                  for e in range(1, 51)]
        decreasing = sum(1 for a, b in zip(totals, totals[1:]) if b < a)
        assert decreasing / (len(totals) - 1) >= 0.90

    def test_split_without_rec_triples_trains_on_compatibility_alone(self):
        ds, splits, _, cfg, _ = self._setup(lr=0.0, dropout_embed=0.0, dropout_attn=0.0)
        no_train = Splits(
            train={u: frozenset() for u in splits.train}, val=splits.val, test=splits.test,
            compat_negative_pool=splits.compat_negative_pool,
        )
        graph = build_fashion_graph(ds, no_train)
        m = make_model(graph, ds, cfg)
        stats = train_epoch(m, graph, ds, no_train, cfg, Adam.from_config(cfg), epoch=1)
        batch = sample_negatives(ds, no_train, cfg.seed, 1)
        assert batch.n_rec == stats.n_rec == 0 and stats.l_rec == 0.0
        assert stats.n_comp == batch.n_comp > 0
        loss, _, l_comp = batch_loss(m, graph, ds, batch, cfg, mode="eval")
        assert stats.l_comp == pytest.approx(l_comp, abs=1e-12)
        assert stats.l_total == pytest.approx(loss.item(), abs=1e-12)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_loss_aborts_with_diagnostics(self):
        ds, splits, graph, cfg, m = self._setup()
        m.params["user_table"].data[0, 0] = np.nan
        opt = Adam.from_config(cfg)
        with pytest.raises(TrainingDivergedError, match="batch 0"):
            train_epoch(m, graph, ds, splits, cfg, opt, epoch=1)

    def test_l2_term_equals_direct_sum(self):
        ds, splits, graph, cfg, m = self._setup(l2=0.01)
        batch = sample_negatives(ds, splits, cfg.seed, 0)
        with_l2, _, _ = batch_loss(m, graph, ds, batch, cfg, mode="eval")
        cfg0 = TrainConfig(seed=21, d=8, d_h=5, view_hidden=4, r_views=3, heads=2, l2=0.0)
        without, _, _ = batch_loss(m, graph, ds, batch, cfg0, mode="eval")
        direct = sum(float((p.data**2).sum()) for _, p in m.parameters())
        assert with_l2.item() - without.item() == pytest.approx(0.01 * direct, rel=1e-12)


class TestGradientCheck:
    def test_linear_configuration_is_exact(self, grad_fixture):
        ds, splits, graph = grad_fixture
        cfg = TrainConfig(seed=3, d=8, d_h=5, view_hidden=4, r_views=3, l2=1e-4)
        m = make_model(graph, ds, cfg)
        # remove every curved piece: slope-1 activations, constant attention,
        # no tanh, raw score differences instead of the log loss
        from dataclasses import replace

        m.dims = replace(m.dims, leaky_slope=1.0, uniform_attention=True,
                         linear_compat=True)
        batch = sample_negatives(ds, splits, seed=3)
        report = gradient_check(m, graph, ds, batch, cfg, objective="raw")
        assert report.max_rel_err < 1e-9

    def test_full_model_small_dims(self, grad_fixture):
        ds, splits, graph = grad_fixture
        cfg = TrainConfig(seed=3, d=8, d_h=5, view_hidden=4, r_views=3, l2=1e-4)
        m = make_model(graph, ds, cfg)
        batch = sample_negatives(ds, splits, seed=3)
        report = gradient_check(m, graph, ds, batch, cfg)
        assert report.max_rel_err < 1e-4
        assert set(report.per_group) == {name for name, _ in m.parameters()}

    def test_zero_difference_batch_still_checks(self, grad_fixture):
        # two outfits with identical items and identical table rows score
        # identically, so the pairwise difference is exactly zero while the
        # gradient of the sigmoid-weighted term stays nonzero
        ds, splits, graph = grad_fixture
        cfg = TrainConfig(seed=3, d=8, d_h=5, view_hidden=4, r_views=3, l2=0.0)
        oids = sorted(ds.outfits)
        twin = Dataset(
            users=ds.users,
            outfits={**ds.outfits, 999: list(ds.outfits[oids[0]])},
            items=ds.items,
            interactions=ds.interactions,
            categories=ds.categories,
        )
        twin_splits = split_interactions(twin, seed=3)
        twin_graph = build_fashion_graph(twin, twin_splits)
        m = make_model(twin_graph, twin, cfg)
        i_dup, i_orig = twin_graph.rows("outfit", [999, oids[0]])
        m.params["outfit_table"].data[i_dup] = m.params["outfit_table"].data[i_orig]
        u = twin.users[0]
        batch = TripleBatch(
            rec_users=np.array([u]),
            rec_pos=np.array([oids[0]]),
            rec_neg=np.array([999]),
            comp_pos=np.array([], dtype=np.int64),
            comp_neg=(),
        )
        loss, _, _ = batch_loss(m, twin_graph, twin, batch, cfg, mode="eval")
        assert loss.item() == pytest.approx(math.log(2), abs=1e-12)
        m.zero_grads()
        loss.backward()
        assert any(p.grad is not None and np.any(p.grad) for _, p in m.parameters())
        report = gradient_check(m, twin_graph, twin, batch, cfg, max_per_group=40)
        assert report.max_rel_err < 1e-4

    def test_requires_float64(self, grad_fixture):
        ds, splits, graph = grad_fixture
        cfg = TrainConfig(seed=3, d=8, d_h=5, view_hidden=4, r_views=3, dtype="float32")
        m = make_model(graph, ds, cfg)
        with pytest.raises(ValueError, match="float64"):
            gradient_check(m, graph, ds, sample_negatives(ds, splits, 3), cfg)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(dropout_embed=1.0)
    with pytest.raises(ValueError):
        TrainConfig(lr=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
