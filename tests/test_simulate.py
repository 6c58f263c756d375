import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbnlearn.core import (
    ConfigError, Cpt, DbnStructure, DimensionError, FactoredCpt, LinearGaussian, Logistic,
    ModelError, NoisyOr, ParameterSet, linear_predictor, parents_of,
)
from dbnlearn.simulate import (
    FAVORABLE_REGIME, HIGH_DIMENSIONAL_REGIME, MODEL_FAMILIES, EdgeProbs, GeneratorConfig,
    RegimeSpec, regime_datasets, sample_random_dbn, sample_trajectories,
)
import dbnlearn.simulate as sim

from oracle_utils import raw_family_rows, sample_trajectories_loop


def dataset_digest(ds):
    return hashlib.sha256(ds.x.tobytes() + ds.z.tobytes()).hexdigest()


class TestSampleRandomDbn:
    def test_zero_probabilities_give_empty_structure(self):
        cfg = GeneratorConfig(n_x=4, n_z=2, p=2, seed=1)
        structure, _ = sample_random_dbn(cfg)
        assert structure.edge_count() == 0

    def test_full_intra_probability_gives_total_order(self):
        cfg = GeneratorConfig(n_x=3, seed=5, edge_probs=EdgeProbs(intra=1.0))
        structure, _ = sample_random_dbn(cfg)
        assert int(structure.intra.sum()) == 3  # complete DAG on 3 nodes

    def test_same_seed_identical(self):
        cfg = GeneratorConfig(n_x=4, n_z=1, model="cpt", seed=77,
                              edge_probs=EdgeProbs(0.4, 0.4, 0.4, 0.4))
        s1, p1 = sample_random_dbn(cfg)
        s2, p2 = sample_random_dbn(cfg)
        assert s1 == s2
        for i in range(4):
            assert np.array_equal(p1[i].table, p2[i].table)

    def test_gaussian_weights_in_configured_range(self):
        cfg = GeneratorConfig(n_x=4, model="linear_gaussian", seed=3,
                              weight_range=(0.5, 2.0),
                              edge_probs=EdgeProbs(intra=0.5, inter=0.5, auto=0.5))
        structure, params = sample_random_dbn(cfg)
        mags = np.concatenate([np.abs(params[i].beta) for i in range(4)])
        if mags.size:
            assert mags.min() >= 0.5 and mags.max() <= 2.0

    def test_stability_rejection_bounds_companion_radius(self):
        cfg = GeneratorConfig(n_x=4, model="linear_gaussian", seed=8,
                              edge_probs=EdgeProbs(intra=0.5, inter=0.6, auto=0.6))
        structure, params = sample_random_dbn(cfg)
        assert sim._companion_radius(structure, params) <= 0.9 + 1e-12


class TestNoisyOrKernel:
    def test_no_leak_no_parents(self):
        assert NoisyOr(0.0, (0.7,)).prob_one([0]) == 0.0

    def test_leak_one_forces_one(self):
        assert NoisyOr(1.0, (0.2, 0.4)).prob_one([0, 1]) == 1.0

    def test_half_leak_half_parent(self):
        # 1 - (1 - 0.5)(1 - 0.5)^1
        assert NoisyOr(0.5, (0.5,)).prob_one([1]) == pytest.approx(0.75)

    def test_lambda_out_of_range(self):
        with pytest.raises(ModelError):
            NoisyOr(1.5, ())


class TestSampleTrajectories:
    def test_deterministic_cpt_all_ones_after_start(self):
        from dbnlearn.core import DbnStructure
        structure = DbnStructure.empty(1)
        params = ParameterSet((Cpt(np.array([[0.0, 1.0]])),))
        ds = sample_trajectories(structure, params, 5, 6, seed=2)
        assert np.all(ds.x[:, 1:, 0] == 1)

    def test_noiseless_linear_doubles_previous_value(self):
        from dbnlearn.core import DbnStructure
        structure = DbnStructure(
            n_x=1, n_z=0, p=1, intra=np.zeros((1, 1), dtype=bool),
            inter=np.zeros((1, 1), dtype=bool), auto_lags=((1,),),
            static_edges=np.zeros((0, 1), dtype=bool))
        params = ParameterSet((LinearGaussian(beta0=0.0, beta=np.array([2.0]),
                                              sigma2=1e-30),))
        ds = sample_trajectories(structure, params, 3, 1, seed=2)
        assert np.allclose(ds.x[:, 1, 0], 2.0 * ds.x[:, 0, 0])

    def test_noisy_or_transition_frequency(self):
        # leak 0.5 and one always-on parent at 0.5: p(child = 0) = 0.25
        from dbnlearn.core import DbnStructure
        structure = DbnStructure(
            n_x=2, n_z=0, p=1, intra=np.zeros((2, 2), dtype=bool),
            inter=np.array([[False, False], [True, False]]), auto_lags=((), ()),
            static_edges=np.zeros((0, 2), dtype=bool))
        params = ParameterSet((
            NoisyOr(lam0=0.5, lam=(0.5,)),
            Cpt(np.array([[0.0, 1.0]])),  # parent pinned to one
        ))
        ds = sample_trajectories(structure, params, 200, 100, seed=4)
        active = ds.x[:, :-1, 1] == 1
        zeros = (ds.x[:, 1:, 0] == 0) & active
        freq = zeros.sum() / active.sum()
        assert freq == pytest.approx(0.25, abs=4 * math.sqrt(0.25 * 0.75 / active.sum()))

    def test_same_slice_parents_realized_first(self):
        # deterministic copy through an intra edge: child equals parent in-slice
        from dbnlearn.core import DbnStructure
        structure = DbnStructure(
            n_x=2, n_z=0, p=1, intra=np.array([[False, True], [False, False]]),
            inter=np.zeros((2, 2), dtype=bool), auto_lags=((), ()),
            static_edges=np.zeros((0, 2), dtype=bool))
        params = ParameterSet((
            Cpt(np.array([[0.5, 0.5]])),
            Cpt(np.array([[1.0, 0.0], [0.0, 1.0]])),  # copy the intra parent
        ))
        ds = sample_trajectories(structure, params, 10, 8, seed=6)
        assert np.array_equal(ds.x[:, 1:, 1], ds.x[:, 1:, 0])

    def test_mismatched_family_is_model_error(self):
        from dbnlearn.core import DbnStructure
        structure = DbnStructure(
            n_x=1, n_z=0, p=1, intra=np.zeros((1, 1), dtype=bool),
            inter=np.zeros((1, 1), dtype=bool), auto_lags=((1,),),
            static_edges=np.zeros((0, 1), dtype=bool))
        params = ParameterSet((Cpt(np.array([[0.5, 0.5]])),))  # needs 2 rows
        with pytest.raises(ModelError):
            sample_trajectories(structure, params, 2, 3, seed=0)

    def test_cpt_frequencies_match_clt(self):
        cfg = GeneratorConfig(n_x=2, model="cpt", seed=13,
                              edge_probs=EdgeProbs(inter=0.8, auto=0.5))
        structure, params = sample_random_dbn(cfg)
        ds = sample_trajectories(structure, params, 1000, 100, seed=14)
        from dbnlearn.scoring import count_transitions
        for node in range(2):
            fam = parents_of(structure, node)
            counts = count_transitions(ds, fam)
            table = params[node].table
            for cfg_idx in range(table.shape[0]):
                total = counts.totals[cfg_idx]
                for k in range(2):
                    expected = total * table[cfg_idx, k]
                    if expected < 50:
                        continue
                    sd = math.sqrt(total * table[cfg_idx, k] * (1 - table[cfg_idx, k]))
                    assert abs(counts.counts[cfg_idx, k] - expected) <= 4 * max(sd, 1e-9)

    def test_gaussian_residual_mean_near_zero(self):
        cfg = GeneratorConfig(n_x=2, model="linear_gaussian", sigma=0.7, seed=21,
                              edge_probs=EdgeProbs(inter=0.8))
        structure, params = sample_random_dbn(cfg)
        ds = sample_trajectories(structure, params, 1000, 100, seed=22)
        for node in range(2):
            rows = raw_family_rows(ds, parents_of(structure, node))
            resid = rows[:, 0] - (params[node].beta0 + rows[:, 1:] @ params[node].beta)
            assert abs(resid.mean()) <= 4 * 0.7 / math.sqrt(resid.size)

    def test_seed_determinism_and_separation(self):
        cfg = GeneratorConfig(n_x=3, model="cpt", seed=31,
                              edge_probs=EdgeProbs(inter=0.5))
        structure, params = sample_random_dbn(cfg)
        a = sample_trajectories(structure, params, 10, 10, seed=1)
        b = sample_trajectories(structure, params, 10, 10, seed=1)
        c = sample_trajectories(structure, params, 10, 10, seed=2)
        assert dataset_digest(a) == dataset_digest(b)
        assert dataset_digest(a) != dataset_digest(c)


class TestRegimes:
    def test_favorable_triples(self):
        assert FAVORABLE_REGIME.triples == (
            (3, 30, 10), (5, 50, 50), (10, 100, 200), (20, 400, 400), (30, 600, 500))

    def test_high_dimensional_triples(self):
        assert HIGH_DIMENSIONAL_REGIME.triples == (
            (3, 5, 10), (5, 10, 20), (10, 20, 40), (20, 40, 50), (30, 60, 100))

    def test_default_ten_replicates_per_triple(self):
        template = GeneratorConfig(n_x=1, model="cpt", seed=0,
                                   edge_probs=EdgeProbs(inter=0.3))
        cells = list(itertools.islice(
            regime_datasets(FAVORABLE_REGIME, template), 11))
        assert all(c.triple == (3, 30, 10) for c in cells[:10])
        assert [c.replicate for c in cells[:10]] == list(range(10))
        assert cells[10].triple == (5, 50, 50) and cells[10].replicate == 0

    def test_cell_shapes_and_determinism(self):
        template = GeneratorConfig(n_x=1, model="cpt", seed=9)
        regime = sim.RegimeSpec("tiny", ((2, 4, 5), (3, 2, 6)))
        cells = list(regime_datasets(regime, template, replicates=2))
        assert [c.triple for c in cells] == [(2, 4, 5)] * 2 + [(3, 2, 6)] * 2
        for c in cells:
            n, n_traj, horizon = c.triple
            assert c.dataset.x.shape == (n_traj, horizon + 1, n)
        again = list(regime_datasets(regime, template, replicates=2))
        assert [dataset_digest(c.dataset) for c in cells] == \
            [dataset_digest(c.dataset) for c in again]


def golden_model(model, p=2, seed=41):
    """Five nodes, two static covariates, auto lags up to ``p``; CPTs over arity 3."""
    cfg = GeneratorConfig(n_x=5, n_z=2, p=p, model=model, seed=seed,
                          x_arity=3 if model == "cpt" else 2,
                          z_arity=3 if model == "cpt" else 2,
                          edge_probs=EdgeProbs(intra=0.4, inter=0.3, auto=0.6, static=0.5),
                          intercept_range=(-0.5, 0.5), weight_range=(0.2, 0.6))
    structure, params = sample_random_dbn(cfg)
    arities = ((cfg.x_arity,) * 5, (cfg.z_arity,) * 2) if cfg.discrete else (None, None)
    return structure, params, arities


def golden_dataset(model, n_traj):
    structure, params, (x_ar, z_ar) = golden_model(model)
    return sample_trajectories(structure, params, n_traj, 12, seed=43,
                               x_arities=x_ar, z_arities=z_ar)


# SHA-256 of x and z, recorded with the one-draw-per-call sampler this one replaced
GOLDEN_DIGESTS = {
    ("cpt", 1): "8cef5ddf1c428c8de3d0183544b499f164840ff8daba2b49a26d3dceb03e7ca3",
    ("cpt", 7): "02450218d633290677fa81caa3311beca3712686b53c4550bdc51a0a681d46a2",
    ("factored", 1): "459bc329228658815910b901976cd5a61818d97be0471cc992985943367239ac",
    ("factored", 7): "98d70249e58d22f56db7d925e7aa05f7e52827cbe4661616e46a0779a7c732da",
    ("noisy_or", 1): "66591a5606f7478707bf4ccf359ff09620e23d6328eeda5ef811f62ff0f54711",
    ("noisy_or", 7): "f467a1c3a3a4d98d48b326b2750c3f96c45996f914c7a64ef188da823f68cf67",
    ("logistic", 1): "d9f97ce3356db9cc9c2e28ebef35f925fbd2d114501c789112589247730442da",
    ("logistic", 7): "c5eb4dd65f6d69cd59504836e0f8b863b8eed91d206d54d14228279f1b6ce928",
    ("linear_gaussian", 1): "400650ec479ffec210a81bce842a22670e193e46d77c9496b73650c22691e615",
    ("linear_gaussian", 7): "c9d435b20164abfb9ad40db04c18700988a44c8b43e51178056d123582f7d1dc",
}


class TestVectorisedSampler:
    @pytest.mark.parametrize("model,n_traj", sorted(GOLDEN_DIGESTS))
    def test_golden_digest(self, model, n_traj):
        assert dataset_digest(golden_dataset(model, n_traj)) == GOLDEN_DIGESTS[model, n_traj]

    def test_golden_models_cover_every_parent_kind(self):
        for model in MODEL_FAMILIES:
            structure, _, _ = golden_model(model)
            kinds = {par.kind for i in range(5) for par in parents_of(structure, i).parents}
            assert kinds == {"inter", "intra", "auto", "static"}
            assert any(2 in lags for lags in structure.auto_lags)

    @pytest.mark.parametrize("model", MODEL_FAMILIES)
    @pytest.mark.parametrize("n_traj", [1, 6])
    @pytest.mark.parametrize("p,seed", [(1, 5), (2, 41), (3, 8)])
    def test_equals_scalar_oracle(self, model, n_traj, p, seed):
        structure, params, (x_ar, z_ar) = golden_model(model, p=p, seed=seed)
        ds = sample_trajectories(structure, params, n_traj, 9, seed=seed + 1,
                                 x_arities=x_ar, z_arities=z_ar)
        x, z = sample_trajectories_loop(structure, params, n_traj, 9, seed + 1, x_ar, z_ar)
        assert ds.x.dtype == x.dtype and ds.z.dtype == z.dtype
        assert np.array_equal(ds.x, x) and np.array_equal(ds.z, z)

    def test_trajectory_independent_of_batch_size(self):
        for model in MODEL_FAMILIES:
            many = golden_dataset(model, 7)
            one = golden_dataset(model, 1)
            assert np.array_equal(many.x[:1], one.x) and np.array_equal(many.z[:1], one.z)

    def test_no_trajectories_or_no_steps(self):
        structure, params, (x_ar, z_ar) = golden_model("cpt")
        assert sample_trajectories(structure, params, 0, 5, seed=1, x_arities=x_ar,
                                   z_arities=z_ar).x.shape == (0, 6, 5)
        ds = sample_trajectories(structure, params, 3, 0, seed=1, x_arities=x_ar, z_arities=z_ar)
        assert ds.x.shape == (3, 1, 5)

    def test_top_bin_takes_residual_mass(self):
        row = np.array([0.5, 0.5 - 1e-12])  # a CPT row may sum to 1 - 1e-12
        Cpt(row[None, :])
        cdf = np.cumsum(row)
        assert sim._categorical(cdf[None, :], np.array([1 - 1e-14])).tolist() == [1]
        assert sim._categorical(cdf[None, :], np.array([0.5, 0.0])).tolist() == [1, 0]

    def test_categorical_matches_searchsorted(self, rng):
        cdf = np.cumsum(rng.dirichlet([0.5] * 4, size=200), axis=1)
        u = rng.random(200)
        u[::7] = cdf[::7, 1]  # a uniform equal to a boundary takes the next value
        expected = [int(np.searchsorted(c, v, side="right")) for c, v in zip(cdf, u)]
        assert sim._categorical(cdf, u).tolist() == expected

    def test_factored_needs_binary_parents(self):
        structure = DbnStructure(
            n_x=1, n_z=1, p=1, intra=np.zeros((1, 1), dtype=bool),
            inter=np.zeros((1, 1), dtype=bool), auto_lags=((),),
            static_edges=np.ones((1, 1), dtype=bool))
        params = ParameterSet((FactoredCpt(table_dyn=np.empty(0), table_stat=[0.2, 0.7]),))
        with pytest.raises(ModelError, match="binary parents"):
            sample_trajectories(structure, params, 2, 3, seed=0, x_arities=(2,), z_arities=(3,))


class TestLinearPredictor:
    @pytest.mark.parametrize("k", range(21))
    def test_scalar_and_batched_kernels_agree(self, k, rng):
        beta = rng.uniform(0.1, 2.0, size=k) * rng.choice([-1.0, 1.0], size=k)
        values = rng.standard_normal((k, 60)) * 10.0 ** rng.uniform(-3, 3, size=(k, 1))
        lg = LinearGaussian(beta0=0.3, beta=beta, sigma2=1.0)
        lo = Logistic(beta0=-0.2, beta=beta)
        batched = linear_predictor(0.3, beta, values)
        assert np.array_equal(lg.mean(values), batched)
        assert [lg.mean(list(values[:, r])) for r in range(60)] == batched.tolist()
        assert [lo.prob_one(list(values[:, r])) for r in range(60)] == lo.prob_one(values).tolist()
        if k < 16:  # one fused multiply-add chain, as OpenBLAS's ddot below 16 elements
            dots = [0.3 + float(np.dot(beta, np.ascontiguousarray(values[:, r])))
                    for r in range(60)]
            assert batched.tolist() == dots

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            linear_predictor(0.0, np.ones(2), np.ones((3, 4)))
        with pytest.raises(DimensionError):
            LinearGaussian(beta0=0.0, beta=np.ones(2), sigma2=1.0).mean([1.0])


class TestTypedConfigErrors:
    out_of_unit = st.one_of(st.floats(max_value=-1e-9, allow_nan=False, allow_infinity=False),
                            st.floats(min_value=1.0 + 1e-9, allow_nan=False))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(name=st.sampled_from(["intra", "inter", "auto", "static"]), value=out_of_unit)
    def test_edge_probability_out_of_range(self, name, value):
        with pytest.raises(ConfigError):
            EdgeProbs(**{name: value})

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(lo=st.floats(-10, 10), gap=st.floats(1e-6, 10),
           bad=st.floats(max_value=0.0, allow_nan=False, allow_infinity=False))
    def test_generator_settings_out_of_range(self, lo, gap, bad):
        for kwargs in ({"weight_range": (lo + gap, lo)}, {"sigma": bad},
                       {"stability_radius": bad}):
            with pytest.raises(ConfigError):
                GeneratorConfig(n_x=2, model="linear_gaussian", **kwargs)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(triple=st.lists(st.integers(-5, 5), min_size=3, max_size=3).filter(
        lambda t: min(t) <= 0))
    def test_regime_entries_must_be_positive(self, triple):
        with pytest.raises(ConfigError):
            RegimeSpec("bad", (tuple(triple),))

    @pytest.mark.parametrize("model", ["factored", "noisy_or", "logistic"])
    @pytest.mark.parametrize("arities", [{"z_arity": 3}, {"x_arity": 3},
                                         {"x_arity": 3, "z_arity": 4}])
    def test_binary_kernels_refuse_other_arities(self, model, arities):
        with pytest.raises(ConfigError, match="binary"):
            GeneratorConfig(n_x=2, n_z=2, model=model, **arities)
        GeneratorConfig(n_x=2, n_z=2, model=model)  # binary on both sides is accepted

    def test_config_error_is_value_error(self):
        with pytest.raises(ValueError):
            EdgeProbs(intra=2.0)
