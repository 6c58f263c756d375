import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats
from scipy.special import gammaln

import dbnlearn.scoring as sc
from dbnlearn.core import (
    ConfigError, Cpt, DataError, DbnStructure, DomainMismatchError, FamilySpec, ModelError,
    ParameterSet, Parent, TrajectoryDataset, UnderdeterminedError,
    canonical_parents, configuration_index, parents_of,
)
from dbnlearn.evaluate import temporal_split
from dbnlearn.simulate import EdgeProbs, GeneratorConfig, sample_random_dbn, sample_trajectories

from conftest import continuous_dataset, discrete_dataset
from oracle_utils import class_subsets, discrete_family_score, raw_family_rows


def family(node, *parents):
    return FamilySpec(node=node, parents=canonical_parents(parents))


def single_var_dataset(values):
    """One trajectory over one binary variable with the given slice values."""
    return discrete_dataset([[[v] for v in values]])


class TestCountTransitions:
    def test_empty_family_tallies_child_values(self):
        # transitions t=1..10 hold 7 ones and 3 zeros
        ds = single_var_dataset([0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1])
        ct = sc.count_transitions(ds, family(0))
        assert ct.counts.tolist() == [[3, 7]]

    def test_static_parent_aggregates_whole_trajectories(self):
        ds = discrete_dataset(
            [[[0], [1], [0], [1]], [[1], [1], [1], [1]]],
            z=[[0], [1]])
        ct = sc.count_transitions(ds, family(0, Parent("static", 0)))
        # trajectory 0 (Z=0) contributes its T=3 transitions to config 0
        assert ct.totals.tolist() == [3, 3]
        assert ct.counts[1].tolist() == [0, 3]

    def test_single_transition(self):
        ds = discrete_dataset([[[0], [1]]])
        assert sc.count_transitions(ds, family(0)).grand_total == 1

    def test_lag_truncation_drops_early_transitions(self):
        ds = discrete_dataset([[[0], [1], [0], [1], [0]]])
        fam = family(0, Parent("auto", 2))
        ct = sc.count_transitions(ds, fam)
        assert ct.grand_total == ds.N * (ds.T - 2 + 1) == 3

    def test_continuous_dataset_rejected(self):
        ds = continuous_dataset(np.zeros((1, 3, 1)))
        with pytest.raises(DomainMismatchError):
            sc.count_transitions(ds, family(0))

    def test_parent_configuration_indexing(self):
        # child 0 with inter parent 1: parent value = x1 one step earlier
        ds = discrete_dataset([[[0, 0], [1, 1], [0, 1], [1, 1]]])
        ct = sc.count_transitions(ds, family(0, Parent("inter", 1)))
        assert ct.counts.tolist() == [[0, 1], [1, 1]]

    def test_vectorised_index_matches_scalar_index(self, rng):
        # counts and the sampler must agree on which row a configuration is;
        # count_transitions indexes the child as the least significant digit
        for _ in range(20):
            arities = tuple(int(a) for a in rng.integers(2, 5, size=int(rng.integers(0, 4))))
            values = np.array([[int(rng.integers(a)) for a in arities] for _ in range(30)],
                              dtype=np.int64).reshape(30, len(arities))
            expected = [configuration_index(row, arities) for row in values]
            if arities:
                assert sc._config_index(list(values.T), arities).tolist() == expected
            child_arity = int(rng.integers(2, 5))
            child = rng.integers(child_arity, size=30)
            flat = sc._config_index([child, *values.T], (child_arity, *arities))
            assert flat.tolist() == [c + child_arity * e for c, e in zip(child.tolist(), expected)]


class TestMleCpt:
    def test_count_ratio(self):
        ds = single_var_dataset([0, 1, 1, 1, 0])
        cpt = sc.mle_cpt(sc.count_transitions(ds, family(0)))
        assert cpt.table.tolist() == [[0.25, 0.75]]

    def test_unseen_configuration_uniform(self):
        ds = discrete_dataset([[[0, 1], [1, 1], [1, 1]]])
        cpt = sc.mle_cpt(sc.count_transitions(ds, family(0, Parent("inter", 1))))
        assert cpt.table[0].tolist() == [0.5, 0.5]

    def test_degenerate_row_allowed(self):
        ds = single_var_dataset([0, 1, 1, 1, 1, 1])
        cpt = sc.mle_cpt(sc.count_transitions(ds, family(0)))
        assert cpt.table.tolist() == [[0.0, 1.0]]

    def test_posterior_mean_smoothing(self):
        ds = single_var_dataset([0, 1, 1, 0])
        counts = sc.count_transitions(ds, family(0))  # (1, 2)
        cpt = sc.mle_cpt(counts, smoothing=sc.DirichletPrior(table=np.ones((1, 2))))
        assert cpt.table[0] == pytest.approx([2 / 5, 3 / 5])

    def test_perturbing_mle_decreases_likelihood(self, rng):
        ds = discrete_dataset((rng.random((8, 12, 2)) < 0.6).astype(int))
        structure = DbnStructure(
            n_x=2, n_z=0, p=1, intra=np.array([[False, True], [False, False]]),
            inter=np.zeros((2, 2), dtype=bool), auto_lags=((1,), ()),
            static_edges=np.zeros((0, 2), dtype=bool))
        tables = [sc.mle_cpt(sc.count_transitions(ds, parents_of(structure, i)))
                  for i in range(2)]
        base = sc.loglik_cpt(ds, structure, ParameterSet(tuple(tables)))
        counts0 = sc.count_transitions(ds, parents_of(structure, 0))
        for cfg in range(tables[0].table.shape[0]):
            if counts0.totals[cfg] == 0:
                continue
            for sign in (+1.0, -1.0):
                bent = tables[0].table.copy()
                bent[cfg, 0] = np.clip(bent[cfg, 0] + sign * 1e-3, 1e-9, 1 - 1e-9)
                bent[cfg] /= bent[cfg].sum()
                worse = sc.loglik_cpt(
                    ds, structure, ParameterSet((Cpt(bent), tables[1])))
                assert worse < base


def factored_loglik(ds, node, dyn_fam, stat_fam, table_dyn, table_stat):
    """Direct factored-kernel log-likelihood used by the grid oracle."""
    t0 = max(ds.first_usable_t(dyn_fam), ds.first_usable_t(stat_fam))
    total = 0.0
    for (x, *dyn), (_, *stat) in zip(raw_family_rows(ds, dyn_fam, t0),
                                     raw_family_rows(ds, stat_fam, t0)):
        d_idx = 0
        for m, v in enumerate(dyn):
            d_idx += int(v) * (2 ** m)
        s_idx = 0
        for m, v in enumerate(stat):
            s_idx += int(v) * (2 ** m)
        p1 = (table_dyn[d_idx] if len(table_dyn) else 1.0) * \
             (table_stat[s_idx] if len(table_stat) else 1.0)
        p1 = min(1.0, max(0.0, p1))
        prob = p1 if x == 1 else 1.0 - p1
        if prob <= 0.0:
            return -math.inf
        total += math.log(prob)
    return total


def grid_argmax_1d(ds, node, dyn_fam, stat_fam, n_configs, dynamic_side, step=1e-3):
    """Best per-config factor on a theta grid when the other factor is empty."""
    grid = np.arange(0.0, 1.0 + step / 2, step)
    best = []
    for cfg in range(n_configs):
        def ll(theta, cfg=cfg):
            table = np.full(n_configs, 0.5)
            for other in range(n_configs):
                if other != cfg:
                    table[other] = best[other] if other < len(best) else 0.5
            table[cfg] = theta
            if dynamic_side:
                return factored_loglik(ds, node, dyn_fam, stat_fam, table, [])
            return factored_loglik(ds, node, dyn_fam, stat_fam, [], table)
        values = [ll(t) for t in grid]
        best.append(float(grid[int(np.argmax(values))]))
    return best


class TestMleFactored:
    def test_no_static_parents_reduces_to_cpt(self):
        ds = discrete_dataset([[[0, 0], [1, 1], [0, 1], [1, 0], [1, 1]]])
        dyn = family(0, Parent("inter", 1))
        fc = sc.mle_factored(ds, 0, dyn, family(0))
        cpt = sc.mle_cpt(sc.count_transitions(ds, dyn))
        assert fc.table_stat.size == 0
        assert fc.table_dyn == pytest.approx(cpt.table[:, 1])

    def test_static_factor_uses_t_scaled_sample_size(self):
        # one trajectory per Z value: the static factor pools all T transitions
        ds = discrete_dataset(
            [[[0], [1], [1], [0]], [[0], [0], [1], [1]]], z=[[0], [1]])
        fc = sc.mle_factored(ds, 0, family(0), family(0, Parent("static", 0)))
        assert fc.table_dyn.size == 0
        assert fc.table_stat == pytest.approx([2 / 3, 2 / 3])

    def test_hand_dataset_matches_grid_oracle(self):
        # two trajectories with Z in {0, 1}, three transitions each
        ds = discrete_dataset(
            [[[1], [1], [0], [1]], [[0], [0], [1], [0]]], z=[[0], [1]])
        stat = family(0, Parent("static", 0))
        fc = sc.mle_factored(ds, 0, family(0), stat)
        oracle = grid_argmax_1d(ds, 0, family(0), stat, 2, dynamic_side=False)
        assert fc.table_stat == pytest.approx(oracle, abs=1e-3)

    def test_unseen_configuration_fallback(self):
        ds = discrete_dataset([[[0, 1], [1, 1], [1, 1]]])
        fc = sc.mle_factored(ds, 0, family(0, Parent("inter", 1)), family(0))
        assert fc.table_dyn[0] == 0.5  # parent value 0 never observed

    def test_mixed_family_splits_cleanly(self):
        ds = discrete_dataset(
            [[[1], [1], [1], [1]], [[1], [0], [0], [0]]], z=[[1], [0]])
        fc = sc.mle_factored(
            ds, 0, family(0, Parent("auto", 1)), family(0, Parent("static", 0)))
        assert fc.table_dyn.size == 2 and fc.table_stat.size == 2
        assert not fc.clipped

    def test_non_binary_child_rejected(self):
        ds = discrete_dataset([[[0], [1], [2]]], x_arities=(3,))
        with pytest.raises(ModelError):
            sc.mle_factored(ds, 0, family(0), family(0))


def tally_counts(x, z, x_arities, z_arities, node, parents, start):
    """Transition counts of one family, tallied row by row from the raw arrays."""
    arities = [z_arities[p.index] if p.kind == "static"
               else x_arities[node] if p.kind == "auto" else x_arities[p.index]
               for p in parents]
    counts = np.zeros((math.prod(arities), x_arities[node]), dtype=np.int64)
    for n in range(x.shape[0]):
        for t in range(start, x.shape[1]):
            idx, base = 0, 1
            for p, a in zip(parents, arities):
                if p.kind == "inter":
                    v = x[n, t - 1, p.index]
                elif p.kind == "intra":
                    v = x[n, t, p.index]
                elif p.kind == "auto":
                    v = x[n, t - p.index, node]
                else:
                    v = z[n, p.index]
                idx += int(v) * base
                base *= a
            counts[idx, x[n, t, node]] += 1
    return counts


def tally_ratios(counts):
    """Per-configuration share of child value 1; 0.5 where a configuration is unseen."""
    totals = counts.sum(axis=1)
    return [c[1] / tot if tot else 0.5 for c, tot in zip(counts.tolist(), totals.tolist())]


def draw_discrete_arrays(draw):
    """Up to 3 trajectories of 2-9 slices over 1-3 variables and 0-2 covariates, arities 2-3."""
    n_x = draw(st.integers(1, 3))
    n_z = draw(st.integers(0, 2))
    n_traj = draw(st.integers(1, 3))
    horizon = draw(st.integers(1, 8))
    x_ar = tuple(draw(st.lists(st.integers(2, 3), min_size=n_x, max_size=n_x)))
    z_ar = tuple(draw(st.lists(st.integers(2, 3), min_size=n_z, max_size=n_z)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    x = np.stack([rng.integers(a, size=(n_traj, horizon + 1)) for a in x_ar], axis=2)
    z = np.stack([rng.integers(a, size=n_traj) for a in z_ar], axis=1) if n_z \
        else np.zeros((n_traj, 0), dtype=np.int64)
    return x, z, x_ar, z_ar


@st.composite
def bank_cases(draw):
    """A small discrete dataset (lags up to 3, static covariates) and a family of one node."""
    x, z, x_ar, z_ar = draw_discrete_arrays(draw)
    n_x, n_z, horizon = len(x_ar), len(z_ar), x.shape[1] - 1
    burn_in = draw(st.integers(0, horizon))
    node = draw(st.integers(0, n_x - 1))
    flags = st.lists(st.booleans(), min_size=n_x, max_size=n_x)
    parents = [Parent("inter", j) for j, on in enumerate(draw(flags)) if on]
    parents += [Parent("intra", j) for j, on in enumerate(draw(flags)) if on and j != node]
    parents += [Parent("auto", tau) for tau in sorted(draw(st.sets(st.integers(1, 3), max_size=2)))]
    parents += [Parent("static", j) for j in sorted(draw(st.sets(st.integers(0, max(n_z - 1, 0)), max_size=n_z)))]
    ds = discrete_dataset(x, z, x_arities=x_ar, z_arities=z_ar, burn_in=burn_in)
    return ds, FamilySpec(node=node, parents=canonical_parents(parents))


def check_against_tally(ds, fam):
    x, z, xa, za = ds.x, ds.z, ds.domain.x_arities, ds.domain.z_arities
    lags = [p.index for p in fam.parents if p.kind == "auto"]
    start = max([1, ds.burn_in + 1] + lags)
    assert sc.count_transitions(ds, fam).counts.tolist() == \
        tally_counts(x, z, xa, za, fam.node, fam.parents, start).tolist()
    if xa[fam.node] != 2:
        return
    dyn = FamilySpec(fam.node, tuple(p for p in fam.parents if p.kind != "static"))
    stat = FamilySpec(fam.node, tuple(p for p in fam.parents if p.kind == "static"))
    fc = sc.mle_factored(ds, fam.node, dyn, stat)  # both tallies start where both are usable
    for part, table in ((dyn, fc.table_dyn), (stat, fc.table_stat)):
        expected = tally_ratios(tally_counts(x, z, xa, za, fam.node, part.parents, start)) \
            if part.parents else []
        assert table.tolist() == expected


class TestColumnBank:
    """Counts and factored ratios read from the column bank against a row-by-row tally."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(bank_cases())
    def test_counts_and_factored_ratios_match_raw_tally(self, case):
        ds, fam = case
        check_against_tally(ds, fam)
        if ds.T >= 3:
            for side in temporal_split(ds):  # the test side carries a burn-in
                check_against_tally(side, fam)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(bank_cases(), st.integers(0, 4))
    def test_family_rows_are_parent_columns(self, case, later):
        ds, fam = case
        t0 = ds.first_usable_t(fam) + later
        child, pcols = ds.family_rows(fam, t0)
        rows = raw_family_rows(ds, fam, t0)
        assert child.tolist() == rows[:, 0].tolist()
        assert np.array_equal(pcols, rows[:, 1:]) and pcols.flags.c_contiguous

    def test_columns_are_memoised_read_only_and_contiguous(self):
        ds = discrete_dataset(np.arange(24).reshape(2, 4, 3) % 2, z=[[0], [1]])
        fam = family(0, Parent("inter", 1), Parent("intra", 2), Parent("auto", 2), Parent("static", 0))
        child, cols = ds.family_columns(fam)
        again_child, again = ds.family_columns(fam)
        assert again_child is child and all(a is b for a, b in zip(again, cols))
        for col in (child, *cols):
            assert col.shape == (ds.N * (ds.T - 1),)
            assert col.flags.c_contiguous and not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = 1
        assert [f.name for f in dataclasses.fields(ds)] == ["domain", "x", "z", "burn_in"]
        assert "_bank" not in repr(ds)

    def test_target_time_before_the_lags_rejected(self):
        ds = discrete_dataset(np.zeros((1, 5, 1), dtype=int))
        with pytest.raises(DataError):
            ds.family_columns(family(0, Parent("auto", 2)), 1)


def oracle_moments(rows):
    """Means and centered scatter of ``rows``, one ``math.fsum`` per entry."""
    m, d = rows.shape
    mean = np.array([math.fsum(rows[:, j].tolist()) / m for j in range(d)])
    scatter = np.empty((d, d))
    for j in range(d):
        for k in range(j, d):
            scatter[j, k] = scatter[k, j] = \
                math.fsum((rows[:, j] * rows[:, k]).tolist()) - m * mean[j] * mean[k]
    return mean, scatter


def oracle_bge(ds, fam, hyper):
    """BGe with the joint and the parent block each summed from scratch over its own rows."""
    alpha_w, t_prec, nu = hyper.resolved(1 + len(fam.parents))
    rows = raw_family_rows(ds, fam)
    m = rows.shape[0]
    if m == 0:
        return 0.0
    joint = sc.log_nw_marginal(m, *oracle_moments(rows), hyper.alpha_mu, alpha_w, t_prec, nu)
    if not fam.parents:
        return joint
    return joint - sc.log_nw_marginal(m, *oracle_moments(rows[:, 1:]), hyper.alpha_mu,
                                      alpha_w, t_prec[1:, 1:], nu[1:])


@st.composite
def continuous_cases(draw):
    """A small continuous dataset (lags up to 3, static covariates) and a family of one node."""
    ds, fam = draw(bank_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    x = rng.normal(size=ds.x.shape) * scale + rng.normal() * 10
    z = rng.normal(size=ds.z.shape) * scale
    return continuous_dataset(x, z, burn_in=ds.burn_in), fam


class TestSumBank:
    """BGe moments assembled from the exact-sum bank against sums over the raw rows."""

    @staticmethod
    def check_against_oracle(ds, fam, alpha_mu):
        rows = raw_family_rows(ds, fam)
        m, mean, scatter = sc._exact_moments(ds, fam)
        assert m == rows.shape[0]
        if m:
            want_mean, want_scatter = oracle_moments(rows)
            assert mean.tolist() == want_mean.tolist()
            assert scatter.tolist() == want_scatter.tolist()
        hyper = sc.BgeHyper(alpha_mu=alpha_mu)
        assert sc.bge_family_score(ds, fam.node, fam, hyper) == oracle_bge(ds, fam, hyper)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(continuous_cases(), st.sampled_from([0.5, 1.0, 3.0]))
    def test_moments_and_score_match_raw_sums(self, case, alpha_mu):
        ds, fam = case
        self.check_against_oracle(ds, fam, alpha_mu)
        if ds.T >= 3:
            for side in temporal_split(ds):  # the test side carries a burn-in
                self.check_against_oracle(side, fam, alpha_mu)

    def test_static_and_dynamic_parents_together(self, rng):
        ds = continuous_dataset(rng.normal(size=(3, 6, 2)), z=rng.normal(size=(3, 2)))
        fam = family(0, Parent("inter", 1), Parent("intra", 1), Parent("auto", 2),
                     Parent("static", 0), Parent("static", 1))
        self.check_against_oracle(ds, fam, 1.0)
        static, dynamic = (2, None, 0), (2, 1, 1)
        assert ds.column_sum(static, dynamic) == ds.column_sum(dynamic, static)

    def test_no_usable_rows_scores_zero(self, rng):
        ds = continuous_dataset(rng.normal(size=(2, 4, 2)), burn_in=3)
        fam = family(0, Parent("auto", 3), Parent("inter", 1))
        assert ds.usable_transitions(fam) == 0
        assert sc.bge_family_score(ds, 0, fam) == 0.0
        short = continuous_dataset(rng.normal(size=(2, 3, 2)))
        assert sc.bge_family_score(short, 0, family(0, Parent("auto", 3))) == 0.0

    def test_overflowing_sums_raise_data_error(self):
        ds = continuous_dataset(np.array([[[1e200, 1e200], [-1e200, 1e200], [1e200, 1e200]]]))
        child, parent = ds.family_keys(family(0, Parent("intra", 1)))
        assert ds.column_sum(child, child) == math.inf
        with pytest.raises(DataError):  # +inf and -inf products
            ds.column_sum(child, parent)
        with pytest.raises(DataError):
            sc.bge_family_score(ds, 0, family(0))

    def test_pair_sums_are_the_banked_sums_in_any_row_order(self, rng):
        x, z = rng.normal(size=(4, 7, 3)), rng.normal(size=(4, 1))
        ds = continuous_dataset(x, z)
        keys = ds.family_keys(family(0, Parent("inter", 1), Parent("intra", 2),
                                     Parent("auto", 2), Parent("static", 0)))
        gram = ds.pair_sums(keys)
        assert gram.tolist() == [[ds.column_sum(a, b) for b in keys] for a in keys]
        assert gram.tolist() == gram.T.tolist()
        perm = rng.permutation(4)
        assert continuous_dataset(x[perm], z[perm]).pair_sums(keys).tobytes() == gram.tobytes()

    def test_bge_reads_the_shared_pair_sums(self, rng, monkeypatch):
        ds = continuous_dataset(rng.normal(size=(3, 8, 3)) * 1e3 + 5.0, z=rng.normal(size=(3, 1)))
        fam = family(1, Parent("inter", 0), Parent("intra", 2), Parent("auto", 2),
                     Parent("static", 0))
        read = []
        pair_sums = TrajectoryDataset.pair_sums
        monkeypatch.setattr(TrajectoryDataset, "pair_sums",
                            lambda self, keys: read.append(keys) or pair_sums(self, keys))
        hyper = sc.BgeHyper()
        assert sc.bge_family_score(ds, 1, fam, hyper) == oracle_bge(ds, fam, hyper)
        assert read == [ds.family_keys(fam)]

    def test_sums_are_memoised_and_hidden(self, rng, monkeypatch):
        ds = continuous_dataset(rng.normal(size=(3, 7, 3)), z=rng.normal(size=(3, 1)))
        fam = family(0, Parent("inter", 1), Parent("intra", 2), Parent("static", 0))
        first = sc.bge_family_score(ds, 0, fam)
        assert len(ds._sums) == 4 + 4 * 5 // 2  # columns, then unordered pairs
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda xs: calls.append(1) or fsum(xs))
        assert sc.bge_family_score(ds, 0, fam) == first
        sc.bge_family_score(ds, 0, family(0, Parent("inter", 1)))  # every sum is banked
        assert calls == []
        assert "_sums" not in repr(ds) and "_bank" not in repr(ds)
        assert ds == continuous_dataset(ds.x, ds.z)


class TestLoglikCpt:
    @staticmethod
    def chain_structure():
        return DbnStructure(
            n_x=1, n_z=0, p=1, intra=np.zeros((1, 1), dtype=bool),
            inter=np.zeros((1, 1), dtype=bool), auto_lags=((1,),),
            static_edges=np.zeros((0, 1), dtype=bool))

    def test_deterministic_model_scores_zero(self):
        ds = single_var_dataset([1, 1, 1, 1])
        structure = self.chain_structure()
        params = ParameterSet((Cpt(np.array([[0.5, 0.5], [0.0, 1.0]])),))
        assert sc.loglik_cpt(ds, structure, params) == 0.0

    def test_uniform_model_counts_log2(self):
        ds = discrete_dataset([[[0, 1], [1, 0], [0, 0], [1, 1]]])
        structure = DbnStructure.empty(2)
        params = ParameterSet((Cpt(np.array([[0.5, 0.5]])),) * 2)
        m = ds.T * ds.N
        assert sc.loglik_cpt(ds, structure, params) == pytest.approx(-m * 2 * math.log(2))

    def test_plug_in_value(self):
        ds = single_var_dataset([0, 1, 1, 1, 0])  # counts (1, 3)
        structure = DbnStructure.empty(1)
        params = ParameterSet((sc.mle_cpt(sc.count_transitions(ds, family(0))),))
        expected = math.log(0.25) + 3 * math.log(0.75)
        assert sc.loglik_cpt(ds, structure, params) == pytest.approx(expected)
        assert expected == pytest.approx(-2.2493, abs=1e-4)

    def test_zero_probability_event_gives_neg_inf(self):
        ds = single_var_dataset([1, 0, 1])
        params = ParameterSet((Cpt(np.array([[0.0, 1.0]])),))
        assert sc.loglik_cpt(ds, DbnStructure.empty(1), params) == -math.inf

    def test_wrong_table_shape_is_model_error(self):
        ds = single_var_dataset([1, 0, 1])
        params = ParameterSet((Cpt(np.array([[0.5, 0.5], [0.5, 0.5]])),))
        with pytest.raises(ModelError):
            sc.loglik_cpt(ds, DbnStructure.empty(1), params)


class TestFitLogistic:
    def test_parent_free_symmetric_data(self):
        ds = single_var_dataset([0, 1, 0, 1, 0, 1, 0, 1, 0])
        model, _ = sc.fit_logistic(ds, 0, family(0), ridge=1e-6)
        assert abs(model.beta0) < 1e-3

    def test_gradient_matches_central_differences(self, rng):
        design = np.hstack([np.ones((40, 1)), rng.normal(size=(40, 2))])
        y = (rng.random(40) < 0.5).astype(float)
        for _ in range(20):
            beta = rng.normal(scale=1.5, size=3)
            _, grad = sc.logistic_objective(beta, design, y, ridge=0.1)
            num = np.zeros(3)
            for k in range(3):
                hi, lo = beta.copy(), beta.copy()
                hi[k] += 1e-6
                lo[k] -= 1e-6
                num[k] = (sc.logistic_objective(hi, design, y, 0.1)[0]
                          - sc.logistic_objective(lo, design, y, 0.1)[0]) / 2e-6
            scale = max(1.0, float(np.linalg.norm(num)))
            assert np.linalg.norm(grad - num) / scale < 1e-6

    def test_recovers_ground_truth_coefficients(self):
        structure = DbnStructure(
            n_x=2, n_z=0, p=1, intra=np.zeros((2, 2), dtype=bool),
            inter=np.array([[False, False], [True, False]]), auto_lags=((), ()),
            static_edges=np.zeros((0, 2), dtype=bool))
        from dbnlearn.core import Logistic
        truth = ParameterSet((
            Logistic(beta0=-1.0, beta=np.array([2.0])),
            Logistic(beta0=0.0, beta=np.array([]))))
        ds = sample_trajectories(structure, truth, 100, 100, seed=5)
        model, _ = sc.fit_logistic(ds, 0, parents_of(structure, 0), ridge=1e-6)
        assert model.beta0 == pytest.approx(-1.0, abs=0.15)
        assert model.beta[0] == pytest.approx(2.0, abs=0.15)

    def test_separable_data_triggers_guard(self):
        ds = discrete_dataset([[[0, 0], [1, 1], [0, 0], [1, 1], [0, 0], [1, 1],
                                [0, 0], [1, 1], [0, 0]]])
        model, ll = sc.fit_logistic(ds, 0, family(0, Parent("intra", 1)), ridge=0.0)
        assert model.separable_guard
        assert math.isfinite(ll)


class TestFitLinearGaussian:
    def test_exact_linear_fit(self):
        rng = np.random.default_rng(1)
        x1 = rng.normal(size=(1, 20))
        x = np.stack([x1, 2.0 * x1], axis=-1)
        ds = continuous_dataset(x)
        model, _ = sc.fit_linear_gaussian(ds, 1, family(1, Parent("intra", 0)))
        assert model.beta0 == pytest.approx(0.0, abs=1e-6)
        assert model.beta[0] == pytest.approx(2.0, abs=1e-6)
        assert model.sigma2 < 1e-12

    def test_independent_noise(self, rng):
        ds = continuous_dataset(rng.normal(size=(100, 101, 2)))
        model, _ = sc.fit_linear_gaussian(ds, 0, family(0, Parent("inter", 1)))
        assert abs(model.beta[0]) < 0.05
        assert model.sigma2 == pytest.approx(1.0, rel=0.1)

    def test_extra_parent_never_hurts_in_sample(self, rng):
        ds = continuous_dataset(rng.normal(size=(20, 21, 3)))
        _, base = sc.fit_linear_gaussian(ds, 0, family(0, Parent("inter", 1)))
        _, more = sc.fit_linear_gaussian(
            ds, 0, family(0, Parent("inter", 1), Parent("inter", 2)))
        assert more >= base - 1e-9

    def test_underdetermined_error(self):
        ds = continuous_dataset(np.zeros((1, 2, 3)) + np.arange(3))
        with pytest.raises(UnderdeterminedError):
            sc.fit_linear_gaussian(
                ds, 0, family(0, Parent("inter", 0), Parent("inter", 1), Parent("inter", 2)))


    @pytest.mark.parametrize("via", ["family_score", "FamilyScorer"])
    def test_singular_fit_raises_data_error(self, via):
        # twin variables scaled by 1e3: the normal equations are singular even with the ridge
        x = np.random.default_rng(0).standard_normal((2, 7, 1)) * 1e3
        ds = continuous_dataset(np.concatenate([x, x], axis=-1))
        parents = (Parent("inter", 0), Parent("inter", 1))
        score = (lambda: sc.family_score(ds, 0, parents, "ll")) if via == "family_score" \
            else (lambda: sc.FamilyScorer(ds, "ll")(0, parents))
        with pytest.raises(DataError, match=r"node 0 on parents .*inter.*index=0.*inter.*index=1"):
            score()


class TestInformationCriterion:
    def test_bic(self):
        assert sc.information_criterion(-100.0, 5, 50, "bic") == \
            pytest.approx(200 + 5 * math.log(50))
        assert sc.information_criterion(-100.0, 5, 50, "bic") == pytest.approx(219.5601, abs=1e-4)

    def test_aic(self):
        assert sc.information_criterion(-100.0, 5, 50, "aic") == 210.0

    def test_aicc_printed_form(self):
        # parsimony term (N + k)/(N - k - 2), deliberately without a leading k
        assert sc.information_criterion(-100.0, 5, 50, "aicc") == \
            pytest.approx(200 + 55 / 43) == pytest.approx(201.2791, abs=1e-4)

    def test_aicc_domain_error(self):
        with pytest.raises(DataError):
            sc.information_criterion(-10.0, 5, 7, "aicc")


def beta_binomial_quadrature(alpha1, alpha0, n1, n0):
    """Independent oracle: integral of theta^n1 (1-theta)^n0 under a Beta prior."""
    def integrand(theta):
        return theta ** n1 * (1 - theta) ** n0 * stats.beta.pdf(theta, alpha1, alpha0)
    value, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-11)
    return math.log(value)


class TestBdeFamilyScore:
    def test_beta_integral_case(self):
        # one binary node, alpha = (1, 1), two ones and one zero observed
        ds = single_var_dataset([0, 1, 1, 0])
        counts = sc.count_transitions(ds, family(0))
        score = sc.bde_family_score(counts, sc.DirichletPrior(table=np.ones((1, 2))))
        assert score == pytest.approx(math.log(1 / 12), abs=1e-12)
        assert score == pytest.approx(-2.4849, abs=1e-4)

    def test_zero_data_scores_zero(self):
        ds = discrete_dataset([[[0], [1]]], burn_in=1)
        counts = sc.count_transitions(ds, family(0))
        assert counts.grand_total == 0
        assert sc.bde_family_score(counts) == 0.0

    def test_matches_quadrature_micro_grid(self):
        prior = sc.DirichletPrior(1.0)
        fam = family(0)
        for n0, n1 in itertools.product(range(4), repeat=2):
            values = [0] + [1] * n1 + [0] * n0
            ds = single_var_dataset(values)
            counts = sc.count_transitions(ds, fam)
            if counts.grand_total == 0:
                continue
            got = sc.bde_family_score(counts, prior)
            want = beta_binomial_quadrature(0.5, 0.5, n1, n0)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_decomposability_per_node(self, rng):
        cfg = GeneratorConfig(n_x=3, model="cpt", seed=4,
                              edge_probs=EdgeProbs(intra=0.4, inter=0.4, auto=0.3))
        structure, params = sample_random_dbn(cfg)
        ds = sample_trajectories(structure, params, 20, 10, seed=9)
        fam1 = parents_of(structure, 1)
        term1 = sc.bde_family_score(sc.count_transitions(ds, fam1))
        # changing node 2's family must leave node 1's term bit-identical
        other = family(2, Parent("inter", 0))
        sc.bde_family_score(sc.count_transitions(ds, other))
        assert sc.bde_family_score(sc.count_transitions(ds, fam1)) == term1

    def test_consistency_on_strong_edges(self):
        # N*T = 6000: a pointwise-strong edge can still be masked by the
        # remaining parents on occasional draws, hence the 9-of-10 bar
        hits = 0
        for seed in range(10):
            cfg = GeneratorConfig(
                n_x=3, model="cpt", seed=seed, sharpen=4.0,
                edge_probs=EdgeProbs(intra=0.3, inter=0.5, auto=0.3))
            structure, params = sample_random_dbn(cfg)
            ds = sample_trajectories(structure, params, 200, 30, seed=seed + 100)
            scorer = sc.FamilyScorer(ds, "bde")
            ok = True
            for node in range(3):
                fam = parents_of(structure, node)
                if not fam.parents:
                    continue
                full = scorer(node, fam.parents)
                for drop in _strong_parents(params[node], fam):
                    reduced = tuple(p for p in fam.parents if p != drop)
                    if scorer(node, reduced) >= full:
                        ok = False
            hits += ok
        assert hits >= 9


def _strong_parents(cpt, fam, effect=0.3):
    """Parents whose value flips the child distribution by >= effect somewhere."""
    arities = (2,) * len(fam.parents)
    strong = []
    for k, parent in enumerate(fam.parents):
        best = 0.0
        for cfg in range(cpt.table.shape[0]):
            digits = []
            rest = cfg
            for a in arities:
                digits.append(rest % a)
                rest //= a
            if digits[k] == 1:
                continue
            flipped = cfg + (2 ** k)
            best = max(best, abs(cpt.table[cfg, 1] - cpt.table[flipped, 1]))
        if best >= effect:
            strong.append(parent)
    return strong


class TestDirichletPosterior:
    def test_zero_counts_keep_prior(self):
        # with nothing counted, the posterior mean is the prior's own mean
        ds = discrete_dataset([[[0], [1]]], burn_in=1)
        counts = sc.count_transitions(ds, family(0))
        prior = sc.DirichletPrior(table=np.array([[0.7, 0.3]]))
        assert sc.mle_cpt(counts, smoothing=prior).table.tolist() == [[0.7, 0.3]]


class TestBgeFamilyScore:
    def test_empty_dataset_scores_zero(self):
        ds = continuous_dataset(np.zeros((2, 4, 1)), burn_in=3)
        hyper = sc.BgeHyper(alpha_w=3.0)
        assert sc.bge_family_score(ds, 0, family(0), hyper) == 0.0

    def test_row_permutation_bit_identical(self, rng):
        x = rng.normal(size=(6, 9, 2))
        ds = continuous_dataset(x)
        fam = family(0, Parent("inter", 1))
        base = sc.bge_family_score(ds, 0, fam)
        shuffled = continuous_dataset(x[rng.permutation(6)])
        assert sc.bge_family_score(shuffled, 0, fam) == base

    def test_degrees_of_freedom_guard(self):
        ds = continuous_dataset(np.random.default_rng(0).normal(size=(3, 5, 3)))
        hyper = sc.BgeHyper(alpha_w=2.0)
        with pytest.raises(ModelError):
            sc.bge_family_score(
                ds, 0, family(0, Parent("inter", 1), Parent("inter", 2)), hyper)

    def test_fit_monotone_in_noise(self):
        # the true family's score grows as generating noise shrinks
        for seed in range(5):
            scores = []
            for sigma in (1.0, 0.2):
                cfg = GeneratorConfig(
                    n_x=2, model="linear_gaussian", sigma=sigma, seed=seed,
                    edge_probs=EdgeProbs(inter=1.0))
                structure, params = sample_random_dbn(cfg)
                ds = sample_trajectories(structure, params, 40, 25, seed=seed + 50)
                fam = parents_of(structure, 0)
                if not fam.parents:
                    break
                scores.append(sc.bge_family_score(ds, 0, fam))
            if len(scores) == 2:
                assert scores[1] > scores[0]

    def test_discrete_dataset_rejected(self):
        ds = single_var_dataset([0, 1])
        with pytest.raises(DomainMismatchError):
            sc.bge_family_score(ds, 0, family(0))


class TestScoreCacheAndDump:
    def test_permuted_parents_hit_cache(self, rng):
        ds = discrete_dataset((rng.random((5, 8, 3)) < 0.5).astype(int))
        scorer = sc.FamilyScorer(ds, "bic")
        parents = [Parent("intra", 1), Parent("inter", 2), Parent("inter", 0)]
        first = scorer(0, parents)
        flipped = scorer(0, parents[::-1])
        assert first == flipped and len(scorer.scores) == 1
        assert list(scorer.scores) == [(0, canonical_parents(parents))]

    def test_distinct_nodes_never_collide(self, rng):
        ds = discrete_dataset((rng.random((5, 8, 2)) < 0.5).astype(int))
        scorer = sc.FamilyScorer(ds, "ll")
        scorer(0, [])
        scorer(1, [])
        assert len(scorer.scores) == 2

    def test_candidate_pool_entry_count(self, rng):
        # parent sets of size <= 2 from 5 inter + 4 intra candidates per node
        ds = discrete_dataset((rng.random((10, 20, 5)) < 0.5).astype(int))
        scorer = sc.FamilyScorer(ds, "bic")
        for node in range(5):
            cands = [Parent("inter", j) for j in range(5)] + \
                    [Parent("intra", j) for j in range(5) if j != node]
            for size in (0, 1, 2):
                for combo in itertools.combinations(cands, size):
                    scorer(node, list(combo))
        assert len(scorer.scores) == 5 * (1 + 9 + 36)

    def test_dump_format(self, rng):
        ds = discrete_dataset((rng.random((4, 6, 2)) < 0.5).astype(int))
        scorer = sc.FamilyScorer(ds, "BDe")
        scorer(1, [Parent("inter", 0)])
        scorer(0, [])
        dump = sc.dump_scores(scorer)
        lines = dump.strip().split("\n")
        assert lines == sorted(lines)
        assert lines[0].split("\t")[:3] == ["0", "-", "bde"]
        assert lines[1].split("\t")[:3] == ["1", "inter:0", "bde"]

    def test_unknown_kind_rejected(self, rng):
        ds = discrete_dataset((rng.random((4, 6, 2)) < 0.5).astype(int))
        with pytest.raises(ConfigError):
            sc.FamilyScorer(ds, "foo")

    def test_permuted_repeat_is_counted_once(self, rng, monkeypatch):
        # every discrete family is counted by _counted_scores, so wrapping it sees each one
        ds = discrete_dataset((rng.random((4, 6, 2)) < 0.5).astype(int))
        calls = []
        original = sc.FamilyScorer._counted_scores
        monkeypatch.setattr(sc.FamilyScorer, "_counted_scores",
                            lambda self, node, fams, check: calls.append((node, fams))
                            or original(self, node, fams, check))
        scorer = sc.FamilyScorer(ds, "bic")
        scorer(1, [Parent("intra", 0), Parent("inter", 1)])
        scorer(1, [Parent("inter", 1), Parent("intra", 0)])
        scorer.many(1, [(), (Parent("inter", 1), Parent("intra", 0)), ()])
        assert calls == [(1, [(Parent("inter", 1), Parent("intra", 0))]), (1, [()])]


COUNTED_KINDS = ("ll", "aic", "aicc", "bic", "bde")


@st.composite
def lattice_cases(draw):
    """A small discrete dataset and one node's exact-search lattice (auto lags up to 2)."""
    x, z, x_ar, z_ar = draw_discrete_arrays(draw)
    n_x, n_z = len(x_ar), len(z_ar)
    ds = discrete_dataset(x, z, x_arities=x_ar, z_arities=z_ar)
    node = draw(st.integers(0, n_x - 1))
    p = draw(st.integers(1, 2))
    caps = draw(st.lists(st.integers(0, 2), min_size=4, max_size=4))
    others = [j for j in range(n_x) if j != node]
    lattice = [inter + intra + auto + stat
               for intra in class_subsets([Parent("intra", j) for j in others], caps[0])
               for inter in class_subsets([Parent("inter", j) for j in range(n_x)], caps[1])
               for auto in class_subsets([Parent("auto", t) for t in range(1, p + 1)], caps[2])
               for stat in class_subsets([Parent("static", j) for j in range(n_z)], caps[3])]
    return ds, node, lattice


def per_family_scores(ds, node, lattice, kind, prior):
    """Scores of one count table per family, or the error type the first failing family raises."""
    try:
        return [discrete_family_score(ds, node, parents, kind, prior) for parents in lattice]
    except DataError:
        return DataError


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@st.composite
def count_blocks(draw):
    """A block of count tables of one shape, sparse enough to leave empty cells."""
    n_cfg, arity, n_fam = draw(st.integers(1, 100)), draw(st.integers(2, 3)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    counts = rng.integers(0, 9, size=(n_fam, n_cfg, arity)) * (rng.random((n_fam, n_cfg, arity)) < 0.6)
    return counts, draw(st.sampled_from([0.5, 1.0, 7.5]))


def written_out_bde(counts, ess):
    """The BDe sums over one (n_configs, arity) table, as written before the block form."""
    alpha = np.full(counts.shape, ess / counts.size)
    n = counts.astype(float)
    a_tot = alpha.sum(axis=1)
    return float(np.sum(gammaln(a_tot) - gammaln(a_tot + n.sum(axis=1)))
                 + np.sum(gammaln(alpha + n) - gammaln(alpha)))


def written_out_loglik(counts):
    c = counts.astype(float)
    totals = c.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(c > 0, c / np.maximum(totals, 1.0)[:, None], 1.0)
    return float(np.sum(c * np.log(ratio)))


class TestBlockFormulas:
    """The block BDe and log-likelihood against the per-table sums, bit for bit."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(count_blocks())
    def test_each_row_of_a_block_matches_the_table_sums(self, case):
        block, ess = case
        prior = sc.DirichletPrior(ess)
        want_bde = [written_out_bde(c, ess) for c in block]
        want_ll = [written_out_loglik(c) for c in block]
        assert bits(sc._bde_scores(block.astype(float), prior)) == bits(want_bde)
        assert bits(sc._loglik_scores(block.astype(float))) == bits(want_ll)
        fam = FamilySpec(0, (Parent("inter", 0),))
        tables = [sc.CountTable(0, fam, (block.shape[1],), block.shape[2], c) for c in block]
        assert bits([sc.bde_family_score(t, prior) for t in tables]) == bits(want_bde)


class TestBatchedScorer:
    """``FamilyScorer.many`` against one count table per family, bit for bit."""

    @staticmethod
    def check_lattice(ds, node, lattice, prior):
        for kind in COUNTED_KINDS:
            want = per_family_scores(ds, node, lattice, kind, prior)
            scorer = sc.FamilyScorer(ds, kind, prior=prior)
            if want is DataError:  # AICc with n_eff <= k + 2
                with pytest.raises(DataError):
                    scorer.many(node, lattice)
                continue
            got = scorer.many(node, lattice)
            assert got.dtype == np.float64 and bits(got) == bits(want)
            one_by_one = sc.FamilyScorer(ds, kind, prior=prior)
            for parents in lattice:
                one_by_one(node, parents)
            assert sc.dump_scores(scorer) == sc.dump_scores(one_by_one)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(lattice_cases(), st.sampled_from([None, 0.5, 2.0, 7.5]))
    def test_matches_per_family_scores(self, case, ess):
        ds, node, lattice = case
        prior = None if ess is None else sc.DirichletPrior(ess)
        self.check_lattice(ds, node, lattice, prior)
        if ds.T >= 3:
            for side in temporal_split(ds):  # the test side carries a burn-in
                self.check_lattice(side, node, lattice, prior)

    def test_cached_families_are_kept_and_repeats_share_one_entry(self, rng):
        ds = discrete_dataset(rng.integers(0, 2, size=(4, 9, 3)))
        scorer = sc.FamilyScorer(ds, "bde")
        first = scorer(1, (Parent("inter", 0),))
        scorer.scores[(1, (Parent("inter", 0),))] = 123.0  # a hit is not rescored
        got = scorer.many(1, [(), (Parent("inter", 0),), (), (Parent("intra", 2),)])
        assert first != 123.0 and got[1] == 123.0 and got[0] == got[2]
        assert len(scorer.scores) == 3

    def test_non_canonical_or_repeated_parents_rejected(self, rng):
        ds = discrete_dataset(rng.integers(0, 2, size=(2, 5, 3)))
        scorer = sc.FamilyScorer(ds, "bic")
        for bad in ((Parent("intra", 1), Parent("inter", 2)),
                    (Parent("inter", 2), Parent("inter", 2)),
                    (Parent("static", 0),), (Parent("inter", 3),)):
            with pytest.raises(ModelError):
                scorer.many(0, [bad])

    @pytest.mark.parametrize("bad", [Parent("foo", 1), Parent("inter", 5), Parent("auto", 0),
                                     Parent("intra", 0)],
                             ids=["unknown-kind", "out-of-range", "auto-lag-0", "intra-self"])
    @pytest.mark.parametrize("entry", [
        lambda ds, kind, bad: sc.family_score(ds, 0, (bad,), kind),
        lambda ds, kind, bad: sc.FamilyScorer(ds, kind)(0, (bad,)),
        lambda ds, kind, bad: sc.FamilyScorer(ds, kind).many(0, [(bad,)]),
    ], ids=["family_score", "scorer", "many"])
    @pytest.mark.parametrize("domain", ["discrete", "continuous"])
    def test_invalid_parents_raise_model_errors(self, rng, bad, entry, domain):
        x = rng.integers(0, 2, size=(3, 6, 2))
        ds = discrete_dataset(x) if domain == "discrete" else continuous_dataset(x)
        for kind in ("bic", "bde" if domain == "discrete" else "bge"):
            with pytest.raises(ModelError):
                entry(ds, kind, bad)
            # the child's own previous value is a valid inter parent
            assert np.all(np.isfinite(entry(ds, kind, Parent("inter", 0))))

    def test_continuous_kinds_score_one_family_at_a_time(self, rng):
        ds = continuous_dataset(rng.normal(size=(3, 12, 2)))
        lattice = [(), (Parent("inter", 1),), (Parent("intra", 1), Parent("auto", 1))]
        fams = [FamilySpec(0, parents) for parents in lattice]
        want = {"bge": [sc.bge_family_score(ds, 0, fam) for fam in fams],
                "bic": [-sc.information_criterion(sc.fit_linear_gaussian(ds, 0, fam)[1],
                                                  len(fam.parents) + 2,
                                                  ds.usable_transitions(fam), "bic")
                        for fam in fams]}
        for kind in ("bge", "bic"):
            assert bits(sc.FamilyScorer(ds, kind).many(0, lattice)) == bits(want[kind])
            assert bits([sc.family_score(ds, 0, parents, kind) for parents in lattice]) \
                == bits(want[kind])

    @pytest.mark.parametrize("kind", ["bde", "bge"])
    def test_nothing_to_score(self, rng, kind):
        x = rng.integers(0, 2, size=(3, 6, 2))
        ds = discrete_dataset(x) if kind == "bde" else continuous_dataset(x)
        scorer = sc.FamilyScorer(ds, kind)
        assert scorer.many(0, []).shape == (0,)
        first = scorer(0, ())
        assert scorer.many(0, [(), ()]).tolist() == [first, first]

    def test_domain_mismatch_raises(self, rng):
        x = rng.integers(0, 2, size=(3, 6, 2))
        with pytest.raises(DomainMismatchError):
            sc.family_score(continuous_dataset(x), 0, (), "bde")
        with pytest.raises(DomainMismatchError):
            sc.family_score(discrete_dataset(x), 0, (), "bge")

    def test_one_family_compresses_only_its_columns(self, rng, monkeypatch):
        ds = discrete_dataset(rng.integers(0, 2, size=(4, 9, 5)), rng.integers(0, 2, size=(4, 2)))
        compressed = []
        original = TrajectoryDataset.distinct_rows
        monkeypatch.setattr(TrajectoryDataset, "distinct_rows",
                            lambda self, keys: compressed.append(sorted(keys, key=str))
                            or original(self, keys))
        parents = (Parent("inter", 3), Parent("intra", 1), Parent("auto", 2), Parent("static", 1))
        scorer = sc.FamilyScorer(ds, "bic")
        scorer(0, parents)
        fam = FamilySpec(0, parents)
        assert compressed == [sorted(ds.family_keys(fam), key=str)]
        assert len(compressed[0]) == len(parents) + 1
        scorer(0, parents[:2])  # first target time 1: compressed on its own
        scorer(0, parents[2:])  # first target time 2: read from the kept compression
        assert len(compressed) == 2

    def test_check_runs_before_every_counting_step(self, rng, monkeypatch):
        ds = discrete_dataset(rng.integers(0, 2, size=(5, 40, 4)))
        lattice = [(), (Parent("inter", 1),), (Parent("inter", 2),), (Parent("intra", 3),)]
        calls = []
        monkeypatch.setattr(sc, "_BATCH_ELEMENTS", 1)  # one family per step
        sc.FamilyScorer(ds, "bde").many(0, lattice, lambda: calls.append(1))
        assert len(calls) == len(lattice)


class TestDecomposability:
    def test_total_equals_family_sum_across_kinds(self, rng):
        dcfg = GeneratorConfig(n_x=3, model="cpt", seed=2,
                               edge_probs=EdgeProbs(intra=0.4, inter=0.4))
        ds_d = sample_trajectories(*sample_random_dbn(dcfg), 15, 12, seed=3)
        ccfg = GeneratorConfig(n_x=3, model="linear_gaussian", seed=2,
                               edge_probs=EdgeProbs(intra=0.4, inter=0.4))
        ds_c = sample_trajectories(*sample_random_dbn(ccfg), 15, 12, seed=3)
        for ds, kinds in ((ds_d, ("ll", "aic", "bic", "bde")),
                          (ds_c, ("ll", "bic", "bge"))):
            for kind in kinds:
                scorer = sc.FamilyScorer(ds, kind)
                for trial in range(5):
                    structure = _random_structure(rng, 3)
                    total = scorer.structure_score(structure)
                    parts = sum(scorer(i, parents_of(structure, i).parents)
                                for i in range(3))
                    assert total == parts


def _random_structure(rng, n):
    while True:
        intra = rng.random((n, n)) < 0.3
        np.fill_diagonal(intra, False)
        from dbnlearn.core import is_acyclic
        if is_acyclic(intra):
            break
    inter = rng.random((n, n)) < 0.3
    np.fill_diagonal(inter, False)
    auto = tuple((1,) if rng.random() < 0.4 else () for _ in range(n))
    return DbnStructure(n_x=n, n_z=0, p=1, intra=intra, inter=inter,
                        auto_lags=auto, static_edges=np.zeros((0, n), dtype=bool))
