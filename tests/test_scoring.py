import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats
from scipy.special import gammaln

import dbnlearn.scoring as sc
from dbnlearn.core import (
    ConfigError, Cpt, DataError, DbnStructure, DomainMismatchError, FamilySpec, ModelError,
    ParameterSet, Parent, SizeGuardError, TrajectoryDataset, UnderdeterminedError,
    canonical_parents, configuration_index, parents_of, structure_from_families,
)
from dbnlearn.evaluate import temporal_split
from dbnlearn.simulate import EdgeProbs, GeneratorConfig, sample_random_dbn, sample_trajectories

from conftest import continuous_dataset, discrete_dataset
from oracle_utils import (
    cached_families, class_subsets, discrete_family_score, raw_family_rows, row_gaussian_loglik,
    row_least_squares,
)


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

    def test_family_of_two_to_the_31_cells_rejected(self):
        ds = discrete_dataset(np.zeros((1, 3, 30), dtype=int))
        parents = [Parent("inter", j) for j in range(30)]  # binary child: 2 * 2**30 cells
        with pytest.raises(SizeGuardError):
            sc.count_transitions(ds, family(0, *parents))
        with pytest.raises(SizeGuardError):
            sc.family_score(ds, 0, parents, "bic")
        assert ds._rows == {}  # refused before any compression

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


class TestColumnBank:
    """Counts read from the column bank against a row-by-row tally."""

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
    def test_bank_matrix_rows_are_family_columns(self, case, later):
        ds, fam = case
        t0 = ds.first_usable_t(fam) + later
        rows = ds.bank_matrix(t0, [key[1:] for key in ds.family_keys(fam, t0)])
        assert np.array_equal(rows, raw_family_rows(ds, fam, t0)) and rows.flags.c_contiguous

    def test_columns_are_memoised_read_only_and_contiguous(self):
        ds = discrete_dataset(np.arange(24).reshape(2, 4, 3) % 2, z=[[0], [1]])
        fam = family(0, Parent("inter", 1), Parent("intra", 2), Parent("auto", 2), Parent("static", 0))
        cols = [ds._column(*key) for key in ds.family_keys(fam)]
        again = [ds._column(*key) for key in ds.family_keys(fam)]
        assert all(a is b for a, b in zip(again, cols))
        for col in cols:
            assert col.shape == (ds.N * (ds.T - 1),)
            assert col.flags.c_contiguous and not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = 1
        assert [f.name for f in dataclasses.fields(ds)] == ["domain", "x", "z", "burn_in"]
        assert "_bank" not in repr(ds)

    def test_target_time_before_the_lags_rejected(self):
        ds = discrete_dataset(np.zeros((1, 5, 1), dtype=int))
        with pytest.raises(DataError):
            ds.family_keys(family(0, Parent("auto", 2)), 1)


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


def bank_rows(ds, t0, sources):
    """Multiset of the rows ``(value of each (lag, j) source)`` over targets ``t0..T``, from x and z."""
    return Counter(tuple(int(ds.z[n, j]) if lag is None else int(ds.x[n, t - lag, j])
                         for lag, j in sources)
                   for n in range(ds.N) for t in range(t0, ds.T + 1))


def check_row_bank(ds, t0, sources):
    by_id = {ds.column_id(lag, j): (lag, j) for lag, j in sources}
    columns = np.array(sorted(by_id))
    ids, distinct, weights = ds.distinct_rows(t0, columns)
    assert ids.tolist() == columns.tolist()
    assert distinct.dtype == np.int32 and distinct.shape == (columns.size, weights.size)
    got = Counter(dict(zip(map(tuple, distinct.T.tolist()), weights.tolist())))
    assert len(got) == weights.size  # every row once
    assert got == bank_rows(ds, t0, [by_id[c] for c in columns.tolist()])


@st.composite
def row_bank_cases(draw):
    """A small discrete dataset, a first target time (past T: no rows) and some of its columns."""
    x, z, x_ar, z_ar = draw_discrete_arrays(draw)
    ds = discrete_dataset(x, z, x_arities=x_ar, z_arities=z_ar)
    t0 = draw(st.integers(1, ds.T + 2))
    sources = [(lag, j) for lag in range(min(t0, 3) + 1) for j in range(ds.n_x)]
    sources += [(None, j) for j in range(ds.n_z)]
    return ds, t0, draw(st.lists(st.sampled_from(sources), min_size=1, unique=True))


class TestRowBank:
    """Distinct rows and multiplicities of the row bank against a multiset of raw rows."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(row_bank_cases())
    def test_matches_raw_rows(self, case):
        check_row_bank(*case)

    @pytest.mark.parametrize("shape, key_space", [
        ((5, 21, 1), "dense"),  # 2**3 keys against 100 rows
        ((2, 7, 10), "sparse"),  # 2**21 keys against 12 rows
        ((4, 12, 40), "re-ranked"),  # 2**81 keys: the leading digits would leave an int64
    ])
    def test_key_spaces(self, shape, key_space):
        rng = np.random.default_rng(7)
        x = rng.integers(0, 2, size=shape)
        x[:, :, 4:] = 0  # rows differ in the leading columns only
        ds = discrete_dataset(x, rng.integers(0, 2, size=(shape[0], 1)))
        sources = [(None, 0)] + [(lag, j) for lag in (0, 1) for j in range(ds.n_x)]
        space, rows = 2 ** len(sources), ds.N * ds.T
        assert {"dense": space <= rows, "sparse": rows < space <= 1 << 62,
                "re-ranked": space > 1 << 62}[key_space]
        check_row_bank(ds, 1, sources)
        for v in range(ds.n_x):  # one-family counts read the kept rows
            fam = family(v, Parent("inter", (v + 1) % ds.n_x), Parent("static", 0))
            assert sc.count_transitions(ds, fam).counts.tolist() == tally_counts(
                ds.x, ds.z, ds.domain.x_arities, ds.domain.z_arities, v, fam.parents, 1).tolist()
        assert len(ds._rows[1]) == 1

    def test_covered_requests_reuse_and_wider_ones_replace(self, rng):
        ds = discrete_dataset(rng.integers(0, 2, size=(3, 8, 4)), rng.integers(0, 2, size=(3, 1)))

        def kept(t0):
            return [sorted(entry[0]) for entry in ds._rows.get(t0, [])]

        first = ds.distinct_rows(1, np.array([0, 2]))
        again = ds.distinct_rows(1, np.array([2]))  # covered: the kept entry itself
        assert len(again) == 3 and all(a is b for a, b in zip(again, first))
        ds.distinct_rows(1, np.array([2, 3]))  # overlaps, covers nothing: kept beside
        assert kept(1) == [[0, 2], [2, 3]]
        before = ds._rows[1]
        wide = ds.distinct_rows(1, np.array([0, 2, 3, 5]))  # covers both: replaces them
        assert kept(1) == [[0, 2, 3, 5]] and len(before) == 2  # a new list, the old one intact
        assert all(a is b for a, b in zip(ds.distinct_rows(1, np.array([0, 5])), wide))
        ds.distinct_rows(2, np.array([0, 2]))  # another first target time is kept apart
        assert kept(1) == [[0, 2, 3, 5]] and kept(2) == [[0, 2]]


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


@st.composite
def fit_cases(draw):
    """A continuous family (lags up to 3, static covariates, a burn-in) with at least ``2d + 2`` rows.

    No two parents read one column (self lags are auto lags only), and
    static parents stay fewer than the trajectories: else the parents and
    the intercept are collinear, a singular fit.  Centred moments lose
    precision when means are large relative to spread, so these data keep
    the two of one order.
    """
    n_x, n_z = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    n_traj, burn_in = draw(st.integers(n_z + 1, 4)), draw(st.integers(0, 3))
    horizon = draw(st.integers(burn_in + 14, 30))
    node = draw(st.integers(0, n_x - 1))
    flags = st.lists(st.booleans(), min_size=n_x, max_size=n_x)
    parents = [Parent("inter", j) for j, on in enumerate(draw(flags)) if on and j != node]
    parents += [Parent("intra", j) for j, on in enumerate(draw(flags)) if on and j != node]
    parents += [Parent("auto", tau) for tau in draw(st.sets(st.integers(1, 3), max_size=2))]
    parents += [Parent("static", j) for j in draw(st.sets(st.integers(0, max(n_z - 1, 0)), max_size=n_z))]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    x = (rng.normal(size=(n_traj, horizon + 1, n_x)) + rng.normal(size=n_x)) * scale
    z = (rng.normal(size=(n_traj, n_z)) + rng.normal(size=n_z)) * scale
    return (continuous_dataset(x, z, burn_in=burn_in),
            FamilySpec(node=node, parents=canonical_parents(parents)))


class TestMomentFit:
    """The fit, its scores and the likelihood of given kernels, from moments, against raw rows."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(fit_cases())
    def test_fit_and_scores_match_row_least_squares(self, case):
        ds, fam = case
        model, loglik = sc.fit_linear_gaussian(ds, fam.node, fam)
        beta0, beta, rss, m = row_least_squares(ds, fam)
        rel = 1e-9
        coef, want = np.concatenate(([model.beta0], model.beta)), np.concatenate(([beta0], beta))
        assert np.linalg.norm(coef - want) <= rel * np.linalg.norm(want)
        assert model.sigma2 == pytest.approx(rss / m, rel=rel)
        want_ll = -0.5 * m * math.log(2.0 * math.pi * rss / m) - 0.5 * m
        assert loglik == pytest.approx(want_ll, rel=rel)
        for kind in ("ll", "aic", "bic"):
            want_score = want_ll if kind == "ll" else -sc.information_criterion(
                want_ll, len(fam.parents) + 2, m, kind)
            assert sc.family_score(ds, fam.node, fam.parents, kind) == pytest.approx(want_score, rel=rel)
        structure = structure_of_family(ds, fam)
        params = ParameterSet(tuple(model if i == fam.node else sc.fit_linear_gaussian(
            ds, i, parents_of(structure, i))[0] for i in range(ds.n_x)))
        assert sc.loglik_gaussian(ds, structure, params) == \
            pytest.approx(row_gaussian_loglik(ds, structure, params), rel=rel)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(fit_cases(), st.integers(0, 2 ** 32 - 1))
    def test_trajectory_permutation_bit_identical(self, case, seed):
        ds, fam = case
        perm = np.random.default_rng(seed).permutation(ds.N)
        shuffled = continuous_dataset(ds.x[perm], ds.z[perm], burn_in=ds.burn_in)
        structure = structure_of_family(ds, fam)

        def bits(data):
            model, loglik = sc.fit_linear_gaussian(data, fam.node, fam)
            params = sc.fit_structure_params(data, structure, None)
            return (np.concatenate(([model.beta0, model.sigma2, loglik], model.beta)).tobytes(),
                    [(p.beta0, p.sigma2, p.beta.tobytes()) for p in params.families],
                    repr(sc.loglik_gaussian(data, structure, params)))

        assert bits(shuffled) == bits(ds)


def structure_of_family(ds, fam):
    """Structure over ``ds`` whose node ``fam.node`` has the parents of ``fam`` and no other edges."""
    lags = [par.index for par in fam.parents if par.kind == "auto"]
    return structure_from_families(ds.n_x, ds.n_z, max(lags, default=1),
                                   [fam.parents if i == fam.node else () for i in range(ds.n_x)])


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

    @pytest.mark.parametrize("parents", [
        (Parent("inter", 2),),  # constant: a twin of the intercept
        (Parent("inter", 0), Parent("inter", 1)),  # 0.5 x0 + 1, affine in the one before it
        (Parent("static", 0),),  # one trajectory: constant
    ], ids=["constant", "affine", "static-of-one-trajectory"])
    def test_parent_affine_in_earlier_ones_raises_data_error(self, rng, parents):
        x = rng.normal(size=(1, 30, 3))
        x[..., 1], x[..., 2] = 0.5 * x[..., 0] + 1.0, 3.0
        ds = continuous_dataset(x, z=[[2.0]])
        with pytest.raises(DataError, match="is singular"):
            sc.fit_linear_gaussian(ds, 0, family(0, *parents))

    def test_exact_fit_floors_sigma2_at_the_child_scale(self, rng):
        x = rng.normal(size=(2, 25, 2))
        x[:, 1:, 1] = 3.0 * x[:, :-1, 0] - 2.0  # node 1 is exact on inter 0
        ds = continuous_dataset(x)
        fam = family(1, Parent("inter", 0))
        m = ds.usable_transitions(fam)
        child = ds.family_keys(fam)[0]
        floor = np.finfo(float).eps * ds.column_sum(child, child) / m
        model, loglik = sc.fit_linear_gaussian(ds, 1, fam)
        assert model.sigma2 == floor
        assert loglik == -0.5 * m * (math.log(2.0 * math.pi * floor) + 1.0)
        _, more = sc.fit_linear_gaussian(ds, 1, family(1, Parent("inter", 0), Parent("auto", 1)))
        assert more == loglik  # every exact fit of one child scores the same
        assert sc.family_score(ds, 1, (Parent("inter", 0),), "bic") > \
            sc.family_score(ds, 1, (Parent("inter", 0), Parent("auto", 1)), "bic")

    def test_all_zero_child_raises_data_error(self, rng):
        x = rng.normal(size=(2, 10, 2))
        x[:, 1:, 0] = 0.0  # zero at every target time, not at t = 0
        ds = continuous_dataset(x)
        for parents in ((), (Parent("inter", 1),)):
            with pytest.raises(DataError, match="zero in every usable transition"):
                sc.fit_linear_gaussian(ds, 0, family(0, *parents))

    def test_constant_child_scores_as_any_exact_fit(self):
        x = np.random.default_rng(0).standard_normal((20, 30, 4))
        x[..., 2] = 3.0
        ds = continuous_dataset(x)
        alone = sc.family_score(ds, 2, (), "ll")
        assert alone == sc.family_score(ds, 2, (Parent("inter", 0),), "ll")
        m = ds.usable_transitions(family(2))
        assert alone == -0.5 * m * (math.log(2.0 * math.pi * np.finfo(float).eps * 9.0) + 1.0)


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
        assert cached_families(scorer) == [(0, canonical_parents(parents))]

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
        # every family is scored by _scores, so wrapping it sees each one
        ds = discrete_dataset((rng.random((4, 6, 2)) < 0.5).astype(int))
        calls = []
        original = sc.FamilyScorer._scores
        monkeypatch.setattr(sc.FamilyScorer, "_scores",
                            lambda self, node, rows, check: calls.append(
                                (node, [self.parents(row) for row in rows]))
                            or original(self, node, rows, check))
        scorer = sc.FamilyScorer(ds, "bic")
        scorer(1, [Parent("intra", 0), Parent("inter", 1)])
        scorer(1, [Parent("inter", 1), Parent("intra", 0)])
        scorer.many(1, [(), (Parent("inter", 1), Parent("intra", 0)), ()])
        assert calls == [(1, [(Parent("inter", 1), Parent("intra", 0))]), (1, [()])]


COUNTED_KINDS = ("ll", "aic", "aicc", "bic", "bde")


@st.composite
def lattice_classes(draw):
    """A small discrete dataset, one node, and the intra, inter, auto (lags up to 2, at most
    T: a longer lag is refused, see TestLagPastTheHorizon) and static subsets of its
    exact-search lattice."""
    x, z, x_ar, z_ar = draw_discrete_arrays(draw)
    n_x, n_z = len(x_ar), len(z_ar)
    ds = discrete_dataset(x, z, x_arities=x_ar, z_arities=z_ar)
    node = draw(st.integers(0, n_x - 1))
    p = draw(st.integers(1, min(2, ds.T)))
    caps = draw(st.lists(st.integers(0, 2), min_size=4, max_size=4))
    others = [j for j in range(n_x) if j != node]
    return ds, node, (class_subsets([Parent("intra", j) for j in others], caps[0]),
                      class_subsets([Parent("inter", j) for j in range(n_x)], caps[1]),
                      class_subsets([Parent("auto", t) for t in range(1, p + 1)], caps[2]),
                      class_subsets([Parent("static", j) for j in range(n_z)], caps[3]))


def lattice_rows(scorer, node, classes):
    """A lattice's class subsets as rows over the scorer's candidate table."""
    return [scorer.rows(node, subsets) for subsets in classes]


def joined(intra, inter, auto, static):
    return [b + a + c + d for a in intra for b in inter for c in auto for d in static]


@st.composite
def lattice_cases(draw):
    """A small discrete dataset and one node's exact-search lattice (auto lags up to 2)."""
    ds, node, classes = draw(lattice_classes())
    return ds, node, joined(*classes)


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

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(lattice_classes(), st.sampled_from([None, 0.5, 7.5]))
    def test_lattice_matches_per_family_scores(self, case, ess):
        # every family's table summed out of its completion's: the values of one lattice call
        # against one count table per family and against many; the lattice caches nothing
        ds, node, classes = case
        prior = None if ess is None else sc.DirichletPrior(ess)
        lattice = joined(*classes)
        for side in [ds, *(temporal_split(ds) if ds.T >= 3 else ())]:
            for kind in COUNTED_KINDS:
                want = per_family_scores(side, node, lattice, kind, prior)
                scorer = sc.FamilyScorer(side, kind, prior=prior)
                if want is DataError:
                    with pytest.raises(DataError):
                        scorer.lattice(node, lattice_rows(scorer, node, classes))
                    continue
                got = scorer.lattice(node, lattice_rows(scorer, node, classes))
                assert got.shape == tuple(map(len, classes))
                assert bits(got.reshape(-1)) == bits(want)
                assert scorer.scores == {}
                batched = sc.FamilyScorer(side, kind, prior=prior)
                assert bits(batched.many(node, lattice)) == bits(want)
                assert 0 < scorer.counted <= batched.counted == len(lattice)

    def test_lattice_in_the_smallest_steps_matches_many(self, rng, monkeypatch):
        # one completion per table and per counting step, one family per scoring step
        ds = discrete_dataset(rng.integers(0, 3, size=(6, 10, 3)), rng.integers(0, 2, size=(6, 1)),
                              x_arities=(3, 3, 3))
        classes = (class_subsets([Parent("intra", 1), Parent("intra", 2)], 1),
                   class_subsets([Parent("inter", 1)], 1),
                   class_subsets([Parent("auto", 1), Parent("auto", 2)], 2),
                   class_subsets([Parent("static", 0)], 1))
        monkeypatch.setattr(sc, "_TABLE_ELEMENTS", 1)
        monkeypatch.setattr(sc, "_BATCH_ELEMENTS", 1)
        calls = []
        for kind in ("bde", "bic"):
            scorer = sc.FamilyScorer(ds, kind)
            got = scorer.lattice(0, lattice_rows(scorer, 0, classes), lambda: calls.append(1))
            assert bits(got.reshape(-1)) == bits(sc.FamilyScorer(ds, kind).many(0, joined(*classes)))
            assert len(calls) == scorer.counted == 4  # intra 1 or 2, auto (1) or (1, 2)
            calls.clear()

    @pytest.mark.parametrize("kind", ["bge", "ll", "aic", "bic"])
    def test_continuous_lattice_matches_many(self, rng, kind):
        # statics, auto lags up to 2 under a cap of 2, and the burn-in side of a split
        ds = continuous_dataset(rng.normal(size=(6, 12, 3)), rng.normal(size=(6, 2)))
        classes = (class_subsets([Parent("intra", 0), Parent("intra", 2)], 2),
                   class_subsets([Parent("inter", 0), Parent("inter", 2)], 1),
                   class_subsets([Parent("auto", 1), Parent("auto", 2)], 2),
                   class_subsets([Parent("static", 0), Parent("static", 1)], 2))
        for side in (ds, *temporal_split(ds)):
            calls = []
            scorer = sc.FamilyScorer(side, kind)
            got = scorer.lattice(1, lattice_rows(scorer, 1, classes), lambda: calls.append(1))
            assert got.shape == tuple(map(len, classes)) and scorer.scores == {}
            one_by_one = sc.FamilyScorer(side, kind)
            want = [one_by_one.many(1, [parents])[0] for parents in joined(*classes)]
            assert bits(got.reshape(-1)) == bits(want)
            assert len(calls) == got.size  # one check per family

    def test_cached_families_are_kept_and_repeats_share_one_entry(self, rng):
        ds = discrete_dataset(rng.integers(0, 2, size=(4, 9, 3)))
        scorer = sc.FamilyScorer(ds, "bde")
        first = scorer(1, (Parent("inter", 0),))
        (key,) = scorer.scores
        assert key == (1, scorer.rows(1, [(Parent("inter", 0),)])[0].tobytes())
        scorer.scores[key] = 123.0  # a hit is not rescored
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

    def test_rows_off_the_table_are_refused(self, rng):
        ds = discrete_dataset(rng.integers(0, 2, size=(2, 5, 3)))
        scorer = sc.FamilyScorer(ds, "bic")
        own = np.zeros((1, len(scorer.candidates)), dtype=bool)
        own[0, scorer.columns["intra"][0]] = True  # node 0 as its own intra parent
        for node, bad in ((0, own), (1, own.astype(int)), (1, own[:, :-1]), (3, own & False)):
            with pytest.raises(ModelError):
                scorer.many(node, bad)
        with pytest.raises(ModelError, match="node -1 is not in the data"):
            scorer(-1, ())
        assert np.isfinite(scorer.many(1, own)).all() and len(scorer.scores) == 1

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
        original = TrajectoryDataset._compress
        monkeypatch.setattr(TrajectoryDataset, "_compress",
                            lambda self, t0, columns: compressed.append((t0, columns.tolist()))
                            or original(self, t0, columns))
        parents = (Parent("inter", 3), Parent("intra", 1), Parent("auto", 2), Parent("static", 1))
        scorer = sc.FamilyScorer(ds, "bic")
        scorer(0, parents)
        keys = ds.family_keys(FamilySpec(0, parents))
        assert compressed == [(2, sorted(ds.column_id(lag, j) for _, lag, j in keys))]
        assert len(compressed[0][1]) == len(parents) + 1
        scorer(0, parents[:2])  # first target time 1: compressed on its own
        scorer(0, parents[2:])  # first target time 2: read from the kept compression
        assert len(compressed) == 2
        # the compressions belong to the dataset: other scorers and the refit's counts reuse them
        sc.FamilyScorer(ds, "bde")(0, parents)
        sc.count_transitions(ds, FamilySpec(0, parents[:2]))
        sc.count_transitions(ds, FamilySpec(0, parents[2:]))
        assert len(compressed) == 2

    def test_check_runs_before_every_counting_step(self, rng, monkeypatch):
        ds = discrete_dataset(rng.integers(0, 2, size=(5, 40, 4)))
        lattice = [(), (Parent("inter", 1),), (Parent("inter", 2),), (Parent("intra", 3),)]
        calls = []
        monkeypatch.setattr(sc, "_BATCH_ELEMENTS", 1)  # one family per step
        sc.FamilyScorer(ds, "bde").many(0, lattice, lambda: calls.append(1))
        assert len(calls) == len(lattice)


class TestCandidateTable:
    """One canonical candidate table per dataset: the order every family row is written in."""

    def test_table_order_is_the_canonical_order(self):
        rng = np.random.default_rng(26)
        for _ in range(40):
            n_x, horizon, n_z = (int(v) for v in rng.integers((1, 1, 0), (5, 7, 3)))
            ds = discrete_dataset(rng.integers(0, 2, (2, horizon + 1, n_x)),
                                  rng.integers(0, 2, (2, n_z)))
            scorer = sc.FamilyScorer(ds, "bic")
            assert len(scorer.candidates) == 2 * n_x + horizon + n_z
            assert scorer.candidates == canonical_parents(scorer.candidates)
            assert {par.kind for par in scorer.candidates} <= {"inter", "intra", "auto", "static"}
            assert [par.index for par in scorer.candidates if par.kind == "auto"] == \
                list(range(1, horizon + 1))
            for kind, columns in scorer.columns.items():
                assert [scorer.candidates[c] for c in columns] == \
                    [par for par in scorer.candidates if par.kind == kind]
            # a random family goes in as a tuple and comes out as the same canonical tuple
            node = int(rng.integers(n_x))
            allowed = [par for par in scorer.candidates if par != Parent("intra", node)]
            parents = canonical_parents(par for par in allowed if rng.random() < 0.3)
            row = scorer.rows(node, [parents])[0]
            assert scorer.parents(row) == parents and row.sum() == len(parents)


class TestLagPastTheHorizon:
    """An auto lag past the horizon T leaves no transition: every score kind refuses it with
    the learners' DataError, and lag T itself still scores."""

    @pytest.mark.parametrize("domain", ["discrete", "continuous"])
    def test_every_kind_raises(self, domain):
        rng = np.random.default_rng(3)
        if domain == "discrete":
            ds, kinds = discrete_dataset(rng.integers(0, 2, (6, 3, 2))), COUNTED_KINDS
        else:
            ds, kinds = continuous_dataset(rng.normal(size=(6, 3, 2))), ("ll", "aic", "aicc", "bic", "bge")
        assert ds.T == 2
        past = "horizon T=2 too short for max lag 3"
        for kind in kinds:
            for entry in (lambda parents: sc.family_score(ds, 0, parents, kind),
                          lambda parents: sc.FamilyScorer(ds, kind)(0, parents),
                          lambda parents: sc.FamilyScorer(ds, kind).many(0, [parents])[0]):
                with pytest.raises(DataError, match=past):
                    entry((Parent("auto", 3),))
                with pytest.raises(DataError, match=past):
                    entry((Parent("inter", 1), Parent("auto", 3)))
                assert math.isfinite(entry((Parent("auto", 2),)))


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
