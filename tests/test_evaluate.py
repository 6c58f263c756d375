import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from dbnlearn.core import (
    Cpt, DbnStructure, DimensionError, LinearGaussian, ParameterSet, SplitError, parents_of,
)
from dbnlearn.evaluate import (
    BenchmarkResult, EdgeUniverse, EvalReport, _average_ranks, auroc, holdout_loglik,
    run_benchmark, shd, temporal_split,
)
from dbnlearn.learn import LearnerReport
from dbnlearn.simulate import (
    EdgeProbs, GeneratorConfig, RegimeSpec, sample_random_dbn, sample_trajectories,
)

from conftest import discrete_dataset
from oracle_utils import row_gaussian_loglik, row_least_squares


def structure_with(n=3, n_z=0, p=1, intra=(), inter=(), auto=(), static=()):
    intra_m = np.zeros((n, n), dtype=bool)
    inter_m = np.zeros((n, n), dtype=bool)
    static_m = np.zeros((n_z, n), dtype=bool)
    for j, i in intra:
        intra_m[j, i] = True
    for j, i in inter:
        inter_m[j, i] = True
    for j, i in static:
        static_m[j, i] = True
    lags = [() for _ in range(n)]
    for i, tau in auto:
        lags[i] = tuple(sorted(lags[i] + (tau,)))
    return DbnStructure(n_x=n, n_z=n_z, p=p, intra=intra_m, inter=inter_m,
                        auto_lags=tuple(lags), static_edges=static_m)


class TestShd:
    def test_identical_structures(self):
        s = structure_with(intra=[(0, 1)], inter=[(2, 0)], auto=[(1, 1)])
        assert shd(s, s) == 0

    def test_one_extra_edge(self):
        truth = structure_with(intra=[(0, 1)])
        pred = structure_with(intra=[(0, 1)], inter=[(2, 0)])
        assert shd(pred, truth) == 1

    def test_reversed_intra_edge_costs_two(self):
        truth = structure_with(intra=[(0, 1)])
        pred = structure_with(intra=[(1, 0)])
        assert shd(pred, truth) == 2

    def test_reversal_cost_switch(self):
        truth = structure_with(intra=[(0, 1)])
        pred = structure_with(intra=[(1, 0)])
        assert shd(pred, truth, reversal_cost_one=True) == 1

    def test_representation_independent_self_dependence(self):
        spelled_inter = DbnStructure(
            n_x=2, n_z=0, p=1, intra=np.zeros((2, 2), dtype=bool),
            inter=np.array([[True, False], [False, False]]), auto_lags=((), ()),
            static_edges=np.zeros((0, 2), dtype=bool))
        spelled_auto = structure_with(n=2, auto=[(0, 1)])
        assert shd(spelled_inter, spelled_auto) == 0

    def test_metric_axioms_on_random_structures(self, rng):
        def random_structure():
            while True:
                try:
                    return structure_with(
                        intra=[(j, i) for j in range(3) for i in range(3)
                               if j != i and rng.random() < 0.25],
                        inter=[(j, i) for j in range(3) for i in range(3)
                               if j != i and rng.random() < 0.25],
                        auto=[(i, 1) for i in range(3) if rng.random() < 0.3])
                except Exception:
                    continue
        for _ in range(30):
            a, b, c = random_structure(), random_structure(), random_structure()
            assert shd(a, b) == shd(b, a)
            assert (shd(a, b) == 0) == (a == b)
            assert shd(a, c) <= shd(a, b) + shd(b, c)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            shd(structure_with(n=2), structure_with(n=3))


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_constant_scores(self):
        assert auroc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == 0.5

    def test_hand_case(self):
        assert auroc([0.9, 0.8, 0.3, 0.1], [1, 0, 1, 0]) == 0.75

    def test_invariant_under_monotone_transforms(self, rng):
        scores = rng.random(40)
        labels = rng.random(40) < 0.4
        if labels.all() or not labels.any():
            labels[0] = True
            labels[1] = False
        base = auroc(scores, labels)
        assert auroc(np.exp(5 * scores), labels) == pytest.approx(base)
        assert auroc(np.log(scores + 1e-9), labels) == pytest.approx(base)

    def test_degenerate_truth_flagged(self):
        with pytest.warns(UserWarning):
            assert auroc([0.1, 0.9], [1, 1]) == 0.5

    def test_ranks_equal_scipy_on_ties_and_nan(self, rng):
        for _ in range(500):
            n = int(rng.integers(0, 30))
            values = rng.integers(0, 4, size=n) * rng.choice([1.0, 0.25, -0.5])
            if n and rng.random() < 0.2:
                values[rng.integers(n)] = -0.0
            if n and rng.random() < 0.1:
                values[rng.integers(n)] = np.nan
            expected = scipy.stats.rankdata(values, method="average")
            assert np.array_equal(_average_ranks(values), expected, equal_nan=True)

    def test_auroc_bit_identical_to_scipy_ranks(self, rng):
        for _ in range(200):
            scores = rng.integers(0, 5, size=25) / 4.0
            labels = rng.random(25) < 0.3
            labels[:2] = (True, False)
            ranks = scipy.stats.rankdata(scores, method="average")
            n_pos, n_neg = int(labels.sum()), int((~labels).sum())
            expected = (ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
            assert auroc(scores, labels) == expected

    def test_nan_score_gives_nan(self):
        assert math.isnan(auroc([0.9, np.nan, 0.1], [1, 0, 0]))

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        import dbnlearn
        src = str(Path(dbnlearn.__file__).resolve().parent.parent)
        code = f"import sys; sys.path.insert(0, {src!r}); import dbnlearn.cli; " \
               "print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120)
        assert out.stdout.strip() == "False"


class TestTemporalSplit:
    @staticmethod
    def plain_dataset(n_traj=4, horizon=10, n=2, seed=0):
        rng = np.random.default_rng(seed)
        return discrete_dataset((rng.random((n_traj, horizon + 1, n)) < 0.5).astype(int))

    def test_seventy_percent_of_ten(self):
        ds = self.plain_dataset()
        train, test = temporal_split(ds, 0.7)
        assert train.T == 7  # targets 1..7
        fam = parents_of(DbnStructure.empty(2), 0)
        assert test.usable_transitions(fam) == ds.N * 3  # targets 8..10

    def test_full_fraction_rejected(self):
        with pytest.raises(SplitError):
            temporal_split(self.plain_dataset(), 1.0)

    def test_too_short_horizon_rejected(self):
        with pytest.raises(SplitError):
            temporal_split(self.plain_dataset(horizon=2), 0.7)

    def test_partition_exhaustive_and_disjoint(self, rng):
        for _ in range(20):
            n_traj = int(rng.integers(1, 5))
            horizon = int(rng.integers(3, 30))
            ds = self.plain_dataset(n_traj, horizon, seed=int(rng.integers(1e6)))
            train, test = temporal_split(ds, 0.7)
            fam = parents_of(DbnStructure.empty(2), 0)
            split = train.T
            # train covers targets 1..split, test covers split+1..T: exhaustive
            assert train.usable_transitions(fam) == n_traj * split
            assert test.usable_transitions(fam) == n_traj * (horizon - split)
            # disjoint: the first scored test target sits after the last train one
            assert test.burn_in + 1 + (test.x.shape[1] - 1 - test.T) == split + 1

    def test_context_serves_lags(self):
        ds = self.plain_dataset(horizon=10)
        _, test = temporal_split(ds, 0.7)
        lagged = structure_with(n=2, p=3, auto=[(0, 3)])
        fam = parents_of(lagged, 0)
        # all original rows are present, so even a lag-3 family scores every
        # test transition
        assert test.usable_transitions(fam) == ds.N * 3


class TestHoldoutLoglik:
    def test_exact_model_on_deterministic_data_scores_zero(self):
        structure = structure_with(n=1, auto=[(0, 1)])
        params = ParameterSet((Cpt(np.array([[0.0, 1.0], [0.0, 1.0]])),))
        ds = sample_trajectories(structure, params, 4, 10, seed=1)

        def fixed_learner(train):
            return LearnerReport(learner="fixed", structure=structure, params=None,
                                 score=0.0, trace=(), seed=0)

        result = holdout_loglik(ds, fixed_learner, 0.7, strict=True)
        assert result.test_loglik == 0.0

    def test_empty_graph_on_uniform_data(self, rng):
        ds = discrete_dataset((rng.random((20, 11, 2)) < 0.5).astype(int))

        def empty_learner(train):
            return LearnerReport(learner="empty", structure=DbnStructure.empty(2),
                                 params=None, score=0.0, trace=(), seed=0)

        result = holdout_loglik(ds, empty_learner, 0.7)
        m = 20 * 3 * 2  # test transitions x nodes
        assert result.test_loglik == pytest.approx(-m * math.log(2), rel=0.05)

    def test_train_fit_beats_test_fit_on_average(self):
        # overparameterized table: two inter parents for every node
        dense = structure_with(n=3, inter=[(j, i) for j in range(3)
                                           for i in range(3) if j != i])

        def dense_learner(train):
            return LearnerReport(learner="dense", structure=dense, params=None,
                                 score=0.0, trace=(), seed=0)

        gaps = []
        for seed in range(10):
            cfg = GeneratorConfig(n_x=3, model="cpt", seed=seed,
                                  edge_probs=EdgeProbs(inter=0.4))
            structure, params = sample_random_dbn(cfg)
            ds = sample_trajectories(structure, params, 10, 10, seed=seed + 7)
            result = holdout_loglik(ds, dense_learner, 0.7)
            train_rate = result.train_loglik / (10 * 7)
            test_rate = result.test_loglik / (10 * 3)
            gaps.append(train_rate - test_rate)
        assert np.mean(gaps) >= 0.0

    def test_strict_mode_can_return_neg_inf(self):
        # train sees only ones; strict test scoring meets a zero
        x = np.ones((1, 11, 1), dtype=int)
        x[0, 10, 0] = 0
        ds = discrete_dataset(x)

        def empty_learner(train):
            return LearnerReport(learner="empty", structure=DbnStructure.empty(1),
                                 params=None, score=0.0, trace=(), seed=0)

        strict = holdout_loglik(ds, empty_learner, 0.7, strict=True)
        smoothed = holdout_loglik(ds, empty_learner, 0.7, strict=False)
        assert strict.test_loglik == -math.inf
        assert math.isfinite(smoothed.test_loglik)


    @pytest.mark.parametrize("seed", range(4))
    def test_continuous_values_match_row_oracle(self, seed):
        # auto lags up to 2 and static parents; the test side carries a burn-in
        cfg = GeneratorConfig(n_x=3, n_z=2, p=2, model="linear_gaussian", seed=seed,
                              weight_range=(0.2, 0.6),
                              edge_probs=EdgeProbs(intra=0.3, inter=0.4, auto=0.6, static=0.5))
        structure, params = sample_random_dbn(cfg)
        ds = sample_trajectories(structure, params, 6, 30, seed=seed + 100)

        def true_learner(train):
            return LearnerReport(learner="true", structure=structure, params=None,
                                 score=0.0, trace=(), seed=0)

        result = holdout_loglik(ds, true_learner, 0.7)
        train, test = temporal_split(ds, 0.7)
        assert test.burn_in > 0
        fitted = []
        for i in range(3):
            beta0, beta, rss, m = row_least_squares(train, parents_of(structure, i))
            fitted.append(LinearGaussian(beta0=beta0, beta=beta, sigma2=rss / m))
        fitted = ParameterSet(tuple(fitted))
        assert result.train_loglik == pytest.approx(row_gaussian_loglik(train, structure, fitted), rel=1e-9)
        assert result.test_loglik == pytest.approx(row_gaussian_loglik(test, structure, fitted), rel=1e-9)


class TestRunBenchmark:
    @staticmethod
    def mini_setup():
        regime = RegimeSpec("tiny", ((2, 6, 6), (3, 5, 6)))
        template = GeneratorConfig(n_x=1, model="cpt", seed=0, sharpen=2.0,
                                   edge_probs=EdgeProbs(intra=0.3, inter=0.4))
        learners = (("hill_bic", "hill", {"score": "bic", "restarts": 1}),
                    ("exact_bde", "exact", {"score": "bde"}))
        return regime, template, learners

    def test_row_count_is_full_cross(self):
        regime, template, learners = self.mini_setup()
        result = run_benchmark(regime, learners, template, replicates=3, seed=5)
        assert len(result.rows) == 2 * 2 * 3
        assert all(r.status == "OK" for r in result.rows)

    def test_timeout_renders_tl(self):
        regime, template, learners = self.mini_setup()
        result = run_benchmark(regime, learners, template, replicates=1, seed=5,
                               timeout_sec=0.0)
        assert all(r.status == "TL" for r in result.rows)
        assert "TL" in result.text_tables()

    def test_csv_columns_and_determinism(self):
        regime, template, learners = self.mini_setup()
        a = run_benchmark(regime, template=template, learners=learners,
                          replicates=2, seed=9)
        b = run_benchmark(regime, template=template, learners=learners,
                          replicates=2, seed=9)
        assert a.to_csv() == b.to_csv()
        header = a.to_csv().splitlines()[0]
        assert header == "regime,n,N,T,learner,replicate,seed,shd,auroc,train_ll,test_ll,status"

    def test_aggregation_mean_and_sample_sd(self):
        rows = tuple(
            EvalReport(regime="r", n=3, n_traj=5, horizon=6, learner="L",
                       replicate=i, seed=i, status="OK", shd=1, auroc=0.5,
                       train_loglik=-1.0, test_loglik=v)
            for i, v in enumerate((-10.0, -12.0, -14.0)))
        agg = BenchmarkResult(rows=rows).aggregate()
        mean, sd = agg[("L", (3, 5, 6))]["test_ll"]
        assert mean == pytest.approx(-12.0)
        assert sd == pytest.approx(2.0)

    def test_failed_cells_do_not_abort(self):
        regime = RegimeSpec("tiny", ((2, 5, 5),))
        template = GeneratorConfig(n_x=1, model="cpt", seed=0)
        learners = (("boom", "dynotears", {}),)  # discrete data: domain error
        result = run_benchmark(regime, learners, template, replicates=2, seed=1)
        assert [r.status for r in result.rows] == ["E", "E"]

    def test_workers_preserve_rows(self):
        regime, template, learners = self.mini_setup()
        serial = run_benchmark(regime, learners, template, replicates=2, seed=3)
        threaded = run_benchmark(regime, learners, template, replicates=2, seed=3,
                                 workers=4)
        assert serial.to_csv() == threaded.to_csv()


class TestEdgeUniverse:
    def test_deterministic_ordering_no_duplicates(self):
        uni = EdgeUniverse.build(3, 2, 2)
        assert len(set(uni.edges)) == len(uni.edges)
        assert uni.edges == EdgeUniverse.build(3, 2, 2).edges
        assert len(uni.edges) == 6 + 6 + 3 * 2 + 2 * 3

    def test_indicator_scores_for_unweighted_reports(self):
        s = structure_with(intra=[(0, 1)], auto=[(2, 1)])
        report = LearnerReport(learner="x", structure=s, params=None, score=0.0,
                               trace=(), seed=0)
        uni = EdgeUniverse.build(3, 0, 1)
        assert np.array_equal(uni.scores(report), uni.vector(s).astype(float))
