"""Acceptance suite: one test per acceptance criterion, at its stated tolerance.

Each test prints a single ``[ACCEPT] <criterion>: PASS`` line (run with
``pytest tests/test_acceptance.py -s`` to watch them live) and enforces
its runtime budget.  External benchmark tables are context, not targets:
acceptance is property-based plus self-consistent recovery experiments.
"""

import itertools
import math
import sys
import time

import numpy as np
import pytest
from scipy import integrate, special

import dbnlearn as dl
from dbnlearn.cli import main as cli_main
from dbnlearn.core import FamilySpec, Parent, canonical_parents, is_acyclic
from dbnlearn.learn import (
    BoundedConfig, ContinuousConfig, SearchConfig, bounded_oneshot,
    continuous_oneshot, exact_search, hill_climb,
)
from dbnlearn.scoring import (
    BgeHyper, CountTable, DirichletPrior, bde_family_score, bge_family_score,
    count_transitions, mle_cpt,
)
from dbnlearn.acyclicity import h_expm_and_grad

from conftest import continuous_dataset, discrete_dataset
from oracle_utils import (
    bounded_support_objective, brute_force_best_score, lag1_design, lag1_mask,
    nw_marginal_oracle_1d, nw_marginal_oracle_2d,
)
from test_acyclicity import all_3x3_supports, central_difference


def _report(name):
    print(f"[ACCEPT] {name}: PASS", file=sys.stderr)


def _budget(name, t_start, limit):
    elapsed = time.perf_counter() - t_start
    assert elapsed < limit, f"{name} took {elapsed:.1f}s, budget {limit}s"


def count_table(counts, n_parents):
    arities = (2,) * n_parents
    fam = FamilySpec(node=0, parents=canonical_parents(
        [Parent("inter", j + 1) for j in range(n_parents)]))
    return CountTable(node=0, family=fam, arities=arities, child_arity=2,
                      counts=np.asarray(counts, dtype=np.int64))


class TestBdeVsQuadrature:
    """Exhaustive 0/1-parent grids plus a dense seeded 2-parent grid, 1e-9 relative."""

    def test_bde_matches_dirichlet_multinomial_integral(self):
        t0 = time.perf_counter()

        # per-configuration oracle values, cached per (alpha, n1, n0)
        cache = {}

        def config_oracle(alpha, n1, n0):
            if n1 == n0 == 0:
                return 0.0  # the prior density integrates to exactly 1
            key = (alpha, n1, n0)
            if key not in cache:
                # the Beta density's endpoint singularities go in quad's algebraic weight
                value, _ = integrate.quad(
                    lambda th: th ** n1 * (1 - th) ** n0 / special.beta(alpha, alpha),
                    0.0, 1.0, weight="alg", wvar=(alpha - 1, alpha - 1),
                    epsabs=1e-14, epsrel=1e-12)
                cache[key] = math.log(value)
            return cache[key]

        def check(counts, n_parents):
            table = count_table(counts, n_parents)
            prior = DirichletPrior(1.0)
            alpha = 1.0 / (table.counts.shape[0] * 2)
            want = sum(config_oracle(alpha, int(n1), int(n0))
                       for n0, n1 in table.counts)
            got = bde_family_score(table, prior)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

        pairs = list(itertools.product(range(5), repeat=2))  # counts 0..4
        for n0, n1 in pairs:  # all 25 parent-free families
            check([[n0, n1]], 0)
        for rows in itertools.product(pairs, repeat=2):  # all 625 one-parent families
            check(list(rows), 1)
        rng = np.random.default_rng(7)
        for _ in range(1500):  # dense seeded slice of the 25^4 two-parent grid
            check(rng.integers(0, 5, size=(4, 2)), 2)
        for corner in (0, 4):  # two-parent corners
            check([[corner, corner]] * 4, 2)

        # the Beta-integral case: alpha = (1, 1), two ones and one zero
        got = bde_family_score(count_table([[1, 2]], 0),
                               DirichletPrior(table=np.ones((1, 2))))
        assert got == pytest.approx(math.log(1 / 12), abs=1e-12)

        _budget("BDe-vs-quadrature", t0, 10.0)
        _report("BDe-vs-quadrature (1e-9 relative, log(1/12) to 1e-12)")


class TestMleVsGridOracle:
    """mle_cpt vs theta-grid likelihood maximization, 20 micro-datasets."""

    @staticmethod
    def grid_best_ratio(n0, n1, step=1e-3):
        grid = np.arange(0.0, 1.0 + step / 2, step)
        with np.errstate(divide="ignore", invalid="ignore"):
            ll = n1 * np.log(grid) + n0 * np.log(1.0 - grid)
        ll[np.isnan(ll)] = -np.inf
        if n1 == 0:
            ll[0] = 0.0
        if n0 == 0:
            ll[-1] = 0.0
        return float(grid[int(np.argmax(ll))])

    def check_per_configuration(self, ds, fam):
        counts = count_transitions(ds, fam)
        cpt = mle_cpt(counts)
        for cfg in range(counts.counts.shape[0]):
            n0, n1 = int(counts.counts[cfg, 0]), int(counts.counts[cfg, 1])
            if n0 + n1 == 0:
                continue
            assert cpt.table[cfg, 1] == pytest.approx(self.grid_best_ratio(n0, n1), abs=1e-3)

    def test_twenty_micro_datasets(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(11)
        checked = 0

        # 12 micro-datasets with an inter parent: per-configuration grid maximization
        for trial in range(12):
            n_traj, horizon = int(rng.integers(1, 4)), int(rng.integers(2, 6))
            ds = discrete_dataset((rng.random((n_traj, horizon + 1, 2)) < 0.5).astype(int))
            self.check_per_configuration(ds, FamilySpec(node=0, parents=(Parent("inter", 1),)))
            checked += 1

        # 8 with a static parent, which pools each trajectory's transitions,
        # or an auto-lag parent
        for trial in range(8):
            n_traj, horizon = 2, 3
            x = (rng.random((n_traj, horizon + 1, 1)) < 0.6).astype(int)
            ds = discrete_dataset(x, z=np.array([[0], [1]]))
            parent = Parent("static", 0) if trial % 2 == 0 else Parent("auto", 1)
            self.check_per_configuration(ds, FamilySpec(node=0, parents=(parent,)))
            checked += 1

        assert checked == 20
        _budget("MLE-vs-grid", t0, 10.0)
        _report("MLE-vs-grid oracle (20 micro-datasets, 1e-3)")


class TestBgeVsIntegration:
    """Closed-form normal-Wishart marginals vs numerical integration, 1e-3 relative."""

    def test_five_datasets(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(3)

        # three parent-free families: full (mu, w) quadrature
        for k in range(3):
            xs = rng.normal(loc=0.4 * k, scale=0.9, size=3 + k)
            ds = continuous_dataset(xs.reshape(1, -1, 1))
            fam = FamilySpec(node=0, parents=())
            got = bge_family_score(ds, 0, fam, BgeHyper(alpha_mu=1.0, alpha_w=3.0))
            want = nw_marginal_oracle_1d(xs[1:], 1.0, 3.0)
            assert got == pytest.approx(want, rel=1e-3)

        # two one-parent families: joint 2-d marginal minus parent marginal
        for k in range(2):
            rows = rng.normal(size=(3, 2))
            rows[:, 0] += 0.6 * rows[:, 1]
            x = np.zeros((3, 2, 2))
            x[:, 1, 0] = rows[:, 0]  # child at t=1
            x[:, 0, 1] = rows[:, 1]  # lag-1 parent at t=0
            ds = continuous_dataset(x)
            fam = FamilySpec(node=0, parents=(Parent("inter", 1),))
            got = bge_family_score(ds, 0, fam, BgeHyper(alpha_mu=1.0, alpha_w=4.0))
            joint = nw_marginal_oracle_2d(rows, 1.0, 4.0)
            parent = nw_marginal_oracle_1d(rows[:, 1], 1.0, 4.0)
            assert got == pytest.approx(joint - parent, rel=1e-3)

        _budget("BGe-vs-integration", t0, 60.0)
        _report("BGe-vs-integration oracle (5 datasets, 1e-3 relative)")


class TestAcyclicityExactness:
    def test_functionals_and_gradients(self):
        t0 = time.perf_counter()
        def h_expm(w):
            return h_expm_and_grad(w)[0]

        for w in all_3x3_supports():
            dag = is_acyclic(w != 0)
            assert (h_expm(w) < 1e-12) == dag
        two_cycle = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert h_expm(two_cycle) == pytest.approx(math.e + math.exp(-1) - 2, abs=1e-10)
        rng = np.random.default_rng(5)
        for _ in range(20):
            w = rng.normal(scale=0.8, size=(4, 4))
            np.fill_diagonal(w, 0.0)
            num = central_difference(h_expm, w)
            ana = h_expm_and_grad(w)[1]
            denom = max(1e-12, float(np.linalg.norm(num)))
            assert float(np.linalg.norm(ana - num)) / denom < 1e-6
        _budget("acyclicity-exactness", t0, 5.0)
        _report("acyclicity exactness (512 supports, 2-cycle value, gradients)")


class TestExactSearchOptimality:
    def test_matches_exhaustive_enumeration(self):
        t0 = time.perf_counter()
        for seed in range(10):
            kind = "bde" if seed % 2 == 0 else "bic"
            n_z = 1 if seed % 3 == 0 else 0
            cfg = dl.GeneratorConfig(
                n_x=3, n_z=n_z, model="cpt", seed=seed, sharpen=2.0,
                edge_probs=dl.EdgeProbs(intra=0.3, inter=0.4, auto=0.3, static=0.5))
            truth, params = dl.sample_random_dbn(cfg)
            ds = dl.sample_trajectories(truth, params, 12, 8, seed=seed + 300,
                                        x_arities=(2, 2, 2), z_arities=(2,) * n_z)
            report = exact_search(ds, kind, SearchConfig(score=kind))
            oracle = brute_force_best_score(ds, kind)
            assert report.score == oracle, (seed, kind)
        for seed, kind in ((10, "bge"), (11, "bic")):  # linear-Gaussian, one static
            cfg = dl.GeneratorConfig(
                n_x=3, n_z=1, model="linear_gaussian", seed=seed, sigma=0.5,
                edge_probs=dl.EdgeProbs(intra=0.3, inter=0.4, auto=0.3, static=0.5))
            truth, params = dl.sample_random_dbn(cfg)
            ds = dl.sample_trajectories(truth, params, 12, 8, seed=seed + 300)
            report = exact_search(ds, kind, SearchConfig(score=kind))
            oracle = brute_force_best_score(ds, kind)
            assert report.score == oracle, (seed, kind)
        _budget("exact-search-optimality", t0, 60.0)
        _report("exact search equals exhaustive enumeration (10 discrete, 2 linear-Gaussian datasets)")


class TestDiscreteRecovery:
    def test_shd_at_most_two_on_eight_of_ten(self):
        t0 = time.perf_counter()
        hill_ok = exact_ok = 0
        for seed in range(10):
            cfg = dl.GeneratorConfig(
                n_x=3, model="cpt", seed=seed, sharpen=4.0, min_effect=0.5,
                edge_probs=dl.EdgeProbs(intra=0.1, inter=0.3, auto=0.3))
            truth, params = dl.sample_random_dbn(cfg)
            ds = dl.sample_trajectories(truth, params, 30, 10, seed=seed + 500)
            hc = hill_climb(ds, "bic", SearchConfig(score="bic", restarts=3, seed=seed))
            ex = exact_search(ds, "bde", SearchConfig(score="bde"),
                              prior=DirichletPrior(0.5))
            hill_ok += dl.shd(hc.structure, truth) <= 2
            exact_ok += dl.shd(ex.structure, truth) <= 2
        assert hill_ok >= 8, f"hill recovered only {hill_ok}/10"
        assert exact_ok >= 8, f"exact recovered only {exact_ok}/10"
        _budget("discrete-recovery", t0, 120.0)
        _report(f"discrete recovery at (3,30,10): hill {hill_ok}/10, exact {exact_ok}/10")


class TestContinuousRecovery:
    def test_auroc_and_acyclicity(self):
        t0 = time.perf_counter()
        auroc_ok = acyclic_ok = 0
        for seed in range(10):
            cfg = dl.GeneratorConfig(
                n_x=5, model="linear_gaussian", seed=seed, sigma=0.5,
                weight_range=(0.5, 2.0),
                edge_probs=dl.EdgeProbs(intra=0.2, inter=0.3, auto=0.3))
            truth, params = dl.sample_random_dbn(cfg)
            ds = dl.sample_trajectories(truth, params, 50, 50, seed=seed + 600)
            report = continuous_oneshot(ds, ContinuousConfig(
                lambda_w=0.05, lambda_a=0.05, w_threshold=0.01))
            universe = dl.EdgeUniverse.build(5, 0, 1)
            value = dl.auroc(universe.scores(report), universe.vector(truth))
            auroc_ok += value >= 0.9
            acyclic_ok += is_acyclic(report.structure.intra)
        assert auroc_ok >= 8, f"AUROC >= 0.9 on only {auroc_ok}/10"
        assert acyclic_ok == 10, f"acyclic on only {acyclic_ok}/10"
        _budget("continuous-recovery", t0, 300.0)
        _report(f"continuous recovery at (5,50,50): AUROC>=0.9 {auroc_ok}/10, acyclic 10/10")


class TestBoundedOneshotAudit:
    """Bounded one-shot and DYNOTEARS on near-noiseless 3-node systems, each auditing the other.

    On each of 10 seeds the test checks that every active bounded weight
    clears ``b``, that an independent brute-force oracle reproduces the
    bounded objective on the bounded learner's own support, and then:

    (a) the bounded objective is no worse than the bounded objective
        minimized over the DYNOTEARS support, since the bounded learner
        claims the global minimizer over all supports;
    (b) the DYNOTEARS objective is no worse than the DYNOTEARS objective
        at the bounded learner's weights, which are feasible (acyclic
        ``W``, so ``h = 0``), so the augmented-Lagrangian solve reached a
        point at least as good as a known competitor.

    Equal supports are not asserted.  At sigma = 1e-6 the 900 x 6 design
    ``[Y | Y_{t-1}]`` has rank 3 (three singular values of 1e-5 to 6e-5),
    so every intra DAG ``W`` admits an exactly fitting ``A = B (I - W)``
    and the penalty alone picks the support: an L0 penalty per edge on
    summed SSE for the bounded learner, an L1 penalty on (1/2M) SSE for
    DYNOTEARS.  Those pick different supports on this data, so the
    support-agreement count is reported, not asserted.  Sigma, seeds,
    sizes, ``b``, every lambda and ``w_threshold`` are unchanged from the
    earlier support-equality form of this test.
    """

    def test_bounds_and_support_agreement(self):
        t0 = time.perf_counter()
        bound_ok = match_ok = 0
        b = 0.1
        bounded_cfg = BoundedConfig(
            b_w=b, b_a=b, lambda_w_pos=0.05, lambda_w_neg=0.05,
            lambda_a_pos=0.05, lambda_a_neg=0.05)
        lam = 0.01
        for seed in range(10):
            cfg = dl.GeneratorConfig(
                n_x=3, model="linear_gaussian", seed=seed, sigma=1e-6,
                weight_range=(0.5, 2.0),
                edge_probs=dl.EdgeProbs(intra=0.3, inter=0.4, auto=0.3))
            truth, params = dl.sample_random_dbn(cfg)
            ds = dl.sample_trajectories(truth, params, 30, 30, seed=seed + 700)
            br = bounded_oneshot(ds, bounded_cfg)
            w, a = br.extras["w"], br.extras["a"]
            bound_ok += (np.abs(w[w != 0.0]).min(initial=1.0) >= b - 1e-12
                         and np.abs(a[a != 0.0]).min(initial=1.0) >= b - 1e-12)
            dr = continuous_oneshot(ds, ContinuousConfig(
                lambda_w=lam, lambda_a=lam, w_threshold=0.05))
            match_ok += (np.array_equal(br.structure.intra, dr.structure.intra)
                         and np.array_equal(br.structure.inter, dr.structure.inter)
                         and br.structure.auto_lags == dr.structure.auto_lags)

            y, x_prev = lag1_design(ds)
            bounded_obj = br.extras["objective"]
            own = bounded_support_objective(
                y, x_prev, br.structure.intra, lag1_mask(br.structure), bounded_cfg)
            assert abs(own - bounded_obj) <= 1e-12 * abs(bounded_obj), \
                f"seed {seed}: oracle {own!r} vs bounded objective {bounded_obj!r}"
            # (a) the bounded learner against the DYNOTEARS support
            rival = bounded_support_objective(
                y, x_prev, dr.structure.intra, lag1_mask(dr.structure), bounded_cfg)
            assert bounded_obj <= rival * (1 + 1e-12), \
                f"seed {seed}: bounded {bounded_obj!r} > {rival!r} on the DYNOTEARS support"
            # (b) DYNOTEARS against the bounded learner's feasible weights
            assert is_acyclic(w != 0.0)
            resid = y - y @ w - x_prev @ a
            at_bounded = (0.5 / len(y) * float(np.sum(resid * resid))
                          + lam * float(np.abs(w).sum() + np.abs(a).sum()))
            assert dr.extras["objective"] <= at_bounded, \
                f"seed {seed}: DYNOTEARS {dr.extras['objective']!r} > {at_bounded!r} " \
                "at the bounded weights"
        assert bound_ok == 10, f"bounds respected on only {bound_ok}/10"
        _budget("bounded-audit", t0, 120.0)
        _report(f"bounded one-shot audit: |w|>=b {bound_ok}/10, oracle and cross-checks "
                f"(a), (b) 10/10, support match {match_ok}/10 (informational)")


class TestMetricUnitSuite:
    def test_metric_hand_cases_and_split_property(self):
        t0 = time.perf_counter()
        from test_evaluate import structure_with
        truth = structure_with(intra=[(0, 1)])
        assert dl.shd(truth, truth) == 0
        assert dl.shd(structure_with(intra=[(0, 1)], inter=[(2, 0)]), truth) == 1
        assert dl.shd(structure_with(intra=[(1, 0)]), truth) == 2
        assert dl.auroc([0.9, 0.8, 0.3, 0.1], [1, 0, 1, 0]) == 0.75

        rng = np.random.default_rng(2)
        from dbnlearn.core import DbnStructure, parents_of
        for _ in range(25):
            n_traj = int(rng.integers(1, 6))
            horizon = int(rng.integers(3, 40))
            ds = discrete_dataset((rng.random((n_traj, horizon + 1, 2)) < 0.5).astype(int))
            train, test = dl.temporal_split(ds, 0.7)
            fam = parents_of(DbnStructure.empty(2), 0)
            split = train.T
            assert 1 <= split < horizon
            assert train.usable_transitions(fam) == n_traj * split
            assert test.usable_transitions(fam) == n_traj * (horizon - split)
        _budget("metric-unit-suite", t0, 5.0)
        _report("metric unit suite (SHD 0/1/2, AUROC 0.75, split partition)")


class TestEndToEndDeterminism:
    def test_benchmark_byte_identical(self, tmp_path):
        t0 = time.perf_counter()
        import json
        config = {
            "seed": 202408,
            "out": str(tmp_path / "runA"),
            "regime": {"label": "mini", "triples": [[3, 10, 10]]},
            "replicates": 3,
            "generator": {"model": "cpt", "sharpen": 3.0,
                          "edge_probs": {"intra": 0.2, "inter": 0.4, "auto": 0.3}},
            "learners": [
                {"name": "hill", "score": "bic", "restarts": 2},
                {"name": "exact", "score": "bde"},
            ],
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert cli_main(["benchmark", "--config", str(cfg_path)]) == 0
        config["out"] = str(tmp_path / "runB")
        cfg_path.write_text(json.dumps(config))
        assert cli_main(["benchmark", "--config", str(cfg_path)]) == 0
        a = (tmp_path / "runA" / "results.csv").read_bytes()
        b = (tmp_path / "runB" / "results.csv").read_bytes()
        assert a == b and len(a.splitlines()) == 1 + 2 * 3
        _budget("end-to-end-determinism", t0, 120.0)
        _report("end-to-end determinism (benchmark twice, byte-identical CSV)")
