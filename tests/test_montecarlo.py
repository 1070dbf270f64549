"""Simulator plumbing: determinism, region sizing, and coverage sanity;
agreement with a literal fade-drawing sampler, and calibrated standard
errors over replicated seeds.

Full-budget oracle-vs-analytic comparisons live in the acceptance suite;
here the runs are kept small (reduced regions, minimum trials) and the
tolerances widened accordingly.
"""

import copy
import dataclasses
import functools
import hashlib
import math
import multiprocessing
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from guardzone import montecarlo as mc, specfn
from guardzone.multi_obs import AlohaParams, aloha_laws
from guardzone.nofading import levy_prior, posterior_nofade
from guardzone.params import ModelParams, derive
from guardzone.single_obs import evidence_success, posterior, prior_success

FIG1 = ModelParams(n=2, density=2e-4, alpha=3, beta=5, r_T=10)
FIG4 = ModelParams(n=2, density=2e-3, alpha=4, beta=5, r_T=10)
NOISY = ModelParams(n=2, density=1e-3, alpha=4, beta=3, r_T=10, eta=1e-5)
FAST = mc.SimConfig(trials=10_000, seed=7, region_radius=600.0)
# 196 chunks: many times more than two workers' blocks of _BLOCK
LONG = mc.SimConfig(trials=200_000, seed=0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            mc.SimConfig(trials=100)
        with pytest.raises(ValueError):
            mc.SimConfig(fading="nakagami")
        with pytest.raises(ValueError):
            mc.SimConfig(region_radius=-5.0)

    def test_auto_region_radius(self):
        d = derive(FIG1)
        R = mc.auto_region_radius(FIG1, FIG1.density, 1e-3)
        # defining bound holds with equality at the returned radius
        bias = d.sigma * FIG1.density * d.c_n * FIG1.n \
            * R ** (FIG1.n - FIG1.alpha) / (FIG1.alpha - FIG1.n)
        assert bias == pytest.approx(1e-3, rel=1e-12)


class TestRegion:
    """Default and explicit simulation regions, seen through the estimates."""

    @staticmethod
    def same_draws(a, b):
        return dataclasses.replace(a, config_hash="") == dataclasses.replace(
            b, config_hash="")

    @staticmethod
    def shell_radius(p, density, r_max):
        """R with R**n = r_max**n + 10 / (density * c_n): the shell beyond
        r_max holds 10 interferers on average."""
        return (r_max**p.n + 10.0 / (density * derive(p).c_n)) ** (1.0 / p.n)

    @pytest.mark.parametrize("p, grid, want", [
        # the shell radius 64.0 lies below the floor 1.5 * 50
        (FIG4, [20.0, 50.0], 75.0),
        # between the clamps 75 and 500
        (FIG1, [20.0, 50.0], (2500.0 + 10.0 / (2e-4 * math.pi)) ** 0.5),
        # the shell radius 126.4 lies beyond the ceiling 10 * 8
        (FIG1, [2.0, 8.0], 80.0),
        # the floor 1.5 * 400 lies beyond the no-fading region, 560.5
        (FIG4, [20.0, 400.0], mc.auto_region_radius(FIG4, FIG4.density, 1e-3)),
    ], ids=["floor", "near-field", "ceiling", "capped"])
    def test_rayleigh_default_is_near_field(self, p, grid, want):
        cfg = mc.SimConfig(trials=10_000, seed=5)
        R = mc._region_radius(p, p.density, max(grid), cfg)
        assert R == pytest.approx(want, rel=1e-15)
        explicit = dataclasses.replace(cfg, region_radius=R)
        assert self.same_draws(mc.estimate_single(p, grid, cfg),
                               mc.estimate_single(p, grid, explicit))

    @pytest.mark.parametrize("p", [FIG1, FIG4, NOISY], ids=["fig1", "fig4",
                                                            "noisy"])
    def test_default_never_exceeds_near_field(self, p):
        # never beyond 10 r_max, as before the shell rule, so no default
        # grid meets a new resolution or region error; and at least
        # 1.5 r_max (or the no-fading region), so the shell is never empty
        cfg = mc.SimConfig(trials=10_000)
        for density in (p.density, 1e-3 * p.density):
            auto = mc.auto_region_radius(p, density, cfg.bias_tol)
            for r_max in np.geomspace(1e-3, 0.99 * auto, 61):
                R = mc._region_radius(p, density, r_max, cfg)
                assert min(1.5 * r_max, auto) <= R <= min(10.0 * r_max, auto)
                if R < min(10.0 * r_max, auto):
                    assert R == pytest.approx(max(
                        self.shell_radius(p, density, r_max), 1.5 * r_max),
                        rel=1e-15)

    def test_multiobs_default_at_active_density(self):
        aloha = AlohaParams(p=0.5, N=1)
        cfg = mc.SimConfig(trials=10_000, seed=5)
        active = aloha.p * FIG4.density
        # the shell holds 10 active interferers: 59.9, not the 44.6 of the
        # full density
        R = mc._region_radius(FIG4, active, 20.0, cfg)
        assert R == pytest.approx(self.shell_radius(FIG4, active, 20.0),
                                  rel=1e-15)
        assert R == pytest.approx(59.86, abs=0.01)
        explicit = dataclasses.replace(cfg, region_radius=R)
        assert self.same_draws(
            mc.estimate_multiobs(FIG4, aloha, 20.0, cfg),
            mc.estimate_multiobs(FIG4, aloha, 20.0, explicit))
        # the floor 1.5 * 300 lies beyond the active-density region, 396.3
        auto = mc.auto_region_radius(FIG4, active, cfg.bias_tol)
        assert mc._region_radius(FIG4, active, 300.0, cfg) == auto

    def test_no_fading_default_unchanged(self):
        cfg = mc.SimConfig(trials=10_000, seed=5, fading="none")
        auto = mc.auto_region_radius(FIG4, FIG4.density, cfg.bias_tol)
        assert mc._region_radius(FIG4, FIG4.density, 20.0, cfg) == auto
        explicit = dataclasses.replace(cfg, region_radius=auto)
        assert self.same_draws(mc.estimate_single(FIG4, [20.0], cfg),
                               mc.estimate_single(FIG4, [20.0], explicit))

    @pytest.mark.parametrize("fading", ["rayleigh", "none"])
    def test_explicit_region_honoured(self, monkeypatch, fading):
        cfg = dataclasses.replace(FAST, fading=fading)
        assert mc._region_radius(FIG1, FIG1.density, 20.0, cfg) == 600.0
        seen = []
        far_field_log = mc._far_field_log
        monkeypatch.setattr(mc, "_far_field_log", lambda p, density, R: (
            seen.append(R) or far_field_log(p, density, R)))
        mc.estimate_single(FIG1, [20.0], cfg)
        assert seen == ([600.0] if fading == "rayleigh" else [])


class TestEstimateSingle:
    def test_deterministic_for_fixed_seed(self):
        a = mc.estimate_single(FIG1, [20.0, 50.0], FAST)
        b = mc.estimate_single(FIG1, [20.0, 50.0], FAST)
        assert a == b

    def test_seed_changes_draws(self):
        other = dataclasses.replace(FAST, seed=8)
        a = mc.estimate_single(FIG1, [20.0], FAST)
        b = mc.estimate_single(FIG1, [20.0], other)
        assert a.prior.value != b.prior.value

    def test_partial_chunk_schedule(self):
        cfg = dataclasses.replace(FAST, trials=10_500)
        est = mc.estimate_single(FIG1, [20.0], cfg)
        assert est.trials == 10_500

    def test_matches_analytic_loosely(self):
        # small run, wide (4 SE) gate: a plumbing check, not the oracle gate
        est = mc.estimate_single(FIG1, [20.0, 50.0], FAST)
        assert abs(est.prior.value - prior_success(FIG1)) \
            < 4 * est.prior.stderr + 1e-3
        for i, r in enumerate((20.0, 50.0)):
            assert abs(est.evidence[i].value - evidence_success(FIG1, r)) \
                < 4 * est.evidence[i].stderr
            assert abs(est.posterior_d1[i].value
                       - posterior(FIG1, r).p_h1_d1) \
                < 4 * est.posterior_d1[i].stderr + 1e-3

    def test_detects_wrong_model(self):
        # negative control: the harness must flag a corrupted scenario
        est = mc.estimate_single(FIG1, [20.0], FAST)
        corrupted = dataclasses.replace(FIG1, beta=9.0)
        z = (est.prior.value - prior_success(corrupted)) / est.prior.stderr
        assert abs(z) > 3.0

    def test_estimate_bookkeeping(self):
        est = mc.estimate_single(FIG1, [20.0], FAST)
        assert est.trials == 10_000
        assert len(est.config_hash) == 12
        assert est.posterior_d1[0].count + est.posterior_d0[0].count == 10_000
        assert not est.prior.low_confidence

    def test_low_confidence_flag(self):
        assert mc.Estimate.binomial(3, 50).low_confidence
        assert not mc.Estimate.binomial(30, 500).low_confidence

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mc.estimate_single(FIG1, [], FAST)
        with pytest.raises(ValueError):
            mc.estimate_single(FIG1, [-1.0], FAST)
        with pytest.raises(ValueError):
            # guard zone larger than the simulated region
            mc.estimate_single(FIG1, [1e4], FAST)


class TestEstimateMultiobs:
    ALOHA = AlohaParams(p=0.5, N=1)

    def test_deterministic(self):
        a = mc.estimate_multiobs(FIG1, self.ALOHA, 50.0, FAST)
        b = mc.estimate_multiobs(FIG1, self.ALOHA, 50.0, FAST)
        assert a == b

    def test_matches_analytic_loosely(self):
        est = mc.estimate_multiobs(FIG1, self.ALOHA, 50.0, FAST)
        laws = aloha_laws(FIG1, self.ALOHA, 50.0)
        for k in range(2):
            assert abs(est.p_K[k].value - laws.p_K[k]) < 4 * est.p_K[k].stderr
            got = est.posterior[(k, 0)]
            want = laws.posterior[k, 0]
            assert abs(got.value - want) < 4 * got.stderr + 2e-3

    def test_history_counts_partition(self):
        est = mc.estimate_multiobs(FIG1, self.ALOHA, 50.0, FAST)
        # conditional sample sizes over K partition the trial budget
        assert sum(e.count for e in est.p_h_given_K) == est.trials

    def test_rejects_noise_and_wrong_fading(self):
        noisy = dataclasses.replace(FIG1, eta=1e-6)
        with pytest.raises(ValueError):
            mc.estimate_multiobs(noisy, self.ALOHA, 50.0, FAST)
        nofade = dataclasses.replace(FAST, fading="none")
        with pytest.raises(ValueError):
            mc.estimate_multiobs(FIG1, self.ALOHA, 50.0, nofade)


class TestChunkKernel:
    @staticmethod
    def same_at_any_split(monkeypatch, run):
        """``repr(run())`` at 1, 2 and 3 workers, each with blocks of at
        most 1, 3 and the default ``_BLOCK`` chunks: 10 000 trials (nine
        chunks and a last one of 784), then as one chunk."""
        for chunk in (mc._CHUNK, 10_000):
            monkeypatch.setattr(mc, "_CHUNK", chunk)
            runs = set()
            for workers in (1, 2, 3):
                for block in (1, 3, mc._BLOCK):
                    with monkeypatch.context() as m:
                        m.setattr(mc, "_WORKERS", workers)
                        m.setattr(mc, "_BLOCK", block)
                        runs.add(repr(run()))
            assert len(runs) == 1, chunk

    @pytest.mark.parametrize("fading", ["rayleigh", "none"])
    def test_single_independent_of_workers(self, monkeypatch, fading):
        cfg = dataclasses.replace(FAST, fading=fading)
        self.same_at_any_split(
            monkeypatch, lambda: mc.estimate_single(FIG1, [20.0, 50.0], cfg))

    # at N = 0 the history is one cell, with no observed marks drawn
    @pytest.mark.parametrize("aloha", [AlohaParams(0.5, 0),
                                       AlohaParams(0.5, 2)],
                             ids=["N0", "N2"])
    def test_multiobs_independent_of_workers(self, monkeypatch, aloha):
        self.same_at_any_split(monkeypatch, lambda: mc.estimate_multiobs(
            FIG1, aloha, 50.0, FAST))

    @pytest.mark.parametrize("run", [
        lambda: mc.estimate_single(FIG4, [10.0, 15.0, 20.0, 25.0],
                                   dataclasses.replace(LONG, fading="none")),
        lambda: mc.estimate_single(FIG4, [10.0, 15.0, 20.0, 25.0], LONG),
        lambda: mc.estimate_single(FIG1, [10.0, 30.0, 50.0, 80.0], LONG),
        lambda: mc.estimate_multiobs(FIG4, AlohaParams(0.5, 2), 10.0, LONG)],
        ids=["fig4-nofading", "fig4-rayleigh", "fig1-rayleigh", "fig4-aloha"])
    def test_memory_is_bounded_by_the_block(self, monkeypatch, run):
        # 196 chunks on two workers: blocks of _BLOCK chunks, so that two
        # blocks, not half the run, are in memory at once
        monkeypatch.setattr(mc, "_WORKERS", 2)
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6, peak

    def test_segment_sums_are_sums(self):
        # each segment reduced from a 0 put before it: its sum() to the
        # bit, over lengths that cross the pairwise steps of 8 and 128
        rng = np.random.default_rng(5)
        sizes = np.array([0, 1, 3, 7, 8, 9, 0, 127, 128, 129, 1000, 0])
        x = rng.random(sizes.sum()) * 10.0 ** rng.uniform(-20, 5,
                                                          sizes.sum())
        ends = np.cumsum(sizes)
        want = [x[b - n:b].sum() for b, n in zip(ends, sizes)]
        assert mc._segment_reduce(np.add, x, sizes).tolist() == want
        counts = rng.integers(0, 50, sizes.sum())
        assert mc._segment_reduce(np.maximum, counts, sizes).tolist() == [
            counts[b - n:b].max(initial=0) for b, n in zip(ends, sizes)]

    @pytest.mark.parametrize("fading", ["rayleigh", "none"])
    def test_empty_trials_match_literal_loop(self, fading):
        # R = 60 gives ~2.3 points per trial, so ~10% of trials hold none
        cfg = mc.SimConfig(trials=10_000, seed=4, fading=fading,
                           region_radius=60.0)
        r_O = 20.0
        est = mc.estimate_single(FIG1, [r_O], cfg)
        h, D, last_trial_empty = per_trial(FIG1, r_O, cfg)
        # the run covers a chunk whose last trial has no points
        assert last_trial_empty
        T = cfg.trials
        n_D, sum_h, sum_hd = D.sum(), h.sum(), h[D].sum()
        assert est.posterior_d1[0].count == n_D
        if fading == "rayleigh":
            assert est.prior.value * T == pytest.approx(sum_h, rel=1e-12)
            assert est.posterior_d1[0].value * n_D == pytest.approx(
                sum_hd, rel=1e-12)
        else:
            assert round(est.prior.value * T) == sum_h
            assert round(est.posterior_d1[0].value * n_D) == sum_hd

    @pytest.mark.parametrize("fading", ["rayleigh", "none"])
    # R = 60 gives ~2.3 points per trial, so ~10% of trials hold none
    @pytest.mark.parametrize("region", [60.0, 600.0])
    def test_matches_former_masks(self, monkeypatch, fading, region):
        # unsorted, with a repeated radius; 10_500 trials end on a
        # partial chunk of 260
        grid = [50.0, 10.0, 50.0, 30.0]
        cfg = mc.SimConfig(trials=10_500, seed=6, fading=fading,
                           region_radius=region)
        sums, some_empty = former_mask_sums(FIG1, grid, cfg)
        assert some_empty == (region == 60.0)
        with monkeypatch.context() as m:
            m.setattr(mc, "_sum_over_chunks", lambda kernel, cfg: sums)
            former = mc.estimate_single(FIG1, grid, cfg)
        assert mc.estimate_single(FIG1, grid, cfg) == former

    @pytest.mark.parametrize("p, aloha, r_O, region", [
        (FIG4, AlohaParams(0.5, 2), 10.0, None),
        # R = 60 gives ~2.3 points per trial, so ~10% of trials hold none
        (FIG1, AlohaParams(0.5, 1), 50.0, 60.0),
        # no observed slot: one cell
        (FIG4, AlohaParams(0.5, 0), 10.0, None)],
        ids=["fig4-N2", "fig1-N1-empty", "fig4-N0"])
    def test_aloha_matches_former_sums(self, monkeypatch, p, aloha, r_O,
                                       region):
        # 10_500 trials end on a partial chunk of 260
        cfg = mc.SimConfig(trials=10_500, seed=6, region_radius=region)
        sums, some_empty = former_aloha_sums(p, aloha, r_O, cfg)
        assert some_empty == (region is not None)
        with monkeypatch.context() as m:
            m.setattr(mc, "_sum_over_chunks", lambda kernel, cfg: sums)
            former = mc.estimate_multiobs(p, aloha, r_O, cfg)
        assert repr(mc.estimate_multiobs(p, aloha, r_O, cfg)) == repr(former)

    def test_degenerate_sides_stay_exact(self):
        # on fig4 at r_O = 50 every zone is busy: the busy side is every
        # trial, summed in the same order as the whole
        T = 10_240
        est = mc.estimate_single(FIG4, [50.0], mc.SimConfig(trials=T, seed=0))
        assert est.evidence[0] == mc.Estimate(0.0, 0.0, T)
        assert (est.p_II[0].value, est.p_II[0].stderr) == (1.0, 0.0)
        assert est.posterior_d0[0] == est.prior

    def test_degenerate_sides_stay_exact_without_fading(self):
        # the same run with no fading, where the near points decide three
        # trials in four: still every zone busy, and the busy side the whole
        T = 10_240
        est = mc.estimate_single(FIG4, [50.0], mc.SimConfig(
            trials=T, seed=0, fading="none"))
        assert est.evidence[0] == mc.Estimate(0.0, 0.0, T)
        assert (est.p_II[0].value, est.p_II[0].stderr) == (1.0, 0.0)
        assert est.posterior_d0[0] == est.prior

    @pytest.mark.parametrize("p", [FIG1, FIG4, NOISY],
                             ids=["fig1", "fig4", "noisy"])
    def test_kill_index_is_the_lone_point_boundary(self, p):
        # at the default no-fading region: a trial whose only point lies at
        # k_kill - 1 fails the SINR test, one whose only point lies at
        # k_kill passes, and a near point fails its trial whatever else it
        # holds
        R = mc.auto_region_radius(p, p.density, 1e-3)
        k_kill = mc._kill_index(p, R)
        assert 1 < k_kill < 2**24

        def success(*k):
            return nofading_outcomes(np.array(k), [len(k)], p, R)[0]

        assert (success(k_kill - 1), success(k_kill)) == (0.0, 1.0)
        assert success(*[2**24] * 999, k_kill - 1) == 0.0

    def test_kill_index_beyond_the_lattice(self):
        # in a ball of radius 3 a lone point anywhere fails fig4's test
        assert mc._kill_index(FIG4, 3.0) == 2**24 + 1

    @pytest.mark.parametrize("p, region", [
        (FIG4, None), (NOISY, None),
        # eta >= 1/sigma: no lone point passes, so k_kill is 1 and the split
        # empty; at eta = 1/sigma only a trial with no point succeeds
        (dataclasses.replace(NOISY, eta=1.0 / derive(NOISY).sigma), 15.0),
        (dataclasses.replace(NOISY, eta=2.0 / derive(NOISY).sigma), 15.0),
        # every lone point fails and a trial holds 31 on average: the near
        # field is the whole ball, and no trial of a chunk draws the rest
        (dataclasses.replace(FIG4, density=0.1), 10.0)],
        ids=["fig4", "noisy", "eta-at-margin", "eta-beyond", "all-near"])
    def test_split_matches_former_masks(self, monkeypatch, p, region):
        grid = [region / 6.0, region / 1.5] if region else [10.0, 20.0]
        cfg = mc.SimConfig(trials=10_500, seed=8, fading="none",
                           region_radius=region)
        sums, _ = former_mask_sums(p, grid, cfg)
        with monkeypatch.context() as m:
            m.setattr(mc, "_sum_over_chunks", lambda kernel, cfg: sums)
            former = mc.estimate_single(p, grid, cfg)
        est = mc.estimate_single(p, grid, cfg)
        # repr: a prior of 0 makes p_II nan
        assert repr(est) == repr(former)
        if p.eta >= 1.0 / derive(p).sigma:
            # the literal test: an empty sum is 0, so at the margin exactly
            # the trials with no point succeed, and beyond it none
            h, _, _ = per_trial(p, grid[0], cfg, grid)
            assert est.prior.value * cfg.trials == h.sum()
            assert (h.sum() > 0) == (p.eta == 1.0 / derive(p).sigma)

    @pytest.mark.parametrize("p", [FIG4, NOISY], ids=["fig4", "noisy"])
    def test_split_independent_of_workers(self, monkeypatch, p):
        cfg = mc.SimConfig(trials=10_500, seed=9, fading="none")
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(mc, "_WORKERS", workers)
            runs.append(mc.estimate_single(p, [10.0, 20.0], cfg))
        assert runs[0] == runs[1]

    def test_busy_side_keeps_its_digits(self):
        # on fig4 at r_O = 0.3 a busy zone holds an interferer within 0.3,
        # so its h is below 2e-7: taken as the total minus the clear side,
        # the busy sums would keep few digits, and those of h**2 none
        cfg = mc.SimConfig(trials=10_000, seed=4, region_radius=3.0)
        est = mc.estimate_single(FIG4, [0.3], cfg)
        h, D, _ = per_trial(FIG4, 0.3, cfg)
        busy = h[~D]
        assert len(busy) > 0 and busy.max() < 2e-7
        assert est.posterior_d0[0].value == pytest.approx(busy.mean(),
                                                          rel=1e-12)
        # p_II = sum(h (1-D)) / sum(h), with its delta-method error
        value = busy.sum() / h.sum()
        se = math.sqrt(np.sum((h * ~D - value * h) ** 2)) / h.sum()
        assert est.p_II[0].value == pytest.approx(value, rel=1e-12)
        assert est.p_II[0].stderr == pytest.approx(se, rel=1e-9)

    def test_success_skips_empty_trials(self):
        # sigma = 2 and R = 1: x = 2 u**-2 = [8, 32, 2, 8] at
        # u = k * 2**-24 = [0.5, 0.25, 1.0, 0.5], and far_log = sigma * eta
        p = ModelParams(n=2, density=1e-3, alpha=4, beta=2, r_T=1, eta=0.25)
        k = np.array([2**23, 2**22, 2**24, 2**23], dtype=np.int32)
        # trials 0, 2, 4 and 5 are empty, including the last
        starts = np.array([0, 0, 2, 2, 3, 4])
        counts = np.array([0, 2, 0, 1, 1, 0])
        got = mc._success(k, starts, counts, p, 1.0, 0.5)
        assert got == pytest.approx([1.0, 1 / (9 * 33), 1.0, 1 / 3, 1 / 9,
                                     1.0], rel=1e-15)
        zero = np.zeros(3, dtype=np.int64)
        empty = mc._success(k[:0], zero, zero, p, 1.0, 0.5)
        assert empty.tolist() == [1.0] * 3

    def test_success_slices_whole_trials(self, monkeypatch):
        # slices of 5 points: the same bits as one slice, with empty trials
        # at the start, inside, at a slice's edge and at the end, and
        # trials larger than a slice
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 9, 60)
        counts[[0, 1, 30, -2, -1]] = 0
        counts[[10, 40]] = 13
        k = rng.integers(1, 2**24 + 1, counts.sum(), dtype=np.int32)
        starts = np.cumsum(counts) - counts
        R, far_log = 20.0, -0.3
        whole = mc._success(k, starts, counts, NOISY, R, far_log)
        monkeypatch.setattr(mc, "_SLICE", 5)
        sliced = mc._success(k, starts, counts, NOISY, R, far_log)
        assert sliced.tobytes() == whole.tobytes()
        # log h = far_log - sigma eta - sum(log1p(sigma x)), x by pow
        x = NOISY.sigma * R**-NOISY.alpha * np.power(k * 2.0**-24, -2.0)
        want = [far_log - NOISY.sigma * NOISY.eta - np.log1p(x[a:a + c]).sum()
                for a, c in zip(starts, counts)]
        np.testing.assert_allclose(np.log(sliced), want, rtol=1e-15, atol=0.0)

    # every m = 2 * exponent from 3 to 8 builds u**(m/2) from a square root
    # and products; 2.25 (m = 4.5), 1.0 and 0.5 take np.power
    @pytest.mark.parametrize("exponent", [2.0, 1.5, 3.0, 2.25, 0.5, 1.0,
                                          2.5, 3.5, 4.0])
    def test_pathloss_matches_power(self, exponent):
        # u = k * 2**-24 = [2**-24, 16777 * 2**-24 (about 1e-3), 0.5, 1.0]
        k = np.array([1, 16777, 2**23, 2**24], dtype=np.int32)
        want = 0.37 * np.power(k * 2.0**-24, -exponent)
        np.testing.assert_allclose(mc._pathloss(k, 0.37, exponent), want,
                                   rtol=1e-15, atol=0.0)

    # m = 3 ... 8 and two exponents that take np.power
    @pytest.mark.parametrize("exponent", [1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 2.25,
                                          1.1])
    def test_pathloss_never_rises(self, exponent):
        # the premise of _settle's ring bounds, over the whole lattice
        # k = 1 ... 2**24: in blocks of 2**21 points, and across their edges
        block = 1 << 21
        for scale in (1.0, 560.5**-4, 1e-30):
            last = math.inf
            for lo in range(1, 1 << 24, block):
                x = mc._pathloss(np.arange(lo, lo + block, dtype=np.int32),
                                 scale, exponent)
                assert x[0] <= last and not np.any(np.diff(x) > 0), (scale, lo)
                last = x[-1]

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 1023, 100001])
    def test_volume_draw_is_float32_route(self, n):
        # after the Poisson counts, as in the chunk kernels
        ref, raw = mc._chunk_rng(5, 0), mc._chunk_rng(5, 0)
        ref.poisson(3.0, size=7)
        raw.poisson(3.0, size=7)
        u = 1.0 - ref.random(n, dtype=np.float32)
        k = mc._volume_draw(raw, n)
        assert k.dtype == np.int32 and k.shape == (n,)
        np.testing.assert_array_equal(k, u.astype(np.float64) * 2.0**24)
        # with Aloha contention the Rayleigh kernel draws its marks, as
        # doubles, after the points
        assert raw.random() == ref.random()

    def test_guard_zone_boundary(self, monkeypatch):
        # every point of a run put just inside, or on, the guard zone:
        # u < thr is decided exactly, for the single-slot thresholds and
        # the Aloha one alike
        real = mc._volume_draw

        def all_at(k):
            def draw(rng, n):
                real(rng, n)  # the stream moves on as in a real draw
                return np.full(n, k, dtype=np.int32)
            monkeypatch.setattr(mc, "_volume_draw", draw)

        cfg = mc.SimConfig(trials=10_000, seed=4, region_radius=100.0)
        # thr = 0.09 lies between grid points, 2**-8 on one
        for r_O, cut in ((30.0, 1509950), (100.0 * 2**-4, 2**16)):
            for k, clear in ((cut - 1, False), (cut, True)):
                all_at(k)
                est = mc.estimate_single(FIG1, [r_O], cfg)
                assert (est.evidence[0].value == 1.0) == clear
        # thr = 0.25 + 2**-30, just above 2**22 * 2**-24: k = 2**22 is
        # inside, though thr rounds to float32 0.25
        r_O = 100.0 * math.sqrt(0.25 + 2.0**-30)
        thr = (r_O / 100.0) ** 2
        assert thr > 0.25 and np.float32(thr) == 0.25
        for k, clear in ((2**22, False), (2**22 + 1, True)):
            all_at(k)
            est = mc.estimate_multiobs(FIG1, AlohaParams(0.5, 1), r_O, cfg)
            busy = sum(est.posterior[(K, 0)].count for K in range(2))
            assert (busy == 0) == clear

    def test_config_hash_names_generator(self, monkeypatch):
        cfg = dataclasses.replace(FAST, trials=10_000)
        est = mc.estimate_single(FIG1, [20.0], cfg)
        assert est.config_hash == mc.config_hash(FIG1, cfg, [20.0])
        # the same seed on another generator gives other estimates, so the
        # generator's name must give another hash
        monkeypatch.setattr(mc, "_BIT_GENERATOR", np.random.Philox)
        other = mc.estimate_single(FIG1, [20.0], cfg)
        assert other.prior.value != est.prior.value
        assert other.config_hash != est.config_hash


def rerun_in_child(conn):
    conn.send(repr(mc.estimate_single(FIG1, [20.0, 50.0], FAST)))
    conn.close()


class TestThreadPool:
    def test_one_pool_per_worker_count(self):
        assert mc._pool(2) is mc._pool(2)
        assert mc._pool(1) is not mc._pool(2)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork on this platform")
    def test_forked_child_simulates(self, monkeypatch):
        # the child holds the parent's pool but none of its threads: had
        # it kept that pool, its chunks would never run
        monkeypatch.setattr(mc, "_WORKERS", 2)
        want = repr(mc.estimate_single(FIG1, [20.0, 50.0], FAST))
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=rerun_in_child, args=(send,))
        child.start()
        send.close()
        try:
            assert recv.poll(60), "the forked child did not finish its run"
            assert recv.recv() == want
        finally:
            child.kill()
            child.join()


class TestPinnedEstimates:
    """sha256 of ``repr`` of whole estimates at fixed seeds, for each
    chunk kernel and use: the Rayleigh kernel single-slot and with Aloha
    contention, and the no-fading kernel. A change to any drawn point,
    guard-zone test or rounding of the sums moves them."""

    @pytest.mark.parametrize("run, digest", [
        (lambda: mc.estimate_single(FIG1, [10.0, 30.0, 50.0],
                                    mc.SimConfig(trials=10_240, seed=1)),
         "d1e0327d633304234a1a251848c2b896c0abc925cd69950cc7059b6adb96f329"),
        (lambda: mc.estimate_single(FIG4, [10.0, 25.0],
                                    mc.SimConfig(trials=10_240, seed=2,
                                                 fading="none")),
         # re-pinned when the no-fading chunk came to draw its near points
         # first, and again when the trials with none came to draw ring
         # counts, and positions only in the rings their bounds need
         "158acaeda7f3ff0f48af42350b1a73b42238e211fdf251945463f6aea97fc572"),
        (lambda: mc.estimate_multiobs(FIG4, AlohaParams(0.5, 2), 10.0,
                                      mc.SimConfig(trials=10_240, seed=3)),
         # re-pinned when the Aloha cells came to be summed pairwise, as
         # the single-slot sides are, in place of weighted bincounts that
         # add in sequence; the draws are unchanged
         # (test_aloha_matches_former_sums)
         "74e934bc43d87cbb7f727c6af6c05ee9e6f929541e87371cb6461ed55fdf4981"),
        # a default region at the ceiling 10 r_max = 20: the same
        # estimates, bit for bit, as under the former fixed 10 r_max
        (lambda: mc.estimate_single(FIG1, [0.5, 2.0],
                                    mc.SimConfig(trials=10_240, seed=4)),
         "f2b2d09f6713f7fe22aed859cc90d2961f80d06f72e2db7428d8eb26a6074715"),
    ], ids=["fig1-rayleigh", "fig4-nofading", "fig4-aloha", "fig1-ceiling"])
    def test_digest(self, run, digest):
        assert hashlib.sha256(repr(run()).encode()).hexdigest() == digest


class SpyRng:
    """A generator that records the range and size of each
    ``integers`` draw."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def integers(self, low, high, size, dtype):
        self.calls.append((int(low), int(high), int(size)))
        return self.rng.integers(low, high, size, dtype)


class TestSettle:
    """With no fading, a trial that the bounds of its ring counts settle
    has the outcome that the float sum over all of its points gives."""

    @staticmethod
    def settle(p, grid, region, seed, sizes=(1024, 1024)):
        """A block of chunks of ``sizes`` open trials of the estimator's
        rings for ``grid``: their counts, outcomes and nearest ring edges
        from :func:`mc._settle`, and every trial's points, those of the
        rings it drew replayed chunk by chunk from the chunk's stream by
        :func:`literal_rings` and the rest from an independent one. The last
        chunk's first trial holds about 4000 points, so that where there
        are rings its margin eps is wider than the others'."""
        cfg = mc.SimConfig(trials=10_000, fading="none", region_radius=region)
        R = mc._region_radius(p, p.density, max(grid), cfg)
        cuts = (np.asarray(grid) / R) ** p.n / mc._U_RESOLUTION
        k_kill = mc._kill_index(p, R) if 1.0 / p.sigma > p.eta else 1
        edges, bounds = mc._rings(k_kill, cuts, p, R)
        means = p.density * p.c_n * R**p.n * 2.0**-24 * np.diff(edges)
        gen = np.random.default_rng(seed)
        counts = gen.poisson(means[:, None], size=(len(means), sum(sizes)))
        if len(means):
            counts[:, -sizes[-1]] = gen.poisson(4000.0 * means / means.sum())
        rngs = [np.random.default_rng([seed, c]) for c in range(len(sizes))]
        replays = copy.deepcopy(rngs)
        h, nearest = mc._settle(rngs, counts, list(sizes), edges, bounds, p,
                                R)
        k, undrawn, eps = [], [], set()
        for c, (rng, replay) in enumerate(zip(rngs, replays)):
            part = counts[:, sum(sizes[:c]):sum(sizes[:c + 1])]
            rings, left = literal_rings(replay, part, edges, p, R,
                                        np.random.default_rng([seed, c, 1]))
            # the replay accounts for every draw of the chunk
            assert replay.bit_generator.state == rng.bit_generator.state
            k += [np.concatenate([r[j] for j in sorted(r)]
                                 or [np.zeros(0, int)]) for r in rings]
            undrawn.append(left)
            eps.add(chunk_eps(part))
        assert len(eps) == (len(sizes) if len(means) else 1)
        return R, cuts, h, nearest, k, np.concatenate(undrawn)

    @pytest.mark.parametrize("p, grid, region", [
        (FIG4, (10.0, 15.0, 20.0, 25.0), None),
        (NOISY, (10.0, 20.0, 30.0), None),
        # in a ball of radius 3 a lone point anywhere fails fig4's test:
        # k_kill lies beyond the lattice, and there is no ring
        (FIG4, (1.0, 2.0), 3.0),
        # eta >= 1/sigma: k_kill is 1, the rings cover the whole ball, and a
        # trial succeeds only if it holds no point and eta = 1/sigma
        (dataclasses.replace(NOISY, eta=1.0 / NOISY.sigma), (2.5, 10.0), 15.0),
        (dataclasses.replace(NOISY, eta=2.0 / NOISY.sigma), (2.5, 10.0), 15.0)],
        ids=["fig4", "noisy", "beyond-lattice", "eta-at-margin",
             "eta-beyond"])
    def test_bounds_agree_with_full_sum(self, p, grid, region):
        R, cuts, h, nearest, k, undrawn = self.settle(p, grid, region, 24)
        full = nofading_outcomes(np.concatenate(k), [len(x) for x in k], p, R)
        assert np.array_equal(h, full)
        # each zone's indicator: no point below its cut
        for cut in cuts:
            clear = [not np.any(x < cut) for x in k]
            assert np.array_equal(nearest >= cut, clear)
        if region is None:
            # most trials are settled with points left undrawn
            assert undrawn.mean() > 0.9, undrawn.mean()
            assert 0.05 < h.mean() < 0.95
        if region == 3.0:
            assert len(k[0]) == 0 and h.all()

    # One index a ring, so the bounds are the trial's exact sum S, with the
    # margin 1/sigma - eta set to S (1 + offset): within 1e-13 of it the
    # trial is drawn, and beyond 1e-11 settled by its counts. A second
    # chunk holds the same trial, and one of 30 000 points that fails at
    # once but widens that chunk's eps to 30 003 * 2**-51 = 1.3e-11, so
    # there the trial is drawn at every offset.
    @pytest.mark.parametrize("offset", [5e-14, -5e-14, 1e-11, -1e-11])
    def test_near_margin_is_drawn(self, offset):
        R = 100.0
        edges = np.array([750_000, 750_001, 1_700_000, 1_700_001])
        counts = np.array([[2, 2, 0], [0, 0, 30_000], [3, 3, 0]])
        bounds = mc._pathloss(np.stack([edges[1:] - 1, edges[:-1]]),
                              R**-4, 2.0)
        assert np.array_equal(bounds[0, [0, 2]], bounds[1, [0, 2]])
        S = 2 * bounds[0, 0] + 3 * bounds[0, 2]
        base = ModelParams(n=2, density=1e-3, alpha=4, beta=3, r_T=10)
        p = dataclasses.replace(base, eta=1.0 / base.sigma - S * (1 + offset))
        margin = 1.0 / p.sigma - p.eta
        assert abs(margin / S - 1 - offset) < 1e-14
        rngs = [SpyRng(np.random.default_rng(c)) for c in range(2)]
        h, _ = mc._settle(rngs, counts, [1, 2], edges, bounds, p, R)
        # drawn at every ring with points, or at none
        drawn = [(750_000, 750_001, 2), (1_700_000, 1_700_001, 3)]
        assert rngs[0].calls == ([] if abs(offset) > 1e-12 else drawn)
        assert rngs[1].calls == drawn
        k = np.repeat(edges[[0, 2]], [2, 3]).astype(np.int32)
        assert h[0] == h[1] == nofading_outcomes(k, [5], p, R)[0] \
            == float(offset > 0)
        assert h[2] == 0.0


class TestFarField:
    @pytest.mark.parametrize("p", [
        FIG1, FIG4, NOISY, ModelParams(n=1, density=5e-3, alpha=2.5, beta=3, r_T=5),
        ModelParams(n=3, density=1e-5, alpha=4.5, beta=3, r_T=6)],
        ids=["fig1", "fig4", "noisy", "n1", "n3"])
    # 1e-3 and 0.1: the near-field region of a guard zone far inside the
    # knee r = sigma**(1/alpha), where the integrand peaks
    @pytest.mark.parametrize("R", [5.0, 60.0, 600.0, 6e4, 1e-3, 0.1])
    def test_matches_closed_form(self, p, R):
        # -density * c_n * sigma**delta * power_tail(R**alpha / sigma, delta)
        d = derive(p)
        want = -p.density * d.c_n * d.sigma**d.delta * specfn.power_tail(
            R**p.alpha / d.sigma, d.delta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no IntegrationWarning
            got = mc._far_field_log(p, p.density, R)
        assert got == pytest.approx(want, rel=1e-13)


    @pytest.mark.parametrize("n, alpha", [(2, 2.2), (2, 3.0), (2, 4.0),
                                          (2, 6.0), (1, 1.2), (3, 7.0)])
    @pytest.mark.parametrize("R_over_knee", [1e-3, 0.5, 2.0, 50.0])
    def test_against_mpmath(self, n, alpha, R_over_knee):
        # alpha - n from 0.2 to 4, R inside and beyond the knee
        # r = sigma**(1/alpha); the integral in t = log(r/R), in 30 digits
        p = ModelParams(n=n, density=1e-3, alpha=alpha, beta=5, r_T=10)
        d = derive(p)
        knee = d.sigma ** (1.0 / alpha)
        R = R_over_knee * knee
        with mpmath.workdps(30):
            k = mpmath.mpf(R) ** alpha / mpmath.mpf(d.sigma)
            t_knee = max(-mpmath.log(k) / alpha, 0)
            integral = mpmath.quad(
                lambda t: mpmath.exp(n * t) / (1 + k * mpmath.exp(alpha * t)),
                [0, t_knee, t_knee + 5, t_knee + 50, mpmath.inf])
            want = -p.density * d.c_n * n * mpmath.mpf(R) ** n * integral
        assert mc._far_field_log(p, p.density, R) == pytest.approx(
            float(want), rel=1e-13)


def ring_edges(k_kill, cuts):
    """The estimator's rings, e_j <= k < e_{j+1} from e_0 = k_kill to
    2**24 + 1: mc._RINGS log-spaced in k, and a ring edge at every cut
    above k_kill."""
    top = 2**24 + 1
    edges = {round(e) for e in np.geomspace(k_kill, top, mc._RINGS + 1)}
    return sorted(edges | {math.ceil(c) for c in cuts if c > k_kill})


def chunk_eps(counts):
    """The relative margin of :func:`mc._settle`'s decisions by bounds for
    one chunk's ring counts: 2**-51 times the most points a trial holds
    plus the rings, and at least 1e-12."""
    return max(1e-12, 2.0**-51 * (counts.sum(axis=0).max(initial=0)
                                  + len(counts)))


def literal_rings(rng, counts, edges, p, R, fill):
    """The positions of one chunk's open trials known by their ring counts
    (``counts[j, t]`` in ring ``edges[j] <= k < edges[j + 1]``), drawn
    from ``rng`` in the order of :func:`mc._settle` by a literal loop: pass
    j, every trial that the bounds of its rings leave undecided (count
    times the pathloss at a ring's last index and at its first, by the
    relative margin :func:`chunk_eps`) draws ring j's positions, all such
    trials at once. A ring that a trial never draws takes its positions
    from ``fill``. Returns each trial's ring -> positions, and whether it
    left a ring with points to ``fill``."""
    margin = 1.0 / p.sigma - p.eta
    eps = chunk_eps(counts)
    J, size = counts.shape

    def x(k):
        return R ** -p.alpha * (k * 2.0**-24) ** (-p.alpha / p.n)

    low = [counts[j] * x(edges[j + 1] - 1) for j in range(J)]
    high = [counts[j] * x(edges[j]) for j in range(J)]
    exact = np.zeros(size)
    rings = [{} for _ in range(size)]
    alive = range(size)
    for j in range(J):
        still = []
        for t in alive:
            lo = exact[t] + sum(low[i][t] for i in range(j, J))
            hi = exact[t] + sum(high[i][t] for i in range(j, J))
            if (lo <= margin + eps * abs(margin)
                    and hi > margin - eps * abs(margin)):
                still.append(t)
        alive = still
        total = sum(counts[j][t] for t in alive)
        if total:
            pts = rng.integers(edges[j], edges[j + 1], total, dtype=np.int32)
            for t in alive:
                rings[t][j], pts = pts[:counts[j][t]], pts[counts[j][t]:]
                exact[t] += x(rings[t][j]).sum()
    undrawn = np.zeros(size, dtype=bool)
    for t in range(size):
        for j in range(J):
            if j not in rings[t]:
                undrawn[t] |= counts[j][t] > 0
                rings[t][j] = fill.integers(edges[j], edges[j + 1],
                                            counts[j][t], dtype=np.int32)
    return rings, undrawn


def nofading_points(rng, p, R, size, cuts, fill):
    """One no-fading chunk's networks, drawn from ``rng`` in the
    estimator's order by a literal loop over the trials.

    Every trial draws a Poisson(mu q) count of near points, k uniform on
    [1, k_kill); a trial with none is open. Each open trial draws a
    Poisson count for each ring of :func:`ring_edges`, and their positions
    come from :func:`literal_rings`. Returns the volume indices k
    of every trial's points, in trial order (a closed trial holds only its
    near points, which fail it and decide its zones), and the per-trial
    counts."""
    margin = 1.0 / p.sigma - p.eta
    k_kill = mc._kill_index(p, R) if margin > 0 else 1
    q = (k_kill - 1) * 2.0**-24
    mu = p.density * p.c_n * R**p.n
    points = [[] for _ in range(size)]
    inner = np.zeros(size, dtype=int)
    if k_kill > 1:
        inner = rng.poisson(mu * q, size=size)
        near = rng.integers(1, k_kill, size=inner.sum(), dtype=np.int32)
        for t, pts in zip(np.flatnonzero(inner), np.split(
                near, np.cumsum(inner[inner > 0])[:-1])):
            points[t] = list(pts)
    open_ = np.flatnonzero(inner == 0)
    edges = ring_edges(k_kill, cuts)
    J = len(edges) - 1
    counts = rng.poisson(mu * 2.0**-24 * np.diff(edges)[:, None],
                         size=(J, len(open_)))
    rings, _ = literal_rings(rng, counts, edges, p, R, fill)
    for t, trial in enumerate(open_):
        for j in range(J):
            points[trial] += list(rings[t][j])
    return (np.array([k for pts in points for k in pts], dtype=np.int32),
            np.array([len(pts) for pts in points]))


def chunk_points(p, R, cuts, cfg, chunk_idx, size):
    """The points of one chunk of :func:`mc.estimate_single`, drawn from
    its stream: under Rayleigh fading as float32 uniforms u, k = u * 2**24;
    with no fading, in full (:func:`nofading_points`), the rings the
    estimator leaves undrawn from a stream of their own."""
    rng = mc._chunk_rng(cfg.seed, chunk_idx)
    if cfg.fading == "rayleigh":
        counts = rng.poisson(p.density * p.c_n * R**p.n, size=size)
        u = 1.0 - rng.random(counts.sum(), dtype=np.float32)
        return (u * 2**24).astype(np.int32), counts
    fill = np.random.default_rng(np.random.SeedSequence(
        [cfg.seed, chunk_idx, 2]))
    return nofading_points(rng, p, R, size, cuts, fill)


def nofading_outcomes(k, counts, p, R):
    """The no-fading SINR test, trial by trial: 1 where the float sum of
    the pathloss ``R**-alpha u**(-alpha/n)`` by pow, ``u = k * 2**-24``,
    over the trial's points (``counts[t]`` of them, in order) is within
    the margin ``1/sigma - eta``, else 0."""
    x = R ** -p.alpha * (np.asarray(k) * 2.0**-24) ** (-p.alpha / p.n)
    margin = 1.0 / p.sigma - p.eta
    ends = np.cumsum(counts, dtype=int)
    return np.array([float(x[b - c:b].sum() <= margin)
                     for b, c in zip(ends, counts)])


def former_mask_sums(p, grid, cfg):
    """The chunk sums of :func:`mc.estimate_single` as a literal loop over
    the radii builds them: h over all of each trial's points, by
    :func:`mc._success` under Rayleigh fading and
    :func:`nofading_outcomes` without; for each radius a mask set to 1, then cleared at the
    trial of every point with u < thr, and four masked sums. Also returns
    whether some trial has no points."""
    R = mc._region_radius(p, p.density, max(grid), cfg)
    thresholds = (np.asarray(grid) / R) ** p.n
    total, some_empty = 0, False
    for chunk_idx, size in enumerate(mc._chunk_sizes(cfg.trials)):
        k, counts = chunk_points(p, R, thresholds * 2.0**24, cfg, chunk_idx,
                                 size)
        if cfg.fading == "rayleigh":
            h = mc._success(k, np.cumsum(counts) - counts, counts, p, R,
                            mc._far_field_log(p, p.density, R))
        else:
            # a trial's near points make its h 0 here too
            h = nofading_outcomes(k, counts, p, R)
        hh = h * h
        some_empty |= bool(np.any(counts == 0))
        trial = np.repeat(np.arange(size), counts)
        clear, h_d, hh_d, h_b, hh_b = [], [], [], [], []
        for thr in thresholds:
            D = np.ones(size, dtype=bool)
            D[trial[k * 2.0**-24 < thr]] = False
            clear.append(D.sum())
            h_d.append(h[D].sum())
            hh_d.append(hh[D].sum())
            h_b.append(h[~D].sum())
            hh_b.append(hh[~D].sum())
        # one cell, indexed [sum, side] as mc._chunk_sums's
        busy = [size - n for n in clear]
        total = total + np.array([[[size, *clear, *busy],
                                   [h.sum(), *h_d, *h_b],
                                   [hh.sum(), *hh_d, *hh_b]]])
    return total, some_empty


def former_aloha_sums(p, aloha, r_O, cfg):
    """The chunk sums of :func:`mc.estimate_multiobs` as a literal loop
    over each chunk's stream builds them: the Poisson counts; the points
    as float32 uniforms u, k = u * 2**24; in each observed slot a mark for
    each point with u < thr, in order; then a mark for every point in the
    decision slot. Trial by trial, K counts the observed slots where no
    marked point lies inside the zone, D is whether none of the points
    marked in the decision slot does, and h is :func:`mc._success` over
    those points. Each chunk sums each (K, side) cell by ``.sum()``,
    indexed [K, sum, side] as :func:`mc._chunk_sums`. Also returns whether
    some trial has no points."""
    R = mc._region_radius(p, aloha.p * p.density, r_O, cfg)
    far_log = mc._far_field_log(p, aloha.p * p.density, R)
    thr = (r_O / R) ** p.n
    total, some_empty = 0, False
    for chunk_idx, size in enumerate(mc._chunk_sizes(cfg.trials)):
        rng = mc._chunk_rng(cfg.seed, chunk_idx)
        counts = rng.poisson(p.density * p.c_n * R**p.n, size=size)
        u = 1.0 - rng.random(counts.sum(), dtype=np.float32)
        k = (u.astype(np.float64) * 2**24).astype(np.int32)
        inside = k * 2.0**-24 < thr
        slots = []
        for _ in range(aloha.N):
            marks = np.zeros(len(k), bool)
            marks[inside] = rng.random(inside.sum()) < aloha.p
            slots.append(marks)
        active = rng.random(len(k)) < aloha.p
        some_empty |= bool(np.any(counts == 0))
        K, D, h = [], [], []
        for lo, hi in zip(np.cumsum(counts) - counts, np.cumsum(counts)):
            K.append(sum(not marks[lo:hi].any() for marks in slots))
            mine = active[lo:hi]
            D.append(not inside[lo:hi][mine].any())
            pts = k[lo:hi][mine]
            h.append(mc._success(pts, np.zeros(1, int), np.array([len(pts)]),
                                 p, R, far_log)[0])
        K, D, h = np.array(K), np.array(D), np.array(h)
        cells = []
        for cell in range(aloha.N + 1):
            sides = [K == cell, (K == cell) & D, (K == cell) & ~D]
            cells.append([[m.sum() for m in sides],
                          [h[m].sum() for m in sides],
                          [(h * h)[m].sum() for m in sides]])
        total = total + np.array(cells)
    return total, some_empty


def per_trial(p, r_O, cfg, grid=None):
    """Per-trial h and guard-zone indicator D at ``r_O`` by a literal loop
    over the chunk streams and region of the estimator run on ``grid``
    (default ``[r_O]``). h is the success probability under Rayleigh
    fading, else the 0/1 outcome of the SINR test. Also returns whether
    some chunk's last trial has no points."""
    grid = [r_O] if grid is None else grid
    R = mc._region_radius(p, p.density, max(grid), cfg)
    far_log = mc._far_field_log(p, p.density, R)
    cuts = (np.asarray(grid) / R) ** p.n * 2.0**24
    h, D = [], []
    last_trial_empty = False
    for chunk_idx, start in enumerate(range(0, cfg.trials, mc._CHUNK)):
        size = min(mc._CHUNK, cfg.trials - start)
        k, counts = chunk_points(p, R, cuts, cfg, chunk_idx, size)
        u = (k * 2.0**-24).astype(np.float32)
        last_trial_empty |= counts[-1] == 0
        lo = 0
        for t in range(size):
            pts = u[lo:lo + counts[t]].astype(np.float64)
            lo += counts[t]
            x = R ** -p.alpha * pts ** (-1.0 / p.delta)
            if cfg.fading == "rayleigh":
                # success probability given the points: prod 1/(1+s x)
                h.append(math.exp(far_log - p.sigma * p.eta
                                  - np.sum(np.log1p(p.sigma * x))))
            else:
                h.append(float(np.sum(x) <= 1.0 / p.sigma - p.eta))
            D.append(not np.any(pts < (r_O / R) ** p.n))
    return np.array(h), np.array(D), last_trial_empty


def literal_sample(p, grid, cfg):
    """Reference sampler: draw every interferer's Exp(1) fade and the
    receiver's, and apply the SINR test trial by trial.

    Inside the estimator's region R1 it uses the estimator's chunk
    streams, so the networks there are the ones :func:`mc.estimate_single`
    sees; the fades come after them in each stream. The ring from R1 out
    to the no-fading region R (``cfg.region_radius`` or
    :func:`mc.auto_region_radius`) is drawn, with its fades, from an
    independent stream per chunk; interferers beyond R are left out.
    Returns the 0/1 outcomes H (per trial) and D (per radius and trial).
    """
    d = derive(p)
    R1 = mc._region_radius(p, p.density, max(grid), cfg)
    R = cfg.region_radius or mc.auto_region_radius(p, p.density, cfg.bias_tol)
    thresholds = (np.asarray(grid) / R1) ** p.n
    H, D = [], []
    for chunk_idx, start in enumerate(range(0, cfg.trials, mc._CHUNK)):
        size = min(mc._CHUNK, cfg.trials - start)
        rng = mc._chunk_rng(cfg.seed, chunk_idx)
        counts = rng.poisson(p.density * d.c_n * R1**p.n, size=size)
        u = 1.0 - rng.random(counts.sum(), dtype=np.float32)
        fades = rng.exponential(size=len(u))
        own = rng.exponential(size=size)
        # the ring R1 < r < R: r**n uniform on [R1**n, R**n]
        ring = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, chunk_idx, 1]))
        ring_counts = ring.poisson(p.density * d.c_n * (R**p.n - R1**p.n),
                                   size=size)
        r_n = R1**p.n + ring.random(ring_counts.sum()) * (R**p.n - R1**p.n)
        ring_sum = np.bincount(
            np.repeat(np.arange(size), ring_counts),
            weights=r_n ** (-1.0 / d.delta) * ring.exponential(size=len(r_n)),
            minlength=size)
        lo = 0
        for t in range(size):
            pts = slice(lo, lo + counts[t])
            lo += counts[t]
            u_t = u[pts].astype(np.float64)
            interference = ring_sum[t] + np.sum(
                R1 ** -p.alpha * u_t ** (-1.0 / d.delta) * fades[pts])
            H.append(own[t] >= d.sigma * (p.eta + interference))
            D.append([not np.any(u_t < thr) for thr in thresholds])
    return np.array(H, dtype=float), np.array(D, dtype=float).T


def bernoulli_rho(H, D):
    """Phi coefficient of two 0/1 samples, with the delta-method standard
    error over the four cell frequencies (by central differences)."""
    T = len(H)
    cells = np.array([np.mean(H * D), np.mean(H * (1 - D)),
                      np.mean((1 - H) * D), np.mean((1 - H) * (1 - D))])

    def phi(c):
        h, dd = c[0] + c[1], c[0] + c[2]
        return (c[0] - h * dd) / math.sqrt(h * (1 - h) * dd * (1 - dd))

    step = 1e-7
    grad = np.array([(phi(cells + step * e) - phi(cells - step * e))
                     / (2 * step) for e in np.eye(4)])
    var = cells @ grad**2 - (cells @ grad) ** 2
    return phi(cells), math.sqrt(var / T)


class TestAgainstLiteralSampler:
    """Fades integrated out against fades drawn, on the same networks."""

    @pytest.mark.parametrize("p, grid, cfg", [
        # R = 3000 keeps the literal loop short; the interferers beyond it,
        # which only the literal sampler leaves out, lower its prior by
        # 1.3e-3, a quarter of the combined SE (the other two configs'
        # default regions leave out 1e-3 relative, about 0.1 SE)
        (FIG1, [10.0, 30.0, 50.0, 80.0],
         mc.SimConfig(trials=10_000, seed=21, region_radius=3000.0)),
        (FIG4, [10.0, 15.0, 20.0, 25.0], mc.SimConfig(trials=10_000, seed=22)),
        (NOISY, [10.0, 20.0, 30.0], mc.SimConfig(trials=10_000, seed=23)),
    ], ids=["fig1", "fig4", "noisy"])
    def test_within_3_combined_se(self, p, grid, cfg):
        est = mc.estimate_single(p, grid, cfg)
        H, D = literal_sample(p, grid, cfg)
        checks = [("prior", est.prior, H.mean(),
                   math.sqrt(H.var() / len(H)))]

        def cond_mean(x, given):
            sel = x[given == 1]
            return sel.mean(), math.sqrt(sel.var() / len(sel))

        for i, r in enumerate(grid):
            Di = D[i]
            assert est.evidence[i].value == Di.mean()
            checks += [
                (f"posterior_d1@{r}", est.posterior_d1[i], *cond_mean(H, Di)),
                (f"posterior_d0@{r}", est.posterior_d0[i],
                 *cond_mean(H, 1 - Di)),
                (f"p_I@{r}", est.p_I[i], *cond_mean(Di, 1 - H)),
                (f"p_II@{r}", est.p_II[i], *cond_mean(1 - Di, H)),
                (f"rho@{r}", est.rho[i], *bernoulli_rho(H, Di)),
            ]
        bad = [(name, got.value, ref, (got.value - ref)
                / math.hypot(got.stderr, ref_se))
               for name, got, ref, ref_se in checks
               if not abs(got.value - ref) <= 3 * math.hypot(got.stderr, ref_se)]
        assert not bad


class TestCalibration:
    """The reported standard errors match the spread over replicated seeds."""

    SEEDS = range(150)

    @staticmethod
    @functools.cache
    def replicated(kind, p, grid, region):
        """:meth:`named` estimates of one case at every seed, made once per
        test run: the tests of one case share its runs."""
        runs = []
        for seed in TestCalibration.SEEDS:
            cfg = mc.SimConfig(trials=10_000, seed=seed, region_radius=region,
                               fading="none" if kind == "none" else "rayleigh")
            est = (mc.estimate_multiobs(p, AlohaParams(p=0.5, N=1), grid, cfg)
                   if kind == "aloha" else mc.estimate_single(p, grid, cfg))
            runs.append(TestCalibration.named(est))
        return runs

    @staticmethod
    def named(est):
        if isinstance(est, mc.MultiObsEstimates):
            out = {f"{q}[{k}]": e for q in ("p_K", "p_h_given_K", "p_d_given_K")
                   for k, e in enumerate(getattr(est, q))}
            out.update({f"posterior{key}": e
                        for key, e in est.posterior.items()})
            return out
        out = {"prior": est.prior}
        for q in ("evidence", "posterior_d1", "posterior_d0", "rho", "p_I",
                  "p_II"):
            out.update({f"{q}[{r:g}]": e
                        for r, e in zip(est.r_O_grid, getattr(est, q))})
        return out

    # grids are tuples, so that the cache of replicated() can key on them
    @pytest.mark.parametrize("kind, p, grid, region", [
        ("rayleigh", FIG1, (20.0, 50.0), 200.0),
        ("none", FIG1, (20.0, 50.0), 200.0),
        ("aloha", FIG1, 50.0, 200.0),
        # default regions: the shell rule between its clamps (135.7 on
        # fig1, 185.3 at the Aloha density, 42.6 on fig4), and at its
        # ceiling 10 r_max = 30 on fig4, where every zone is small
        ("rayleigh", FIG1, (20.0, 50.0), None),
        ("aloha", FIG1, 50.0, None),
        ("rayleigh", FIG4, (10.0, 15.0), None),
        ("rayleigh", FIG4, (1.5, 3.0), None),
        # the no-fading region 560.5 of fig4, where the near points decide
        # three trials in four
        ("none", FIG4, (10.0, 15.0), None),
        # eta > 0: the margin 1/sigma - eta, 0.7 of 1/sigma
        ("none", NOISY, (10.0, 20.0), None)],
        ids=["rayleigh", "none", "aloha", "rayleigh-default", "aloha-default",
             "rayleigh-default-shell", "rayleigh-default-small",
             "none-default", "none-noisy"])
    def test_sd_over_se(self, kind, p, grid, region):
        runs = self.replicated(kind, p, grid, region)
        ratios = {}
        for name in runs[0]:
            values = np.array([r[name].value for r in runs])
            se = np.array([r[name].stderr for r in runs])
            if not se.any():
                # an outcome certain in this model (no fading, r_O = 50:
                # a clear zone always succeeds) has no error to calibrate
                assert np.ptp(values) == 0, name
                continue
            ratios[name] = np.std(values, ddof=1) / math.sqrt(np.mean(se**2))
        off = {k: round(v, 3) for k, v in ratios.items()
               if not 0.8 <= v <= 1.25}
        assert not off, ratios

    def test_nofading_pooled_bias(self):
        # the mean over the seeds of the none-default case, whose SE is
        # about 1/12 of one run's, against the closed forms
        grid = (10.0, 15.0)
        runs = self.replicated("none", FIG4, grid, None)
        want = {"prior": levy_prior(FIG4)}
        want.update({f"posterior_d1[{r:g}]": posterior_nofade(FIG4, r).value
                     for r in grid})
        # read from the ring counts of the open trials
        want.update({f"evidence[{r:g}]": evidence_success(FIG4, r)
                     for r in grid})
        z = {}
        for name, value in want.items():
            values = np.array([r[name].value for r in runs])
            se = np.array([r[name].stderr for r in runs])
            z[name] = (values.mean() - value) / math.sqrt(
                np.mean(se**2) / len(runs))
        assert all(abs(v) <= 3.0 for v in z.values()), z


class TestNoFading:
    def test_levy_prior_loose(self):
        p4 = ModelParams(n=2, density=2e-3, alpha=4, beta=5, r_T=10)
        cfg = mc.SimConfig(trials=10_000, seed=3, fading="none")
        est = mc.estimate_single(p4, [10.0], cfg)
        assert abs(est.prior.value - levy_prior(p4)) < 4 * est.prior.stderr


class TestResolution:
    """The volume coordinate u = 1 - a float32 uniform is a multiple of
    2**-24, so a guard zone with (r_O / R)**n at most that is never busy:
    the simulator refuses it rather than report a wrong estimate."""

    def test_single_raises(self):
        # the no-fading region of fig4 is R = 560: (0.1 / 560)**2 = 3.2e-8
        cfg = mc.SimConfig(trials=10_240, fading="none")
        with pytest.raises(RuntimeError, match=r"r_O = 0\.1 .*R = 560"):
            mc.estimate_single(FIG4, [0.1, 50.0], cfg)

    def test_multiobs_raises(self):
        cfg = mc.SimConfig(trials=10_240, region_radius=560.0)
        with pytest.raises(RuntimeError, match=r"2\*\*-24"):
            mc.estimate_multiobs(FIG4, AlohaParams(0.5, 1), 0.1, cfg)

    def test_limit(self):
        r_O = 560.0 * 2.0 ** -12  # (r_O / R)**2 = 2**-24 exactly
        with pytest.raises(RuntimeError):
            mc._check_resolution(r_O, 560.0, 2)
        mc._check_resolution(1.001 * r_O, 560.0, 2)
