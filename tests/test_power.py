"""Monte Carlo engine: determinism, calibration sanity, and the searches.

Heavy calibration at the contract replication counts lives in the
acceptance suite; these tests keep replication budgets small.
"""

import math

import numpy as np
import pytest

from mixrank import power
from mixrank.errors import DomainError, InsufficientDataError, SearchOverflowError
from mixrank.mixture import MixtureParams, sample
from mixrank.power import (
    SimConfig,
    TestKind,
    empirical_are,
    estimate_power,
    estimate_size,
    min_sample_size,
    power_ratio_surface,
)
from mixrank.rank_tests import Sidedness
from mixrank.streams import replication_rng


def config(**overrides):
    base = dict(
        alpha=0.05,
        sidedness=Sidedness.GREATER,
        nreps=4000,
        master_seed=1234,
        max_parallelism=1,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_sim_config_validation():
    with pytest.raises(DomainError):
        config(alpha=0.0)
    with pytest.raises(DomainError):
        config(alpha=1.0)
    with pytest.raises(DomainError):
        config(nreps=0)
    with pytest.raises(DomainError):
        config(max_parallelism=0)


def test_estimate_power_deterministic_across_parallelism():
    params = MixtureParams(0.4, 1.0, 1.0)
    serial = estimate_power(TestKind.WILCOXON, params, 35, config(max_parallelism=1, nreps=9000))
    threaded = estimate_power(TestKind.WILCOXON, params, 35, config(max_parallelism=32, nreps=9000))
    assert serial == threaded
    again = estimate_power(TestKind.WILCOXON, params, 35, config(max_parallelism=1, nreps=9000))
    assert serial == again


def test_counts_identical_across_chunk_sizes(monkeypatch):
    params = MixtureParams(0.4, 1.0, 1.0)
    cfg = config(nreps=3 * power._BLOCK + 17)  # ends in a partial block
    default = power._simulate_rejections(params, 30, cfg, tuple(TestKind))
    for blocks in (1, 2):
        monkeypatch.setattr(power, "_CHUNK", blocks * power._BLOCK)
        assert power._simulate_rejections(params, 30, cfg, tuple(TestKind)) == default


def test_block_regenerates_alone(monkeypatch):
    params = MixtureParams(0.4, 1.0, 1.0)
    n, cfg = 12, config(nreps=3 * power._BLOCK + 17)
    chunks = []

    def record(x, alpha, sidedness):
        chunks.append(x.copy())
        return 0, 0

    monkeypatch.setitem(power._EVALUATORS, TestKind.T, record)
    power._simulate_rejections(params, n, cfg, (TestKind.T,))
    full = np.concatenate(chunks)
    assert full.shape == (cfg.nreps, n)

    cell = power._simulation_cell_key(params, n)
    B = power._BLOCK
    for b in (1, 3):
        rows = min(B, cfg.nreps - b * B)
        alone = sample(params, n, replication_rng(cfg.master_seed, cell, b), rows=rows)
        np.testing.assert_array_equal(alone, full[b * B : b * B + rows])


def test_estimate_power_seed_sensitivity():
    params = MixtureParams(0.4, 1.0, 1.0)
    a = estimate_power(TestKind.T, params, 35, config(master_seed=1))
    b = estimate_power(TestKind.T, params, 35, config(master_seed=2))
    assert a.power != b.power  # different streams, overwhelmingly


def test_mc_se_consistency():
    params = MixtureParams(0.4, 1.0, 1.0)
    for kind in TestKind:
        est = estimate_power(kind, params, 25, config())
        assert abs(est.mc_se**2 * est.nreps - est.power * (1.0 - est.power)) <= 1e-12
        assert est.n_degenerate == 0
        assert est.test_kind is kind


def test_estimate_power_validation():
    with pytest.raises(InsufficientDataError):
        estimate_power(TestKind.T, MixtureParams(0.5, 1.0, 1.0), 1, config())


def test_size_is_near_level():
    for kind in TestKind:
        est = estimate_size(kind, 40, config(nreps=20000))
        assert est.power == pytest.approx(0.05, abs=0.012)


def test_separated_alternative_has_full_power():
    params = MixtureParams(1.0, 5.0, 1.0)
    for kind in TestKind:
        est = estimate_power(kind, params, 30, config())
        assert est.power >= 0.999


def test_power_monotone_in_n():
    params = MixtureParams(0.5, 1.0, 1.0)
    cfg = config(nreps=8000)
    estimates = [estimate_power(TestKind.T, params, n, cfg) for n in (20, 40, 80)]
    for lo, hi in zip(estimates, estimates[1:]):
        slack = 3.0 * math.hypot(lo.mc_se, hi.mc_se)
        assert hi.power >= lo.power - slack


def test_power_ratio_surface_rows():
    cfg = config(nreps=3000)
    rows = power_ratio_surface(1.0, 1.0, [0.0, 0.6], [20, 40], cfg)
    assert [(r.theta, r.n) for r in rows] == [(0.0, 20), (0.0, 40), (0.6, 20), (0.6, 40)]
    by_cell = {(r.theta, r.n): r for r in rows}
    # theta = 0 rows sit at size level: flagged as near-null
    assert by_cell[(0.0, 20)].flagged
    assert by_cell[(0.0, 40)].flagged
    strong = by_cell[(0.6, 40)]
    assert not strong.flagged
    assert strong.ratio == pytest.approx(strong.power_w / strong.power_t, abs=0)

    # rows agree with standalone estimates (shared streams by construction)
    params = MixtureParams(0.6, 1.0, 1.0)
    est_w = estimate_power(TestKind.WILCOXON, params, 40, cfg)
    est_t = estimate_power(TestKind.T, params, 40, cfg)
    assert strong.power_w == est_w.power
    assert strong.power_t == est_t.power
    assert strong.se_w == est_w.mc_se
    assert strong.se_t == est_t.mc_se


def test_power_ratio_surface_validation():
    with pytest.raises(DomainError):
        power_ratio_surface(1.0, 1.0, [], [20], config())
    with pytest.raises(DomainError):
        power_ratio_surface(1.0, 1.0, [1.2], [20], config())


def test_min_sample_size_separated_alternative():
    params = MixtureParams(1.0, 5.0, 1.0)
    cfg = config(nreps=3000)
    for kind in TestKind:
        result = min_sample_size(kind, params, 0.8, cfg)
        assert result.n_min <= 5
        probed = [n for n, _ in result.search_trace]
        assert result.n_min in probed
        # direct verification at n = 2..5: power reaches the target by n_min
        direct = estimate_power(kind, params, result.n_min, cfg)
        assert direct.power >= 0.79
        lo, hi = result.achieved_power_ci
        assert 0.0 <= lo <= hi <= 1.0


def test_min_sample_size_minimality_from_trace():
    params = MixtureParams(0.5, 1.0, 1.0)
    cfg = config(nreps=6000)
    result = min_sample_size(TestKind.T, params, 0.8, cfg)
    trace = dict(result.search_trace)
    assert result.n_min in trace
    if result.n_min > 2:
        below = trace[result.n_min - 1]
        z99 = 2.3263478740408408
        assert below.power - z99 * below.mc_se < 0.8 - 0.01


def test_min_sample_size_stable_under_doubled_nreps():
    params = MixtureParams(0.5, 1.0, 1.0)
    base = min_sample_size(TestKind.T, params, 0.8, config(nreps=20000))
    doubled = min_sample_size(TestKind.T, params, 0.8, config(nreps=40000))
    assert abs(base.n_min - doubled.n_min) <= 1


def test_min_sample_size_validation_and_overflow():
    cfg = config(nreps=400)
    with pytest.raises(DomainError):
        min_sample_size(TestKind.T, MixtureParams(0.0, 1.0, 1.0), 0.8, cfg)
    with pytest.raises(DomainError):
        min_sample_size(TestKind.T, MixtureParams(0.5, 1.0, 1.0), 1.0, cfg)
    with pytest.raises(SearchOverflowError) as excinfo:
        min_sample_size(TestKind.T, MixtureParams(0.01, 0.1, 1.0), 0.9, cfg, n_cap=64)
    assert excinfo.value.partial  # probes are reported, not discarded


def test_empirical_are_schedule_validation():
    cfg = config(nreps=400)
    with pytest.raises(DomainError):
        empirical_are(1.0, 1.0, [], 0.8, cfg)
    with pytest.raises(DomainError):
        empirical_are(1.0, 1.0, [0.5, 0.5], 0.8, cfg)
    with pytest.raises(DomainError):
        empirical_are(1.0, 1.0, [0.5, -0.1], 0.8, cfg)


def test_empirical_are_rows_and_reciprocal():
    cfg_a = config(nreps=5000, master_seed=7)
    rows = empirical_are(1.0, 1.0, [0.5], 0.8, cfg_a)
    assert len(rows) == 1
    row = rows[0]
    assert row.ratio == row.n_t / row.n_w
    assert row.t_search.n_min == row.n_t
    assert row.w_search.n_min == row.n_w

    # reciprocal construction with an independent stream stays near 1
    cfg_b = config(nreps=5000, master_seed=8)
    other = empirical_are(1.0, 1.0, [0.5], 0.8, cfg_b)[0]
    product = row.ratio * (other.n_w / other.n_t)
    assert 0.8 <= product <= 1.25


def test_empirical_are_overflow_reports_partial_rows():
    cfg = config(nreps=400)
    with pytest.raises(SearchOverflowError) as excinfo:
        empirical_are(1.0, 1.0, [0.5, 0.001], 0.8, cfg, n_cap=128)
    partial = excinfo.value.partial
    assert len(partial) == 1
    assert partial[0].theta == 0.5
