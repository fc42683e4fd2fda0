"""Monte Carlo engine: determinism, calibration sanity, and the searches.

Heavy calibration at the contract replication counts lives in the
acceptance suite; these tests keep replication budgets small.
"""

import math
import sys
import threading
import time
import tracemalloc
import warnings

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
from mixrank.rank_tests import (
    AUTO_EXACT_MAX_N,
    Sidedness,
    WilcoxonMode,
    _oriented,
    _t_p_value,
    _wilcoxon_p_normal,
    exact_null_pmf,
    t_statistic,
    wilcoxon_test,
)
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
    for alpha in (0.0, 1.0, math.nan, "0.05", None):
        with pytest.raises(DomainError):
            config(alpha=alpha)
    # A string that names a Sidedness is still no Sidedness.
    for sidedness in ("less", "greater", "two_sided", None):
        with pytest.raises(DomainError):
            config(sidedness=sidedness)
    with pytest.raises(DomainError):
        config(nreps=0)
    with pytest.raises(DomainError):
        config(max_parallelism=0)


@pytest.mark.parametrize("field", ["nreps", "master_seed", "max_parallelism"])
def test_sim_config_integer_fields(field):
    for bad in (100.5, math.nan, math.inf, True, False, np.True_, "100", "abc", None):
        with pytest.raises(DomainError):
            config(**{field: bad})
    for value in (100.0, np.int64(100), np.float64(100.0)):
        stored = getattr(config(**{field: value}), field)
        assert type(stored) is int and stored == 100
    if field == "master_seed":
        assert config(master_seed=-7).master_seed == -7


def test_integral_fields_draw_as_their_ints():
    params = MixtureParams(0.5, 1.0, 1.0)
    expected = estimate_power(TestKind.T, params, 20, config(nreps=100, master_seed=3))
    assert expected.nreps == 100
    for fields in ({"nreps": 100.0}, {"master_seed": 3.0}, {"max_parallelism": 2.0}):
        cfg = config(**{"nreps": 100, "master_seed": 3, **fields})
        assert estimate_power(TestKind.T, params, 20, cfg) == expected


def test_estimate_power_deterministic_across_parallelism():
    params = MixtureParams(0.4, 1.0, 1.0)
    serial = estimate_power(TestKind.WILCOXON, params, 35, config(max_parallelism=1, nreps=9000))
    threaded = estimate_power(TestKind.WILCOXON, params, 35, config(max_parallelism=32, nreps=9000))
    assert serial == threaded
    again = estimate_power(TestKind.WILCOXON, params, 35, config(max_parallelism=1, nreps=9000))
    assert serial == again


def test_counts_identical_across_threads_with_one_row_blocks():
    params = MixtureParams(0.4, 1.0, 1.0)
    n = 2**16 + 1
    assert power._block_rows(n) == 1
    serial = power._simulate_rejections(params, n, config(nreps=5), tuple(TestKind))
    pooled = power._simulate_rejections(
        params, n, config(nreps=5, max_parallelism=2), tuple(TestKind)
    )
    assert serial == pooled


def test_block_regenerates_alone(monkeypatch):
    params = MixtureParams(0.4, 1.0, 1.0)
    n = 100
    B = power._block_rows(n)
    cfg = config(nreps=3 * B + 17)  # ends in a partial block
    blocks = []

    def record(x, alpha, sidedness):
        blocks.append(x.copy())
        return 0, 0

    monkeypatch.setitem(power._EVALUATORS, TestKind.T, record)
    power._simulate_rejections(params, n, cfg, (TestKind.T,))
    full = np.concatenate(blocks)
    assert full.shape == (cfg.nreps, n)

    cell = power._simulation_cell_key(params, n)
    for b in (1, 3):
        rows = min(B, cfg.nreps - b * B)
        alone = sample(params, rows * n, replication_rng(cfg.master_seed, cell, b)).reshape(rows, n)
        np.testing.assert_array_equal(alone, full[b * B : b * B + rows])


def test_estimate_power_seed_sensitivity(monkeypatch):
    # The seed picks the streams.  Two seeds' powers can still coincide, so
    # compare what was drawn.
    params = MixtureParams(0.4, 1.0, 1.0)
    blocks = []

    def record(x, alpha, sidedness):
        blocks.append(x.copy())
        return 0, 0

    monkeypatch.setitem(power._EVALUATORS, TestKind.T, record)
    for seed in (1, 2):
        estimate_power(TestKind.T, params, 35, config(master_seed=seed))
    assert len(blocks) == 4  # two blocks per seed
    for a, b in zip(blocks[:2], blocks[2:]):
        assert not np.array_equal(a, b)


def test_mc_se_consistency():
    params = MixtureParams(0.4, 1.0, 1.0)
    for kind in TestKind:
        est = estimate_power(kind, params, 25, config())
        assert abs(est.mc_se**2 * est.nreps - est.power * (1.0 - est.power)) <= 1e-12
        assert est.n_degenerate == 0
        assert est.test_kind is kind


def test_estimate_power_validation(monkeypatch):
    params = MixtureParams(0.5, 1.0, 1.0)
    with pytest.raises(InsufficientDataError):
        estimate_power(TestKind.T, params, 1, config())
    # An integral n of any type is its int, so it draws the same samples.
    expected = estimate_power(TestKind.T, params, 20, config(nreps=50))
    for n in (np.int64(20), 20.0, np.float64(20.0)):
        assert estimate_power(TestKind.T, params, n, config(nreps=50)) == expected

    def refuse(*args):
        raise AssertionError("no draw before validation")

    monkeypatch.setattr(power, "draw_sample", refuse)
    for n in (20.9, 2.5, math.nan, math.inf, np.float64(20.5), "20"):
        with pytest.raises(DomainError):
            estimate_power(TestKind.T, params, n, config())


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


@pytest.mark.parametrize("max_parallelism", [1, 2, 3])
@pytest.mark.parametrize(
    "thetas, ns, nreps",
    [([0.0, 0.4], [20, 50, 100], 5000), ([0.3, 0.7], [2**16 + 1], 5)],
    ids=["partial-last-blocks", "one-row-blocks"],
)
def test_surface_rows_equal_per_cell_estimates(thetas, ns, nreps, max_parallelism):
    cfg = config(nreps=nreps, max_parallelism=max_parallelism)
    rows = power_ratio_surface(1.0, 1.0, thetas, ns, cfg)
    assert [(r.theta, r.n) for r in rows] == [(t, n) for t in thetas for n in ns]
    for r in rows:
        params = MixtureParams(r.theta, 1.0, 1.0)
        w = estimate_power(TestKind.WILCOXON, params, r.n, config(nreps=nreps))
        t = estimate_power(TestKind.T, params, r.n, config(nreps=nreps))
        assert (r.power_w, r.se_w, r.power_t, r.se_t) == (w.power, w.mc_se, t.power, t.mc_se)


def _recording_blocks(monkeypatch, hold=0.0):
    """Record, per block of a surface, its thread, the threads alive and the live blocks.

    A block is live from its draw until its t evaluation, the last of a
    surface's two, returns.  Each t evaluation first waits ``hold`` seconds,
    so that every worker gets a share of the blocks.
    """
    draw, evaluate_t = power.draw_sample, power._EVALUATORS[TestKind.T]
    lock = threading.Lock()
    live = [0]
    seen = {"threads": [], "alive": [], "live": []}

    def recording_draw(*args):
        with lock:
            live[0] += 1
            seen["live"].append(live[0])
        return draw(*args)

    def recording_t(x, alpha, sidedness):
        seen["threads"].append(threading.get_ident())
        seen["alive"].append(threading.active_count())
        time.sleep(hold)
        try:
            return evaluate_t(x, alpha, sidedness)
        finally:
            with lock:
                live[0] -= 1

    monkeypatch.setattr(power, "draw_sample", recording_draw)
    monkeypatch.setitem(power._EVALUATORS, TestKind.T, recording_t)
    return seen


def test_surface_starts_fewer_threads_than_blocks(monkeypatch):
    seen = _recording_blocks(monkeypatch)
    alive = threading.active_count()
    # Three cells of one block each: three workers at most, so two threads.
    power_ratio_surface(1.0, 1.0, [0.2, 0.5, 0.8], [20], config(nreps=100, max_parallelism=10_000))
    assert len(seen["threads"]) == 3 and max(seen["alive"]) <= alive + 2
    assert threading.active_count() == alive


def test_one_worker_runs_blocks_on_the_calling_thread(monkeypatch):
    # A helper thread's malloc arena would keep the blocks' memory apart.
    seen = _recording_blocks(monkeypatch)
    alive = threading.active_count()
    power_ratio_surface(1.0, 1.0, [0.2, 0.5], [20, 300], config(nreps=2000))
    assert set(seen["threads"]) == {threading.get_ident()} and set(seen["alive"]) == {alive}


@pytest.mark.parametrize("workers", [2, 3])
def test_surface_keeps_a_bounded_window_of_blocks(workers, monkeypatch):
    seen = _recording_blocks(monkeypatch, hold=0.002)
    n = 2**16 + 1  # one row per block: 20 blocks per cell
    power_ratio_surface(1.0, 1.0, [0.2, 0.5, 0.8], [n], config(nreps=20, max_parallelism=workers))
    assert len(seen["live"]) == 60 and max(seen["live"]) <= workers
    threads = set(seen["threads"])
    assert threading.get_ident() in threads and len(threads) <= workers


@pytest.mark.parametrize("workers", [2, 8])
@pytest.mark.parametrize("on_calling_thread", [False, True], ids=["helper", "caller"])
def test_a_failing_block_stops_every_worker(workers, on_calling_thread, monkeypatch):
    monkeypatch.setattr(power, "_FREE_BUFFERS", [])
    take_buffer, taken = power._take_buffer, set()

    def recording_take():
        buffer = take_buffer()
        taken.add(id(buffer))
        return buffer

    caller, alive = threading.get_ident(), threading.active_count()
    first, failed, started = threading.Lock(), threading.Event(), []

    def evaluate(x, alpha, sidedness):
        started.append(threading.get_ident())
        if (started[-1] == caller) == on_calling_thread and first.acquire(blocking=False):
            failed.set()
            raise RuntimeError("block failed")
        # Every other block runs until well after the failure, so a worker
        # that went on to another block would show in ``started``.
        failed.wait(timeout=2.0)
        time.sleep(0.2)
        return 0, 0

    monkeypatch.setattr(power, "_take_buffer", recording_take)
    monkeypatch.setitem(power._EVALUATORS, TestKind.T, evaluate)
    cells = [(MixtureParams(0.4, 1.0, 1.0), 100)]
    cfg = config(nreps=20 * power._block_rows(100), max_parallelism=workers)
    with pytest.raises(RuntimeError, match="block failed"):
        power._simulate_cells(cells, cfg, (TestKind.T,))
    assert failed.is_set() and threading.active_count() == alive
    assert len(started) == len(set(started)) <= workers
    buffers = {id(b) for b in power._FREE_BUFFERS}
    assert buffers == taken and len(buffers) == len(power._FREE_BUFFERS) <= workers


def test_a_helper_that_cannot_start_stops_the_ones_started(monkeypatch):
    # The second helper's start fails, as it does when the process is out of
    # threads; the first helper has started by then and runs slow blocks.
    start, calls, started = threading.Thread.start, [], []

    def failing_start(thread):
        calls.append(thread)
        if len(calls) == 2:
            raise RuntimeError("can't start new thread")
        start(thread)

    def evaluate(x, alpha, sidedness):
        started.append(threading.get_ident())
        time.sleep(0.05)
        return 0, 0

    alive = threading.active_count()
    monkeypatch.setattr(threading.Thread, "start", failing_start)
    monkeypatch.setitem(power._EVALUATORS, TestKind.T, evaluate)
    cells = [(MixtureParams(0.4, 1.0, 1.0), 100)]
    cfg = config(nreps=200_000, max_parallelism=4)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        power._simulate_cells(cells, cfg, (TestKind.T,))
    assert len(calls) == 2 and threading.active_count() == alive
    # Only the first helper ran a block, and none after the failure.
    blocks = len(started)
    time.sleep(0.2)
    assert len(started) == blocks <= 1


def test_power_ratio_surface_validation(monkeypatch):
    with pytest.raises(DomainError):
        power_ratio_surface(1.0, 1.0, [], [20], config())
    with pytest.raises(DomainError):
        power_ratio_surface(1.0, 1.0, [1.2], [20], config())
    for theta in ("0.5", None, True):
        with pytest.raises(DomainError):
            power_ratio_surface(1.0, 1.0, [theta], [20], config())
    rows = power_ratio_surface(1.0, 1.0, [0.5], [20.0, np.int64(21)], config(nreps=50))
    assert [(row.n, type(row.n)) for row in rows] == [(20, int), (21, int)]

    def refuse(*args):
        raise AssertionError("no draw before validation")

    monkeypatch.setattr(power, "draw_sample", refuse)
    for n in (2.5, 20.9, math.nan, math.inf):
        with pytest.raises(DomainError):
            power_ratio_surface(1.0, 1.0, [0.5], [20, n], config())


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
    for kind in TestKind:
        result = min_sample_size(kind, params, 0.8, cfg)
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
    for target_power in ("0.8", None):
        with pytest.raises(DomainError):
            min_sample_size(TestKind.T, MixtureParams(0.5, 1.0, 1.0), target_power, cfg)
        with pytest.raises(DomainError):
            empirical_are(1.0, 1.0, [0.5], target_power, cfg)
    with pytest.raises(SearchOverflowError) as excinfo:
        min_sample_size(TestKind.T, MixtureParams(0.01, 0.1, 1.0), 0.9, cfg, n_cap=64)
    assert excinfo.value.partial  # probes are reported, not discarded
    # An integral cap of any type is its int, and probes int sample sizes.
    for n_cap in (64.0, np.int64(64)):
        with pytest.raises(SearchOverflowError) as excinfo:
            min_sample_size(TestKind.T, MixtureParams(0.01, 0.1, 1.0), 0.9, cfg, n_cap=n_cap)
        assert [type(n) for n, _ in excinfo.value.partial] == [int] * 6
    # A cap that is not an integer would never be probed, so never overflow.
    for n_cap in (math.nan, math.inf, 63.5):
        with pytest.raises(DomainError):
            min_sample_size(TestKind.T, MixtureParams(0.5, 1.0, 1.0), 0.8, cfg, n_cap=n_cap)
        with pytest.raises(DomainError):
            empirical_are(1.0, 1.0, [0.5], 0.8, cfg, n_cap=n_cap)


def test_search_probes_the_cap_itself():
    params, cfg = MixtureParams(0.5, 0.2, 1.0), config(nreps=1000, master_seed=1)
    result = min_sample_size(TestKind.T, params, 0.8, cfg, n_cap=1000)
    probed = [n for n, _ in result.search_trace]
    assert probed[: probed.index(1000) + 1] == [2**k for k in range(1, 10)] + [1000]
    assert 512 < result.n_min <= 1000
    with pytest.raises(SearchOverflowError) as excinfo:
        min_sample_size(TestKind.T, params, 0.8, cfg, n_cap=600)
    assert [n for n, _ in excinfo.value.partial] == [2**k for k in range(1, 10)] + [600]


def test_empirical_are_schedule_validation():
    cfg = config(nreps=400)
    with pytest.raises(DomainError):
        empirical_are(1.0, 1.0, [], 0.8, cfg)
    with pytest.raises(DomainError):
        empirical_are(1.0, 1.0, [0.5, 0.5], 0.8, cfg)
    with pytest.raises(DomainError):
        empirical_are(1.0, 1.0, [0.5, -0.1], 0.8, cfg)
    for theta in ("0.5", None, True):
        with pytest.raises(DomainError):
            empirical_are(1.0, 1.0, [theta], 0.8, cfg)


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


def test_block_rows_depend_on_n_alone():
    # 1 MiB of float64 per block, at most 4096 rows and at least one.
    table = {1: 4096, 32: 4096, 33: 3971, 64: 2048, 65: 2016, 100: 1310, 1000: 131}
    table.update({2**16: 2, 2**16 + 1: 1, 2**19: 1})
    assert {n: power._block_rows(n) for n in table} == table


def test_evaluator_sees_whole_blocks_then_the_rest(monkeypatch):
    params = MixtureParams(0.4, 1.0, 1.0)
    evaluate_t = power._EVALUATORS[TestKind.T]
    rows_seen = []

    def record(x, alpha, sidedness):
        rows_seen.append(x.shape[0])
        return evaluate_t(x, alpha, sidedness)

    monkeypatch.setitem(power._EVALUATORS, TestKind.T, record)
    for n, k, rest in ((30, 2, 300), (1000, 3, 17)):
        rows = power._block_rows(n)
        rows_seen.clear()
        power._simulate_rejections(params, n, config(nreps=k * rows + rest), tuple(TestKind))
        assert rows_seen == [rows] * k + [rest]


@pytest.mark.parametrize("n, nreps", [(20, 100), (2**17 + 1, 1)], ids=["buffer", "one-row"])
def test_evaluators_cannot_write_to_their_block(n, nreps, monkeypatch):
    # A reused buffer written by one evaluator would feed the next block.
    def scribble(x, alpha, sidedness):
        x[0, 0] = 0.0
        return 0, 0

    monkeypatch.setitem(power._EVALUATORS, TestKind.T, scribble)
    with pytest.raises(ValueError, match="read-only"):
        estimate_power(TestKind.T, MixtureParams(0.4, 1.0, 1.0), n, config(nreps=nreps))


def test_reused_buffers_leak_nothing_between_cells(monkeypatch):
    monkeypatch.setattr(power, "_FREE_BUFFERS", [])
    params = MixtureParams(0.4, 1.0, 1.0)
    cfg = config(nreps=2 * power._block_rows(100) + 17)  # ends in a partial block
    first = power._simulate_rejections(params, 100, cfg, tuple(TestKind))
    assert power._block_rows(2**17 + 1) == 1  # a row longer than a buffer
    power._simulate_rejections(params, 2**17 + 1, config(nreps=2), tuple(TestKind))
    power_ratio_surface(2.0, 0.5, [0.3, 0.9], [7, 60], config(nreps=5000, max_parallelism=2))
    assert power._simulate_rejections(params, 100, cfg, tuple(TestKind)) == first
    buffers = power._FREE_BUFFERS
    assert 1 <= len(buffers) <= 2
    assert all(b.dtype == np.float64 and b.shape == (power._BLOCK_ELEMENTS,) for b in buffers)


def test_buffers_are_never_shared_between_threads(monkeypatch):
    # More workers than cores, switching threads as often as possible: two
    # blocks drawing into one buffer would change the counts.
    monkeypatch.setattr(power, "_FREE_BUFFERS", [])
    cells = [(MixtureParams(theta, 1.0, 1.0), n) for theta in (0.2, 0.6) for n in (20, 300)]
    serial = power._simulate_cells(cells, config(nreps=8000), tuple(TestKind))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = power._simulate_cells(cells, config(nreps=8000, max_parallelism=8), tuple(TestKind))
    finally:
        sys.setswitchinterval(interval)
    assert pooled == serial
    buffers = power._FREE_BUFFERS
    assert len({id(b) for b in buffers}) == len(buffers) <= 8


def test_one_block_cell_peak_memory():
    # The draw and both evaluators of one block should need little more than
    # the block itself, however large n is.
    # At n = 2048 the draw's own peak, 2.8 blocks at theta 0.9, is the floor;
    # 32-bit signed-rank keys stay under it.
    for n, reps, blocks in ((2048, 256, 3.0), (2**16, 256, 3.5), (2**19, 3, 3.5)):
        tracemalloc.start()
        try:
            power._simulate_rejections(
                MixtureParams(0.9, 1.0, 1.0), n, config(nreps=reps), tuple(TestKind)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= blocks * power._block_rows(n) * n * 8, n


def test_sample_size_cap_below_two_draws_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("no cell may be simulated")

    monkeypatch.setattr(power, "_simulate_rejections", refuse)
    cfg = config(nreps=400)
    with pytest.raises(DomainError, match="cap must be at least 2"):
        min_sample_size(TestKind.T, MixtureParams(0.5, 1.0, 1.0), 0.8, cfg, n_cap=1)
    with pytest.raises(DomainError, match="cap must be at least 2"):
        empirical_are(1.0, 1.0, [0.5], 0.8, cfg, n_cap=0)


def test_empirical_are_checks_every_theta_before_searching(monkeypatch):
    def refuse(*args):
        raise AssertionError("no cell may be simulated")

    monkeypatch.setattr(power, "_simulate_rejections", refuse)
    with pytest.raises(DomainError, match="finite"):
        empirical_are(0.2, 1.0, [0.5, math.nan], 0.8, config(nreps=400))


def test_surface_checks_every_theta_before_drawing(monkeypatch):
    def refuse(*args):
        raise AssertionError("no cell may be simulated")

    monkeypatch.setattr(power, "_simulate_cells", refuse)
    with pytest.raises(DomainError, match="mixing proportion"):
        power_ratio_surface(0.2, 1.0, [0.2, 1.5], [20, 50], config(nreps=400))


def _block_with_edge_values(rng, rows, n):
    """Rows of distinct magnitudes, with zeros, ties, large and subnormal values injected.

    The last 12 rows have no float64 tie or zero: most meet one in float32,
    two tie only across each other, and the rest are plain.
    """
    x = rng.normal(0.2, 1.0, (rows, n))
    x[0::7, 0] = 0.0
    x[1::7, 3] = -0.0
    x[2::7, 5] = -x[2::7, 1]  # opposite-sign tie
    x[3::7, 2] = x[3::7, 4]  # same-sign tie
    x[4::7] *= 2.0 ** rng.integers(1, 900, (len(x[4::7]), 1))  # exponent bits near the top
    x[5::7, :4] = [5e-324, -1e-310, 2.2e-308, -3e-320]  # subnormals
    x[6::7, :3] = [2.0, -2.0, 0.0]
    x[7] = 0.0  # all zero: degenerate
    x[8] = -0.0
    above_one = np.nextafter(1.0, 2.0)
    f32 = rng.normal(0.2, 1.0, (12, n))
    f32[0, :2] = [1.0, above_one]  # equal only in float32
    f32[1, :2] = [-1.0, above_one]
    f32[2, :2] = [1.0, -above_one]
    f32[3, 0] = 1e39  # beyond float32's range: the only inf
    f32[4, :2] = [-1e39, 1.5e39]  # two infs
    f32[5, 0] = 1e-46  # rounds to float32 zero
    f32[6, :2] = [1e-46, -3e-47]
    # Row 7's largest magnitude is row 8's smallest: a tie only across rows.
    f32[7] = rng.uniform(0.5, 1.0, n) * rng.choice([-1.0, 1.0], n)
    f32[8] = rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n)
    f32[7, 0], f32[8, 0] = 1.0, -1.0
    return np.vstack([x, f32])


def _match_scalar_test(x, alpha, sidedness, monkeypatch):
    """Check ``_wilcoxon_rejections`` on ``x`` against the scalar test, row by row.

    Returns each row's scalar p-value (None for an all-zero row) and the
    list that records the rows sent to the scalar path from then on.
    """
    expected_p = [
        wilcoxon_test(row, sidedness, WilcoxonMode.AUTO).p_value if (row != 0.0).any() else None
        for row in x
    ]
    slow_rows = []

    def scalar_test(row, *args, **kwargs):
        slow_rows.append(row)
        return wilcoxon_test(row, *args, **kwargs)

    monkeypatch.setattr(power, "wilcoxon_test", scalar_test)
    rejections, degenerate = power._wilcoxon_rejections(x, alpha, sidedness)
    assert degenerate == expected_p.count(None)
    assert rejections == sum(p is not None and p <= alpha for p in expected_p)
    # Only rows with a float64 zero or tied magnitudes (and not all zero)
    # take the scalar path, whatever float32 makes of the others.
    mags = np.sort(np.abs(x), axis=1)
    slow = (mags[:, 0] == 0.0) | (mags[:, 1:] == mags[:, :-1]).any(axis=1)
    expected_slow = x[slow & (x != 0.0).any(axis=1)]
    np.testing.assert_array_equal(np.reshape(slow_rows, (-1, x.shape[1])), expected_slow)
    return expected_p, slow_rows


@pytest.mark.parametrize("n", [12, 30, 2048, power._KEY32_MAX_N, power._KEY32_MAX_N + 1])
@pytest.mark.parametrize("sidedness", list(Sidedness))
def test_wilcoxon_rejections_match_scalar_test(n, sidedness, monkeypatch):
    rng = np.random.default_rng(n)
    x = _block_with_edge_values(rng, 60, n)
    alpha = 0.3
    expected_p, slow_rows = _match_scalar_test(x, alpha, sidedness, monkeypatch)
    # The two rows that tie only across each other, alone in a block.
    slow_rows.clear()
    pair = x[-5:-3]  # rows 7 and 8 of the float32 rows
    assert power._wilcoxon_rejections(pair, alpha, sidedness) == (
        sum(p <= alpha for p in expected_p[-5:-3]), 0
    )
    assert slow_rows == []
    # Row by row, the rejection threshold sits exactly at the scalar p-value.
    for row, p in zip(x, expected_p):
        if p is None:
            continue
        assert power._wilcoxon_rejections(row[None], p, sidedness) == (1, 0)
        assert power._wilcoxon_rejections(row[None], np.nextafter(p, 0.0), sidedness) == (0, 0)


@pytest.mark.parametrize("n", [20, 100, 1000, power._KEY32_MAX_N])
@pytest.mark.parametrize("sidedness", list(Sidedness))
def test_wilcoxon_rejections_match_scalar_test_when_most_rows_are_coarse(
    n, sidedness, monkeypatch
):
    # Float32 cannot tell 1 + 1e-7 z apart, so most rows of a block are
    # coarse (a float32 tie) and all of the key widths are taken.
    params = MixtureParams(0.9, 1.0, 1e-7)
    rows = power._block_rows(n)
    x = sample(params, rows * n, replication_rng(17, n, 0)).reshape(rows, n)
    mags32 = np.sort(np.abs(x).astype(np.float32), axis=1)
    assert (mags32[:, 1:] == mags32[:, :-1]).any(axis=1).mean() > 0.9
    _match_scalar_test(x, 0.05, sidedness, monkeypatch)


def _rows_of_every_w(n, rng):
    """Rows of signed ranks +-1..+-n in shuffled order, one for each W+ in 0..n(n+1)/2.

    Every row comes twice: on the magnitudes 1..n, and on the n doubles from
    1.0 up, which float32 cannot tell apart, so that only 64-bit keys rank them.
    """
    top = n * (n + 1) // 2
    signs = -np.ones((top + 1, n))  # column r - 1 holds the sign of rank r
    for w in range(top + 1):
        left = w
        for rank in range(n, 0, -1):  # greedy from the top finds a subset summing to w
            if rank <= left:
                signs[w, rank - 1], left = 1.0, left - rank
    order = np.argsort(rng.random(signs.shape), axis=1)
    ranks = (order + 1).astype(float)
    signs = np.take_along_axis(signs, order, axis=1)
    assert ((signs > 0) * ranks).sum(axis=1).tolist() == list(range(top + 1))
    return np.vstack([signs * ranks, signs * (1.0 + (ranks - 1.0) * 2.0**-52)])


@pytest.mark.parametrize("n, tails", [(12, [50, 65, 78]), (30, [260, 320, 400])])
@pytest.mark.parametrize("sidedness", list(Sidedness))
def test_wilcoxon_rejections_at_an_attained_p_value(n, tails, sidedness, monkeypatch):
    x = _rows_of_every_w(n, np.random.default_rng(n))
    p = np.array([wilcoxon_test(row, sidedness, WilcoxonMode.AUTO).p_value for row in x])

    def refuse(*args, **kwargs):
        raise AssertionError("no row has a float64 tie")

    monkeypatch.setattr(power, "wilcoxon_test", refuse)
    for k in tails:
        # alpha is the p-value of W+ = k (of n(n+1)/2 - k for LESS): the exact
        # tail or its normal approximation, as the scalar test takes it.
        if n <= AUTO_EXACT_MAX_N:
            tail = exact_null_pmf(n).sf(k)
        else:
            tail = _wilcoxon_p_normal(k, n, Sidedness.GREATER)
        alpha = float(min(1.0, 2.0 * tail) if sidedness is Sidedness.TWO_SIDED else tail)
        reject = p <= alpha
        assert (p == alpha).sum() >= 2 and 0 < reject.sum() < reject.size
        assert power._wilcoxon_rejections(x, alpha, sidedness) == (int(reject.sum()), 0)
        assert power._wilcoxon_rejections(x[reject], alpha, sidedness) == (int(reject.sum()), 0)
        assert power._wilcoxon_rejections(x[~reject], alpha, sidedness) == (0, 0)


def _t_statistics_seen(x, monkeypatch):
    """The t statistics ``_t_rejections`` compares with c, and its degenerate count."""
    seen = []

    class Bound:
        # ndarray comparisons defer to a bound that opts out of ufuncs, so
        # `stat >= c` hands it the statistics.
        __array_ufunc__ = None

        def __le__(self, stat):
            seen.append(stat.copy())
            return np.zeros(stat.shape, dtype=bool)

    monkeypatch.setattr(power, "_t_critical_value", lambda *args: Bound())
    _, degenerate = power._t_rejections(x, 0.05, Sidedness.GREATER)
    assert len(seen) == 1
    return seen[0], degenerate


@pytest.mark.parametrize("n", [2, 7, 8, 9, 127, 128, 129, 1000, 2**16 + 1])
def test_t_statistic_keeps_the_bits_of_mean_and_std(n, monkeypatch):
    rng = np.random.default_rng(n)
    x = rng.normal(0.2, 1.0, (max(4, min(64, 2**17 // n)), n))
    x[0] = 1.5  # zero variance: degenerate
    x[1] = 0.1  # constant, but its mean need not be 0.1
    x[2] = 1e8 + x[2]  # deviations far below the mean
    unscaled = x[3].copy()
    x[3] *= 2.0**-1000  # squared deviations underflow: the row is taken again, rescaled
    stat, degenerate = _t_statistics_seen(x, monkeypatch)
    x[3] = unscaled  # the statistic does not depend on scale
    mean, sd = x.mean(axis=1), x.std(axis=1, ddof=1)
    ok = sd != 0.0
    assert degenerate == int((~ok).sum()) >= 1
    np.testing.assert_array_equal(
        stat[ok].view(np.int64), (mean[ok] / (sd[ok] / math.sqrt(n))).view(np.int64)
    )
    assert (stat[~ok] == 0.0).all()
    # The scalar statistic is the same computation on one row.
    for row, expected in zip(x[ok][:4], stat[ok][:4]):
        assert t_statistic(row) == expected


@pytest.mark.parametrize("k", [530, -530, 600, -600])
def test_t_rejections_keep_their_bits_at_any_scale(k, monkeypatch):
    rng = np.random.default_rng(k % 7)
    x = rng.normal(0.3, 1.0, (300, 20))
    x[::50] = 1.5  # degenerate at every scale
    x[1::50, :10] = 2.0**-100  # a row that spans many binades
    expected, degenerate = _t_statistics_seen(x, monkeypatch)
    assert degenerate == 6
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        stat, degenerate = _t_statistics_seen(x * 2.0**k, monkeypatch)
    assert degenerate == 6
    np.testing.assert_array_equal(stat.view(np.int64), expected.view(np.int64))


def test_t_power_does_not_depend_on_scale():
    cfg = config(nreps=2000, master_seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        unit = estimate_power(TestKind.T, MixtureParams(1.0, 1.0, 1.0), 20, cfg)
        tiny = estimate_power(TestKind.T, MixtureParams(1.0, 1e-200, 1e-200), 20, cfg)
        wide = estimate_power(TestKind.T, MixtureParams(0.5, 0.0, 1e200), 20, cfg)
        narrow = estimate_power(TestKind.T, MixtureParams(0.5, 0.0, 1e100), 20, cfg)
    # Each pair draws its own streams, so the powers agree within Monte Carlo error.
    for a, b in ((unit, tiny), (narrow, wide)):
        assert b.n_degenerate == 0
        assert abs(a.power - b.power) <= 4.0 * math.hypot(a.mc_se, b.mc_se)
    assert wide.power > 0.0


@pytest.mark.parametrize("max_parallelism", [1, 2])
def test_power_refuses_a_contaminant_whose_draws_overflow(max_parallelism):
    # Infinite draws once gave a NaN t statistic, which neither rejected nor
    # counted as degenerate, so the power read low without a sign.  Three
    # blocks, so that two workers both run one.
    cfg = config(nreps=3 * power._block_rows(20), master_seed=1, max_parallelism=max_parallelism)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for kind in TestKind:
            with pytest.raises(DomainError, match="contaminant"):
                estimate_power(kind, MixtureParams(0.5, 0.0, 1e308), 20, cfg)


@pytest.mark.parametrize(
    "lo, hi", [(0, 1), (0, 2**20), (-power._INF_ORDINAL, power._INF_ORDINAL)]
)
def test_first_finds_the_step_of_any_predicate(lo, hi):
    # Each call but the last leaves at most 1/_WAYS of the range, and the
    # last tests every point left.
    bound, width = 1, hi - lo
    while width > power._WAYS:
        bound, width = bound + 1, -(-width // power._WAYS)
    centres = {lo - 2**40, lo - 1, lo, (lo + hi) // 2, hi - 1, hi, hi + 5}
    offsets = [0, 1e6, 2**60, *range(7, 10)]
    steps = {lo, hi - 1, hi} | {
        centre + sign * int(d) for centre in centres for d in offsets for sign in (1, -1)
    }
    for step in steps:
        step = min(max(step, lo), hi)  # hi: no k in [lo, hi) rejects
        sizes = []

        def rejects(k):
            assert k.dtype == np.int64 and 0 < k.size <= power._WAYS
            assert lo <= k.min() and k.max() < hi
            sizes.append(k.size)
            return k >= step

        assert power._first(rejects, lo, hi) == step, step
        assert len(sizes) <= bound, (step, len(sizes))


def _doubles_around(c, k):
    """c and the k doubles on each side of it, in increasing order."""
    below, above = [c], [c]
    for _ in range(k):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


@pytest.mark.parametrize("n", [2, 3, 5, 20, 25, 26, 100, 1000, 10**6])
@pytest.mark.parametrize("sidedness", list(Sidedness))
def test_critical_values_reject_as_the_per_row_p_value(n, sidedness):
    two_sided = sidedness is Sidedness.TWO_SIDED
    # alpha near 0.5 (GREATER) and 1 (TWO_SIDED) put c near 0.
    for alpha in (1e-12, 0.01, 0.05, 0.4999999, 0.5, 0.5000001, 0.9, 1 - 2**-53):
        # The search itself, uncached: its probes reach |t| where t*t overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            c = power._t_critical_value.__wrapped__(n, alpha, two_sided)
        assert c == power._t_critical_value(n, alpha, two_sided)

        near = _doubles_around(c, 64)
        stat = np.array([*near, *np.negative(near), 0.0, -0.0, np.inf, -np.inf, np.nan])
        with warnings.catch_warnings():
            # NaN statistics compare False, without a warning.
            warnings.simplefilter("error", RuntimeWarning)
            np.testing.assert_array_equal(
                _oriented(stat, np.negative, sidedness) >= c,
                _t_p_value(stat, n - 1, sidedness) <= alpha,
            )


@pytest.mark.parametrize("alpha", [0.05, 0.9])
@pytest.mark.parametrize("sidedness", list(Sidedness))
def test_evaluators_call_no_p_value_per_row(alpha, sidedness, monkeypatch):
    n = 30
    x = np.random.default_rng(3).normal(0.2, 1.0, (400, n))
    x[::50] = 1.5  # constant rows: degenerate for t, tied magnitudes for W
    mean, sd = x.mean(axis=1), x.std(axis=1, ddof=1)
    ok = sd != 0.0
    p = _t_p_value(mean[ok] / (sd[ok] / math.sqrt(n)), n - 1, sidedness)
    expected_t = (int((p <= alpha).sum()), int((~ok).sum()))
    expected_w = power._wilcoxon_rejections(x, alpha, sidedness)
    power._t_critical_value(n, alpha, sidedness is Sidedness.TWO_SIDED)

    def refuse(*args):
        raise AssertionError("no p-value per row")

    monkeypatch.setattr(power, "_t_p_value", refuse)
    assert power._t_rejections(x, alpha, sidedness) == expected_t
    # W takes one p-value call per key width on all of its rows: the 400 rows
    # on 32-bit keys, then the 8 coarse ones on 64-bit keys.
    rows_per_call = []
    for name in ("_wilcoxon_p_exact", "_wilcoxon_p_normal"):
        def counted(w, *args, p_value=getattr(power, name)):
            rows_per_call.append(w.size)
            return p_value(w, *args)

        monkeypatch.setattr(power, name, counted)
    assert power._wilcoxon_rejections(x, alpha, sidedness) == expected_w
    assert rows_per_call == [400, 8]


@pytest.mark.parametrize("sidedness", list(Sidedness))
def test_uncached_search_makes_few_p_value_calls(sidedness, monkeypatch):
    # A search that misses the cache narrows the 2**64 doubles 256-fold per
    # vectorised p-value call, so it makes at most 8 calls where a bisection
    # over the doubles makes ~64 scalar ones.
    calls = []

    def counted(*args, p_value=power._t_p_value):
        calls.append(1)
        return p_value(*args)

    monkeypatch.setattr(power, "_t_p_value", counted)
    two_sided = sidedness is Sidedness.TWO_SIDED
    for n in [*range(2, 61), 100, 1000, 5000]:
        for alpha in (0.01, 0.05):
            calls.clear()
            power._t_critical_value.__wrapped__(n, alpha, two_sided)
            assert len(calls) <= 10, (n, alpha)


def _separate_row(mu, sigma, theta, cfg, n_cap):
    params = MixtureParams(theta, mu, sigma)
    t = min_sample_size(TestKind.T, params, 0.8, cfg, n_cap)
    w = min_sample_size(TestKind.WILCOXON, params, 0.8, cfg, n_cap)
    return power.EmpiricalArePoint(theta, t.n_min, w.n_min, t.n_min / w.n_min, t, w)


def _bracket_end(result):
    return max(n for n, _ in result.search_trace if n & (n - 1) == 0)


@pytest.mark.parametrize(
    "mu, sigma, thetas, n_cap, brackets",
    [
        (1.0, 0.5, [0.5], 1_000_000, "same"),  # both brackets end at 32, then share bisection
        (0.5, 0.05, [0.8, 0.6], 1_000_000, "w lower"),  # at 0.6: W's ends at 32, T's at 64
        (5.0, 2.0, [0.5, 0.3], 1_000_000, "t lower"),  # at 0.3: T's ends at 32, W's at 64
        (1.0, 0.5, [0.5], 28, "same"),  # both brackets end at the cap, then share bisection
    ],
    ids=[
        "1.0-0.5-thetas0-same",
        "0.5-0.05-thetas1-w lower",
        "5.0-2.0-thetas2-t lower",
        "1.0-0.5-thetas3-cap28-same",
    ],
)
def test_empirical_are_equals_separate_searches(mu, sigma, thetas, n_cap, brackets):
    cfg = config(nreps=400, master_seed=1)
    rows = empirical_are(mu, sigma, thetas, 0.8, cfg, n_cap)
    assert rows == [_separate_row(mu, sigma, theta, cfg, n_cap) for theta in thetas]
    if n_cap < 32:
        for search in (rows[-1].t_search, rows[-1].w_search):
            assert [n for n, _ in search.search_trace] == [2, 4, 8, 16, 28, 22, 25, 26, 27]
    t_end, w_end = _bracket_end(rows[-1].t_search), _bracket_end(rows[-1].w_search)
    assert {"same": t_end == w_end, "w lower": w_end < t_end, "t lower": t_end < w_end}[brackets]


@pytest.mark.parametrize(
    "mu, sigma, thetas, overflowing",
    [(0.5, 0.05, [0.8, 0.6], TestKind.T), (5.0, 2.0, [0.5, 0.3], TestKind.WILCOXON)],
)
def test_empirical_are_overflow_by_one_search_alone(mu, sigma, thetas, overflowing):
    cfg, n_cap = config(nreps=400, master_seed=1), 32
    params = MixtureParams(thetas[-1], mu, sigma)
    for kind in TestKind:
        if kind is overflowing:
            with pytest.raises(SearchOverflowError) as alone:
                min_sample_size(kind, params, 0.8, cfg, n_cap)
        else:
            min_sample_size(kind, params, 0.8, cfg, n_cap)  # completes within the cap
    with pytest.raises(SearchOverflowError) as paired:
        empirical_are(mu, sigma, thetas, 0.8, cfg, n_cap)
    assert str(paired.value) == str(alone.value)
    assert paired.value.partial == [_separate_row(mu, sigma, thetas[0], cfg, n_cap)]


def test_empirical_are_draws_each_cell_once(monkeypatch):
    calls = []
    simulate = power._simulate_rejections

    def record(params, n, config, kinds):
        calls.append((params, n, kinds))
        return simulate(params, n, config, kinds)

    monkeypatch.setattr(power, "_simulate_rejections", record)
    rows = empirical_are(1.0, 0.5, [0.5, 0.3], 0.8, config(nreps=400, master_seed=1))
    cells = [(params, n) for params, n, _ in calls]
    assert len(cells) == len(set(cells))
    # Each test is evaluated on exactly the cells its own search probed.
    evaluated = sorted((p.theta, n, kind.value) for p, n, kinds in calls for kind in kinds)
    probed = sorted(
        (row.theta, n, kind.value)
        for row in rows
        for kind, search in ((TestKind.T, row.t_search), (TestKind.WILCOXON, row.w_search))
        for n, _ in search.search_trace
    )
    assert evaluated == probed
    assert len(cells) < len(probed)  # the shared bracket steps were drawn once
