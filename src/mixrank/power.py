"""Deterministic parallel Monte Carlo power lab.

Estimates finite-sample power and size of the two tests under the mixture
alternative, maps power-ratio surfaces over (theta, n) lattices, searches
minimal sample sizes for a target power, and approximates the asymptotic
relative efficiency as the ratio of minimal sample sizes along a mixing
proportion schedule shrinking toward the null.

Reproducibility contract: a cell's replications are cut into blocks of
``_block_rows(n)`` rows, a count that depends on the sample size n alone.
Each block gets one SFC64 stream, one batched draw, one evaluation and one
task, so every sample depends only on (master seed, simulation cell,
block index, replication count).  Per-cell results are integer rejection
counts, so output is bit-identical for any worker count.  A block holds at
most ``_BLOCK_ELEMENTS`` sample values (1 MiB of float64), drawn into a
buffer that later blocks reuse, or one row in fresh memory where a row alone
holds more (n > 2**17).  The evaluators see a block read-only, so none can
write into a buffer another block will read.
With more than one worker, the cells of a power-ratio surface share one
pool: their blocks are submitted in lattice order with at most two per
worker in flight, so no cell ends at a barrier and a surface holds a
bounded number of blocks however large its lattice.  One worker runs the
blocks in order on the calling thread.
Both tests are always evaluated on the same simulated samples, which pairs
the comparison and sharply reduces the Monte Carlo noise of power ratios.
The signed-rank evaluator decides every tie-free row by the p-value the
scalar test takes for it, the exact one up to ``AUTO_EXACT_MAX_N`` values
and the normal approximation above, from one vectorised call per block and
key width: a row rejects iff p <= alpha.  The t evaluator rejects a row by
comparing its statistic with a critical value instead, which spares a
``betainc`` call per row: a row rejects iff its t statistic, oriented toward
the alternative as the scalar p-value orients it (-t for LESS, the larger of
t and -t for TWO_SIDED), is >= c.  A cached search on the Student-t p-value
finds c for each (n, alpha, two-sidedness) in at most 8 vectorised p-value
calls, each of which narrows the doubles left 256-fold.  The rule
rejects the same rows as p <= alpha wherever that p-value is monotone in
floating point; tests/test_power.py checks it next to every critical value.
The signed-rank evaluator ranks rows on a ladder of key widths: the float32
rounding of each value for rows of up to ``_KEY32_MAX_N`` values, the float64
bits for rows still coarse and longer rows, and the scalar test for rows with
a float64 tie or zero.  That rounding is monotone, so a row whose float32
magnitudes are distinct and nonzero has the ranks, and the W+, of its float64
magnitudes.  The t evaluator uses the t statistic of :mod:`mixrank.rank_tests`.
``empirical_are`` runs its T and W searches as one group over shared draws:
the group probes each n once, with both tests, until their verdicts differ,
and then splits in two whose intervals never meet again, so no (cell, n) is
simulated twice.
"""

import functools
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InsufficientDataError, SearchOverflowError, _is_real, _member
from .mixture import MixtureParams, _draw as draw_sample
from .rank_tests import (
    AUTO_EXACT_MAX_N,
    Sidedness,
    WilcoxonMode,
    _oriented,
    _t_p_value,
    _t_statistics,
    _wilcoxon_p_exact,
    _wilcoxon_p_normal,
    wilcoxon_test,
)
from .streams import replication_rng, stream_key

_BLOCK_ROWS = 4096  # most replications per block
# Sample values per block: 1 MiB of float64, so a block and an evaluator's
# temporaries stay near a 2 MiB L2 cache (on such a host 2 MiB blocks ran
# 10-15% slower per element).  The t evaluator holds one block-sized
# temporary, the deviations from the row means.  The signed-rank evaluator
# holds a key and the differences of adjacent keys: half a block each on
# 32-bit keys, a block each on 64-bit keys.  It binds above n = 32, and above
# n = 2**16 a block is one row.  A block is drawn into a reused buffer of this
# many doubles, so its memory is not returned to the system and faulted back
# in by the next block; a row longer than that (n > 2**17) is drawn into
# fresh memory.
_BLOCK_ELEMENTS = 1 << 17
# Block buffers not in use.  A running block holds one, so there are never
# more than the blocks that have run at once.
_FREE_BUFFERS: list[np.ndarray] = []
# Largest n whose signed-rank rows are ranked on 32-bit keys first.  Rows
# with a float32 zero or tie (coarse rows) are ranked again on 64-bit keys.
# Under the benchmark mixtures (C7's, and C8's lattice at theta 0.2-0.8) the
# coarse share is 0.0005% of rows at n = 20, 0.02% at 100, 0.6% at 700, 1.4%
# at 1000, 6% at 2048, 21% at 4096 and 60% at 8192.  The 32-bit pass plus
# the second ranking was faster up to n ~ 5000 and slower from 6000.
_KEY32_MAX_N = 4096
_Z99 = 2.3263478740408408  # 99% standard normal quantile
_NMIN_SLACK = 0.01


class TestKind(Enum):
    __test__ = False  # not a pytest class, despite the name

    T = "t"
    WILCOXON = "wilcoxon"


@dataclass(frozen=True)
class SimConfig:
    """Knobs of one Monte Carlo experiment.

    ``sidedness`` defaults to the one-sided greater alternative, appropriate
    when the contaminating component has positive mean (both statistics
    shift upward); it is configurable everywhere.
    """

    alpha: float = 0.05
    sidedness: Sidedness = Sidedness.GREATER
    nreps: int = 10_000
    master_seed: int = 0
    max_parallelism: int = 1

    def __post_init__(self):
        if not _is_real(self.alpha) or not 0.0 < self.alpha < 1.0:
            raise DomainError(f"significance level must lie in (0, 1), got {self.alpha}")
        _member(self.sidedness, Sidedness, "sidedness")
        for name, what in (
            ("nreps", "replication count"),
            ("master_seed", "master seed"),
            ("max_parallelism", "parallelism"),
        ):
            object.__setattr__(self, name, _integral(getattr(self, name), what))
        if self.nreps < 1:
            raise DomainError(f"replication count must be positive, got {self.nreps}")
        if self.max_parallelism < 1:
            raise DomainError(f"parallelism must be positive, got {self.max_parallelism}")


@dataclass(frozen=True)
class PowerEstimate:
    """Monte Carlo rejection rate and its binomial standard error."""

    power: float
    mc_se: float
    nreps: int
    test_kind: TestKind
    n_degenerate: int = 0


class Probe(NamedTuple):
    """One step of a sample-size search: the probed n and its estimate."""

    n: int
    estimate: PowerEstimate


@dataclass(frozen=True)
class SampleSizeResult:
    """Outcome of a minimal-sample-size search."""

    n_min: int
    achieved_power_ci: tuple[float, float]
    search_trace: list[Probe]


@dataclass(frozen=True)
class SurfacePoint:
    """One (theta, n) cell of a power-ratio surface."""

    theta: float
    n: int
    power_w: float
    se_w: float
    power_t: float
    se_t: float
    ratio: float
    flagged: bool


@dataclass(frozen=True)
class EmpiricalArePoint:
    """Minimal sample sizes of both tests at one mixing proportion."""

    theta: float
    n_t: int
    n_w: int
    ratio: float
    t_search: SampleSizeResult
    w_search: SampleSizeResult


# ---------------------------------------------------------------------------
# vectorized per-block test evaluation
# ---------------------------------------------------------------------------

_CRITICAL_CACHE = 1024  # t's (n, alpha, two-sidedness) keys; a search probes ~20 n
_WAYS = 256  # most points a critical-value search tests per round
_INF_ORDINAL = 0x7FF0_0000_0000_0000  # ordinal of +inf; -inf is its negation


def _doubles(ordinals: np.ndarray) -> np.ndarray:
    """The doubles at int64 ``ordinals``, which number every double in order, 0 at 0.0."""
    magnitude = np.abs(ordinals).view(np.float64)
    return np.where(ordinals < 0, -magnitude, magnitude)


def _first(rejects, lo: int, hi: int) -> int:
    """Smallest k in [lo, hi) with ``rejects(k)``, or hi; ``rejects`` is False, then True.

    ``rejects`` maps an int64 array to a bool array.  Each round is one call
    on ``_WAYS`` points spread evenly over what is left, or on every point
    once that few are left, so each round shrinks the range ``_WAYS``-fold.
    """
    while lo < hi:
        ways = min(hi - lo, _WAYS)
        points = [lo + j * (hi - lo) // ways for j in range(ways)]
        hits = rejects(np.array(points, dtype=np.int64))
        first_hit = int(np.argmax(hits)) if hits.any() else ways
        if first_hit < ways:
            hi = points[first_hit]
        if first_hit > 0:
            lo = points[first_hit - 1] + 1
    return hi


@functools.lru_cache(maxsize=_CRITICAL_CACHE)
def _t_critical_value(n: int, alpha: float, two_sided: bool) -> float:
    """The critical value c of the oriented t statistic of n values at level alpha.

    c is the smallest double whose p-value is <= alpha: GREATER's p over
    every double, or TWO_SIDED's over |t| >= 0.  Past |t| ~ 1.3e154, t*t
    overflows and the p-value reads 0, as it would for a row; only the
    search probes there, so it runs with the overflow warning off.
    """
    side = Sidedness.TWO_SIDED if two_sided else Sidedness.GREATER
    with np.errstate(over="ignore"):
        ordinal = _first(
            lambda o: _t_p_value(_doubles(o), n - 1, side) <= alpha,
            0 if two_sided else -_INF_ORDINAL,
            _INF_ORDINAL,
        )
    return float(_doubles(np.array(ordinal)))


def _t_rejections(x: np.ndarray, alpha: float, sidedness: Sidedness) -> tuple[int, int]:
    """Rejections and degenerate rows of the t test over the rows of ``x``.

    A row rejects when its oriented t statistic reaches the cached critical
    value of the Student-t p-value: the rule ``p <= alpha`` wherever that
    p-value is monotone.  Zero-variance rows are degenerate and never reject.
    """
    stat, ok = _t_statistics(x)
    c = _t_critical_value(x.shape[1], alpha, sidedness is Sidedness.TWO_SIDED)
    reject = ok & (_oriented(stat, np.negative, sidedness) >= c)
    return int(np.count_nonzero(reject)), int(ok.size - np.count_nonzero(ok))


def _wilcoxon_rejections(x: np.ndarray, alpha: float, sidedness: Sidedness) -> tuple[int, int]:
    """Rejections and degenerate rows of the signed-rank test over the rows of ``x``.

    A tie-free row without zeros rejects when the scalar test's p-value of
    its W+ is <= alpha.  Rows with zeros or tied magnitudes take the scalar
    test itself, and all-zero rows are degenerate.

    Up to n = ``_KEY32_MAX_N`` rows are ranked on 32-bit keys built from
    float32 magnitudes.  Rounding a double to float32 is monotone, so where
    a row's float32 magnitudes are distinct and nonzero they sort as its
    float64 magnitudes do, and W+ is the same.  A float64 tie or zero stays
    a tie or zero in float32, so every row the scalar test would see is
    among the coarse rows, those with a float32 zero or tie, which the
    exact 64-bit ranking takes again.
    """
    rejections = 0
    for bits in (32, 64) if x.shape[1] <= _KEY32_MAX_N else (64,):
        if bits == 64:
            key = np.left_shift(x.view(np.uint64), 1)
        else:
            # Magnitudes beyond float32's range become inf, which still sorts last.
            with np.errstate(over="ignore"):
                key = x.astype(np.float32).view(np.uint32)
            np.left_shift(key, 1, out=key)
        count, coarse = _rank_rejections(key, x, alpha, sidedness)
        rejections += count
        if not coarse.any():
            return rejections, 0
        x = x[coarse]
    # Zeros or tied magnitudes have probability zero under the mixture but
    # are handled exactly anyway via the scalar test.
    degenerate = 0
    for row in x:
        if not (row != 0.0).any():
            degenerate += 1
            continue
        outcome = wilcoxon_test(row, sidedness, mode=WilcoxonMode.AUTO)
        if outcome.p_value <= alpha:
            rejections += 1
    return rejections, degenerate


def _rank_rejections(
    key: np.ndarray, x: np.ndarray, alpha: float, sidedness: Sidedness
) -> tuple[int, np.ndarray]:
    """Rejections among the rows of ``key`` with distinct nonzero magnitudes, and the other rows.

    ``key`` holds the magnitude bits of ``x`` shifted left by one, and is
    overwritten.  Non-negative floats order like their bit patterns, so once
    the sign of x is in the low bit a sort orders each row by magnitude.  On
    a row whose keys differ beyond the low bit and whose magnitudes are
    nonzero, the sorted position is the rank, so W+ is the rank sum over the
    keys whose low bit is set.  Those rows reject when the scalar test's
    p-value of W+, from one call on every row's W+, is <= alpha.  The other
    rows are returned as a mask.
    """
    n = key.shape[1]
    np.bitwise_or(key, x > 0.0, out=key)
    key.sort(axis=1)
    coarse = _coarse_rows(key)
    # W+ <= n(n+1)/2 fits uint32 up to n = 92681, far above _KEY32_MAX_N.
    w = np.bitwise_and(key, 1, out=key) @ np.arange(1, n + 1, dtype=key.dtype)
    p_value = _wilcoxon_p_exact if n <= AUTO_EXACT_MAX_N else _wilcoxon_p_normal
    reject = ~coarse & (p_value(w, n, sidedness) <= alpha)
    return int(np.count_nonzero(reject)), coarse


def _coarse_rows(key: np.ndarray) -> np.ndarray:
    """Rows of sorted keys with a zero magnitude or two that differ at most in the low bit."""
    rows, n = key.shape
    # One screen over the flat block finds most blocks free of ties; a pair
    # that straddles two rows can hit it, and only costs the per-row check.
    flat = key.reshape(-1)
    step = np.empty_like(flat)
    np.bitwise_xor(flat[1:], flat[:-1], out=step[:-1])
    coarse = key[:, 0] < 2
    if step[:-1].min() < 2:
        coarse |= (step.reshape(rows, n)[:, :-1] < 2).any(axis=1)
    return coarse


_EVALUATORS = {
    TestKind.T: _t_rejections,
    TestKind.WILCOXON: _wilcoxon_rejections,
}


def _block_rows(n: int) -> int:
    """Replications per block of a cell of sample size ``n``; changing it changes every draw."""
    return max(1, min(_BLOCK_ROWS, _BLOCK_ELEMENTS // n))


def _simulation_cell_key(params: MixtureParams, n: int) -> int:
    # Samples are keyed by the data-generating process only, never by the
    # test applied to them, so both tests see identical draws.
    return stream_key("power-cell", params.theta, params.mu, params.sigma, n)


def _take_buffer() -> np.ndarray:
    """A free block buffer of ``_BLOCK_ELEMENTS`` doubles, or a new one when none is free."""
    try:
        return _FREE_BUFFERS.pop()  # one atomic step, so two threads never share one
    except IndexError:
        return np.empty(_BLOCK_ELEMENTS)


def _simulate_cells(
    cells: list[tuple[MixtureParams, int]],
    config: SimConfig,
    kinds: tuple[TestKind, ...],
) -> list[dict[TestKind, PowerEstimate]]:
    """Estimates of every (params, n) cell, all of their blocks run on one pool.

    Blocks are submitted in cell order with at most two per worker in
    flight, so a lattice holds O(workers) futures however many blocks it
    has, and no cell waits for its own last block before the next starts.
    One worker runs the blocks in order on the calling thread instead: a
    pool thread gets its own glibc malloc arena, which keeps its blocks'
    freed memory beside the memory the calling thread keeps.
    """
    kinds = tuple(_member(kind, TestKind, "test kind") for kind in kinds)
    layout = [(_simulation_cell_key(params, n), _block_rows(n)) for params, n in cells]
    n_blocks = [-(-config.nreps // rows) for _, rows in layout]

    def run_block(params: MixtureParams, n: int, cell: int, rows: int, block: int) -> np.ndarray:
        rng = replication_rng(config.master_seed, cell, block)
        count = min(rows, config.nreps - block * rows)
        buffer = _take_buffer() if count * n <= _BLOCK_ELEMENTS else None
        try:
            x = draw_sample(params, count * n, rng, buffer).reshape(count, n)
            x.flags.writeable = False  # the next block draws into the same memory
            return np.array([_EVALUATORS[kind](x, config.alpha, config.sidedness) for kind in kinds])
        finally:
            if buffer is not None:
                _FREE_BUFFERS.append(buffer)

    # The counts are integers summed per cell, so they cannot depend on the
    # worker count or on the order in which blocks finish.
    totals = [0] * len(cells)
    workers = min(config.max_parallelism, sum(n_blocks))
    blocks = (
        (i, (params, n, cell, rows, block))
        for i, ((params, n), (cell, rows)) in enumerate(zip(cells, layout))
        for block in range(n_blocks[i])
    )
    if workers == 1:
        for i, task in blocks:
            totals[i] += run_block(*task)
    else:
        in_flight = deque()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for i, task in blocks:
                if len(in_flight) == 2 * workers:
                    j, done = in_flight.popleft()
                    totals[j] += done.result()
                in_flight.append((i, pool.submit(run_block, *task)))
            for j, done in in_flight:
                totals[j] += done.result()

    results = []
    for cell_totals in totals:
        estimates = {}
        for kind, (rejections, degenerate) in zip(kinds, cell_totals.tolist()):
            power = rejections / config.nreps
            mc_se = math.sqrt(power * (1.0 - power) / config.nreps)
            estimates[kind] = PowerEstimate(power, mc_se, config.nreps, kind, degenerate)
        results.append(estimates)
    return results


def _simulate_rejections(
    params: MixtureParams,
    n: int,
    config: SimConfig,
    kinds: tuple[TestKind, ...],
) -> dict[TestKind, PowerEstimate]:
    """Estimates of one cell, from the same runner as a whole surface."""
    return _simulate_cells([(params, n)], config, kinds)[0]


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _integral(n, what: str) -> int:
    """``n`` as an int; 20.0 and np.int64(20) pass, and True, "20", 20.9, NaN and inf raise."""
    if not _is_real(n) or not (isinstance(n, int) or float(n).is_integer()):
        raise DomainError(f"{what} must be an integer, got {n}")
    return int(n)


def _sample_size(n) -> int:
    """``n`` as an int sample size, which must be at least 2."""
    n = _integral(n, "sample size")
    if n < 2:
        raise InsufficientDataError(f"power estimation needs n >= 2, got {n}")
    return n


def estimate_power(
    test_kind: TestKind, params: MixtureParams, n: int, config: SimConfig
) -> PowerEstimate:
    """Monte Carlo rejection rate of one test at sample size ``n``.

    Degenerate replications (zero-variance or all-zero samples, probability
    zero under the mixture) are tallied in ``n_degenerate`` and never count
    as rejections.
    """
    return _simulate_rejections(params, _sample_size(n), config, (test_kind,))[test_kind]


def estimate_size(test_kind: TestKind, n: int, config: SimConfig) -> PowerEstimate:
    """Null rejection rate (theta = 0), for calibration checks."""
    return estimate_power(test_kind, MixtureParams(0.0, 0.0, 1.0), n, config)


def power_ratio_surface(
    mu: float,
    sigma: float,
    theta_axis,
    n_axis,
    config: SimConfig,
) -> list[SurfacePoint]:
    """Power of both tests over a (theta, n) lattice, with their ratio.

    Rows are emitted theta-major.  A row is flagged as near-null when its
    ratio is not a meaningful power comparison: at theta = 0 (both powers sit
    at size level) and whenever the t-test power is dominated by its own
    Monte Carlo error (power_t < 10 * se_t, or no rejections at all).
    """
    # Every parameter set is checked before the first cell is simulated.
    params_axis = [MixtureParams(theta, mu, sigma) for theta in theta_axis]
    n_axis = [_sample_size(n) for n in n_axis]
    if not params_axis or not n_axis:
        raise DomainError("theta and n axes must be nonempty")
    cells = [(params, n) for params in params_axis for n in n_axis]
    rows = []
    for (params, n), estimates in zip(
        cells, _simulate_cells(cells, config, (TestKind.WILCOXON, TestKind.T))
    ):
        theta = params.theta
        est_w, est_t = estimates[TestKind.WILCOXON], estimates[TestKind.T]
        flagged = theta == 0.0 or est_t.power == 0.0 or est_t.power < 10.0 * est_t.mc_se
        ratio = est_w.power / est_t.power if est_t.power > 0.0 else math.nan
        rows.append(
            SurfacePoint(
                theta=theta,
                n=n,
                power_w=est_w.power,
                se_w=est_w.mc_se,
                power_t=est_t.power,
                se_t=est_t.mc_se,
                ratio=ratio,
                flagged=flagged,
            )
        )
    return rows


def _meets_target(estimate: PowerEstimate, target_power: float) -> bool:
    # 99% lower confidence bound with a small slack keeps Monte Carlo noise
    # from oscillating the bisection near the crossing.
    lower = estimate.power - _Z99 * estimate.mc_se
    return lower >= target_power - _NMIN_SLACK


def _sample_size_searches(
    kinds: tuple[TestKind, ...],
    params: MixtureParams,
    target_power: float,
    config: SimConfig,
    n_cap: int,
) -> dict[TestKind, SampleSizeResult]:
    """One bracket-then-bisect search per test kind, over shared draws.

    Searches that have decided alike so far ask for the same n, so they move
    as a group ``(kinds, lo, hi)``: the target is missed at ``lo`` (n = 1
    counts as missed) and met at ``hi``, which is None while the bracket
    doubles up to ``n_cap``.  A group probes its n once, with exactly its
    own tests, and splits into the tests that met the target there and
    those that missed.  The two intervals never meet again, so no (cell, n)
    is simulated twice, and each search probes what it would probe alone.
    """
    if not _is_real(target_power) or not 0.0 < target_power < 1.0:
        raise DomainError(f"target power must lie in (0, 1), got {target_power}")
    if params.theta <= 0.0:
        raise DomainError("sample-size search requires an alternative (theta > 0)")
    n_cap = _integral(n_cap, "sample-size cap")
    if n_cap < 2:
        raise DomainError(f"sample-size cap must be at least 2, got {n_cap}")
    traces: dict[TestKind, list[Probe]] = {kind: [] for kind in kinds}
    results = {}
    groups = [(kinds, 1, None)]
    while groups:
        group, lo, hi = groups.pop()
        if hi is not None and hi - lo <= 1:
            for kind in group:
                final = dict(traces[kind])[hi]
                ci = (
                    max(0.0, final.power - _Z99 * final.mc_se),
                    min(1.0, final.power + _Z99 * final.mc_se),
                )
                results[kind] = SampleSizeResult(hi, ci, traces[kind])
            continue
        n = min(2 * lo, n_cap) if hi is None else (lo + hi) // 2
        estimates = _simulate_rejections(params, n, config, group)
        hit, miss = [], []
        for kind in group:
            traces[kind].append(Probe(n, estimates[kind]))
            (hit if _meets_target(estimates[kind], target_power) else miss).append(kind)
        if miss and hi is None and n == n_cap:
            raise SearchOverflowError(
                f"sample-size bracket exceeded {n_cap} for theta={params.theta}",
                partial=traces[miss[0]],
            )
        if hit:
            groups.append((tuple(hit), lo, n))
        if miss:
            groups.append((tuple(miss), n, hi))
    return results


def min_sample_size(
    test_kind: TestKind,
    params: MixtureParams,
    target_power: float,
    config: SimConfig,
    n_cap: int = 1_000_000,
) -> SampleSizeResult:
    """Smallest n whose estimated power clears the target.

    Exponential bracketing followed by integer bisection, exploiting that
    true power is nondecreasing in n.  Acceptance at each probe requires the
    99% lower confidence bound of the estimate to reach
    ``target_power - 0.01``; every probe is recorded in the trace.
    ``n_cap`` is the largest n probed: the bracket's last step is ``n_cap``
    itself, and :class:`SearchOverflowError` is raised only when the
    estimate there misses the target.  A search that never meets its
    target, such as a LESS test against a positive contaminant, probes up
    to ``n_cap``; at the default cap one such search took 192 s on a
    2-vCPU host.
    """
    return _sample_size_searches((test_kind,), params, target_power, config, n_cap)[test_kind]


def empirical_are(
    mu: float,
    sigma: float,
    theta_sequence,
    target_power: float,
    config: SimConfig,
    n_cap: int = 1_000_000,
) -> list[EmpiricalArePoint]:
    """Sample-size ratio n_t / n_w along a theta schedule shrinking to 0.

    The trailing ratios approximate the asymptotic relative efficiency of
    the signed-rank test over the t test; this is the brute-force oracle
    that arbitrates the closed form's constant.  At each theta the two
    searches start as one group that draws each probed n once for both
    tests, and split into two groups at the first n where their verdicts
    differ; each search's result equals that of :func:`min_sample_size`.
    Every theta is checked before the first search.  On a search overflow
    the completed rows ride along on the exception's ``partial`` attribute.
    """
    # Every parameter set is checked before the first search.
    params_schedule = [MixtureParams(theta, mu, sigma) for theta in theta_sequence]
    thetas = [params.theta for params in params_schedule]
    if not thetas:
        raise DomainError("theta schedule must be nonempty")
    if any(t <= 0.0 for t in thetas):
        raise DomainError("theta schedule must be strictly positive")
    if any(b >= a for a, b in zip(thetas, thetas[1:])):
        raise DomainError("theta schedule must decrease toward 0")

    rows: list[EmpiricalArePoint] = []
    for params in params_schedule:
        try:
            searches = _sample_size_searches(tuple(TestKind), params, target_power, config, n_cap)
        except SearchOverflowError as exc:
            raise SearchOverflowError(str(exc), partial=rows) from exc
        t_search, w_search = searches[TestKind.T], searches[TestKind.WILCOXON]
        rows.append(
            EmpiricalArePoint(
                theta=params.theta,
                n_t=t_search.n_min,
                n_w=w_search.n_min,
                ratio=t_search.n_min / w_search.n_min,
                t_search=t_search,
                w_search=w_search,
            )
        )
    return rows
