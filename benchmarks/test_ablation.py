"""Ablation benches for the design choices docs/simulation.md calls out.

1. Rotation-only match detection: how much of the speedup do rotational
   matches account for (vs disabling warping altogether)?
2. Per-loop hash maps cleared per execution (paper Sec. 5.3) is built
   in; the measurable proxy is the match/attempt efficiency.
3. The matchless-execution give-up heuristic: overhead of symbolic
   simulation with the heuristic on vs off on warp-hostile kernels.
"""

import pytest

from common import SCALED_L, scaled_l1
from conftest import get_figure

from repro.cache.cache import Cache
from repro.polybench import build_kernel
from repro.simulation import simulate_nonwarping, simulate_warping
from repro.simulation.warping import _WarpingRunner


@pytest.mark.parametrize("kernel", ["jacobi-2d", "seidel-2d", "adi"])
def test_ablation_warping_on_off(benchmark, kernel):
    """Warping on vs off (pure symbolic simulation)."""
    scop = build_kernel(kernel, SCALED_L[kernel])
    config = scaled_l1("plru")

    def run():
        on = simulate_warping(scop, config, enable_warping=True)
        off = simulate_warping(scop, config, enable_warping=False)
        return on, off

    on, off = benchmark.pedantic(run, rounds=1, iterations=1)
    assert on.l1_misses == off.l1_misses
    speedup = off.wall_time / max(on.wall_time, 1e-9)
    get_figure(
        "Ablation-warp", "warping on vs off (symbolic simulation)",
        ["kernel", "warps", "attempts", "non-warped %", "speedup"],
    ).add_row(kernel, on.warp_count, on.warp_attempts,
              round(100 * on.non_warped_share, 1), round(speedup, 2))
    assert speedup > 1.0, "warping must pay for itself on stencils"


@pytest.mark.parametrize("kernel", ["gemm", "floyd-warshall"])
def test_ablation_giveup_heuristic(benchmark, kernel):
    """Matchless-execution give-up: overhead saved on hostile kernels."""
    scop = build_kernel(kernel, SCALED_L[kernel])
    config = scaled_l1("plru")

    def run():
        baseline = simulate_nonwarping(scop, Cache(config))
        default = simulate_warping(scop, config)

        saved = _WarpingRunner.max_matchless_executions
        _WarpingRunner.max_matchless_executions = 10**9
        try:
            persistent = simulate_warping(scop, config)
        finally:
            _WarpingRunner.max_matchless_executions = saved
        return baseline, default, persistent

    baseline, default, persistent = benchmark.pedantic(
        run, rounds=1, iterations=1)
    assert default.l1_misses == persistent.l1_misses == baseline.l1_misses
    overhead_default = default.wall_time / max(baseline.wall_time, 1e-9)
    overhead_persist = persistent.wall_time / max(baseline.wall_time, 1e-9)
    get_figure(
        "Ablation-giveup", "give-up heuristic overhead vs non-warping",
        ["kernel", "overhead with heuristic", "overhead without"],
    ).add_row(kernel, round(overhead_default, 2),
              round(overhead_persist, 2))
    # The heuristic must not be slower than keeping matching on forever.
    assert overhead_default <= overhead_persist * 1.2


@pytest.mark.parametrize("kernel", ["jacobi-2d", "adi"])
def test_ablation_match_efficiency(benchmark, kernel):
    """Proxy for the rotation-canonical hashing choice: warp attempts
    should be a tiny fraction of iterations, and most attempts succeed
    on warp-friendly kernels."""
    scop = build_kernel(kernel, SCALED_L[kernel])
    config = scaled_l1("plru")
    result = benchmark.pedantic(
        lambda: simulate_warping(scop, config), rounds=1, iterations=1)
    get_figure(
        "Ablation-match", "match-detection efficiency",
        ["kernel", "accesses", "attempts", "warps", "success %"],
    ).add_row(kernel, result.accesses, result.warp_attempts,
              result.warp_count,
              round(100 * result.warp_count
                    / max(result.warp_attempts, 1), 1))
    assert result.warp_attempts < result.accesses / 10
