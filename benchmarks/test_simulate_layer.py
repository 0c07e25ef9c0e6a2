"""Micro-benchmarks of the S_r and E_t samplers, on frozen inputs.

From the repository root:

    PYTHONPATH=src python -m pytest benchmarks/test_simulate_layer.py

pytest-benchmark times each case and prints min/median/mean per round.
Each case is one sampler call as ``report`` or the ``mc`` workload makes
it: golden criterion 3's S_r at r = 2, the ``mc`` workload's S_r of its
distributed-order ``tails`` call at seed 1 (both clocks), criterion 5's
rarest tilted S_r, and the E_t ensembles of a ``fundsol --method mc`` call,
at one level and at the 16 levels of the ``mc`` workload's call at seed 1 in
one walk.  The
default test run does not collect this directory (``testpaths = ["tests"]``).
"""

import numpy as np

from subtail.golden import GOLDEN_SEED
from subtail.kernels import DistributedOrder, Truncated, caputo
from subtail.simulate import SimConfig, sample_E_t, sample_S_at, sample_S_tilted


def _run(benchmark, sampler, args, rounds):
    return benchmark.pedantic(sampler, args=args, rounds=rounds, iterations=1)


def test_sample_S_at_of_criterion_3(benchmark):
    # ~11M jumps over 100k paths
    cfg = SimConfig(cutoff_eps=1e-4, n_paths=100_000, seed=GOLDEN_SEED + 2)
    ens = _run(benchmark, sample_S_at, (caputo(0.5), cfg, 2.0), rounds=10)
    assert np.all(ens.values > 0.0)


# the two clocks of the mc workload's tails call on its distributed kernel at seed 1
_MC_DISTRIBUTED_CLOCKS = (0.5044308006468157, 1.9783009777016363)


def test_sample_S_at_of_the_mc_distributed_tails(benchmark):
    # w(1e-3) ~ 48.2, so ~120k jumps over 1000 paths and both clocks, each
    # drawn term by term from the two Caputo terms
    k = DistributedOrder(weights=((0.3, 1.0), (0.7, 1.0)))
    cfg = SimConfig(cutoff_eps=1e-3, n_paths=1000, seed=1)
    ens = _run(benchmark, lambda: [sample_S_at(k, cfg, r) for r in _MC_DISTRIBUTED_CLOCKS], (),
               rounds=20)
    assert all(np.all(e.values > 0.0) for e in ens)


def test_sample_S_tilted_of_criterion_5(benchmark):
    # theta* ~ 4.5: 14 cells, ~1.1M proposals over 2^16 paths
    cfg = SimConfig(cutoff_eps=1e-3, n_paths=2**16, seed=GOLDEN_SEED + 21)
    ens = _run(benchmark, sample_S_tilted, (Truncated(beta=0.5, delta=1.0, scale=1.0), cfg, 0.3, 3.5),
               rounds=10)
    assert np.all(ens.weights > 0.0)


def test_sample_E_t_of_the_mc_workload(benchmark):
    # the mc workload's p_mc ensemble: half-Caputo, eps 1e-3, 4000 paths
    cfg = SimConfig(cutoff_eps=1e-3, n_paths=4000, seed=1)
    ens = _run(benchmark, sample_E_t, (caputo(0.5), cfg, 0.1), rounds=20)
    assert not ens.censored.any()


# the 16 distinct t of the mc workload's fundsol call at seed 1, sorted
_MC_LEVELS = np.array([
    0.04199650584790154, 0.05078018285847165, 0.058314057333912386, 0.06677043855028353,
    0.07779706372215926, 0.081854513402246, 0.09673216959996127, 0.11703567545385461,
    0.1199598880283902, 0.13323034766131123, 0.17315211192519336, 0.24536898194926227,
    0.2608350480724837, 0.34313941076426596, 0.4083352020653859, 0.48928373282336096,
])


def test_sample_E_t_of_the_mc_workload_levels(benchmark):
    # the same call's 16 levels in one walk to the largest
    cfg = SimConfig(cutoff_eps=1e-3, n_paths=4000, seed=1)
    ens = _run(benchmark, sample_E_t, (caputo(0.5), cfg, _MC_LEVELS), rounds=20)
    assert ens.values.shape == (16, 4000) and not ens.censored.any()
