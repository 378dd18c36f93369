"""Seeded inputs of the three workloads.

Every data seed and the serve request mix derive from the workload
seed alone, so one seed always yields the same points in the same
order.  Points are plain ``SweepPoint``-shaped tuples
``(kernel, ftype, mode, mem_latency, seed, instruction_budget)``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

WORKLOADS = ("fig1_sweep", "seed_sweep", "serve_mixed")
SWEEPS = ("fig1_sweep", "seed_sweep")

BUDGET = 50_000_000

#: seed_sweep configurations: (kernel, ftype, mode, seed-varied points).
SEED_SWEEP_CONFIGS = (
    ("gemm", "float16", "auto", 64),
    ("nn_conv2d", "float16", "auto", 64),
    ("svm", "float16alt", "auto", 24),
    ("nn_attention", "posit8", "auto", 24),
    ("nn_mlp_train", "float8", "auto", 8),
    ("syr2k", "float8", "manual", 8),
    ("fdtd2d", "posit16", "auto", 4),
    ("atax", "float16", "manual", 4),
)
SEED_SWEEP_LOCKSTEP = 64

#: serve_mixed: configurations of the unique-seed singles and sweeps.
SERVE_CONFIGS = (
    ("atax", "float16", "auto"),
    ("nn_layernorm", "float16", "auto"),
    ("syrk", "float8", "manual"),
    ("nn_mlp_fwd", "posit8", "auto"),
)
SERVE_CLIENTS = 2
SERVE_HOT_POINTS = 8
SERVE_SWEEP_POINTS = 16
#: One block of the request mix: 10 hot repeats, 9 unique-seed
#: singles and 1 sweep (50% / 45% / 5%), shuffled per block.
SERVE_BLOCK = ("hot",) * 10 + ("unique",) * 9 + ("sweep",)
#: Blocks generated per client; far more than one run can use.
SERVE_BLOCKS_PER_CLIENT = 200

Point = Tuple[str, str, str, int, int, int]


def _rng(seed: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}")


def sweep_points(workload: str, seed: int) -> Tuple[List[Point], int]:
    """A sweep workload's points and its ``run_points`` lockstep width."""
    rng = _rng(seed, workload)
    if workload == "fig1_sweep":
        from repro.harness.experiments import fig1_points

        data_seed = rng.randrange(1, 2**31)
        return [tuple(p) for p in fig1_points(seed=data_seed)], 0
    if workload == "seed_sweep":
        total = sum(n for *_, n in SEED_SWEEP_CONFIGS)
        seeds = iter(rng.sample(range(1, 2**31), total))
        points = [(name, ftype, mode, 1, next(seeds), BUDGET)
                  for name, ftype, mode, n in SEED_SWEEP_CONFIGS
                  for _ in range(n)]
        return points, SEED_SWEEP_LOCKSTEP
    raise ValueError(f"{workload!r} is not a sweep workload")


def serve_schedule(seed: int) -> List[List[Dict]]:
    """Per-client request lists for serve_mixed.

    Each entry is ``{"kind": "kernel", "point": p}`` or ``{"kind":
    "sweep", "points": [...]}``.  Hot points repeat; unique singles and
    sweep points never repeat within a run.
    """
    rng = _rng(seed, "serve_mixed")
    hot_seeds = rng.sample(range(1, 10**6), SERVE_HOT_POINTS)
    hot = [SERVE_CONFIGS[i % len(SERVE_CONFIGS)] + (1, s, BUDGET)
           for i, s in enumerate(hot_seeds)]
    next_seed = rng.randrange(10**6, 2**30)
    clients: List[List[Dict]] = []
    for _ in range(SERVE_CLIENTS):
        ops: List[Dict] = []
        for _ in range(SERVE_BLOCKS_PER_CLIENT):
            block = list(SERVE_BLOCK)
            rng.shuffle(block)
            for kind in block:
                if kind == "hot":
                    ops.append({"kind": "kernel", "point": rng.choice(hot)})
                    continue
                config = rng.choice(SERVE_CONFIGS)
                count = 1 if kind == "unique" else SERVE_SWEEP_POINTS
                points = [config + (1, next_seed + i, BUDGET)
                          for i in range(count)]
                next_seed += count
                if kind == "unique":
                    ops.append({"kind": "kernel", "point": points[0]})
                else:
                    ops.append({"kind": "sweep", "points": points})
        clients.append(ops)
    return clients
