"""Faithful replica of the pre-compile-pipeline fast inference engine.

Preserved from the runtime as it stood before the compiled-plan/serving
rework so the committed serving benchmarks keep measuring against the
*real* historical baseline:

* ``legacy_forward_rows`` -- the per-layer kernel: one
  :func:`hardware_layer_outputs` call (two float64 bucket matmuls), a
  third full matmul for the final-sum reference (``layer.forward``) and
  a fourth boolean matmul for the synops statistic;
* ``legacy_parallel_rows`` -- the per-call ``ProcessPoolExecutor`` that
  re-pickled the full layer list once per row chunk (``[layers] *
  len(chunks)``), spawn and teardown included in every call -- exactly
  the overhead the persistent shared-memory pool removes.

Both return ``(decisions, spurious, synops)`` with the same bit-exact
semantics as :meth:`repro.ssnn.compile.CompiledNetwork.forward_rows`,
which is what lets ``bench.py --check serve`` pin the equivalence alongside the
throughput numbers.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Sequence, Tuple

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.harness import (  # noqa: E402
    random_binarized_network,
    random_spike_trains,
)
from repro.snn.binarize import BinarizedLayer, BinarizedNetwork  # noqa: E402
from repro.ssnn.bucketing import hardware_layer_outputs  # noqa: E402


def legacy_forward_rows(
    layers: Sequence[BinarizedLayer],
    rows: np.ndarray,
    capacity: int,
    reorder: bool = True,
) -> Tuple[np.ndarray, int, int]:
    """The pre-rework fast kernel (4 matmuls per layer, all float64)."""
    current = rows
    spurious = 0
    synops = 0
    for layer in layers:
        decisions, _ = hardware_layer_outputs(
            layer, current, capacity, reorder=reorder
        )
        reference = layer.forward(current)
        spurious += int((decisions != reference).sum())
        synops += int((current @ (layer.signed_weights != 0)).sum())
        current = decisions
    return current, spurious, synops


def legacy_parallel_rows(
    layers: Sequence[BinarizedLayer],
    rows: np.ndarray,
    capacity: int,
    reorder: bool = True,
    workers: int = 2,
) -> Tuple[np.ndarray, int, int]:
    """The pre-rework multi-core path: a throwaway executor per call,
    layer list pickled once *per chunk*."""
    from concurrent.futures import ProcessPoolExecutor

    layers = list(layers)
    chunks = np.array_split(rows, workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(
            legacy_forward_rows,
            [layers] * len(chunks),
            chunks,
            [capacity] * len(chunks),
            [reorder] * len(chunks),
        ))
    decisions = np.concatenate([p[0] for p in parts], axis=0)
    spurious = sum(p[1] for p in parts)
    synops = sum(p[2] for p in parts)
    return decisions, spurious, synops


def make_serving_workload(
    seed: int = 2024,
    sizes: Sequence[int] = (784, 512, 10),
    steps: int = 2,
    batch: int = 512,
    sc_per_npe: int = 10,
) -> Tuple[BinarizedNetwork, np.ndarray, int, int]:
    """The committed serving benchmark workload: an MNIST-shaped random
    network at the paper's scale and a batch-512 spike block.

    Returns ``(network, rows, steps, batch)`` with ``rows`` already
    flattened to the ``(steps * batch, in_features)`` row block both
    engines consume.
    """
    rng = np.random.default_rng(seed)
    network = random_binarized_network(
        rng, sizes=sizes, sc_per_npe=sc_per_npe
    )
    trains = random_spike_trains(rng, steps, batch, sizes[0])
    rows = np.ascontiguousarray(
        trains.reshape(steps * batch, sizes[0])
    )
    return network, rows, steps, batch
