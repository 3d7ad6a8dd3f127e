"""Warm train steps reuse freed host memory instead of faulting it in again.

A batch-512 MLP step allocates and frees several 512 KiB arrays. With
glibc's default policy the freed top of the heap goes back to the OS, and
the next step takes hundreds of minor page faults to get it back; the
runtime's malloc policy (``runtime.retain_freed_heap``) keeps it.
"""
import os
import resource

import pytest

from stageflow import bench
from stageflow.runtime import retain_freed_heap


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.skipif(not _on_glibc(), reason="the heap policy is glibc's")
@pytest.mark.parametrize("mode", bench.MODES)
def test_warm_mlp_train_steps_fault_in_no_new_pages(mode):
    assert retain_freed_heap()
    cfg = bench.BenchConfig("mlp_train", mode, batch_size=512)
    wl = bench._fresh(cfg, mode)
    for _ in range(10):
        wl.run_iteration()
    before = _minor_faults()
    for _ in range(20):
        wl.run_iteration()
    per_step = (_minor_faults() - before) / 20
    assert per_step < 8, f"{per_step} minor faults per warm {mode} step"
