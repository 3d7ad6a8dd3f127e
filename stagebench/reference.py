"""Bare-numpy references for the benchmark's workloads.

Each function recomputes one step from the same inputs the runtime saw,
in float32 like the runtime, so a checked step is compared with
independent math and rounding does not build up across steps. Timed, the
same functions give the bare-numpy floor. Nothing here imports stageflow.
"""
from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np


def mlp_loss_and_grads(
    x: np.ndarray, y: np.ndarray, layers: Sequence[Tuple[np.ndarray, np.ndarray]]
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """MSE loss of a relu MLP (linear last layer) and its gradients.

    ``layers`` is ``[(w, b), ...]``; gradients come back flat in the same
    order: ``[dw0, db0, dw1, db1, ...]``.
    """
    acts = [x]
    h = x
    for k, (w, b) in enumerate(layers):
        z = h @ w + b
        h = np.maximum(z, np.float32(0)) if k < len(layers) - 1 else z
        acts.append(h)
    err = h - y
    loss = np.mean(err * err)
    d = err * np.float32(2.0 / err.size)
    grads: List[np.ndarray] = []
    for k in range(len(layers) - 1, -1, -1):
        w, _ = layers[k]
        if k < len(layers) - 1:
            d = d * (acts[k + 1] > 0)
        grads = [acts[k].T @ d, d.sum(axis=0)] + grads
        if k:
            d = d @ w.T
    return loss, grads


def leapfrog(q: np.ndarray, p: np.ndarray, n_steps: int, step: float):
    """Leapfrog on U(q) = sum(q^2) / 2, whose force is -q."""
    half = step / 2.0
    for _ in range(n_steps):
        p = p - q * half
        q = q + p * step
        p = p - q * half
    return q, p


def leapfrog_sum_grad(n_steps: int, step: float) -> float:
    """d(sum(q_n) + sum(p_n)) / d(q_0[i]), the same for every element.

    The map is linear and acts on each element alone, so the derivative is
    the trajectory of a unit position with zero momentum.
    """
    q, p = leapfrog(np.ones(1), np.zeros(1), n_steps, step)
    return float(q[0] + p[0])


def max_rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Largest absolute error, relative to the largest reference magnitude."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return float("inf")
    if want.size == 0:
        return 0.0
    scale = max(float(np.max(np.abs(want))), 1e-6)
    err = float(np.max(np.abs(got - want))) / scale
    return err if np.isfinite(err) else float("inf")


def compare(
    got: Dict[str, np.ndarray], want: Dict[str, np.ndarray], tol: float
) -> List[str]:
    """Names (with their error) whose values differ by more than ``tol``."""
    problems = []
    for name, ref in want.items():
        if name not in got:
            problems.append(f"{name}: missing")
            continue
        err = max_rel_err(got[name], ref)
        if not err <= tol:
            problems.append(f"{name}: rel err {err:.2e} > {tol:g}")
    return problems
