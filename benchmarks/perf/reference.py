"""Expected outputs that do not come from the code being measured.

* NumPy-only arithmetic for the served MLP and the Adam update.
* ``golden.json``: the first ``GOLDEN_STEPS`` losses of each training
  workload for seeds 0 and 1, written once by ``--write-golden`` (which
  runs every program op by op in sync eager mode) and committed.  Other
  seeds have no committed trajectory; the workload then replays its
  first steps in sync eager mode after the measured window and the
  result says ``reference=cross-mode``.
"""

from __future__ import annotations

import json
import os

import numpy as np

GOLDEN_STEPS = 5
GOLDEN_SEEDS = (0, 1)
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# float32 programs whose staged form reorders arithmetic (fusion, CSE);
# five training steps amplify that, so trajectories match to ~1e-3.
LOSS_RTOL = 5e-3
LOSS_ATOL = 1e-4

BETA1, BETA2, EPS, LR, WEIGHT_DECAY = 0.9, 0.999, 1e-7, 1e-3, 1e-4


def mlp_forward(weights, x):
    """tanh(… tanh(x @ W0) … @ Wn) in float32 NumPy."""
    for w in weights:
        x = np.tanh(x @ w)
    return x


def adam_update(p, g, m, v):
    """One Adam step on NumPy arrays; returns ``(p', m', v')``."""
    g = np.tanh(g * np.float32(0.25)) * np.float32(4.0)
    g = g + np.float32(WEIGHT_DECAY) * p
    m_new = m * np.float32(BETA1) + g * np.float32(1.0 - BETA1)
    v_new = v * np.float32(BETA2) + g * g * np.float32(1.0 - BETA2)
    m_hat = m_new * np.float32(1.0 / (1.0 - BETA1))
    v_hat = v_new * np.float32(1.0 / (1.0 - BETA2))
    update = m_hat / np.sqrt(v_hat + np.float32(EPS))
    return p - np.float32(LR) * update, m_new, v_new


def close(actual, expected, rtol=1e-4, atol=1e-5) -> bool:
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    return actual.shape == expected.shape and bool(
        np.allclose(actual, expected, rtol=rtol, atol=atol)
    )


def losses_match(actual, expected) -> list[bool]:
    """Per-step verdicts for a loss trajectory against its reference."""
    return [
        bool(np.isfinite(a) and abs(a - e) <= LOSS_ATOL + LOSS_RTOL * abs(e))
        for a, e in zip(actual, expected)
    ]


def load_golden(workload: str, seed: int):
    """The committed trajectory for ``(workload, seed)``, or None."""
    try:
        with open(GOLDEN_PATH) as f:
            golden = json.load(f)
    except FileNotFoundError:
        return None
    return golden.get(workload, {}).get(str(seed))


def write_golden(trajectories: dict) -> None:
    with open(GOLDEN_PATH, "w") as f:
        json.dump(trajectories, f, indent=1, sort_keys=True)
        f.write("\n")
