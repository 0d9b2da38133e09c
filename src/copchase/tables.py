"""Tables over (cop configuration, robber vertex) states: game values and
cop and robber policies, looked up by a configuration's rank among the
sorted k-tuples. A row of a (configurations x n) table is a configuration
in `_config_rank` order."""

from __future__ import annotations

import math
from typing import TextIO

import numpy as np

from .chain import as_config


def _config_rank(n: int, k: int, config) -> int:
    """Row of `config` in the lexicographic order of the sorted k-tuples of
    range(n) (Knuth, TAOCP 4A, 7.2.1.3); KeyError if it is not one of them."""
    cfg = as_config(config)
    if len(cfg) != k or cfg[0] < 0 or cfg[-1] >= n:
        raise KeyError(cfg)
    # c_i + i is a k-subset of range(n + k - 1): count the subsets after it
    top = n + k - 1
    return math.comb(top, k) - 1 - sum(math.comb(top - 1 - c - i, k - i) for i, c in enumerate(cfg))


def _state(table: np.ndarray, k: int, config, y: int) -> tuple[int, int]:
    """Index of (config, y) in a (configurations x n) table; KeyError off it."""
    if not 0 <= y < table.shape[1]:  # a negative y would wrap around
        raise KeyError(y)
    return _config_rank(table.shape[1], k, config), y


class ValueTable:
    """Map from (cop configuration, robber vertex) to a game value.

    `kind` records which game the values belong to: "adversarial" and
    "adversarial-robber" hold minimax round counts (math.inf on robber-win
    states), "drunk" holds expected capture times.
    """

    def __init__(self, kind: str, k: int, configs, values: np.ndarray):
        self.kind = kind
        self.k = k
        self.configs = configs
        self.values = values

    def value(self, config, y: int) -> float:
        return float(self.values[_state(self.values, self.k, config, y)])

    def __getitem__(self, key) -> float:
        config, y = key
        return self.value(config, y)

    def config_means(self) -> np.ndarray:
        return self.values.mean(axis=1)

    def to_csv(self, sink: TextIO) -> None:
        cols = [f"x{i + 1}" for i in range(self.k)]
        sink.write(",".join(cols + ["y", "value"]) + "\n")
        for cfg, row in zip(self.configs, self.values):
            prefix = ",".join(str(v) for v in cfg)
            for y, val in enumerate(row):
                text = "inf" if math.isinf(val) else repr(float(val))
                sink.write(f"{prefix},{y},{text}\n")


class FeedbackPolicy:
    """Deterministic cop move per state: (configuration, robber) -> successor
    configuration. Undefined states (robber-win regions) map to None."""

    def __init__(self, k: int, configs, successor_idx: np.ndarray):
        self.k = k
        self.configs = configs
        self.successor_idx = successor_idx

    def successor(self, config, y: int):
        idx = self.successor_idx[_state(self.successor_idx, self.k, config, y)]
        return None if idx < 0 else self.configs[idx]

    def undefined_count(self) -> int:
        return int((self.successor_idx < 0).sum())

    def to_csv(self, sink: TextIO) -> None:
        cols = [f"x{i + 1}" for i in range(self.k)]
        ucols = [f"u{i + 1}" for i in range(self.k)]
        sink.write(",".join(cols + ["y"] + ucols) + "\n")
        for cfg, row in zip(self.configs, self.successor_idx):
            prefix = ",".join(str(v) for v in cfg)
            for y, idx in enumerate(row):
                if idx < 0:
                    tail = ",".join("-" for _ in range(self.k))
                else:
                    tail = ",".join(str(v) for v in self.configs[idx])
                sink.write(f"{prefix},{y},{tail}\n")


class RobberPolicy:
    """Adversarial robber move per state: (configuration, robber) -> vertex."""

    def __init__(self, k: int, configs, target: np.ndarray):
        self.k = k
        self.configs = configs
        self.target = target

    def successor(self, config, y: int) -> int:
        return int(self.target[_state(self.target, self.k, config, y)])
