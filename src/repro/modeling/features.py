"""Feature extraction for I/O performance prediction.

Sun et al. [57] predict execution and I/O time of MPI applications "with
different inputs, at different scales, and without domain knowledge" --
i.e. from configuration features alone.  :func:`workload_features` encodes
an IOR-style configuration.
"""

from __future__ import annotations

from typing import List

import numpy as np

#: Order of the configuration feature vector (documented for model users).
WORKLOAD_FEATURE_NAMES: List[str] = [
    "n_ranks",
    "log2_transfer_size",
    "log2_block_size",
    "segments",
    "file_per_process",
    "random_offsets",
    "stripe_count",
    "read_fraction",
]


def workload_features(
    n_ranks: int,
    transfer_size: int,
    block_size: int,
    segments: int = 1,
    file_per_process: bool = False,
    random_offsets: bool = False,
    stripe_count: int = 1,
    read_fraction: float = 0.0,
) -> np.ndarray:
    """Feature vector of one benchmark configuration."""
    if n_ranks <= 0 or transfer_size <= 0 or block_size <= 0 or segments <= 0:
        raise ValueError("configuration values must be positive")
    return np.array(
        [
            float(n_ranks),
            float(np.log2(transfer_size)),
            float(np.log2(block_size)),
            float(segments),
            1.0 if file_per_process else 0.0,
            1.0 if random_offsets else 0.0,
            float(stripe_count),
            float(read_fraction),
        ]
    )

