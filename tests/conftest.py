import os

import numpy as np
import pytest

from streamdp import Dataset


def pytest_report_header():
    """The numpy, BLAS and thread settings of the run: the BLAS shape rules
    in `erm` (`_one_product`, `_stacked_product`) were measured on one
    build, so a failure log names the build it ran on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{k}={v}" for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")) or "none set"
    return [f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}",
            f"*_NUM_THREADS: {threads}"]


def random_dataset(rng, n, d, k):
    X = rng.standard_normal((n, d))
    y = rng.integers(0, k, size=n)
    return Dataset(X, y, k)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def idx_images_bytes(images: np.ndarray) -> bytes:
    """Serialize a (n, rows, cols) uint8 array as an IDX image file."""
    n, rows, cols = images.shape
    header = (
        (0x00000803).to_bytes(4, "big")
        + n.to_bytes(4, "big")
        + rows.to_bytes(4, "big")
        + cols.to_bytes(4, "big")
    )
    return header + images.astype(np.uint8).tobytes()


def idx_labels_bytes(labels: np.ndarray) -> bytes:
    header = (0x00000801).to_bytes(4, "big") + len(labels).to_bytes(4, "big")
    return header + labels.astype(np.uint8).tobytes()
