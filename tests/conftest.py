import numpy as np
import pytest

from streamdp import Dataset


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
