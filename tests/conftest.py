import numpy as np
import pytest

from streamdp import Dataset, build_schedule, ledger_from_events, replay


def random_dataset(rng, n, d, k):
    X = rng.standard_normal((n, d))
    y = rng.integers(0, k, size=n)
    return Dataset(X, y, k)


def replay_run(stream, sched, ev):
    """replay over the schedule that sched builds for the stream, with that
    schedule's ledger, as `streamdp run` calls it: the metric records."""
    schedule = build_schedule(sched, stream.n)
    ledger = ledger_from_events(schedule.events, schedule.budgets)
    return replay(stream, sched, ev, schedule, ledger)


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
