#!/usr/bin/env python3
"""streamdp benchmark: offline workloads driven through the public CLI.

    python3 benchmarks/bench.py --workload continual-d20 --seed 1 --seconds 30 --trace 0

Each run generates its inputs from --seed (CSV or IDX files), then calls
`streamdp.cli.main` in-process, closed loop: `run` with --output/--trace/--ledger,
then `verify-ledger` on the trace it wrote, again and again until --seconds
is used up (at least twice, so reruns can be compared byte for byte). Every
command and check counts as one operation; a non-zero exit, an exception or a
failed check counts as a failed one.

With --trace 0 the end-to-end metrics are reported; with --trace 1 a traced
repetition between two untraced ones gives the per-layer metrics (see
tracer.py). The last line of standard output is a JSON object with the keys
correct, attempted, failed and metrics. README.md describes every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# One BLAS thread: the work then runs on the thread whose core speed
# hostspeed.py samples, and idle BLAS threads spinning on the second of two
# shared cores do not slow the main thread. Set before numpy loads BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

SETUP_MIN_CALLS = 5  # input generation repeats until both minimums are met
SETUP_MIN_S = 1.0
MIN_REPS = 2
VERIFY_MIN_S = 1.0  # verify-ledger repeats per repetition until this much time
VERIFY_MIN_CALLS = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark input: generated data plus the `run` flags."""

    name: str
    data: str  # "blobs" (CSV) or "images" (IDX)
    n_stream: int
    n_test: int
    flags: tuple[str, ...]
    side: int = 28  # image side length, for "images"

    def flag(self, key: str) -> str:
        return self.flags[self.flags.index(key) + 1]

    @property
    def seeds(self) -> list[int]:
        return [int(s) for s in self.flag("--seeds").split(",")]


WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance shape: erm's SGD is almost all the work, and its cost
        # is Python overhead per iteration at small d.
        Workload(
            "continual-d20", "blobs", 20_000, 5_000,
            ("--scheduler", "continual", "--epsilon", "1/10", "--lambda", "1",
             "--B", "4096", "--b0", "512", "--seeds", "1,2,3,4"),
        ),
        # The same layer in another regime: SGD is compute-bound on 784-wide
        # images. Exercises load_idx and holds most of the memory.
        Workload(
            "image-d784", "images", 20_000, 5_000,
            ("--scheduler", "continual", "--epsilon", "1/10", "--lambda", "1",
             "--B", "8192", "--b0", "1024", "--seeds", "1,2"),
        ),
        # Accounting-bound: replay's running max re-sweeps every charge at
        # every release and is most of run_s, per-event overhead is next. The
        # only trace long enough to time verify-ledger. T = 3000 keeps the
        # running max the majority of run_s.
        Workload(
            "sliding-w255", "blobs", 3_000, 750,
            ("--scheduler", "sliding", "--w", "255", "--w0", "1", "--epsilon", "1",
             "--lambda", "1", "--iters", "20", "--minibatch", "32", "--seeds", "1"),
        ),
    )
}


# ---------------------------------------------------------------- inputs


def blobs(rng, n, d=20, k=3, sigma=0.5):
    """Gaussian blobs around class means on the unit circle (coordinates 0, 1)."""
    y = rng.integers(0, k, size=n)
    X = sigma * rng.standard_normal((n, d))
    angle = 2.0 * np.pi * y / k
    X[:, 0] += np.cos(angle)
    X[:, 1] += np.sin(angle)
    return X, y


def write_csv(path, X, y):
    np.savetxt(path, np.column_stack([X, y]), delimiter=",", fmt="%.17g")


# Class prototypes are a grey background plus +-IMAGE_OFFSET along distinct
# Hadamard rows, so every pair of classes is equally far apart whatever the
# seed; heavy pixel noise keeps test accuracy well below 1.
IMAGE_K = 10
IMAGE_OFFSET = 16.0
IMAGE_NOISE = 60.0


def prototypes(rng, side):
    h = np.ones((1, 1))
    while h.shape[0] < side * side:
        h = np.block([[h, h], [h, -h]])
    cols = rng.permutation(h.shape[1])[: side * side]
    return 128.0 + IMAGE_OFFSET * h[1:IMAGE_K + 1][:, cols]


def images(rng, protos, n, chunk=2000):
    """uint8 images: prototype of a uniform class plus Gaussian pixel noise."""
    y = rng.integers(0, IMAGE_K, size=n)
    out = np.empty((n, protos.shape[1]), dtype=np.uint8)
    for s in range(0, n, chunk):
        noisy = protos[y[s:s + chunk]] + IMAGE_NOISE * rng.standard_normal(
            (len(y[s:s + chunk]), protos.shape[1]))
        out[s:s + chunk] = np.clip(np.rint(noisy), 0, 255)
    return out, y


def write_idx(images_path, labels_path, pixels, y, side):
    n = len(y)
    with open(images_path, "wb") as fh:
        for v in (0x00000803, n, side, side):
            fh.write(v.to_bytes(4, "big"))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        for v in (0x00000801, n):
            fh.write(v.to_bytes(4, "big"))
        fh.write(y.astype(np.uint8).tobytes())


def make_inputs(w: Workload, seed: int, where: Path) -> tuple[str, str]:
    """Write the workload's stream and test set; return the CLI source specs."""
    where.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sum(w.name.encode())])
    if w.data == "blobs":
        specs = []
        for part, n in (("stream", w.n_stream), ("test", w.n_test)):
            path = where / f"{part}.csv"
            write_csv(path, *blobs(rng, n))
            specs.append(f"csv:{path}")
        return specs[0], specs[1]
    protos = prototypes(rng, w.side)
    specs = []
    for part, n in (("stream", w.n_stream), ("test", w.n_test)):
        img, lab = where / f"{part}-images.idx", where / f"{part}-labels.idx"
        write_idx(img, lab, *images(rng, protos, n), w.side)
        specs.append(f"idx:{img},{lab}")
    return specs[0], specs[1]


# ---------------------------------------------------------------- one repetition


@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def call_cli(argv, tracer=None, span=None):
    """Run `streamdp.cli.main` in-process; return (exit code, stdout, interval).

    The interval is the (start, end) pair of `time.perf_counter()` readings
    around the call. An exception counts as exit code -1.
    """
    from streamdp import cli

    out = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span(span):
                    code = cli.main(argv)
    except Exception:  # a crash is a failed operation, not the end of the run
        traceback.print_exc()
        code = -1
    return code, out.getvalue(), (start, time.perf_counter())


def wall(intervals) -> float:
    return sum(end - start for start, end in intervals)


def output_files(out: Path) -> list[Path]:
    return sorted(p for p in out.iterdir() if p.is_file())


def digest(files) -> str:
    h = hashlib.sha256()
    for p in files:
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def final_rows(w: Workload, out: Path) -> dict[int, dict]:
    """Last metrics row of every seed's file, keyed by seed."""
    rows = {}
    for seed in w.seeds:
        name = f"metrics.seed{seed}.csv" if len(w.seeds) > 1 else "metrics.csv"
        with open(out / name, newline="") as fh:
            rows[seed] = list(csv.DictReader(fh))[-1]
    return rows


MAX_LOSS = re.compile(r"^max point loss: (\S+) at index", re.M)


def repetition(w: Workload, specs, out: Path, ops: Ops, verify_min_s, tracer=None):
    """One `run` plus repeated `verify-ledger`, with every correctness check.

    Returns the run's interval, the verify calls' intervals (list), final
    accuracy and output digest.
    """
    out.mkdir(parents=True, exist_ok=True)
    for p in output_files(out):
        p.unlink()
    trace = out / "trace.jsonl"
    argv = ["run", *w.flags, "--source", specs[0], "--test", specs[1],
            "--output", str(out / "metrics.csv"), "--trace", str(trace),
            "--ledger", str(out / "ledger.jsonl")]
    code, _, run_at = call_cli(argv, tracer, "cli.run")
    ran = ops.check(code == 0, f"run exited {code}")

    verify_at = []
    verify_out = ""
    while len(verify_at) < VERIFY_MIN_CALLS or wall(verify_at) < verify_min_s:
        vcode, verify_out, at = call_cli(
            ["verify-ledger", str(trace), "--epsilon", w.flag("--epsilon")], tracer, "cli.verify")
        verify_at.append(at)
        if not ops.check(vcode == 0, f"verify-ledger exited {vcode}"):
            break
        if tracer is not None:
            break  # one traced verify is enough for the per-layer split

    acc = None
    if ran:
        try:
            rows = final_rows(w, out)
            match = MAX_LOSS.search(verify_out)
            verified = Fraction(match.group(1)) if match else None
            for seed, row in rows.items():
                eps_max = Fraction(int(row["eps_max_num"]), int(row["eps_max_den"]))
                ops.check(eps_max == verified,
                          f"seed {seed}: last eps_max {eps_max} != verified max {verified}")
            acc = statistics.median(float(r["acc_test"]) for r in rows.values())
            summary = out / "metrics.summary.json"
            if summary.exists():
                q50 = json.loads(summary.read_text())["median_final_acc_test"]
                # np.percentile and statistics.median may round the midpoint differently
                ops.check(math.isclose(q50, acc, rel_tol=1e-12), f"summary median {q50} != {acc}")
        except (OSError, KeyError, ValueError, IndexError) as exc:
            ops.check(False, f"reading outputs: {exc!r}")
    return run_at, verify_at, acc, digest(output_files(out))


# ---------------------------------------------------------------- environment


def _blas_name():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown"
    return f"{deps.get('name')} {deps.get('version', '')}".strip()


def _openblas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    """HEAD commit read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": _blas_name(), "blas_threads": _openblas_threads(),
        "git_commit": _git_commit(),
        "workload": workload, "seed": seed,
    }


# ---------------------------------------------------------------- runs


def measure(w: Workload, seed: int, seconds: float, workdir: Path, ops: Ops) -> dict:
    """Untraced pass: end-to-end metrics as {name: (value, unit)}.

    Every timing is host-speed corrected (hostspeed.py) and the median of its
    samples: the input generations, the `run` repetitions, the verify calls.
    """
    with HostSpeed() as speed:
        setup = []
        while len(setup) < SETUP_MIN_CALLS or wall(setup) < SETUP_MIN_S:
            start = time.perf_counter()
            specs = make_inputs(w, seed, workdir / "inputs")
            setup.append((start, time.perf_counter()))

        runs, verifies, accs, digests = [], [], [], []
        start = time.perf_counter()
        while True:
            rep_start = time.perf_counter()
            run_at, verify_at, acc, dig = repetition(
                w, specs, workdir / "out", ops, VERIFY_MIN_S)
            runs.append(run_at)
            verifies.extend(verify_at)
            accs.append(acc)  # equal across repetitions when the digests are
            digests.append(dig)
            rep = time.perf_counter() - rep_start
            if len(runs) >= MIN_REPS and time.perf_counter() - start + rep > seconds:
                break
    for i, dig in enumerate(digests[1:], start=2):
        ops.check(dig == digests[0], f"repetition {i} outputs differ from repetition 1")

    def median(intervals, label):
        raw = statistics.median(end - start for start, end in intervals)
        value = statistics.median(speed.corrected(*at) for at in intervals)
        print(f"# {label}: {len(intervals)} samples, median wall {raw:.6f} s, "
              f"corrected {value:.6f} s")
        return value

    run_s = median(runs, "run")
    verify_s = median(verifies, "verify-ledger")
    setup_s = median(setup, "input generation")
    print(f"# {len(speed.probes)} speed probes, median {statistics.median(speed.probes)} s")
    print(f"# output digest {digests[0]}")
    n_points = w.n_stream * len(w.seeds)
    return {
        "run_s": (run_s, "s"),
        "points_per_s": (n_points / run_s, "1/s"),
        "verify_s": (verify_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "acc_test": (accs[0] if accs[0] is not None else 0.0, "fraction"),
    }


def measure_traced(w: Workload, seed: int, workdir: Path, ops: Ops) -> dict:
    """Traced pass: a traced repetition between two untraced ones (the first
    repetition of a process is the slowest); per-layer metrics, in wall time."""
    from tracer import Tracer, layer_metrics

    specs = make_inputs(w, seed, workdir / "inputs")
    before, _, _, plain_digest = repetition(w, specs, workdir / "out", ops, 0.0)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _, _, traced_digest = repetition(
            w, specs, workdir / "out", ops, 0.0, tracer=tracer)
    finally:
        tracer.uninstall()
    after, _, _, after_digest = repetition(w, specs, workdir / "out", ops, 0.0)
    ops.check(traced_digest == plain_digest, "traced outputs differ from untraced outputs")
    ops.check(after_digest == plain_digest, "repetition 2 outputs differ from repetition 1")
    tracer.write(workdir / "spans.jsonl")
    if tracer.missing:
        print(f"# missing spans (their metrics are left out): {sorted(tracer.missing)}")
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_s"] = (wall([traced]) - wall([before, after]) / 2, "s")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        workloads=WORKLOADS) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    w = workloads[workload]
    ops = Ops()
    print(f"# env {json.dumps(environment(workload, seed))}")
    if trace:
        metrics = measure_traced(w, seed, workdir, ops)
    else:
        metrics = measure(w, seed, seconds, workdir, ops)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(f"failed_ops = {ops.failed}/{ops.attempted}")
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "streamdp" / "__init__.py").is_file():
        print(f"error: no streamdp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    shutil.rmtree(workdir / "inputs")
    (workdir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
