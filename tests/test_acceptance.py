"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion. Heavy statistical
checks reuse a module-scoped synthetic stream; the image-data reproduction
test is part of the slow suite and skips when the files are absent.
"""

import math
import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import streamdp as sd
from streamdp import (
    EvalConfig,
    Ledger,
    SchedulerConfig,
    StreamSource,
    SynthConfig,
    laplace_noise,
    sampling_probability,
    subsample,
    synth_stream,
)
from streamdp.erm import lipschitz_public, loss_and_gradient
from streamdp.harness import median_final_accuracy
from streamdp.schedulers import (
    continual_schedule,
    ledger_from_events,
    multires_schedule,
    sliding_chain,
    sliding_schedule,
)
from conftest import random_dataset
from test_schedulers import oracle_continual, oracle_multires, oracle_sliding_buckets


def check(criterion, description, condition):
    status = "PASS" if condition else "FAIL"
    print(f"{status} criterion {criterion}: {description}")
    assert condition, f"criterion {criterion}: {description}"


EPS = Fraction(1)


@pytest.fixture(scope="module")
def synth_data():
    data = synth_stream(SynthConfig(d=20, k=3, n=25000, sigma=0.5, seed=0)).data
    return data.slice(0, 19999), data.slice(20000, 24999)


def test_criterion_1_window_example_replay():
    start = time.time()
    states = sliding_chain(11, 7, 1)
    got = [
        (st.t, tuple((a, b, side) for a, b, side, _ in st.buckets))
        for st in states
    ]
    want = [
        (6, ((3, 6, "base"), (1, 2, "left"), (0, 0, "left"))),
        (7, ((3, 6, "base"), (1, 2, "left"), (7, 7, "right"))),
        (8, ((3, 6, "base"), (7, 8, "right"), (2, 2, "left"))),
        (9, ((3, 6, "base"), (7, 8, "right"), (9, 9, "right"))),
        (10, ((7, 10, "base"), (5, 6, "left"), (4, 4, "left"))),
    ]
    trained_ok = True
    # which buckets are retrained vs reused at each step
    want_trained = [3, 1, 2, 1, 3]
    for st, n_trained in zip(states, want_trained):
        trained_ok &= len(st.trained) == n_trained
    # the base survives steps 7..9 untouched, then is rebuilt at the refresh
    base_ids = [st.buckets[0][3] for st in states]
    trained_ok &= base_ids[0] == base_ids[1] == base_ids[2] == base_ids[3]
    trained_ok &= base_ids[4] != base_ids[0]
    elapsed = time.time() - start
    check(1, "window example replay (5 chain states, exact)",
          got == want and trained_ok and elapsed < 1.0)


def test_criterion_2_schedule_oracle_equivalence():
    start = time.time()
    ok = True
    for B in (1, 2, 8):
        for T in (1, 100, 4096):
            sched = multires_schedule(T, B, EPS, 1.0, 1.0)
            got = [(e.t, e.level, e.a, e.b, e.eps) for e in sched.events]
            ok &= got == oracle_multires(T, B)
    for B in (1, 2, 8):
        for b0 in (1, 2):
            if b0 > B or B % b0:
                continue
            for T in (100, 4096):
                sched = continual_schedule(T, B, b0, EPS, 1.0, 1.0)
                got = [
                    (e.t, e.kind, e.a, e.b, e.eps)
                    for e in sched.events
                    if e.kind != "MultiRes"
                ]
                ok &= got == oracle_continual(T, B, b0)
    for w in (7, 15, 31):
        for st in sliding_chain(4096, w, 1):
            got = sorted((a, b, side) for a, b, side, _ in st.buckets)
            ok &= got == sorted(oracle_sliding_buckets(st.t, w, 1))
    elapsed = time.time() - start
    check(2, f"schedule-oracle equivalence over T<=4096 ({elapsed:.1f}s)",
          ok and elapsed < 30)


def test_criterion_3_privacy_budgets_exact():
    start = time.time()
    # multi-resolution: B=8, T=1024 points, max loss exactly 127/128
    mr = multires_schedule(1024, 8, EPS, 1.0, 1.0)
    led = ledger_from_events(mr.events, mr.budgets)
    _, mx = led.max_point_loss()
    mr_ok = mx == Fraction(127, 128)

    # continual: within eps, every point's charge is a subset of eps/2 + eps/4 + ...
    co = continual_schedule(1024, 8, 2, EPS, 1.0, 1.0)
    led = ledger_from_events(co.events, co.budgets)
    _, cmx = led.max_point_loss("continual")
    pattern_ok = cmx <= EPS
    per_point = {}
    for c in led.charges:
        if c.subsystem != "continual":
            continue
        for p in range(c.a, c.b + 1):
            per_point.setdefault(p, []).append(c.eps)
    for charges in per_point.values():
        # distinct geometric-series terms eps/2^i
        terms = sorted(charges)
        pattern_ok &= len(set(terms)) == len(terms)
        pattern_ok &= all(
            t.numerator == 1 and (t.denominator & (t.denominator - 1)) == 0
            for t in terms
        )
    report = led.assert_budget()
    combined = [e for e in report.entries if e.subsystem == "continual+multires"]
    combined_ok = combined and combined[0].max_eps <= 2 * EPS and combined[0].ok

    # sliding: >= 10 refreshes, total within eps, side groups within eps/3
    sl = sliding_schedule(1200, 31, 1, EPS, 1.0, 1.0)
    refreshes = sum(1 for e in sl.events if e.kind == "WindowRefresh" and e.side == "base")
    sled = ledger_from_events(sl.events, sl.budgets)
    _, smx = sled.max_point_loss()
    sl_ok = refreshes >= 10 and smx <= EPS
    for side in ("base", "left", "right"):
        group = Ledger()
        for c in sled.charges:
            if c.mechanism.endswith("/" + side):
                group.charge((c.a, c.b), c.eps, c.subsystem, c.time, c.mechanism)
        _, gmx = group.max_point_loss()
        sl_ok &= gmx <= EPS / 3
    elapsed = time.time() - start
    check(3, "privacy budgets exact (127/128 multires, continual pattern, "
             f"sliding groups, combined 2eps; {elapsed:.1f}s)",
          mr_ok and pattern_ok and combined_ok and sl_ok and elapsed < 10)


def test_criterion_4_noise_statistics():
    start = time.time()
    b = 1.7
    x = laplace_noise([b], [42], (1, 1_000_000)).ravel()
    mad_ok = abs(np.mean(np.abs(x)) - b) / b <= 0.01
    var_ok = abs(np.var(x) - 2 * b * b) / (2 * b * b) <= 0.02

    # norm tail bound: ||nu||_2 <= ln(d/beta) * d * scale, violation rate <= beta
    tail_ok = True
    trials = 10_000
    for d in (2, 8, 32):
        noise = laplace_noise([b], [100 + d], (trials, d))[0]
        norms = np.linalg.norm(noise, axis=1)
        for beta in (0.01, 0.05):
            threshold = math.log(d / beta) * d * b
            rate = float(np.mean(norms > threshold))
            tail_ok &= rate <= beta
    elapsed = time.time() - start
    check(4, f"Laplace moments and norm tail bound ({elapsed:.1f}s)",
          mad_ok and var_ok and tail_ok and elapsed < 30)


def test_criterion_5_gradient_correctness():
    start = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 9))
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, 10))
        data = random_dataset(rng, n, d, k)
        bias = rng.standard_normal((k, d)) if rng.random() < 0.5 else None
        lam = float(rng.uniform(0.01, 3.0))
        w = rng.standard_normal((k, d))
        _, grad = loss_and_gradient(w, data, lam, bias)
        num = np.zeros_like(grad)
        h = 1e-6
        for i in range(k):
            for j in range(d):
                wp, wm = w.copy(), w.copy()
                wp[i, j] += h
                wm[i, j] -= h
                lp, _ = loss_and_gradient(wp, data, lam, bias)
                lm, _ = loss_and_gradient(wm, data, lam, bias)
                num[i, j] = (lp - lm) / (2 * h)
        rel = np.linalg.norm(grad - num) / max(np.linalg.norm(num), 1e-12)
        worst = max(worst, rel)
    elapsed = time.time() - start
    check(5, f"gradient vs central differences, worst rel err {worst:.2e} "
             f"({elapsed:.1f}s)",
          worst <= 1e-5 and elapsed < 5)


def test_criterion_6_utility_trend(synth_data):
    start = time.time()
    stream, test = synth_data
    L = lipschitz_public(3, 512)
    seeds = (1, 2, 3, 4)
    medians = {}
    for eps in (Fraction(1, 100), Fraction(1, 10), Fraction(1)):
        sched = SchedulerConfig("continual", eps, 1.0, L, B=4096, b0=512)
        recs = sd.replay(StreamSource(stream), sched, EvalConfig(test=test, seeds=seeds))
        medians[eps] = median_final_accuracy(recs)
    sched = SchedulerConfig("continual", Fraction(1), 1.0, L, B=4096, b0=512)
    recs = sd.replay(
        StreamSource(stream), sched, EvalConfig(test=test, seeds=seeds, nonprivate=True)
    )
    nonpriv = median_final_accuracy(recs)
    ordered = [medians[Fraction(1, 100)], medians[Fraction(1, 10)], medians[Fraction(1)]]
    trend_ok = ordered[0] <= ordered[1] <= ordered[2]
    close_ok = abs(medians[Fraction(1)] - nonpriv) <= 0.03
    elapsed = time.time() - start
    check(6, f"utility trend {['%.4f' % m for m in ordered]} vs nonprivate "
             f"{nonpriv:.4f} ({elapsed:.0f}s)",
          trend_ok and close_ok and elapsed < 600)


def test_criterion_7_continual_beats_independent_baseline(synth_data):
    start = time.time()
    stream, test = synth_data
    L = lipschitz_public(3, 512)
    seeds = (1, 2, 3, 4)
    eps = Fraction(1, 10)
    cont = median_final_accuracy(sd.replay(
        StreamSource(stream),
        SchedulerConfig("continual", eps, 1.0, L, B=4096, b0=512),
        EvalConfig(test=test, seeds=seeds),
    ))
    base = median_final_accuracy(sd.replay(
        StreamSource(stream),
        SchedulerConfig("baseline-independent", eps, 1.0, L, b0=512),
        EvalConfig(test=test, seeds=seeds),
    ))
    elapsed = time.time() - start
    check(7, f"continual {cont:.4f} >= independent baseline {base:.4f} ({elapsed:.0f}s)",
          cont >= base and elapsed < 600)


def _mnist_paths():
    root = Path(os.environ.get("STREAMDP_MNIST_DIR", "data/mnist"))
    images = root / "train-images-idx3-ubyte"
    labels = root / "train-labels-idx1-ubyte"
    t_images = root / "t10k-images-idx3-ubyte"
    t_labels = root / "t10k-labels-idx1-ubyte"
    if all(p.exists() for p in (images, labels, t_images, t_labels)):
        return images, labels, t_images, t_labels
    return None


@pytest.mark.slow
@pytest.mark.skipif(_mnist_paths() is None, reason="image dataset files not present")
def test_criterion_8_image_stream_reproduction():
    start = time.time()
    images, labels, t_images, t_labels = _mnist_paths()
    train = sd.load_idx(images, labels)
    test = sd.load_idx(t_images, t_labels)
    stream = StreamSource(train).shuffled(0).data.slice(0, 19999)
    L = lipschitz_public(stream.k, 1024)
    seeds = (1, 2, 3, 4)
    results = {}
    for eps in (Fraction(1, 10), Fraction(1)):
        sched = SchedulerConfig("continual", eps, 1.0, L, B=8192, b0=1024)
        recs = sd.replay(StreamSource(stream), sched, EvalConfig(test=test, seeds=seeds))
        results[eps] = median_final_accuracy(recs)
    sched = SchedulerConfig("continual", Fraction(1), 1.0, L, B=8192, b0=1024)
    nonpriv = median_final_accuracy(sd.replay(
        StreamSource(stream), sched,
        EvalConfig(test=test, seeds=seeds, nonprivate=True),
    ))
    ok = all(abs(results[eps] - nonpriv) <= 0.03 for eps in results)
    elapsed = time.time() - start
    check(8, f"image stream: private {results} vs nonprivate {nonpriv:.4f} "
             f"({elapsed:.0f}s)",
          ok and elapsed < 1800)


def test_criterion_9_sampling_variants():
    start = time.time()
    rng = np.random.default_rng(5)
    # level 0 is the exact identity
    data = random_dataset(rng, 64, 3, 2)
    p = sampling_probability("exp_formula", 0, 0.1)
    rows = subsample(data.n, p, seed=1)
    identity_ok = p == 1.0 and np.array_equal(data.take(rows).X, data.X)

    # expected sampled size from 8B inputs at level 3 is close to B
    B = 256
    eps = 0.1
    big = random_dataset(rng, 8 * B, 2, 2)
    p3 = sampling_probability("exp_formula", 3, eps)
    sizes = [len(subsample(big.n, p3, seed=s)) for s in range(200)]
    mean_ok = abs(np.mean(sizes) - B) / B <= 0.05

    # sampled schedulers carry the same exact charges as the plain ones
    budget_ok = True
    mr = multires_schedule(1024, 8, EPS, 1.0, 1.0, sampled=True)
    _, mx = ledger_from_events(mr.events, mr.budgets).max_point_loss()
    budget_ok &= mx == Fraction(127, 128)
    co = continual_schedule(1024, 8, 2, EPS, 1.0, 1.0, sampled=True)
    rep = ledger_from_events(co.events, co.budgets).assert_budget()
    budget_ok &= rep.ok
    sl = sliding_schedule(1200, 31, 1, EPS, 1.0, 1.0, sampled=True)
    _, smx = ledger_from_events(sl.events, sl.budgets).max_point_loss()
    budget_ok &= smx <= EPS
    elapsed = time.time() - start
    check(9, f"sampling variants (mean size {np.mean(sizes):.1f} vs B={B}; "
             f"{elapsed:.1f}s)",
          identity_ok and mean_ok and budget_ok and elapsed < 60)


def test_criterion_10_cli_determinism(tmp_path):
    start = time.time()
    from streamdp.cli import main

    outputs = []
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        code = main([
            "run", "--scheduler", "continual", "--epsilon", "1", "--lambda", "1",
            "--B", "64", "--b0", "16", "--synth-n", "512", "--synth-d", "4",
            "--iters", "30", "--minibatch", "32", "--seeds", "1,2",
            "--test", "tail:0.25",
            "--output", str(d / "metrics.csv"), "--trace", str(d / "trace.jsonl"),
            "--ledger", str(d / "ledger.jsonl"),
        ])
        assert code == 0
        blobs = b"".join(
            sorted(p.read_bytes() for p in sorted(d.iterdir()))
        )
        outputs.append(blobs)
    elapsed = time.time() - start
    check(10, f"byte-identical repeated runs ({elapsed:.1f}s)",
          outputs[0] == outputs[1] and elapsed < 120)
