import os
import sys
import threading
import time

import numpy as np
import pytest

from ditsgcr import clustering, synthgen
from ditsgcr.clustering import (_reseed_dead_centroids, compute_subx,
                                cosine_similarities, kmeanspp_init,
                                normalize_rows, soft_assign, soft_kmeans)
from ditsgcr.pipeline import count_unique_embeddings
from ditsgcr.temporal_aggregation import aggregate
from helpers import (extra_peak, hard_assign_onehot, loop_kmeanspp_init, loop_soft_kmeans,
                     record_helpers)


def unit_rows(rng, n, d):
    X = rng.normal(size=(n, d))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def test_normalize_rows():
    H = np.array([[3.0, 4.0], [0.0, 0.0], [0.0, 2.0]])
    out = normalize_rows(H)
    assert out[0] == pytest.approx([0.6, 0.8], abs=1e-9)
    assert np.all(out[1] == 0.0)
    assert out[2] == pytest.approx([0.0, 1.0], abs=1e-9)
    assert H[0, 0] == 3.0  # input untouched
    assert normalize_rows(H, out=H) is H
    assert H.tobytes() == out.tobytes()


def test_kmeanspp_deterministic():
    rng = np.random.default_rng(0)
    H = unit_rows(rng, 30, 4)
    a = kmeanspp_init(H, 5, seed=9)
    b = kmeanspp_init(H, 5, seed=9)
    assert np.array_equal(a, b)


def test_kmeanspp_k1_is_some_row():
    rng = np.random.default_rng(1)
    H = unit_rows(rng, 10, 3)
    c = kmeanspp_init(H, 1, seed=4)
    assert any(np.array_equal(c[0], row) for row in H)


def test_kmeanspp_k_equals_n_is_permutation():
    rng = np.random.default_rng(2)
    H = unit_rows(rng, 7, 3)
    c = kmeanspp_init(H, 7, seed=1)
    order_c = np.lexsort(c.T)
    order_h = np.lexsort(H.T)
    assert np.array_equal(c[order_c], H[order_h])


def test_kmeanspp_duplicate_rows_distinct_indices():
    H = np.array([[1.0, 0.0]] * 4 + [[0.0, 1.0]] * 2)
    c = kmeanspp_init(H, 6, seed=3)
    # all six indices used exactly once: value multiset matches
    assert sorted(map(tuple, c)) == sorted(map(tuple, H))


def test_kmeanspp_errors():
    H = np.eye(3)
    with pytest.raises(ValueError):
        kmeanspp_init(H, 4, seed=0)
    with pytest.raises(ValueError):
        kmeanspp_init(H, 0, seed=0)


def test_soft_assign_rows_sum_to_one():
    rng = np.random.default_rng(5)
    sims = rng.uniform(-1, 1, size=(50, 6))
    for beta in (0.1, 10.0, 1e6):
        R = soft_assign(sims, beta)
        assert np.all(np.isfinite(R))
        assert np.abs(R.sum(axis=1) - 1.0).max() <= 1e-9
        assert R.min() >= 0.0


def test_soft_assign_sharpens_with_beta():
    rng = np.random.default_rng(6)
    sims = rng.uniform(-1, 1, size=(40, 5))
    betas = [0.5, 1.0, 5.0, 50.0, 1e4]
    prev = None
    for beta in betas:
        top = soft_assign(sims, beta).max(axis=1)
        if prev is not None:
            assert np.all(top >= prev - 1e-12)
        prev = top


def test_large_beta_matches_hard_assignment():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(5, 51))
        d = int(rng.integers(2, 8))
        k = int(rng.integers(2, 6))
        H = unit_rows(rng, n, d)
        centroids = unit_rows(rng, k, d)
        onehot, sims_oracle = hard_assign_onehot(H, centroids)
        sims = cosine_similarities(H, centroids)
        R = soft_assign(sims, 1e6)
        srt = np.sort(sims_oracle, axis=1)
        clear = (srt[:, -1] - srt[:, -2]) > 1e-4
        assert clear.mean() > 0.9  # random instances are rarely ambiguous
        assert np.abs(R[clear] - onehot[clear]).max() <= 1e-6


def test_soft_kmeans_deterministic_and_shapes():
    rng = np.random.default_rng(8)
    H = unit_rows(rng, 40, 6)
    R1, C1 = soft_kmeans(H, 4, beta=10.0, iters=10, seed=2)
    R2, C2 = soft_kmeans(H, 4, beta=10.0, iters=10, seed=2)
    assert np.array_equal(R1, R2) and np.array_equal(C1, C2)
    assert R1.shape == (40, 4) and C1.shape == (4, 6)
    assert np.abs(R1.sum(axis=1) - 1.0).max() <= 1e-9


def test_soft_kmeans_centroids_unit_norm():
    rng = np.random.default_rng(9)
    H = unit_rows(rng, 60, 5)
    _, C = soft_kmeans(H, 3, beta=10.0, iters=5, seed=11)
    assert np.abs(np.linalg.norm(C, axis=1) - 1.0).max() <= 1e-9


def test_soft_kmeans_validates_arguments():
    H = np.eye(4)
    for beta in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            soft_kmeans(H, 2, beta=beta, iters=5, seed=0)
    with pytest.raises(ValueError):
        soft_kmeans(H, 2, beta=1.0, iters=0, seed=0)


def test_reseed_moves_dead_centroid_to_farthest_row():
    H = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    centroids = np.array([[1.0, 0.0], [5.0, 5.0]])
    totals = np.array([1.5, 0.0])  # second centroid is dead
    out = _reseed_dead_centroids(H, centroids.copy(), totals)
    # farthest row from its nearest live centroid is (-1, 0)
    assert out[1] == pytest.approx([-1.0, 0.0], abs=1e-9)


def test_cosine_similarity_zero_rows_guarded():
    H = np.array([[0.0, 0.0], [1.0, 0.0]])
    C = np.array([[1.0, 0.0], [0.0, 0.0]])
    sims = cosine_similarities(H, C)
    assert sims[0] == pytest.approx([0.0, 0.0], abs=1e-9)
    assert sims[1, 1] == pytest.approx(0.0, abs=1e-9)
    assert sims[1, 0] == pytest.approx(1.0, abs=1e-6)


def test_compute_subx_hand_cases():
    C = np.eye(3)
    h = np.array([[1.0, 0.0, 0.0]])
    assert compute_subx(h, C)[0] == pytest.approx([1.0, 0.0, 0.0], abs=1e-6)
    h2 = np.array([[1.0, 1.0, 0.0]]) / np.sqrt(2.0)
    assert compute_subx(h2, C)[0] == pytest.approx([0.5, 0.5, 0.0], abs=1e-6)


def test_compute_subx_rows_sum_to_one():
    rng = np.random.default_rng(10)
    H = unit_rows(rng, 50, 6)
    C = unit_rows(rng, 5, 6)
    subx = compute_subx(H, C)
    assert np.abs(subx.sum(axis=1) - 1.0).max() <= 1e-6
    assert subx.min() >= 0.0


def test_compute_subx_degenerate_rows_uniform():
    C = np.array([[1.0, 0.0]])
    h = np.array([[0.5, 0.5]])
    assert compute_subx(h, C)[0] == pytest.approx([1.0], abs=0)
    # equidistant from two centroids: spread is ~0, row goes uniform
    C2 = np.array([[1.0, 0.0], [0.0, 1.0]])
    h2 = np.array([[1.0, 1.0]]) / np.sqrt(2.0)
    assert compute_subx(h2, C2)[0] == pytest.approx([0.5, 0.5], abs=1e-9)
    # all-zero row: every similarity is 0, both clusters tie
    h3 = np.array([[0.0, 0.0]])
    assert compute_subx(h3, C2)[0] == pytest.approx([0.5, 0.5], abs=1e-9)


def kmeans_cases():
    """(name, H_norm, k) covering every block-boundary and degenerate shape."""
    rng = np.random.default_rng(12)
    distinct = unit_rows(rng, 5, 20)
    with_zeros = unit_rows(rng, 600, 20)
    with_zeros[rng.choice(600, size=100, replace=False)] = 0.0
    return [
        ("fewer rows than a block", unit_rows(rng, 37, 6), 4),
        ("rows not a multiple of a block", unit_rows(rng, 1300, 20), 10),
        ("rows a multiple of a block", unit_rows(rng, 1024, 12), 7),
        ("duplicate rows", distinct[rng.integers(5, size=700)], 8),
        ("all-zero rows", normalize_rows(with_zeros), 6),
        ("raw rows", rng.normal(size=(900, 9)) * 3.0, 5),
    ]


@pytest.mark.parametrize("name,H,k", kmeans_cases())
def test_soft_kmeans_matches_loop_oracle_bit_for_bit(name, H, k):
    for seed, beta in ((3, 10.0), (4, 200.0)):
        init = kmeanspp_init(H, k, seed)
        assert init.tobytes() == loop_kmeanspp_init(H, k, seed).tobytes()
        R, C = soft_kmeans(H, k, beta, 10, seed)
        R_ref, C_ref = loop_soft_kmeans(H, init, beta, 10)
        assert R.tobytes() == R_ref.tobytes()
        assert C.tobytes() == C_ref.tobytes()


def test_soft_kmeans_reseed_matches_loop_oracle_bit_for_bit(monkeypatch):
    # angles 3, 8, 9, 11, 18, 18, 19 (x 4.5 degrees), 80 copies each; seeded
    # at 18, 19 and 3, hard assignment empties the first cluster in round 2
    angles = np.repeat([3, 8, 9, 11, 18, 18, 19.0], 80) * np.pi / 40
    H = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    seeded = H[[4 * 80, 6 * 80, 0]]
    reseed = clustering._reseed_dead_centroids
    reseeds = []

    def counted(H_norm, centroids, totals):
        reseeds.append(int((totals < clustering.DEAD_CENTROID_TOTAL).sum()))
        return reseed(H_norm, centroids, totals)

    monkeypatch.setattr(clustering, "kmeanspp_init", lambda H_norm, k, seed: seeded.copy())
    monkeypatch.setattr(clustering, "_reseed_dead_centroids", counted)
    R, C = soft_kmeans(H, 3, 1e4, 10, 0)
    R_ref, C_ref = loop_soft_kmeans(H, seeded.copy(), 1e4, 10)
    assert reseeds and reseeds[0] == 1
    assert R.tobytes() == R_ref.tobytes()
    assert C.tobytes() == C_ref.tobytes()


def test_row_blocks_match_unblocked_oracles_bit_for_bit():
    rng = np.random.default_rng(14)
    raw = rng.normal(size=(41, 7)) * 3.0  # 41 rows: the last block is short
    raw[[0, 20, 40]] = 0.0
    raw[21] = raw[22]
    want_norm = raw / (np.linalg.norm(raw, axis=1, keepdims=True) + 1e-10)
    C = unit_rows(rng, 5, 7)
    want_sims = (want_norm @ C.T) / ((np.linalg.norm(want_norm, axis=1)[:, None] + 1e-10)
                                     * (np.linalg.norm(C, axis=1)[None, :] + 1e-10))
    want_subx = compute_subx(want_norm, C)  # 41 rows < BLOCK_ROWS: a single block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering, "BLOCK_ROWS", 3)
        H = normalize_rows(raw)
        assert H.tobytes() == want_norm.tobytes()
        inplace = raw.copy()
        assert normalize_rows(inplace, out=inplace).tobytes() == want_norm.tobytes()
        assert cosine_similarities(H, C).tobytes() == want_sims.tobytes()
        assert compute_subx(H, C).tobytes() == want_subx.tobytes()
        for seed, beta in ((3, 10.0), (4, 200.0)):
            R, C_got = soft_kmeans(H, 5, beta, 10, seed)
            R_ref, C_ref = loop_soft_kmeans(H, loop_kmeanspp_init(H, 5, seed), beta, 10)
            assert R.tobytes() == R_ref.tobytes()
            assert C_got.tobytes() == C_ref.tobytes()


def test_row_block_memory_budget():
    # the bounds hold for many more rows than a block (hub-embed: 16k rows,
    # 512-row blocks); this 2k-row lift keeps that ratio with 64-row blocks
    g, _ = synthgen.generate(synthgen.SynthConfig())
    H = aggregate(g, np.random.default_rng(15).random((g.n_nodes, 10)), 1.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering, "BLOCK_ROWS", 64)
        H_norm, peak = extra_peak(normalize_rows, H)
        assert peak <= 1.1 * H.nbytes
        (_, C), peak = extra_peak(soft_kmeans, H_norm, 10, 10.0, 10, 1)
        assert peak <= 0.25 * H.nbytes
        _, peak = extra_peak(compute_subx, H_norm, C)
        assert peak <= 0.25 * H.nbytes
        _, peak = extra_peak(count_unique_embeddings, H)
        assert peak <= 0.25 * H.nbytes  # no rounded copy of H


@pytest.mark.parametrize("extra", [1, 65, 255, 257])
def test_pooled_kernels_give_the_serial_bits(extra, monkeypatch):
    # above the pool's size gate, with last 512-row blocks of 1, 65, 255 (each
    # merged into the block before) and 257 rows; oracles take whole arrays
    n = clustering.POOL_MIN_ROWS + extra
    rng = np.random.default_rng(extra)
    raw = rng.normal(size=(n, 420)) * 3.0
    raw[[0, n // 2, n - 1]] = 0.0
    want_norm = raw / (np.linalg.norm(raw, axis=1, keepdims=True) + 1e-10)
    want_seeds = loop_kmeanspp_init(want_norm, 10, extra)
    want_R, want_C = loop_soft_kmeans(want_norm, want_seeds.copy(), 10.0, 4)
    want_sims = (want_norm @ want_C.T) / (
        (np.linalg.norm(want_norm, axis=1)[:, None] + 1e-10)
        * (np.linalg.norm(want_C, axis=1)[None, :] + 1e-10))
    for workers in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, w=workers: set(range(w)))
        started = record_helpers(monkeypatch)
        H = normalize_rows(raw)
        assert H.tobytes() == want_norm.tobytes()
        inplace = raw.copy()
        assert normalize_rows(inplace, out=inplace).tobytes() == want_norm.tobytes()
        assert kmeanspp_init(H, 10, extra).tobytes() == want_seeds.tobytes()
        R, C = soft_kmeans(H, 10, 10.0, 4, extra)
        assert R.tobytes() == want_R.tobytes()
        assert C.tobytes() == want_C.tobytes()
        assert cosine_similarities(H, C).tobytes() == want_sims.tobytes()
        # every n-row kernel call started workers - 1 helpers of its own
        assert set(started) == ({workers - 1} if workers > 1 else set())


def spanning(n_rows, count=3):
    """count ascending blocks that span rows 0..n_rows."""
    cuts = [n_rows * i // count for i in range(count + 1)]
    return list(zip(cuts, cuts[1:]))


def test_map_blocks_size_gate_and_affinity(monkeypatch):
    started = record_helpers(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    for n_rows, helpers in ((clustering.POOL_MIN_ROWS - 1, []), (clustering.POOL_MIN_ROWS, [2])):
        started.clear()
        clustering.map_blocks(lambda a, b: None, spanning(n_rows))
        assert started == helpers
    started.clear()  # the rows spanned count, not where the first block starts
    clustering.map_blocks(lambda a, b: None, [(10 ** 6, 10 ** 6 + 1), (10 ** 6 + 1, 10 ** 6 + 2)])
    assert started == []
    clustering.map_blocks(lambda a, b: None, spanning(10 ** 6, count=2))
    assert started == [1]  # at most one helper per further block
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})  # taskset -c 3
    started.clear()
    clustering.map_blocks(lambda a, b: None, spanning(10 ** 6))

    def fail(a, b):
        raise RuntimeError
    with pytest.raises(RuntimeError):
        clustering.map_blocks(fail, spanning(10 ** 6))
    assert started == []


def test_pool_threads_without_an_affinity_mask(monkeypatch):
    # macOS has no os.sched_getaffinity: pool_threads raised AttributeError
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert clustering.pool_threads(clustering.POOL_MIN_ROWS - 1) == 0
    assert clustering.pool_threads(clustering.POOL_MIN_ROWS) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
    assert clustering.pool_threads(clustering.POOL_MIN_ROWS) == 0


def test_no_thread_outlives_map_blocks(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    started = record_helpers(monkeypatch)
    before = threading.active_count()
    seen = []
    clustering.map_blocks(lambda a, b: seen.append(threading.active_count()),
                          spanning(clustering.POOL_MIN_ROWS, count=12))
    assert started == [2] and max(seen) > before
    assert threading.active_count() == before

    def fail_late(a, b):
        if b == clustering.POOL_MIN_ROWS:
            raise ZeroDivisionError
    with pytest.raises(ZeroDivisionError):
        clustering.map_blocks(fail_late, spanning(clustering.POOL_MIN_ROWS, count=12))
    assert started == [2, 2]
    assert threading.active_count() == before


def test_library_normalize_rows_pools_itself(monkeypatch):
    # outside pipeline.run, on two CPUs, a call on POOL_MIN_ROWS rows starts
    # its own helper and gives the bits of one CPU
    raw = np.random.default_rng(3).normal(size=(clustering.POOL_MIN_ROWS, 40))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    started = record_helpers(monkeypatch)
    want = normalize_rows(raw)
    assert started == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert normalize_rows(raw).tobytes() == want.tobytes()
    assert started == [1, 1]  # the norms, then the division


def test_row_blocks_merge_a_short_tail():
    assert clustering.row_blocks(0) == []
    assert clustering.row_blocks(300) == [(0, 300)]
    assert clustering.row_blocks(700) == [(0, 700)]  # a 188-row tail joins
    assert clustering.row_blocks(800) == [(0, 512), (512, 800)]
    assert clustering.row_blocks(4097)[-1] == (3584, 4097)


def test_map_blocks_runs_every_block_once_under_contention(monkeypatch):
    # more threads than cores and a short switch interval: a block lost or
    # run twice by the shared iterator would show in the sorted list
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    started = record_helpers(monkeypatch)
    step = -(-clustering.POOL_MIN_ROWS // 300)  # 300 blocks over the gate
    blocks = [(i * step, (i + 1) * step) for i in range(300)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            seen = []
            clustering.map_blocks(lambda a, b: seen.append(a // step), blocks)
            assert sorted(seen) == list(range(300))
        with pytest.raises(ZeroDivisionError):  # a helper's error reaches the caller
            clustering.map_blocks(lambda a, b: 1 / (a // step - 250), blocks)
    finally:
        sys.setswitchinterval(interval)
    assert started == [3] * 21


def test_map_blocks_stops_at_the_first_failure(monkeypatch):
    # the thread whose block raises exhausts the shared iterator, so each
    # other thread ends after the block it holds
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    started = record_helpers(monkeypatch)
    step = -(-clustering.POOL_MIN_ROWS // 300)
    raised, after = [], []

    def block(a, b):
        if a == 0:
            raised.append(a)
            raise ValueError
        if raised:
            after.append(a)
        time.sleep(1e-4)  # lets the raising thread run
    with pytest.raises(ValueError):
        clustering.map_blocks(block, [(i * step, (i + 1) * step) for i in range(300)])
    assert started == [1]
    assert len(after) <= started[0] + 1


def test_map_blocks_runs_one_block_on_the_calling_thread(monkeypatch):
    # a helper woken for one block would only wait on the GIL
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    started = record_helpers(monkeypatch)
    seen = []
    clustering.map_blocks(lambda a, b: seen.append((a, b, threading.get_ident())),
                          iter([(0, clustering.POOL_MIN_ROWS)]))
    assert seen == [(0, clustering.POOL_MIN_ROWS, threading.get_ident())]
    clustering.map_blocks(lambda a, b: pytest.fail("no block to run"), [])
    assert started == []
