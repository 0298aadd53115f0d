import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from netinv import privacy
from netinv.errors import ShapeError
from netinv.privacy import WINDOW, privacy_score, ssim_matrix

C1, C2 = 0.01 ** 2, 0.03 ** 2


def _channel_ssim(x, y):
    """Mean local SSIM over sliding 7x7 uniform windows, valid region."""
    wx = sliding_window_view(x, (WINDOW, WINDOW))
    wy = sliding_window_view(y, (WINDOW, WINDOW))
    mx = wx.mean(axis=(-1, -2))
    my = wy.mean(axis=(-1, -2))
    vx = (wx * wx).mean(axis=(-1, -2)) - mx * mx
    vy = (wy * wy).mean(axis=(-1, -2)) - my * my
    cov = (wx * wy).mean(axis=(-1, -2)) - mx * my
    num = (2 * mx * my + C1) * (2 * cov + C2)
    den = (mx * mx + my * my + C1) * (vx + vy + C2)
    return float(np.mean(num / den))


def ssim(a, b):
    """SSIM between two images in [0, 1], one pair at a time: the oracle of
    ``ssim_matrix``. Multichannel averages per-channel scores."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"ssim needs identical shapes, got {a.shape} vs {b.shape}")
    if a.ndim == 2:
        a, b = a[None], b[None]
    if a.ndim != 3:
        raise ShapeError(f"ssim expects [H,W] or [C,H,W] images, got {a.shape}")
    if a.shape[-2] < WINDOW or a.shape[-1] < WINDOW:
        raise ShapeError(f"image {a.shape} smaller than the {WINDOW}x{WINDOW} window")
    return float(np.mean([_channel_ssim(a[c], b[c]) for c in range(a.shape[0])]))


class TestSsim:
    def test_self_similarity(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(1, 12, 12))
        assert ssim(x, x) == pytest.approx(1.0, abs=1e-9)

    def test_constant_images(self):
        a = np.full((1, 10, 10), 0.5)
        assert ssim(a, a.copy()) == pytest.approx(1.0, abs=1e-9)

    def test_independent_noise_decorrelated(self):
        rng = np.random.default_rng(1)
        vals = [ssim(rng.uniform(size=(28, 28)), rng.uniform(size=(28, 28)))
                for _ in range(100)]
        assert abs(np.mean(vals)) < 0.1

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(size=(1, 14, 14))
        b = rng.uniform(size=(1, 14, 14))
        assert abs(ssim(a, b) - ssim(b, a)) < 1e-9

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = ssim(rng.uniform(size=(9, 9)), rng.uniform(size=(9, 9)))
            assert -1.0 <= v <= 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ssim(np.zeros((8, 8)), np.zeros((9, 9)))

    def test_too_small(self):
        with pytest.raises(ShapeError):
            ssim(np.zeros((5, 5)), np.zeros((5, 5)))

    def test_multichannel_averages(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(size=(3, 10, 10))
        b = rng.uniform(size=(3, 10, 10))
        per_channel = np.mean([ssim(a[c], b[c]) for c in range(3)])
        assert ssim(a, b) == pytest.approx(per_channel, abs=1e-12)


class TestPrivacyScore:
    def test_identical_to_reference(self):
        rng = np.random.default_rng(5)
        refs = rng.uniform(size=(5, 1, 10, 10))
        report = privacy_score(refs.copy(), refs)
        assert report.mean_ssim == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_array_equal(report.match_index, np.arange(5))

    def test_tie_breaks_to_lowest_index(self):
        ref = np.random.default_rng(6).uniform(size=(1, 10, 10))
        refs = np.stack([ref, ref])          # duplicate reference
        report = privacy_score(ref[None], refs)
        assert report.match_index[0] == 0

    def test_noise_vs_structured_low(self):
        rng = np.random.default_rng(7)
        yy, xx = np.mgrid[0:12, 0:12]
        refs = np.stack([np.clip((np.sin(xx / 2 + k) + 1) / 2, 0, 1)[None]
                         for k in range(5)])
        noise = rng.uniform(size=(10, 1, 12, 12))
        report = privacy_score(noise, refs)
        assert report.mean_ssim < 0.2

    def test_best_match_dominates(self):
        rng = np.random.default_rng(8)
        refs = rng.uniform(size=(6, 1, 10, 10))
        recons = rng.uniform(size=(3, 1, 10, 10))
        report = privacy_score(recons, refs)
        for i in range(3):
            for j in range(6):
                assert report.match_ssim[i] >= ssim(recons[i], refs[j]) - 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            privacy_score(np.zeros((1, 1, 10, 10)), np.zeros((1, 1, 8, 8)))


def _oracle(recons, refs):
    return np.array([[ssim(r, f) for f in refs] for r in recons])


def _expression_ssim_matrix(recons, refs, block, r_block=None):
    """``ssim_matrix`` with the SSIM map written as one expression, a fresh
    array per term, over blocks of ``block`` references and, when given,
    ``r_block`` reconstructions: the oracle of the in-place kernel's bits."""
    if r_block is not None:
        return np.concatenate([_expression_ssim_matrix(recons[r:r + r_block], refs, block)
                               for r in range(0, len(recons), r_block)])
    x = privacy._windows(recons)
    mx, vx = privacy._moments(x)
    area = x.shape[-1]
    scores = []
    for start in range(0, len(refs), block):
        y = privacy._windows(refs[start:start + block])
        my, vy = privacy._moments(y)
        mxy = mx[:, :, None] * my[:, None, :]
        cov = np.matmul(x, y.transpose(0, 2, 1)) / area - mxy
        num = (2 * mxy + C1) * (2 * cov + C2)
        den = ((mx * mx)[:, :, None] + (my * my)[:, None, :] + C1) \
            * (vx[:, :, None] + vy[:, None, :] + C2)
        scores.append((num / den).mean(axis=0))
    return np.concatenate(scores, axis=1)


class TestSsimMatrix:
    @pytest.mark.parametrize("shape", [(1, 12, 12), (3, 12, 12), (1, 10, 13), (3, 13, 10)])
    def test_matches_pairwise_oracle(self, shape):
        rng = np.random.default_rng(9)
        recons = rng.uniform(size=(4, *shape))
        refs = rng.uniform(size=(7, *shape))
        refs[3] = recons[1]
        np.testing.assert_allclose(ssim_matrix(recons, refs), _oracle(recons, refs),
                                   rtol=0, atol=1e-12)

    def test_reference_blocks(self, monkeypatch):
        unfolds = []
        windows = privacy._windows
        monkeypatch.setattr(privacy, "_BLOCK_BYTES", 100_000)
        monkeypatch.setattr(privacy, "_windows",
                            lambda images: unfolds.append(len(images)) or windows(images))
        rng = np.random.default_rng(10)
        recons = rng.uniform(size=(3, 2, 10, 13))
        refs = rng.uniform(size=(50, 2, 10, 13))
        refs[41] = refs[7] = recons[2]       # duplicates in different blocks
        np.testing.assert_allclose(ssim_matrix(recons, refs), _oracle(recons, refs),
                                   rtol=0, atol=1e-12)
        assert len(unfolds) > 2 and sum(unfolds[1:]) == len(refs)
        assert privacy_score(recons, refs).match_index[2] == 7

    @pytest.mark.parametrize("shape", [(1, 12, 12), (3, 12, 12), (1, 28, 28)])
    @pytest.mark.parametrize("block", [1, 4, 9])
    def test_bit_equal_to_expression_at_equal_blocks(self, monkeypatch, shape, block):
        rng = np.random.default_rng(11)
        recons = rng.uniform(size=(5, *shape))
        refs = rng.uniform(size=(9, *shape))
        n_windows = shape[0] * (shape[1] - WINDOW + 1) * (shape[2] - WINDOW + 1)
        # the budget of exactly `block` references: windows plus three maps each
        monkeypatch.setattr(privacy, "_BLOCK_BYTES",
                            block * 8 * n_windows * (WINDOW * WINDOW + 3 * len(recons)))
        unfolds = []
        windows = privacy._windows
        monkeypatch.setattr(privacy, "_windows",
                            lambda images: unfolds.append(len(images)) or windows(images))
        scores = ssim_matrix(recons, refs)
        assert unfolds[1:] == [min(block, len(refs) - s) for s in range(0, len(refs), block)]
        np.testing.assert_array_equal(scores, _expression_ssim_matrix(recons, refs, block))

    @pytest.mark.parametrize("r_block", [1, 2, 3, 6])
    def test_bit_equal_to_expression_at_equal_reconstruction_blocks(self, monkeypatch,
                                                                    r_block):
        """Blocks of ``r_block`` reconstructions at 28x28, each scored against
        every block of references, give the expression's bits."""
        rng = np.random.default_rng(13)
        recons = rng.uniform(size=(6, 1, 28, 28))
        refs = rng.uniform(size=(5, 1, 28, 28))
        n_windows, area = (28 - WINDOW + 1) ** 2, WINDOW * WINDOW
        # the budget whose four hold exactly `r_block` reconstructions' windows
        budget = -(-r_block * 8 * n_windows * area // 4)
        block = max(1, budget // (8 * n_windows * (area + 3 * r_block)))
        monkeypatch.setattr(privacy, "_BLOCK_BYTES", budget)
        unfolds = []
        windows = privacy._windows
        monkeypatch.setattr(privacy, "_windows",
                            lambda images: unfolds.append(len(images)) or windows(images))
        scores = ssim_matrix(recons, refs)
        ref_blocks = [min(block, len(refs) - s) for s in range(0, len(refs), block)]
        assert unfolds == ([r_block] + ref_blocks) * (len(recons) // r_block)
        np.testing.assert_array_equal(
            scores, _expression_ssim_matrix(recons, refs, block, r_block))

    def test_audit_partition(self, monkeypatch):
        """The audit's 32 reconstructions against 100 references at 12x12:
        one reconstruction block, references in blocks of 25."""
        unfolds = []
        windows = privacy._windows
        monkeypatch.setattr(privacy, "_windows",
                            lambda images: unfolds.append(len(images)) or windows(images))
        ssim_matrix(np.zeros((32, 1, 12, 12)), np.zeros((100, 1, 12, 12)))
        assert unfolds == [32, 25, 25, 25, 25]

    def test_scoring_peak_memory(self):
        """32 reconstructions against 100 references, 12x12: the traced peak
        of the audit's scoring call stays under 2.5 MiB (5.35 MiB with 4 MiB
        blocks and a fresh array per SSIM term)."""
        rng = np.random.default_rng(12)
        recons = rng.uniform(size=(32, 1, 12, 12))
        refs = rng.uniform(size=(100, 1, 12, 12))
        tracemalloc.start()
        try:
            privacy_score(recons, refs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2 ** 20

    def test_scoring_peak_memory_at_28x28(self):
        """200 reconstructions against 10 references, 28x28: the traced peak
        stays under 6 MiB, six budgets (41.6 MiB when every reconstruction's
        windows were unfolded at once)."""
        rng = np.random.default_rng(14)
        recons = rng.uniform(size=(200, 1, 28, 28))
        refs = rng.uniform(size=(10, 1, 28, 28))
        tracemalloc.start()
        try:
            privacy_score(recons, refs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20

    def test_window_larger_than_image(self):
        with pytest.raises(ShapeError):
            privacy_score(np.zeros((2, 1, 6, 10)), np.zeros((3, 1, 6, 10)))

    @pytest.mark.parametrize("recons, refs", [
        (np.zeros((2, 1, 10, 10)), np.zeros((3, 10, 10))),
        (np.zeros((2, 1, 1, 10, 10)), np.zeros((3, 1, 1, 10, 10))),
        (np.zeros((10, 10)), np.zeros((10, 10))),
    ], ids=["rank-mismatch", "rank-5", "rank-2"])
    def test_wrong_rank(self, recons, refs):
        with pytest.raises(ShapeError):
            privacy_score(recons, refs)

    def test_empty_set(self):
        with pytest.raises(ShapeError):
            privacy_score(np.zeros((0, 1, 10, 10)), np.zeros((3, 1, 10, 10)))
        with pytest.raises(ShapeError):
            privacy_score(np.zeros((2, 1, 10, 10)), np.zeros((0, 1, 10, 10)))
