"""Memorization auditing: windowed structural similarity against a reference set."""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError

WINDOW = 7                   # SSIM window side; smaller images cannot be scored
_C1 = 0.01 ** 2
_C2 = 0.03 ** 2
# working-set budget of ssim_matrix: one reference block's windows and its
# three [P, r, n] float64 maps fit in it, sized to stay in a core's L2 cache;
# the windows of one reconstruction block, which every reference block reads,
# fit in four. With one reference block alive while the next is built, the
# working set stays under six budgets whatever the number of images
_BLOCK_BYTES = 1 << 20
_TIE = 1e-12                 # scores closer than this to the best are ties


@dataclass
class PrivacyReport:
    match_index: np.ndarray     # per reconstruction: argmax reference index
    match_ssim: np.ndarray      # per reconstruction: best SSIM
    mean_ssim: float


def _windows(images):
    """[N, C, H, W] -> contiguous float64 [C*h*w, N, 49]: every valid 7x7 window, per image."""
    w = sliding_window_view(np.asarray(images, dtype=np.float64), (WINDOW, WINDOW),
                            axis=(-2, -1))
    return w.transpose(1, 2, 3, 0, 4, 5).reshape(-1, len(images), WINDOW * WINDOW)


def _moments(windows):
    """Per-window mean and variance, [P, N] each."""
    mean = windows.mean(axis=-1)
    return mean, np.einsum("pnk,pnk->pn", windows, windows) / windows.shape[-1] - mean * mean


def _image_set(images, name):
    """Check a nonempty [N, C, H, W] set of images."""
    if images.ndim != 4:
        raise ShapeError(f"{name} must be a set of [C,H,W] images, got {images.shape}")
    if len(images) == 0:
        raise ShapeError(f"scoring needs a nonempty {name} set")
    if images.shape[-2] < WINDOW or images.shape[-1] < WINDOW:
        raise ShapeError(f"image {images.shape[1:]} smaller than the {WINDOW}x{WINDOW} window")
    return images


def ssim_matrix(recons, reference_set):
    """[R, N] SSIM of every reconstruction against every reference.

    A pair's score is the mean over its channels of the mean local SSIM over
    every valid 7x7 uniform window (``WINDOW``). Window statistics are
    computed once per image and block; the cross term of every pair is one
    batched matmul over the window axis. Reconstructions, and the references
    against each block of them, are scored in blocks so the working set stays
    bounded by ``_BLOCK_BYTES``.
    """
    recons = np.asarray(recons)
    refs = np.asarray(reference_set)                        # float64 one block at a time
    if recons.shape[1:] != refs.shape[1:]:
        raise ShapeError(f"image shape mismatch: recons {recons.shape[1:]} "
                         f"vs reference {refs.shape[1:]}")
    recons = _image_set(recons, "reconstruction")
    refs = _image_set(refs, "reference")
    C, H, W = recons.shape[1:]
    n_windows, area = C * (H - WINDOW + 1) * (W - WINDOW + 1), WINDOW * WINDOW
    scores = np.empty((len(recons), len(refs)))
    # per reconstruction: its windows
    r_block = max(1, 4 * _BLOCK_BYTES // (8 * n_windows * area))
    for r_start in range(0, len(recons), r_block):
        x = _windows(recons[r_start:r_start + r_block])    # [P, r, 49]
        mx, vx = _moments(x)
        rows = slice(r_start, r_start + x.shape[1])
        # per reference: its windows plus three [P, r] float64 maps
        block = max(1, _BLOCK_BYTES // (8 * n_windows * (area + 3 * x.shape[1])))
        for start in range(0, len(refs), block):
            y = _windows(refs[start:start + block])         # [P, n, 49]
            my, vy = _moments(y)
            # the SSIM map in three [P, r, n] buffers updated in place, in the
            # operation order of the one-expression form, so its bits are kept
            num = np.matmul(x, y.transpose(0, 2, 1))        # area * E[xy]
            num /= area
            mxy = mx[:, :, None] * my[:, None, :]
            num -= mxy                                      # cov
            num *= 2
            num += _C2
            mxy *= 2
            mxy += _C1
            num *= mxy                                      # (2 mxy + C1)(2 cov + C2)
            den = np.add((mx * mx)[:, :, None], (my * my)[:, None, :], out=mxy)
            den += _C1
            var = vx[:, :, None] + vy[:, None, :]
            var += _C2
            den *= var                                      # (mx² + my² + C1)(vx + vy + C2)
            num /= den
            # every channel has the same window count: the mean over all
            # windows equals the mean of per-channel means
            scores[rows, start:start + block] = num.mean(axis=0)
        del x, mx, vx                   # freed before the next block is unfolded
    return scores


def privacy_score(recons, reference_set):
    """Best-match SSIM of every reconstruction against the reference set."""
    scores = ssim_matrix(recons, reference_set)
    # ties resolve to the lowest index; BLAS may round the same reference
    # differently in different matmul columns, hence the tolerance
    best = np.argmax(scores >= scores.max(axis=1, keepdims=True) - _TIE, axis=1)
    best_ssim = scores[np.arange(len(scores)), best]
    return PrivacyReport(match_index=best, match_ssim=best_ssim,
                         mean_ssim=float(best_ssim.mean()))
