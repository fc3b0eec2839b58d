"""The hot frame kernels: Hermite-Gaussian spot rendering and frame moments.

``physics`` and ``vision`` call these through the module (``_kernels.render_spot``),
never by a name bound at import, so a caller can wrap them in one place.

The arithmetic is pinned, not left to NumPy's defaults: ``exp`` is libm's,
sums run left to right from 0.0, and each product is formed in a fixed
order. With the same layout, seed, NumPy build and libm, every artifact is
byte-identical; a last-bit change here moves the seed-42 baseline output
power by about 1e-7 relative.
"""

import math

import numpy as np

# Name of the kernel implementation, exported as ``cavforge.BACKEND`` and
# recorded with benchmark results. There is one: NumPy plus libm.
BACKEND = "python"

# render_spot adds its product in bands of about this many pixels, so the
# temporary stays in cache instead of costing a fresh frame-sized buffer
_BAND_PIXELS = 8192


def _exp(x):
    # math.exp is libm's exp; np.exp is NumPy's own SIMD exp, which rounds
    # some inputs differently in the last bit.
    x = np.asarray(x, dtype=np.float64)
    out = np.fromiter(map(math.exp, x.ravel().tolist()), np.float64, x.size)
    return out.reshape(x.shape)


def _seqsum(x):
    # np.add.accumulate adds left to right, where .sum() sums pairwise; the
    # leading 0.0 is the running sum's initial value.
    return 0.0 + float(np.add.accumulate(x)[-1])


def hg_profile(u, order):
    """Intensity profile of a Hermite-Gaussian mode along one axis.

    Parameters
    ----------
    u : ndarray
        Transverse offsets in units of the beam waist.
    order : int
        Mode index n >= 0.

    Returns
    -------
    ndarray
        ``H_n(sqrt(2) u)^2 exp(-2 u^2) / (2^n n!)``. The ``2^n n!`` factor
        keeps the integrated power equal to the fundamental at the same
        amplitude, so amplitude always means power-equivalent peak scale.
    """
    u = np.asarray(u, dtype=np.float64)
    xi = math.sqrt(2.0) * u
    h_prev = np.ones_like(xi)
    if order == 0:
        h = h_prev
    else:
        h = 2.0 * xi
        for k in range(1, order):
            h, h_prev = 2.0 * xi * h - 2.0 * k * h_prev, h
    norm = 1.0
    for k in range(1, order + 1):
        norm *= 2.0 * k
    return h * h * _exp(-2.0 * u * u) / norm


def render_spot(img, cx, cy, waist_px, amp, order):
    """Add one beam spot to ``img`` in place (no clipping here).

    The mode axis is the pixel x axis: the profile along columns is a
    Hermite-Gaussian of ``order``, the profile along rows is the fundamental.
    Rows whose scaled factor underflows to exactly 0 are left untouched.
    """
    if waist_px <= 0.0:
        raise ValueError("waist_px must be positive")
    height, width = img.shape
    ux = (np.arange(width, dtype=np.float64) - cx) / waist_px
    uy = (np.arange(height, dtype=np.float64) - cy) / waist_px
    col = hg_profile(ux, order)
    row = amp * _exp(-2.0 * uy * uy)
    # the factor falls off monotonically either side of cy, so the rows it
    # does not underflow to 0 form one band
    lit = np.flatnonzero(row)
    if lit.size == 0:
        return img
    end = lit[-1] + 1
    step = max(1, _BAND_PIXELS // width)
    for top in range(lit[0], end, step):
        bottom = min(top + step, end)
        img[top:bottom] += row[top:bottom, None] * col
    return img


def frame_moments(img, floor):
    """First and second intensity moments over above-floor pixels.

    Returns
    -------
    tuple
        ``(total, cx, cy, var_x, var_y, vmax, count)`` where centroid and
        variances are in pixel-index coordinates, ``vmax`` is the global
        maximum, and ``count`` the number of pixels above ``floor``.
    """
    img = np.asarray(img, dtype=np.float64)
    vmax = float(img.max()) if img.size else 0.0
    mask = img > floor
    w = img[mask]  # row-major, the order the sums run in
    count = int(w.size)
    if count == 0:
        return (0.0, 0.0, 0.0, 0.0, 0.0, vmax, 0)
    # pixel indices of w; cheaper than np.nonzero on a 2-D mask
    rows = np.repeat(np.arange(img.shape[0]), np.count_nonzero(mask, axis=1))
    cols = np.flatnonzero(mask) - rows * img.shape[1]
    total = _seqsum(w)
    cx = _seqsum(w * cols) / total
    cy = _seqsum(w * rows) / total
    dx = cols - cx
    dy = rows - cy
    var_x = _seqsum(w * dx * dx) / total
    var_y = _seqsum(w * dy * dy) / total
    return (total, cx, cy, var_x, var_y, vmax, count)
