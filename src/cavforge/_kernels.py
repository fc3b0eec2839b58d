"""The hot frame kernels: Hermite-Gaussian spot rendering and frame moments.

``physics`` and ``vision`` call these through the module (``_kernels.render_spot``),
never by a name bound at import, so a caller can wrap them in one place.
A spot is computed once, as a row and a column factor (``spot_factors``);
``render_spot`` adds it to a whole frame or to a window of one with the same
arithmetic, so a window's pixels equal the frame's bit for bit. The two
profiles behind the factors are memoized in bounded caches: a knob turn
mostly changes a spot's power and mode order, not its place or width.
``frame_moments`` forms its temporaries in work arrays kept between calls.

The arithmetic is pinned, not left to NumPy's defaults: ``exp`` is libm's,
sums run left to right from 0.0, and each product is formed in a fixed
order. With the same layout, seed, NumPy build and libm, every artifact is
byte-identical; a last-bit change here moves the seed-42 baseline output
power by about 1e-7 relative.
"""

import functools
import math
import threading

import numpy as np

# Name of the kernel implementation, exported as ``cavforge.BACKEND`` and
# recorded with benchmark results. There is one: NumPy plus libm.
BACKEND = "python"

# render_spot adds its product in bands of about this many pixels, so the
# temporary stays in cache instead of costing a fresh frame-sized buffer
_BAND_PIXELS = 8192
# Profiles each memo keeps, the least recently used dropped first. A drift
# recovery asks for about 2 distinct row and 6 column profiles; a full cache
# of 640-pixel profiles holds 1.3 MB.
_PROFILE_CACHE_SIZE = 256
# frame_moments' temporaries, one set per thread (see _work)
_WORK = threading.local()


def _exp(x):
    # math.exp is libm's exp; np.exp is NumPy's own SIMD exp, which rounds
    # some inputs differently in the last bit.
    x = np.asarray(x, dtype=np.float64)
    out = np.fromiter(map(math.exp, x.ravel().tolist()), np.float64, x.size)
    return out.reshape(x.shape)


def _work(name, n, dtype):
    # The first n elements of this thread's work array ``name``, grown but
    # never shrunk. A frame-sized temporary freed on every call can go back
    # to the OS and fault back in on the next; a kept one does not. No view
    # of a work array leaves the function that asked for it.
    buf = getattr(_WORK, name, None)
    if buf is None or buf.size < n:
        buf = np.empty(n, dtype)
        setattr(_WORK, name, buf)
    return buf[:n]


def _seqsum(x):
    # np.add.accumulate adds left to right, where .sum() sums pairwise; the
    # leading 0.0 is the running sum's initial value.
    return 0.0 + float(np.add.accumulate(x, out=_work("sums", x.size, np.float64))[-1])


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


def spot_factors(height, width, cx, cy, waist_px, amp, order):
    """Row and column factors of one beam spot on a ``height`` x ``width`` sensor.

    The mode axis is the pixel x axis: the column factor is a
    Hermite-Gaussian of ``order``, the row factor the fundamental scaled by
    ``amp``. The spot's pixels are the products ``row[y] * col[x]``. The
    row factor is a fresh array; the column factor is shared by every spot
    with the same inputs, so it is read-only.
    """
    if waist_px <= 0.0:
        raise ValueError("waist_px must be positive")
    return (amp * _row_profile(height, cy, waist_px),
            _column_profile(width, cx, waist_px, order))


def _offsets(n, centre, waist_px):
    return (np.arange(n, dtype=np.float64) - centre) / waist_px


# Equal keys give equal bits: -0.0 and 0.0, or 3 and 3.0, hash alike and
# give the same offsets. Each profile is shared, so it is read-only.
@functools.lru_cache(maxsize=_PROFILE_CACHE_SIZE)
def _row_profile(height, cy, waist_px):
    u = _offsets(height, cy, waist_px)
    profile = _exp(-2.0 * u * u)
    profile.setflags(write=False)
    return profile


@functools.lru_cache(maxsize=_PROFILE_CACHE_SIZE)
def _column_profile(width, cx, waist_px, order):
    profile = hg_profile(_offsets(width, cx, waist_px), order)
    profile.setflags(write=False)
    return profile


def render_spot(img, row, col):
    """Add the spot ``row[:, None] * col`` to ``img`` in place (no clipping here).

    ``img`` is a whole frame or a window of one, with ``row`` and ``col``
    sliced to match. Rows whose factor is exactly 0 are left untouched.
    """
    # the factor falls off monotonically either side of the spot centre, so
    # the rows it does not underflow to 0 form one band
    lit = np.flatnonzero(row)
    if lit.size == 0:
        return img
    end = lit[-1] + 1
    step = max(1, _BAND_PIXELS // img.shape[1])
    for top in range(lit[0], end, step):
        bottom = min(top + step, end)
        img[top:bottom] += row[top:bottom, None] * col
    return img


def frame_moments(img, floor, top=0, left=0, order=2):
    """Intensity moments over above-floor pixels, up to ``order``.

    ``img`` is finite (``CameraFrame`` guarantees it) and is a whole frame or
    a window of one whose first pixel sits at row ``top``, column ``left``;
    centroids are taken in the whole frame's pixel indices.

    Returns
    -------
    tuple
        ``(total, cx, cy, var_x, var_y, vmax, count)`` where centroid and
        variances are in pixel-index coordinates, ``vmax`` is the maximum of
        ``img``, and ``count`` the number of pixels above ``floor``. Order 0
        computes the total, maximum and count, order 1 adds the centroid and
        order 2 the variances; a moment above ``order`` is None. Each one
        computed is the same bits at every order.
    """
    img = np.asarray(img, dtype=np.float64)
    # Every temporary is formed in a work array (_work), with the operations
    # and operand order of the plain expression in each comment.
    above = np.greater(img, floor,  # img > floor
                       out=_work("above", img.size, np.bool_).reshape(img.shape))
    idx = np.flatnonzero(above)  # row-major, the order the sums run in
    count = int(idx.size)
    centroid = (0.0, 0.0) if order >= 1 else (None, None)
    spread = (0.0, 0.0) if order >= 2 else (None, None)
    if count == 0:
        vmax = float(img.max()) if img.size else 0.0
        return (0.0, *centroid, *spread, vmax, 0)
    # img.take(idx); every index is in range, and mode="raise" would
    # buffer the output
    w = np.take(img, idx, out=_work("taken", count, np.float64), mode="clip")
    # the maximum is above the floor whenever anything is
    vmax = float(w.max())
    total = _seqsum(w)
    if order >= 1:
        width = img.shape[1]
        rows = np.floor_divide(idx, width, out=_work("rows", count, idx.dtype))
        # cols = idx - rows * width
        cols = np.multiply(rows, width, out=_work("cols", count, idx.dtype))
        np.subtract(idx, cols, out=cols)
        # whole-frame indices before the products: adding the origin to the
        # centroid afterwards would round differently
        rows += top
        cols += left
        product = _work("product", count, np.float64)
        cx = _seqsum(np.multiply(w, cols, out=product)) / total
        cy = _seqsum(np.multiply(w, rows, out=product)) / total
        centroid = (cx, cy)
    if order >= 2:
        offset = _work("offset", count, np.float64)
        spread = []
        # w * d * d, d = cols - cx, then rows - cy
        for index, mean in ((cols, cx), (rows, cy)):
            np.subtract(index, mean, out=offset)
            np.multiply(w, offset, out=product)
            product *= offset
            spread.append(_seqsum(product) / total)
    return (total, *centroid, *spread, vmax, count)
