import numpy as np
import pytest

from multisiam import views
from multisiam.views import (AugmentConfig, Box, PhotoParams, NEUTRAL_PHOTO, ViewSpec,
                             bilinear_sample, compute_iou, render_view, resize_bilinear,
                             sample_view_pair, _color_jitter, _gaussian_blur, _sample_box,
                             _sample_photo)


def full_spec(h, w, flipped=False, photo=NEUTRAL_PHOTO):
    return ViewSpec(Box(0.0, 0.0, float(w), float(h)), flipped, photo, (h, w))


def test_iou_identical_and_disjoint():
    a = Box(0, 0, 4, 4)
    assert compute_iou(a, a) == pytest.approx(1.0)
    assert compute_iou(a, Box(10, 10, 12, 12)) == 0.0


def test_iou_half_overlap():
    assert compute_iou(Box(0, 0, 4, 4), Box(2, 0, 6, 4)) == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize("seed", range(5))
def test_iou_symmetric_and_scale_covariant(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        vals = rng.uniform(0, 50, size=8)
        a = Box(vals[0], vals[1], vals[0] + 1 + vals[2], vals[1] + 1 + vals[3])
        b = Box(vals[4], vals[5], vals[4] + 1 + vals[6], vals[5] + 1 + vals[7])
        assert compute_iou(a, b) == pytest.approx(compute_iou(b, a), abs=1e-14)
        s = float(rng.uniform(0.5, 3.0))
        sa = Box(a.x0 * s, a.y0 * s, a.x1 * s, a.y1 * s)
        sb = Box(b.x0 * s, b.y0 * s, b.x1 * s, b.y1 * s)
        assert compute_iou(sa, sb) == pytest.approx(compute_iou(a, b), abs=1e-12)


def test_sampled_pairs_respect_threshold():
    cfg = AugmentConfig(iou_threshold=0.5)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        pair = sample_view_pair((64, 64), cfg, rng)
        assert pair.iou >= 0.5
        assert compute_iou(pair.spec_a.box, pair.spec_b.box) == pytest.approx(pair.iou)


def test_zero_threshold_accepts_first_candidate():
    cfg = AugmentConfig(iou_threshold=0.0)
    probe = np.random.default_rng(123)
    expected_a = _sample_box(64, 64, cfg, probe)
    expected_b = _sample_box(64, 64, cfg, probe)
    pair = sample_view_pair((64, 64), cfg, np.random.default_rng(123))
    assert pair.spec_a.box == expected_a
    assert pair.spec_b.box == expected_b


def test_zero_threshold_redraws_a_disjoint_pair():
    # seed 25's first two boxes do not overlap: a positive pair needs an
    # overlap to align, so they are redrawn, as a missed threshold is
    cfg = AugmentConfig(iou_threshold=0.0)
    probe = np.random.default_rng(25)
    draws = [(_sample_box(64, 64, cfg, probe), _sample_box(64, 64, cfg, probe))]
    while compute_iou(*draws[-1]) == 0.0:
        draws.append((_sample_box(64, 64, cfg, probe), _sample_box(64, 64, cfg, probe)))
    assert len(draws) > 1
    pair = sample_view_pair((64, 64), cfg, np.random.default_rng(25))
    assert (pair.spec_a.box, pair.spec_b.box) == draws[-1] and pair.iou > 0.0


def test_zero_threshold_pairs_always_overlap():
    # 1.55% of first draws are disjoint at threshold 0; none of 5,000 pairs may be
    cfg = AugmentConfig(iou_threshold=0.0)
    rng = np.random.default_rng(0)
    assert all(sample_view_pair((64, 64), cfg, rng).iou > 0.0 for _ in range(5000))


def test_sampler_deterministic_and_in_bounds():
    cfg = AugmentConfig(iou_threshold=0.5, min_scale=0.08)

    def draw():
        rng = np.random.default_rng(7)
        return [sample_view_pair((48, 80), cfg, rng) for _ in range(300)]

    first, second = draw(), draw()
    assert first == second
    for pair in first:
        for spec in (pair.spec_a, pair.spec_b):
            assert 0.0 <= spec.box.x0 < spec.box.x1 <= 80.0
            assert 0.0 <= spec.box.y0 < spec.box.y1 <= 48.0


def test_acceptance_rate_monotone_in_threshold():
    cfg = AugmentConfig()
    rng = np.random.default_rng(11)
    ious = []
    for _ in range(4000):
        a = _sample_box(64, 64, cfg, rng)
        b = _sample_box(64, 64, cfg, rng)
        ious.append(compute_iou(a, b))
    ious = np.array(ious)
    rates = [(ious >= t).mean() for t in (0.3, 0.4, 0.5, 0.6, 0.7)]
    assert all(hi >= lo for hi, lo in zip(rates, rates[1:]))
    assert rates[0] > rates[-1]  # the grid actually discriminates


def test_render_identity_spec():
    rng = np.random.default_rng(3)
    img = rng.random((3, 16, 16))
    out = render_view(img, full_spec(16, 16))
    assert np.array_equal(out, img)


def test_render_flip_involution():
    rng = np.random.default_rng(4)
    img = rng.random((3, 8, 8))
    spec = full_spec(8, 8, flipped=True)
    once = render_view(img, spec)
    twice = render_view(once, spec)
    assert np.array_equal(twice, img)


def test_render_constant_crop_stays_constant():
    img = np.full((3, 32, 32), 0.42)
    spec = ViewSpec(Box(3.7, 5.2, 20.1, 29.0), False, NEUTRAL_PHOTO, (10, 12))
    out = render_view(img, spec)
    assert np.allclose(out, 0.42, atol=1e-12)


def test_render_geometry_independent_of_photometrics():
    rng = np.random.default_rng(5)
    img = rng.random((3, 24, 24))
    box = Box(2.0, 3.0, 18.0, 21.0)
    neutral = render_view(img, ViewSpec(box, True, NEUTRAL_PHOTO, (8, 8)))

    sol = render_view(img, ViewSpec(box, True, PhotoParams(solarize=True), (8, 8)))
    assert np.allclose(sol, np.where(neutral < 0.5, neutral, 1.0 - neutral), atol=1e-12)

    gray = render_view(img, ViewSpec(box, True, PhotoParams(grayscale=True), (8, 8)))
    luma = (np.array([0.299, 0.587, 0.114])[:, None, None] * neutral).sum(axis=0)
    assert np.allclose(gray, np.clip(np.stack([luma] * 3), 0, 1), atol=1e-12)


def test_render_clamps_to_unit_interval():
    img = np.full((3, 8, 8), 0.9)
    spec = full_spec(8, 8, photo=PhotoParams(brightness=0.4))
    out = render_view(img, spec)
    assert out.max() <= 1.0
    assert out.min() >= 0.0


def test_render_blur_preserves_constant_field():
    img = np.full((3, 16, 16), 0.3)
    spec = full_spec(16, 16, photo=PhotoParams(blur_sigma=1.5))
    out = render_view(img, spec)
    assert np.allclose(out, 0.3, atol=1e-12)


def test_hue_shift_roundtrip():
    rng = np.random.default_rng(8)
    img = rng.random((3, 6, 6))
    fwd = render_view(img, full_spec(6, 6, photo=PhotoParams(hue=0.25)))
    back = render_view(fwd, full_spec(6, 6, photo=PhotoParams(hue=-0.25)))
    assert np.allclose(back, img, atol=1e-9)


# The jitter through HSV and back: the oracle of ``_color_jitter``'s closed form.
def rgb_to_hsv(rgb):
    r, g, b = rgb
    maxc = rgb.max(axis=0)
    minc = rgb.min(axis=0)
    delta = maxc - minc
    s = np.where(maxc > 0, delta / np.where(maxc > 0, maxc, 1.0), 0.0)
    dsafe = np.where(delta > 0, delta, 1.0)
    h = np.where(maxc == r, ((g - b) / dsafe) % 6.0,
                 np.where(maxc == g, (b - r) / dsafe + 2.0, (r - g) / dsafe + 4.0))
    h = np.where(delta > 0, h / 6.0, 0.0)
    return np.stack([h, s, maxc])


def hsv_to_rgb(hsv):
    h, s, v = hsv
    h6 = (h % 1.0) * 6.0
    i = np.floor(h6).astype(int) % 6
    f = h6 - np.floor(h6)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    return np.stack([np.choose(i, [v, q, p, p, t, v]), np.choose(i, [t, v, v, q, p, p]),
                     np.choose(i, [p, p, t, v, v, q])])


def oracle_jitter(img, p):
    """Brightness, contrast and saturation as three elementwise passes, then
    the hue shift through HSV and back."""
    luma_w = np.array([0.299, 0.587, 0.114])[:, None, None]
    if p.brightness != 0.0:
        img = img * (1.0 + p.brightness)
    if p.contrast != 0.0:
        gray_mean = float((luma_w * img).sum(axis=0).mean())
        img = (1.0 + p.contrast) * img + (-p.contrast) * gray_mean
    if p.saturation != 0.0:
        luma = (luma_w * img).sum(axis=0, keepdims=True)
        img = (1.0 + p.saturation) * img + (-p.saturation) * luma
    if p.hue != 0.0:
        hsv = rgb_to_hsv(np.clip(img, 0.0, 1.0))
        hsv[0] = (hsv[0] + p.hue) % 1.0
        img = hsv_to_rgb(hsv)
    return img


# pixels on the hue sextant boundaries, gray, black and white, and channel ties
EDGE_PIXELS = np.array([
    [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 1, 1], [0, 0, 1], [1, 0, 1],
    [0.6, 0.3, 0.3], [0.6, 0.6, 0.3], [0.3, 0.6, 0.3], [0.3, 0.6, 0.6], [0.3, 0.3, 0.6],
    [0.6, 0.3, 0.6], [0.5, 0.5, 0.5], [0, 0, 0], [1, 1, 1], [0.8, 0.8, 0.2],
    [0.8, 0.2, 0.8], [0.2, 0.8, 0.8], [0.2, 0.2, 0.8], [0.8, 0.2, 0.2], [0.2, 0.8, 0.2],
]).T


def jitter_image(rng, h=8, w=12):
    """A [3,h,w] image: the edge pixels, a row from [-0.25, 1.25] (values the
    hue shift clips), and the rest uniform in [0, 1]."""
    img = rng.random((3, h, w))
    img[:, 1] = rng.uniform(-0.25, 1.25, (3, w))
    img.reshape(3, -1)[:, -EDGE_PIXELS.shape[1]:] = EDGE_PIXELS
    return img


def assert_jitter_matches_oracle(img, p):
    got = _color_jitter(img, p)
    assert got.shape == img.shape
    assert np.abs(got - oracle_jitter(img, p)).max() <= 1e-14, p


@pytest.mark.parametrize("photo", [
    *[PhotoParams(**{key: value}) for key in ("brightness", "contrast", "saturation", "hue")
      for value in (-0.4, -0.05, 0.05, 0.4)],
    *[PhotoParams(hue=shift) for shift in (1 / 6, -1 / 6, 1 / 3, -1 / 3, 0.5, -0.5, 1.0,
                                           np.nextafter(1 / 6, 0.0), -0.1, 0.1)],
    PhotoParams(0.4, -0.4, 0.2, 0.1), PhotoParams(-0.4, 0.4, -0.2, -0.1),
], ids=lambda p: ",".join(f"{k}={float(v)!r}" for k, v in vars(p).items() if v))
def test_color_jitter_matches_hsv_oracle_on_edge_pixels(photo):
    rng = np.random.default_rng(13)
    for flipped in (False, True):
        img = jitter_image(rng)
        assert_jitter_matches_oracle(img[:, :, ::-1] if flipped else img, photo)


def test_color_jitter_matches_hsv_oracle_on_sampled_recipes():
    rng = np.random.default_rng(14)
    jittered = 0
    while jittered < 200:
        photo = _sample_photo(jittered % 2, rng)
        if photo.hue != 0.0:
            assert_jitter_matches_oracle(jitter_image(rng), photo)
            jittered += 1


def test_views_without_jitter_render_byte_identically(monkeypatch):
    rng = np.random.default_rng(15)
    img = rng.random((3, 24, 24))
    cfg = AugmentConfig(out_size=(16, 16))
    pairs = [sample_view_pair((24, 24), cfg, rng) for _ in range(60)]
    specs = [s for pair in pairs for s in (pair.spec_a, pair.spec_b)
             if s.photometric.hue == 0.0]
    specs.append(full_spec(24, 24))
    assert len(specs) > 20
    got = [render_view(img, s) for s in specs]
    monkeypatch.setattr(views, "_color_jitter", oracle_jitter)
    for spec, out in zip(specs, got):
        assert out.tobytes() == render_view(img, spec).tobytes()


def test_resize_bilinear_identity_and_constant():
    rng = np.random.default_rng(9)
    img = rng.random((3, 8, 8))
    assert np.array_equal(resize_bilinear(img, (8, 8)), img)
    up = resize_bilinear(np.full((1, 4, 4), 2.5), (16, 16))
    assert np.allclose(up, 2.5, atol=1e-12)


EPS = np.finfo(np.float64).eps


def four_tap_sample(img, xs, ys):
    """Per-pixel oracle: each sample is the sum of its four clamped taps."""
    c, h, w = img.shape
    out = np.empty((c, len(ys), len(xs)))
    for i, y in enumerate(ys):
        for j, x in enumerate(xs):
            u = min(max(x - 0.5, 0.0), w - 1.0)
            v = min(max(y - 0.5, 0.0), h - 1.0)
            j0, i0 = int(np.floor(u)), int(np.floor(v))
            j1, i1 = min(j0 + 1, w - 1), min(i0 + 1, h - 1)
            fx, fy = u - j0, v - i0
            out[:, i, j] = (img[:, i0, j0] * ((1 - fy) * (1 - fx)) + img[:, i0, j1] * ((1 - fy) * fx)
                            + img[:, i1, j0] * (fy * (1 - fx)) + img[:, i1, j1] * (fy * fx))
    return out


@pytest.mark.parametrize("seed", range(5))
def test_bilinear_sample_matches_four_tap_oracle(seed):
    rng = np.random.default_rng(seed)
    batch = rng.standard_normal((16, 4, 8, 8))
    box = np.sort(rng.uniform(0.0, 1.0, (2, 2)), axis=1)
    centers = (np.arange(8) + 0.5) / 8
    cases = [
        # past both edges: clamping included
        (rng.standard_normal((3, 9, 11)), rng.uniform(-2.0, 13.0, 7),
         rng.uniform(-2.0, 11.0, 5)),
        # the eval upsample of a [32,8,8] map to 64x64, as resize_bilinear asks
        (rng.standard_normal((32, 8, 8)), (np.arange(64) + 0.5) / 64 * 8,
         (np.arange(64) + 0.5) / 64 * 8),
        # roi_align's strided source: one map of a [C,N,H,W] batch
        (batch[:, seed % 4], 8 * (box[0, 0] + centers * (box[0, 1] - box[0, 0])),
         8 * (box[1, 0] + centers * (box[1, 1] - box[1, 0]))),
    ]
    for img, xs, ys in cases:
        out, (rows, cols) = bilinear_sample(img, xs, ys)
        assert rows.shape == (len(ys), img.shape[1]) and cols.shape == (len(xs), img.shape[2])
        for weights in (rows, cols):
            # two taps a sample, convex
            assert ((weights != 0).sum(axis=1) <= 2).all() and (weights >= 0).all()
            assert np.allclose(weights.sum(axis=1), 1.0, rtol=0, atol=EPS)
        # each sample is two rounded two-term sums of the source, the oracle
        # one four-term sum: a few eps of the largest magnitude apart
        bound = 4 * EPS * np.abs(img).max()
        assert np.abs(out - four_tap_sample(img, xs, ys)).max() <= bound
    assert not cases[2][0].flags.c_contiguous


@pytest.mark.parametrize("shape, out_size", [((32, 8, 8), (64, 64)), ((3, 9, 11), (5, 7)),
                                             ((2, 4, 6), (12, 12))])
def test_resize_bilinear_matches_four_tap_oracle(shape, out_size):
    # the square case shares one weight matrix between the axes
    img = np.random.default_rng(shape[1]).standard_normal(shape)
    (_, h, w), (out_h, out_w) = shape, out_size
    want = four_tap_sample(img, (np.arange(out_w) + 0.5) / out_w * w,
                           (np.arange(out_h) + 0.5) / out_h * h)
    got = resize_bilinear(img, out_size)
    assert np.abs(got - want).max() <= 4 * EPS * np.abs(img).max()


def tap_loop_blur(img, sigma):
    """The Gaussian blur as an edge-padded tap loop, horizontal then vertical."""
    radius = max(1, int(3.0 * sigma + 0.5))
    taps = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (taps / sigma) ** 2)
    kernel /= kernel.sum()
    padded = np.pad(img, ((0, 0), (0, 0), (radius, radius)), mode="edge")
    out = np.zeros_like(img)
    for k, coef in enumerate(kernel):
        out += coef * padded[:, :, k:k + img.shape[2]]
    padded = np.pad(out, ((0, 0), (radius, radius), (0, 0)), mode="edge")
    out = np.zeros_like(img)
    for k, coef in enumerate(kernel):
        out += coef * padded[:, k:k + img.shape[1], :]
    return out


@pytest.mark.parametrize("sigma", [0.1, 0.3, 1.0, 2.0])
@pytest.mark.parametrize("shape", [(3, 64, 64), (3, 32, 48), (1, 5, 3)])
def test_gaussian_blur_matches_tap_loop(sigma, shape):
    rng = np.random.default_rng(int(sigma * 10) + shape[1])
    img = rng.random(shape)
    # both sum the same convex taps in a different order, in two passes
    bound = 4 * EPS * np.abs(img).max()
    assert np.abs(_gaussian_blur(img, sigma) - tap_loop_blur(img, sigma)).max() <= bound
    flat = _gaussian_blur(np.full(shape, 0.7), sigma)
    assert np.abs(flat - 0.7).max() <= 4 * EPS * 0.7
