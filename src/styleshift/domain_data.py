"""Synthetic multi-domain shape dataset.

Class identity is a procedural shape; domain identity is a deterministic
photometric transform (brightness, contrast, optional inversion, texture
grating, pixel noise), so domain information lives in image statistics while
class information lives in spatial structure. Every sample is rendered from a
seed derived from (dataset seed, sample id), making generation reproducible
and order-independent.
"""

from __future__ import annotations

import contextlib
import functools
import mmap
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, PnmParseError
from .tensor_core import from_json, read_json, write_json

SHAPE_NAMES = ("circle", "square", "triangle", "cross", "ring", "bars", "checker")
IMAGES_FILE = "images.pgm"  # every record's pixels, one (N·H) × W P5 strip in manifest order


@dataclass(frozen=True)
class DomainStyle:
    """Parameters of the per-domain pixel transform."""

    name: str
    brightness: float = 0.0
    contrast: float = 1.0
    noise_std: float = 0.0
    invert: bool = False
    texture_freq: float = 0.0
    texture_amp: float = 0.15


def source_styles(n: int = 3) -> list[DomainStyle]:
    """Moderately separated source-domain presets."""
    presets = [
        DomainStyle("plain", noise_std=0.02),
        DomainStyle("bright", brightness=0.15, contrast=0.82, noise_std=0.02),
        DomainStyle("grain", brightness=-0.16, contrast=1.05, noise_std=0.035,
                    texture_freq=5.0, texture_amp=0.25),
        DomainStyle("soft", brightness=0.07, contrast=0.60, noise_std=0.03),
    ]
    if not 1 <= n <= len(presets):
        raise ConfigError(f"between 1 and {len(presets)} source domains supported")
    return presets[:n]


def target_style(preset: str = "far") -> DomainStyle:
    """Held-out-domain presets.

    'far' sits well outside the source hull: an extreme washed-out exposure
    (strong brightening, crushed contrast) whose damage is affine per pixel,
    so a statistics shift at an early layer can genuinely undo it. 'near'
    sits just beside the hull. 'sketch' is a hostile reference point
    (inversion + binarization): far in style space too, but its damage
    anti-correlates activation ranks, which no per-channel renormalization
    can repair.
    """
    if preset == "far":
        return DomainStyle("far", brightness=0.32, contrast=0.50, noise_std=0.03)
    if preset == "near":
        return DomainStyle("near", brightness=0.05, contrast=0.92, noise_std=0.03)
    if preset == "sketch":
        return DomainStyle("sketch", brightness=0.0, contrast=5.0, noise_std=0.02,
                           invert=True)
    raise ConfigError(f"unknown target preset {preset!r}")


# -- rendering ----------------------------------------------------------------

@functools.cache  # one entry per image shape a process renders
def _grid(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float64 (yy, xx) pixel coordinates of an image of this shape."""
    grid = np.mgrid[0:height, 0:width].astype(np.float64)
    grid.flags.writeable = False  # shared by every caller; its views inherit the flag
    return grid[0], grid[1]


@functools.cache  # one entry per (texture frequency, image shape)
def _grating(freq: float, height: int, width: int) -> np.ndarray:
    """Read-only texture grating of a style with this frequency."""
    yy, xx = _grid(height, width)
    grating = np.sin(2 * np.pi * freq * xx / height) * np.cos(2 * np.pi * freq * yy / height)
    grating.flags.writeable = False
    return grating


def render_shape(class_id: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Grayscale rendering in [0, 1] of one jittered shape instance."""
    if not 0 <= class_id < len(SHAPE_NAMES):
        raise ConfigError(f"class id {class_id} exceeds the {len(SHAPE_NAMES)} known shapes")
    img = np.full((size, size), 0.12)
    fg = 0.88 + rng.uniform(-0.03, 0.03)
    cy = size / 2 + rng.uniform(-0.08, 0.08) * size
    cx = size / 2 + rng.uniform(-0.08, 0.08) * size
    # sizes chosen so every shape covers a similar area fraction
    r = size * (0.30 + rng.uniform(-0.01, 0.01))
    yy, xx = _grid(size, size)
    dy, dx = yy - cy, xx - cx
    name = SHAPE_NAMES[class_id]
    if name == "circle":
        mask = dy * dy + dx * dx <= (0.95 * r) ** 2
    elif name == "square":
        half = r * 0.8
        mask = (np.abs(dy) <= half) & (np.abs(dx) <= half)
    elif name == "triangle":
        mask = (dy >= -r) & (dy <= r) & (np.abs(dx) <= (dy + r) * 0.65)
    elif name == "cross":
        arm = r * 0.34
        mask = ((np.abs(dx) <= arm) & (np.abs(dy) <= r * 1.15)) | \
               ((np.abs(dy) <= arm) & (np.abs(dx) <= r * 1.15))
    elif name == "ring":
        d2 = dy * dy + dx * dx
        mask = (d2 <= (r * 1.1) ** 2) & (d2 >= (r * 0.55) ** 2)
    elif name == "bars":
        period = max(3.0, size / 4.5)
        mask = (np.abs(dx) <= r * 1.1) & (np.abs(dy) <= r * 1.1) & \
               ((xx / period) % 1.0 < 0.5)
    else:  # checker
        period = max(3.0, size / 4.0)
        mask = (np.abs(dx) <= r * 1.1) & (np.abs(dy) <= r * 1.1) & \
               (((xx / period).astype(int) + (yy / period).astype(int)) % 2 == 0)
    img[mask] = fg
    return img


def apply_style(img: np.ndarray, style: DomainStyle, rng: np.random.Generator) -> np.ndarray:
    """Deterministic pixel transform of a [0, 1] grayscale image."""
    out = img.astype(np.float64)
    if style.texture_freq > 0:
        out = out + style.texture_amp * _grating(style.texture_freq, *out.shape)
    out = 0.5 + style.contrast * (out - 0.5)
    out = out + style.brightness
    if style.invert:
        out = 1.0 - out
    if style.noise_std > 0:
        out = out + rng.normal(0.0, style.noise_std, out.shape)
    return np.clip(out, 0.0, 1.0)


def _sample_rng(seed: int, sample_id: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, sample_id])))


def render_sample(seed: int, sample_id: int, class_id: int, style: DomainStyle,
                  size: int) -> np.ndarray:
    """uint8 image for one manifest record; independent of render order."""
    rng = _sample_rng(seed, sample_id)
    img = render_shape(class_id, size, rng)
    img = apply_style(img, style, rng)
    return np.round(img * 255.0).astype(np.uint8)


# -- manifest -----------------------------------------------------------------

@dataclass
class SampleRecord:
    id: int
    domain: int
    cls: int
    split: str
    _JSON_KEY = {"cls": "class"}  # a field and its JSON key

    def __post_init__(self):  # the manifest checks domain and cls against its header
        if min(self.id, self.domain, self.cls) < 0 or self.split not in ("train", "test"):
            raise ConfigError(f"sample id, domain and class must be >= 0 and split "
                              f"'train' or 'test'; got {self}")


@dataclass
class DatasetManifest:
    seed: int
    image_size: int
    n_classes: int
    styles: list[DomainStyle]
    target_domain: int
    imbalance: dict
    samples: list[SampleRecord]

    def __post_init__(self):
        header = (self.seed, self.image_size, self.n_classes, self.target_domain)
        if min(header) < 0 or self.image_size < 1:
            raise ConfigError(f"manifest seed, image_size, n_classes and target_domain must "
                              f"be >= 0, image_size >= 1; got {header}")
        if self.target_domain >= self.n_domains:
            raise ConfigError(f"target_domain {self.target_domain} is not one of the "
                              f"{self.n_domains} styles")
        if any(s.domain >= self.n_domains or s.cls >= self.n_classes for s in self.samples):
            raise ConfigError(f"a sample lies outside the {self.n_domains} domains or "
                              f"the {self.n_classes} classes")
        if len({s.id for s in self.samples}) != len(self.samples):  # load_images finds rows by id
            raise ConfigError("sample ids must be unique")

    @property
    def n_domains(self) -> int:
        return len(self.styles)

    @property
    def source_domains(self) -> list[int]:
        return [d for d in range(self.n_domains) if d != self.target_domain]

    def records(self, split: str | None = None, domains=None) -> list[SampleRecord]:
        out = self.samples
        if split is not None:
            out = [s for s in out if s.split == split]
        if domains is not None:
            allowed = set(domains)
            out = [s for s in out if s.domain in allowed]
        return out

    def cell_counts(self, split: str = "train") -> np.ndarray:
        counts = np.zeros((self.n_domains, self.n_classes), dtype=np.intp)
        for s in self.records(split):
            counts[s.domain, s.cls] += 1
        return counts


def save_manifest(manifest: DatasetManifest, path) -> None:
    write_json(path, manifest)


def load_manifest(path) -> DatasetManifest:
    return from_json(DatasetManifest, read_json(path))


# -- imbalance -----------------------------------------------------------------

@dataclass(frozen=True)
class ImbalanceSpec:
    """One of: balanced, data (keep_fraction), class (class_subsets),
    long_tailed (ratio)."""

    kind: str = "balanced"
    keep_fraction: float = 1.0
    class_subsets: tuple[tuple[int, ...], ...] | None = None
    ratio: float = 1.0

    def __post_init__(self):
        if self.kind not in ("balanced", "data", "class", "long_tailed"):
            raise ConfigError(f"unknown imbalance kind {self.kind!r}")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ConfigError("keep_fraction must lie in (0, 1]")
        if self.kind == "class" and not self.class_subsets:
            raise ConfigError("class imbalance needs per-domain class subsets")
        if self.ratio < 1.0:
            raise ConfigError("long-tailed ratio must be >= 1")

    def check_layout(self, n_sources: int, n_classes: int) -> None:
        """A class imbalance needs one class subset per source domain, and the
        subsets must cover exactly the classes; otherwise a ConfigError."""
        if self.kind != "class":
            return
        if len(self.class_subsets) != n_sources:
            raise ConfigError(f"need one class subset per source domain ({n_sources}), "
                              f"got {len(self.class_subsets)}")
        if {k for subset in self.class_subsets for k in subset} != set(range(n_classes)):
            raise ConfigError(f"class subsets must cover exactly the classes 0..{n_classes - 1}")

    def to_dict(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.kind == "data":
            doc["keep_fraction"] = self.keep_fraction
        elif self.kind == "class":
            doc["class_subsets"] = [list(s) for s in self.class_subsets]
        elif self.kind == "long_tailed":
            doc["ratio"] = self.ratio
        return doc


def apply_imbalance(manifest: DatasetManifest, spec: ImbalanceSpec,
                    rng: np.random.Generator) -> DatasetManifest:
    """Filter the train split according to the spec; the test split is never
    touched. Returns a new manifest (the input is not modified).

    Source cells are visited domain by domain, class by class; a cell of n
    train samples keeps ``keep`` of them, drawn from its sorted ids only when
    0 < keep < n, so the rng stream depends on the spec alone."""
    sources, n_classes = manifest.source_domains, manifest.n_classes
    spec.check_layout(len(sources), n_classes)
    cells = {(d, k): [] for d in sources for k in range(n_classes)}
    for s in sorted(manifest.records("train", sources), key=lambda s: s.id):
        cells[s.domain, s.cls].append(s.id)
    totals = manifest.cell_counts("train").sum(axis=1)
    largest = max(sources, key=lambda d: totals[d])  # the first of equals
    subsets = dict(zip(sources, spec.class_subsets or ()))
    keep_ids = {s.id for s in manifest.samples
                if s.split == "test" or s.domain == manifest.target_domain}
    for (d, k), ids in cells.items():
        keep = n = len(ids)
        if spec.kind == "data" and d != largest:
            keep = max(1, int(np.floor(spec.keep_fraction * n + 0.5)))
        elif spec.kind == "long_tailed":
            keep = max(1, int(np.floor(n * spec.ratio ** (-k / max(1, n_classes - 1)) + 0.5)))
        elif spec.kind == "class" and k not in subsets[d]:
            keep = 0
        if 0 < keep < n:
            ids = [ids[i] for i in rng.choice(n, size=keep, replace=False)]
        keep_ids.update(ids[:keep])
    return replace(manifest, styles=list(manifest.styles), imbalance=spec.to_dict(),
                   samples=[s for s in manifest.samples if s.id in keep_ids])


# -- generation ----------------------------------------------------------------

def gen_dataset(out_dir, n_classes: int = 7, sources=None, target: DomainStyle | None = None,
                per_cell_train: int = 16, per_cell_test: int = 6, image_size: int = 32,
                seed: int = 0, imbalance: ImbalanceSpec = ImbalanceSpec()) -> DatasetManifest:
    """Write the image strip and the manifest of a multi-domain dataset: every
    (domain, class) cell gets per_cell_train train and per_cell_test test
    samples, ``imbalance`` filters them under the rng seeded (seed, 0xBA1A),
    and only the kept samples are rendered. Bytes depend only on the arguments.
    """
    if n_classes < 2 or n_classes > len(SHAPE_NAMES):
        raise ConfigError(f"n_classes must be in 2..{len(SHAPE_NAMES)}")
    sources = sources if sources is not None else source_styles(3)
    target = target if target is not None else target_style("far")
    styles = list(sources) + [target]
    layout = [(d, k, split) for d in range(len(styles)) for k in range(n_classes)
              for split, count in (("train", per_cell_train), ("test", per_cell_test))
              for _ in range(count)]
    balanced = DatasetManifest(
        seed=seed, image_size=image_size, n_classes=n_classes, styles=styles,
        target_domain=len(styles) - 1, imbalance={"kind": "balanced"},
        samples=[SampleRecord(i, d, k, split) for i, (d, k, split) in enumerate(layout)])
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xBA1A])))
    manifest = apply_imbalance(balanced, imbalance, rng)
    strip = np.empty((len(manifest.samples), image_size, image_size), dtype=np.uint8)
    for tile, rec in zip(strip, manifest.samples):  # through the globals perfbench wraps
        tile[...] = render_sample(seed, rec.id, rec.cls, styles[rec.domain], image_size)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_pnm(out_dir / IMAGES_FILE, strip.reshape(-1, image_size))
    save_manifest(manifest, out_dir / "manifest.json")
    return manifest


# -- pixel access ---------------------------------------------------------------

def load_images(manifest: DatasetManifest, root, records=None) -> np.ndarray:
    """(M, 1, H, W) uint8 pixel codes for the given records of ``manifest``
    (all of them by default): an eighth of the bytes the same pixels take as
    float64. ``as_pixels`` scales codes to [0, 1]; the network scales each
    batch it is given. One ``read_pnm`` of ``root/images.pgm``, whose rows
    i·H to (i+1)·H − 1 are the manifest's record i, reading those records'
    rows alone; a strip of another size is a PnmParseError."""
    size, n = manifest.image_size, len(manifest.samples)
    records = manifest.samples if records is None else records
    row = {rec.id: i for i, rec in enumerate(manifest.samples)}
    rows = np.fromiter((row[rec.id] for rec in records), dtype=np.intp, count=len(records))
    return read_pnm(Path(root) / IMAGES_FILE, (n, size, rows))[:, None]


def as_pixels(images) -> np.ndarray:
    """Pixels as float64: uint8 codes (``load_images``) scaled to [0, 1] by
    1/255, any other array as float64, unscaled. The one place the scale
    lives; ``MicroNet.forward`` and ``MicroNet.infer`` call it on each batch."""
    images = np.asarray(images)
    if images.dtype == np.uint8:
        return images / 255.0
    return np.asarray(images, dtype=np.float64)


def raw_pixel_styles(images: np.ndarray) -> np.ndarray:
    """(M, 2) mean/std pixel statistics used for pseudo-domain clustering."""
    x = as_pixels(images)
    flat = x.reshape(x.shape[0], -1)
    return np.stack([flat.mean(axis=1), flat.std(axis=1)], axis=1)


# -- PGM ------------------------------------------------------------------------

def write_pnm(path, img: np.ndarray) -> None:
    """Write a uint8 grayscale (H, W) image as binary PGM (P5)."""
    img = np.asarray(img)
    if img.dtype != np.uint8:
        raise DimensionError("pnm images must be uint8")
    if img.ndim != 2 or min(img.shape) < 1:  # read_pnm takes positive sizes only
        raise DimensionError(f"expected a grayscale (H,W) image of positive size, got {img.shape}")
    Path(path).write_bytes(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
                           + img.tobytes())


def read_pnm(path, strip=None) -> np.ndarray:
    """Read a binary PGM (P5) file as a uint8 (H, W) array; any other magic,
    P6 included, and every parse failure is a PnmParseError carrying the
    byte offset.

    With ``strip=(n, size, rows)`` the image must be ``n`` tiles of size x
    size pixels stacked top to bottom (another size is a PnmParseError at
    offset 0), and only the tiles at the indices ``rows`` are read, with one
    seek and read per run of consecutive indices: a (len(rows), size, size)
    array. The header is parsed from a map of the file, so the pixels of the
    other tiles are never read."""
    path = Path(path)
    with open(path, "rb") as f:
        mapped = (mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) if os.fstat(f.fileno()).st_size
                  else contextlib.nullcontext(b""))   # an empty file cannot be mapped
        with mapped as data:
            height, width, pos = _pnm_header(data)
        if strip is None:
            f.seek(pos)
            return np.frombuffer(f.read(height * width), dtype=np.uint8).reshape(height, width)
        n, size, rows = strip
        if (height, width) != (n * size, size):
            raise PnmParseError(f"{path.name} is {width}x{height} pixels, but {n} records of "
                                f"{size}x{size} need {size}x{n * size}", 0)
        out = np.empty((len(rows), size, size), dtype=np.uint8)
        starts = np.flatnonzero(np.diff(rows, prepend=-2) != 1)   # where each run begins
        for lo, hi in zip(starts, [*starts[1:], len(rows)]):
            f.seek(pos + int(rows[lo]) * size * size)
            f.readinto(out[lo:hi])
        return out


def _pnm_header(data) -> tuple[int, int, int]:
    """The height and width of the P5 image in ``data``, the whole file's
    bytes or a map of them, and the offset of its pixel data, which must all
    be there."""
    pos = 0

    def token() -> bytes:
        nonlocal pos
        while True:  # skip whitespace and comment lines
            while pos < len(data) and data[pos:pos + 1].isspace():
                pos += 1
            if data[pos:pos + 1] != b"#":
                break
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise PnmParseError("unexpected end of header", start)
        return data[start:pos]

    def number() -> int:  # ASCII digits only: int() would also take "+3" and "1_0"
        field = token()
        if not field.isdigit():
            raise PnmParseError(f"non-numeric header field {field!r}", pos)
        return int(field)

    magic = token()
    if magic != b"P5":
        raise PnmParseError(f"unsupported magic {magic!r}", 0)
    width = number()
    height = number()
    size_end = pos
    maxval = number()
    if width < 1 or height < 1:
        raise PnmParseError(f"image size must be positive, got {width}x{height}", size_end)
    if maxval != 255:
        raise PnmParseError(f"unsupported maxval {maxval}", pos)
    pos = min(pos + 1, len(data))  # single whitespace byte after maxval
    need, got = width * height, min(width * height, len(data) - pos)
    if got < need:
        raise PnmParseError(f"truncated pixel data: expected {need} bytes, got {got}", pos + got)
    return height, width, pos
