"""Synthetic multi-domain shape dataset.

Class identity is a procedural shape; domain identity is a deterministic
photometric transform (brightness, contrast, optional inversion, texture
grating, pixel noise), so domain information lives in image statistics while
class information lives in spatial structure. Every sample is rendered from a
seed derived from (dataset seed, sample id), making generation reproducible
and order-independent.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, PnmParseError
from .tensor_core import from_json

SHAPE_NAMES = ("circle", "square", "triangle", "cross", "ring", "bars", "checker")


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
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
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
    out = img.astype(np.float64).copy()
    size = out.shape[0]
    if style.texture_freq > 0:
        yy, xx = np.mgrid[0:out.shape[0], 0:out.shape[1]].astype(np.float64)
        grating = np.sin(2 * np.pi * style.texture_freq * xx / size) * \
            np.cos(2 * np.pi * style.texture_freq * yy / size)
        out = out + style.texture_amp * grating
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
    path: str

    def to_dict(self) -> dict:
        return {"id": self.id, "domain": self.domain, "class": self.cls,
                "split": self.split, "path": self.path}

    @classmethod
    def from_dict(cls, doc: dict) -> "SampleRecord":
        return cls(id=doc["id"], domain=doc["domain"], cls=doc["class"],
                   split=doc["split"], path=doc["path"])


@dataclass
class DatasetManifest:
    seed: int
    image_size: int
    n_classes: int
    styles: list[DomainStyle]
    target_domain: int
    imbalance: dict
    samples: list[SampleRecord] = field(default_factory=list)

    def __post_init__(self):
        header = (self.seed, self.image_size, self.n_classes, self.target_domain)
        if any(type(v) is not int for v in header) or min(header) < 0 or self.image_size < 1:
            raise ConfigError(f"manifest seed, image_size, n_classes and target_domain must "
                              f"be JSON integers >= 0, image_size >= 1; got {header}")

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

    def to_dict(self) -> dict:
        return {**vars(self), "styles": [asdict(s) for s in self.styles],
                "samples": [s.to_dict() for s in self.samples]}

    @classmethod
    def from_dict(cls, doc: dict) -> "DatasetManifest":
        """Rebuild a manifest from ``to_dict`` output, or raise a ConfigError."""
        try:
            return cls(**{**doc, "styles": [from_json(DomainStyle, s) for s in doc["styles"]],
                          "samples": [SampleRecord.from_dict(s) for s in doc["samples"]]})
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed manifest ({type(exc).__name__}: {exc})") from exc


def save_manifest(manifest: DatasetManifest, path) -> None:
    Path(path).write_text(json.dumps(manifest.to_dict(), indent=1, sort_keys=True))


def load_manifest(path) -> DatasetManifest:
    return DatasetManifest.from_dict(json.loads(Path(path).read_text()))


# -- generation ----------------------------------------------------------------

def gen_dataset(out_dir, n_classes: int = 7, sources=None, target: DomainStyle | None = None,
                per_cell_train: int = 16, per_cell_test: int = 6, image_size: int = 32,
                seed: int = 0) -> DatasetManifest:
    """Write images and a manifest for a balanced multi-domain dataset.

    Every (domain, class) cell receives exactly per_cell_train train samples
    and per_cell_test test samples; byte output depends only on the seed.
    """
    if n_classes < 2 or n_classes > len(SHAPE_NAMES):
        raise ConfigError(f"n_classes must be in 2..{len(SHAPE_NAMES)}")
    sources = sources if sources is not None else source_styles(3)
    target = target if target is not None else target_style("far")
    styles = list(sources) + [target]
    out_dir = Path(out_dir)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    manifest = DatasetManifest(seed=seed, image_size=image_size, n_classes=n_classes,
                               styles=styles, target_domain=len(styles) - 1,
                               imbalance={"kind": "balanced"})
    sid = 0
    for domain, style in enumerate(styles):
        for cls in range(n_classes):
            for split, count in (("train", per_cell_train), ("test", per_cell_test)):
                for _ in range(count):
                    rel = f"images/{sid:06d}.pgm"
                    img = render_sample(seed, sid, cls, style, image_size)
                    write_pnm(out_dir / rel, img)
                    manifest.samples.append(SampleRecord(
                        id=sid, domain=domain, cls=cls, split=split, path=rel))
                    sid += 1
    save_manifest(manifest, out_dir / "manifest.json")
    return manifest


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


def _subsample_cell(records: list[SampleRecord], keep: int,
                    rng: np.random.Generator) -> set[int]:
    ids = sorted(r.id for r in records)
    if keep >= len(ids):
        return set(ids)
    chosen = rng.choice(len(ids), size=keep, replace=False)
    return {ids[i] for i in chosen}


def apply_imbalance(manifest: DatasetManifest, spec: ImbalanceSpec,
                    rng: np.random.Generator) -> DatasetManifest:
    """Filter the train split according to the spec; the test split is never
    touched. Returns a new manifest (the input is not modified)."""
    sources = manifest.source_domains
    counts = manifest.cell_counts("train")
    keep_ids: set[int] = {s.id for s in manifest.records("test")}
    keep_ids |= {s.id for s in manifest.records("train", [manifest.target_domain])}

    if spec.kind == "balanced":
        keep_ids |= {s.id for s in manifest.records("train", sources)}
    elif spec.kind == "data":
        totals = {d: int(counts[d].sum()) for d in sources}
        largest = min(d for d in sources if totals[d] == max(totals.values()))
        for d in sources:
            for k in range(manifest.n_classes):
                cell = [s for s in manifest.records("train", [d]) if s.cls == k]
                if d == largest:
                    keep_ids |= {s.id for s in cell}
                    continue
                keep = max(1, int(np.floor(spec.keep_fraction * len(cell) + 0.5)))
                keep_ids |= _subsample_cell(cell, keep, rng)
    elif spec.kind == "class":
        spec.check_layout(len(sources), manifest.n_classes)
        for d, subset in zip(sources, spec.class_subsets):
            allowed = set(subset)
            keep_ids |= {s.id for s in manifest.records("train", [d]) if s.cls in allowed}
    else:  # long_tailed
        k_max = manifest.n_classes - 1
        for d in sources:
            for k in range(manifest.n_classes):
                cell = [s for s in manifest.records("train", [d]) if s.cls == k]
                frac = spec.ratio ** (-k / k_max) if k_max else 1.0
                keep = max(1, int(np.floor(len(cell) * frac + 0.5)))
                keep_ids |= _subsample_cell(cell, keep, rng)

    filtered = [s for s in manifest.samples if s.id in keep_ids]
    return DatasetManifest(seed=manifest.seed, image_size=manifest.image_size,
                           n_classes=manifest.n_classes, styles=list(manifest.styles),
                           target_domain=manifest.target_domain,
                           imbalance=spec.to_dict(), samples=filtered)


# -- pixel access ---------------------------------------------------------------

def load_images(manifest: DatasetManifest, root, records=None) -> np.ndarray:
    """(M, 1, H, W) float64 pixel tensor in [0, 1] for the given records."""
    root = Path(root)
    records = manifest.samples if records is None else records
    out = np.empty((len(records), 1, manifest.image_size, manifest.image_size))
    for i, rec in enumerate(records):
        img = read_pnm(root / rec.path)
        if img.ndim == 3:
            img = img.mean(axis=2)
        out[i, 0] = img / 255.0
    return out


def raw_pixel_styles(images: np.ndarray) -> np.ndarray:
    """(M, 2) mean/std pixel statistics used for pseudo-domain clustering."""
    x = np.asarray(images, dtype=np.float64)
    flat = x.reshape(x.shape[0], -1)
    return np.stack([flat.mean(axis=1), flat.std(axis=1)], axis=1)


# -- PGM / PPM ------------------------------------------------------------------

def write_pnm(path, img: np.ndarray) -> None:
    """Write uint8 grayscale (H, W) as binary PGM or (H, W, 3) as binary PPM."""
    img = np.asarray(img)
    if img.dtype != np.uint8:
        raise DimensionError("pnm images must be uint8")
    if img.ndim == 2:
        header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n"
    elif img.ndim == 3 and img.shape[2] == 3:
        header = f"P6\n{img.shape[1]} {img.shape[0]}\n255\n"
    else:
        raise DimensionError(f"expected (H,W) or (H,W,3), got {img.shape}")
    Path(path).write_bytes(header.encode("ascii") + img.tobytes())


def read_pnm(path) -> np.ndarray:
    """Read a binary PGM (P5) or PPM (P6) file; parse failures carry the
    byte offset."""
    data = Path(path).read_bytes()
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
    if magic not in (b"P5", b"P6"):
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
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    body = data[pos:pos + need]
    if len(body) < need:
        raise PnmParseError(
            f"truncated pixel data: expected {need} bytes, got {len(body)}",
            pos + len(body))
    arr = np.frombuffer(body, dtype=np.uint8)
    return arr.reshape(height, width) if channels == 1 else arr.reshape(height, width, 3)
