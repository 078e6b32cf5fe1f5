"""Synthetic fingerprint generation and temporal noise injection."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import (RSS_SENTINEL, Dataset, RpMap, _check_dataset, _check_fields, _check_seed,
                   _enum_named, _field_hints, _floats, _has_type, _must_be, _same)
from .errors import CapacityError, ConfigError, ValidationError


class NoiseMode(Enum):
    ED = "ed"  # one shared delta across all APs
    NON_ED = "non-ed"  # one delta per AP

    @classmethod
    def from_name(cls, name: str) -> "NoiseMode":
        return _enum_named(cls, "noise mode", name)


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Deterministic dB offset(s) plus optional zero-mean Gaussian jitter.

    In ED mode `delta` is a single dB value applied to every AP; in non-ED
    mode it is a per-AP vector. `stochastic_sigma` may be a scalar or a
    per-AP vector of standard deviations; 0 disables the jitter entirely.
    """

    mode: NoiseMode
    delta: float | list[float] | np.ndarray
    stochastic_sigma: float | list[float] | np.ndarray = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_fields(self)
        _check_seed("noise seed", self.seed)
        delta, sigma = (self._floats(field) for field in ("delta", "stochastic_sigma"))
        if self.mode is NoiseMode.ED:
            if delta.ndim != 0:
                raise ValidationError("ED mode carries exactly one delta")
            delta = float(delta)
        else:
            if delta.ndim != 1 or delta.size == 0:
                raise ValidationError("non-ED mode carries one delta per AP")
            delta.setflags(write=False)
        if sigma.ndim == 0:
            sigma = float(sigma)
            if sigma < 0:
                raise ValidationError("stochastic_sigma must be non-negative")
        else:
            if sigma.ndim != 1 or np.any(sigma < 0):
                raise ValidationError("per-AP sigma must be a non-negative vector")
            sigma.setflags(write=False)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "stochastic_sigma", sigma)

    def _floats(self, field: str) -> np.ndarray:
        """Field `field` as a float64 array, else the ConfigError naming it: an array's entries
        are checked as `_check_fields` checks a list's."""
        name, kind = f"NoiseSpec.{field}", _field_hints(NoiseSpec)[field]
        floats = _floats(name, getattr(self, field), kind, ConfigError)
        if not np.isfinite(floats).all():
            raise ConfigError(_must_be(name, kind, getattr(self, field)))
        return floats

    def __eq__(self, other) -> bool:
        return _same(self, other, ("mode", "delta", "stochastic_sigma", "seed"))

    def scaled(self, multiplier: float, seed: int | None = None) -> "NoiseSpec":
        """Same structure with delta and sigma scaled by `multiplier`."""
        return NoiseSpec(
            self.mode,
            self.delta * multiplier,
            self.stochastic_sigma * multiplier,
            self.seed if seed is None else seed,
        )


@dataclass(frozen=True)
class TemporalSchedule:
    """Ordered (ci, noise multiplier) entries; ci 0 is the clean reference."""

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        _check_fields(self)
        entries = tuple((int(ci), float(m)) for ci, m in self.entries)
        if not entries:
            raise ValidationError("schedule must have at least one entry")
        if entries[0][0] != 0 or entries[0][1] != 0.0:
            raise ValidationError("schedule must start at ci 0 with multiplier 0")
        cis = [ci for ci, _ in entries]
        if any(b <= a for a, b in zip(cis, cis[1:])):
            raise ValidationError("ci indices must be strictly increasing")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def cis(self) -> tuple[int, ...]:
        return tuple(ci for ci, _ in self.entries)

    @classmethod
    def default(cls) -> "TemporalSchedule":
        """Ten collection instances with monotone drift growth.

        CIs 1-2 model same-day re-scans (small drift); later CIs model
        increasing gaps up to two years. The magnitudes are modeling
        defaults, not measured values.
        """
        mults = (0.0, 0.1, 0.15, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95, 1.0)
        return cls(tuple(enumerate(mults)))


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a clean CI:0 dataset with a distinct strong-AP subset per RP.

    Patterns:
      - "window": each RP lights a sliding window of `strong_width` adjacent APs.
      - "random": each RP gets a distinct random strong subset.
      - "beacon-tint": APs form adjacent pairs. The first half are
        (volatile, beacon) pairs whose beacon is always strong, so their
        encoder bits are constant regardless of what the volatile AP does;
        the volatile AP carries a per-RP analog level ramp ("tint") of
        `tint_span_db` above `weak_dbm`. The remaining pairs host a distinct
        two-pair strong window per RP, which is the only bit-discriminative
        evidence.
    """

    num_rps: int
    num_aps: int
    fingerprints_per_rp: int = 6
    seed: int = 0
    base_pattern: str = "window"  # "window", "random" or "beacon-tint"
    geometry: str = "path"  # "path" (1 m spacing) or "grid"
    strong_dbm: float = -40.0
    weak_dbm: float = -85.0
    strong_width: int = 2  # strong APs per RP for the window pattern
    tint_span_db: float = 30.0  # analog ramp height for the beacon-tint pattern
    jitter_sigma_db: float = 0.0  # per-fingerprint Gaussian spread around the pattern
    device_id: str = "synth"

    def __post_init__(self):
        _check_fields(self)
        if self.num_rps < 2 or self.num_aps < 2:
            raise ConfigError("need at least 2 RPs and 2 APs")
        if self.fingerprints_per_rp < 1:
            raise ConfigError("fingerprints_per_rp must be positive")
        _check_seed("synth seed", self.seed)
        if self.base_pattern not in ("window", "random", "beacon-tint"):
            raise ConfigError(f"unknown base_pattern '{self.base_pattern}'")
        if self.geometry not in ("path", "grid"):
            raise ConfigError(f"unknown geometry '{self.geometry}'")
        if not self.weak_dbm < self.strong_dbm:
            raise ConfigError("weak_dbm must be below strong_dbm")
        if self.strong_width < 1:
            raise ConfigError("strong_width must be positive")
        if self.tint_span_db < 0:
            raise ConfigError("tint_span_db must be non-negative")
        if self.jitter_sigma_db < 0:
            raise ConfigError("jitter_sigma_db must be non-negative")


def _window_patterns(spec: SynthSpec) -> np.ndarray:
    """Boolean (rp, ap) strong-AP masks: one sliding window per RP."""
    k, n, w = spec.num_rps, spec.num_aps, spec.strong_width
    if w > n or k > n - w + 1:
        raise CapacityError(
            f"cannot place {k} distinct windows of width {w} over {n} APs"
        )
    masks = np.zeros((k, n), dtype=bool)
    for rp in range(k):
        start = round(rp * (n - w) / max(k - 1, 1))
        masks[rp, start : start + w] = True
    return masks


def _random_patterns(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    k, n = spec.num_rps, spec.num_aps
    if n < 63 and k > 2**n:
        raise CapacityError(f"{k} RPs exceed the {2**n} distinct patterns over {n} APs")
    masks = np.zeros((k, n), dtype=bool)
    seen: set[bytes] = set()
    for rp in range(k):
        for _ in range(1000):
            mask = rng.random(n) < 0.5
            key = np.packbits(mask).tobytes()
            if key not in seen:
                seen.add(key)
                masks[rp] = mask
                break
        else:
            raise CapacityError(f"could not draw {k} distinct random patterns over {n} APs")
    return masks


def beacon_tint_layout(spec: SynthSpec) -> dict:
    """AP roles for the beacon-tint pattern.

    Returns index arrays: `volatile` (analog tint carriers, free to drift
    across the threshold without touching any latent bit), `beacon`
    (always-strong pair partners of the volatile APs) and `window` (the
    bit-discriminative APs), plus the per-RP window pair subsets.
    """
    if spec.base_pattern != "beacon-tint":
        raise ConfigError("layout is only defined for the beacon-tint pattern")
    if spec.num_aps % 2 != 0:
        raise ConfigError("beacon-tint needs an even AP count")
    pairs = spec.num_aps // 2
    tint_pairs = pairs // 2
    window_pairs = list(range(tint_pairs, pairs))
    subsets = list(itertools.combinations(window_pairs, 2))
    if spec.num_rps > len(subsets):
        raise CapacityError(
            f"{spec.num_rps} RPs exceed the {len(subsets)} distinct window-pair "
            f"subsets available over {spec.num_aps} APs"
        )
    volatile = np.asarray([2 * p for p in range(tint_pairs)], dtype=np.int64)
    beacon = np.asarray([2 * p + 1 for p in range(tint_pairs)], dtype=np.int64)
    window = np.asarray(
        sorted({2 * p + o for p in window_pairs for o in (0, 1)}), dtype=np.int64
    )
    return {
        "volatile": volatile,
        "beacon": beacon,
        "window": window,
        "rp_window_pairs": tuple(subsets[: spec.num_rps]),
    }


def _beacon_tint_patterns(spec: SynthSpec) -> np.ndarray:
    """Clean (rp, ap) dBm matrix for the beacon-tint pattern."""
    layout = beacon_tint_layout(spec)
    base = np.full((spec.num_rps, spec.num_aps), spec.weak_dbm, dtype=np.float64)
    ramp = np.linspace(0.0, spec.tint_span_db, spec.num_rps)
    for rp in range(spec.num_rps):
        base[rp, layout["volatile"]] = spec.weak_dbm + ramp[rp]
        base[rp, layout["beacon"]] = spec.strong_dbm
        for p in layout["rp_window_pairs"][rp]:
            base[rp, 2 * p] = spec.strong_dbm
            base[rp, 2 * p + 1] = spec.strong_dbm
    return base


def _rp_coordinates(spec: SynthSpec) -> RpMap:
    if spec.geometry == "path":
        return RpMap({rp: (float(rp), 0.0) for rp in range(spec.num_rps)})
    cols = int(np.ceil(np.sqrt(spec.num_rps)))
    return RpMap({rp: (float(rp % cols), float(rp // cols)) for rp in range(spec.num_rps)})


def synth_dataset(spec: SynthSpec) -> tuple[Dataset, RpMap]:
    """Generate a clean CI:0 dataset and matching RP coordinates.

    Every RP gets a distinct strong-AP subset; RPs sit on a path at 1-meter
    spacing (or on a unit grid). Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.base_pattern == "window":
        base = np.where(_window_patterns(spec), spec.strong_dbm, spec.weak_dbm)
    elif spec.base_pattern == "random":
        base = np.where(_random_patterns(spec, rng), spec.strong_dbm, spec.weak_dbm)
    else:
        base = _beacon_tint_patterns(spec)
    if len({row.tobytes() for row in base}) != spec.num_rps:
        raise CapacityError("generated RP patterns are not pairwise distinct")

    n = spec.num_rps * spec.fingerprints_per_rp
    rss = np.repeat(base.astype(np.float64), spec.fingerprints_per_rp, axis=0)
    if spec.jitter_sigma_db > 0:
        # One RP's rows per draw: the same stream as one draw per row, and
        # no second matrix-sized temporary.
        for block in np.split(rss, spec.num_rps):
            block += rng.normal(0.0, spec.jitter_sigma_db, block.shape)
    rp_id = np.repeat(np.arange(spec.num_rps), spec.fingerprints_per_rp)
    device_id = np.full(n, spec.device_id, dtype=object)
    return Dataset.from_columns(rp_id, device_id, np.zeros(n, np.int64), rss), _rp_coordinates(spec)


def inject_noise(ds: Dataset, spec: NoiseSpec) -> Dataset:
    """Add the spec's deterministic offset and seeded jitter to every detected AP.

    Sentinel values stay sentinel: a missing AP is never resurrected by noise.
    """
    _check_dataset("ds", ds, ConfigError)
    if not _has_type(spec, NoiseSpec):
        raise ConfigError(_must_be("spec", NoiseSpec, spec))
    if spec.mode is NoiseMode.NON_ED and spec.delta.size != ds.ap_count:
        raise ValidationError(
            f"non-ED delta has {spec.delta.size} entries for {ds.ap_count} APs"
        )
    if np.ndim(spec.stochastic_sigma) == 1 and np.size(spec.stochastic_sigma) != ds.ap_count:
        raise ValidationError(
            f"per-AP sigma has {np.size(spec.stochastic_sigma)} entries for {ds.ap_count} APs"
        )
    rng = np.random.default_rng(spec.seed)
    sigma = np.broadcast_to(np.asarray(spec.stochastic_sigma, dtype=np.float64), (ds.ap_count,))
    offset = spec.delta
    if np.any(sigma > 0):
        offset = offset + rng.normal(0.0, 1.0, ds.rss.shape) * sigma
    rss = np.where(ds.rss != RSS_SENTINEL, ds.rss + offset, ds.rss)
    return Dataset.from_columns(ds.rp_id, ds.device_id, ds.ci, rss)


def _ci_seed(base_seed: int, ci: int) -> int:
    """Stable per-CI sub-seed, independent of schedule evaluation order."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(ci,))
    return int(ss.generate_state(1)[0])


def simulate_cis(ds: Dataset, base: NoiseSpec, sched: TemporalSchedule) -> Dataset:
    """Replicate a clean CI:0 dataset across a temporal schedule.

    Each schedule entry emits a relabeled copy of the dataset with the base
    noise scaled by the entry's multiplier; ci 0 passes through unmodified.
    """
    _check_dataset("ds", ds, ConfigError)
    for name, value, kind in (("base", base, NoiseSpec), ("sched", sched, TemporalSchedule)):
        if not _has_type(value, kind):
            raise ConfigError(_must_be(name, kind, value))
    if np.any(ds.ci != 0):
        raise ValidationError("simulate_cis expects a clean CI:0 dataset")
    n, copies = len(ds), len(sched)
    rss = np.empty((copies * n, ds.ap_count))
    for k, (ci, mult) in enumerate(sched.entries):
        if mult == 0.0:
            rss[k * n : (k + 1) * n] = ds.rss
        else:
            scaled = base.scaled(mult, seed=_ci_seed(base.seed, ci))
            rss[k * n : (k + 1) * n] = inject_noise(ds, scaled).rss
    cis = np.repeat(np.asarray(sched.cis, dtype=np.int64), n)
    return Dataset.from_columns(np.tile(ds.rp_id, copies), np.tile(ds.device_id, copies), cis, rss)
