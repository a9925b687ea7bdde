"""Flat key=value run configuration with per-stage key prefixes.

A config file holds one ``key = value`` pair per line of ``kvtext`` text
(``#`` comments allowed), read one line of at most ``labeling.TEXT_CHUNK``
characters at a time; the same ``key=value`` strings are accepted on
the command line via ``--set``.  Every key has a default, so a config only states what it
overrides.  The ``synth.*``, ``train.*`` and ``selftrain.*`` keys are the
fields of ``SynthSpec``, ``TrainConfig`` and ``SelfTrainConfig``, parsed by
the field's type and defaulting to the field's default (``None`` for a field
without one); their ``seed`` field is the shared top-level ``seed`` key,
which ``synth.seed`` overrides for the synthetic data.  The resolved
configuration hashes deterministically, which the run manifest records.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

from . import kvtext
from .errors import ConfigError
from .featstore import SynthSpec
from .heads import TrainConfig
from .selftrain import SelfTrainConfig


def _checked(parse, ok, need: str):
    """A parser that refuses a value of ``parse`` unless ``ok(value)``, as not ``need``."""
    def parse_checked(raw: str):
        if not ok(value := parse(raw)):
            raise ValueError(f"{raw!r} is not {need}")
        return value
    return parse_checked


def _stage_keys(prefix: str, stage_cls) -> dict:
    """``<prefix>.<field>`` entries for every field of a stage config but ``seed``."""
    types = get_type_hints(stage_cls)
    return {
        f"{prefix}.{f.name}": (types[f.name], None if f.default is MISSING else f.default)
        for f in fields(stage_cls) if f.name != "seed"
    }


DEFAULT_THRESHOLDS = tuple(round(0.1 * i, 1) for i in range(1, 11))
DEFAULT_HEAD_COUNTS = tuple(range(10, 90, 10))

# key -> (parser, default); None defaults mean "optional, unset"
SCHEMA = {
    "features": (str, None),
    "labels": (str, None),
    "output_dir": (str, None),
    "seed": (_checked(int, lambda v: v >= 0, ">= 0"), 0),
    "threads": (_checked(int, lambda v: v >= 1, ">= 1"), 1),  # ignored; kept so older configs load
    **_stage_keys("synth", SynthSpec),
    "synth.seed": (_checked(int, lambda v: v >= 0, ">= 0"), None),
    "neighbors.theta": (_checked(float, math.isfinite, "finite"), 0.3),
    "neighbors.k_min": (_checked(int, lambda v: v >= 1, ">= 1"), 50),
    "neighbors.file": (str, None),
    "neighbors.ground_truth": (kvtext.parse_bool, False),
    "neighbors.standardized": (kvtext.parse_bool, False),
    **_stage_keys("train", TrainConfig),
    "ensemble.k": (int, None),
    **_stage_keys("selftrain", SelfTrainConfig),
    "ablate.thresholds": (_checked(kvtext.parse_float_list,
                                   lambda v: len(v) > 0 and all(map(math.isfinite, v)),
                                   "a nonempty list of finite floats"), DEFAULT_THRESHOLDS),
    "ablate.head_counts": (_checked(kvtext.parse_int_list,
                                    lambda v: len(v) > 0 and all(h >= 1 for h in v),
                                    "a nonempty list of ints >= 1"), DEFAULT_HEAD_COUNTS),
}


def parse_kv_text(text: str, source: str = "<config>") -> dict:
    """Parse ``key = value`` lines; '#' starts a comment, blanks are skipped."""
    return _parse_config_lines(text.splitlines(), source)


def _parse_config_lines(lines, source: str) -> dict:
    return _parse(source, (line.split("#", 1)[0] for line in lines))


def _parse(source: str, lines) -> dict:
    """``kvtext.parse`` with its refusal of a line, or of the text that
    ``lines`` reads, as a ``ConfigError``."""
    try:
        return kvtext.parse(lines, source)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def resolve(file_entries: dict | None = None, overrides: list | None = None) -> dict:
    """Merge defaults, file entries and --set overrides into typed values."""
    merged = {}
    for source in (file_entries or {}, _parse("--set", overrides or [])):
        for key, value in source.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = value

    out = {}
    for key, (parser, default) in SCHEMA.items():
        if key in merged:
            try:
                out[key] = parser(merged[key])
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from exc
        else:
            out[key] = default
    return out


def config_hash(resolved: dict) -> str:
    """sha256 of the canonical text of a resolved config: one ``key=value``
    line per set key, in key order."""
    text = kvtext.render((k, v) for k, v in sorted(resolved.items()) if v is not None)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PipelineConfig:
    """Typed view of a resolved configuration for the three-stage pipeline."""

    resolved: dict

    def __getitem__(self, key):
        return self.resolved[key]

    def require(self, *keys) -> None:
        missing = [k for k in keys if self[k] is None]
        if missing:
            raise ConfigError(f"missing required config key(s): {', '.join(missing)}")

    def _stage_config(self, prefix: str, stage_cls):
        """Fill a stage dataclass from its ``<prefix>.*`` keys and ``seed``.

        Only a field without a default has an unset key, which is required.
        """
        keys = {f.name: f"{prefix}.{f.name}" for f in fields(stage_cls) if f.name != "seed"}
        self.require(*keys.values())
        try:
            return stage_cls(seed=self["seed"], **{n: self[k] for n, k in keys.items()})
        except ValueError as exc:
            raise ConfigError(f"invalid {prefix} config: {exc}") from exc

    def train_config(self) -> TrainConfig:
        return self._stage_config("train", TrainConfig)

    def ensemble_k(self, n: int) -> int:
        """The consensus cluster count (``ensemble.k``, else ``train.num_clusters``)
        for ``n`` samples."""
        k = self["ensemble.k"]
        if k is None:
            self.require("train.num_clusters")
            k = self["train.num_clusters"]
        if k < 2:
            raise ConfigError("ensemble.k must be >= 2")
        if k > n:
            raise ConfigError(f"ensemble.k={k} exceeds the sample count n={n}")
        return k

    def selftrain_config(self) -> SelfTrainConfig:
        return self._stage_config("selftrain", SelfTrainConfig)

    def synth_spec(self) -> SynthSpec:
        spec = self._stage_config("synth", SynthSpec)
        return spec if self["synth.seed"] is None else replace(spec, seed=self["synth.seed"])

    def hash(self) -> str:
        return config_hash(self.resolved)


def load_pipeline_config(path=None, overrides: list | None = None) -> PipelineConfig:
    entries = {}
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        entries = _parse_config_lines(kvtext.read_lines(path), str(path))
    return PipelineConfig(resolve(entries, overrides))
