"""Flat key=value experiment configuration.

The config file is INI-style text with sections [mixture], [data], [train],
[cluster], [sample], [metrics].  Mixture components are listed as

    component_0 = weight mx my std class_id submode_id

Every other section is a dataclass field of ExperimentConfig: its fields
declare the section's keys, their types and their defaults, and that one
declaration drives parsing, emission and CLI overrides; a section or key it
does not declare is rejected.  CLI flags override individual keys.
parse/emit round-trips are semantically identical (same key set, same
values).
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields
from typing import get_type_hints

from .clustering import LABELINGS
from .metrics import KNN_K
from .mixture import MixtureComponent, MixtureSpec, toy_spec
from .objectives import TrainConfig
from .sampler import SampleConfig


class ConfigError(ValueError):
    pass


@dataclass
class DataConfig:
    n_train: int = 20000

    def __post_init__(self):
        if self.n_train < 1:
            raise ValueError("n_train must be >= 1")


@dataclass
class ClusterConfig:
    k: int = 2
    labels: str = "kmeans"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.labels not in LABELINGS:
            raise ValueError(f"labels {self.labels!r} is not in {LABELINGS}")


@dataclass
class MetricsConfig:
    coverage_tau: float = 0.5
    n_real: int = 10000

    def __post_init__(self):
        if not 0.0 <= self.coverage_tau < math.inf:  # NaN fails too
            raise ValueError("coverage_tau must be finite and >= 0")
        if self.n_real <= KNN_K:
            raise ValueError(f"n_real must exceed the kNN k ({KNN_K})")


@dataclass
class ExperimentConfig:
    mixture: MixtureSpec = field(default_factory=toy_spec)
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    sample: SampleConfig = field(default_factory=SampleConfig)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)


_FROM_TEXT = {int: int, float: float, str: str}
_TO_TEXT = {int: str, float: repr, str: str}


def _declared(cls) -> dict[str, type]:
    """Field name -> declared type of a dataclass, in declaration order."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


# section name -> (dataclass, key -> type); [mixture] also lists components
SECTIONS = {name: (cls, _declared(cls))
            for name, cls in _declared(ExperimentConfig).items()
            if name != "mixture"}
_MIXTURE_KEYS = {"source_std": _declared(MixtureSpec)["source_std"]}


def key_parser(key: str):
    """Text-to-value conversion for a 'section.key' name."""
    section, name = key.split(".")
    return _FROM_TEXT[SECTIONS[section][1][name]]


def _parse_component(raw: str, key: str) -> MixtureComponent:
    parts = raw.replace(",", " ").split()
    if len(parts) != 6:
        raise ConfigError(f"[mixture] {key}: expected 'weight mx my std "
                          f"class_id submode_id', got {raw!r}")
    try:
        weight, mx, my, std = (float(p) for p in parts[:4])
        class_id, submode_id = int(parts[4]), int(parts[5])
        return MixtureComponent(weight, (mx, my), std, class_id, submode_id)
    except ValueError as exc:
        raise ConfigError(f"[mixture] {key}: {exc}") from exc


def _reject_unknown(parser, section: str, known) -> None:
    if parser.has_section(section):
        for key in parser.options(section):
            if key not in known:
                raise ConfigError(f"[{section}] unknown key {key!r}")


def _read(parser, section: str, kinds: dict[str, type]) -> dict:
    values = {}
    for key, kind in kinds.items():
        if parser.has_option(section, key):
            try:
                values[key] = _FROM_TEXT[kind](parser.get(section, key))
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
    return values


def _build(section: str, make, **values):
    try:
        return make(**values)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _parse_mixture(parser) -> MixtureSpec:
    comps = []
    while parser.has_option("mixture", f"component_{len(comps)}"):
        key = f"component_{len(comps)}"
        comps.append(_parse_component(parser.get("mixture", key), key))
    # components are numbered from 0 without gaps; anything else is unknown
    _reject_unknown(parser, "mixture", {
        *_MIXTURE_KEYS, *(f"component_{i}" for i in range(len(comps)))})
    options = _read(parser, "mixture", _MIXTURE_KEYS)
    if not comps:
        return _build("mixture", toy_spec, **options)
    return _build("mixture", MixtureSpec, components=tuple(comps), **options)


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError(f"line {exc.lineno}: no [section] header") from exc
    except configparser.ParsingError as exc:
        raise ConfigError(f"line {exc.errors[0][0]}: cannot parse "
                          f"{exc.errors[0][1]}") from exc
    except configparser.Error as exc:  # without configparser's '<string>'
        raise ConfigError(f"line {exc.lineno}: "
                          f"{exc.message.partition(': ')[2]}") from exc
    if parser.defaults():
        raise ConfigError("unknown section [DEFAULT]")
    for name in parser.sections():
        if name != "mixture" and name not in SECTIONS:
            raise ConfigError(f"unknown section [{name}]")
    for name, (_, kinds) in SECTIONS.items():
        _reject_unknown(parser, name, kinds)
    sections = {name: _build(name, cls, **_read(parser, name, kinds))
                for name, (cls, kinds) in SECTIONS.items()}
    return ExperimentConfig(mixture=_parse_mixture(parser), **sections)


def validate(cfg: ExperimentConfig) -> None:
    """Re-run every section's checks, e.g. after keys were overridden."""
    for f in fields(cfg):
        _build(f.name, getattr(cfg, f.name).__post_init__)


def load_config(path) -> ExperimentConfig:
    """An error in the file's contents is a ConfigError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config(fh.read())
    except IsADirectoryError as exc:  # exit 1, as a missing file does
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def emit_config(cfg: ExperimentConfig) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    parser["mixture"] = {key: _TO_TEXT[kind](getattr(cfg.mixture, key))
                         for key, kind in _MIXTURE_KEYS.items()}
    for i, c in enumerate(cfg.mixture.components):
        parser["mixture"][f"component_{i}"] = (
            f"{c.weight!r} {c.mean[0]!r} {c.mean[1]!r} {c.std!r} "
            f"{c.class_id} {c.submode_id}")
    for name, (_, kinds) in SECTIONS.items():
        section = getattr(cfg, name)
        parser[name] = {key: _TO_TEXT[kind](getattr(section, key))
                        for key, kind in kinds.items()}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
