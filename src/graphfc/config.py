"""Run configuration: a JSON config file with flag-level overrides.

Precedence is flag > config file > built-in default, applied field by field.
Backend sections are keyed by pipeline role (graph_construction, infilling,
verification, selection); a "default" section fills any missing role.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Optional

from .backend import (
    PURPOSES,
    BackendSuite,
    CostLedger,
    GenPolicy,
    HttpBackend,
    ResponseCache,
    CachedBackend,
    ScriptedBackend,
    load_script,
)
from .graph import DEFAULT_BLANK_TOKEN
from .verdict import DocStrategy

PIPELINE_MODES = ("dp_graphcheck", "graphcheck", "direct")
EVIDENCE_MODES = ("open_book", "open_book_gold")

class ConfigError(ValueError):
    """Raised for unusable configuration (bad values, unresolvable paths)."""


@dataclass
class BackendConfig:
    type: str = "http"  # "http" | "scripted"
    endpoint: str = ""
    model: str = ""
    api_key_env: str = ""
    script: Optional[str] = None
    cache_path: Optional[str] = None
    max_new_tokens: int = 32
    temperature: float = 0.0
    top_p: float = 1.0
    decode_mode: str = "greedy"
    timeout: float = 60.0
    max_attempts: int = 3
    retry_base_delay: float = 1.0


@dataclass
class RunConfig:
    corpus: Optional[str] = None
    index_path: Optional[str] = None
    dataset: Optional[str] = None
    dataset_format: str = "generic"
    k: int = 10
    path_limit: int = 5
    seed: int = 0
    pipeline: str = "dp_graphcheck"
    evidence_mode: str = "open_book"
    direct_strategy: str = "concat"
    graphcheck_strategy: str = "concat_each"
    blank_token: str = DEFAULT_BLANK_TOKEN
    truncation_chars: int = 6000
    include_definitions: bool = True
    workers: int = 1
    report_path: str = "report.json"
    traces_path: str = "traces.jsonl"
    backends: Dict[str, BackendConfig] = field(default_factory=dict)
    prices: Dict[str, tuple] = field(default_factory=dict)

    def validate(self) -> None:
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.path_limit < 1:
            raise ConfigError(f"path_limit must be >= 1, got {self.path_limit}")
        if self.truncation_chars < 1:
            raise ConfigError(f"truncation_chars must be >= 1, got {self.truncation_chars}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.pipeline not in PIPELINE_MODES:
            raise ConfigError(f"pipeline must be one of {PIPELINE_MODES}, got {self.pipeline!r}")
        if self.evidence_mode not in EVIDENCE_MODES:
            raise ConfigError(
                f"evidence_mode must be one of {EVIDENCE_MODES}, got {self.evidence_mode!r}"
            )
        for name in (self.direct_strategy, self.graphcheck_strategy):
            try:
                DocStrategy(name)
            except ValueError:
                raise ConfigError(f"unknown document strategy {name!r}") from None

    def require_path(self, attribute: str) -> str:
        value = getattr(self, attribute)
        if not value:
            raise ConfigError(f"config is missing {attribute!r}")
        if not os.path.exists(value):
            raise ConfigError(f"{attribute} path does not exist: {value}")
        return value


_SIMPLE_FIELDS = (
    "corpus", "index_path", "dataset", "dataset_format", "k", "path_limit",
    "seed", "pipeline", "evidence_mode", "direct_strategy", "graphcheck_strategy",
    "blank_token", "truncation_chars", "include_definitions", "workers",
    "report_path", "traces_path",
)


def _backend_config(raw: dict) -> BackendConfig:
    known = {f for f in BackendConfig.__dataclass_fields__}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown backend config keys: {sorted(unknown)}")
    return BackendConfig(**raw)


def load_config(path: Optional[str], overrides: Optional[dict] = None) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus override values."""
    raw: dict = {}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file does not exist: {path}")
        with open(path, "r", encoding="utf-8") as handle:
            try:
                raw = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    config = RunConfig()
    for name in _SIMPLE_FIELDS:
        if name in raw and raw[name] is not None:
            setattr(config, name, raw[name])
    for role, section in raw.get("backends", {}).items():
        if role != "default" and role not in PURPOSES:
            raise ConfigError(f"unknown backend role {role!r}")
        config.backends[role] = _backend_config(section)
    for model, price in raw.get("prices", {}).items():
        if isinstance(price, dict):
            config.prices[model] = (
                float(price.get("input_per_1k", 0.0)),
                float(price.get("output_per_1k", 0.0)),
            )
        else:
            config.prices[model] = (float(price[0]), float(price[1]))
    for name, value in (overrides or {}).items():
        if value is not None:
            setattr(config, name, value)
    config.validate()
    return config


def _build_one(role: str, section: BackendConfig, ledger: CostLedger, caches: dict):
    if section.type == "scripted":
        if not section.script:
            backend = ScriptedBackend(model=section.model or "scripted", ledger=ledger)
        else:
            if not os.path.exists(section.script):
                raise ConfigError(f"backend {role}: script not found: {section.script}")
            backend = ScriptedBackend(model=section.model or "scripted", ledger=ledger)
            backend._registrations.extend(load_script(section.script))
    elif section.type == "http":
        if not section.endpoint:
            raise ConfigError(f"backend {role}: endpoint is required for type=http")
        api_key = os.environ.get(section.api_key_env, "") if section.api_key_env else ""
        backend = HttpBackend(
            endpoint=section.endpoint,
            model=section.model,
            api_key=api_key,
            timeout=section.timeout,
            max_attempts=section.max_attempts,
            retry_base_delay=section.retry_base_delay,
            ledger=ledger,
        )
    else:
        raise ConfigError(f"backend {role}: unknown type {section.type!r}")
    if section.cache_path:
        if section.cache_path not in caches:
            caches[section.cache_path] = ResponseCache(section.cache_path)
        backend = CachedBackend(backend, caches[section.cache_path], ledger=ledger)
    return backend


def build_backends(config: RunConfig, ledger: CostLedger):
    """Instantiate one backend per pipeline role.

    Returns (BackendSuite, caches) where caches maps cache paths to their
    shared ResponseCache stores.
    """
    caches: Dict[str, ResponseCache] = {}
    built = {}
    policies = {}
    for role in PURPOSES:
        section = config.backends.get(role) or config.backends.get("default")
        if section is None:
            raise ConfigError(f"no backend configured for role {role!r} (and no default)")
        built[role] = _build_one(role, section, ledger, caches)
        max_tokens = section.max_new_tokens
        if role == "graph_construction" and max_tokens == 32:
            max_tokens = 1024  # constructor emits a whole graph, not a short answer
        policies[role] = GenPolicy(
            max_new_tokens=max_tokens,
            temperature=section.temperature,
            top_p=section.top_p,
            decode_mode=section.decode_mode,
        )
    suite = BackendSuite(
        built["graph_construction"],
        built["infilling"],
        built["verification"],
        built["selection"],
        graph_policy=policies["graph_construction"],
        infill_policy=policies["infilling"],
        verify_policy=policies["verification"],
        select_policy=policies["selection"],
    )
    return suite, caches
