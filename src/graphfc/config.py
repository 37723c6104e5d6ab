"""Run configuration: a JSON config file with flag-level overrides.

Precedence is flag > config file > built-in default, applied field by field.
Backend sections are keyed by pipeline role (graph_construction, infilling,
verification, selection); a "default" section fills any missing role.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Union, get_args, get_origin, get_type_hints

from .backend import (
    DEFAULT_POLICIES,
    PURPOSES,
    BackendSuite,
    CachedBackend,
    CostLedger,
    GenPolicy,
    HttpBackend,
    ResponseCache,
    ScriptedBackend,
    load_script,
    split_http_url,
)
from .evaluate import DATASET_FORMATS
from .infill import PathBudget
from .verdict import PipelineOptions

EVIDENCE_MODES = ("open_book", "open_book_gold")
BACKEND_TYPES = ("http", "scripted")

_PIPELINE_DEFAULTS = PipelineOptions()


class ConfigError(ValueError):
    """Raised for unusable configuration (bad values, unresolvable paths)."""


@dataclass
class BackendConfig:
    type: str = "http"  # one of BACKEND_TYPES
    endpoint: str = ""
    model: str = ""
    api_key_env: str = ""
    script: Optional[str] = None
    cache_path: Optional[str] = None
    max_new_tokens: Optional[int] = None  # None: the role's default in DEFAULT_POLICIES
    temperature: float = 0.0
    top_p: float = 1.0
    timeout: float = 60.0
    max_attempts: int = 3
    retry_base_delay: float = 1.0

    def policy(self, role: str) -> GenPolicy:
        """The generation rules this section gives ``role``; GenPolicy checks them."""
        default = DEFAULT_POLICIES.get(role, GenPolicy()).max_new_tokens
        tokens = default if self.max_new_tokens is None else self.max_new_tokens
        return GenPolicy(tokens, self.temperature, self.top_p)


@dataclass
class RunConfig:
    corpus: Optional[str] = None
    index_path: Optional[str] = None
    dataset: Optional[str] = None
    dataset_format: str = "generic"
    k: int = _PIPELINE_DEFAULTS.k
    path_limit: int = _PIPELINE_DEFAULTS.budget.limit
    seed: int = _PIPELINE_DEFAULTS.budget.seed
    pipeline: str = _PIPELINE_DEFAULTS.mode
    evidence_mode: str = "open_book"
    direct_strategy: str = _PIPELINE_DEFAULTS.direct_strategy.value
    graphcheck_strategy: str = _PIPELINE_DEFAULTS.graphcheck_strategy.value
    blank_token: str = _PIPELINE_DEFAULTS.blank_token
    truncation_chars: int = _PIPELINE_DEFAULTS.truncation_chars
    include_definitions: bool = _PIPELINE_DEFAULTS.include_definitions
    workers: int = 1
    report_path: str = "report.json"
    traces_path: str = "traces.jsonl"
    backends: Dict[str, BackendConfig] = field(default_factory=dict)
    prices: Dict[str, tuple] = field(default_factory=dict)

    def pipeline_options(self) -> PipelineOptions:
        return PipelineOptions(
            mode=self.pipeline,
            budget=PathBudget(self.path_limit, self.seed),
            k=self.k,
            direct_strategy=self.direct_strategy,
            graphcheck_strategy=self.graphcheck_strategy,
            blank_token=self.blank_token,
            include_definitions=self.include_definitions,
            truncation_chars=self.truncation_chars,
        )

    def validate(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        for name, allowed in (("evidence_mode", EVIDENCE_MODES),
                              ("dataset_format", DATASET_FORMATS)):
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        try:
            self.pipeline_options()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for name in ("index_path", "report_path", "traces_path"):
            check_output_dir(name, getattr(self, name))

    def require_path(self, attribute: str) -> str:
        value = getattr(self, attribute)
        if not value:
            raise ConfigError(f"config is missing {attribute!r}")
        if not os.path.exists(value):
            raise ConfigError(f"{attribute} path does not exist: {value}")
        return value


def check_output_dir(name: str, path: Optional[str]) -> None:
    """Reject a ``path`` in a directory that does not exist, before any work."""
    directory = os.path.dirname(path or "")
    if directory and not os.path.isdir(directory):
        raise ConfigError(f"{name}: directory does not exist: {directory}")


def _scalar_fields(cls) -> Dict[str, type]:
    """Each field of a config dataclass that holds a JSON scalar, with its
    type (``Optional[X]`` counts as ``X``)."""
    found = {}
    for name, hint in get_type_hints(cls).items():
        if get_origin(hint) is Union:
            (hint,) = (arg for arg in get_args(hint) if arg is not type(None))
        if hint in (bool, int, float, str):
            found[name] = hint
    return found


# The config keys a JSON file or a flag sets directly, with their types.
SCALAR_FIELDS = _scalar_fields(RunConfig)
_BACKEND_FIELDS = _scalar_fields(BackendConfig)


def _checked(name: str, value, expected: type):
    """``value`` if JSON decoding gives it type ``expected``; an int passes as
    a float and is returned as one, so that 0 and 0.0 configure alike.  NaN
    and the infinities, which Python's ``json`` reads, are rejected."""
    accepted = (int, float) if expected is float else expected
    if isinstance(value, bool) != (expected is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{name} must be of type {expected.__name__}, got {value!r}")
    if expected is float:
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
        return float(value)
    return value


def _backend_config(role: str, raw: dict) -> BackendConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"backend {role} must be a JSON object, got {raw!r}")
    unknown = set(raw) - set(_BACKEND_FIELDS)
    if unknown:
        raise ConfigError(f"backend {role}: unknown backend config keys: {sorted(unknown)}")
    section = BackendConfig(**{
        name: _checked(f"backend {role}: {name}", value, _BACKEND_FIELDS[name])
        for name, value in raw.items() if value is not None
    })
    try:
        section.policy(role)
    except ValueError as exc:
        raise ConfigError(f"backend {role}: {exc}") from None
    for name, holds, bound in (
        ("max_attempts", section.max_attempts >= 1, ">= 1"),
        ("timeout", section.timeout > 0, "> 0"),
        ("retry_base_delay", section.retry_base_delay >= 0, ">= 0"),
    ):
        if not holds:
            raise ConfigError(
                f"backend {role}: {name} must be {bound}, got {getattr(section, name)}"
            )
    if section.type not in BACKEND_TYPES:
        raise ConfigError(
            f"backend {role}: type must be one of {BACKEND_TYPES}, got {section.type!r}"
        )
    if section.type == "http":
        try:
            split_http_url(section.endpoint)
        except ValueError as exc:
            raise ConfigError(f"backend {role}: {exc}") from None
    check_output_dir(f"backend {role}: cache_path", section.cache_path)
    return section


_PRICE_KEYS = ("input_per_1k", "output_per_1k")


def _price(model: str, price) -> tuple:
    """(input, output) USD per 1k tokens, from an object with ``_PRICE_KEYS``
    (a missing one is free) or a list of two numbers."""
    name = f"prices {model!r}"
    if isinstance(price, dict):
        unknown = set(price) - set(_PRICE_KEYS)
        if unknown:
            raise ConfigError(f"{name}: unknown keys {sorted(unknown)}")
        values = [price.get(key, 0.0) for key in _PRICE_KEYS]
    elif isinstance(price, list) and len(price) == 2:
        values = price
    else:
        raise ConfigError(
            f"{name} must be an object with {' and/or '.join(_PRICE_KEYS)} "
            f"or a list of two numbers, got {price!r}"
        )
    values = tuple(_checked(name, value, float) for value in values)
    for value in values:
        if value < 0:
            raise ConfigError(f"{name}: a price must be >= 0, got {value!r}")
    return values


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
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: the config must be a JSON object")
    unknown = set(raw) - set(SCALAR_FIELDS) - {"backends", "prices"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for name in ("backends", "prices"):
        if not isinstance(raw.get(name, {}), dict):
            raise ConfigError(f"{name} must be a JSON object, got {raw[name]!r}")
    config = RunConfig()
    given = {name: raw[name] for name in SCALAR_FIELDS if raw.get(name) is not None}
    given.update((name, value) for name, value in (overrides or {}).items() if value is not None)
    for name, value in given.items():
        setattr(config, name, _checked(name, value, SCALAR_FIELDS[name]))
    for role, section in raw.get("backends", {}).items():
        if role != "default" and role not in PURPOSES:
            raise ConfigError(f"unknown backend role {role!r}")
        config.backends[role] = _backend_config(role, section)
    for model, price in raw.get("prices", {}).items():
        config.prices[model] = _price(model, price)
    config.validate()
    return config


def _build_one(role: str, section: BackendConfig, ledger: Optional[CostLedger], caches: dict):
    if section.type == "scripted":
        backend = ScriptedBackend(model=section.model or "scripted", ledger=ledger)
        try:
            registrations = load_script(section.script) if section.script else []
        except (OSError, ValueError) as exc:  # no such file, invalid JSON or a malformed entry
            raise ConfigError(f"backend {role}: script {section.script}: {exc}") from exc
        for matcher, answer in registrations:
            backend.register(matcher, answer)
    else:  # "http"; load_config has checked the type and the endpoint
        api_key = os.environ.get(section.api_key_env, "") if section.api_key_env else ""
        try:
            backend = HttpBackend(
                endpoint=section.endpoint,
                model=section.model,
                api_key=api_key,
                timeout=section.timeout,
                max_attempts=section.max_attempts,
                retry_base_delay=section.retry_base_delay,
                ledger=ledger,
            )
        except ValueError as exc:  # a proxy variable that is not a URL with a host
            raise ConfigError(f"backend {role}: {exc}") from None
    if section.cache_path:
        if section.cache_path not in caches:
            caches[section.cache_path] = ResponseCache(section.cache_path)
        backend = CachedBackend(backend, caches[section.cache_path], ledger=ledger)
    return backend


def build_backends(config: RunConfig, ledger: Optional[CostLedger] = None):
    """Instantiate one backend per section, shared by the roles it serves.

    Returns (BackendSuite, caches) where caches maps cache paths to their
    shared ResponseCache stores.
    """
    caches: Dict[str, ResponseCache] = {}
    built = {}  # section name -> its backend
    roles = {}
    policies = {}
    for role in PURPOSES:
        name = role if role in config.backends else "default"
        section = config.backends.get(name)
        if section is None:
            raise ConfigError(f"no backend configured for role {role!r} (and no default)")
        if name not in built:
            built[name] = _build_one(role, section, ledger, caches)
        roles[role] = built[name]
        policies[role] = section.policy(role)
    return BackendSuite(**roles, policies=policies), caches
