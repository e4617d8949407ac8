"""Run configuration: a flat JSON document with a content-hash fingerprint.

The keys, defaults and help texts of the model and training settings are
declared on the fields of ``Hyperparams`` (which inherits the encoder's
``SeqEncoderConfig``) and ``LossWeights``; only the three artifact paths are
listed here. Unknown keys are rejected so typos fail loudly. The
fingerprint of the fully resolved config is embedded in every artifact a
run writes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .errors import ParseError
from .losses import LossWeights
from .schema import settings
from .training import Hyperparams

# key -> (default, description)
DEFAULTS: dict[str, tuple] = {
    "data": (None, "path to a MRGS-DATA-v1 dataset snapshot"),
    "checkpoint": (None, "path to write/read the model checkpoint"),
    "log": (None, "path of the append-only epoch log (JSON lines)"),
    **{f.metadata["key"]: (f.default, f.metadata["help"])
       for cls in (Hyperparams, LossWeights) for f in settings(cls)},
}


def resolve_config(overrides: dict) -> dict:
    """Apply defaults and reject unknown keys."""
    unknown = set(overrides) - set(DEFAULTS)
    if unknown:
        raise ParseError(f"unknown config keys: {sorted(unknown)}")
    resolved = {key: default for key, (default, _) in DEFAULTS.items()}
    resolved.update(overrides)
    return resolved


def load_config(path: str | Path) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    return resolve_config(raw)


def fingerprint(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def to_hyperparams(config: dict) -> Hyperparams:
    """Build the run's settings from a resolved config; a value that breaks
    its setting's rule raises ParseError naming the key."""
    def values(cls) -> dict:
        return {f.name: config[f.metadata["key"]] for f in settings(cls)}

    try:
        return Hyperparams(**values(Hyperparams),
                           weights=LossWeights(**values(LossWeights)))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"invalid config value: {exc}") from exc
