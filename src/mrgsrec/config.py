"""Run configuration: a flat JSON document with a content-hash fingerprint.

The keys, defaults and help texts of the model and training settings are
declared on the fields of ``Hyperparams`` (which inherits the encoder's
``SeqEncoderConfig``) and ``LossWeights``; only the three artifact paths are
listed here, each a string or null. Unknown keys are rejected so typos fail
loudly. The fingerprint of the fully resolved config is embedded in every
artifact a run writes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .errors import ParseError
from .losses import LossWeights
from .schema import settings
from .training import Hyperparams

# path key -> description; each value is a string or null (the default)
PATHS = {
    "data": "path to a MRGS-DATA-v1 dataset snapshot",
    "checkpoint": "path to write/read the model checkpoint; mrgsrec train "
                  "writes model.ckpt when neither --out nor this is set",
    "log": "path of the append-only epoch log (JSON lines)",
}
# key -> (default, description)
DEFAULTS: dict[str, tuple] = {
    **{key: (None, help) for key, help in PATHS.items()},
    **{f.metadata["key"]: (f.default, f.metadata["help"])
       for cls in (Hyperparams, LossWeights) for f in settings(cls)},
}


def resolve_config(overrides: dict) -> dict:
    """Apply defaults; reject unknown keys and a path that is not a string
    or null."""
    unknown = set(overrides) - set(DEFAULTS)
    if unknown:
        raise ParseError(f"unknown config keys: {sorted(unknown)}")
    for key in PATHS:
        if not isinstance(overrides.get(key), (str, type(None))):
            raise ParseError(f"{key} must be a string or null, "
                             f"got {overrides[key]!r}")
    resolved = {key: default for key, (default, _) in DEFAULTS.items()}
    resolved.update(overrides)
    return resolved


def load_config(path: str | Path) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: not UTF-8 JSON text ({exc})") from exc
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
