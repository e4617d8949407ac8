"""Run settings declared once, as dataclass fields.

Each setting field carries its flat JSON config key, its help text and the
rule its value must satisfy; ``mrgsrec.config`` derives the config keys and
defaults from these declarations.
"""

from __future__ import annotations

from dataclasses import Field, field, fields


def setting(key: str, default, help: str, minimum=None, choices=None):
    """A dataclass field whose value is the run setting ``key``."""
    return field(default=default, metadata={
        "key": key, "help": help, "minimum": minimum, "choices": choices})


def settings(cls) -> list[Field]:
    """The fields of ``cls`` (or of an instance) that are run settings."""
    return [f for f in fields(cls) if "key" in f.metadata]


def check_settings(obj) -> None:
    """Raise ValueError naming the config key of the first setting of ``obj``
    whose value breaks its rule (a value of the wrong type breaks any rule)."""
    for f in settings(obj):
        value, rule = getattr(obj, f.name), f.metadata
        try:
            ok = ((rule["choices"] is None or value in rule["choices"])
                  and (rule["minimum"] is None or value >= rule["minimum"]))
        except TypeError:
            ok = False
        if not ok:
            name = rule["key"] if rule["key"] == f.name else f"{rule['key']} ({f.name})"
            wanted = (f"one of {rule['choices']}" if rule["choices"] is not None
                      else f">= {rule['minimum']}")
            raise ValueError(f"{name} must be {wanted}, got {value!r}")
