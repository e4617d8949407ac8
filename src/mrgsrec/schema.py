"""Run settings declared once, as dataclass fields.

Each setting field carries its flat JSON config key, its help text and the
rule its value must satisfy; ``mrgsrec.config`` derives the config keys and
defaults from these declarations.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import Field, field, fields
from numbers import Integral, Real

# The test of each kind of bound, by the sign its rule is written with.
BOUND_TESTS = {">=": operator.ge, "<": operator.lt, ">": operator.gt}


def setting(key: str, default, help: str, minimum=None, below=None,
            above=None, choices=None):
    """A dataclass field whose value is the run setting ``key``: at least
    ``minimum``, less than ``below`` and more than ``above`` where given."""
    bounds = tuple((sign, bound) for sign, bound in
                   ((">=", minimum), ("<", below), (">", above))
                   if bound is not None)
    return field(default=default, metadata={
        "key": key, "help": help, "bounds": bounds, "choices": choices})


def settings(cls) -> list[Field]:
    """The fields of ``cls`` (or of an instance) that are run settings."""
    return [f for f in fields(cls) if "key" in f.metadata]


def _kind(default) -> tuple[tuple[type, ...], str]:
    """The types a setting's value may have, by the kind of its default: a
    None default stands for an optional integer."""
    if isinstance(default, bool):
        return (bool,), "true or false"
    if default is None:
        return (Integral, type(None)), "an integer or null"
    if isinstance(default, int):
        return (Integral,), "an integer"
    if isinstance(default, float):
        return (Real,), "a number"
    return (type(default),), f"a {type(default).__name__}"


def check_settings(obj) -> None:
    """Raise ValueError naming the config key of the first setting of ``obj``
    whose value is not of its default's kind (a bool is no number; a number
    is finite and fits a float) or breaks its rule."""
    for f in settings(obj):
        value, rule = getattr(obj, f.name), f.metadata
        types, kind = _kind(f.default)
        if not (isinstance(value, types)
                and isinstance(value, bool) == isinstance(f.default, bool)):
            wanted = kind
        elif (isinstance(f.default, float)
              and not -sys.float_info.max <= value <= sys.float_info.max):
            wanted = "a finite number"
        elif rule["choices"] is not None and value not in rule["choices"]:
            wanted = f"one of {rule['choices']}"
        elif value is not None and (broken := next(
                (f"{sign} {bound}" for sign, bound in rule["bounds"]
                 if not BOUND_TESTS[sign](value, bound)), None)):
            wanted = broken
        else:
            continue
        name = rule["key"] if rule["key"] == f.name else f"{rule['key']} ({f.name})"
        raise ValueError(f"{name} must be {wanted}, got {value!r}")
