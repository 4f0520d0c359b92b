"""Key-value config files for sweeps and single-point runs.

Grammar, one statement per line (``#`` starts a comment):

    base.<param> = <number> [* omega_m1]
    axes.<param> = linspace(<a>, <b>, <n>) [* omega_m1]
    axes.<param> = list(<v1>, <v2>, ...) [* omega_m1]

``<param>`` is any SystemParams field name. ``detuning`` and
``coulomb_lambda`` additionally accept an ``_in_omega_m`` spelling
whose values are multiples of ``omega_m1``. Giving both spellings of
one parameter in a section, repeating a key, or combining the
``_in_omega_m`` spelling with an explicit ``* omega_m1`` factor is a
ConfigError, reported for the first faulty line. Scaling always
resolves against the base ``omega_m1`` (file value or default), even
when ``omega_m1`` itself is swept. Parameters present in both sections
take the axis value at every grid point. A ``name=value`` override is
a ``base.`` statement without its prefix, and goes through the same
statement parser and resolver as a file line.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np

from .errors import ConfigError
from .params import PARAM_NAMES, SystemParams

__all__ = [
    "PARAM_NAMES",
    "MAX_GRID_POINTS",
    "SCALED_ALIASES",
    "parse_config",
    "load_config",
    "parse_override",
    "apply_overrides",
]

# largest linspace count and largest grid (product of axis lengths)
# accepted; the biggest built-in dataset, fig3, has 2,406 points
MAX_GRID_POINTS = 1_000_000
# convenience spellings: values are multiples of the base omega_m1
SCALED_ALIASES = {
    "detuning_in_omega_m": "detuning",
    "coulomb_lambda_in_omega_m": "coulomb_lambda",
}

_FLOAT = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_NUM_RE = re.compile(rf"^{_FLOAT}$")
_SCALE_RE = re.compile(r"^(.*?)\s*\*\s*omega_m1$")
_LINSPACE_RE = re.compile(
    rf"^linspace\(\s*({_FLOAT})\s*,\s*({_FLOAT})\s*,\s*(\d+)\s*\)$"
)
_LIST_RE = re.compile(r"^list\((.*)\)$")


def _fail(lineno: int | None, message: str) -> ConfigError:
    where = f"line {lineno}: " if lineno is not None else ""
    return ConfigError(where + message)


def _parse_values(value: str, section: str, lineno: int | None):
    """(values tuple, wants-omega-scale flag) for a raw value string."""
    scaled = False
    m = _SCALE_RE.match(value)
    if m:
        scaled = True
        value = m.group(1).strip()
    if _NUM_RE.match(value):
        if section == "axes":
            raise _fail(lineno, "axes values must be linspace(...) or list(...)")
        return (float(value),), scaled
    m = _LINSPACE_RE.match(value)
    if m:
        if section == "base":
            raise _fail(lineno, "base values must be single numbers")
        # float() takes any digit string; int() refuses past 4300 digits
        count = float(m.group(3))
        if count < 1:
            raise _fail(lineno, "linspace needs at least one point")
        if count > MAX_GRID_POINTS:
            raise _fail(lineno, f"linspace count {m.group(3)} exceeds the "
                                f"grid cap of {MAX_GRID_POINTS} points")
        grid = np.linspace(float(m.group(1)), float(m.group(2)), int(count))
        return tuple(float(v) for v in grid), scaled
    m = _LIST_RE.match(value)
    if m:
        if section == "base":
            raise _fail(lineno, "base values must be single numbers")
        items = [s.strip() for s in m.group(1).split(",")]
        if items == [""]:
            raise _fail(lineno, "list(...) must not be empty")
        for item in items:
            if not _NUM_RE.match(item):
                raise _fail(lineno, f"bad number {item!r} in list(...)")
        return tuple(float(v) for v in items), scaled
    raise _fail(lineno, f"cannot parse value {value!r}")


def _statement(key: str, value: str, lineno: int | None = None,
               section: str | None = None):
    """(section, canonical name, values, scaled) for one ``key = value``.

    ``key`` carries its ``base.``/``axes.`` prefix unless ``section``
    is given; ``scaled`` marks values that are multiples of omega_m1.
    """
    if not value:
        raise _fail(lineno, f"empty value for {key!r}")
    name = key
    if section is None:
        if "." not in key:
            raise _fail(lineno, f"key {key!r} needs a base. or axes. prefix")
        section, _, name = key.partition(".")
        if section not in ("base", "axes"):
            raise _fail(lineno, f"unknown section {section!r} (expected base or axes)")
    canonical = SCALED_ALIASES.get(name, name)
    if canonical not in PARAM_NAMES:
        raise _fail(lineno, f"unknown parameter {name!r}")
    values, scaled = _parse_values(value, section, lineno)
    alias = name in SCALED_ALIASES
    if alias and scaled:
        raise _fail(lineno, f"{key!r} is already a multiple of omega_m1")
    if scaled and canonical == "omega_m1":
        raise _fail(lineno, "omega_m1 cannot be scaled by itself")
    return section, canonical, values, alias or scaled


def _resolve(base: SystemParams, settings: dict, invalid: str):
    """(SystemParams, axes) from {(section, name): (values, scaled)}.

    Scaled values resolve against the settings' base omega_m1, else
    ``base.omega_m1``; base settings replace fields of ``base``.
    """
    omega = settings.get(("base", "omega_m1"))
    omega_scale = omega[0][0] if omega else base.omega_m1
    kwargs: dict[str, float] = {}
    axes: list[tuple[str, tuple[float, ...]]] = []
    for (section, name), (values, scaled) in settings.items():
        if scaled:
            values = tuple(v * omega_scale for v in values)
        if section == "base":
            kwargs[name] = values[0]
        else:
            axes.append((name, values))
    try:
        return dataclasses.replace(base, **kwargs), axes
    except ValueError as exc:
        raise ConfigError(f"{invalid}: {exc}") from exc


def parse_config(text: str):
    """Parse config text into (base SystemParams, ordered axes list).

    Axes come back as [(parameter-name, value-tuple), ...] in file
    order. Raises ConfigError for the first line that breaks the
    grammar or the schema; SystemParams validation failures surface as
    ConfigError too.
    """
    settings = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _fail(lineno, f"expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        section, name, values, scaled = _statement(key.strip(), value.strip(), lineno)
        if (section, name) in settings:
            raise _fail(lineno, f"duplicate setting of {section}.{name}")
        settings[section, name] = (values, scaled)
    return _resolve(SystemParams(), settings, "invalid base parameters")


def load_config(path):
    """Read and parse a config file; I/O errors propagate as OSError."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_config(text)


def parse_override(spec: str):
    """Parse one ``name=value`` override into (canonical-name, value, scaled).

    ``name = value`` is a ``base.`` statement without its prefix: a
    single number, optionally ``* omega_m1`` scaled or using the
    ``_in_omega_m`` spelling; scaling is resolved later against the
    parameters being overridden.
    """
    if "=" not in spec:
        raise ConfigError(f"override {spec!r} must look like name=value")
    key, _, value = spec.partition("=")
    _, name, values, scaled = _statement(key.strip(), value.strip(), section="base")
    return name, values[0], scaled


def apply_overrides(base: SystemParams, specs) -> SystemParams:
    """Apply ``name=value`` overrides to a SystemParams instance.

    For repeats of one name the last wins; scaled values resolve
    against the final omega_m1.
    """
    settings = {("base", name): ((value,), scaled)
                for name, value, scaled in map(parse_override, specs)}
    return _resolve(base, settings, "invalid parameters after overrides")[0]
