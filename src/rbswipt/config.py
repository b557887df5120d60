"""Unit-aware configuration: parsing, validation, presets, serialization.

Config files are sectioned key/value text.  Every dimensioned value carries
an explicit unit suffix (`f1 = -5 mm`, `g0 = 2000 cm^-1`); dimensionless
values are bare numbers.  Parsing normalizes everything to SI base units;
the rest of the package never sees a non-SI number.

A Config is a plain nested dict ``{section: {key: float}}`` addressable by
dotted parameter paths such as ``"geometry.fr2"``.  `SCHEMA` is the one
range table: a value is checked against it once, where it enters a Config
(`parse_config`, `validate_config`, `set_path`, `check_value`), and nothing
downstream checks a range again.  Text a user types enters through
`set_text`, which parses it in its path's unit and calls `set_path`.
"""

from __future__ import annotations

import math

Config = dict[str, dict[str, float]]


class ConfigError(Exception):
    """Malformed or out-of-range configuration input."""


# the error of a config naming both keys of the pair, or neither
_ONE_OF_F2_OR_M = (
    "geometry must define exactly one of f2 or tim_magnification")


# unit name -> factor to the SI base unit, grouped by dimension kind
_UNIT_TABLES = {
    "length": {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "nm": 1e-9},
    "inv_length": {"m^-1": 1.0, "cm^-1": 1e2},
    "inv_volume": {"m^-3": 1.0, "cm^-3": 1e6},
    "inv_time": {"s^-1": 1.0, "ms^-1": 1e3, "us^-1": 1e6, "ns^-1": 1e9},
    "vol_rate": {"m^3/s": 1.0, "cm^3/s": 1e-6},
    "vol2_rate": {"m^6/s": 1.0, "cm^6/s": 1e-12},
    "area": {"m^2": 1.0, "cm^2": 1e-4, "mm^2": 1e-6, "um^2": 1e-12},
    "power": {"W": 1.0, "mW": 1e-3, "kW": 1e3},
    "current": {"A": 1.0, "mA": 1e-3, "uA": 1e-6},
    "frequency": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9},
    "resistance": {"Ohm": 1.0, "kOhm": 1e3, "MOhm": 1e6},
    "temperature": {"K": 1.0},
    "responsivity": {"A/W": 1.0},
    "dimensionless": {},
}

# canonical unit emitted on serialization, per kind: the factor-1 unit
_CANONICAL_UNIT = {
    kind: next((u for u, f in table.items() if f == 1.0), "")
    for kind, table in _UNIT_TABLES.items()
}


# range text -> check of a value; a SCHEMA entry names its range by the
# text, which check_value reports when the check fails
_RANGES = {
    "finite > 0": lambda v: v > 0 and math.isfinite(v),
    "finite >= 0": lambda v: v >= 0 and math.isfinite(v),
    "in (0, 1]": lambda v: 0 < v <= 1,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "finite, nonzero": lambda v: v != 0 and math.isfinite(v),
    "finite": math.isfinite,
    "> 0 or inf": lambda v: v > 0,
    "1 or 2": lambda v: v in (1.0, 2.0),
}

# section -> key -> (kind, optional?, range text: a key of _RANGES)
SCHEMA = {
    "geometry": {
        "d1": ("length", False, "finite > 0"),
        "d2": ("length", False, "finite > 0"),
        "d3": ("length", False, "finite > 0"),
        "lt": ("length", True, "finite"),
        "f1": ("length", False, "finite, nonzero"),
        "f2": ("length", True, "finite, nonzero"),
        "tim_magnification": ("dimensionless", True, "finite > 0"),
        "fr1": ("length", True, "> 0 or inf"),
        "fr2": ("length", True, "> 0 or inf"),
        "r1": ("dimensionless", False, "in (0, 1]"),
        "r2": ("dimensionless", False, "in (0, 1]"),
        "lambda_beam": ("length", False, "finite > 0"),
    },
    "gain": {
        # small-signal gain coefficient
        "g0": ("inv_length", False, "finite > 0"),
        # transparency carrier density
        "n0": ("inv_volume", False, "finite > 0"),
        # longitudinal confinement factor; the tabulated value 2.0 is used
        # as-is even though confinement factors are conventionally <= 1
        "gamma_conf": ("dimensionless", False, "finite > 0"),
        # defect, radiative and Auger recombination coefficients
        "alpha": ("inv_time", False, "finite > 0"),
        "beta": ("vol_rate", False, "finite > 0"),
        "auger": ("vol2_rate", False, "finite > 0"),
        # effective gain layer thickness
        "l": ("length", False, "finite > 0"),
        # effective active cross-section
        "a_s": ("area", False, "finite > 0"),
        # gain medium radius, the aperture of diffraction survival
        "a": ("length", False, "finite > 0"),
    },
    "pump": {
        # pump conversion and absorption efficiencies, and pump wavelength
        "eta_pc": ("dimensionless", False, "in (0, 1]"),
        "eta_pa": ("dimensionless", False, "in (0, 1]"),
        "lambda_pump": ("length", False, "finite > 0"),
    },
    "losses": {
        "vc": ("dimensionless", False, "in (0, 1]"),
        "slope_loss_exponent": ("dimensionless", True, "1 or 2"),
    },
    "receiver": {
        # fraction of the beam routed to the PV converter
        "mu": ("dimensionless", False, "in [0, 1]"),
        # PV linear-fit slope efficiency and intercept (typically negative)
        "eta_p": ("dimensionless", False, "finite > 0"),
        "p_pth": ("power", False, "finite"),
        # APD responsivity
        "nu": ("responsivity", False, "finite > 0"),
        # APD noise: bandwidth, background current, load resistance and
        # background temperature
        "b_x": ("frequency", False, "finite > 0"),
        "i_bg": ("current", False, "finite >= 0"),
        "r_l": ("resistance", False, "finite > 0"),
        "t_bg": ("temperature", False, "finite > 0"),
    },
    "link": {
        "p_in": ("power", False, "finite >= 0"),
    },
}


def parse_quantity(text: str, kind: str) -> float:
    """Parse '2000 cm^-1' / '-5 mm' / '0.999' to an SI float.

    Dimensioned kinds require a unit suffix; dimensionless values must not
    carry one.  A unit directly appended to the number ('150W') is accepted.
    """
    text = text.strip()
    table = _UNIT_TABLES[kind]
    parts = text.split()
    if len(parts) == 1 and table:
        # allow '150W' by splitting the trailing unit off the number
        for unit in sorted(table, key=len, reverse=True):
            if text.endswith(unit):
                head = text[: -len(unit)].strip()
                if head:
                    parts = [head, unit]
                break
    if kind == "dimensionless":
        if len(parts) != 1:
            raise ConfigError(f"dimensionless value must be bare, got {text!r}")
        return _parse_number(parts[0])
    if len(parts) != 2:
        raise ConfigError(
            f"expected '<number> <unit>' with unit in {sorted(table)}, got {text!r}")
    value, unit = parts
    if unit not in table:
        raise ConfigError(f"unknown unit {unit!r}; expected one of {sorted(table)}")
    return _parse_number(value) * table[unit]


def _parse_number(s: str) -> float:
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"invalid number {s!r}") from None


def parse_config(text: str, base: Config | None = None) -> Config:
    """Parse sectioned unit-suffixed text into an SI-normalized Config.

    Keys missing from the text are filled from `base` (a preset); unknown
    sections or keys are rejected with the offending line number.  Each
    value is set with set_text, so a key of the exclusive pair f2 /
    tim_magnification drops the other from `base`; naming both is an error.
    """
    cfg: Config = copy_config(base) if base is not None else {}
    section, named = None, set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            cfg.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = (p.strip() for p in line.split("=", 1))
        if key not in SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {section}.{key}")
        named.add(key)
        try:
            set_text(cfg, f"{section}.{key}", value)
        except ConfigError as e:
            raise ConfigError(f"line {lineno}: {e}") from None
    if {"f2", "tim_magnification"} <= named:
        raise ConfigError(_ONE_OF_F2_OR_M)
    validate_config(cfg)
    return cfg


def validate_config(cfg: Config) -> None:
    """Check completeness, ranges, and the f2/tim_magnification exclusivity.
    Each value goes to its range's check directly, and to check_value, which
    words the error, only when it fails."""
    for section, keys in SCHEMA.items():
        if section not in cfg:
            raise ConfigError(f"missing section [{section}]")
        values = cfg[section]
        for key, (_, optional, bounds) in keys.items():
            if key in values:
                if not _RANGES[bounds](values[key]):
                    check_value(f"{section}.{key}", values[key])
            elif not optional:
                raise ConfigError(f"missing key {section}.{key}")
        for key in values:
            if key not in keys:
                raise ConfigError(f"unknown key {section}.{key}")
    geo = cfg["geometry"]
    if ("f2" in geo) == ("tim_magnification" in geo):
        raise ConfigError(_ONE_OF_F2_OR_M)


def serialize_config(cfg: Config) -> str:
    """Canonical text form: SI base units, full-precision floats, keys in
    schema order.  parse(serialize(cfg)) == cfg."""
    lines = []
    for section in SCHEMA:
        lines.append(f"[{section}]")
        for key in SCHEMA[section]:
            if key not in cfg.get(section, {}):
                continue
            kind = SCHEMA[section][key][0]
            unit = _CANONICAL_UNIT[kind]
            value = repr(cfg[section][key])
            lines.append(f"{key} = {value} {unit}".rstrip())
        lines.append("")
    return "\n".join(lines)


def config_digest(cfg: Config) -> str:
    """Stable hex digest of the resolved configuration."""
    import hashlib      # imported here: only curve files carry a digest
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]


def copy_config(cfg: Config) -> Config:
    """Complete copy of a Config: its values are floats, so two levels."""
    return {section: dict(keys) for section, keys in cfg.items()}


def schema_entry(path: str) -> tuple:
    """SCHEMA entry (kind, optional?, range text) of a dotted parameter
    path."""
    section, _, key = path.partition(".")
    try:
        return SCHEMA[section][key]
    except KeyError:
        raise ConfigError(f"unknown parameter path {path!r}") from None


def check_value(path: str, *values: float) -> None:
    """Raise ConfigError, naming the first value out of range, unless every
    value lies in the SCHEMA range of the dotted parameter path; the range
    is looked up once, so a grid axis is checked in one call."""
    bounds = schema_entry(path)[2]
    inside = _RANGES[bounds]
    for value in values:
        if not inside(value):
            raise ConfigError(f"{path} = {value} out of range ({bounds})")


def path_unit(path: str) -> str:
    """Canonical unit of a dotted parameter path ('' if dimensionless)."""
    return _CANONICAL_UNIT[schema_entry(path)[0]]


def resolve_path(cfg: Config, path: str) -> tuple[str, str]:
    """(section, key) of a dotted path checked against SCHEMA, after removing
    from cfg the key that setting it excludes (f2 or tim_magnification)."""
    schema_entry(path)
    section, _, key = path.partition(".")
    if key == "tim_magnification":
        cfg[section].pop("f2", None)
    elif key == "f2":
        cfg[section].pop("tim_magnification", None)
    return section, key


def set_path(cfg: Config, path: str, value: float) -> None:
    """Set one parameter, after checking value with check_value."""
    check_value(path, value)
    section, key = resolve_path(cfg, path)
    cfg[section][key] = value


def set_text(cfg: Config, path: str, text: str) -> None:
    """Parse text in the unit kind of the dotted path and set it with
    set_path; a parse error is prefixed with the path."""
    kind = schema_entry(path)[0]
    try:
        value = parse_quantity(text, kind)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None
    set_path(cfg, path, value)


# ---------------------------------------------------------------------------
# presets

def _paper_2022() -> Config:
    """Default scenario: 10 m link, compressing telescope, GaAsP gain.

    Geometry follows the published setup (d1 = d2 = 20 mm, f1 = -5 mm,
    ideal retro-reflector at M1, 980 nm).  The M2 curvature factor and the
    telescope magnification are not stated there; fr2 = 18 m with
    magnification 12 keeps the cavity stable over the whole 2-10 m distance
    range while compressing the spot to ~0.1 mm.  r2 = 0.90 and l = 3 um
    are the documented reproduction choices for the power operating point.
    """
    return {
        "geometry": {
            "d1": 20e-3, "d2": 20e-3, "d3": 10.0,
            "f1": -5e-3, "tim_magnification": 12.0,
            "fr1": math.inf, "fr2": 18.0,
            "r1": 0.999, "r2": 0.90, "lambda_beam": 980e-9,
        },
        "gain": {
            "g0": 2e5,            # 2000 cm^-1
            "n0": 1.7e24,         # 1.7e18 cm^-3
            "gamma_conf": 2.0,    # tabulated as-is (conventionally <= 1)
            "alpha": 1e7,
            "beta": 1e-16,        # 1e-10 cm^3/s
            "auger": 6e-42,       # 6e-30 cm^6/s
            "l": 3e-6,
            "a_s": 3e-8,          # 3e-4 cm^2
            "a": 0.2e-3,
        },
        "pump": {"eta_pc": 0.6, "eta_pa": 0.85, "lambda_pump": 808e-9},
        "losses": {"vc": 0.99, "slope_loss_exponent": 1.0},
        "receiver": {
            "mu": 0.99, "eta_p": 0.3487, "p_pth": -1.535,
            "nu": 0.6, "b_x": 811.7e6, "i_bg": 5100e-6,
            "r_l": 10e3, "t_bg": 300.0,
        },
        "link": {"p_in": 100.0},
    }


def get_preset(name: str) -> Config:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name]()


PRESETS = {
    "paper-2022": _paper_2022,
}
