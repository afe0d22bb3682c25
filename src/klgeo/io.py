"""Run configuration and bit-exact serialization of results.

Configs are a flat key=value text format (one pair per line, # comments).
Numbers are written with 17 significant digits so that re-parsing a CSV row
reproduces the in-memory value exactly; +inf is the literal lowercase
token "inf" in both CSV and JSON (as a string there, never a bare
non-finite numeric).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import __version__ as LIBRARY_VERSION
from .experiments import DEFAULT_LAMBDA_GRID
from .optimize import TVD_FIT_CONFIG, OptimizerConfig
from .rng import ALGORITHM


class ConfigError(ValueError):
    """Config parse failure, carrying a line/column position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _parse_bool(s: str) -> bool:
    if s in ("true", "false"):
        return s == "true"
    raise ValueError(f"expected true/false, got {s!r}")


def _parse_order(s: str) -> str:
    if s in ("bigram", "full"):
        return s
    raise ValueError(f"expected bigram/full, got {s!r}")


def _parse_int_list(s: str):
    """Distinct comma-separated integers; 'a..b' is an inclusive, non-empty range."""
    out = []
    for part in s.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = (int(x) for x in part.split("..", 1))
            if hi < lo:
                raise ValueError(f"empty range {part!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(part))
    if len(set(out)) != len(out):
        raise ValueError("seeds must be distinct")
    return out


def _parse_float_list(s: str):
    return [float(p) for p in s.split(",")]


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, (list, tuple)):
        return ",".join(_fmt_value(x) for x in v)
    return str(v)


# Per-command schema: key -> (parser, default).  Unknown keys are rejected.
SCHEMAS = {
    "sweep": {
        "seeds": (_parse_int_list, [1]),
        "lambdas": (_parse_float_list, list(DEFAULT_LAMBDA_GRID)),
        "order": (_parse_order, "bigram"),
        "steps": (int, OptimizerConfig().steps),
        "learning_rate": (float, OptimizerConfig().learning_rate),
        "tvd_restarts": (int, TVD_FIT_CONFIG.restarts),
        "tvd_steps": (int, TVD_FIT_CONFIG.steps),
        "warm_start": (_parse_bool, False),
        "plots": (_parse_bool, False),
    },
    "geometry": {
        "plots": (_parse_bool, False),
    },
    "check": {},
}


@dataclass
class RunConfig:
    command: str
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in SCHEMAS:
            raise ValueError(f"unknown command {self.command!r}")
        schema = SCHEMAS[self.command]
        for key in self.values:
            if key not in schema:
                raise ValueError(f"unknown key {key!r} for command {self.command!r}")
        for key, (_, default) in schema.items():
            self.values.setdefault(key, default)

    def __getitem__(self, key):
        return self.values[key]

    def serialize(self) -> str:
        lines = [f"command={self.command}"]
        for key in sorted(self.values):
            lines.append(f"{key}={_fmt_value(self.values[key])}")
        return "\n".join(lines) + "\n"


def parse_config(text: str, command: str) -> RunConfig:
    """Parse the flat key=value format of a config for command; errors carry
    line/column info."""
    has_command = False
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("expected key=value", lineno, 1)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in values or (key == "command" and has_command):
            raise ConfigError(f"duplicate key {key!r}", lineno, 1)
        if key == "command":
            column = raw.index("=") + 2
            if val not in SCHEMAS:
                raise ConfigError(f"unknown command {val!r}", lineno, column)
            if val != command:
                raise ConfigError(f"config is for command {val!r}", lineno, column)
            has_command = True
        else:
            values[key] = (lineno, raw, val)
    if not has_command:
        raise ConfigError("missing 'command' key", 1, 1)
    schema = SCHEMAS[command]
    parsed = {}
    for key, (lineno, raw, val) in values.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r}", lineno, 1)
        parser = schema[key][0]
        try:
            parsed[key] = parser(val)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", lineno,
                              raw.index("=") + 2)
    return RunConfig(command=command, values=parsed)


# ---------------------------------------------------------------------------
# CSV / JSON emission


def fmt_float(x) -> str:
    """Locale-independent decimal with 17 significant digits; 'inf' token
    for +inf.  nan and -inf have none, so they raise ValueError."""
    x = float(x)
    if x == math.inf:
        return "inf"
    if not math.isfinite(x):
        raise ValueError(f"{x!r} has no token in the output formats")
    return format(x, ".17g")


def write_csv(path, header, rows) -> None:
    """Write rows of already-stringified cells with a provenance header."""
    lines = [f"# library_version={LIBRARY_VERSION}", f"# rng_algorithm={ALGORITHM}",
             ",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    """Read back a CSV written by write_csv: (header, rows of strings)."""
    with open(path, encoding="utf-8") as fh:
        lines = [l.rstrip("\n") for l in fh if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [l.split(",") for l in lines[1:] if l]


def _jsonable(obj):
    if isinstance(obj, float):
        return "inf" if obj == float("inf") else obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(path, payload: dict) -> None:
    payload = dict(payload)
    payload.setdefault("provenance", {
        "library_version": LIBRARY_VERSION,
        "rng_algorithm": ALGORITHM,
    })
    # nan and -inf raise ValueError before the file is opened
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
