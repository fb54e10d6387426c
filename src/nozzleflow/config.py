"""Plain-text scenario configuration.

Sections of ``key = value`` lines; ``#`` starts a comment.  Every key is
schema-checked and every rejection carries the offending line.  Analytic data
(z0, w0 and, for P2, zB, wB) are expressions in the built-in grammar.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, ExpressionError, NozzleflowError
from .expressions import parse_expression
from .model import GasLaw
from .region import (RegionSpec, exp_profile, find_constants, power_profile,
                     tabulated_profile, zero_profile)
from .solver import KIND_FOR, Scenario

_SCHEMA = {
    "problem": {"kind", "gamma", "T", "x_interest"},
    "profile": {"family", "amp", "rate", "decay", "margin", "k1", "k2",
                "alpha", "M", "table", "tail_bound"},
    "region": {"constants", "L1", "L2", "U1", "U2"},
    "data": {"z0", "w0", "zB", "wB", "delta1", "delta2"},
    "solver": {"n", "cfl", "order"},
    "monitors": {"csv_stride"},
}


@dataclass
class ScenarioConfig:
    """Parsed key/value table with line anchors and the original text."""

    entries: dict
    lines: dict
    text: str
    source: str = "<config>"
    base_dir: Path = field(default_factory=Path)

    def _line(self, section, key):
        return self.lines.get((section, key))

    def raw(self, section, key, default=None, required=False):
        if (section, key) in self.entries:
            return self.entries[(section, key)]
        if required:
            raise ConfigError(f"missing required key [{section}] {key}", self.source)
        return default

    def number(self, section, key, default=None, required=False, integer=False):
        raw = self.raw(section, key, required=required)
        if raw is None:
            return default
        try:
            value = int(raw) if integer else float(raw)
            ok = integer or math.isfinite(value)
        except ValueError:
            ok = False
        if not ok:
            kind = "an integer" if integer else "a finite number"
            raise ConfigError(f"[{section}] {key} must be {kind}, got {raw!r}",
                              self.source, self._line(section, key))
        return value

    def expr(self, section, key, allowed, required=False):
        raw = self.raw(section, key, required=required)
        if raw is None:
            return None
        try:
            e = parse_expression(raw)
        except ExpressionError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}", self.source,
                              self._line(section, key)) from None
        extra = e.uses - set(allowed)
        if extra:
            raise ConfigError(
                f"[{section}] {key} may only use {sorted(allowed)}, uses {sorted(extra)}",
                self.source, self._line(section, key))
        return e

    def _fail(self, section, key, message):
        raise ConfigError(message, self.source, self._line(section, key))

    # -- assembly ----------------------------------------------------------

    def to_scenario(self) -> Scenario:
        problem = self.raw("problem", "kind", required=True)
        if problem not in KIND_FOR:
            self._fail("problem", "kind", f"kind must be P1, P2 or P3, got {problem!r}")
        try:
            law = GasLaw.from_gamma(self.raw("problem", "gamma", required=True))
        except DomainError as exc:
            raise ConfigError(str(exc), self.source, self._line("problem", "gamma")) from None
        profile = self._build_profile(law)
        region = self._build_region(law, profile, KIND_FOR[problem])

        z0 = self.expr("data", "z0", {"x"}, required=True)
        w0 = self.expr("data", "w0", {"x"}, required=True)
        zB = self.expr("data", "zB", {"t"}, required=(problem == "P2"))
        wB = self.expr("data", "wB", {"t"}, required=(problem == "P2"))

        try:
            scn = Scenario(
                problem=problem,
                law=law,
                profile=profile,
                region=region,
                z0=lambda x, e=z0: e(x=x),
                w0=lambda x, e=w0: e(x=x),
                zB=(lambda t, e=zB: e(t=t)) if zB is not None else None,
                wB=(lambda t, e=wB: e(t=t)) if wB is not None else None,
                T=self.number("problem", "T", default=1.0),
                n=self.number("solver", "n", default=400, integer=True),
                x_interest=self.number("problem", "x_interest", default=1.0),
                cfl=self.number("solver", "cfl", default=0.9),
                order=self.number("solver", "order", default=2, integer=True),
                delta1=self.number("data", "delta1", required=True),
                delta2=self.number("data", "delta2", required=True),
                csv_stride=self.number("monitors", "csv_stride", default=50,
                                       integer=True),
                config_text=self.text,
            )
            cells = scn.window_cells
        except DomainError as exc:
            raise ConfigError(str(exc), self.source) from None
        # The launch fan starts past the wall band, 1.5 cells from the wall,
        # and ends inside the reporting window.
        if cells < 2:
            self._fail("solver", "n",
                       f"n = {scn.n} leaves {cells} cell(s) in the reporting window "
                       f"[0, {scn.x_interest:g}]; the launch fan needs at least 2")
        if problem == "P3" and scn.n < 3:
            self._fail("solver", "n", f"n = {scn.n}: the P3 outflow ghosts "
                                      "extrapolate from the first 3 cells")
        return scn

    def _build_profile(self, law):
        family = self.raw("profile", "family", default="zero")
        common = dict(
            k1=self.number("profile", "k1", default=1.0),
            k2=self.number("profile", "k2", default=1.0),
            alpha=self.number("profile", "alpha", default=1.0),
            M=self.number("profile", "M", default=1.0),
        )
        margin = self.number("profile", "margin", default=1.05)
        try:
            if family == "power":
                return power_profile(
                    self.number("profile", "amp", required=True),
                    self.number("profile", "rate", required=True),
                    self.number("profile", "decay", required=True),
                    law, margin=margin, **common)
            if family == "exp":
                return exp_profile(
                    self.number("profile", "amp", required=True),
                    self.number("profile", "rate", required=True),
                    law, margin=margin, **common)
            if family == "zero":
                return zero_profile(**common)
            if family == "table":
                rel = self.raw("profile", "table", required=True)
                path = self.base_dir / rel
                if not path.exists():
                    self._fail("profile", "table", f"table file not found: {path}")
                data = np.loadtxt(path)
                return tabulated_profile(
                    data[:, 0], data[:, 1], law, margin=margin,
                    tail_bound=self.number("profile", "tail_bound"), **common)
        except NozzleflowError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(str(exc), self.source,
                              self._line("profile", "family")) from None
        self._fail("profile", "family",
                   f"family must be power, exp, zero or table, got {family!r}")

    def _build_region(self, law, profile, kind):
        mode = self.raw("region", "constants", default="explicit")
        if mode == "auto":
            result = find_constants(law, profile.I_total, kind, profile=profile)
            if not result.feasible:
                raise ConfigError(
                    f"no admissible region constants found for kind {kind!r} "
                    f"(best normalized slack {result.best_min_slack:.3g})",
                    self.source, self._line("region", "constants"))
            return result.spec
        try:
            return RegionSpec(
                kind,
                self.number("region", "L1", required=True),
                self.number("region", "L2", required=True),
                self.number("region", "U1", required=True),
                self.number("region", "U2", required=True),
                profile=profile)
        except DomainError as exc:
            raise ConfigError(str(exc), self.source, self._line("region", "L1")) from None


def parse_config_text(text: str, source: str = "<config>",
                      base_dir: Path | None = None) -> ScenarioConfig:
    entries, lines = {}, {}
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]", source, lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", source, lineno)
        if section is None:
            raise ConfigError("key outside any section", source, lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]",
                              source, lineno)
        if (section, key) in entries:
            raise ConfigError(f"duplicate key {key!r} in section [{section}]",
                              source, lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", source, lineno)
        entries[(section, key)] = value
        lines[(section, key)] = lineno
    return ScenarioConfig(entries, lines, text, source,
                          base_dir=base_dir or Path.cwd())


def load_config(path) -> ScenarioConfig:
    path = Path(path)
    text = path.read_text()
    return parse_config_text(text, source=str(path), base_dir=path.parent)
