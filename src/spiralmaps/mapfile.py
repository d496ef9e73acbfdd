"""JSON map-file ingestion and emission.

A map file is a single JSON document with the fields

    lambda       spiral angle in radians (real, |lambda| < pi/2)
    truncation   truncation order N (integer, 1..MAX_ORDER)
    signed_form  boolean class-shape assertion
    a            list of [re, im] pairs for indices n = 2..
    b            list of [re, im] pairs for indices n = 1..
    catalog      {"name": ..., "params": {...}} instead of a/b

Exactly one of (a and b) or catalog is present.  NaN/Inf never parse.
Emission is canonical: fixed key order, numbers at 9 significant digits, so
emit(parse(emit(x))) is byte-identical.

Every number this package writes as text goes through this module:
``format_number`` for a single number and ``format_array`` for a whole
array (coefficient lists here, plotted curves in ``render``).  Both apply
one rule: 9 significant digits (``%.9g``), ``-0.0`` written as ``0``, and
``ValueError("non-finite number in output")`` on NaN or inf.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .construct import CATALOG_PARAMS, catalog
from .criteria import SpiralParams
from .harmonic import HarmonicMapSpec
from .series import MAX_ORDER


class MapFileError(ValueError):
    """A map file failed to parse or validate; the message names the field."""


def format_number(x: float) -> str:
    """Canonical 9-significant-digit rendering used in every text output."""
    x = float(x) + 0.0  # normalize -0.0
    if not math.isfinite(x):
        raise ValueError("non-finite number in output")
    return format(x, ".9g")


def format_array(template: str, *columns) -> str:
    """``template`` filled with the numbers of ``columns``, row by row.

    The columns are equal-length float arrays (a 2-D array or a list of
    ``[re, im]`` pairs counts as its columns), interleaved row-major
    (``x0, y0, x1, y1, ...`` for two), and ``template`` holds one ``%.9g``
    per number in that order: usually a row template repeated once per row.
    The rule is ``format_number``'s, applied once per array in numpy: the
    finiteness check, and ``x + 0.0`` turning ``-0.0`` into ``0.0``; then a
    single ``%`` formats every number (``"%.9g" % x == format(x, ".9g")``
    for a Python float).
    """
    values = np.column_stack(columns) + 0.0  # normalize -0.0
    if not np.isfinite(values).all():
        raise ValueError("non-finite number in output")
    return template % tuple(values.ravel().tolist())


@dataclass(frozen=True)
class MapDocument:
    """Parsed content of a map file (coefficients still in list form)."""

    lam: float
    truncation: int
    signed_form: bool
    a: Optional[list] = None
    b: Optional[list] = None
    catalog_name: Optional[str] = None
    catalog_params: dict = field(default_factory=dict)

    def build(self) -> tuple[HarmonicMapSpec, SpiralParams]:
        p = SpiralParams(self.lam)
        if self.catalog_name is not None:
            alpha = self.catalog_params.get("alpha")
            if isinstance(alpha, list):
                alpha = complex(alpha[0], alpha[1])
            try:
                m = catalog(self.catalog_name, p=p, alpha=alpha, order=self.truncation)
            except ValueError as exc:  # an alpha, or a truncation, the entry refuses
                raise MapFileError(f"catalog entry {self.catalog_name!r}: {exc}") from exc
            return m, p
        a = [complex(re, im) for re, im in self.a]
        b = [complex(re, im) for re, im in self.b]
        m = HarmonicMapSpec(
            a=a, b=b, truncation_order=self.truncation, signed_form=self.signed_form
        )
        return m, p


def _check_pairs(raw, fld: str) -> list:
    if not isinstance(raw, list):
        raise MapFileError(f"field {fld!r} must be a list of [re, im] pairs")
    out = []
    for i, item in enumerate(raw):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in item)
        ):
            raise MapFileError(f"field {fld!r} entry {i} is not a [re, im] number pair")
        if not all(math.isfinite(v) for v in item):
            raise MapFileError(f"field {fld!r} entry {i} contains a non-finite value")
        out.append([float(item[0]), float(item[1])])
    return out


def parse_map_document(text: str) -> MapDocument:
    try:
        raw = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise MapFileError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise MapFileError("map file must be a JSON object")
    known = {"lambda", "truncation", "signed_form", "a", "b", "catalog"}
    for key in raw:
        if key not in known:
            raise MapFileError(f"unknown field {key!r}")
    lam = raw.get("lambda")
    if not isinstance(lam, (int, float)) or isinstance(lam, bool) or not math.isfinite(lam):
        raise MapFileError("field 'lambda' must be a finite number")
    if not abs(lam) < math.pi / 2:
        raise MapFileError("field 'lambda' must satisfy |lambda| < pi/2")
    trunc = raw.get("truncation")
    if not isinstance(trunc, int) or isinstance(trunc, bool) or not 1 <= trunc <= MAX_ORDER:
        raise MapFileError(f"field 'truncation' must be an integer in 1..{MAX_ORDER}")
    signed = raw.get("signed_form", False)
    if not isinstance(signed, bool):
        raise MapFileError("field 'signed_form' must be a boolean")

    has_arrays = "a" in raw or "b" in raw
    has_catalog = "catalog" in raw
    if has_arrays == has_catalog:
        raise MapFileError("exactly one of coefficient arrays (a/b) or 'catalog' must be present")

    if has_catalog:
        cat = raw["catalog"]
        if not isinstance(cat, dict) or "name" not in cat:
            raise MapFileError("field 'catalog' must be an object with a 'name'")
        name = cat["name"]
        if name not in CATALOG_PARAMS:
            raise MapFileError(f"unknown catalog name {name!r}")
        params = cat.get("params", {})
        if not isinstance(params, dict):
            raise MapFileError("field 'catalog.params' must be an object")
        takes = [k for k in CATALOG_PARAMS[name] if k != "lambda"]  # lambda is top-level
        for key, value in params.items():
            if key not in takes:
                raise MapFileError(
                    f"catalog entry {name!r} takes no parameter {key!r} in 'params'")
            ok = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
            ok = ok or (
                isinstance(value, list)
                and len(value) == 2
                and all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
                    for v in value
                )
            )
            if not ok:
                raise MapFileError(f"catalog parameter {key!r} must be a finite number or [re, im] pair")
        for key in takes:
            if key not in params:
                raise MapFileError(f"catalog entry {name!r} needs the parameter {key!r}")
        return MapDocument(
            lam=float(lam), truncation=trunc, signed_form=signed,
            catalog_name=name, catalog_params=dict(params),
        )

    a = _check_pairs(raw.get("a", []), "a")
    b = _check_pairs(raw.get("b", []), "b")
    return MapDocument(lam=float(lam), truncation=trunc, signed_form=signed, a=a, b=b)


def _reject_constant(name):
    raise MapFileError(f"non-finite JSON constant {name!r} rejected")


def load_map_file(path) -> tuple[HarmonicMapSpec, SpiralParams]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_map_document(fh.read()).build()


def document_from_map(m: HarmonicMapSpec, p: SpiralParams) -> MapDocument:
    return MapDocument(
        lam=p.lam,
        truncation=m.truncation_order,
        signed_form=m.signed_form,
        a=[[float(c.real), float(c.imag)] for c in m.a],
        b=[[float(c.real), float(c.imag)] for c in m.b],
    )


def _emit_pairs(pairs: list) -> str:
    if not pairs:
        return "[]"
    body = ", ".join(["[%.9g, %.9g]"] * len(pairs))
    return "[" + format_array(body, pairs) + "]"


def emit_map_document(doc: MapDocument) -> str:
    """Canonical text form; numbers at 9 significant digits."""
    lines = ["{"]
    lines.append(f'  "lambda": {format_number(doc.lam)},')
    lines.append(f'  "truncation": {doc.truncation},')
    lines.append(f'  "signed_form": {"true" if doc.signed_form else "false"},')
    if doc.catalog_name is not None:
        def fmt_param(v):
            if isinstance(v, list):
                return f"[{format_number(v[0])}, {format_number(v[1])}]"
            return format_number(v)

        params = ", ".join(
            f'"{k}": {fmt_param(v)}' for k, v in sorted(doc.catalog_params.items())
        )
        lines.append(f'  "catalog": {{"name": "{doc.catalog_name}", "params": {{{params}}}}}')
    else:
        lines.append(f'  "a": {_emit_pairs(doc.a)},')
        lines.append(f'  "b": {_emit_pairs(doc.b)}')
    lines.append("}")
    return "\n".join(lines) + "\n"
