"""JSON file formats for systems and sampling sequences.

System file::

    {
      "order": 2,
      "roots": [{"re": 0.0, "im": 1.0, "mult": 1},
                {"re": 0.0, "im": -1.0, "mult": 1}],
      "markov": [0.0, 1.0]
    }

Exactly one of ``markov`` (n reals) or ``mode_coefficients`` (n objects
{"re": ..., "im": ...}, block-wise per root) must be present.

Sequence file::

    {"instants": [0.0, 1.5707963], "final_instant": 3.0}

``final_instant`` is optional and only needed for the controllability-side
simulation.
"""
from __future__ import annotations

import json

from nusample.analysis import SamplingSequence
from nusample.errors import DegenerateSamplingError, InputError
from nusample.lti import SystemSpec, system_from_markov, system_from_modes


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}") from exc


def _number(path, field, value):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InputError(f"{path}: field '{field}' must be a number, got {value!r}")
    return float(value)


def _positive_int(value) -> bool:
    # JSON true and false load as bool, which is an int
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def load_system(path) -> SystemSpec:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: system file must be a JSON object")
    for field in ("order", "roots"):
        if field not in doc:
            raise InputError(f"{path}: missing field '{field}'")
    order = doc["order"]
    if not _positive_int(order):
        raise InputError(f"{path}: 'order' must be a positive integer")
    roots = []
    if not isinstance(doc["roots"], list) or not doc["roots"]:
        raise InputError(f"{path}: 'roots' must be a non-empty list")
    for i, r in enumerate(doc["roots"]):
        if not isinstance(r, dict) or not {"re", "im", "mult"} <= set(r):
            raise InputError(f"{path}: roots[{i}] needs fields re, im, mult")
        mult = r["mult"]
        if not _positive_int(mult):
            raise InputError(f"{path}: roots[{i}].mult must be a positive integer")
        roots.append((complex(_number(path, "re", r["re"]),
                              _number(path, "im", r["im"])), mult))
    if sum(m for _, m in roots) != order:
        raise InputError(f"{path}: multiplicities sum to "
                         f"{sum(m for _, m in roots)}, but order is {order}")

    has_markov = "markov" in doc
    has_modes = "mode_coefficients" in doc
    if has_markov == has_modes:
        raise InputError(f"{path}: provide exactly one of 'markov' or "
                         "'mode_coefficients'")
    try:
        if has_markov:
            h = doc["markov"]
            if not isinstance(h, list) or len(h) != order:
                raise InputError(f"{path}: 'markov' must list {order} numbers")
            return system_from_markov(roots, [_number(path, "markov", v) for v in h])
        mc = doc["mode_coefficients"]
        if not isinstance(mc, list) or len(mc) != order:
            raise InputError(f"{path}: 'mode_coefficients' must list {order} entries")
        coeffs = []
        for i, c in enumerate(mc):
            if not isinstance(c, dict) or not {"re", "im"} <= set(c):
                raise InputError(f"{path}: mode_coefficients[{i}] needs fields re, im")
            coeffs.append(complex(_number(path, "re", c["re"]),
                                  _number(path, "im", c["im"])))
        return system_from_modes(roots, coeffs)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_sequence(path) -> SamplingSequence:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "instants" not in doc:
        raise InputError(f"{path}: sequence file must be a JSON object with "
                         "field 'instants'")
    inst = doc["instants"]
    if not isinstance(inst, list) or not inst:
        raise InputError(f"{path}: 'instants' must be a non-empty list of numbers")
    final = doc.get("final_instant")
    try:
        return SamplingSequence(
            tuple(_number(path, "instants", t) for t in inst),
            None if final is None else _number(path, "final_instant", final))
    except DegenerateSamplingError as exc:
        raise InputError(f"{path}: {exc}") from exc
