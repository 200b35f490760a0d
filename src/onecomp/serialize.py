"""JSON / CSV interchange for measures and inner functions.

All real numbers in artifacts are decimal strings with 17 significant
digits, so repeated runs of the same job byte-match.  Angles are radians.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from typing import Any

from .errors import DomainError
from .geometry import TWO_PI, BoundaryArc
from .inner import (BlaschkeProduct, InnerFunction, SingularInner, ZeroSequence,
                    dump_zeros_csv, load_zeros_csv)
from .measures import AtomicMeasure, CantorMeasure, CdfMeasure, SingularMeasure


def fmt(x: float) -> str:
    return "%.17g" % (float(x),)


def jsonify(obj: Any) -> Any:
    """Recursively turn floats into 17-digit decimal strings."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return fmt(obj)
    if isinstance(obj, int):
        return obj
    if isinstance(obj, complex):
        return {"re": fmt(obj.real), "im": fmt(obj.imag)}
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    return obj


def dumps(obj: Any) -> str:
    return json.dumps(jsonify(obj), indent=2, sort_keys=True) + "\n"


def _num(value, what: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise DomainError("%s: expected a decimal string, got %r" % (what, value)) from exc
    if not math.isfinite(x):
        raise DomainError("%s: expected a finite number, got %r" % (what, value))
    return x


def _num_field(doc, key: str, what: str) -> float:
    """The finite number doc[key]; ``what`` names doc in messages."""
    if not isinstance(doc, dict):
        raise DomainError("%s: expected an object, got %r" % (what, doc))
    if key not in doc:
        raise DomainError("%s: missing field %r" % (what, key))
    return _num(doc[key], "%s.%s" % (what, key))


def _list_field(doc: dict, key: str, what: str) -> list:
    """doc[key], or [] when absent; ``what`` names the field in messages."""
    value = doc.get(key, [])
    if not isinstance(value, (list, tuple)):
        raise DomainError("%s: expected a list, got %r" % (what, value))
    return value


def measure_from_json(doc: dict) -> SingularMeasure:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise DomainError("measure document needs a 'kind' field")
    kind = doc["kind"]
    known = {"atoms": {"kind", "atoms", "tail_mass", "tail_hull", "accumulation"},
             "cantor": {"kind", "delta"},
             "cdf": {"kind", "samples"}}
    if kind not in known:
        raise DomainError("unknown measure kind %r" % (kind,))
    extra = set(doc) - known[kind]
    if extra:
        raise DomainError("unknown measure fields: %s" % (sorted(extra),))

    if kind == "atoms":
        atoms = [(_num_field(a, "theta", "measure.atoms[%d]" % i),
                  _num_field(a, "mass", "measure.atoms[%d]" % i))
                 for i, a in enumerate(_list_field(doc, "atoms", "measure.atoms"))]
        hull = [BoundaryArc(_num_field(h, "center", "measure.tail_hull[%d]" % i),
                            _num_field(h, "half_width", "measure.tail_hull[%d]" % i))
                for i, h in enumerate(_list_field(doc, "tail_hull", "measure.tail_hull"))]
        return AtomicMeasure(atoms,
                             tail_mass=_num(doc.get("tail_mass", "0"), "tail_mass"),
                             tail_hull=hull,
                             accumulation=[
                                 _num(a, "accumulation angle")
                                 for a in _list_field(doc, "accumulation",
                                                      "measure.accumulation")])
    if kind == "cantor":
        delta = doc.get("delta", "middle-thirds")
        if delta == "middle-thirds":
            return CantorMeasure.middle_thirds()
        if isinstance(delta, dict):
            if set(delta) != {"ratio"}:
                raise DomainError("cantor delta object supports only 'ratio'")
            try:
                removed = Fraction(str(delta["ratio"]))
            except (ValueError, ZeroDivisionError) as exc:
                raise DomainError("measure.delta.ratio: expected a fraction, got %r"
                                  % (delta["ratio"],)) from exc
            return CantorMeasure.from_removed_fraction(removed)
        if isinstance(delta, list):
            if not delta:
                raise DomainError("measure.delta: expected a nonempty list")
            deltas, upper = [TWO_PI], "2 pi"
            for i, d in enumerate(delta):
                what = "measure.delta[%d]" % i
                deltas.append(_num(d, what))
                if not 0.0 < deltas[-1] < deltas[-2]:
                    raise DomainError("%s: expected a number in (0, %s), got %r"
                                      % (what, upper, d))
                upper = what
            return CantorMeasure.from_delta_radians(deltas[1:])
        raise DomainError("unsupported cantor delta description %r" % (delta,))
    samples = []
    for i, pair in enumerate(_list_field(doc, "samples", "measure.samples")):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise DomainError("measure.samples[%d]: expected a pair [t, value], got %r"
                              % (i, pair))
        samples.append((_num(pair[0], "measure.samples[%d][0]" % i),
                        _num(pair[1], "measure.samples[%d][1]" % i)))
    return CdfMeasure(samples)


def measure_to_json(measure: SingularMeasure) -> dict:
    if isinstance(measure, AtomicMeasure):
        doc = {"kind": "atoms",
               "atoms": [{"theta": fmt(t), "mass": fmt(m)} for t, m in measure.atoms],
               "tail_mass": fmt(measure.tail_mass)}
        if measure._hull:
            doc["tail_hull"] = [{"center": fmt(h.center_angle),
                                 "half_width": fmt(h.half_width)} for h in measure._hull]
        if measure._accumulation:
            doc["accumulation"] = [fmt(a) for a in measure._accumulation]
        return doc
    if isinstance(measure, CantorMeasure):
        if measure._ratios == [Fraction(2, 3)]:
            return {"kind": "cantor", "delta": "middle-thirds"}
        if len(measure._ratios) == 1:
            return {"kind": "cantor",
                    "delta": {"ratio": str(1 - measure._ratios[0])}}
        return {"kind": "cantor",
                "delta": [fmt(measure.delta(n))
                          for n in range(1, len(measure._ratios) + 1)]}
    if isinstance(measure, CdfMeasure):
        return {"kind": "cdf",
                "samples": [[fmt(t), fmt(v)] for t, v in measure._pts]}
    raise DomainError("cannot serialize measure of type %s" % type(measure).__name__)


def inner_from_json(doc: dict, base_dir: str = ".") -> InnerFunction:
    if not isinstance(doc, dict):
        raise DomainError("inner-function document must be a JSON object")
    known = {"lambda", "zeros_csv", "measure", "zeros_tail_blaschke_sum",
             "zero_accumulation_angles"}
    extra = set(doc) - known
    if extra:
        raise DomainError("unknown inner-function fields: %s" % (sorted(extra),))
    lam = 1.0 + 0.0j
    if "lambda" in doc:
        lam_doc = doc["lambda"]
        if not isinstance(lam_doc, dict):
            raise DomainError("lambda: expected an object with 're' and 'im', got %r"
                              % (lam_doc,))
        lam = complex(_num(lam_doc.get("re", "1"), "lambda.re"),
                      _num(lam_doc.get("im", "0"), "lambda.im"))
    blaschke = None
    if "zeros_csv" in doc:
        spec = doc["zeros_csv"]
        if not isinstance(spec, str) or not spec.strip():
            raise DomainError("zeros_csv: expected CSV text or a file name, got %r"
                              % (spec,))
        if "\n" in spec:
            text = spec
        else:
            path = os.path.join(base_dir, spec)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise DomainError("zeros_csv %s: %s"
                                  % (path, exc.strerror or exc)) from exc
        zeros = load_zeros_csv(text)
        tail = _num(doc.get("zeros_tail_blaschke_sum", "0"), "zeros tail")
        acc = [_num(a, "zero accumulation angle")
               for a in _list_field(doc, "zero_accumulation_angles",
                                    "zero_accumulation_angles")]
        blaschke = BlaschkeProduct(ZeroSequence(zeros, tail_blaschke_sum=tail,
                                                accumulation_angles=acc))
    singular = None
    if "measure" in doc:
        singular = SingularInner(measure_from_json(doc["measure"]))
    if blaschke is None and singular is None and "lambda" not in doc:
        raise DomainError("inner-function document is empty")
    return InnerFunction(lam, blaschke, singular)


def inner_to_json(theta: InnerFunction) -> dict:
    doc: dict = {"lambda": {"re": fmt(theta.unimodular.real),
                            "im": fmt(theta.unimodular.imag)}}
    if theta.blaschke is not None:
        zs = theta.blaschke.zeros
        doc["zeros_csv"] = dump_zeros_csv(zs.zeros)
        if zs.tail_blaschke_sum:
            doc["zeros_tail_blaschke_sum"] = fmt(zs.tail_blaschke_sum)
        if zs.accumulation_angles:
            doc["zero_accumulation_angles"] = [fmt(a) for a in zs.accumulation_angles]
    if theta.singular is not None:
        doc["measure"] = measure_to_json(theta.singular.sigma)
    return doc
