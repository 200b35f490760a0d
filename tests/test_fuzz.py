"""Fuzz tests of the input boundary: JSON documents through the loaders and
argv through the in-process command line.

Every input must end in exit code 0, 2 (malformed input) or 3 (tolerance
out of reach), with one stderr line on 2 and 3 and no NaN in a successful
report.  The runs are derandomized, so a failure reproduces.  classify,
levelset and construct run on atom and zero inputs only: one Cantor
classify takes tens of seconds.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from onecomp.cli import main
from onecomp.errors import OnecompError
from onecomp.serialize import inner_from_json, measure_from_json

FUZZ = settings(max_examples=180, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])

# numbers as the documents give them: decimal strings (finite or not),
# bare JSON numbers, and values that are no number at all
BAD = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1e-320", "1e300", "1e400", "nan", "-inf", "abc", "", " 2 "]),
    st.none(), st.booleans(), st.lists(st.integers(), max_size=1))


def mostly(good, bad=BAD):
    """Values from ``good``, and from ``bad`` about one time in ten (one_of
    would draw each of its distinct branches about equally often)."""
    return st.sampled_from(range(10)).flatmap(lambda i: bad if i == 9 else good)


def decimal(lo, hi):
    return st.one_of(st.floats(lo, hi).map(repr), st.floats(lo, hi))


ANGLES = mostly(decimal(-7.0, 7.0))
MASSES = mostly(decimal(1e-6, 3.0))
ATOMS = st.fixed_dictionaries(
    {"kind": st.just("atoms"),
     "atoms": st.lists(st.fixed_dictionaries({"theta": ANGLES, "mass": MASSES}),
                       max_size=4)},
    optional={"tail_mass": mostly(decimal(0.0, 0.1)),
              "tail_hull": st.lists(st.fixed_dictionaries(
                  {"center": ANGLES, "half_width": mostly(decimal(1e-6, 0.5))}),
                  max_size=1),
              "accumulation": st.lists(ANGLES, max_size=2)})
CANTOR = st.fixed_dictionaries(
    {"kind": st.just("cantor"),
     "delta": mostly(st.one_of(
         st.just("middle-thirds"),
         st.fixed_dictionaries({"ratio": mostly(st.sampled_from(
             ["1/3", "1/2", "0.1", "1/1000", "999/1000", "0", "1", "3/2", "1/0"]))}),
         st.lists(st.floats(1e-12, 6.0), min_size=1, max_size=4, unique=True).map(
             lambda ds: [repr(d) for d in sorted(ds, reverse=True)]),
         st.sampled_from([["1e-300"], ["1e-10"], ["0.001"], ["1", "1"], ["7"]])))})
CDF_SAMPLES = st.lists(st.tuples(st.floats(0.0, 6.28), st.floats(0.0, 1.0)),
                       min_size=2, max_size=5, unique_by=lambda p: p[0]).map(
    lambda pairs: [[repr(t), repr(v)] for t, v in zip(sorted(t for t, _ in pairs),
                                                      sorted(v for _, v in pairs))])
CDF = st.fixed_dictionaries(
    {"kind": st.just("cdf"),
     "samples": mostly(CDF_SAMPLES, st.lists(st.lists(BAD, max_size=3), max_size=3))})
JUNK = st.recursive(st.one_of(BAD, st.text(max_size=4)),
                    lambda inner: st.one_of(st.lists(inner, max_size=3),
                                            st.dictionaries(st.text(max_size=4), inner,
                                                            max_size=3)),
                    max_leaves=6)
MEASURES = mostly(st.one_of(ATOMS, CANTOR, CDF), JUNK)

ZERO = st.tuples(st.floats(0.0, 0.999), st.floats(-7.0, 7.0)).map(
    lambda p: "%r,%r" % (p[0] * math.cos(p[1]), p[0] * math.sin(p[1])))
ZERO_ROWS = st.lists(mostly(ZERO, st.one_of(
    st.tuples(BAD, BAD).map(lambda p: "%s,%s" % p),
    st.sampled_from(["0,0", "0.5,0,1", "x", "1,0", "0.99999999999999989,0"]))),
    max_size=6)
ZEROS_CSV = mostly(ZERO_ROWS.map(lambda rows: "re,im\n" + "\n".join(rows) + "\n"),
                   st.sampled_from(["", " ", "missing.csv", 5]))


OPTIONAL_FIELDS = {
    "zeros_tail_blaschke_sum": mostly(decimal(0.0, 1e-3)),
    "zero_accumulation_angles": st.lists(ANGLES, max_size=2),
    "lambda": mostly(st.sampled_from([{"re": "1", "im": "0"}, {"re": "0", "im": "1"},
                                      {"re": "-1"}, {}]))}


def inner_documents(measures):
    """Zeros, a measure or both, and now and then neither."""
    parts = st.sampled_from([{"zeros_csv"}, {"measure"}, {"zeros_csv", "measure"}])
    return mostly(parts, st.just(set())).flatmap(lambda keys: st.fixed_dictionaries(
        {key: {"zeros_csv": ZEROS_CSV, "measure": measures}[key] for key in keys},
        optional=OPTIONAL_FIELDS))


INNER = mostly(inner_documents(MEASURES), JUNK)
# atoms and zeros only, for the commands that scan the disc
FAST_INNER = inner_documents(ATOMS)


def text(good, bad=()):
    """An option value: good ones, and now and then a bad number as text or
    one of ``bad``."""
    return mostly(good, BAD.map(str) | st.sampled_from(list(bad) or [""]))


POINTS = text(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(
    lambda p: "%r,%r" % p) | st.just("0,0"), ["1,0", "0.5", "a,b,c"])
TOLS = text(st.sampled_from(["1e-9", "1e-6", "1e-3", "0.5", "1e-20"]), ["0", "-1"])


def _nan_free(value) -> bool:
    if isinstance(value, dict):
        return all(map(_nan_free, value.values()))
    if isinstance(value, list):
        return all(map(_nan_free, value))
    if isinstance(value, str):
        try:
            return not math.isnan(float(value))
        except ValueError:
            return True
    return not (isinstance(value, float) and math.isnan(value))


def _run(argv, doc, tmp_path):
    """main(argv + [flag, file]) with doc written to the file: (code, out, err)."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    flag = "--measure" if argv[0] == "measure" else "--inner"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([argv[0], flag + "=" + str(path)] + argv[1:])
    return code, out.getvalue(), err.getvalue()


def _check(code, out, err):
    event("exit %d" % code)
    assert code in (0, 2, 3), (code, err)
    if code == 0:
        assert err == ""
        assert _nan_free(json.loads(out)), out
    else:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), err


@FUZZ
@given(doc=st.one_of(INNER, MEASURES))
def test_loaders_return_or_raise_a_package_error(doc):
    for load in (inner_from_json, measure_from_json):
        try:
            load(doc)
        except OnecompError:
            pass


@FUZZ
@given(doc=INNER, point=POINTS, tol=TOLS)
def test_eval(doc, point, tol, tmp_path):
    _check(*_run(["eval", "--at=" + point, "--tol=" + tol], doc, tmp_path))


@FUZZ
@given(doc=MEASURES, arc=st.none() | POINTS, point=st.none() | POINTS, tol=TOLS)
def test_measure(doc, arc, point, tol, tmp_path):
    argv = ["measure", "--tol=" + tol]
    argv += [] if arc is None else ["--arc=" + arc]
    argv += [] if point is None else ["--at=" + point]
    _check(*_run(argv, doc, tmp_path))


def depths(least, deepest):
    return text(st.integers(least, deepest).map(str), [str(least - 1), "2.5", "x"])


@FUZZ
@given(doc=FAST_INNER, depth=depths(2, 6), tol=TOLS)
def test_classify(doc, depth, tol, tmp_path):
    _check(*_run(["classify", "--depth=" + depth, "--tol=" + tol], doc, tmp_path))


@FUZZ
@given(doc=FAST_INNER, depth=depths(3, 5),
       epsilon=text(st.floats(0.01, 0.99).map(repr), ["0", "1", "-1"]))
def test_levelset(doc, depth, epsilon, tmp_path):
    _check(*_run(["levelset", "--depth=" + depth, "--epsilon=" + epsilon], doc, tmp_path))


@FUZZ
@given(doc=FAST_INNER, horizon=text(st.integers(2, 30).map(str), ["0", "1", "2.5", "x"]),
       depth=depths(2, 6))
def test_construct(doc, horizon, depth, tmp_path):
    _check(*_run(["construct", "--horizon=" + horizon, "--depth=" + depth],
                 doc, tmp_path))
