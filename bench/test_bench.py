"""Tests of the benchmark's own code: span arithmetic, the seeded input
generator, the output checks and the normalization of job times."""

import contextlib
import io
import json
import math
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import Spans, Tracer  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    names = ["job", "scan", "modulus"]
    #        0: job [0, 10]
    #        1:   scan [1, 7]
    #        2:     modulus [2, 3]
    #        3:     modulus [4, 6]
    #        4:   modulus [8, 9.5]
    spans = Spans(names, name=[0, 1, 2, 2, 2],
                  start=[0.0, 1.0, 2.0, 4.0, 8.0],
                  end=[10.0, 7.0, 3.0, 6.0, 9.5],
                  parent=[-1, 0, 1, 1, 0])
    assert spans.self_time.tolist() == [2.5, 3.0, 1.0, 2.0, 1.5]
    assert spans.seconds("modulus") == 4.5
    assert spans.self_seconds("scan") == 3.0
    assert spans.self_seconds("job", "scan") == 5.5
    assert spans.calls("modulus") == 3
    assert spans.calls_under("modulus", "scan") == 2
    assert spans.calls_under("modulus", "job") == 1
    assert spans.calls("absent") == 0 and spans.seconds("absent") == 0.0


def test_tracer_nests_recount_and_restores_the_wrappers():
    import onecomp.cli  # noqa: F401  (the tracer patches loaded modules)
    levelset = sys.modules["onecomp.levelset"]
    from onecomp.families import finite_blaschke
    original = levelset.level_set_components
    theta = finite_blaschke([0.5])
    with Tracer() as tracer:
        sys.modules["onecomp.cli"].level_set_components(theta, 0.5, 4)
    assert levelset.level_set_components is original
    spans = tracer.spans()
    assert spans.calls("levelset") == 1 and spans.calls("levelset.recount") == 1
    assert spans.calls_under("levelset.recount", "levelset") == 1
    assert spans.calls_under("inner.modulus", "levelset", "levelset.recount") \
        == spans.calls("inner.modulus") > 0
    assert spans.calls_under("inner.blaschke", "inner.modulus") \
        == spans.calls("inner.blaschke")
    assert 0.0 <= spans.self_seconds("levelset") <= spans.seconds("levelset")


def _seeded_docs(tmp_path):
    from onecomp import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["seed-examples", "--out", str(tmp_path)]) == 0
    docs = {}
    for name in inputs.FAMILIES:
        with open(os.path.join(tmp_path, name + ".json"), encoding="utf-8") as fh:
            docs[name] = json.load(fh)
    return docs


def _same_doc(a, b, key=""):
    """Equal up to 1e-12 in every real; angles compared modulo 2 pi."""
    if isinstance(a, dict):
        assert set(a) == set(b), key
        for k in a:
            _same_doc(a[k], b[k], k)
    elif isinstance(a, list):
        assert len(a) == len(b), key
        for x, y in zip(a, b):
            _same_doc(x, y, key)
    elif key == "zeros_csv":
        za = [complex(*map(float, ln.split(","))) for ln in a.split()[1:]]
        zb = [complex(*map(float, ln.split(","))) for ln in b.split()[1:]]
        assert len(za) == len(zb)
        assert all(abs(x - y) <= 1e-12 for x, y in zip(za, zb))
    elif key in ("theta", "center", "accumulation", "zero_accumulation_angles"):
        gap = abs(float(a) - float(b)) % (2.0 * math.pi)
        assert min(gap, 2.0 * math.pi - gap) <= 1e-12, key
    else:
        assert a == b or abs(float(a) - float(b)) <= 1e-12, key


@pytest.mark.parametrize("seed", [1, 7, 12345])
def test_rotation_round_trip(tmp_path, seed):
    alpha = inputs.seed_angle(seed)
    assert 0.0 < alpha < 2.0 * math.pi
    for name, doc in _seeded_docs(tmp_path).items():
        if name == "cantor":
            with pytest.raises(ValueError):
                inputs.rotate_inner_doc(doc, alpha)
            continue
        turned = inputs.rotate_inner_doc(doc, alpha)
        if "zeros_csv" in doc or doc["measure"].get("atoms"):
            assert turned != doc
        _same_doc(inputs.rotate_inner_doc(turned, -alpha), doc)


def test_seed_zero_gives_the_seeded_inputs(tmp_path):
    docs = _seeded_docs(tmp_path)
    paths = inputs.generate(str(tmp_path), str(tmp_path / "in"), 0)
    for name in inputs.FAMILIES:
        with open(paths["family:" + name], encoding="utf-8") as fh:
            assert json.load(fh) == docs[name]
    with open(paths["levelset:z2"], encoding="utf-8") as fh:
        assert json.load(fh) == {"zeros_csv": "re,im\n0.5,0\n0,0.5\n"}


def test_other_seeds_rotate_only_the_rotatable_families(tmp_path):
    docs = _seeded_docs(tmp_path)
    paths = inputs.generate(str(tmp_path), str(tmp_path / "in"), 3)
    for name in inputs.FAMILIES:
        with open(paths["family:" + name], encoding="utf-8") as fh:
            rotated = json.load(fh) != docs[name]
        assert rotated == (name not in inputs.UNROTATED), name


def test_checks_reject_a_wrong_verdict():
    assert checks.check_classify({"verdict": "OneComponentEvidence"}, "atom1") is None
    assert checks.check_classify({"verdict": "Inconclusive"}, "atom1")
    assert checks.check_classify({"verdict": "OneComponentEvidence"}, "example1")


def test_checks_reject_a_wrong_or_unstable_count():
    good = {"component_count": 2, "stabilized": True}
    assert checks.check_levelset(good, "z2", "0.1") is None
    assert checks.check_levelset(good, "z2", "0.5")
    assert checks.check_levelset(dict(good, stabilized=False), "z2", "0.1")


def test_checks_reject_a_bad_construct():
    zeros = "re,im\n" + "0.5,0\n" * 3
    good = {"verified": True, "zeros_csv": zeros, "max_step_error": "1e-9"}
    assert checks.check_construct(good, 3, seed=1) is None
    assert checks.check_construct(dict(good, verified=False), 3, seed=1)
    assert checks.check_construct(good, 4, seed=1)
    assert checks.check_construct(dict(good, max_step_error="2e-6"), 3, seed=1)
    # at seed 0 the placed zeros must hash to the recorded value
    assert "sha256" in checks.check_construct(good, 3, seed=0)


def test_normalized_job_time_uses_the_kernel_times_around_the_job():
    import reference
    from run import PassResult
    nominal = reference.NOMINAL_S
    result = PassResult(job_s=[1.0, 3.0], ref_s=[nominal, 2 * nominal, 4 * nominal],
                        problems=[], docs=[])
    assert result.wall_s == 4.0
    # job 0 ran between kernels at 1x and 2x nominal: 1.5x slower than nominal
    assert result.normalized_job_s() == pytest.approx([1.0 / 1.5, 3.0 / 3.0])


def test_cantor_cdf_at_known_points():
    from fractions import Fraction as F
    assert checks.cantor_cdf(F(1, 4)) == pytest.approx(1 / 3, abs=1e-12)
    assert checks.cantor_cdf(F(1, 10)) == pytest.approx(1 / 5, abs=1e-12)
    assert checks.cantor_cdf(F(1, 3)) == checks.cantor_cdf(F(1, 2)) == F(1, 2)
    assert checks.cantor_cdf(F(0)) == 0 and checks.cantor_cdf(F(1)) == 1


def test_measure_check_accepts_onecomp_and_rejects_a_wrong_integral(tmp_path):
    from run import make_jobs
    _seeded_docs(tmp_path)
    paths = inputs.generate(str(tmp_path), str(tmp_path / "in"), 0)
    job = [j for j in make_jobs("classify-families", paths, str(tmp_path / "out"))
           if j.command == "measure"][0]
    from onecomp import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(job.argv) == 0
    doc = json.loads(out.getvalue())
    assert checks.check_measure(doc, *job.case) is None
    wrong = dict(doc, poisson=repr(float(doc["poisson"]) + 1e-3))
    assert "poisson" in checks.check_measure(wrong, *job.case)
    wrong = dict(doc, arc_mass=repr(float(doc["arc_mass"]) + 1e-3))
    assert "arc_mass" in checks.check_measure(wrong, *job.case)
