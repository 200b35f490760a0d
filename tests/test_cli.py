import cmath
import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from onecomp import cli
from onecomp.classify import MAX_DEPTH, classify
from onecomp.cli import main
from onecomp.families import SEEDED_FAMILY_BUILDERS
from onecomp.inner import dump_zeros_csv, load_zeros_csv
from onecomp.levelset import MAX_DEPTH as LEVEL_SET_MAX_DEPTH
from onecomp.serialize import dumps


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_timestamp(text: str) -> str:
    return re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', text)


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    out = tmp_path_factory.mktemp("seeds")
    assert main(["seed-examples", "--out", str(out)]) == 0
    return out


class TestSeedExamples:
    def test_all_six_families_written(self, seeds):
        names = sorted(p.name for p in seeds.iterdir())
        assert names == ["atom1.json", "atoms2.json", "cantor.json",
                         "example1.json", "radial_geometric.json",
                         "radial_sparse.json"]

    def test_seeded_files_parse(self, seeds):
        for p in seeds.iterdir():
            json.loads(p.read_text())

    # sha256 of each file, recorded when seed-examples still listed each
    # family's prefix from a generator before writing it
    SEEDED = {
        "atom1.json": "c392f50ce18c16d2ab6b56836356ed6ee2cbd90b14558808c9ac11f87991ddd5",
        "atoms2.json": "7c4c6aedf0dbeaa2a2c428a2fd2a3e82017c00f4b2acf4e209da3cb5546d11ba",
        "cantor.json": "67e36757165c6f774303f32871deae2209020195a6a13d54897a10a4552d8441",
        "example1.json": "61a520efca9f902ab6d0c570188d092b579a31fdd0230e25bfee890f46c962cf",
        "radial_geometric.json":
            "cef65ce4954c2fd94377105584e86d33cf564487c99060f560c899833caaca1f",
        "radial_sparse.json":
            "7dfe95df7660eb924e37a69c60eed69359d4e3fe82a29d036911155b3917979d",
    }

    def test_golden_seeded_files(self, seeds):
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in seeds.iterdir()} == self.SEEDED

    # not cantor: its sawtooth test takes about 30 s at any depth, and its
    # file is the label "middle-thirds", which the golden above pins
    @pytest.mark.parametrize("name", ["atom1", "atoms2", "example1",
                                      "radial_geometric", "radial_sparse"])
    def test_seeded_file_classifies_as_the_family(self, name, seeds, capsys):
        code, out, _ = run_cli(["classify", "--inner", str(seeds / (name + ".json")),
                                "--depth", "14"], capsys)
        assert code == 0
        doc = json.loads(out)
        del doc["metadata"]
        report = classify(SEEDED_FAMILY_BUILDERS[name](), 14).to_json_dict()
        assert doc == json.loads(dumps(report))


class TestClassifyCommand:
    def test_atom_report(self, seeds, capsys, tmp_path):
        code, out, _ = run_cli(["classify", "--inner", str(seeds / "atom1.json"),
                                "--depth", "8", "--out", str(tmp_path)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "OneComponentEvidence"
        assert (tmp_path / "report.json").exists()
        written = json.loads((tmp_path / "report.json").read_text())
        assert written["verdict"] == doc["verdict"]
        assert "c_star" in doc and "depth_trace" in doc and "witnesses" in doc

    def test_byte_identical_reruns(self, seeds, capsys):
        code1, out1, _ = run_cli(["classify", "--inner",
                                  str(seeds / "atom1.json"), "--depth", "7"], capsys)
        code2, out2, _ = run_cli(["classify", "--inner",
                                  str(seeds / "atom1.json"), "--depth", "7"], capsys)
        assert code1 == code2 == 0
        assert strip_timestamp(out1) == strip_timestamp(out2)

    def test_threads_flag_does_not_change_output(self, seeds, capsys):
        _, out1, _ = run_cli(["classify", "--inner", str(seeds / "atom1.json"),
                              "--depth", "6"], capsys)
        _, out2, _ = run_cli(["--threads", "4", "classify", "--inner",
                              str(seeds / "atom1.json"), "--depth", "6"], capsys)
        a = re.sub(r'"threads": \d+', '"threads": 0', strip_timestamp(out1))
        b = re.sub(r'"threads": \d+', '"threads": 0', strip_timestamp(out2))
        assert a == b


class TestEvalCommand:
    def test_atom_value(self, seeds, capsys):
        code, out, _ = run_cli(["eval", "--inner", str(seeds / "atom1.json"),
                                "--at", "0.5,0"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert float(doc["value"]["re"]) == pytest.approx(math.exp(-3.0), abs=1e-9)

    def test_negative_point_as_separate_value(self, seeds, capsys):
        inner = str(seeds / "atom1.json")
        code1, out1, err1 = run_cli(["eval", "--inner", inner, "--at", "-0.5,0.5"],
                                    capsys)
        code2, out2, _ = run_cli(["eval", "--inner", inner, "--at=-0.5,0.5"], capsys)
        assert (code1, err1) == (0, "")
        assert code2 == 0 and strip_timestamp(out1) == strip_timestamp(out2)


class TestLevelsetCommand:
    def test_mobius_component_count(self, seeds, capsys, tmp_path):
        inner = tmp_path / "mobius.json"
        inner.write_text(json.dumps(
            {"zeros_csv": "re,im\n0.5,0\n"}))
        code, out, _ = run_cli(["levelset", "--inner", str(inner),
                                "--epsilon", "0.5", "--depth", "8",
                                "--out", str(tmp_path), "--pgm"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["component_count"] == 1
        csv_text = (tmp_path / "levelset.csv").read_text()
        assert csv_text.startswith("depth,index,label\n")
        assert (tmp_path / "levelset.pgm").read_bytes().startswith(b"P5\n")

    # sha256 of levelset.csv and levelset.pgm for --depth 7 --epsilon 0.5,
    # recorded with the per-pixel raster loop that to_pgm replaced
    GOLDEN = {
        "re,im\n0.5,0\n": (
            "2ed55d524a92c9a7c19ff667a4b333e954175402281b5951aa48eaa37c1ae99f",
            "5f107b66bfa30adb561440911e029190464637bcf609ef1e91c81cd1f5844727"),
        "re,im\n0.5,0\n0,0.5\n": (
            "81afa6bb8f4609de0d55adcad8007f03269e588fd770c81414383b15ed38b6d6",
            "5cd08fa4f078bdf438884b3ab9a500e5c7413fdba977f406b7a95ce6b482717d"),
        "re,im\n0.5,0\n0,0.5\n-0.5,0\n": (
            "5b340bca124ecb4700e944173390228af30f0368d6a12611ce5e281959c9c316",
            "1b53c93a883141fac2b0d7f08d50f9f0af4ac9600735711b8e49155e90daa23f"),
    }

    # the same for epsilon 0.1 and 0.9, and for two seeded families at 0.5,
    # recorded with the second full quadtree that the depth-D pass replaced
    GOLDEN_MORE = {
        ("re,im\n0.5,0\n", "0.1"): (
            "b0091ab93fd0a3d353032fb9289bf97aebe1dffecfc7499e79c734e92ec38226",
            "dbcadc34721ce84743eba5d28d672f4b65a8143435eab667c84fd69d0c385643"),
        ("re,im\n0.5,0\n", "0.9"): (
            "ad518ecdff20d214dd734a826efd29a194919c91b7718b70c36e89f9bfeaaf52",
            "e61cd364d34bd2919b33d774a556ffb114f0743cd968329a5ee92bd7fc899517"),
        ("re,im\n0.5,0\n0,0.5\n", "0.1"): (
            "5b855943d28af38d6313a6b4111bb1e2dff2708957c9a9e4a27c25275f8e3639",
            "ae87835eb7a8f2b10b68160e6446ca6519b42b27eaaf36cac026dce93c6a1252"),
        ("re,im\n0.5,0\n0,0.5\n", "0.9"): (
            "a6f8ed227abf7583061236b7144e56a67af9e63d60f15a97861bc00e417f4999",
            "4534ec7efc6b131e9eb761e2a32f7939809b715606fe6ae2e6ee687d8b925499"),
        ("re,im\n0.5,0\n0,0.5\n-0.5,0\n", "0.1"): (
            "f339100b91b29355dffe918fa563bd806d871386171da12a38f64975b60a738c",
            "35c4670fcbc14476927a7ac393b7732f0217094b4937260d22c20b87bca1495f"),
        ("re,im\n0.5,0\n0,0.5\n-0.5,0\n", "0.9"): (
            "b328e45d106255c02acbbaded7da9a886b72c3c89b621832dddd7153f88e93a6",
            "d31f241b0490e4f65e6b36787b5396e10bc0dcbe07e367215f40c0d041081250"),
        ("radial_geometric", "0.5"): (
            "d2b1d30d61e6e4c538cacd7047cd226cf7abb79a52e4b1b431cd03afc631c003",
            "eaaa9b1f7975041a7e9bb41720111f222fb3b662a0a1b8eed8c8c5152b25b9fd"),
        ("example1", "0.5"): (
            "0600ef8a98cb029ae52e72939121918acf2992ef3af401a55167211680e60572",
            "29f35beb462e7f0699f2e87151b84eefe11a2c7d7d23a45ef8ca0b4b512adf7e"),
    }

    @staticmethod
    def digests(inner, epsilon, capsys, out):
        code, _, _ = run_cli(["levelset", "--inner", str(inner), "--depth", "7",
                              "--epsilon", epsilon, "--pgm", "--out", str(out)],
                             capsys)
        assert code == 0
        return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                     for name in ("levelset.csv", "levelset.pgm"))

    @pytest.mark.parametrize("zeros_csv", sorted(GOLDEN))
    def test_golden_outputs(self, zeros_csv, capsys, tmp_path):
        inner = tmp_path / "inner.json"
        inner.write_text(json.dumps({"zeros_csv": zeros_csv}))
        assert self.digests(inner, "0.5", capsys, tmp_path) == self.GOLDEN[zeros_csv]

    @pytest.mark.parametrize("source,epsilon", sorted(GOLDEN_MORE))
    def test_golden_outputs_more(self, source, epsilon, seeds, capsys, tmp_path):
        if source.startswith("re,im"):
            inner = tmp_path / "inner.json"
            inner.write_text(json.dumps({"zeros_csv": source}))
        else:
            inner = seeds / (source + ".json")
        assert self.digests(inner, epsilon, capsys, tmp_path) \
            == self.GOLDEN_MORE[(source, epsilon)]


class TestMeasureCommand:
    def test_mass_and_poisson(self, seeds, capsys):
        code, out, _ = run_cli(["measure", "--measure", str(seeds / "atom1.json"),
                                "--at", "0.5,0"], capsys)
        # atom1.json is an inner-function document; measure wants a measure doc
        assert code == 2

    def test_measure_document(self, capsys, tmp_path):
        doc = {"kind": "atoms", "atoms": [{"theta": "0", "mass": "1"}],
               "tail_mass": "0"}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["measure", "--measure", str(path),
                                "--at", "0.5,0", "--arc", "0,0.1"], capsys)
        assert code == 0
        parsed = json.loads(out)
        assert float(parsed["poisson"]) == pytest.approx(3.0)
        assert float(parsed["arc_mass"]) == 1.0
        assert float(parsed["herglotz"]["re"]) == pytest.approx(-3.0)

    def test_negative_arc_and_point_as_separate_values(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"kind": "atoms",
                                    "atoms": [{"theta": "-0.9", "mass": "1"}]}))
        code1, out1, err1 = run_cli(["measure", "--measure", str(path),
                                     "--arc", "-1,0.5", "--at", "-0.5,-0.5"], capsys)
        code2, out2, _ = run_cli(["measure", "--measure", str(path),
                                  "--arc=-1,0.5", "--at=-0.5,-0.5"], capsys)
        assert (code1, err1) == (0, "")
        assert code2 == 0 and strip_timestamp(out1) == strip_timestamp(out2)
        assert float(json.loads(out1)["arc_mass"]) == 1.0

    def test_precision_exhausted_exit_code(self, capsys, tmp_path):
        doc = {"kind": "cantor", "delta": "middle-thirds"}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        # the arc endpoint at angle pi/2 is the turn 1/4 = 0.0202...
        # (ternary), a Cantor point that is never a generation endpoint, so
        # the CDF bracket stays one generation wide and cannot reach 4e-20
        code, _, err = run_cli(["measure", "--measure", str(path),
                                "--arc", "%.17g,%.17g" % (math.pi / 4, math.pi / 4),
                                "--tol", "1e-20"], capsys)
        assert code == 3
        assert "precision exhausted" in err


class TestCantorMeasureGoldens:
    """sha256 of Cantor measure reports (Poisson, Herglotz and arc mass),
    metadata removed, recorded with the quadrature that recomputed every
    cell's bound on each round and the CDF in Fraction arithmetic."""

    MIDDLE_THIRDS = {"kind": "cantor", "delta": "middle-thirds"}
    # (measure, turn, depth, arc half-width in turns, tol, sha256): the
    # point is (1 - 2^-depth) e^{2 pi i turn} and the arc is centred on its
    # angle; the first two are the benchmark's Cantor queries
    CASES = {
        "bench-1/4": (MIDDLE_THIRDS, "1/4", 9, 3.0 ** -4, "1e-4",
                      "bfccc75d95bc4af24833f1fed16b6539d42363fc73815e435c8951c1063a00b7"),
        "bench-1/10": (MIDDLE_THIRDS, "1/10", 9, 3.0 ** -4, "1e-4",
                       "1281d6ac2bfd755148b861b8779539d301465d918e47a8d8de0353fd75e3514d"),
        "depth3": (MIDDLE_THIRDS, "0.37", 3, 0.05, "1e-6",
                   "fc7c477973b91be29358c8e16d62918e2ef4e858866ce99c53338ee436138938"),
        "depth6": (MIDDLE_THIRDS, "2/3", 6, 0.01, "1e-6",
                   "9da23e6a37b422b4dc236cc60f9062337a6344cc2f31bb17f939436b79bdd2fd"),
        "depth10": (MIDDLE_THIRDS, "7/9", 10, 1e-3, "1e-6",
                    "5cc301a87827895977355ae9d48db8795713d23e879b100073c19c1e33b9bb07"),
        "depth12": (MIDDLE_THIRDS, "1/2", 12, 1e-4, "1e-6",
                    "10c4d24bca0fe9351fdb8e96b1b3c8891743bf42792b0b3c87226a23e29609ee"),
        "removed-half": ({"kind": "cantor", "delta": {"ratio": "1/2"}}, "1/5", 7, 0.02,
                         "1e-6",
                         "6a5434aede8e99a13aa4d307078be1aadfee1ac2453af049e2085106defc5b06"),
        "delta-list": ({"kind": "cantor", "delta": ["3.0", "1.2", "0.5", "0.1"]}, "1/10", 5,
                       0.1, "1e-6",
                       "55af1c571c3216b58e744d8c12e18603ea0439d7b1c0692d8ac3eae20e37e54a"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_measure_report(self, case, capsys, tmp_path):
        doc, turn, depth, half_turns, tol, digest = self.CASES[case]
        path = tmp_path / "measure.json"
        path.write_text(json.dumps(doc))
        t = float(Fraction(turn))
        z = (1.0 - 2.0 ** -depth) * cmath.exp(2j * math.pi * t)
        code, out, _ = run_cli(["measure", "--measure", str(path),
                                "--at=%r,%r" % (z.real, z.imag),
                                "--arc", "%r,%r" % (2 * math.pi * t, 2 * math.pi * half_turns),
                                "--tol", tol], capsys)
        assert code == 0
        assert TestGoldenScans.digest(out) == digest

    def test_default_tol_out_of_reach_in_bounded_memory(self, capsys, tmp_path):
        # README's example: at 0.5 + 0.5i the default tol 1e-9 needs more
        # cells than the cap.  The quadrature that recomputed every cell's
        # bound peaked at 29.5 MB of traced memory on this query; bounding
        # new cells in blocks and reusing the room of split ones keeps it
        # near 24 MB
        path = tmp_path / "measure.json"
        path.write_text(json.dumps(self.MIDDLE_THIRDS))
        tracemalloc.start()
        try:
            code, out, err = run_cli(["measure", "--measure", str(path),
                                      "--at", "0.5,0.5", "--arc", "0.3,0.2"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "")
        assert err == ("precision exhausted: Cantor quadrature needs more than "
                       "400000 cells for tol 1e-09\n")
        assert peak < 28 * 10 ** 6


class TestErrorHandling:
    def test_malformed_json_diagnostic(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(["classify", "--inner", str(path),
                                "--depth", "6"], capsys)
        assert code == 2
        assert "line 1" in err and "column" in err

    def test_unknown_field_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"zeros_csv": "re,im\n0.5,0\n",
                                    "bogus": 1}))
        code, _, err = run_cli(["classify", "--inner", str(path),
                                "--depth", "6"], capsys)
        assert code == 2
        assert "bogus" in err

    def test_pgm_without_out_exit_code(self, seeds, capsys):
        # rejected before the input is loaded, so a missing file is not named
        for inner in (seeds / "atom1.json", "/nonexistent.json"):
            code, out, err = run_cli(["levelset", "--inner", str(inner),
                                      "--epsilon", "0.5", "--depth", "6", "--pgm"],
                                     capsys)
            assert code == 2 and out == ""
            assert err.count("\n") == 1 and "--pgm" in err and "--out" in err
            assert "nonexistent" not in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["classify", "--inner", "/nonexistent.json",
                                "--depth", "6"], capsys)
        assert code == 2

    def test_missing_zeros_csv_names_the_path(self, capsys, tmp_path):
        path = tmp_path / "inner.json"
        path.write_text(json.dumps({"zeros_csv": "nope.csv"}))
        code, _, err = run_cli(["eval", "--inner", str(path), "--at", "0.9,0"],
                               capsys)
        assert code == 2
        assert "nope.csv" in err and "Traceback" not in err

    @pytest.mark.parametrize("spec", ["", "  "])
    def test_empty_zeros_csv_names_the_field(self, spec, capsys, tmp_path):
        # not read as the file name "" under the document's directory
        path = tmp_path / "inner.json"
        path.write_text(json.dumps({"zeros_csv": spec}))
        code, out, err = run_cli(["eval", "--inner", str(path), "--at", "0.9,0"],
                                 capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "zeros_csv" in err
        assert "directory" not in err and "No such file" not in err

    def test_uncertifiable_zero_tail_exit_code(self, capsys, tmp_path):
        (tmp_path / "z.csv").write_text("re,im\n0.5,0\n")
        path = tmp_path / "inner.json"
        path.write_text(json.dumps({"zeros_csv": "z.csv",
                                    "zeros_tail_blaschke_sum": "0.3"}))
        code, _, err = run_cli(["eval", "--inner", str(path), "--at", "0.9,0"],
                               capsys)
        assert code == 3
        assert err.count("\n") == 1 and "tail" in err

    def test_zero_tail_stops_the_radius_walk_exit_code(self, seeds, capsys):
        # near the accumulation point no band deep enough to pass can be
        # certified for the declared tail: exit 3, naming the input field
        inner = str(seeds / "radial_geometric.json")
        code, out, err = run_cli(["construct", "--inner", inner, "--horizon", "60",
                                  "--depth", "6"], capsys)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "zeros_tail_blaschke_sum" in err

    def test_zero_tail_larger_than_a_scan_square_exit_code(self, capsys, tmp_path):
        # the tail 2 exceeds the side of level 2's squares, so their zero
        # mass is not certified: exit 3, naming the input field
        path = tmp_path / "inner.json"
        path.write_text(json.dumps({"zeros_csv": "re,im\n0.5,0\n",
                                    "zeros_tail_blaschke_sum": "2"}))
        code, out, err = run_cli(["classify", "--inner", str(path), "--depth", "4"],
                                 capsys)
        assert code == 3 and out == ""
        assert err == ("precision exhausted: zeros_tail_blaschke_sum 2 exceeds "
                       "the square side 0.589049\n")

    @pytest.mark.parametrize("delta", ["1e-300", "1e-10"])
    def test_collapsed_cantor_generations_exit_code(self, delta, capsys, tmp_path):
        # generation 2's intervals, 4e-602 and 4e-22 radians wide, round to
        # points; the sawtooth test's cover of the support meets them
        path = tmp_path / "inner.json"
        path.write_text(json.dumps({"measure": {"kind": "cantor", "delta": [delta]}}))
        code, out, err = run_cli(["classify", "--inner", str(path), "--depth", "6"],
                                 capsys)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "generation 2" in err

    def test_narrow_cantor_generations_classify(self, capsys, tmp_path):
        # sha256 of the report, metadata removed, recorded before collapsed
        # generations were detected
        path = tmp_path / "inner.json"
        path.write_text(json.dumps({"measure": {"kind": "cantor", "delta": ["0.001"]}}))
        code, out, _ = run_cli(["classify", "--inner", str(path), "--depth", "6"],
                               capsys)
        assert code == 0
        assert TestGoldenScans.digest(out) == \
            "69ddf595321cc5b23c568a75a242af649ccc1bab1bd1691c1ce1a0fd672c1aa7"


NON_FINITE_CASES = {
    "eval-point": (["eval", "--at", "nan,0"], {"zeros_csv": "re,im\n0.5,0\n"}),
    "measure-point": (["measure", "--at", "nan,0"],
                      {"kind": "atoms", "atoms": [{"theta": "0", "mass": "1"}]}),
    "atom-mass": (["classify", "--depth", "4"],
                  {"measure": {"kind": "atoms",
                               "atoms": [{"theta": "0", "mass": "nan"}]}}),
    "cdf-value": (["classify", "--depth", "4"],
                  {"measure": {"kind": "cdf",
                               "samples": [["0", "0"], ["1", "nan"], ["2", "1"]]}}),
    "zero": (["classify", "--depth", "4"], {"zeros_csv": "re,im\nnan,0\n"}),
}

MALFORMED_CASES = {
    "lambda": ({"lambda": 1}, "lambda"),
    "cdf-sample": ({"measure": {"kind": "cdf", "samples": [["0"], ["1", "1"]]}},
                   "measure.samples[0]"),
    "zeros-csv": ({"zeros_csv": 5}, "zeros_csv"),
    "atoms-list": ({"measure": {"kind": "atoms", "atoms": 5}}, "measure.atoms"),
    "samples-list": ({"measure": {"kind": "cdf", "samples": 5}}, "measure.samples"),
    "zero-angles-list": ({"zeros_csv": "re,im\n0.5,0\n",
                          "zero_accumulation_angles": 5}, "zero_accumulation_angles"),
    "atom-mass": ({"measure": {"kind": "atoms", "atoms": [{"theta": "0.1"}]}},
                  "mass"),
    "cantor-ratio": ({"measure": {"kind": "cantor", "delta": {"ratio": "abc"}}},
                     "ratio"),
}


HUGE_ATOMS = {"kind": "atoms", "atoms": [{"theta": "0", "mass": "1e308"},
                                         {"theta": "1", "mass": "1e308"}]}
CLOSE_ATOMS = {"kind": "atoms", "atoms": [{"theta": "0", "mass": "5e307"},
                                          {"theta": "0.001", "mass": "5e307"}]}
STEEP_CDF = {"kind": "cdf", "samples": [["0", "0"], ["1", "1e308"], ["6", "1.5e308"]]}
INFINITE_SLOPE_CDF = {"kind": "cdf", "samples": [["0", "0"], ["1e-320", "1"], ["6", "2"]]}
OVERFLOW_CASES = {
    "atoms-measure": (["measure", "--at", "0.5,0"], HUGE_ATOMS),
    "atoms-levelset": (["levelset", "--depth", "4", "--epsilon", "0.5"],
                       {"measure": HUGE_ATOMS}),
    "close-atoms-measure": (["measure", "--at", "0.33,0"], CLOSE_ATOMS),
    "cdf-rise-measure": (["measure", "--at", "0.5,0"], STEEP_CDF),
    "cdf-rise-eval": (["eval", "--at", "0.5,0"], {"measure": STEEP_CDF}),
    "cdf-rise-classify": (["classify", "--depth", "4"], {"measure": STEEP_CDF}),
    "cdf-slope-measure": (["measure", "--at", "0.5,0"], INFINITE_SLOPE_CDF),
    "cdf-slope-eval": (["eval", "--at", "0.5,0"], {"measure": INFINITE_SLOPE_CDF}),
    "cdf-slope-classify": (["classify", "--depth", "4"], {"measure": INFINITE_SLOPE_CDF}),
}


class TestInputValidation:
    @pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
    def test_non_finite_input_exit_code(self, case, capsys, tmp_path):
        args, doc = NON_FINITE_CASES[case]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        flag = "--measure" if args[0] == "measure" else "--inner"
        code, out, err = run_cli(args[:1] + [flag, str(path)] + args[1:], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
    def test_mass_past_2_960_exit_code(self, case, capsys, tmp_path):
        # these crashed with an OverflowError in math.fsum, or put nan into
        # a report, before a measure's mass and CDF slopes were bounded
        args, doc = OVERFLOW_CASES[case]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        flag = "--measure" if args[0] == "measure" else "--inner"
        code, out, err = run_cli(args[:1] + [flag, str(path)] + args[1:], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "2^960" in err

    def test_atomic_mass_of_2_960_answers(self, capsys, tmp_path):
        # P <= 2^54 at the deepest double point, so the Poisson midpoint
        # stays finite; at twice the mass per atom, past the bound, the
        # midpoint sum overflowed to inf
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"kind": "atoms", "atoms": [
            {"theta": "0", "mass": repr(2.0 ** 959)},
            {"theta": "1e-300", "mass": repr(2.0 ** 959)}]}))
        code, out, err = run_cli(["measure", "--measure", str(path), "--at",
                                  "0.99999999999999989,0", "--arc", "0,0.1"], capsys)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert float(report["total_mass"]) == 2.0 ** 960
        values = [report["poisson"], report["arc_mass"], report["herglotz"]["re"],
                  report["herglotz"]["im"]]
        assert all(math.isfinite(float(v)) for v in values)

    @pytest.mark.parametrize("command", [
        ["eval", "--at", "0.5,0"], ["classify", "--depth", "4"],
        ["measure", "--at", "0.5,0"]], ids=["eval", "classify", "measure"])
    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exit_code(self, command, tol, capsys, tmp_path):
        path = tmp_path / "doc.json"
        if command[0] == "measure":
            path.write_text(json.dumps({"kind": "atoms",
                                        "atoms": [{"theta": "0", "mass": "1"}]}))
            flag = "--measure"
        else:
            path.write_text(json.dumps({"zeros_csv": "re,im\n0.5,0\n"}))
            flag = "--inner"
        code, out, err = run_cli(command[:1] + [flag, str(path)] + command[1:]
                                 + ["--tol", tol], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--tol" in err

    @pytest.mark.parametrize("case", sorted(MALFORMED_CASES))
    def test_malformed_document_names_the_field(self, case, capsys, tmp_path):
        doc, field = MALFORMED_CASES[case]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["classify", "--inner", str(path),
                                  "--depth", "4"], capsys)
        assert code == 2
        assert err.count("\n") == 1 and field in err

    @pytest.mark.parametrize("command", [
        ["eval", "--at", "0.5,0"], ["classify", "--depth", "4"],
        ["measure", "--at", "0.5,0"]], ids=["eval", "classify", "measure"])
    @pytest.mark.parametrize("tol", ["0", "-1", "-0.0"])
    def test_non_positive_tol_exit_code(self, command, tol, capsys, tmp_path):
        path = tmp_path / "doc.json"
        if command[0] == "measure":
            path.write_text(json.dumps({"kind": "atoms",
                                        "atoms": [{"theta": "0", "mass": "1"}]}))
            flag = "--measure"
        else:
            path.write_text(json.dumps({"zeros_csv": "re,im\n0.5,0\n"}))
            flag = "--inner"
        code, out, err = run_cli(command[:1] + [flag, str(path)] + command[1:]
                                 + ["--tol", tol], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--tol" in err

    @pytest.mark.parametrize("zeros_csv, measure", [
        ("re,im\n0.5,0\n", None),
        (None, {"kind": "atoms", "atoms": [{"theta": "0", "mass": "1"}]})],
        ids=["product", "atom1"])
    @pytest.mark.parametrize("tol", ["1", "2"])
    def test_classify_tol_of_one_or_more_exit_code(self, zeros_csv, measure, tol, capsys,
                                                   tmp_path):
        # at tol >= 1 every lower end passes the witness threshold 1 - tol
        doc = {"zeros_csv": zeros_csv} if zeros_csv else {"measure": measure}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["classify", "--inner", str(path), "--depth", "6",
                                  "--tol", tol], capsys)
        assert (code, out) == (2, "")
        assert err == "error: scan tol must lie in (0, 1), got %r\n" % float(tol)

    @pytest.mark.parametrize("args", [
        ["eval", "--at", "0.5,0"], ["classify", "--depth", "6"],
        ["levelset", "--epsilon", "0.5", "--depth", "4"],
        ["construct", "--horizon", "10", "--depth", "4"]],
        ids=["eval", "classify", "levelset", "construct"])
    def test_cdf_inner_document_exit_code(self, args, capsys, tmp_path):
        # a CDF rising on [0, 1] is absolutely continuous, so exp(-P[sigma])
        # is not inner; measure still answers on the measure alone
        rising = {"kind": "cdf", "samples": [["0", "0"], ["1", "1"], ["6", "1"]]}
        inner, measure = tmp_path / "inner.json", tmp_path / "measure.json"
        inner.write_text(json.dumps({"measure": rising}))
        measure.write_text(json.dumps(rising))
        code, out, err = run_cli(args[:1] + ["--inner", str(inner)] + args[1:], capsys)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "kind cdf is absolutely continuous" in err
        code, out, err = run_cli(["measure", "--measure", str(measure), "--at", "0.5,0",
                                  "--arc", "0.5,0.25"], capsys)
        assert (code, err) == (0, "")
        assert float(json.loads(out)["arc_mass"]) == 0.5

    @pytest.mark.parametrize("args, option", [
        (["levelset", "--epsilon", "abc"], "--epsilon"),
        (["levelset", "--epsilon", "nan"], "--epsilon"),
        (["levelset", "--epsilon", "0.5", "--depth", "abc"], "--depth"),
        (["levelset", "--epsilon", "0.5", "--depth", "4.5"], "--depth"),
        (["classify", "--depth", "abc"], "--depth"),
        (["classify", "--depth", "inf"], "--depth"),
        (["construct", "--horizon", "-5"], "--horizon"),
        (["construct", "--horizon", "0"], "--horizon"),
        (["construct", "--horizon", "2.5"], "--horizon"),
        (["construct", "--horizon", "abc"], "--horizon"),
        (["construct", "--depth", "x"], "--depth"),
        (["--threads", "abc", "classify", "--depth", "4"], "--threads"),
        (["--threads", "0", "classify", "--depth", "4"], "--threads"),
        (["--threads", "1.5", "classify", "--depth", "4"], "--threads"),
    ], ids=lambda v: v if isinstance(v, str) else "_".join(v[:3]))
    def test_malformed_numeric_option(self, args, option, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"zeros_csv": "re,im\n0.5,0\n"}))
        command = next(i for i, a in enumerate(args)
                       if a in ("levelset", "classify", "construct"))
        argv = args[:command + 1] + ["--inner", str(path)] + args[command + 1:]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and option in err

    OUT_COMMANDS = [
        ["eval", "--at", "0.5,0"], ["classify", "--depth", "4"],
        ["levelset", "--epsilon", "0.5", "--depth", "4", "--pgm"],
        ["construct", "--horizon", "3", "--depth", "4"],
        ["measure", "--at", "0.5,0"], ["seed-examples"]]

    @staticmethod
    def with_input(command, tmp_path):
        """command with its input: a one-atom measure or a one-zero product."""
        argv = list(command)
        path = tmp_path / "doc.json"
        if command[0] == "measure":
            path.write_text(json.dumps({"kind": "atoms",
                                        "atoms": [{"theta": "0", "mass": "1"}]}))
            argv[1:1] = ["--measure", str(path)]
        elif command[0] != "seed-examples":
            path.write_text(json.dumps({"zeros_csv": "re,im\n0.5,0\n"}))
            argv[1:1] = ["--inner", str(path)]
        return argv

    @pytest.mark.parametrize("command", OUT_COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_unusable_out_exit_code(self, command, below, capsys, tmp_path):
        # a regular file where the output directory, or its parent, should be
        taken = tmp_path / "taken"
        taken.write_text("")
        out_dir = str(taken / "sub" if below else taken)
        argv = self.with_input(command, tmp_path) + ["--out", out_dir]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "taken" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", OUT_COMMANDS, ids=lambda c: c[0])
    def test_out_before_the_command_rejected(self, command, capsys, tmp_path,
                                             monkeypatch):
        # --out is each command's own option; before the command it is none
        argv = ["--out", "d"] + self.with_input(command, tmp_path)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--seed-examples"],
                                      ["--seed-examples", "--out", "d"]],
                             ids=["bare", "with-out"])
    def test_seed_examples_flag_rejected(self, argv, capsys, tmp_path, monkeypatch):
        # the seed-examples command is the one way to write the examples
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, words", [
        ([], "required: command"),
        (["classify"], "required: --inner"),
        (["classify", "--inner", "doc.json", "--bogus"], "unrecognized arguments: --bogus"),
        (["nope"], "invalid choice: 'nope'"),
    ], ids=["missing-command", "missing-option", "unknown-option", "invalid-choice"])
    def test_argparse_error_one_line(self, argv, words, capsys):
        # main returns 2, with no usage block and no SystemExit
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and words in err

    def test_command_help_exits_zero(self, capsys):
        # help is argparse's exit, not an error: it still prints and exits 0
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: onecomp classify")

    @pytest.mark.parametrize("args, least", [
        (["classify", "--depth", "1"], 2),
        (["levelset", "--epsilon", "0.5", "--depth", "2"], 3),
        (["construct", "--horizon", "3", "--depth", "1"], 2),
    ], ids=lambda v: v[0] if isinstance(v, list) else str(v))
    def test_shallow_depth_rejected_before_evaluation(self, args, least, capsys,
                                                      tmp_path, monkeypatch):
        self.rejected_before_evaluation(args, "--depth", least, capsys, tmp_path,
                                        monkeypatch)

    def test_one_zero_horizon_rejected_before_evaluation(self, capsys, tmp_path,
                                                         monkeypatch):
        # the separation check of the placed zeros needs two of them
        self.rejected_before_evaluation(["construct", "--horizon", "1", "--depth", "4"],
                                        "--horizon", 2, capsys, tmp_path, monkeypatch)

    @staticmethod
    def rejected_before_evaluation(args, option, least, capsys, tmp_path, monkeypatch):
        def evaluation(*_args, **_kwargs):
            raise AssertionError("evaluated before %s was checked" % option)

        for name in ("classify", "level_set_components", "construct_companion",
                     "_load_inner"):
            monkeypatch.setattr(cli, name, evaluation)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"zeros_csv": "re,im\n0.5,0\n"}))
        code, out, err = run_cli(args[:1] + ["--inner", str(path)] + args[1:], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert option in err and "at least %d" % least in err

    @staticmethod
    def deep_depth_rejected_before_loading(command, evaluator, cap, depth, capsys,
                                           tmp_path, monkeypatch):
        def evaluation(*_args, **_kwargs):
            raise AssertionError("loaded or evaluated before --depth was checked")

        for name in (evaluator, "_load_inner"):
            monkeypatch.setattr(cli, name, evaluation)
        code, out, err = run_cli(command + ["--inner", str(tmp_path / "absent.json"),
                                            "--depth", str(depth)], capsys)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("precision exhausted: --depth: %d " % depth)
        assert "past %d" % cap in err

    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 54, 10 ** 9])
    def test_deep_classify_rejected_before_loading(self, depth, capsys, tmp_path,
                                                   monkeypatch):
        self.deep_depth_rejected_before_loading(["classify"], "classify", MAX_DEPTH,
                                                depth, capsys, tmp_path, monkeypatch)

    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 54, 10 ** 9])
    def test_deep_construct_rejected_before_loading(self, depth, capsys, tmp_path,
                                                    monkeypatch):
        self.deep_depth_rejected_before_loading(["construct"], "construct_companion",
                                                MAX_DEPTH, depth, capsys, tmp_path,
                                                monkeypatch)

    @pytest.mark.parametrize("depth", [LEVEL_SET_MAX_DEPTH + 1, 54, 10 ** 9])
    def test_deep_levelset_rejected_before_loading(self, depth, capsys, tmp_path,
                                                   monkeypatch):
        self.deep_depth_rejected_before_loading(["levelset", "--epsilon", "0.5"],
                                                "level_set_components",
                                                LEVEL_SET_MAX_DEPTH, depth, capsys,
                                                tmp_path, monkeypatch)

    def test_classify_at_the_depth_cap(self, seeds, capsys):
        code, out, _ = run_cli(["classify", "--inner", str(seeds / "atom1.json"),
                                "--depth", str(MAX_DEPTH)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "OneComponentEvidence"
        assert len(doc["depth_trace"]) == MAX_DEPTH - 1

    def test_construct_at_the_depth_cap(self, seeds, capsys):
        code, out, _ = run_cli(["construct", "--inner", str(seeds / "atom1.json"),
                                "--horizon", "200", "--depth", str(MAX_DEPTH)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["verified"] and doc["spot_check"]["points_checked"] > 0
        assert len(doc["report_b"]["depth_trace"]) == MAX_DEPTH - 1

    def test_valid_numeric_options(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"zeros_csv": "re,im\n0.5,0\n"}))
        code, out, _ = run_cli(["--threads", "2", "levelset", "--inner", str(path),
                                "--epsilon", "0.5", "--depth", "4"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["depth"] == 4 and doc["metadata"]["threads"] == 2
        code, out, _ = run_cli(["construct", "--inner", str(path),
                                "--horizon", "3", "--depth", "4"], capsys)
        assert code == 0
        assert len(load_zeros_csv(json.loads(out)["zeros_csv"])) == 3


class TestGoldenScans:
    """sha256 of scan reports, metadata removed, recorded with the per-point
    scan that the one-call-per-level scan replaced."""

    CLASSIFY = {
        "atom1": "172c3499c700534713b897b274b71477bba45234adfc30f54d4b04b407396cc5",
        "atoms2": "6cc0387b7ba156cc6c1d8181b959ae169fb599b98e8df8b7afd597bdef6d7a4f",
        "example1": "1d8bf5bf8d363331ee2d097d2ad41c8634e3bbc83c3c23d84ef1d751f755b922",
        "radial_geometric":
            "8c69617f8772fbcc594d6ce0069d3a5babe981de6d8dd8f71e510a2f72a2cb52",
        "radial_sparse": "394c49199e72c9a0cfed01704adcbc2cc26503841b2c77a300917ff8957c0ca1",
    }
    # classify --depth 18, recorded with the full-level scan that the scan
    # next to listed mass replaced
    CLASSIFY_DEPTH18 = {
        "atom1": "98f734015fa4def8a735b9dd543ad50b241dcd8741871b3187cae46c49b30b9e",
        "atoms2": "aeabd5204334c0b8a1b63c720e87ed07ea92bebcb6150de02edb731c8fbae8a0",
        "example1": "7c5b2119bb553624956e8e4fdbf97c7106658c2d8fe1b3307e043b830ca61b45",
        "radial_geometric":
            "6501e468e7b50068c528552fede5687ef675086251fe3d26075b0fd0e056f807",
        "radial_sparse": "0e0f80da605be5dd29af68d666de9bdc95fcd42a74b39061c77eb67529e6edaf",
    }
    # construct --horizon 500 --depth 10: (zero CSV, companion.json).
    # "closed" is --horizon 500 --depth 6 on the one-zero document {0.5},
    # whose closed chain of 87 zeros the horizon covers.  The zero CSVs were
    # recorded with the separate closed-chain march that the shared frontier
    # loop replaced; companion.json was re-recorded when the spot check came
    # to visit only mass-carrying points, after checking that only its
    # points_checked and points_above_threshold differ from the full-level
    # check's report
    CONSTRUCT = {
        "atom1": ("90210ab58200d675a9cd425f395496e18af11a21cc8a266791c4de27cc8d0743",
                  "c8cef11cb9880d6c15827b237ed0687ab950f1b14321683cf180b6b20199884f"),
        "atoms2": ("001edf283f65919ca22829e2cf34ccd0de489c652b901d481c9b0855a607c5c2",
                   "4341fe53f81145e461956ca3ecb1f34e1e8dd511d18591dfa19d284d1870b5ac"),
        "closed": ("98d7ab23128e7166205cba465cdaabf7ee87b78d99f227860d7f5f7141222bfe",
                   "7375c39575dfea4870d816f2dd9a96299cc1a9e2495ff32f4a371ce9a5493cf8"),
    }

    # levelset --depth 10 --pgm on {0.5, 0.5i, -0.5}: (levelset.csv,
    # levelset.pgm), recorded with the depth-first traversal that the
    # one-call-per-depth traversal replaced
    LEVELSET_DEPTH10 = {
        "0.1": ("07c354f276e0040552eded11f2cc6490556f815df10ccdab106308bf67d4c47a",
                "383b10c440780033c6631dded608995b8b12cc12efb1514e486d3397f6810fea"),
        "0.5": ("1da4b6f806624e129eede5d6abad0d5f235db81fbb4179eed07110ed160e1d9e",
                "216d609a61e7d4d6d1679a9dd63a3ae5f6c24e1f7eefe28f5e9ab0621c6f9c8a"),
        "0.9": ("6e8b2f4553987c9299a827659c70172c21d03824864624bf24e0162e364f8fd5",
                "f913a1e628605c1df494c1b028cea0910edebb3ab5bd07224748e1689337cd01"),
    }
    # the same on {0.5} and {0.5, 0.5i}, recorded with the per-depth slice
    # loop that the run-length raster of to_pgm replaced
    LEVELSET_DEPTH10_MORE = {
        ("re,im\n0.5,0\n", "0.1"): (
            "9645b6ad37853745c0fd2449307f72691b1d03ea7cc1d2700159c27164b121b3",
            "bdccf90171c2728b270dc1804259f2173d2a98631a72a4221f4efa74a28090b5"),
        ("re,im\n0.5,0\n", "0.5"): (
            "7dfc4d148bfbd4b5a2d540ecd17adb1ce326430e3dc7cd59fa4352c7196e5044",
            "d15e5ad75e67cf35ac6f6c1b4682d54609216afc52d0040073973694641ccb48"),
        ("re,im\n0.5,0\n", "0.9"): (
            "9bc423fdc81188edc5abb2bcd1be128c509fd8e4c74f44f0669830b1f01eb6c2",
            "013b70828ef28b298cd4532097fb69cb7a67fd3493bd662f47f91514cd50c384"),
        ("re,im\n0.5,0\n0,0.5\n", "0.1"): (
            "77d0a4375d2c07bdc4adf64c50f29bd0705b0e4be8f48c5eb4f244d84280a0ca",
            "4f1bfdc19ee877c75bc8b7ae25a5dc736677c3c97d00b52a0ec40a1ed2eeedd6"),
        ("re,im\n0.5,0\n0,0.5\n", "0.5"): (
            "38f406fc11e4160db3d120b36b926ad9df151eee217d4d490e1cf83a4dadd21a",
            "f3143725ab1d08f382d6611870fce5f528bc63ba27fb9a0531ba4c670548d5f7"),
        ("re,im\n0.5,0\n0,0.5\n", "0.9"): (
            "a3569ac3a7de528e831b23fc2b5b10f7f34aa9abc0446287758655e6ebc4002b",
            "684fb824a8d4f028923dd8a2773f2cfb1d9d3a442987ab4a4cdfb54af0138e2f"),
    }

    @staticmethod
    def digest(text: str) -> str:
        doc = json.loads(text)
        del doc["metadata"]
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()

    @pytest.mark.parametrize("family", sorted(CLASSIFY))
    def test_classify_depth14(self, family, seeds, capsys):
        code, out, _ = run_cli(["classify", "--inner", str(seeds / (family + ".json")),
                                "--depth", "14"], capsys)
        assert code == 0
        assert self.digest(out) == self.CLASSIFY[family]

    @pytest.mark.parametrize("family", sorted(CLASSIFY_DEPTH18))
    def test_classify_depth18(self, family, seeds, capsys):
        code, out, _ = run_cli(["classify", "--inner", str(seeds / (family + ".json")),
                                "--depth", "18"], capsys)
        assert code == 0
        assert self.digest(out) == self.CLASSIFY_DEPTH18[family]

    @staticmethod
    def levelset_digests(zeros_csv, epsilon, capsys, tmp_path):
        inner = tmp_path / "inner.json"
        inner.write_text(json.dumps({"zeros_csv": zeros_csv}))
        code, _, _ = run_cli(["levelset", "--inner", str(inner), "--depth", "10",
                              "--epsilon", epsilon, "--pgm", "--out", str(tmp_path)],
                             capsys)
        assert code == 0
        return tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                     for name in ("levelset.csv", "levelset.pgm"))

    @pytest.mark.parametrize("epsilon", sorted(LEVELSET_DEPTH10))
    def test_levelset_depth10(self, epsilon, capsys, tmp_path):
        assert self.levelset_digests("re,im\n0.5,0\n0,0.5\n-0.5,0\n", epsilon,
                                     capsys, tmp_path) == self.LEVELSET_DEPTH10[epsilon]

    @pytest.mark.parametrize("zeros_csv,epsilon", sorted(LEVELSET_DEPTH10_MORE))
    def test_levelset_depth10_more(self, zeros_csv, epsilon, capsys, tmp_path):
        assert self.levelset_digests(zeros_csv, epsilon, capsys, tmp_path) \
            == self.LEVELSET_DEPTH10_MORE[(zeros_csv, epsilon)]

    def construct_digests(self, inner, depth, capsys, tmp_path):
        code, _, _ = run_cli(["construct", "--inner", str(inner),
                              "--horizon", "500", "--depth", str(depth),
                              "--out", str(tmp_path)], capsys)
        assert code == 0
        text = (tmp_path / "companion.json").read_text()
        zeros = json.loads(text)["zeros_csv"]
        return (hashlib.sha256(zeros.encode()).hexdigest(), self.digest(text))

    def test_construct_atom1(self, seeds, capsys, tmp_path):
        assert self.construct_digests(seeds / "atom1.json", 10, capsys, tmp_path) == \
            self.CONSTRUCT["atom1"]

    def test_construct_atoms2(self, seeds, capsys, tmp_path):
        assert self.construct_digests(seeds / "atoms2.json", 10, capsys, tmp_path) == \
            self.CONSTRUCT["atoms2"]

    def test_construct_closed_chain(self, capsys, tmp_path):
        inner = tmp_path / "half.json"
        inner.write_text(json.dumps({"zeros_csv": "re,im\n0.5,0\n"}))
        assert self.construct_digests(inner, 6, capsys, tmp_path) == \
            self.CONSTRUCT["closed"]


class TestRoundTrip:
    def test_zeros_csv_reload_identity(self, seeds, capsys, tmp_path):
        code, out, _ = run_cli(["construct", "--inner", str(seeds / "atom1.json"),
                                "--horizon", "60", "--depth", "6",
                                "--out", str(tmp_path)], capsys)
        assert code == 0
        doc = json.loads((tmp_path / "companion.json").read_text())
        zeros = load_zeros_csv(doc["zeros_csv"])
        assert len(zeros) == 60
        assert load_zeros_csv(dump_zeros_csv(zeros)) == zeros
        assert (tmp_path / "gamma.csv").read_text().startswith("component,re,im\n")

    def test_construct_reruns_byte_identical(self, seeds, capsys):
        args = ["construct", "--inner", str(seeds / "atom1.json"),
                "--horizon", "50", "--depth", "6"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert strip_timestamp(out1) == strip_timestamp(out2)

    def test_entry_point_runs(self):
        proc = subprocess.run([sys.executable, "-m", "onecomp.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "classify" in proc.stdout
