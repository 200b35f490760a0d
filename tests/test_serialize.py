import math

import pytest

from onecomp.errors import DomainError
from onecomp.families import example1_measure, finite_blaschke, single_atom
from onecomp.inner import InnerFunction, SingularInner
from onecomp.measures import AtomicMeasure, CantorMeasure, CdfMeasure
from onecomp.serialize import (dumps, inner_from_json, inner_to_json,
                               measure_from_json, measure_to_json)


class TestMeasureRoundTrip:
    def test_atomic(self):
        sigma = AtomicMeasure([(0.0, 1.0), (2.5, 0.25)], tail_mass=0.0)
        back = measure_from_json(measure_to_json(sigma))
        assert back.atoms == sigma.atoms
        assert back.tail_mass == 0.0

    def test_atoms_on_one_angle_are_rejected(self):
        # -1e-20 and 0 are one point of the circle
        with pytest.raises(DomainError, match="distinct"):
            AtomicMeasure([(-1e-20, 1.0), (0.0, 1.0)])

    def test_an_atom_just_below_zero_reads_back(self):
        sigma = AtomicMeasure([(-1e-20, 1.0), (1.0, 0.5)])
        doc = inner_to_json(InnerFunction(singular=SingularInner(sigma)))
        assert [a["theta"] for a in doc["measure"]["atoms"]] == ["0", "1"]
        back = inner_from_json(doc).singular.sigma
        assert back.atoms == sigma.atoms == [(0.0, 1.0), (1.0, 0.5)]

    def test_atomic_with_truncation_metadata(self):
        sigma = example1_measure()
        doc = measure_to_json(sigma)
        assert float(doc["tail_mass"]) > 0.0
        back = measure_from_json(doc)
        assert back.total_mass() == pytest.approx(sigma.total_mass())
        assert not back.support().is_empty()

    def test_cantor_middle_thirds_label(self):
        doc = measure_to_json(CantorMeasure.middle_thirds())
        assert doc == {"kind": "cantor", "delta": "middle-thirds"}
        back = measure_from_json(doc)
        assert back.delta(1) == pytest.approx(2.0 * math.pi * 2.0 / 3.0)

    def test_cdf(self):
        sigma = CdfMeasure([(0.0, 0.0), (1.0, 0.5), (2.0 * math.pi, 1.0)])
        back = measure_from_json(measure_to_json(sigma))
        assert back.cdf(0.5) == pytest.approx(0.25)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            measure_from_json({"kind": "lebesgue"})

    def test_unknown_field_rejected(self):
        with pytest.raises(DomainError):
            measure_from_json({"kind": "cantor", "delta": "middle-thirds",
                               "extra": 1})

    @pytest.mark.parametrize("delta, message", [
        (["1e-300", "0.1"],
         "measure.delta[1]: expected a number in (0, measure.delta[0]), got '0.1'"),
        (["7"], "measure.delta[0]: expected a number in (0, 2 pi), got '7'"),
        (["-1"], "measure.delta[0]: expected a number in (0, 2 pi), got '-1'"),
        ([], "measure.delta: expected a nonempty list"),
    ])
    def test_cantor_delta_list_names_the_entry(self, delta, message):
        # each entry lies in (0, previous entry), the first in (0, 2 pi)
        with pytest.raises(DomainError) as err:
            measure_from_json({"kind": "cantor", "delta": delta})
        assert str(err.value) == message

    def test_cantor_delta_list_round_trip(self):
        sigma = measure_from_json({"kind": "cantor", "delta": ["4", 2.5]})
        assert [sigma.delta(n) for n in (1, 2, 3)] == [4.0, 2.5, 2.5 * 2.5 / 4.0]
        assert measure_from_json(measure_to_json(sigma)).delta(8) == sigma.delta(8)

    def test_ten_entry_delta_list_round_trip(self):
        # one entry is written per listed ratio: a list longer than 8 keeps
        # its deep entries, and the ratio that continues past it
        deltas = [6.0 * 0.6 ** n for n in range(1, 11)]
        deltas[-1] *= 0.1
        sigma = measure_from_json({"kind": "cantor", "delta": [repr(d) for d in deltas]})
        back = measure_from_json(measure_to_json(sigma))
        assert [back.delta(n) for n in range(13)] == [sigma.delta(n) for n in range(13)]
        assert back.poisson_bounds(0.99, 1e-6) == sigma.poisson_bounds(0.99, 1e-6)


class TestInnerRoundTrip:
    def test_blaschke_with_singular(self):
        theta = finite_blaschke([0.5, -0.25j], unimodular=1j)
        theta.singular = single_atom().singular
        doc = inner_to_json(theta)
        back = inner_from_json(doc)
        for z in (0.1 + 0.2j, -0.5j):
            assert back.evaluate(z, 1e-12) == pytest.approx(
                theta.evaluate(z, 1e-12), abs=1e-12)

    def test_decimal_strings_everywhere(self):
        text = dumps(inner_to_json(single_atom()))
        assert '"mass": "1"' in text

    def test_non_numeric_rejected(self):
        with pytest.raises(DomainError):
            measure_from_json({"kind": "atoms",
                               "atoms": [{"theta": "zero", "mass": "1"}],
                               "tail_mass": "0"})
