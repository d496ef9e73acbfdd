"""Map-file parsing, validation, and canonical emission."""

import math

import numpy as np
import pytest

from spiralmaps.criteria import SpiralParams
from spiralmaps.harmonic import HarmonicMapSpec
from spiralmaps.mapfile import (
    MapDocument,
    MapFileError,
    document_from_map,
    emit_map_document,
    format_number,
    parse_map_document,
)

GOOD = """{
  "lambda": 0.785398163,
  "truncation": 2,
  "signed_form": false,
  "a": [],
  "b": [[0, 0], [0.25, -0.1]]
}
"""


class TestParse:
    def test_good_file(self):
        doc = parse_map_document(GOOD)
        m, p = doc.build()
        assert p.lam == 0.785398163
        assert m.truncation_order == 2
        assert m.b_coeff(2) == 0.25 - 0.1j

    def test_catalog_file(self):
        doc = parse_map_document(
            '{"lambda": 0.5, "truncation": 2, "signed_form": false,'
            ' "catalog": {"name": "f2", "params": {"alpha": 0.95}}}'
        )
        m, p = doc.build()
        assert abs(m.b_coeff(2)) > 0

    def test_rejects_nan(self):
        with pytest.raises(MapFileError):
            parse_map_document(GOOD.replace("0.25", "NaN"))

    def test_rejects_inf(self):
        with pytest.raises(MapFileError):
            parse_map_document(GOOD.replace("0.25", "Infinity"))

    def test_rejects_both_arrays_and_catalog(self):
        with pytest.raises(MapFileError, match="exactly one"):
            parse_map_document(
                '{"lambda": 0.1, "truncation": 1, "a": [], "b": [],'
                ' "catalog": {"name": "identity"}}'
            )

    def test_rejects_neither(self):
        with pytest.raises(MapFileError, match="exactly one"):
            parse_map_document('{"lambda": 0.1, "truncation": 1}')

    def test_rejects_bad_lambda(self):
        with pytest.raises(MapFileError, match="lambda"):
            parse_map_document(GOOD.replace("0.785398163", "1.6"))
        with pytest.raises(MapFileError, match="lambda"):
            parse_map_document(GOOD.replace("0.785398163", '"x"'))

    def test_rejects_bad_truncation(self):
        with pytest.raises(MapFileError, match="truncation"):
            parse_map_document(GOOD.replace('"truncation": 2', '"truncation": 0'))

    def test_rejects_malformed_pair(self):
        with pytest.raises(MapFileError, match="'b' entry 1"):
            parse_map_document(GOOD.replace("[0.25, -0.1]", "[0.25]"))

    def test_rejects_unknown_field(self):
        with pytest.raises(MapFileError, match="unknown field"):
            parse_map_document(GOOD.replace('"a":', '"weird": 1, "a":'))

    def test_reports_json_error_location(self):
        with pytest.raises(MapFileError, match="line"):
            parse_map_document("{ not json }")

    def test_rejects_unknown_catalog(self):
        with pytest.raises(MapFileError, match="unknown catalog"):
            parse_map_document(
                '{"lambda": 0.1, "truncation": 1, "catalog": {"name": "nope"}}'
            )


class TestEmit:
    def test_roundtrip_byte_identical(self):
        doc = parse_map_document(GOOD)
        text = emit_map_document(doc)
        again = emit_map_document(parse_map_document(text))
        assert text == again

    def test_catalog_roundtrip(self):
        doc = MapDocument(
            lam=math.pi / 3, truncation=2, signed_form=False,
            catalog_name="f2", catalog_params={"alpha": 0.95},
        )
        text = emit_map_document(doc)
        again = emit_map_document(parse_map_document(text))
        assert text == again

    def test_catalog_complex_parameter_roundtrip(self):
        from spiralmaps.criteria import weight_table

        doc = MapDocument(
            lam=0.4, truncation=2, signed_form=False,
            catalog_name="f2", catalog_params={"alpha": [0.3, -0.2]},
        )
        text = emit_map_document(doc)
        parsed = parse_map_document(text)
        assert emit_map_document(parsed) == text
        m, p = parsed.build()
        ratio = weight_table(p, 2).necessary_ratios()[2]
        assert abs(abs(m.b_coeff(2)) - abs(complex(0.3, -0.2)) * ratio) < 1e-9

    def test_document_from_map(self):
        m = HarmonicMapSpec(a=[0.1 + 0.2j], b=[-0.3], truncation_order=2)
        doc = document_from_map(m, SpiralParams(0.25))
        m2, p2 = parse_map_document(emit_map_document(doc)).build()
        assert p2.lam == 0.25
        assert np.allclose(m2.a, m.a)
        assert np.allclose(m2.b, m.b)

    def test_nine_significant_digits(self):
        assert format_number(math.pi) == "3.14159265"
        assert format_number(-0.0) == "0"
        assert format_number(1e-9) == "1e-09"

    def test_emit_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            format_number(float("nan"))


def catalog_document(name, params, lam=0.5, truncation=2):
    return (f'{{"lambda": {lam}, "truncation": {truncation}, "signed_form": false, '
            f'"catalog": {{"name": "{name}", "params": {params}}}}}')


class TestCatalogParams:
    """A catalog entry's parameters are exactly those it takes: a parameter it
    does not take, or a missing or refused alpha, is a file error."""

    def test_rejects_alpha_on_an_entry_without_one(self):
        with pytest.raises(MapFileError, match="'koebe' takes no parameter 'alpha'"):
            parse_map_document(catalog_document("koebe", '{"alpha": 0.5}', truncation=64))

    def test_rejects_an_unknown_parameter(self):
        # Not dropped, and not reported as the missing alpha either.
        with pytest.raises(MapFileError, match="'f2' takes no parameter 'beta'"):
            parse_map_document(catalog_document("f2", '{"beta": 0.5}'))

    def test_rejects_lambda_inside_params(self):
        # The angle is the top-level "lambda"; one inside params is not read.
        with pytest.raises(MapFileError, match="'f2' takes no parameter 'lambda'"):
            parse_map_document(catalog_document("f2", '{"alpha": 0.5, "lambda": 0.1}'))

    @pytest.mark.parametrize("name", ["f1", "f2", "f3", "f5"])
    def test_rejects_a_missing_alpha(self, name):
        with pytest.raises(MapFileError, match=f"'{name}' needs the parameter 'alpha'"):
            parse_map_document(catalog_document(name, "{}"))

    @pytest.mark.parametrize(
        "name, alpha, why",
        [("f1", "1.5", "open unit disk"), ("f5", "[0.5, 0.1]", "real alpha in \\(0, 1\\)")],
    )
    def test_an_alpha_the_entry_refuses_is_a_file_error(self, name, alpha, why):
        doc = parse_map_document(catalog_document(name, f'{{"alpha": {alpha}}}'))
        with pytest.raises(MapFileError, match=f"'{name}': .*{why}"):
            doc.build()
