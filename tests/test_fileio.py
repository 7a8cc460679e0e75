"""Text format parsers and writers."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import MOEBIUS_B2, IntMatrix, write_complex
from ohcp import fileio, fixtures
from ohcp.complexes import InputError


class TestComplexFormat:
    def test_parse_with_comments(self):
        K = fileio.parse_complex("# a triangle\n0 1 2\n\n# done\n")
        assert [K.count(q) for q in range(3)] == [3, 3, 1]

    def test_round_trip(self):
        K = fixtures.mobius_strip()
        K2 = fileio.parse_complex(write_complex(K))
        assert K2.simplices_by_dim == K.simplices_by_dim

    def test_lower_dimensional_maximal_simplices_survive(self):
        K = fileio.parse_complex("0 1 2\n5 6\n")
        K2 = fileio.parse_complex(write_complex(K))
        assert K2.simplices_by_dim == K.simplices_by_dim

    def test_bad_token(self):
        with pytest.raises(InputError):
            fileio.parse_complex("0 x 2\n")

    def test_duplicate_vertex(self):
        with pytest.raises(InputError):
            fileio.parse_complex("0 1 1\n")


class TestChainFormat:
    def test_orientation_sign_adjustment(self):
        K = fixtures.triangle()
        a = fileio.parse_chain("1 0 1\n", K, 1)
        b = fileio.parse_chain("-1 1 0\n", K, 1)
        assert a == b

    def test_coefficients_accumulate(self):
        K = fixtures.triangle()
        c = fileio.parse_chain("1 0 1\n2 0 1\n", K, 1)
        assert len(c) == K.count(1)
        assert {i: v for i, v in enumerate(c) if v} == {K.index_of(1, (0, 1)): 3}

    def test_round_trip(self):
        K = fixtures.cylinder()
        c = fixtures.ring_cycle(K, (0, 1, 2))
        c2 = fileio.parse_chain(fileio.write_chain(K, 1, c), K, 1)
        assert c2 == c

    def test_unknown_simplex(self):
        K = fixtures.triangle()
        with pytest.raises(InputError):
            fileio.parse_chain("1 0 9\n", K, 1)

    def test_wrong_arity(self):
        K = fixtures.triangle()
        with pytest.raises(InputError):
            fileio.parse_chain("1 0 1 2\n", K, 1)

    def test_fractional_coefficient_rejected(self):
        K = fixtures.triangle()
        with pytest.raises(InputError):
            fileio.parse_chain("1/2 0 1\n", K, 1)


class TestWeightsFormat:
    def test_default_weight_one(self):
        K = fixtures.triangle()
        assert fileio.parse_weights("", K, 1) == [1, 1, 1]

    def test_rational_and_decimal(self):
        K = fixtures.triangle()
        w = fileio.parse_weights("3/7 0 1\n2.5 1 2\n", K, 1)
        assert w[K.index_of(1, (0, 1))] == Fraction(3, 7)
        assert w[K.index_of(1, (1, 2))] == Fraction(5, 2)

    def test_bad_rational(self):
        K = fixtures.triangle()
        with pytest.raises(InputError):
            fileio.parse_weights("x 0 1\n", K, 1)


class TestCoordinatesFormat:
    def test_parse(self):
        coords = fileio.parse_coordinates("0 0 0\n1 1.5 0\n2 3/2 2\n")
        assert coords[1] == [Fraction(3, 2), 0]
        assert coords[2] == [Fraction(3, 2), 2]

    def test_inconsistent_dimension(self):
        with pytest.raises(InputError):
            fileio.parse_coordinates("0 0 0\n1 1\n")


class TestMatrixFormat:
    def test_round_trip(self):
        M = IntMatrix(MOEBIUS_B2)
        assert fileio.parse_matrix(M.to_text()) == (M.sparse_rows(), M.n)

    def test_header_mismatch(self):
        with pytest.raises(InputError):
            fileio.parse_matrix("2 2\n1 0\n")

    def test_row_length_mismatch(self):
        with pytest.raises(InputError):
            fileio.parse_matrix("1 2\n1\n")

    def test_empty(self):
        with pytest.raises(InputError):
            fileio.parse_matrix("# nothing\n")


PARSERS = {
    "complex": fileio.parse_complex,
    "chain": lambda t: fileio.parse_chain(t, fixtures.triangle(), 1),
    "weights": lambda t: fileio.parse_weights(t, fixtures.triangle(), 1),
    "coordinates": fileio.parse_coordinates,
    "matrix": fileio.parse_matrix,
}


class TestRationalTokens:
    @pytest.mark.parametrize("tok, value", [
        ("7", 7), ("-7", -7), ("+7", 7), ("0.25", Fraction(1, 4)),
        (".5", Fraction(1, 2)), ("5.", 5), ("-.5", Fraction(-1, 2)),
        ("3/7", Fraction(3, 7)), ("-6/4", Fraction(-3, 2)),
        ("\u0663/\u0667", Fraction(3, 7)),
        ("1_000.000_1", Fraction(10000001, 10000)),
    ])
    def test_value(self, tok, value):
        assert fileio.parse_coordinates(f"0 {tok}\n")[0] == [value]

    @settings(max_examples=200, deadline=None)
    @given(tok=st.from_regex(r"\A[-+]?(\d+(/\d*[1-9]\d*|\.\d*)?|\.\d+)\Z"))
    def test_same_value_as_fraction(self, tok):
        assert fileio.parse_coordinates(f"0 {tok}\n")[0] == [Fraction(tok)]

    @pytest.mark.parametrize("tok", [
        "1e3", "1E3", "1.5e-2", "1/0", "1/-2", "1/2/3", ".", "-", "1.2.3",
        "1._5", "1__0", "1_", "0x10", "inf", "nan", "1" * 5000,
    ])
    def test_rejected(self, tok):
        with pytest.raises(InputError):
            fileio.parse_coordinates(f"0 {tok}\n")
        with pytest.raises(InputError):
            fileio.parse_weights(f"{tok} 0 1\n", fixtures.triangle(), 1)


class TestNonIntegerTokens:
    @pytest.mark.parametrize("name, text", [
        ("matrix", "3 x\n"),
        ("matrix", "1.5 2\n1 0\n"),
        ("matrix", "1 2\n1 y\n"),
        ("chain", "1 0 a\n"),
        ("weights", "2 0 1.0\n"),
        ("coordinates", "v 0 1\n"),
    ])
    def test_rejected_as_input_error(self, name, text):
        with pytest.raises(InputError):
            PARSERS[name](text)


# the characters the formats use plus a few that they do not, among them
# the exponent letters that no number form accepts; short lines, since a
# complex line with k vertices closes to 2**k faces
fuzz_text = st.text(alphabet="0123456789  -+/.#\n\txeE\u00e9\u0663",
                    max_size=40)


class TestParserFuzz:
    @pytest.mark.parametrize("name", sorted(PARSERS))
    @settings(max_examples=300, deadline=None)
    @given(text=fuzz_text)
    def test_parses_or_raises_input_error(self, name, text):
        try:
            PARSERS[name](text)
        except InputError:
            pass
