"""The array formatter against ``format_number``, and its non-finite rule.

``mapfile.format_array`` formats every plotted curve and every emitted
coefficient list; it must give ``format_number``'s bytes for every float,
and every writer must reject a NaN or inf wherever it sits.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spiralmaps import render
from spiralmaps.harmonic import HarmonicMapSpec, identity_map
from spiralmaps.mapfile import MapDocument, emit_map_document, format_array, format_number
from spiralmaps.render import PlotSpec, render_csv, render_svg

NON_FINITE = "non-finite number in output"

# Zeros, subnormals, the largest floats, the %g switches to exponent form
# (below 1e-4, at 1e9 for 9 digits) and values that round up a decade.
ADVERSARIAL = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
    1e-5, 9.99999999e-6, 9.999999995e-6, 9.9999999996e-5, 1e-4, 0.0001000000005,
    999999999.0, 999999999.5, 1e9, -1e9, 9.9999999996e15, 1e16, -1e16,
    1.7e308, -1.7e308, 1.7976931348623157e308, 0.1, -0.30000000000000004,
]

# s * 10^e * (1 + d): every decade, and just either side of where its ninth
# digit rounds.
NEAR_DECADES = st.builds(
    lambda e, d, s: s * 10.0 ** e * (1.0 + d),
    st.integers(-323, 307),
    st.sampled_from([0.0, -5e-10, -4.9e-10, -1e-16, 1e-16, 4.9e-10, 5e-10]),
    st.sampled_from([1.0, -1.0]),
)
FLOATS = st.one_of(
    st.sampled_from(ADVERSARIAL),
    NEAR_DECADES,
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(FLOATS, max_size=40))
def test_one_column_matches_format_number(xs):
    got = format_array("%.9g\n" * len(xs), np.array(xs, dtype=np.float64))
    assert got == "".join(format_number(x) + "\n" for x in xs)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(FLOATS, FLOATS, FLOATS), min_size=1, max_size=20))
def test_columns_are_interleaved_row_by_row(rows):
    cols = [np.array(c, dtype=np.float64) for c in zip(*rows)]
    got = format_array(" ".join(["%.9g,%.9g;%.9g"] * len(rows)), *cols)
    want = " ".join(
        f"{format_number(x)},{format_number(y)};{format_number(z)}" for x, y, z in rows
    )
    assert got == want


def test_input_left_unchanged():
    x = np.array([-0.0, 1.0])
    format_array("%.9g %.9g", x)
    assert math.copysign(1.0, x[0]) == -1.0


# ------------------------------------------------------------ non-finite parity

BAD = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 12), st.integers(1, 3), st.data(), BAD,
)
def test_format_array_rejects_non_finite_anywhere(n, k, data, bad):
    cols = np.ones((k, n))
    cols[data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, n - 1))] = bad
    with pytest.raises(ValueError, match=NON_FINITE):
        format_array("%.9g" * (n * k), *cols)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3), st.data(), st.sampled_from(["real", "imag"]), BAD,
    st.sampled_from([render_csv, render_svg]),
)
def test_renderers_reject_non_finite_anywhere(n_radii, data, part, bad, renderer):
    samples = 64
    radii = (0.2, 0.5, 0.9)[:n_radii]
    which = data.draw(st.integers(0, n_radii - 1))
    pos = data.draw(st.integers(0, samples - 1))

    def fake_eval_f(m, z):
        # Called on one circle or on a block of them, one circle per row;
        # the point at angle 0 of the circle of radius r is exactly r.
        w = np.asarray(z, dtype=np.complex128).copy()
        for row in w.reshape(-1, samples):
            if row[0] == radii[which]:
                if part == "real":
                    row[pos] = complex(bad, row[pos].imag)
                else:
                    row[pos] = complex(row[pos].real, bad)
        return w

    spec = PlotSpec(radii=radii, samples_per_circle=samples)
    with mock.patch.object(render, "eval_f", fake_eval_f):
        with pytest.raises(ValueError, match=NON_FINITE):
            renderer(identity_map(2), spec)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6), st.integers(1, 6), st.data(), st.sampled_from(["a", "b"]), BAD,
)
def test_emit_rejects_non_finite_anywhere(n_a, n_b, data, field, bad):
    pairs = {"a": [[0.5, -0.25] for _ in range(n_a)], "b": [[0.125, 0.0] for _ in range(n_b)]}
    row = data.draw(st.integers(0, len(pairs[field]) - 1))
    pairs[field][row][data.draw(st.integers(0, 1))] = bad
    doc = MapDocument(lam=0.5, truncation=7, signed_form=False, **pairs)
    with pytest.raises(ValueError, match=NON_FINITE):
        emit_map_document(doc)


@pytest.mark.parametrize("renderer", [render_csv, render_svg])
def test_overflowing_plot_raises_without_warnings(renderer):
    m = HarmonicMapSpec(a=[1.5e308] * 3, b=[], truncation_order=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=NON_FINITE):
            renderer(m, PlotSpec(radii=(0.5, 0.9), samples_per_circle=64))
