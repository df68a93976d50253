"""Property-based invariants, checked with hypothesis.

The pinned-value tests already nail specific numbers; here each claim is
a bound or identity that must hold on a whole region of parameter space,
so we let hypothesis hunt for counterexamples instead of enumerating
grids by hand.  Example counts are kept modest: every property body
builds real quadratures or measures.
"""

import json

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dunklkit import (
    MultiplicityVector,
    bessel_j,
    gegenbauer,
    kernel_real,
    kernel_unitary,
    signed_product_measure,
    spherical_mean_measure,
)
from dunklkit.measures import (
    RadialProfileMeasure,
    _csv_rows,
    _float_array_json,
    measure_from_json,
    measure_to_json,
)

FIN = dict(allow_nan=False, allow_infinity=False)

ks = st.floats(0.0, 4.0, **FIN)
coords = st.floats(-8.0, 8.0, **FIN)


@given(k=ks, x=st.floats(-20.0, 20.0, **FIN), y=st.floats(-20.0, 20.0, **FIN))
@settings(max_examples=150, deadline=None)
def test_unitary_kernel_is_bounded(k, x, y):
    assert abs(kernel_unitary(k, x, y)) <= 1.0 + 1e-10


@given(k=ks, x=coords, y=coords)
@settings(max_examples=150, deadline=None)
def test_real_kernel_symmetry_and_normalization(k, x, y):
    assert kernel_real(k, x, y) == kernel_real(k, y, x)
    assert kernel_real(k, x, 0.0) == 1.0


@given(k=ks, x=coords, y=coords)
@settings(max_examples=150, deadline=None)
def test_real_kernel_is_positive(k, x, y):
    # the two Bessel terms cancel catastrophically for u << -18, beyond
    # what double precision resolves; stay where the identity is testable
    assume(abs(x * y) <= 16.0)
    assert kernel_real(k, x, y) > 0.0


@given(lam=st.floats(0.0, 5.0, **FIN), x=st.floats(-40.0, 40.0, **FIN))
@settings(max_examples=150, deadline=None)
def test_bessel_j_is_even(lam, x):
    assert np.isclose(bessel_j(lam, x), bessel_j(lam, -x), rtol=1e-12, atol=1e-14)


@given(
    n=st.integers(0, 12),
    lam=st.floats(0.0, 4.0, **FIN),
    t=st.floats(-1.0, 1.0, **FIN),
)
@settings(max_examples=200, deadline=None)
def test_gegenbauer_bounded_on_interval(n, lam, t):
    assert abs(gegenbauer(n, lam, t)) <= 1.0 + 1e-12
    assert np.isclose(gegenbauer(n, lam, 1.0), 1.0, rtol=1e-13)


signs = st.sampled_from([-1.0, 1.0])


@given(
    k=st.floats(0.05, 3.0, **FIN),
    xm=st.floats(0.1, 3.0, **FIN),
    ym=st.floats(0.1, 3.0, **FIN),
    sx=signs,
    sy=signs,
)
# min(|x|, |y|) just above the 1e-11 collapse, below the strategy's range:
# the cosine-rule weights from z^2 + x^2 - y^2 missed the mass by up to 3.8e-6
@example(k=0.05078125, xm=1e-12, ym=0.0625, sx=1.0, sy=1.0)
@example(k=0.05078125, xm=5.48e-13, ym=0.05, sx=1.0, sy=1.0)
@example(k=0.05078125, xm=3.3e-11, ym=3.0, sx=1.0, sy=1.0)
@example(k=0.05078125, xm=1e-9, ym=0.0625, sx=1.0, sy=1.0)
@settings(max_examples=40, deadline=None)
def test_signed_product_measure_mass_and_support(k, xm, ym, sx, sy):
    x, y = sx * xm, sy * ym
    mu = signed_product_measure(k, x, y)
    assert abs(mu.mass() - 1.0) < 1e-8
    lo, hi = mu.support_bounds()
    outer = xm + ym + 1e-9
    assert -outer <= lo <= hi <= outer


@given(
    k=st.floats(0.05, 3.0, **FIN),
    x=st.floats(-3.0, 3.0, **FIN),
    t=st.floats(0.05, 3.0, **FIN),
)
@example(k=0.05078125, x=1e-12, t=0.0625)  # lost 31% of its mass on a band few ulps wide
@settings(max_examples=40, deadline=None)
def test_spherical_mean_measure_is_probability(k, x, t):
    mu = spherical_mean_measure(k, x, t)
    mu.check_probability(tol=1e-8)
    lo, hi = mu.support_bounds()
    outer = abs(x) + t + 1e-9
    assert -outer <= lo <= hi <= outer


@given(values=st.lists(st.floats(0.0, 5.0, **FIN), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_multiplicity_json_roundtrip(values):
    kv = MultiplicityVector(values)
    back = MultiplicityVector.from_json(kv.to_json())
    assert back.k == kv.k
    assert json.loads(kv.to_json()) == json.loads(back.to_json())


@given(
    offsets=st.lists(st.floats(1e-3, 1.0, **FIN), min_size=2, max_size=12),
    dens=st.data(),
    atom_r=st.floats(0.0, 10.0, **FIN),
    atom_w=st.floats(-2.0, 2.0, **FIN),
)
@settings(max_examples=60, deadline=None)
def test_measure_json_roundtrip(offsets, dens, atom_r, atom_w):
    grid = np.cumsum(offsets)
    density = np.array(
        dens.draw(
            st.lists(
                st.floats(-5.0, 5.0, **FIN),
                min_size=grid.size,
                max_size=grid.size,
            )
        )
    )
    mu = RadialProfileMeasure(
        grid=grid, density=density, atoms=[(atom_r, atom_w)], lam=1.5
    )
    back = measure_from_json(measure_to_json(mu))
    # JSON uses repr(float), which round-trips doubles exactly
    assert np.array_equal(back.grid, mu.grid)
    assert np.array_equal(back.density, mu.density)
    assert np.array_equal(back.weights, mu.weights)
    assert back.atoms == mu.atoms
    assert back.lam == mu.lam


# any finite double, with the magnitudes where orjson's notation differs from
# float repr drawn often: [1e-5, 1e-4), e-5..e-9 and e16 up
notation_floats = st.one_of(
    st.floats(**FIN), st.floats(1e-5, 1e-4), st.floats(-1e-4, -1e-5),
    st.floats(1e-9, 1e-5), st.floats(1e16, 1e300), st.sampled_from([0.0, -0.0, 5e-324, -1e-5]))


@given(values=st.lists(notation_floats, max_size=40), n_cols=st.integers(1, 4),
       with_ids=st.booleans())
@example(values=[30.000090499533105, 1e-5, -2.5e-5, 9.999999999999999e-05, 1e16, 1e-7],
         n_cols=2, with_ids=True)
@settings(max_examples=300, deadline=None)
def test_float_tokens_are_float_repr(values, n_cols, with_ids):
    a = np.array(values, dtype=float)
    assert _float_array_json(a) == json.dumps(a.tolist())
    table = a[:a.size - a.size % n_cols].reshape(-1, n_cols)
    ids = np.arange(table.shape[0]) if with_ids else None
    lines = b"".join(_csv_rows(table, ids)).decode().splitlines()
    want = [[str(i)] * with_ids + [repr(float(v)) for v in row] for i, row in enumerate(table)]
    assert [line.split(",") for line in lines] == want
