"""Space layer: norms, duality, norming functionals, sampling, parsing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numindex.operators import compose_with_projection, identity
from numindex.spaces import (
    COMPLEX,
    MAX_DEPTH,
    MAX_TOTAL_DIM,
    DegenerateInput,
    DescriptorMismatch,
    NormingPair,
    SpaceError,
    conjugate_exponent,
    descriptor_to_text,
    dual_descriptor,
    dual_norm,
    eval_pair,
    lp,
    norm,
    norming_functional,
    parse_descriptor,
    psum,
    scalar,
    sphere_starts,
    summand,
    tower,
    tower_levels,
    unit_sphere_sample,
)

#: tolerance for exact algebraic identities
DEFAULT_TOL = 1e-9

DESCRIPTORS = [
    lp(1, 2),
    lp(1.5, 3),
    lp(2, 3),
    lp(3, 2),
    lp(math.inf, 2),
    psum(1, [lp(2, 2), scalar()]),
    psum(math.inf, [lp(1, 2), lp(3, 2)]),
    tower([3, 1.5], [2, 1, 2]),
    lp(2, 2, "complex"),
    psum(2, [lp(4, 2, "complex"), scalar("complex")]),
]


def _random_vec(desc, rng):
    g = rng.standard_normal(desc.total_dim)
    if desc.field == "complex":
        g = g + 1j * rng.standard_normal(desc.total_dim)
    return g


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_norm_examples():
    assert norm(lp(2, 3), [3.0, 4.0, 12.0]) == pytest.approx(13.0, abs=1e-12)
    mixed = psum(1, [lp(2, 2), scalar()])
    assert norm(mixed, [3.0, 4.0, 2.0]) == pytest.approx(7.0, abs=1e-12)
    assert norm(lp(math.inf, 2), [-5.0, 2.0]) == pytest.approx(5.0, abs=1e-12)


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_norm_axioms(desc):
    rng = np.random.default_rng(11)
    for _ in range(200):
        v = _random_vec(desc, rng)
        w = _random_vec(desc, rng)
        a = float(rng.standard_normal())
        assert norm(desc, v + w) <= norm(desc, v) + norm(desc, w) + DEFAULT_TOL
        assert norm(desc, a * v) == pytest.approx(abs(a) * norm(desc, v), abs=DEFAULT_TOL)


def test_uniform_nesting_is_isometric_to_flat():
    nested = psum(3, [lp(3, 2), lp(3, 2)])
    flat = lp(3, 4)
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.standard_normal(4)
        assert norm(nested, v) == pytest.approx(norm(flat, v), abs=1e-12)
    assert nested.uniform_exponent == 3.0
    assert tower([3, 1.5]).uniform_exponent is None


def test_vector_shape_mismatch():
    with pytest.raises(DescriptorMismatch):
        norm(lp(2, 3), [1.0, 2.0])
    with pytest.raises(DescriptorMismatch):
        norm(lp(2, 2), np.array([1.0 + 1j, 0.0]))


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def test_conjugate_exponent():
    assert conjugate_exponent(1) == math.inf
    assert conjugate_exponent(math.inf) == 1.0
    assert conjugate_exponent(2) == 2.0
    assert conjugate_exponent(3) == pytest.approx(1.5)


def test_dual_descriptor_examples():
    assert dual_descriptor(lp(3, 2)) == lp(1.5, 2)
    assert dual_descriptor(lp(1, 4)) == lp(math.inf, 4)
    d = psum(2, [lp(4, 2), scalar()])
    assert dual_descriptor(d) == psum(2, [lp(4 / 3, 2), scalar()])


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_dual_descriptor_involution(desc):
    assert dual_descriptor(dual_descriptor(desc)) is desc


def test_descriptor_equality_is_exact_and_hash_consistent():
    # exponents within a relative 1e-12 of each other give different
    # spaces, and equal spaces hash equally
    a, b = lp(4.4219797384991075, 2), lp(4.421979738501319, 2)
    assert a != b
    assert a == lp(4.4219797384991075, 2) and hash(a) == hash(lp(4.4219797384991075, 2))
    assert len({a, b, lp(4.4219797384991075, 2)}) == 2


def test_equal_descriptors_share_one_plan():
    """Each distinct tree compiles its norm plan once: separately parsed
    equal descriptors share it, unequal ones do not."""
    text = "psum(p=3,[lp(p=1.5,dim=2),lp(p=2,dim=1)])"
    a, b = parse_descriptor(text), parse_descriptor(text)
    assert a is not b and a.plan is b.plan
    assert parse_descriptor(text, field=COMPLEX).plan is not a.plan
    assert parse_descriptor("psum(p=4,[lp(p=1.5,dim=2),lp(p=2,dim=1)])").plan is not a.plan


def test_trees_share_their_leaves():
    """Every tree holds the one leaf of its field; sharing it changes no
    equality, hash, dual or text form."""
    a, b = lp(2, 3), psum(1, [lp(3, 2), scalar()])
    assert all(c is scalar() for c in a.children + b.children[0].children)
    assert b.children[1] is scalar() is scalar("real") is lp(4, 1)
    assert lp(2, 2, COMPLEX).children[0] is scalar(COMPLEX) is not scalar()
    assert scalar(COMPLEX) != scalar() and hash(a) == hash(lp(2, 3)) and a == lp(2, 3)
    for leaf in (scalar(), scalar(COMPLEX)):
        assert dual_descriptor(leaf) is leaf
        assert parse_descriptor(descriptor_to_text(leaf), field=leaf.field) == leaf
    assert parse_descriptor(descriptor_to_text(b)) == b
    for bad in ("quaternion", ["real"]):
        with pytest.raises(SpaceError, match="unknown scalar field"):
            scalar(bad)


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_holder_pairing(desc):
    rng = np.random.default_rng(5)
    for _ in range(200):
        f = _random_vec(desc, rng)
        v = _random_vec(desc, rng)
        assert abs(eval_pair(f, v)) <= dual_norm(desc, f) * norm(desc, v) + DEFAULT_TOL


def test_eval_pair_examples():
    assert eval_pair([1.0, 0.0], [3.0, 4.0]) == pytest.approx(3.0)
    r = 1.0 / math.sqrt(2)
    assert eval_pair([r, r], [1.0, -1.0]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DescriptorMismatch):
        eval_pair([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# norming functionals
# ---------------------------------------------------------------------------

def test_norming_functional_examples():
    d = lp(3, 3)
    e1 = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(norming_functional(d, e1), e1, atol=1e-12)
    r = 1.0 / math.sqrt(2)
    np.testing.assert_allclose(norming_functional(lp(2, 2), [1.0, 1.0]),
                               [r, r], atol=1e-12)
    np.testing.assert_allclose(norming_functional(lp(1, 2), [0.5, -0.5]),
                               [1.0, -1.0], atol=1e-12)


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_duality_map_contract(desc):
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = _random_vec(desc, rng)
        f = norming_functional(desc, x)
        assert dual_norm(desc, f) == pytest.approx(1.0, abs=DEFAULT_TOL)
        assert eval_pair(f, x) == pytest.approx(norm(desc, x), abs=DEFAULT_TOL)


def test_norming_functional_zero_vector():
    with pytest.raises(DegenerateInput):
        norming_functional(lp(2, 2), [0.0, 0.0])


def test_norming_pair_slack():
    desc = tower([3, 1.5], [2, 1, 2])
    rng = np.random.default_rng(9)
    for _ in range(20):
        pair = NormingPair.at(desc, _random_vec(desc, rng))
        assert pair.slack <= DEFAULT_TOL


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def _projection(desc, keep):
    """Matrix of the projection onto the summand kept by ``keep``: its
    identity composed with the projection."""
    sub, _ = summand(desc, keep)
    return compose_with_projection(identity(sub), desc, keep).matrix


def test_projection_examples():
    assert summand(lp(2, 3), {0, 1})[0] == lp(2, 2)
    P = _projection(lp(2, 3), {0, 1})
    out = P @ np.array([3.0, 4.0, 12.0])
    np.testing.assert_allclose(out, [3.0, 4.0, 0.0])
    assert norm(lp(2, 3), out) == pytest.approx(5.0)
    sub, leaves = summand(lp(2, 3), {0, 1, 2})
    assert sub == lp(2, 3)
    np.testing.assert_array_equal(leaves, [0, 1, 2])
    np.testing.assert_allclose(_projection(lp(2, 3), {0, 1, 2}), np.eye(3))
    sub, leaves = summand(lp(1, 2), {0})
    assert sub == scalar()
    np.testing.assert_array_equal(leaves, [0])
    np.testing.assert_allclose(_projection(lp(1, 2), {0}), [[1.0, 0.0], [0.0, 0.0]])


def test_projection_idempotent_and_contractive():
    desc = psum(1.5, [lp(2, 2), lp(3, 2), scalar()])
    P = _projection(desc, {0, 2})
    np.testing.assert_allclose(P @ P, P)
    rng = np.random.default_rng(2)
    for _ in range(100):
        v = rng.standard_normal(5)
        assert norm(desc, P @ v) <= norm(desc, v) + DEFAULT_TOL


def test_projection_errors():
    with pytest.raises(DegenerateInput):
        summand(lp(2, 3), set())
    with pytest.raises(SpaceError):
        summand(lp(2, 3), {5})
    with pytest.raises(SpaceError):
        summand(lp(2, 3), {-1})
    with pytest.raises(SpaceError, match="PSum root"):
        summand(scalar(), {0})


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampler_deterministic():
    a = unit_sphere_sample(lp(2, 2), np.random.default_rng(42))
    b = unit_sphere_sample(lp(2, 2), np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("desc", [lp(3, 2), lp(1, 3), lp(2, 2, "complex")])
def test_sampler_norm_and_support(desc):
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        x = unit_sphere_sample(desc, rng)
        assert abs(norm(desc, x) - 1.0) <= DEFAULT_TOL
        assert np.all(x != 0)


class _Stream:
    """A generator stand-in whose normal draws are a fixed sequence, read
    in order whatever shape each call asks for."""

    def __init__(self, values):
        self.values, self.used = np.asarray(values, dtype=float), 0

    def standard_normal(self, shape):
        n = int(np.prod(shape))
        out = self.values[self.used:self.used + n].reshape(shape)
        self.used += n
        return out


@pytest.mark.parametrize("desc", [lp(3, 2), lp(1.5, 3), lp(2, 2, COMPLEX),
                                  psum(1, [lp(3, 2, COMPLEX), scalar(COMPLEX)])], ids=str)
def test_sphere_starts_equal_the_sequential_draws(desc):
    """The batch of start samples equals the unit_sphere_sample draws one
    by one, bit for bit, and leaves the generator in the same state; with
    exact zeros in the stream both reject the same samples."""
    d = desc.total_dim
    for count in (1, d, d + 1, 3 * d + 5):
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        rows = sphere_starts(desc, rng, count)
        want = list(np.eye(d, dtype=desc.dtype)[:count])
        want += [unit_sphere_sample(desc, ref) for _ in range(count - len(want))]
        assert rows.tobytes() == np.array(want).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
    values = np.random.default_rng(5).standard_normal(40 * d)
    # 6d and 7d zero both parts of one complex coordinate
    values[[1, 2 * d + 1, 2 * d + 3, 5 * d, 6 * d, 7 * d]] = 0.0
    batch, alone = _Stream(values), _Stream(values)
    rows = sphere_starts(desc, batch, d + 8)
    want = [unit_sphere_sample(desc, alone) for _ in range(8)]
    assert rows[d:].tobytes() == np.array(want).tobytes() and batch.used == alone.used


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_text_round_trip(desc):
    assert parse_descriptor(descriptor_to_text(desc)) == desc


def test_one_leaf_psum_is_the_leaf():
    """A p-sum of one leaf is that scalar line, as lp(p, 1) is, so trees
    built in code with one round-trip through the text format."""
    for desc in (psum(3, [scalar()]), psum(2, [psum(3, [scalar()]), lp(2, 2)]),
                 psum(3, [scalar(COMPLEX)])):
        assert parse_descriptor(descriptor_to_text(desc)) == desc
    assert psum(3, [scalar()]) == scalar() == lp(3, 1)
    # the sum is still checked before it collapses
    with pytest.raises(SpaceError, match="mixed scalar fields"):
        psum(3, [scalar()], COMPLEX)
    with pytest.raises(SpaceError, match="exponent"):
        psum(0.5, [scalar()])


def test_parse_examples():
    assert parse_descriptor("lp(p=2,dim=3)") == lp(2, 3)
    assert parse_descriptor("lp(p=inf,dim=2)") == lp(math.inf, 2)
    d = parse_descriptor("psum(p=1,[lp(p=2,dim=2),lp(p=2,dim=1)])")
    assert d == psum(1, [lp(2, 2), scalar()])
    assert parse_descriptor("lp(p=2,dim=2,field=complex)").field == "complex"
    assert parse_descriptor("lp(p=2,dim=2)", field="complex").field == "complex"


@pytest.mark.parametrize("bad", [
    "lp(p=2)", "lp(dim=2)", "psum(p=2,[])", "lp(p=0.5,dim=2)",
    "lp(p=2,dim=2)x", "nonsense", "lp(p=2,dim=-1)", "lp(p=2,dim=1e400)",
    "lp(p=2,dim=inf)", "psum(p=2,[lp(p=3,dim=2),lp(p=2,dim=1e400)])",
])
def test_parse_errors(bad):
    with pytest.raises(SpaceError):
        parse_descriptor(bad)


def test_parse_rejects_conflicting_fields():
    with pytest.raises(SpaceError, match="conflicting field"):
        parse_descriptor("psum(p=2,[lp(p=2,dim=2,field=real),lp(p=3,dim=1)],field=complex)")
    d = parse_descriptor("psum(p=2,[lp(p=2,dim=2,field=complex),lp(p=3,dim=1)],field=complex)")
    assert d.field == "complex" and all(c.field == "complex" for c in d.children)


def test_psum_rejects_mixed_fields_in_either_order():
    real, cplx = lp(2, 2), lp(2, 2, "complex")
    for children in ((real, cplx), (cplx, real)):
        with pytest.raises(SpaceError, match="mixed scalar fields"):
            psum(2, children)
    with pytest.raises(SpaceError, match="mixed scalar fields"):
        psum(2, [real, real], "complex")
    assert psum(2, [cplx, cplx], "complex").field == "complex"


def test_parse_rejects_total_dimension_over_cap():
    # rejected while parsing, before any leaf of the space is built
    with pytest.raises(SpaceError, match="exceeds the cap"):
        parse_descriptor("lp(p=2,dim=100000000)")
    half = MAX_TOTAL_DIM // 2 + 1
    with pytest.raises(SpaceError, match="exceeds the cap"):
        parse_descriptor(f"psum(p=1,[lp(p=2,dim={half}),lp(p=3,dim={half})])")


def test_parse_caps_nesting_depth():
    text = "lp(p=2,dim=2)"
    for _ in range(MAX_DEPTH - 1):
        text = f"psum(p=2,[{text}])"
    assert parse_descriptor(text).total_dim == 2
    with pytest.raises(SpaceError, match=f"nests deeper than {MAX_DEPTH} levels"):
        parse_descriptor(f"psum(p=1,[lp(p=3,dim=1),{text}])")


def test_depth_cap_holds_for_trees_built_in_code():
    d = lp(2, 2)
    for _ in range(MAX_DEPTH - 1):
        d = psum(2, [d])
    assert d.height == MAX_DEPTH
    # the deepest tree allowed hashes, plans, dualizes and prints
    assert hash(d) == hash(psum(2, d.children))
    assert d.plan.norm(np.array([[3.0, 4.0]]))[0] == pytest.approx(5.0)
    assert dual_descriptor(d).height == MAX_DEPTH
    assert parse_descriptor(descriptor_to_text(d)) == d and repr(d)
    with pytest.raises(SpaceError, match=f"nests deeper than {MAX_DEPTH} levels"):
        psum(2, [d])
    with pytest.raises(SpaceError, match=f"nests deeper than {MAX_DEPTH} levels"):
        psum(1, [scalar(), d])


@given(st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=50)
def test_flat_round_trip_property(p, dim):
    desc = lp(p, dim)
    assert parse_descriptor(descriptor_to_text(desc)) == desc


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------

def test_tower_levels():
    t = tower([3, 1.5], [2, 1, 2])
    levels = tower_levels(t)
    assert [lv.total_dim for lv in levels] == [2, 3, 5]
    assert levels[-1] == t
    assert t.exponents[0] == 1.5  # outermost join exponent at the root


def test_tower_shape_errors():
    with pytest.raises(SpaceError):
        tower([2], [1, 2, 3])
    with pytest.raises(SpaceError):
        lp(2, 0)
    with pytest.raises(SpaceError, match="dim must be an integer >= 1, got 2.5"):
        lp(2, 2.5)
    with pytest.raises(SpaceError):
        psum(2, [])
