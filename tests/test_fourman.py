import pytest

from conjquot.domains import (
    Orientability,
    Side,
    SurfaceDescriptor,
    TrackedScheme,
    real_part_X,
)
from conjquot.fourman import (
    CP2,
    S4,
    FormError,
    FourManifoldWord,
    WordError,
    branch_cover_word,
    double_plane_invariants,
    k3_classify,
    parse_word,
    predict_standard_form,
    word,
)
from conjquot.schemes import harnack_bound, parse_viro


def tracked(code, outer=False, degree=6):
    return TrackedScheme(parse_viro(code), degree, outer)


def sphere(genus=0):
    return SurfaceDescriptor(2 - 2 * genus, Orientability.ORIENTABLE)


# ------------------------------------------------------------ word algebra


def test_word_serialization_round_trip():
    w = word(cp2=1, cp2bar=9, s1xs3=2, named=("E(1)_0",))
    assert str(w) == "CP2 # CP2bar^9 # (S1xS3)^2 # Named[E(1)_0]"
    assert parse_word(str(w)) == word(cp2=1, cp2bar=9, s1xs3=2, named=("E(1)_0",))
    assert str(S4) == "S4"
    assert parse_word("S4") == S4


def test_word_exponent_is_ascii_digits():
    # A fullwidth two is no exponent, so the token is one named block.
    assert parse_word("CP2^2") == word(cp2=2)
    assert parse_word("CP2^\uff12") == word(named=("CP2^\uff12",))


def test_sphere_summands_absorbed():
    assert (S4 + CP2 + S4) == FourManifoldWord(cp2=1)


def test_simply_connected_follows_the_summands():
    assert (S4 + CP2).simply_connected is True
    assert (CP2 + word(s1xs3=1)).simply_connected is False
    assert (CP2 + word(named=("E(1)_0",))).simply_connected is None


def test_word_betti_bookkeeping():
    w = word(cp2=2, cp2bar=3, s2xs2=1, s1xs3=2)
    assert (w.b2plus, w.b2minus, w.b1, w.sigma) == (3, 4, 2, -1)
    assert w.chi == 2 + 2 + 3 + 2 - 4


def test_named_blocks_are_opaque():
    w = word(named=("E(2)",))
    with pytest.raises(WordError):
        _ = w.b2plus


# --------------------------------------------------------- double planes


def test_sextic_lattice_values():
    # any sextic branch locus: the cover has the (3, 19) lattice
    for code in ["<1>", "<10>_2", "<1 u 1<9>>_1"]:
        inv = double_plane_invariants(tracked(code))
        assert (inv.chi_X, inv.sigma_X) == (24, -16)
        assert (inv.b2plus_X, inv.b2minus_X) == (3, 19)


def test_nine_ovals_quotient():
    inv = double_plane_invariants(tracked("<9>_1"))
    assert inv.chi_XR == -16
    assert (inv.b2plus_Y, inv.b2minus_Y) == (1, 1)


def test_ten_ovals_quotient_is_projective_plane():
    inv = double_plane_invariants(tracked("<10>_2"))
    assert inv.chi_XR == -18
    assert (inv.b2plus_Y, inv.b2minus_Y) == (1, 0)
    # cross-check through the blow-up count form
    assert 9 + inv.chi_XR // 2 == 0


def test_quartic_and_conic_covers():
    conic = double_plane_invariants(tracked("<1>", degree=2))
    assert (conic.b2plus_Y, conic.b2minus_Y) == (0, 0)
    quartic = double_plane_invariants(tracked("<4>", degree=4))
    assert quartic.b2plus_Y == 0  # rational cover, zero geometric genus


def test_betti_euler_identity_on_catalog(catalog):
    from conjquot.domains import arnold_descriptor

    for e in catalog:
        for outer in (False, True):
            t = TrackedScheme(e.scheme, 6, outer)
            inv = double_plane_invariants(t)
            chi_a = arnold_descriptor(t).euler
            assert inv.b2plus_Y + inv.b2minus_Y == 2 - chi_a


@pytest.mark.parametrize("degree", range(2, 41, 2))
def test_covering_identities_hold_at_every_degree(degree):
    # The halvings are exact and invert the covering identities, so these
    # hold without any check inside double_plane_invariants.
    k, h = degree // 2, harnack_bound(degree)
    codes = {"<0>", "<1>", f"<{h}>"}
    if h >= 3:
        codes |= {f"<1<{h - 1}>>", f"<{h // 2} u 1<{h - h // 2 - 1}>>", "<1<1<1>>>"}
    for code in codes:
        for outer in (False, True):
            inv = double_plane_invariants(tracked(code, outer, degree))
            assert inv.sigma_X == 2 * inv.sigma_Y + inv.chi_XR
            assert inv.chi_X == 2 * inv.chi_Y - inv.chi_XR
            assert inv.b2plus_Y - inv.b2minus_Y == inv.sigma_Y
            assert inv.b2plus_X + inv.b2minus_X == inv.chi_X - 2
            assert inv.b2plus_Y == (k - 1) * (k - 2) // 2


# ------------------------------------------------------- standard forms


def test_standard_form_projective_plane():
    (form,) = predict_standard_form(1, 1, 0)
    assert not form.orientable and (form.rp2, form.rp2bar) == (1, 0)
    assert str(branch_cover_word(form, S4)) == "CP2"


def test_standard_form_torus():
    (form,) = predict_standard_form(0, 1, 1, Orientability.ORIENTABLE)
    assert form.orientable and form.tori == 1
    assert branch_cover_word(form, S4) == word(s2xs2=1)


def test_standard_form_eighteen_crosscaps():
    (form,) = predict_standard_form(-16, 1, 17)
    assert (form.rp2, form.rp2bar) == (1, 17)
    assert form.rp2 + form.rp2bar == 2 - (-16)


def test_standard_form_ambiguous_flags_both():
    forms = predict_standard_form(0, 1, 1)
    assert len(forms) == 2
    assert {f.orientable for f in forms} == {True, False}
    assert all(f.note == "parity undetermined" for f in forms)


def test_standard_form_inconsistent_raises():
    with pytest.raises(FormError):
        predict_standard_form(0, 2, 5)


def test_branch_cover_dictionary():
    assert branch_cover_word(
        predict_standard_form(2, 0, 0, Orientability.ORIENTABLE)[0], S4
    ) == S4  # an unknotted sphere covers to the sphere
    rp2bar = predict_standard_form(1, 0, 1)[0]
    assert branch_cover_word(rp2bar, S4) == word(cp2bar=1)


def test_branch_cover_doubles_ambient():
    form = predict_standard_form(0, 1, 1, Orientability.ORIENTABLE)[0]
    out = branch_cover_word(form, CP2)
    assert out.cp2 == 2 and out.s2xs2 == 1


# ---------------------------------------------------------------- K3


def test_k3_spin_cases():
    assert k3_classify([sphere(10), sphere()], False) == word(s2xs2=1)
    assert k3_classify([sphere(9)], True) == word(s2xs2=1)
    assert k3_classify([sphere(9)], False) == word(cp2=1, cp2bar=1)


def test_k3_eight_spheres():
    assert k3_classify([sphere()] * 8, True) == word(cp2=1, cp2bar=17)


def test_k3_two_tori():
    assert k3_classify([sphere(1), sphere(1)], False) == word(cp2=1, cp2bar=9)


def test_k3_ten_ovals_case():
    t = tracked("<10>_2")
    xr = real_part_X(t, Side.NONTRACKED)
    assert k3_classify(xr, False) == CP2


def test_k3_rejects_illegal_real_parts():
    with pytest.raises(WordError):
        k3_classify([], False)
    with pytest.raises(WordError):
        k3_classify([sphere(2), sphere(3)], False)
    with pytest.raises(WordError):
        k3_classify([sphere(11), sphere()], False)
    with pytest.raises(WordError):
        k3_classify(
            [SurfaceDescriptor(0, Orientability.NON_ORIENTABLE)], False
        )


def test_k3_quotients_over_catalog(catalog):
    # every catalog scheme, both sides: b2+(Y) = 1, b2-(Y) = 9 + chi/2
    for e in catalog:
        for outer in (False, True):
            t = TrackedScheme(e.scheme, 6, outer)
            inv = double_plane_invariants(t)
            assert inv.b2plus_Y == 1
            assert inv.b2minus_Y == 9 + inv.chi_XR // 2
