"""System profile tests: built-in constraint grids, invariants, file loading."""

import numpy as np
import pytest

from ofdmse.modulation import CATALOG, CATALOG_INDEX, ModulationFamily, scheme_from_name
from ofdmse.systems import (
    ASK_SET,
    FULL_SET,
    PSK_SET,
    ConstraintGrid,
    Role,
    SystemProfile,
    build_profile,
    load_profile,
    lte_pilot_positions,
    saturation_bits,
)


def test_pilot_positions():
    pos = lte_pilot_positions()
    assert pos == {(0, 0), (6, 0), (3, 4), (9, 4)}
    assert len(pos) == 4
    assert all(0 <= k < 12 and 0 <= l < 7 for k, l in pos)


def test_full_bitloading_profile():
    p = build_profile("fb")
    assert p.name == "fb"
    assert p.grid.n_f == 12 and p.grid.n_t == 7
    for row in p.grid.allowed:
        for schemes in row:
            assert len(schemes) == 13
    assert all(r is Role.DATA for row in p.grid.roles for r in row)


def test_constant_modulus_profile():
    p = build_profile("cm")
    for row in p.grid.allowed:
        for schemes in row:
            assert schemes == PSK_SET
            assert len(schemes) == 5


def test_lte_profile():
    p = build_profile("lte")
    pilots = lte_pilot_positions()
    data_positions = 0
    for k in range(12):
        for l in range(7):
            if (k, l) in pilots:
                assert p.grid.roles[k][l] is Role.PILOT
                assert all(s.silent for s in p.grid.allowed[k][l])
            else:
                assert p.grid.roles[k][l] is Role.DATA
                assert p.grid.allowed[k][l] == FULL_SET
                data_positions += 1
    assert data_positions == 80


def test_modified_lte_profile():
    p = build_profile("mlte")
    pilots = lte_pilot_positions()
    neighbours = {((k + 1) % 12, l) for k, l in pilots}
    n_ask = n_psk = n_full = 0
    for k in range(12):
        for l in range(7):
            schemes = p.grid.allowed[k][l]
            if (k, l) in pilots:
                assert p.grid.roles[k][l] is Role.AMPLITUDE_DATA
                assert schemes == ASK_SET
                n_ask += 1
            elif (k, l) in neighbours:
                assert p.grid.roles[k][l] is Role.DATA
                assert schemes == PSK_SET
                n_psk += 1
            else:
                assert schemes == FULL_SET
                n_full += 1
    assert (n_ask, n_psk, n_full) == (4, 4, 76)


def test_name_normalisation_and_errors():
    assert build_profile("M-LTE").name == "mlte"
    assert build_profile("FB").name == "fb"
    with pytest.raises(ValueError):
        build_profile("dvb")
    with pytest.raises(ValueError):
        build_profile("lte", n_f=8)        # pilot row 9 does not fit
    with pytest.raises(ValueError):
        build_profile("mlte", n_t=4)
    with pytest.raises(ValueError):
        build_profile("fb", n_f=0)


def test_build_profile_returns_one_object_per_arguments():
    assert build_profile("lte") is build_profile("lte")
    assert build_profile("cm", 2, 2) is build_profile("cm", 2, 2)
    assert build_profile("cm", 2, 3) is not build_profile("cm", 2, 2)
    for _ in range(3):
        with pytest.raises(ValueError, match="unknown system name"):
            build_profile("dvb")


def test_saturation_bits():
    assert saturation_bits(build_profile("fb")) == 504
    assert saturation_bits(build_profile("lte")) == 480
    assert saturation_bits(build_profile("cm")) == 336
    assert saturation_bits(build_profile("mlte")) == 484


def test_subset_ordering_and_saturation_dominance():
    fb = build_profile("fb")
    sats = {}
    for name in ("cm", "lte", "mlte"):
        p = build_profile(name)
        for k in range(12):
            for l in range(7):
                assert p.grid.allowed[k][l] <= fb.grid.allowed[k][l]
        sats[name] = saturation_bits(p)
    assert all(saturation_bits(fb) >= s for s in sats.values())
    assert sats["mlte"] > sats["lte"]


def test_allowed_mask():
    p = build_profile("lte")
    mask = p.grid.allowed_mask
    assert mask.shape == (13, 12, 7)
    assert not mask.flags.writeable
    qam64 = CATALOG_INDEX[scheme_from_name("QAM64")]
    psk1 = CATALOG_INDEX[scheme_from_name("PSK1")]
    assert not mask[qam64, 0, 0] and mask[psk1, 0, 0]
    assert mask[qam64, 1, 0]
    # mask rows agree with set membership everywhere
    for i, s in enumerate(CATALOG):
        for k in range(12):
            for l in range(7):
                assert mask[i, k, l] == (s in p.grid.allowed[k][l])


def test_grid_invariant_violations():
    silent = frozenset({scheme_from_name("PSK1")})
    bpsk = frozenset({scheme_from_name("PSK1"), scheme_from_name("PSK2")})
    with pytest.raises(ValueError, match="order-1"):
        ConstraintGrid(((frozenset({scheme_from_name("PSK2")}),),), ((Role.DATA,),))
    with pytest.raises(ValueError, match="silent"):
        ConstraintGrid(((bpsk,),), ((Role.PILOT,),))
    with pytest.raises(ValueError, match="ASK-only"):
        ConstraintGrid(((bpsk,),), ((Role.AMPLITUDE_DATA,),))
    with pytest.raises(ValueError, match="empty"):
        ConstraintGrid(((frozenset(),),), ((Role.DATA,),))
    with pytest.raises(ValueError, match="ragged"):
        ConstraintGrid(((silent, silent), (silent,)), ((Role.DATA,) * 2,) * 2)
    with pytest.raises(ValueError, match="shape"):
        ConstraintGrid(((silent,),), ((Role.DATA, Role.DATA),))
    with pytest.raises(ValueError):
        SystemProfile("", build_profile("fb").grid)
    for name in ("a,b", 'a"b', "a\nb", "a\rb"):
        with pytest.raises(ValueError, match="must not hold"):
            SystemProfile(name, build_profile("fb").grid)


def test_grid_names_the_first_bad_position_row_major():
    silent = frozenset({scheme_from_name("PSK1")})
    no_silent = frozenset({scheme_from_name("PSK2")})
    allowed = [[silent] * 4 for _ in range(3)]
    for k, l in ((2, 0), (1, 3), (1, 2)):
        allowed[k][l] = no_silent
    roles = ((Role.DATA,) * 4,) * 3
    with pytest.raises(ValueError, match=r"no order-1 scheme at \(1, 2\)$"):
        ConstraintGrid(tuple(map(tuple, allowed)), roles)
    # a different failure further on does not take the first one's place
    allowed[0][1] = frozenset()
    with pytest.raises(ValueError, match=r"empty allowed set at \(0, 1\)$"):
        ConstraintGrid(tuple(map(tuple, allowed)), roles)


def test_set_passed_for_data_is_still_checked_for_a_later_pilot():
    # the one set object passes at (0, 0) as data and must fail at (1, 1) as a pilot
    bpsk = frozenset({scheme_from_name("PSK1"), scheme_from_name("PSK2")})
    roles = ((Role.DATA, Role.DATA), (Role.DATA, Role.PILOT))
    with pytest.raises(ValueError, match=r"pilot position \(1, 1\) must stay silent"):
        ConstraintGrid(((bpsk, bpsk), (bpsk, bpsk)), roles)
    roles = ((Role.DATA, Role.AMPLITUDE_DATA), (Role.DATA, Role.DATA))
    with pytest.raises(ValueError, match=r"amplitude position \(0, 1\) must be ASK-only"):
        ConstraintGrid(((bpsk, bpsk), (bpsk, bpsk)), roles)


MAP_4X4 = """\
# corners are pilots; second row unrestricted; third row amplitude data
4 4
0 0 pilot psk:1
0 3 pilot psk:1
3 0 pilot psk:1
3 3 pilot psk:1
0 1 data psk:16
0 2 data psk:16
3 1 data psk:16
3 2 data psk:16
1 0 data ask:8,psk:16,qam:64
1 1 data ask:8,psk:16,qam:64
1 2 data ask:8,psk:16,qam:64
1 3 data ask:8,psk:16,qam:64
2 0 amplitude ask:8
2 1 amplitude ask:8
2 2 amplitude ask:8
2 3 amplitude ask:8
"""


def test_load_profile(tmp_path):
    f = tmp_path / "custom_map.txt"
    f.write_text(MAP_4X4)
    p = load_profile(f)
    assert p.name == "custom_map"
    assert p.grid.n_f == 4 and p.grid.n_t == 4
    assert p.grid.roles[0][0] is Role.PILOT
    assert p.grid.allowed[0][1] == PSK_SET
    assert p.grid.allowed[1][2] == FULL_SET
    assert p.grid.allowed[2][3] == ASK_SET
    assert p.grid.roles[2][3] is Role.AMPLITUDE_DATA
    assert saturation_bits(p) == 4 * 0 + 4 * 4 + 4 * 6 + 4 * 3


def mask_one_scheme_at_a_time(grid):
    """allowed_mask as a loop over positions and schemes."""
    mask = np.zeros((len(CATALOG), grid.n_f, grid.n_t), dtype=bool)
    for k, row in enumerate(grid.allowed):
        for l, schemes in enumerate(row):
            for s in schemes:
                mask[CATALOG_INDEX[s], k, l] = True
    return mask


def assert_mask_unchanged(grid):
    mask = grid.allowed_mask
    assert mask.dtype == bool and mask.flags.c_contiguous and not mask.flags.writeable
    np.testing.assert_array_equal(mask, mask_one_scheme_at_a_time(grid))


@pytest.mark.parametrize("name", ["fb", "cm", "lte", "mlte"])
@pytest.mark.parametrize("n_f,n_t", [(12, 7), (13, 5)])
def test_allowed_mask_of_built_in_profiles(name, n_f, n_t):
    assert_mask_unchanged(build_profile(name, n_f, n_t).grid)


def test_allowed_mask_of_loaded_profile(tmp_path):
    f = tmp_path / "custom_map.txt"
    f.write_text(MAP_4X4)
    assert_mask_unchanged(load_profile(f).grid)
    # a different allowed set at nearly every position
    columns = ["ask:1", "ask:2", "ask:4", "ask:8", "psk:1", "psk:2", "psk:4",
               "psk:8", "psk:16", "qam:1", "qam:4", "qam:16", "qam:64"]
    lines = ["3 5"]
    for p in range(15):
        k, l = divmod(p, 5)
        sets = [columns[(p + j) % 13] for j in range(1 + p % 3)]
        lines.append(f"{k} {l} data {','.join(sets)}")
    f.write_text("\n".join(lines) + "\n")
    assert_mask_unchanged(load_profile(f).grid)


def test_load_profile_errors(tmp_path):
    cases = [
        ("4\n", 1, "header"),
        ("2 2\n0 0 data psk:16 extra\n", 2, "expected"),
        ("2 2\n0 5 data psk:16\n", 2, "outside"),
        ("2 2\n0 0 data psk:16\n0 0 data psk:16\n", 3, "duplicate"),
        ("2 2\n0 0 guard psk:16\n", 2, "role"),
        ("2 2\n0 0 data fsk:16\n", 2, "family"),
        ("2 2\n0 0 data qam:32\n", 2, "order 32"),
        ("2 2\n0 0 data psk16\n", 2, "family:max_order"),
        ("2 2\n0 0 pilot psk:2\n", 2, "order-1"),
        ("2 2\n0 0 amplitude psk:16\n", 2, "ASK"),
        ("2 2\nx 0 data psk:16\n", 2, "invalid literal"),
    ]
    for i, (text, lineno, fragment) in enumerate(cases):
        f = tmp_path / f"bad{i}.txt"
        f.write_text(text)
        with pytest.raises(ValueError, match=fragment) as err:
            load_profile(f)
        assert f":{lineno}:" in str(err.value)

    incomplete = tmp_path / "incomplete.txt"
    incomplete.write_text("2 2\n0 0 data psk:16\n")
    with pytest.raises(ValueError, match="3 positions not specified"):
        load_profile(incomplete)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError, match="empty"):
        load_profile(empty)
