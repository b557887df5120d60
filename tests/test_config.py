import math

import pytest
from abcd import get_path, one_trip

from rbswipt.config import (
    _RANGES,
    SCHEMA,
    ConfigError,
    check_value,
    config_digest,
    copy_config,
    get_preset,
    parse_config,
    parse_quantity,
    serialize_config,
    set_path,
    validate_config,
)
from rbswipt.ray_optics import open_cavity


class TestParseQuantity:
    def test_gain_factor_cm(self):
        assert parse_quantity("2000 cm^-1", "inv_length") == \
            pytest.approx(2e5)

    def test_background_current_ua(self):
        assert parse_quantity("5100 uA", "current") == pytest.approx(5.1e-3)

    def test_attached_unit(self):
        assert parse_quantity("150W", "power") == 150.0

    def test_negative_with_unit(self):
        assert parse_quantity("-5 mm", "length") == pytest.approx(-5e-3)

    def test_infinite_length(self):
        assert parse_quantity("inf m", "length") == math.inf

    def test_dimensionless_rejects_unit(self):
        with pytest.raises(ConfigError):
            parse_quantity("0.9 m", "dimensionless")

    def test_missing_unit_rejected(self):
        with pytest.raises(ConfigError):
            parse_quantity("2000", "inv_length")

    def test_unknown_unit_rejected(self):
        with pytest.raises(ConfigError):
            parse_quantity("10 furlong", "length")


class TestParseConfig:
    def test_overlay_on_preset(self):
        cfg = parse_config("[gain]\nl = 0.2 um\n[geometry]\nr2 = 0.95\n",
                           base=get_preset("paper-2022"))
        assert cfg["gain"]["l"] == pytest.approx(0.2e-6)
        assert cfg["geometry"]["r2"] == 0.95

    def test_reflectivity_out_of_range(self):
        with pytest.raises(ConfigError) as e:
            parse_config("[geometry]\nr2 = 1.2\n",
                         base=get_preset("paper-2022"))
        assert str(e.value) == \
            "line 2: geometry.r2 = 1.2 out of range (in (0, 1])"

    def test_unknown_key_named_with_line(self):
        with pytest.raises(ConfigError, match="line 2.*gain.bogus"):
            parse_config("[gain]\nbogus = 1\n", base=get_preset("paper-2022"))

    def test_missing_unit_names_key(self):
        with pytest.raises(ConfigError, match="gain.l"):
            parse_config("[gain]\nl = 3\n", base=get_preset("paper-2022"))

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\n[link]\np_in = 150 W  # inline\n",
                           base=get_preset("paper-2022"))
        assert cfg["link"]["p_in"] == 150.0

    def test_f2_and_magnification_exclusive(self):
        # a file naming both keys of the pair is rejected, whether or not
        # a base fills the other keys
        both = "[geometry]\nf2 = 60 mm\ntim_magnification = 12\n"
        preset = get_preset("paper-2022")
        for text, base in ((both, preset),
                           (serialize_config(preset) + both, None)):
            with pytest.raises(ConfigError) as e:
                parse_config(text, base=base)
            assert str(e.value) == \
                "geometry must define exactly one of f2 or tim_magnification"

    def test_file_f2_displaces_base_magnification(self):
        cfg = parse_config("[geometry]\nf2 = 60 mm\n",
                           base=get_preset("paper-2022"))
        assert cfg["geometry"]["f2"] == pytest.approx(60e-3)
        assert "tim_magnification" not in cfg["geometry"]

    def test_file_magnification_displaces_base_f2(self):
        base = get_preset("paper-2022")
        set_path(base, "geometry.f2", 60e-3)
        cfg = parse_config("[geometry]\ntim_magnification = 10\n", base=base)
        assert cfg["geometry"]["tim_magnification"] == 10.0
        assert "f2" not in cfg["geometry"]
        assert "f2" in base["geometry"]         # the base is left as given


def test_ranges_and_schema_agree():
    # a range text missing from _RANGES would be a KeyError in check_value
    used = {entry[2] for keys in SCHEMA.values() for entry in keys.values()}
    assert used == set(_RANGES)


# one value out of each _RANGES text's range, on a path of that range, and
# the error every range check words it with
RANGE_CASES = [
    ("geometry.d1", 0.0, "geometry.d1 = 0.0 out of range (finite > 0)"),
    ("receiver.i_bg", -1.0,
     "receiver.i_bg = -1.0 out of range (finite >= 0)"),
    ("geometry.r2", 0.0, "geometry.r2 = 0.0 out of range (in (0, 1])"),
    ("receiver.mu", 1.5, "receiver.mu = 1.5 out of range (in [0, 1])"),
    ("geometry.f1", 0.0,
     "geometry.f1 = 0.0 out of range (finite, nonzero)"),
    ("receiver.p_pth", math.nan,
     "receiver.p_pth = nan out of range (finite)"),
    ("geometry.fr2", -math.inf,
     "geometry.fr2 = -inf out of range (> 0 or inf)"),
    ("losses.slope_loss_exponent", 1.5,
     "losses.slope_loss_exponent = 1.5 out of range (1 or 2)")]


class TestRangeChecks:
    def test_check_value_names_the_first_value_out_of_range(self):
        # one call checks a whole grid axis: every value, in order
        check_value("geometry.f1")
        check_value("geometry.f1", -1.0, -0.5, 0.5, 1.0)
        for values, message in (
                ((-1.0, 0.0, math.inf), "geometry.f1 = 0.0 out of range "
                                        "(finite, nonzero)"),
                ((-1.0, 1.0, math.inf, 0.0), "geometry.f1 = inf out of range "
                                             "(finite, nonzero)")):
            with pytest.raises(ConfigError) as e:
                check_value("geometry.f1", *values)
            assert str(e.value) == message
        # the value out of range may be the last
        with pytest.raises(ConfigError) as e:
            check_value("losses.slope_loss_exponent", 1.0, 2.0, 1.0, 1.5)
        assert str(e.value) == ("losses.slope_loss_exponent = 1.5 out of "
                                "range (1 or 2)")
        with pytest.raises(ConfigError) as e:
            check_value("geometry.nope", 1.0)
        assert str(e.value) == "unknown parameter path 'geometry.nope'"

    @pytest.mark.parametrize("path, value, message", RANGE_CASES,
                             ids=[case[0] for case in RANGE_CASES])
    def test_validate_config_words_every_range(self, path, value, message):
        # validate_config calls each range's check itself, and words a
        # failure as check_value and set_path do
        section, _, key = path.partition(".")
        cfg = get_preset("paper-2022")
        cfg[section][key] = value
        for check in (validate_config, lambda c: set_path(c, path, value),
                      lambda c: check_value(path, value)):
            with pytest.raises(ConfigError) as e:
                check(cfg)
            assert str(e.value) == message

    def test_every_range_has_a_case(self):
        bounds = [SCHEMA[section][key][2] for section, _, key in
                  (case[0].partition(".") for case in RANGE_CASES)]
        assert sorted(bounds) == sorted(_RANGES)


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        cfg = get_preset("paper-2022")
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg
        assert serialize_config(again) == text

    def test_digest_stable_and_sensitive(self):
        cfg = get_preset("paper-2022")
        d1 = config_digest(cfg)
        assert d1 == config_digest(get_preset("paper-2022"))
        cfg["link"]["p_in"] = 150.0
        assert config_digest(cfg) != d1


class TestPaths:
    def test_get_set(self):
        cfg = get_preset("paper-2022")
        set_path(cfg, "geometry.fr2", 11.0)
        assert get_path(cfg, "geometry.fr2") == 11.0

    def test_bad_path(self):
        cfg = get_preset("paper-2022")
        with pytest.raises(ConfigError):
            set_path(cfg, "geometry.nope", 1.0)
        with pytest.raises(ConfigError):
            get_path(cfg, "nope.nope")

    def test_magnification_and_f2_displace_each_other(self):
        cfg = get_preset("paper-2022")
        set_path(cfg, "geometry.f2", 60e-3)
        assert "tim_magnification" not in cfg["geometry"]
        set_path(cfg, "geometry.tim_magnification", 10.0)
        assert "f2" not in cfg["geometry"]


    def test_copy_config_is_independent(self):
        cfg = get_preset("paper-2022")
        copied = copy_config(cfg)
        assert copied == cfg
        set_path(copied, "geometry.f2", 60e-3)
        assert "tim_magnification" in cfg["geometry"]
        assert "f2" not in cfg["geometry"]


class TestBuilders:
    def test_geometry_from_magnification(self):
        geo = get_preset("paper-2022")["geometry"]
        f1, f2 = geo["f1"], -geo["f1"] * geo["tim_magnification"]
        # magnification 12 with f1 = -5 mm puts the second lens at 60 mm
        assert f2 == pytest.approx(60e-3)
        assert -f2 / f1 == pytest.approx(12.0)
        explicit = {k: v for k, v in geo.items() if k != "tim_magnification"}
        explicit.update(f2=f2, lt=f1 + f2)
        # repr also tells -0.0 from 0.0
        assert repr(one_trip(open_cavity(geo), geo)) == \
            repr(one_trip(open_cavity(explicit), explicit))

    def test_preset_gain_is_si(self):
        gain = get_preset("paper-2022")["gain"]
        assert gain["g0"] == pytest.approx(2e5)       # 2000 cm^-1
        assert gain["n0"] == pytest.approx(1.7e24)    # 1.7e18 cm^-3
        assert gain["beta"] == pytest.approx(1e-16)   # 1e-10 cm^3/s
        assert gain["auger"] == pytest.approx(6e-42)  # 6e-30 cm^6/s

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            get_preset("nope")
