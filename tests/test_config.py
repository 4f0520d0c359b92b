import math

import pytest

from omneg import config
from omneg.errors import ConfigError
from omneg.params import SystemParams

TWO_PI = 2.0 * math.pi


def test_scalar_base_values():
    base, axes = config.parse_config(
        """
        base.kappa = 5e7
        base.temperature = 0.004
        """
    )
    assert base.kappa == 5e7
    assert base.temperature == 0.004
    assert axes == []


def test_omega_scaling_suffix():
    base, _ = config.parse_config(
        """
        base.omega_m1 = 1e9
        base.detuning = 0.75 * omega_m1
        """
    )
    assert base.detuning == 0.75e9


def test_in_omega_m_alias():
    base, _ = config.parse_config("base.coulomb_lambda_in_omega_m = 0.95")
    assert base.coulomb_lambda == pytest.approx(0.95 * TWO_PI * 1e8, rel=1e-15)


def test_alias_with_explicit_scaling_rejected():
    with pytest.raises(ConfigError):
        config.parse_config("base.detuning_in_omega_m = 0.5 * omega_m1")


def test_axes_linspace_and_list():
    _, axes = config.parse_config(
        """
        axes.detuning = linspace(0, 4, 5)
        axes.power = list(0.03, 0.05, 0.08)
        """
    )
    assert axes[0] == ("detuning", (0.0, 1.0, 2.0, 3.0, 4.0))
    assert axes[1] == ("power", (0.03, 0.05, 0.08))


def test_axes_keep_file_order():
    _, axes = config.parse_config(
        """
        axes.power = list(0.03, 0.05)
        axes.detuning = list(1.0)
        axes.temperature = list(0.001, 0.002)
        """
    )
    assert [name for name, _ in axes] == ["power", "detuning", "temperature"]


def test_scaled_axis_values():
    _, axes = config.parse_config(
        """
        base.omega_m1 = 2.0
        axes.coulomb_lambda = list(0.3, 0.5) * omega_m1
        """
    )
    assert axes == [("coulomb_lambda", (0.6, 1.0))]


def test_scalar_in_axes_rejected():
    with pytest.raises(ConfigError):
        config.parse_config("axes.power = 0.05")


def test_linspace_count_over_grid_cap_rejected(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("linspace called for a count over the cap")

    monkeypatch.setattr(config.np, "linspace", boom)
    cap = config.MAX_GRID_POINTS
    for count in (str(cap + 1), "10000000000", "9" * 5000):
        with pytest.raises(ConfigError, match="grid cap"):
            config.parse_config(f"axes.power = linspace(0, 1, {count})")


def test_linspace_in_base_rejected():
    with pytest.raises(ConfigError):
        config.parse_config("base.power = linspace(0, 1, 3)")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        config.parse_config("base.power = 0.05\nbase.power = 0.06")


def test_alias_conflicts_with_plain_spelling():
    with pytest.raises(ConfigError):
        config.parse_config(
            "base.detuning = 1.0\nbase.detuning_in_omega_m = 0.5"
        )


def test_unknown_parameter_rejected():
    with pytest.raises(ConfigError):
        config.parse_config("base.frequency = 1.0")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        config.parse_config("sweep.power = 0.05")


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
        config.parse_config("base.power = fifty")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError):
        config.parse_config("base.power 0.05")


def test_comments_and_blank_lines_ignored():
    base, axes = config.parse_config(
        """
        # full-line comment

        base.power = 0.08  # trailing comment
        """
    )
    assert base.power == 0.08
    assert axes == []


def test_scaling_resolves_regardless_of_line_order():
    text_a = "base.omega_m1 = 4.0\nbase.detuning = 0.5 * omega_m1"
    text_b = "base.detuning = 0.5 * omega_m1\nbase.omega_m1 = 4.0"
    assert config.parse_config(text_a)[0] == config.parse_config(text_b)[0]


def test_omega_m1_cannot_scale_itself():
    with pytest.raises(ConfigError):
        config.parse_config("base.omega_m1 = 2.0 * omega_m1")
    with pytest.raises(ConfigError):
        config.parse_config("axes.omega_m1 = list(1.0, 2.0) * omega_m1")


def test_invalid_physics_becomes_config_error():
    with pytest.raises(ConfigError):
        config.parse_config("base.mass = -1.0")


def test_empty_config_gives_defaults():
    base, axes = config.parse_config("")
    assert base == SystemParams()
    assert axes == []


def test_load_config_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        config.load_config(tmp_path / "nope.cfg")


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("base.power = 0.03\naxes.detuning = list(1e8)\n")
    base, axes = config.load_config(path)
    assert base.power == 0.03
    assert axes == [("detuning", (1e8,))]


def test_parse_override_forms():
    assert config.parse_override("power=0.05") == ("power", 0.05, False)
    assert config.parse_override("detuning = 0.75 * omega_m1") == (
        "detuning",
        0.75,
        True,
    )
    assert config.parse_override("coulomb_lambda_in_omega_m=0.95") == (
        "coulomb_lambda",
        0.95,
        True,
    )
    with pytest.raises(ConfigError):
        config.parse_override("power")
    with pytest.raises(ConfigError):
        config.parse_override("nope=1.0")
    with pytest.raises(ConfigError):
        config.parse_override("omega_m1=2.0 * omega_m1")


def test_apply_overrides_omega_first_and_last_wins():
    base = SystemParams()
    out = config.apply_overrides(
        base,
        ["detuning=0.5 * omega_m1", "omega_m1=4.0", "detuning=0.25 * omega_m1"],
    )
    assert out.omega_m1 == 4.0
    assert out.detuning == 1.0
    out2 = config.apply_overrides(base, ["power=0.03", "power=0.08"])
    assert out2.power == 0.08


def test_apply_overrides_invalid_result():
    with pytest.raises(ConfigError):
        config.apply_overrides(SystemParams(), ["mass=-1.0"])


@pytest.mark.parametrize(
    "statements",
    [
        ["power = 0.03"],
        ["detuning = 0.5 * omega_m1"],
        ["coulomb_lambda_in_omega_m = 0.95"],
        ["detuning = 0.5 * omega_m1", "omega_m1 = 4.0e8"],
        ["omega_m1 = 4.0e8", "coulomb_lambda_in_omega_m = 0.5"],
    ],
    ids=["plain", "scaled", "alias", "omega-after", "omega-before"],
)
def test_base_line_and_override_give_same_params(statements):
    from_file, axes = config.parse_config(
        "\n".join("base." + s for s in statements)
    )
    assert axes == [] and from_file != SystemParams()
    assert config.apply_overrides(SystemParams(), statements) == from_file


# one fault per input; the texts are pinned byte for byte
FILE_FAULTS = [
    ("base.power 0.05", "line 1: expected key = value, got 'base.power 0.05'"),
    ("base.power = # note", "line 1: empty value for 'base.power'"),
    ("power = 0.05", "line 1: key 'power' needs a base. or axes. prefix"),
    ("sweep.power = 0.05",
     "line 1: unknown section 'sweep' (expected base or axes)"),
    ("base.frequency = 1.0", "line 1: unknown parameter 'frequency'"),
    ("base.power = fifty", "line 1: cannot parse value 'fifty'"),
    ("axes.power = 0.05",
     "line 1: axes values must be linspace(...) or list(...)"),
    ("base.power = list(1, 2)", "line 1: base values must be single numbers"),
    ("axes.power = linspace(0, 1, 0)",
     "line 1: linspace needs at least one point"),
    ("axes.power = linspace(0, 1, 1000001)",
     "line 1: linspace count 1000001 exceeds the grid cap of 1000000 points"),
    ("axes.power = list()", "line 1: list(...) must not be empty"),
    ("axes.power = list(1, x)", "line 1: bad number 'x' in list(...)"),
    ("base.detuning_in_omega_m = 0.5 * omega_m1",
     "line 1: 'base.detuning_in_omega_m' is already a multiple of omega_m1"),
    ("base.power = 1\naxes.omega_m1 = list(1.0, 2.0) * omega_m1",
     "line 2: omega_m1 cannot be scaled by itself"),
    ("base.detuning = 1.0\nbase.detuning = 2.0",
     "line 2: duplicate setting of base.detuning"),
    ("base.detuning = 1.0\nbase.detuning_in_omega_m = 0.5",
     "line 2: duplicate setting of base.detuning"),
    ("base.mass = -1.0",
     "invalid base parameters: mass must be positive, got -1.0"),
]
OVERRIDE_FAULTS = [
    (["power"], "override 'power' must look like name=value"),
    (["power="], "empty value for 'power'"),
    (["nope=1.0"], "unknown parameter 'nope'"),
    (["base.power=1"], "unknown parameter 'base.power'"),
    (["power=list(1, 2)"], "base values must be single numbers"),
    (["detuning_in_omega_m=0.5 * omega_m1"],
     "'detuning_in_omega_m' is already a multiple of omega_m1"),
    (["omega_m1=2.0 * omega_m1"], "omega_m1 cannot be scaled by itself"),
    (["power=0.03", "mass=-1.0"],
     "invalid parameters after overrides: mass must be positive, got -1.0"),
]


@pytest.mark.parametrize("text, message", FILE_FAULTS)
def test_config_fault_messages(text, message):
    with pytest.raises(ConfigError) as info:
        config.parse_config(text)
    assert str(info.value) == message


@pytest.mark.parametrize("specs, message", OVERRIDE_FAULTS)
def test_override_fault_messages(specs, message):
    with pytest.raises(ConfigError) as info:
        config.apply_overrides(SystemParams(), specs)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("base.power = 1\nbase.power = 2\nbase.nope = 3",
         "line 2: duplicate setting of base.power"),
        ("base.omega_m1 = 2 * omega_m1\nbase.power = 1\nbase.power = 2",
         "line 1: omega_m1 cannot be scaled by itself"),
        ("axes.omega_m1 = list(1) * omega_m1\nbase.omega_m1 = 2 * omega_m1",
         "line 1: omega_m1 cannot be scaled by itself"),
    ],
    ids=["duplicate-first", "self-scaled-first", "axes-self-scaled-first"],
)
def test_first_faulty_line_is_reported(text, message):
    with pytest.raises(ConfigError) as info:
        config.parse_config(text)
    assert str(info.value) == message
