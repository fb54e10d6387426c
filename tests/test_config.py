import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR, desk_config_text
from nozzleflow.config import load_config, parse_config_text
from nozzleflow.errors import ConfigError, DomainError, ExpressionError
from nozzleflow.expressions import _MAX_DEPTH, parse_expression


class TestExpressions:
    @pytest.mark.parametrize("src,expected", [
        ("2 + 3*4", 14.0),
        ("2*3^2", 18.0),
        ("2^3^2", 512.0),            # right associative
        ("-2^2", -4.0),              # unary sign binds the whole power
        ("(-2)^2", 4.0),
        ("10/4", 2.5),
        ("1.5e-3 * 2", 3e-3),
        ("exp(0) + sin(0) + tanh(0)", 1.0),
        ("log(exp(2))", 2.0),
        ("2 × 3 ÷ 4", 1.5),
        ("1 - 2 - 3", -4.0),         # left associative
        ("8/2/2", 2.0),
    ])
    def test_arithmetic(self, src, expected):
        assert parse_expression(src)() == pytest.approx(expected, rel=1e-14)

    def test_variables_and_broadcast(self):
        e = parse_expression("-0.5 + 0.012*(1 - 1/(1 + 10*x))")
        x = np.linspace(0.0, 2.0, 5)
        vals = e(x=x)
        assert vals.shape == x.shape
        assert vals[0] == pytest.approx(-0.5)
        const = parse_expression("1.6")
        assert np.all(const(x=x) == 1.6)

    def test_time_variable(self):
        e = parse_expression("1.1 - 0.0787*t")
        assert e(t=2.0) == pytest.approx(1.1 - 0.1574)

    def test_uses_tracking(self):
        assert parse_expression("x + t").uses == {"x", "t"}
        assert parse_expression("3.0").uses == set()

    @pytest.mark.parametrize("bad", [
        "", "x +", "foo(2)", "y + 1", "(1", "1)", "1 $ 2", "exp 2", "..",
    ])
    def test_rejections(self, bad):
        with pytest.raises(ExpressionError):
            parse_expression(bad)

    @pytest.mark.parametrize("deep", [
        "(" * 2000 + "x" + ")" * 2000,
        "-" * 2000 + "x",
        "+" * 2000 + "x",
        "^".join(["x"] * 2000),
        "exp(" * 2000 + "x" + ")" * 2000,
    ], ids=["parentheses", "minus-signs", "plus-signs", "power-chain", "calls"])
    def test_deep_nesting_rejected(self, deep):
        with pytest.raises(ExpressionError, match="nested deeper"):
            parse_expression(deep)

    def test_nesting_limit_is_exact(self):
        inside = "(" * _MAX_DEPTH + "x" + ")" * _MAX_DEPTH
        assert parse_expression(inside)(x=2.0) == 2.0
        assert parse_expression("-" * _MAX_DEPTH + "x")(x=2.0) == 2.0
        with pytest.raises(ExpressionError):
            parse_expression("(" + inside + ")")
        with pytest.raises(ExpressionError):
            parse_expression("-" * (_MAX_DEPTH + 1) + "x")

    def test_long_flat_chain_evaluates(self):
        # a flat run of operators is one loop, not one nested closure each
        assert parse_expression(" + ".join(["x"] * 3000))(x=1.0) == 3000.0
        assert parse_expression(" * ".join(["x"] * 3000))(x=1.0) == 1.0

    def test_missing_variable_at_call(self):
        with pytest.raises(DomainError):
            parse_expression("x + 1")(t=0.0)


def _compound(inner):
    """Expressions of the grammar built from the expressions ``inner``."""
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(" ".join),
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"-{e}"),
        st.tuples(st.sampled_from(["exp", "log", "sin", "tanh"]), inner).map(
            lambda call: f"{call[0]}({call[1]})"))


_NUMBERS = st.one_of(st.sampled_from(["0", "1", "2", "8", "0.5", "10", "400", "1e400"]),
                     st.floats(min_value=0.0, max_value=1e6).map(repr))
_GRAMMAR = st.recursive(st.one_of(_NUMBERS, st.sampled_from(["x", "t"])), _compound,
                        max_leaves=12)


class TestConstantParts:
    """A part made of numbers alone is evaluated at parse time, in Python
    floats, which raise or turn complex where numpy would not."""

    def test_parts_that_read_a_variable_evaluate_with_numpy(self):
        # Non-finite values stay: the certificates judge them.
        x = np.array([0.5, 1.0])
        with np.errstate(all="ignore"):
            assert np.isinf(parse_expression("x * 1/0")(x=x)).all()
            assert np.isnan(parse_expression("(-x)^(1/3)")(x=x)).all()
        assert parse_expression("2 * 3 - 1 + x")(x=x).tolist() == [5.5, 6.0]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_GRAMMAR)
    def test_every_expression_is_real_or_rejected(self, src):
        x = np.linspace(-2.0, 2.0, 5)
        try:
            with np.errstate(all="ignore"), warnings.catch_warnings():
                warnings.simplefilter("error")
                out = parse_expression(src)(x=x, t=0.5)
        except ExpressionError:
            return
        assert isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == x.shape


class TestConfigParsing:
    def test_desk_configs_build(self):
        for name in ("p1_desk", "p2_desk", "p3_desk"):
            scn = load_config(CONFIG_DIR / f"{name}.cfg").to_scenario()
            assert scn.problem == name[:2].upper()
            assert scn.law.is_log_branch
            assert scn.config_text

    def test_unknown_key_is_line_anchored(self):
        text = desk_config_text("p1_desk").replace("cfl = 0.9", "cfll = 0.9")
        with pytest.raises(ConfigError) as err:
            parse_config_text(text, source="broken.cfg")
        assert "broken.cfg:" in str(err.value)
        assert "cfll" in str(err.value)
        line = int(str(err.value).split(":")[1])
        assert text.splitlines()[line - 1].startswith("cfll")

    def test_unknown_section(self):
        with pytest.raises(ConfigError):
            parse_config_text("[nonsense]\nk = 1\n")

    def test_duplicate_key(self):
        text = desk_config_text("p1_desk") + "\n[solver]\nn = 5\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert "duplicate" in str(err.value)

    def test_missing_required_expression(self):
        text = desk_config_text("p1_desk").replace(
            "z0 = -0.5 + 0.012*(1 - 1/(1 + 10*x))", "")
        with pytest.raises(ConfigError) as err:
            parse_config_text(text).to_scenario()
        assert "z0" in str(err.value)

    def test_bad_number(self):
        text = desk_config_text("p1_desk").replace("n = 2000", "n = soon")
        with pytest.raises(ConfigError):
            parse_config_text(text).to_scenario()

    def test_initial_data_must_not_use_time(self):
        text = desk_config_text("p1_desk").replace(
            "w0 = 0.5 + 0.012*(1 - 1/(1 + 10*x))", "w0 = 0.5 + t")
        with pytest.raises(ConfigError) as err:
            parse_config_text(text).to_scenario()
        assert "w0" in str(err.value)

    def test_gamma_out_of_range_is_anchored(self):
        text = desk_config_text("p1_desk").replace("gamma = 5/3", "gamma = 2.4")
        with pytest.raises(ConfigError):
            parse_config_text(text).to_scenario()

    def test_auto_region_search(self):
        text = desk_config_text("p1_desk")
        start = text.index("[region]")
        end = text.index("[data]")
        text = text[:start] + "[region]\nconstants = auto\n\n" + text[end:]
        scn = parse_config_text(text).to_scenario()
        assert scn.region.kind == "m"
        from nozzleflow.region import check_hypothesis, critical_constants

        cert = check_hypothesis(scn.region, scn.law, critical_constants(scn.law))
        assert cert.passed

    def test_defaults_applied(self):
        text = desk_config_text("p1_desk")
        text = text.replace("cfl = 0.9\n", "").replace("order = 2\n", "")
        scn = parse_config_text(text).to_scenario()
        assert scn.cfl == 0.9
        assert scn.order == 2

    @pytest.mark.parametrize("rows, why", [("0 0.05\n", "at least two rows"),
                                           ("x a\n0 0.05\n1 0.01\n", "could not convert")])
    def test_malformed_duct_table_is_anchored(self, rows, why, tmp_path):
        # One row once reached ``tabulated_profile`` as a 1-D array (an
        # IndexError), and a header line as numpy's own ValueError.
        (tmp_path / "duct.txt").write_text(rows)
        text = desk_config_text("p3_desk", {
            "family = power\namp = 0.05\nrate = 10\ndecay = 2\n":
                "family = table\ntable = duct.txt\n"})
        with pytest.raises(ConfigError) as err:
            parse_config_text(text, source="duct.cfg", base_dir=tmp_path).to_scenario()
        assert str(err.value).startswith("duct.cfg:11: ") and why in str(err.value)
