"""Expression grammar, printer round-trips, config format and the CLI contract."""

import os
import subprocess
import sys

import pytest

from twistcalc.cli import main
from twistcalc.exprparse import ParseError, load_config, parse_expr, standard_env
from twistcalc.tensors import TensorElement


@pytest.fixture(scope="module")
def env(model):
    return standard_env(model.ctx, model.alg, model.chart)


def test_quadric_generator_expression(model, env):
    from fractions import Fraction
    f = parse_expr("(1/2)*x1*x3 + (a/2)*x2^2 + c", env)
    assert f == model.generator
    # with the mixed-term half written out the leading coefficient doubles
    g = parse_expr("x1*x3 + (a/2)*x2^2 + c", env)
    assert g == model.generator + model.x[0] * model.x[2] * Fraction(1, 2)
    assert parse_expr("x1*x3", env) == model.x[0] * model.x[2]


def test_unit_tensor(model, env):
    assert parse_expr("1 ox 1", env) == TensorElement.unit(model.alg, 2)


def test_bracket_relation_normalizes_to_zero(model, env):
    assert parse_expr("H*E - E*H - 2*E", env).is_zero


def test_parse_errors_carry_position(env):
    with pytest.raises(ParseError) as err:
        parse_expr("x1 + @", env)
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse_expr("x1 *", env)
    with pytest.raises(ParseError):
        parse_expr("nosuch + 1", env)
    with pytest.raises(ParseError):
        parse_expr("x1 / x2", env)   # division by a function
    with pytest.raises(ParseError):
        parse_expr("x1 ^ x2", env)   # non-integer exponent


def test_no_implicit_multiplication(env):
    with pytest.raises(ParseError):
        parse_expr("2 x1", env)


def test_series_division_expressions(model, env):
    v = parse_expr("1/(1 + i*hbar)", env)
    assert v == (model.ctx.series_one() + model.ctx.hbar() * model.ctx.i).inverse()
    w = parse_expr("(1 + i*hbar)^-1", env)
    assert w == v


def test_printer_roundtrips(model, env):
    samples = [
        model.generator,
        model.calc.star(model.x[0], model.x[2]),
        model.calc.involution(model.x[2]),
        parse_expr("H^2*E - 3*Ep + (1/2)*H", env),
        (model.ctx.series_one() + model.ctx.hbar() * model.ctx.i).inverse(),
        model.sqrt_a / model.a + model.ctx.i,
    ]
    for value in samples:
        text = value.to_text()
        assert parse_expr(text, env) == value


def test_tensor_roundtrip(model, env):
    from twistcalc.twists import twisted_coproduct
    for name in model.alg.names:
        t = twisted_coproduct(model.twist, model.alg.generator(name))
        assert parse_expr(t.to_text(), env) == t


def test_config_roundtrip(tmp_path, model):
    cfg = """
[scalars]
params: a c
radical: sqrt(a)^2 = a

[algebra]
basis: H E Ep
bracket: [H,E] = 2*E
bracket: [H,Ep] = -2*Ep
bracket: [Ep,E] = H
involution: H* = -H
involution: E* = -E
involution: Ep* = -Ep

[realization]
coordinates: x1 x2 x3
H: (2*x1, 0, -2*x3)
E: (0, (sqrt(a)/a)*x1, -2*sqrt(a)*x2)
Ep: (-2*sqrt(a)*x2, (sqrt(a)/a)*x3, 0)

[twist]
kind: jordanian
generators: H E
scale: i

[metric]
row: 0, 0, 1/2
row: 0, a, 0
row: 1/2, 0, 0

[quadric]
generator: (1/2)*x1*x3 + (a/2)*x2^2 + c
order: x1 > x2 > x3
"""
    loaded = load_config(cfg)
    assert loaded.twist.tensor.to_text() == model.twist.tensor.to_text()
    assert loaded.ideal.generator.to_text() == model.generator.to_text()
    assert loaded.ideal.lead_monomial == model.ideal.lead_monomial
    assert loaded.real.field("H").to_text() == model.H.to_text()
    # a different coordinate priority picks a different leading monomial
    flipped = load_config(cfg.replace("order: x1 > x2 > x3",
                                      "order: x2 > x1 > x3"))
    assert flipped.ideal.lead_monomial == (0, 2, 0)


def test_presentation_format_accepts_juxtaposed_coefficients():
    cfg = """
[algebra]
basis: H E Ep
bracket: [H,E]=2E
bracket: [H,Ep]=-2Ep
bracket: [Ep,E]=H
involution: H*=-H
involution: E*=-E
involution: Ep*=-Ep
"""
    loaded = load_config(cfg)
    g = loaded.alg
    H, E = g.generator("H"), g.generator("E")
    assert H * E - E * H == E.scale(2)
    assert g.involution == (-1, -1, -1)


def test_config_errors():
    with pytest.raises(ParseError):
        load_config("key: value")   # outside a section
    with pytest.raises(ParseError):
        load_config("[scalars]\nbogus: 1")
    with pytest.raises(ParseError):
        load_config("[algebra]\nbasis: A B\nbracket: A*B = 1")


def test_cli_star_matches_engine(model, capsys):
    code = main(["star", "x1", "x2"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    env = standard_env(model.ctx, model.alg, model.chart)
    assert parse_expr(out, env) == model.calc.star(model.x[0], model.x[1])


def test_cli_coproduct_antipode(model, capsys):
    assert main(["coproduct", "E"]) == 0
    out = capsys.readouterr().out.strip()
    env = standard_env(model.ctx, model.alg, model.chart)
    from twistcalc.twists import twisted_coproduct, twisted_antipode
    assert parse_expr(out, env) == twisted_coproduct(
        model.twist, model.alg.generator("E"))
    assert main(["antipode", "H"]) == 0
    out = capsys.readouterr().out.strip()
    assert parse_expr(out, env) == twisted_antipode(
        model.twist, model.alg.generator("H"))


def test_cli_verify_twist_exit_codes(capsys):
    assert main(["verify-twist"]) == 0
    capsys.readouterr()
    assert main(["verify-twist", "--rmatrix", "--unitary"]) == 0
    capsys.readouterr()


def test_cli_verify_hopf_all_builtins(capsys):
    for name in ("so21", "sl2", "abelian2", "kz2", "fz2", "sweedler"):
        assert main(["verify-hopf", "--algebra", name]) == 0
        capsys.readouterr()
    assert main(["verify-hopf", "--algebra", "nosuch"]) == 2
    capsys.readouterr()


def test_cli_usage_error_exit_2(capsys):
    assert main(["star", "x1", "zzz"]) == 2
    capsys.readouterr()


def test_cli_bad_operands_exit_2(capsys):
    assert main(["star", "1/0", "x1"]) == 2
    assert main(["star", "sqrt(a)", "Ep"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 2
    assert all(line.startswith("error: ") for line in err)


def test_cli_dependent_radicals_exit_2(tmp_path, capsys):
    cfg = tmp_path / "radicals.cfg"
    cfg.write_text("[scalars]\nparams: a\nradical: sqrt(a)^2 = a\nradical: sqrt(b)^2 = a\n")
    assert main(["verify-twist", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "square" in err[0]


def test_cli_kv_format(capsys):
    assert main(["verify-twist", "--format", "kv"]) == 0
    out = capsys.readouterr().out
    for line in out.strip().splitlines():
        assert line.startswith("suite=")
    assert "status=PASS" in out


def test_cli_output_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert main(["verify-twist", "--output", str(target)]) == 0
    assert "suite" in target.read_text()


def test_cli_order_env(model, capsys, monkeypatch):
    monkeypatch.setenv("TWISTCALC_ORDER", "2")
    assert main(["star", "x1", "x3"]) == 0
    out = capsys.readouterr().out
    assert "hbar^2" in out
    monkeypatch.setenv("TWISTCALC_ORDER", "1")
    assert main(["star", "x1", "x3"]) == 0
    out = capsys.readouterr().out
    assert "hbar^2" not in out


def test_config_order_respected(tmp_path, capsys):
    cfg = tmp_path / "low_order.cfg"
    cfg.write_text("""
[scalars]
params: a c
radical: sqrt(a)^2 = a
order: 1
[algebra]
basis: H E Ep
bracket: [H,E] = 2*E
bracket: [H,Ep] = -2*Ep
bracket: [Ep,E] = H
[realization]
coordinates: x1 x2 x3
H: (2*x1, 0, -2*x3)
E: (0, (sqrt(a)/a)*x1, -2*sqrt(a)*x2)
Ep: (-2*sqrt(a)*x2, (sqrt(a)/a)*x3, 0)
[twist]
kind: jordanian
generators: H E
scale: i
""")
    # the config's truncation order wins when the flag and env are unset
    assert main(["star", "--config", str(cfg), "x1", "x3"]) == 0
    out = capsys.readouterr().out
    assert "hbar^2" not in out
    # an explicit flag overrides the config
    assert main(["star", "--config", str(cfg), "--order", "4", "x1", "x3"]) == 0
    out = capsys.readouterr().out
    assert "hbar^2" in out


def test_cli_config_file(tmp_path, capsys, model):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("""
[scalars]
params: a c
radical: sqrt(a)^2 = a
[algebra]
basis: H E Ep
bracket: [H,E] = 2*E
bracket: [H,Ep] = -2*Ep
bracket: [Ep,E] = H
involution: H* = -H
involution: E* = -E
involution: Ep* = -Ep
[realization]
coordinates: x1 x2 x3
H: (2*x1, 0, -2*x3)
E: (0, (sqrt(a)/a)*x1, -2*sqrt(a)*x2)
Ep: (-2*sqrt(a)*x2, (sqrt(a)/a)*x3, 0)
[twist]
kind: jordanian
generators: H E
scale: i
""")
    assert main(["verify-twist", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["star", "--config", str(cfg), "x1", "x2"]) == 0
    out = capsys.readouterr().out.strip()
    env = standard_env(model.ctx, model.alg, model.chart)
    assert parse_expr(out, env) == model.calc.star(model.x[0], model.x[1])


def test_cli_entrypoint_subprocess():
    # the installed console script honours the exit-code contract
    proc = subprocess.run([sys.executable, "-m", "twistcalc.cli",
                           "verify-hopf", "--algebra", "kz2"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
