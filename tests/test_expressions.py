import math

import numpy as np
import pytest

from slantmap.expressions import (MAX_DEPTH, BinOp, ExpressionDomainError,
                                  ExpressionSyntaxError, Formulas, Fun, Lit,
                                  Var, eval_jet2, eval_jets, parse_expression,
                                  to_text)
from oracles import fd_gradient, fd_hessian


def test_parse_example_component():
    expr = parse_expression("(x2+x3)/sqrt(3)", 4)
    assert expr.root == BinOp("/", BinOp("+", Var(2), Var(3)),
                              Fun("sqrt", Lit(3.0)))


def test_parse_identity_component():
    assert parse_expression("x1", 1).root == Var(1)


def test_variable_out_of_range():
    with pytest.raises(ExpressionSyntaxError, match="out of range"):
        parse_expression("x1 + x5", 4)


def test_unknown_function_and_identifier():
    with pytest.raises(ExpressionSyntaxError, match="unknown identifier"):
        parse_expression("sinh(x1)", 2)
    with pytest.raises(ExpressionSyntaxError, match="unknown identifier"):
        parse_expression("y1", 2)


def test_syntax_error_reports_offset():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("x1 + ", 2)
    assert err.value.offset == 5
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("x1 @ x2", 2)
    assert err.value.offset == 3


# Each construct nested to a given depth, a formula in x1 whose value stays
# in [-200, 200] on [-1, 1], and the byte offset where the parser rejects it
# one level deeper than MAX_DEPTH.  Sums and products are trees as deep as
# their terms; a minus, sin or pow adds a node above its argument;
# parentheses add none, yet each one open is a level of the parser's own
# recursion.
NESTED = {
    "sum": (lambda d: "+".join(["x1"] * d), 3 * MAX_DEPTH - 1),
    "product": (lambda d: "*".join(["x1"] * d), 3 * MAX_DEPTH - 1),
    "parentheses": (lambda d: "(" * d + "x1" + ")" * d, MAX_DEPTH),
    "unary_minus": (lambda d: "-" * (d - 1) + "x1", 0),
    "sin": (lambda d: "sin(" * (d - 1) + "x1" + ")" * (d - 1), 0),
    "pow": (lambda d: "pow(" * (d - 1) + "x1" + ", 1)" * (d - 1), 0),
}


@pytest.mark.parametrize("construct", sorted(NESTED))
def test_a_formula_deeper_than_max_depth_is_a_syntax_error(construct):
    # one level more ended in a RecursionError: in the parser for 330 open
    # parentheses, in the evaluation of a check for a 500-term sum
    nested, offset = NESTED[construct]
    deepest = parse_expression(nested(MAX_DEPTH), 1)
    assert parse_expression(to_text(deepest.root), 1) == deepest
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression(nested(MAX_DEPTH + 1), 1)
    assert str(err.value) == (f"formula nested more than {MAX_DEPTH} "
                              f"levels deep (byte offset {offset})")
    with pytest.raises(ExpressionSyntaxError, match="formula nested more than"):
        parse_expression(nested(5 * MAX_DEPTH), 1)


def test_pow_requires_integer_exponent():
    expr = parse_expression("pow(x1, 3)", 1)
    assert eval_jet2(expr, [2.0]).value == 8.0
    with pytest.raises(ExpressionSyntaxError, match="integer"):
        parse_expression("pow(x1, 1.5)", 1)


def test_pow_negative_exponent():
    expr = parse_expression("pow(x1, -2)", 1)
    jet = eval_jet2(expr, [2.0])
    assert jet.value == pytest.approx(0.25)
    assert jet.grad[0] == pytest.approx(-2 * 2.0**-3)
    assert jet.hess[0, 0] == pytest.approx(6 * 2.0**-4)
    with pytest.raises(ExpressionDomainError, match="negative power"):
        eval_jet2(expr, [0.0])


def test_pow_zero_base_small_exponents():
    assert eval_jet2(parse_expression("pow(x1, 0)", 1), [0.0]).value == 1.0
    jet = eval_jet2(parse_expression("pow(x1, 2)", 1), [0.0])
    assert jet.value == 0.0 and jet.hess[0, 0] == 2.0


def test_jet_square():
    jet = eval_jet2(parse_expression("x1*x1", 1), [3.0])
    assert jet.value == 9.0
    assert jet.grad[0] == 6.0
    assert jet.hess[0, 0] == 2.0


def test_jet_example_component():
    jet = eval_jet2(parse_expression("(x2+x3)/sqrt(3)", 4), [0.0, 1.0, 2.0, 0.0])
    assert jet.value == pytest.approx(math.sqrt(3), abs=1e-15)
    expected = np.array([0.0, 1 / math.sqrt(3), 1 / math.sqrt(3), 0.0])
    np.testing.assert_allclose(jet.grad, expected, atol=1e-8)
    np.testing.assert_allclose(jet.hess, 0.0, atol=1e-15)


def test_constant_jet():
    jet = eval_jet2(parse_expression("5", 3), [0.4, -0.1, 2.0])
    assert jet.value == 5.0
    assert not jet.grad.any()
    assert not jet.hess.any()


def test_domain_errors_name_subexpression():
    expr = parse_expression("sqrt(x1)", 1)
    with pytest.raises(ExpressionDomainError, match="sqrt"):
        eval_jet2(expr, [-1.0])
    expr = parse_expression("log(x1 - 2)", 1)
    with pytest.raises(ExpressionDomainError, match=r"log\(x1 - 2"):
        eval_jet2(expr, [1.0])
    expr = parse_expression("1/(x1 - 1)", 1)
    with pytest.raises(ExpressionDomainError, match="division"):
        eval_jet2(expr, [1.0])
    # a constant zero divisor raises at the first point, at every order
    expr = parse_expression("x1/(2 - 2)", 1)
    for order in (0, 2):
        with pytest.raises(ExpressionDomainError) as failure:
            eval_jet2(expr, [[3.0], [4.0]], order)
        assert str(failure.value) == ("division by zero at point [3.0] in "
                                      "subexpression 'x1 / (2.0 - 2.0)'")


def _random_polynomial(gen, dim, degree=4):
    """Random polynomial text of bounded degree in the DSL."""
    terms = []
    for _ in range(gen.integers(1, 5)):
        coeff = repr(round(float(gen.uniform(-3, 3)), 3))
        factors = [coeff]
        for _ in range(int(gen.integers(0, degree + 1))):
            factors.append(f"x{gen.integers(1, dim + 1)}")
        terms.append("*".join(factors))
    return " + ".join(terms)


def test_polynomial_jets_match_finite_differences():
    gen = np.random.default_rng(7)
    for _ in range(25):
        dim = int(gen.integers(1, 7))
        text = _random_polynomial(gen, dim)
        expr = parse_expression(text, dim)
        p = gen.uniform(-1, 1, dim)
        jet = eval_jet2(expr, p)

        def value(q):
            return eval_jet2(expr, q).value

        scale = max(1.0, np.abs(jet.grad).max(), np.abs(jet.hess).max())
        assert np.abs(jet.grad - fd_gradient(value, p)).max() <= 1e-6 * scale
        assert np.abs(jet.hess - fd_hessian(value, p)).max() <= 1e-6 * scale


def test_transcendental_jets_match_finite_differences():
    gen = np.random.default_rng(8)
    texts = [
        "sin(x1)*cos(x2) + exp(x1*x2)",
        "log(2 + x1) / (1 + pow(x2, 2))",
        "sqrt(1 + pow(x1, 2) + pow(x2, 4))",
        "exp(sin(x1) + cos(x2)) - pow(x1 + x2, 3)",
    ]
    for text in texts:
        expr = parse_expression(text, 2)
        for _ in range(5):
            p = gen.uniform(-0.9, 0.9, 2)
            jet = eval_jet2(expr, p)

            def value(q):
                return eval_jet2(expr, q).value

            scale = max(1.0, np.abs(jet.grad).max(), np.abs(jet.hess).max())
            assert np.abs(jet.grad - fd_gradient(value, p)).max() <= 1e-6 * scale
            assert np.abs(jet.hess - fd_hessian(value, p)).max() <= 2e-6 * scale


def test_sum_and_product_rules_exact():
    gen = np.random.default_rng(9)
    a = parse_expression("x1*x2 + sin(x3)", 3)
    b = parse_expression("exp(x1) - x3*x3", 3)
    combined = parse_expression(f"({a}) + ({b})", 3)
    product = parse_expression(f"({a}) * ({b})", 3)
    for _ in range(10):
        p = gen.uniform(-1, 1, 3)
        ja, jb = eval_jet2(a, p), eval_jet2(b, p)
        jsum = eval_jet2(combined, p)
        assert jsum.value == ja.value + jb.value
        np.testing.assert_array_equal(jsum.grad, ja.grad + jb.grad)
        np.testing.assert_array_equal(jsum.hess, ja.hess + jb.hess)
        jprod = eval_jet2(product, p)
        np.testing.assert_array_equal(
            jprod.grad, ja.value * jb.grad + jb.value * ja.grad)


def test_hessian_exactly_symmetric():
    gen = np.random.default_rng(10)
    expr = parse_expression("exp(x1*x2)*sin(x2*x3) + pow(x1 + x3, 3)/(2 + x2)", 3)
    for _ in range(10):
        jet = eval_jet2(expr, gen.uniform(-0.8, 0.8, 3))
        np.testing.assert_array_equal(jet.hess, jet.hess.T)


def _random_ast_text(gen, dim, depth):
    if depth == 0 or gen.random() < 0.3:
        if gen.random() < 0.5:
            return f"x{gen.integers(1, dim + 1)}"
        return repr(round(float(gen.uniform(-5, 5)), 4))
    kind = gen.integers(0, 6)
    inner = _random_ast_text(gen, dim, depth - 1)
    other = _random_ast_text(gen, dim, depth - 1)
    if kind == 0:
        return f"({inner}) + ({other})"
    if kind == 1:
        return f"({inner}) - ({other})"
    if kind == 2:
        return f"({inner}) * ({other})"
    if kind == 3:
        return f"-({inner})"
    if kind == 4:
        return f"sin({inner})"
    return f"pow({inner}, {gen.integers(0, 4)})"


def test_print_parse_round_trip():
    gen = np.random.default_rng(11)
    for _ in range(60):
        dim = int(gen.integers(1, 5))
        text = _random_ast_text(gen, dim, 4)
        first = parse_expression(text, dim)
        printed = to_text(first.root)
        second = parse_expression(printed, dim)
        assert first.root == second.root
        assert to_text(second.root) == printed


def test_eval_jets_of_planned_formulas_is_each_formulas_jet():
    # constants (folded to floats) fill one row and affine formulas' gradients
    # (x1 / sqrt(3) among them, a product with a reciprocal folded once) fill
    # rows of their own, planned once per Formulas; every column equals its
    # formula's own order-2 eval_jet2, bit for bit, and a plain list,
    # planned on each call, gives the same arrays
    texts = ["2", "x1*x2", "-(3/4)", "pow(x2, 0)", "sin(x1) + 1", "1e-3",
             "x1/sqrt(3)", "-(x2)", "pow(x1, 1)", "0*x1 + x2"]
    formulas = Formulas(parse_expression(t, 2) for t in texts)
    row, gradients, varying = formulas.plan
    assert row.tolist() == [2.0, 0.0, -0.75, 0.0, 0.0, 1e-3, 0.0, 0.0, 0.0, 0.0]
    assert [(j, affine) for j, _, affine in varying] == [
        (1, False), (3, True), (4, False), (6, True), (7, True), (8, True),
        (9, True)]
    assert gradients.tolist() == [[0.0, 0.0]] * 6 + [
        [1.0 / math.sqrt(3.0), 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]]
    assert formulas.plan is formulas.plan
    # a constant divisor's reciprocal is the double the quotient multiplies by
    points = np.random.default_rng(1).uniform(-1, 1, (5, 2))
    assert (eval_jet2(formulas[6], points).value.tobytes()
            == (points[:, 0] * (1.0 / math.sqrt(3.0))).tobytes())
    for p in ([0.3, -0.7], np.random.default_rng(2).uniform(-1, 1, (5, 2))):
        arrays = eval_jets(formulas, p, 2)
        plain = eval_jets(list(formulas), p, 2)
        for j, expr in enumerate(formulas):
            jet = eval_jet2(expr, p, 2)
            for array, other, part in zip(arrays, plain,
                                          (jet.value, jet.grad, jet.hess)):
                column = array[j] if np.ndim(p) == 1 else array[:, j]
                assert column.tobytes() == np.asarray(part).tobytes()
                assert array.tobytes() == other.tobytes()


@pytest.mark.parametrize("text, message", [
    ("(x1", "expected ')' (byte offset 3)"),
    ("x1)", "unexpected trailing input ')' (byte offset 2)"),
])
def test_unbalanced_parentheses_are_syntax_errors(text, message):
    with pytest.raises(ExpressionSyntaxError) as raised:
        parse_expression(text, 1)
    assert str(raised.value) == message


def test_a_dimension_below_one_is_rejected():
    with pytest.raises(ValueError, match="dimension must be at least 1"):
        parse_expression("1", 0)


@pytest.mark.parametrize("point", [[0.5, 0.5, 0.5], [[[0.5, 0.5]]], 0.5])
def test_eval_jet2_rejects_a_point_of_the_wrong_shape(point):
    expr = parse_expression("x1 * x2", 2)
    with pytest.raises(ValueError, match=r"expected \(2,\) or \(N, 2\)"):
        eval_jet2(expr, point)
