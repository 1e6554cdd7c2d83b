"""Value semantics of the syntax trees (core λᴱ and the surface AST).

Nodes are slotted value classes: equal fields make equal nodes with equal
hashes, a node never equals a node of another class with the same fields,
and the ``repr`` a desugaring or typing error quotes reads as it always has.
"""

import pytest

from repro.lang import ast
from repro.lang.parser import (
    SApp,
    SBool,
    SFun,
    SInt,
    SMatchArm,
    SString,
    SUnit,
    SVar,
    parse_program,
)

REC_SOURCE = "let rec f (x : int) : int = if x == 0 then () else (match x with | Some y -> f y)"


def _pairs():
    """Two independently built copies of one node of every class."""

    def build():
        body = ast.LetOp("r", "put", (ast.Var("k"), ast.Const(1)), ast.Ret(ast.Var("r")))
        branch = ast.Branch("Some", ("y",), ast.Ret(ast.Var("y")))
        definition = ast.FunctionDef("f", (("x", "int"),), "int", body, recursive=True)
        return [
            ast.Const(()),
            ast.Var("x"),
            ast.Lambda("x", "int", ast.Ret(ast.Var("x"))),
            ast.Fix("f", ast.Lambda("x", None, ast.Ret(ast.Var("x")))),
            ast.Ret(ast.Const(True)),
            body,
            ast.LetPure("s", "+", (ast.Var("a"), ast.Const(1)), ast.Ret(ast.Var("s"))),
            ast.LetApp("a", ast.Var("g"), (ast.Var("x"),), ast.Ret(ast.Var("a"))),
            ast.LetIn("b", ast.Ret(ast.Const(1)), ast.Ret(ast.Var("b"))),
            branch,
            ast.Match(ast.Var("v"), (branch,)),
            definition,
            ast.Program((definition,)),
            SUnit(),
            SBool(True),
            SInt(3),
            SString("a"),
            SVar("x"),
            SApp(SVar("f"), (SInt(1),)),
            SFun("x", None, SVar("x")),
            SMatchArm("Some", ("y",), SVar("y")),
            parse_program(REC_SOURCE),
        ]

    return list(zip(build(), build()))


@pytest.mark.parametrize("left,right", _pairs(), ids=lambda node: type(node).__name__)
def test_equal_fields_make_equal_nodes_with_equal_hashes(left, right):
    assert left is not right
    assert left == right
    assert hash(left) == hash(right)
    assert {left: 1}[right] == 1


def test_a_different_field_makes_a_different_node():
    assert ast.Var("x") != ast.Var("y")
    assert SApp(SVar("f"), (SInt(1),)) != SApp(SVar("f"), (SInt(2),))
    assert ast.FunctionDef("f", (), None, ast.Ret(ast.Const(1))) != ast.FunctionDef(
        "f", (), None, ast.Ret(ast.Const(1)), recursive=True
    )


def test_classes_with_the_same_fields_never_compare_equal():
    assert SVar("x") != SString("x")
    assert SString("x") != SVar("x")
    assert SInt(1) != SBool(1)
    # LetOp and LetPure have the same four fields
    args = (ast.Var("a"),)
    assert ast.LetOp("r", "f", args, ast.Ret(ast.Var("r"))) != ast.LetPure(
        "r", "f", args, ast.Ret(ast.Var("r"))
    )
    assert ast.Var("x") != "x"


def test_surface_reprs_read_as_before():
    # a desugaring error quotes the surface node it cannot lower
    assert repr(parse_program(REC_SOURCE)) == (
        "SProgram(definitions=(SDefinition(name='f', params=(('x', 'int'),), "
        "return_type='int', body=SIf(condition=SApp(func=SVar(name='=='), "
        "args=(SVar(name='x'), SInt(value=0))), then_branch=SUnit(), "
        "else_branch=SMatch(scrutinee=SVar(name='x'), arms=(SMatchArm(constructor='Some', "
        "binders=('y',), body=SApp(func=SVar(name='f'), args=(SVar(name='y'),))),))), "
        "recursive=True),))"
    )
    assert repr(SUnit()) == "SUnit()"
    assert repr(SBool(True)) == "SBool(value=True)"
    assert repr(SFun("x", None, SVar("x"))) == "SFun(param='x', param_type=None, body=SVar(name='x'))"


def test_core_reprs_read_as_before():
    # a type error quotes values and computations
    assert repr(ast.Const(())) == "()"
    assert repr(ast.Const(False)) == "false"
    assert repr(ast.Const("/")) == "'/'"
    assert repr(ast.Lambda("x", "int", ast.Ret(ast.Var("x")))) == "(fun (x : int) -> x)"
    assert (
        repr(ast.Branch("Some", ("y",), ast.Ret(ast.Var("y"))))
        == "Branch(constructor='Some', binders=('y',), body=y)"
    )
    assert repr(ast.FunctionDef("f", (("x", "int"),), "int", ast.Ret(ast.Const(1)))) == (
        "FunctionDef(name='f', params=(('x', 'int'),), return_type='int', body=1, "
        "recursive=False)"
    )
