"""Unit tests for the parser (grammar of Figures 3, 7, 9 and 13)."""

import pytest

from repro import RunOptions, analyze
from repro.core.cache import AnalysisCache
from repro.errors import NestingError, ParseError
from repro.interp.lower import lower
from repro.interp.machine import execute
from repro.lang import ast, parse_program, pretty_program
from repro.lang.parser import MAX_NESTING


def parse_expr(text):
    program = parse_program(f"{{ int x = {text}; }}")
    decl = program.main.stmts[0].stmts[0]
    return decl.init


def parse_stmt(text):
    program = parse_program(f"{{ {text} }}")
    return program.main.stmts[0].stmts[0]


class TestClassDeclarations:
    def test_minimal_class(self):
        p = parse_program("class C<Owner o> { }")
        assert p.classes[0].name == "C"
        assert p.classes[0].formals[0].name == "o"
        assert p.classes[0].formals[0].kind.name == "Owner"

    def test_class_without_formals(self):
        p = parse_program("class C { int x; }")
        assert p.classes[0].formals == []

    def test_multiple_formals_with_kinds(self):
        p = parse_program(
            "class C<Owner a, Region r, LocalRegion s> { }")
        kinds = [f.kind.name for f in p.classes[0].formals]
        assert kinds == ["Owner", "Region", "LocalRegion"]

    def test_user_region_kind_formal(self):
        p = parse_program(
            "regionKind K extends SharedRegion { } class C<K r> { }")
        assert p.classes[0].formals[0].kind.name == "K"

    def test_extends_clause(self):
        p = parse_program(
            "class A<Owner o> { } class B<Owner o> extends A<o> { }")
        assert p.classes[1].superclass.name == "A"
        assert p.classes[1].superclass.owners[0].name == "o"

    def test_where_clause(self):
        p = parse_program(
            "class C<Owner a, Owner b> where a owns b, a outlives b { }")
        constraints = p.classes[0].constraints
        assert constraints[0].relation == "owns"
        assert constraints[1].relation == "outlives"
        assert constraints[1].left.name == "a"

    def test_field_with_initializer(self):
        p = parse_program("class C<Owner o> { C<o> f = null; int n = 3; }")
        fields = p.classes[0].fields
        assert isinstance(fields[0].init, ast.NullLit)
        assert isinstance(fields[1].init, ast.IntLit)

    def test_static_field(self):
        p = parse_program("class C<Owner o> { static int counter; }")
        assert p.classes[0].fields[0].static


class TestMethodDeclarations:
    def test_method_with_params(self):
        p = parse_program(
            "class C<Owner o> { int m(int a, C<o> b) { return a; } }")
        meth = p.classes[0].methods[0]
        assert meth.name == "m"
        assert len(meth.params) == 2

    def test_method_with_owner_formals(self):
        p = parse_program(
            "class C<Owner o> { void m<Region r>(RHandle<r> h) { } }")
        meth = p.classes[0].methods[0]
        assert meth.formals[0].name == "r"
        assert meth.formals[0].kind.name == "Region"

    def test_accesses_clause(self):
        p = parse_program(
            "class C<Owner o> { void m() accesses o, heap, RT { } }")
        effects = [o.name for o in p.classes[0].methods[0].effects]
        assert effects == ["o", "heap", "RT"]

    def test_missing_accesses_clause_is_none(self):
        p = parse_program("class C<Owner o> { void m() { } }")
        assert p.classes[0].methods[0].effects is None

    def test_method_where_clause(self):
        p = parse_program(
            "class C<Owner o> { void m<Owner p>() where p outlives o { } }")
        assert p.classes[0].methods[0].constraints[0].relation == "outlives"


class TestRegionKinds:
    def test_portal_fields_and_subregions(self):
        p = parse_program("""
            regionKind Buf extends SharedRegion {
                Frame<this> f;
                Sub : LT(256) RT inner;
                Sub : VT NoRT outer;
            }
            regionKind Sub extends SharedRegion { }
            class Frame<Owner o> { }
        """)
        buf = p.region_kinds[0]
        assert list(f.name for f in buf.portals) == ["f"]
        assert buf.subregions[0].name == "inner"
        assert buf.subregions[0].policy.kind == "LT"
        assert buf.subregions[0].policy.size == 256
        assert buf.subregions[0].realtime
        assert buf.subregions[1].policy.kind == "VT"
        assert not buf.subregions[1].realtime

    def test_bare_subregion_parses_as_field_then_reclassified(self):
        # `Sub b;` is ambiguous at parse time; the semantic tables turn it
        # into a subregion with default VT/NoRT
        p = parse_program("""
            regionKind Buf extends SharedRegion { Sub b; }
            regionKind Sub extends SharedRegion { }
        """)
        from repro.core.program import build_program_info
        info = build_program_info(p)
        buf = info.region_kinds["Buf"]
        assert "b" in buf.subregions
        assert buf.subregions["b"].policy.kind == "VT"

    def test_region_kind_with_formals(self):
        p = parse_program("""
            regionKind K<Owner o> extends SharedRegion { T<o> portal; }
            class T<Owner o> { }
        """)
        assert p.region_kinds[0].formals[0].name == "o"


class TestStatements:
    def test_local_decl_with_owners(self):
        stmt = parse_stmt("C<r1, heap> x = null;")
        assert isinstance(stmt, ast.LocalDecl)
        assert stmt.declared_type.owners[1].name == "heap"

    def test_local_decl_without_owners(self):
        stmt = parse_stmt("C x;")
        assert isinstance(stmt, ast.LocalDecl)
        assert stmt.declared_type.owners == ()

    def test_assignment_vs_decl_disambiguation(self):
        stmt = parse_stmt("x = y;")
        assert isinstance(stmt, ast.AssignLocal)

    def test_field_assignment(self):
        stmt = parse_stmt("a.b = c;")
        assert isinstance(stmt, ast.AssignField)
        assert stmt.field_name == "b"

    def test_chained_field_assignment(self):
        stmt = parse_stmt("a.b.c = d;")
        assert isinstance(stmt, ast.AssignField)
        assert isinstance(stmt.target, ast.FieldRead)

    def test_comparison_is_not_parsed_as_owner_args(self):
        stmt = parse_stmt("boolean b = x.size < y;")
        assert isinstance(stmt.init, ast.Binary)
        assert stmt.init.op == "<"

    def test_owner_instantiated_call(self):
        stmt = parse_stmt("x.m<r1, heap>(y);")
        call = stmt.expr
        assert isinstance(call, ast.Invoke)
        assert [o.name for o in call.owner_args] == ["r1", "heap"]

    def test_if_else_chain(self):
        stmt = parse_stmt("if (a) { } else if (b) { } else { }")
        assert isinstance(stmt, ast.If)
        nested = stmt.else_body.stmts[0]
        assert isinstance(nested, ast.If)

    def test_while(self):
        stmt = parse_stmt("while (x < 3) { x = x + 1; }")
        assert isinstance(stmt, ast.While)

    def test_return_void_and_value(self):
        assert parse_stmt("return;").value is None
        assert isinstance(parse_stmt("return 4;").value, ast.IntLit)

    def test_fork(self):
        stmt = parse_stmt("fork x.run(h);")
        assert isinstance(stmt, ast.Fork)
        assert not stmt.realtime

    def test_rt_fork(self):
        stmt = parse_stmt("RT fork x.run(h);")
        assert stmt.realtime

    def test_fork_requires_invocation(self):
        with pytest.raises(ParseError):
            parse_stmt("fork x;")


class TestRegionStatements:
    def test_plain_local_region(self):
        stmt = parse_stmt("(RHandle<r> h) { }")
        assert isinstance(stmt, ast.RegionStmt)
        assert stmt.kind is None
        assert stmt.region_name == "r"
        assert stmt.handle_name == "h"

    def test_region_with_kind(self):
        stmt = parse_stmt("(RHandle<Buf r> h) { }")
        assert stmt.kind.name == "Buf"

    def test_region_with_kind_and_lt_policy(self):
        stmt = parse_stmt("(RHandle<Buf : LT(4096) r> h) { }")
        assert stmt.policy.kind == "LT"
        assert stmt.policy.size == 4096

    def test_region_with_vt_policy(self):
        stmt = parse_stmt("(RHandle<LocalRegion : VT r> h) { }")
        assert stmt.policy.kind == "VT"

    def test_subregion_entry(self):
        stmt = parse_stmt("(RHandle<Sub r2> h2 = h.b) { }")
        assert isinstance(stmt, ast.SubregionStmt)
        assert stmt.subregion_name == "b"
        assert not stmt.fresh

    def test_fresh_subregion_entry(self):
        stmt = parse_stmt("(RHandle<Sub r2> h2 = new h.b) { }")
        assert stmt.fresh

    def test_subregion_without_kind_annotation(self):
        stmt = parse_stmt("(RHandle<r2> h2 = h.b) { }")
        assert isinstance(stmt, ast.SubregionStmt)
        assert stmt.declared_kind is None


class TestExpressions:
    def test_precedence_mul_over_add(self):
        e = parse_expr("1 + 2 * 3")
        assert e.op == "+"
        assert e.right.op == "*"

    def test_precedence_comparison_over_and(self):
        e = parse_expr("a < b && c > d")
        assert e.op == "&&"

    def test_unary_minus_and_not(self):
        e = parse_expr("-x")
        assert isinstance(e, ast.Unary)
        program = parse_program("{ boolean b = !a; }")
        assert program.main.stmts[0].stmts[0].init.op == "!"

    def test_parenthesized(self):
        e = parse_expr("(1 + 2) * 3")
        assert e.op == "*"
        assert e.left.op == "+"

    def test_new_with_owners(self):
        e = parse_expr("new C<r, this>")
        assert isinstance(e, ast.NewExpr)
        assert [o.name for o in e.owners] == ["r", "this"]

    def test_new_without_owners(self):
        e = parse_expr("new C")
        assert e.owners == ()

    def test_new_array_with_length(self):
        e = parse_expr("new IntArray<r>(10)")
        assert len(e.args) == 1

    def test_builtin_calls(self):
        for name in ("print", "io", "yieldnow", "sqrt", "itof", "ftoi",
                     "check"):
            program = parse_program(f"{{ {name}(); }}")
            call = program.main.stmts[0].stmts[0].expr
            assert isinstance(call, ast.BuiltinCall)
            assert call.name == name

    def test_this(self):
        e = parse_expr("this")
        assert isinstance(e, ast.ThisRef)

    def test_chained_calls_and_fields(self):
        e = parse_expr("a.b.m(1).c")
        assert isinstance(e, ast.FieldRead)
        assert isinstance(e.target, ast.Invoke)

    def test_special_owners(self):
        e = parse_expr("new C<heap, immortal, initialRegion>")
        assert [o.name for o in e.owners] == ["heap", "immortal",
                                              "initialRegion"]


class TestParseErrors:
    @pytest.mark.parametrize("bad", [
        "class { }",
        "class C<> { }",
        "class C<Owner o> { int }",
        "{ int x = ; }",
        "{ if x { } }",
        "{ (RHandle<r>) { } }",
        "{ 3 = x; }",
        "class C<Owner o> extends { }",
    ])
    def test_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_program(bad)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_program("class C<Owner o> {\n  int = 3;\n}")
        assert exc.value.span.start.line == 2


class TestRoundTrip:
    @pytest.mark.parametrize("source", [
        "class C<Owner o> { int x; }",
        "class C<Owner a, Owner b> where a owns b { C<a, b> f; }",
        "regionKind K extends SharedRegion { Sub : LT(64) RT s; }\n"
        "regionKind Sub extends SharedRegion { }",
        "{ (RHandle<Buf : LT(128) r> h) { int x = 1 + 2 * 3; } }",
        "{ RT fork x.go<r>(1, true, null); }",
        "class C<Owner o> { void m() accesses o, RT { return; } }",
    ])
    def test_pretty_parse_fixpoint(self, source):
        first = pretty_program(parse_program(source))
        second = pretty_program(parse_program(first))
        assert first == second


# ---------------------------------------------------------------------------
# nesting bound
# ---------------------------------------------------------------------------

NODE = """class Node<Owner o> {
    Node<o> next;
    int v;
    Node<o> self() { return this; }
    int id(int a) { return a; }
}
(RHandle<r> h) {
    Node<r> n = new Node<r>;
    n.next = n;
    n.v = 7;
    int k = 3;
    BODY
}
"""

#: one program shape per thing the bound counts, as a function of depth
DEEP_SHAPES = {
    "parentheses": lambda d: "print(" + "(" * d + "1" + ")" * d + ");",
    "unary": lambda d: "print(" + "- " * d + "1);",
    "negation": lambda d: "if (" + "!" * d + "true) { print(1); }",
    "binary-chain": lambda d: "print(" + " + ".join(["1"] * d) + ");",
    "blocks": lambda d: "{ " * d + "print(1);" + " }" * d,
    "loops": lambda d: ("while (k < 4) { " * d + "print(k); k = k + 1;"
                        + " }" * d),
    "else-if": lambda d: " else ".join(
        f"if (k == {i}) {{ print({i}); }}" for i in range(d)),
    "regions": lambda d: "".join(f"(RHandle<q{i}> g{i}) {{ "
                                 for i in range(d)) + "print(1);" + " }" * d,
    "member-chain": lambda d: "print(n" + ".self()" * d + ".v);",
    "call-args": lambda d: "print(" + "n.id(" * d + "1" + ")" * d + ");",
}


def deep_program(shape, depth):
    return NODE.replace("BODY", DEEP_SHAPES[shape](depth))


def deepest_accepted(shape):
    """The largest depth of ``shape`` the parser accepts."""
    depth = MAX_NESTING + 2
    while True:
        try:
            parse_program(deep_program(shape, depth))
            return depth
        except NestingError:
            depth -= 1


class TestNestingBound:
    def test_deep_parentheses_are_a_parse_error(self):
        with pytest.raises(ParseError, match="nesting exceeds") as exc:
            parse_program("{ int x = " + "(" * 400 + "1" + ")" * 400
                          + "; }")
        # anchored on the first parenthesis past the bound
        assert exc.value.span.start.column == 11 + MAX_NESTING - 1

    def test_long_flat_chain_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nesting exceeds"):
            parse_program("{ int x = " + " + ".join(["1"] * 3000)
                          + "; }")

    def test_deep_prefix_run_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nesting exceeds"):
            parse_program("{ int x = " + "-" * 3000 + "1; }")

    def test_deep_member_chain_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nesting exceeds"):
            parse_program("{ int x = a" + ".f" * 3000 + "; }")

    @pytest.mark.parametrize("source", [
        "(" * 400 + "1" + ")" * 400,
        " + ".join(["1"] * 3000),
    ], ids=["parentheses-400", "chain-3000"])
    def test_analyze_reports_deep_input_as_parse_error(self, source):
        program = f"(RHandle<r> h) {{ int x = {source}; print(x); }}"
        for cache in (None, AnalysisCache()):
            with pytest.raises(ParseError, match="nesting exceeds"):
                analyze(program, cache=cache)

    def test_declaration_backtracking_keeps_the_nesting_error(self):
        # ``T<o> v = ...`` is tried as a declaration first; the nesting
        # error from its initializer must not be retried as an
        # expression and reported as something else
        with pytest.raises(ParseError, match="nesting exceeds"):
            parse_program("{ T<o> v = " + "(" * 200 + "1" + ")" * 200
                          + "; }")

    def test_bound_counts_blocks_and_expression_height_together(self):
        half = MAX_NESTING // 2
        inner = " + ".join(["1"] * (half + 5))
        with pytest.raises(ParseError, match="nesting exceeds"):
            parse_program("{ " * half + f"int x = {inner};" + " }" * half)
        parse_program("{ " * half + "int x = 1 + 1;" + " }" * half)

    def test_precedence_levels_do_not_count_as_chain_length(self):
        # 2 * 3 + 4 * 5 + ... is a '+' chain over '*' pairs
        parse_program("{ int x = " + " + ".join(["2 * 3"] * (
            MAX_NESTING - 5)) + "; }")

    @pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
    def test_deepest_accepted_program_runs_everywhere(self, shape):
        """At the bound, every stage works or falls back with a recorded
        reason; nothing raises a host exception."""
        depth = deepest_accepted(shape)
        assert depth >= MAX_NESTING - 5
        with pytest.raises(NestingError):
            parse_program(deep_program(shape, depth + 1))
        analyzed = analyze(deep_program(shape, depth))
        assert not analyzed.errors, analyzed.errors[0]
        lower(analyzed)
        pretty_program(analyzed.program)
        outputs = set()
        for backend in ("interp", "py", "c"):
            for checks in (True, False):
                result, machine = execute(analyzed, RunOptions(
                    backend=backend, checks_enabled=checks,
                    validate=False, instrument=False))
                outputs.add(tuple(result.output))
        assert len(outputs) == 1
