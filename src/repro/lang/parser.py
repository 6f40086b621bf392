"""Recursive-descent parser for the core language.

One token of lookahead everywhere except two bounded backtracking points:
local-declaration-vs-expression statements (``TNode<this, o> n = ...`` vs
``n.f = ...``) and explicit method owner arguments (``v.mn<o1>(x)`` vs a
``<`` comparison), both resolved by trying the declaration/owner-list parse
first and rolling back on failure.

Node spans are built once, from the start coordinates of a node's first
token and the end of its last token (:meth:`Parser._span_from`); tokens
carry coordinates, not spans.

Nesting is bounded by :data:`MAX_NESTING` so that no later stage (the
checker, the lowering, the interpreter, the code generators) recurses
deeper than the host allows.  The nesting at any point is the number of
open blocks, parentheses and argument lists, plus the height of the
expression built there; a unary operator, a binary operator and a
member access or call each add one to the height, so a flat
``1 + 1 + ...`` chain counts its length.  Deeper input raises
:class:`~repro.errors.NestingError`, a :class:`ParseError`.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List, Optional, Tuple

from ..errors import NestingError, ParseError
from ..source import Position, Span
from . import ast
from .lexer import tokenize
from .tokens import BUILTIN_KIND_NAMES, Token, TokenKind

#: The token kinds as plain attributes: ``TokenKind.X`` goes through the
#: enum metaclass's ``__getattr__`` hook, several times slower, and the
#: parser tests kinds at nearly every token.
K = SimpleNamespace(**TokenKind.__members__)

#: Intrinsic functions understood by the interpreter.
BUILTIN_FUNCTIONS = frozenset({
    "print", "io", "yieldnow", "sqrt", "itof", "ftoi", "check",
})

#: Built-in classes (simulated primitive arrays); their ``new`` takes a
#: length argument and they cannot be user-defined.
BUILTIN_CLASSES = frozenset({"IntArray", "FloatArray"})

_PRIM_TYPE_TOKENS = {
    K.INT: "int",
    K.FLOAT: "float",
    K.BOOLEAN: "boolean",
    K.VOID: "void",
}

_SPECIAL_OWNER_TOKENS = {
    K.THIS: "this",
    K.HEAP: "heap",
    K.IMMORTAL: "immortal",
    K.INITIAL_REGION: "initialRegion",
    K.RT: "RT",
}

_BINARY_LEVELS: List[List[Tuple[TokenKind, str]]] = [
    [(K.OR_OR, "||")],
    [(K.AND_AND, "&&")],
    [(K.EQ, "=="), (K.NE, "!=")],
    [(K.LANGLE, "<"), (K.RANGLE, ">"), (K.LE, "<="), (K.GE, ">=")],
    [(K.PLUS, "+"), (K.MINUS, "-")],
    [(K.STAR, "*"), (K.SLASH, "/"), (K.PERCENT, "%")],
]

#: token kind -> (binding power, operator text); higher binds tighter
_BIN_PREC = {kind: (level, op)
             for level, tier in enumerate(_BINARY_LEVELS)
             for kind, op in tier}

_UNARY_OPS = {K.BANG: "!", K.MINUS: "-"}

#: Deepest nesting the parser accepts (see the module docstring).  The
#: deepest accepted program of every shape goes through analysis,
#: lowering and every backend; ``tests/unit/test_parser.py`` holds the
#: shapes.
MAX_NESTING = 100

_new = tuple.__new__


class Parser:
    def __init__(self, tokens: List[Token], filename: str = "<input>",
                 source_text: str = ""):
        self.tokens = tokens
        self.index = 0
        self.filename = filename
        self.source_text = source_text
        #: open blocks, parentheses and argument lists
        self.nesting = 0
        #: height of the expression most recently parsed
        self.height = 0
        #: token index and Position of the last span end built
        self._end_at = -1
        self._end_pos: Optional[Position] = None

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        # the EOF token is always last and _advance never moves past it,
        # so offset-0 peeks (the overwhelmingly common case) need no
        # bounds check
        if offset:
            i = min(self.index + offset, len(self.tokens) - 1)
            return self.tokens[i]
        return self.tokens[self.index]

    def _at(self, kind: TokenKind) -> bool:
        return self.tokens[self.index].kind is kind

    def _advance(self) -> Token:
        tok = self.tokens[self.index]
        if tok.kind is not K.EOF:
            self.index += 1
        return tok

    # _accept and _expect are never asked for EOF, so a match always
    # advances
    def _accept(self, kind: TokenKind) -> Optional[Token]:
        tok = self.tokens[self.index]
        if tok.kind is kind:
            self.index += 1
            return tok
        return None

    def _expect(self, kind: TokenKind, what: str = "") -> Token:
        tok = self.tokens[self.index]
        if tok.kind is kind:
            self.index += 1
            return tok
        wanted = what or kind.name
        raise ParseError(f"expected {wanted}, found {tok.text!r}", tok.span)

    def _span_from(self, first: Token) -> Span:
        """The span from the start of ``first`` to the end of the last
        consumed token."""
        return _new(Span, (_new(Position, (first.line, first.column)),
                           self._end(), first.filename))

    def _span_after(self, head: Span) -> Span:
        """``head`` extended to the end of the last consumed token: a
        node that starts where its first child ``head`` starts."""
        return _new(Span, (head.start, self._end(), head.filename))

    def _end(self) -> Position:
        """The end of the last consumed token.  Nodes that close on the
        same token (a block and its ``if``) share one Position."""
        i = self.index - 1
        if i != self._end_at:
            last = self.tokens[i]
            self._end_at = i
            self._end_pos = _new(Position, (last.line,
                                            last.column + len(last.text)))
        return self._end_pos

    # ------------------------------------------------------------------
    # nesting bound
    # ------------------------------------------------------------------

    def _too_deep(self, tok: Token) -> NestingError:
        return NestingError(f"nesting exceeds {MAX_NESTING} levels",
                            tok.span)

    def _open(self) -> None:
        """Enter a block, parenthesis or argument list."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise self._too_deep(self.tokens[self.index])

    def _grow(self, height: int) -> None:
        """Record the height of the expression just built."""
        self.height = height
        if height + self.nesting > MAX_NESTING:
            raise self._too_deep(self.tokens[self.index - 1])

    # ------------------------------------------------------------------
    # program / declarations
    # ------------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        classes: List[ast.ClassDecl] = []
        region_kinds: List[ast.RegionKindDecl] = []
        main_stmts: List[ast.Stmt] = []
        main_span = self._peek().span
        while not self._at(K.EOF):
            if self._at(K.CLASS):
                classes.append(self.parse_class_decl())
            elif self._at(K.REGION_KIND):
                region_kinds.append(self.parse_region_kind_decl())
            else:
                main_stmts.append(self.parse_stmt())
        main = ast.Block(main_stmts, main_span) if main_stmts else None
        return ast.Program(classes, region_kinds, main,
                           filename=self.filename,
                           source_text=self.source_text)

    def parse_class_decl(self) -> ast.ClassDecl:
        start = self._expect(K.CLASS)
        name = self._expect(K.IDENT, "class name").text
        # owner formals are optional: Section 2.5 defaults supply a single
        # `Owner` formal for unannotated classes
        formals: List[ast.FormalAst] = []
        if self._at(K.LANGLE):
            formals = self._parse_formal_list()
        superclass = None
        if self._accept(K.EXTENDS):
            superclass = self._parse_class_type()
        constraints = self._parse_where_clause()
        self._expect(K.LBRACE)
        fields: List[ast.FieldDecl] = []
        methods: List[ast.MethodDecl] = []
        while not self._at(K.RBRACE):
            member = self._parse_class_member()
            if isinstance(member, ast.FieldDecl):
                fields.append(member)
            else:
                methods.append(member)
        self._expect(K.RBRACE)
        return ast.ClassDecl(name, formals, superclass, constraints,
                             fields, methods, self._span_from(start))

    def _parse_class_member(self):
        start = self._peek()
        static = self._accept(K.STATIC) is not None
        declared_type = self.parse_type()
        name = self._expect(K.IDENT, "member name").text
        if not static and (self._at(K.LPAREN) or self._at(K.LANGLE)):
            return self._parse_method_rest(declared_type, name, start)
        init = None
        if self._accept(K.ASSIGN):
            init = self.parse_expr()
        self._expect(K.SEMI)
        return ast.FieldDecl(declared_type, name, static, init,
                             self._span_from(start))

    def _parse_method_rest(self, return_type: ast.TypeAst, name: str,
                           start: Token) -> ast.MethodDecl:
        formals: List[ast.FormalAst] = []
        if self._at(K.LANGLE):
            formals = self._parse_formal_list()
        self._expect(K.LPAREN)
        params: List[Tuple[ast.TypeAst, str]] = []
        while not self._at(K.RPAREN):
            if params:
                self._expect(K.COMMA)
            ptype = self.parse_type()
            pname = self._expect(K.IDENT, "parameter name").text
            params.append((ptype, pname))
        self._expect(K.RPAREN)
        effects: Optional[List[ast.OwnerAst]] = None
        if self._accept(K.ACCESSES):
            effects = [self.parse_owner()]
            while self._accept(K.COMMA):
                effects.append(self.parse_owner())
        constraints = self._parse_where_clause()
        body = self.parse_block()
        return ast.MethodDecl(return_type, name, formals, params, effects,
                              constraints, body, self._span_from(start))

    def parse_region_kind_decl(self) -> ast.RegionKindDecl:
        start = self._expect(K.REGION_KIND)
        name = self._expect(K.IDENT, "region kind name").text
        formals: List[ast.FormalAst] = []
        if self._at(K.LANGLE):
            formals = self._parse_formal_list()
        self._expect(K.EXTENDS)
        superkind = self.parse_kind()
        constraints = self._parse_where_clause()
        self._expect(K.LBRACE)
        portals: List[ast.FieldDecl] = []
        subregions: List[ast.SubregionDecl] = []
        while not self._at(K.RBRACE):
            member = self._parse_region_member()
            if isinstance(member, ast.FieldDecl):
                portals.append(member)
            else:
                subregions.append(member)
        self._expect(K.RBRACE)
        return ast.RegionKindDecl(name, formals, superkind, constraints,
                                  portals, subregions,
                                  self._span_from(start))

    def _parse_region_member(self):
        """A portal field ``t fd;`` or a subregion declaration
        ``srkind [: LT(size)|: VT] [RT|NoRT] rsub;``.

        A member is a subregion iff its "type" is a bare identifier that is
        not followed by owner arguments typical of class types — we decide
        by what follows the name: portal fields use class/prim types, while
        subregions may carry a policy/RT marker.  To keep the grammar
        unambiguous, a member whose declared type is a ``ClassTypeAst``
        naming a *region kind* is resolved as a subregion later; here we
        dispatch purely syntactically on the presence of ``:``/``RT``/
        ``NoRT`` or rely on the semantic layer.  We use the syntactic rule:
        if after the leading identifier (with optional ``<owners>``) comes
        ``:``, ``RT`` or ``NoRT``, or the identifier is a known kind name,
        it is a subregion; otherwise if the next-next token is ``;`` and the
        name starts lowercase it is still ambiguous, so the semantic layer
        (program table construction) reclassifies portal fields whose type
        names a region kind.
        """
        start = self._peek()
        declared_type = self.parse_type()
        if self._at(K.COLON) or self._at(K.RT) or self._at(K.NORT):
            if not isinstance(declared_type, ast.ClassTypeAst):
                raise ParseError("subregion declaration requires a region "
                                 "kind name", self._peek().span)
            kind = ast.KindAst(declared_type.name, declared_type.owners,
                               False, declared_type.span)
            policy = ast.PolicyAst("VT", span=start.span)
            if self._accept(K.COLON):
                policy = self._parse_policy()
            realtime = False
            if self._accept(K.RT):
                realtime = True
            elif self._accept(K.NORT):
                realtime = False
            name = self._expect(K.IDENT, "subregion name").text
            self._expect(K.SEMI)
            return ast.SubregionDecl(kind, policy, realtime, name,
                                     self._span_from(start))
        name = self._expect(K.IDENT, "portal or subregion name").text
        self._expect(K.SEMI)
        return ast.FieldDecl(declared_type, name, False, None,
                             self._span_from(start))

    def _parse_formal_list(self) -> List[ast.FormalAst]:
        self._expect(K.LANGLE)
        formals = [self._parse_formal()]
        while self._accept(K.COMMA):
            formals.append(self._parse_formal())
        self._expect(K.RANGLE)
        return formals

    def _parse_formal(self) -> ast.FormalAst:
        kind = self.parse_kind()
        name = self._expect(K.IDENT, "owner formal name").text
        return ast.FormalAst(kind, name, self._span_after(kind.span))

    def parse_kind(self) -> ast.KindAst:
        """``Owner | ObjOwner | Region | ... | srkn<owners>``, with an
        optional ``:LT`` refinement."""
        start = self._peek()
        name = self._expect(K.IDENT, "owner kind").text
        args: Tuple[ast.OwnerAst, ...] = ()
        if name not in BUILTIN_KIND_NAMES and self._at(K.LANGLE):
            args = tuple(self._parse_owner_args())
        lt = False
        if self._at(K.COLON) and self._peek(1).kind is K.LT:
            self._advance()
            self._advance()
            lt = True
        return ast.KindAst(name, args, lt, self._span_from(start))

    def _parse_policy(self) -> ast.PolicyAst:
        start = self._peek()
        if self._accept(K.VT):
            return ast.PolicyAst("VT", span=start.span)
        self._expect(K.LT, "'LT' or 'VT'")
        self._expect(K.LPAREN)
        size = int(self._expect(K.INT_LIT, "LT region size").text)
        self._expect(K.RPAREN)
        return ast.PolicyAst("LT", size, self._span_from(start))

    def _parse_where_clause(self) -> List[ast.ConstraintAst]:
        constraints: List[ast.ConstraintAst] = []
        if self._accept(K.WHERE):
            constraints.append(self._parse_constraint())
            while self._accept(K.COMMA):
                constraints.append(self._parse_constraint())
        return constraints

    def _parse_constraint(self) -> ast.ConstraintAst:
        start = self._peek()
        left = self.parse_owner()
        if self._accept(K.OWNS):
            relation = "owns"
        else:
            self._expect(K.OUTLIVES, "'owns' or 'outlives'")
            relation = "outlives"
        right = self.parse_owner()
        return ast.ConstraintAst(relation, left, right,
                                 self._span_from(start))

    # ------------------------------------------------------------------
    # types and owners
    # ------------------------------------------------------------------

    def parse_type(self) -> ast.TypeAst:
        tok = self._peek()
        if tok.kind in _PRIM_TYPE_TOKENS:
            self._advance()
            return ast.PrimTypeAst(_PRIM_TYPE_TOKENS[tok.kind], tok.span)
        if tok.kind is K.RHANDLE:
            self._advance()
            self._expect(K.LANGLE)
            region = self.parse_owner()
            self._expect(K.RANGLE)
            return ast.HandleTypeAst(region, tok.span)
        return self._parse_class_type()

    def _parse_class_type(self) -> ast.ClassTypeAst:
        tok = self._expect(K.IDENT, "type name")
        owners: Tuple[ast.OwnerAst, ...] = ()
        if self._at(K.LANGLE):
            owners = tuple(self._parse_owner_args())
        return ast.ClassTypeAst(tok.text, owners, tok.span)

    def _parse_owner_args(self) -> List[ast.OwnerAst]:
        self._expect(K.LANGLE)
        owners = [self.parse_owner()]
        while self._accept(K.COMMA):
            owners.append(self.parse_owner())
        self._expect(K.RANGLE)
        return owners

    def parse_owner(self) -> ast.OwnerAst:
        tok = self._peek()
        if tok.kind in _SPECIAL_OWNER_TOKENS:
            self._advance()
            return ast.OwnerAst(_SPECIAL_OWNER_TOKENS[tok.kind], tok.span)
        ident = self._expect(K.IDENT, "owner")
        return ast.OwnerAst(ident.text, ident.span)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def parse_block(self) -> ast.Block:
        self._open()
        start = self._expect(K.LBRACE)
        stmts: List[ast.Stmt] = []
        while not self._at(K.RBRACE):
            stmts.append(self.parse_stmt())
        self._expect(K.RBRACE)
        self.nesting -= 1
        return ast.Block(stmts, self._span_from(start))

    def parse_stmt(self) -> ast.Stmt:
        tok = self._peek()
        if tok.kind is K.LBRACE:
            return self.parse_block()
        if tok.kind is K.IF:
            return self._parse_if()
        if tok.kind is K.WHILE:
            return self._parse_while()
        if tok.kind is K.RETURN:
            return self._parse_return()
        if tok.kind is K.FORK:
            return self._parse_fork(realtime=False)
        if tok.kind is K.RT:
            start = self._advance()
            self._expect(K.FORK, "'fork' after 'RT'")
            return self._parse_fork_rest(realtime=True, start=start)
        if tok.kind is K.LPAREN:
            return self._parse_region_stmt()
        if tok.kind in _PRIM_TYPE_TOKENS or tok.kind is K.RHANDLE:
            return self._parse_local_decl()
        if tok.kind is K.IDENT:
            decl = self._try_parse_local_decl()
            if decl is not None:
                return decl
        return self._parse_expr_or_assign_stmt()

    def _parse_if(self) -> ast.If:
        start = self._expect(K.IF)
        self._expect(K.LPAREN)
        cond = self.parse_expr()
        self._expect(K.RPAREN)
        then_body = self.parse_block()
        else_body = None
        if self._accept(K.ELSE):
            if self._at(K.IF):
                # `else if` nests like a block: the If is wrapped in one
                self._open()
                nested = self._parse_if()
                self.nesting -= 1
                else_body = ast.Block([nested], nested.span)
            else:
                else_body = self.parse_block()
        return ast.If(cond, then_body, else_body, self._span_from(start))

    def _parse_while(self) -> ast.While:
        start = self._expect(K.WHILE)
        self._expect(K.LPAREN)
        cond = self.parse_expr()
        self._expect(K.RPAREN)
        body = self.parse_block()
        return ast.While(cond, body, self._span_from(start))

    def _parse_return(self) -> ast.Return:
        start = self._expect(K.RETURN)
        value = None
        if not self._at(K.SEMI):
            value = self.parse_expr()
        self._expect(K.SEMI)
        return ast.Return(value, self._span_from(start))

    def _parse_fork(self, realtime: bool) -> ast.Fork:
        start = self._expect(K.FORK)
        return self._parse_fork_rest(realtime, start)

    def _parse_fork_rest(self, realtime: bool, start: Token) -> ast.Fork:
        call = self.parse_expr()
        if not isinstance(call, ast.Invoke):
            raise ParseError("fork requires a method invocation",
                             self._span_from(start))
        self._expect(K.SEMI)
        return ast.Fork(call, realtime, self._span_from(start))

    def _parse_region_stmt(self) -> ast.Stmt:
        """Region creation or subregion entry:

        * ``(RHandle<r> h) { ... }``
        * ``(RHandle<Kind : LT(100) r> h) { ... }``
        * ``(RHandle<[Kind] r2> h2 = [new] h.sub) { ... }``
        """
        start = self._expect(K.LPAREN)
        self._expect(K.RHANDLE, "'RHandle'")
        self._expect(K.LANGLE)
        kind: Optional[ast.KindAst] = None
        policy: Optional[ast.PolicyAst] = None
        first = self._expect(K.IDENT, "region kind or region name")
        if self._at(K.RANGLE):
            region_name = first.text
        else:
            args: Tuple[ast.OwnerAst, ...] = ()
            if self._at(K.LANGLE):
                args = tuple(self._parse_owner_args())
            if self._accept(K.COLON):
                policy = self._parse_policy()
            kind = ast.KindAst(first.text, args, False, first.span)
            region_name = self._expect(K.IDENT, "region name").text
        self._expect(K.RANGLE)
        handle_name = self._expect(K.IDENT, "handle name").text
        if self._accept(K.ASSIGN):
            fresh = self._accept(K.NEW) is not None
            parent = self._parse_postfix(self._parse_primary())
            if not isinstance(parent, ast.FieldRead):
                raise ParseError(
                    "subregion entry requires 'handle.subregion'",
                    self._span_from(start))
            self._expect(K.RPAREN)
            body = self.parse_block()
            return ast.SubregionStmt(kind, region_name, handle_name,
                                     parent.target, parent.field_name,
                                     fresh, body, self._span_from(start))
        self._expect(K.RPAREN)
        body = self.parse_block()
        return ast.RegionStmt(kind, policy, region_name, handle_name, body,
                              self._span_from(start))

    def _parse_local_decl(self) -> ast.LocalDecl:
        declared_type = self.parse_type()
        name = self._expect(K.IDENT, "variable name").text
        init = None
        if self._accept(K.ASSIGN):
            init = self.parse_expr()
        self._expect(K.SEMI)
        return ast.LocalDecl(declared_type, name, init,
                             self._span_after(declared_type.span))

    def _try_parse_local_decl(self) -> Optional[ast.LocalDecl]:
        """Backtracking disambiguation of ``T<o> v = e;`` vs expressions."""
        if self._peek(1).kind is K.IDENT:
            return self._parse_local_decl()
        if self._peek(1).kind is not K.LANGLE:
            return None
        saved = self.index, self.nesting
        try:
            return self._parse_local_decl()
        except NestingError:
            raise
        except ParseError:
            self.index, self.nesting = saved
            return None

    def _parse_expr_or_assign_stmt(self) -> ast.Stmt:
        # parse_stmt sends '(' to region statements, so ``expr`` starts
        # at the statement's first token and can lend it its start
        expr = self.parse_expr()
        if self._accept(K.ASSIGN):
            value = self.parse_expr()
            self._expect(K.SEMI)
            span = self._span_after(expr.span)
            if isinstance(expr, ast.VarRef):
                return ast.AssignLocal(expr.name, value, span)
            if isinstance(expr, ast.FieldRead):
                return ast.AssignField(expr.target, expr.field_name, value,
                                       span)
            raise ParseError("invalid assignment target", span)
        self._expect(K.SEMI)
        return ast.ExprStmt(expr, self._span_after(expr.span))

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self._parse_binary_rhs(self._parse_unary(), 0)

    def _parse_binary_rhs(self, left: ast.Expr,
                          min_prec: int) -> ast.Expr:
        # precedence climbing over _BIN_PREC instead of one recursion
        # level per precedence tier; all operators are left-associative,
        # so the trees are identical to the old ladder's.  On entry
        # self.height is the height of ``left``.
        prec_map = _BIN_PREC
        tokens = self.tokens
        while True:
            entry = prec_map.get(tokens[self.index].kind)
            if entry is None or entry[0] < min_prec:
                return left
            prec, op = entry
            self.index += 1  # the operator; never EOF
            left_height = self.height
            right = self._parse_unary()
            while True:
                nxt = prec_map.get(tokens[self.index].kind)
                if nxt is None or nxt[0] <= prec:
                    break
                right = self._parse_binary_rhs(right, nxt[0])
            right_height = self.height
            self._grow((left_height if left_height > right_height
                        else right_height) + 1)
            head = left.span
            left = ast.Binary(op, left, right,
                              _new(Span, (head.start, right.span.end,
                                          head.filename)))

    def _parse_unary(self) -> ast.Expr:
        tok = self.tokens[self.index]
        if tok.kind not in _UNARY_OPS:
            return self._parse_postfix(self._parse_primary())
        # a prefix run is read in a loop, not by recursion, and the
        # nodes are built innermost first
        ops = []
        while tok.kind in _UNARY_OPS:
            ops.append(tok)
            self.index += 1
            tok = self.tokens[self.index]
        operand = self._parse_postfix(self._parse_primary())
        height = self.height
        for tok in reversed(ops):
            height += 1
            self._grow(height)
            operand = ast.Unary(
                _UNARY_OPS[tok.kind], operand,
                _new(Span, (_new(Position, (tok.line, tok.column)),
                            operand.span.end, tok.filename)))
        return operand

    def _parse_postfix(self, expr: ast.Expr) -> ast.Expr:
        # on entry self.height is the height of ``expr``
        while self._at(K.DOT):
            self._advance()
            height = self.height
            name = self._expect(K.IDENT, "member name").text
            if self._at(K.LPAREN):
                args = self._parse_call_args()
                expr = ast.Invoke(expr, name, (), args,
                                  self._span_after(expr.span))
            elif self._at(K.LANGLE):
                call = self._try_parse_owner_call(expr, name)
                if call is None:
                    # '<' is a comparison; stop postfix chain
                    self._grow(height + 1)
                    return ast.FieldRead(expr, name,
                                         self._span_after(expr.span))
                expr = call
            else:
                self.height = 0
                expr = ast.FieldRead(expr, name, self._span_after(expr.span))
            # a call leaves its tallest argument's height in self.height
            self._grow((height if height > self.height
                        else self.height) + 1)
        return expr

    def _try_parse_owner_call(self, target: ast.Expr,
                              name: str) -> Optional[ast.Invoke]:
        """Parse ``.mn<o1, ...>(args)``; rolls back if the ``<`` turns out
        to be a comparison operator."""
        saved = self.index
        try:
            owners = tuple(self._parse_owner_args())
            if not self._at(K.LPAREN):
                raise ParseError("not an owner-instantiated call",
                                 self._peek().span)
        except ParseError:
            self.index = saved
            return None
        args = self._parse_call_args()
        return ast.Invoke(target, name, owners, args,
                          self._span_after(target.span))

    def _parse_call_args(self) -> Tuple[ast.Expr, ...]:
        """``(e1, ..., en)``; leaves the tallest argument's height in
        self.height (0 for none)."""
        self._open()
        self._expect(K.LPAREN)
        args: List[ast.Expr] = []
        height = 0
        while not self._at(K.RPAREN):
            if args:
                self._expect(K.COMMA)
            args.append(self.parse_expr())
            if self.height > height:
                height = self.height
        self._expect(K.RPAREN)
        self.nesting -= 1
        self.height = height
        return tuple(args)

    def _parse_primary(self) -> ast.Expr:
        tok = self.tokens[self.index]
        kind = tok.kind
        self.height = 1
        if kind is K.IDENT:
            self.index += 1
            if tok.text in BUILTIN_FUNCTIONS and self._at(K.LPAREN):
                args = self._parse_call_args()
                self._grow(self.height + 1)
                return ast.BuiltinCall(tok.text, args,
                                       self._span_from(tok))
            return ast.VarRef(tok.text, tok.span)
        if kind is K.INT_LIT:
            self.index += 1
            return ast.IntLit(int(tok.text), tok.span)
        if kind is K.NEW:
            return self._parse_new()
        if kind is K.LPAREN:
            self._open()
            self.index += 1
            inner = self.parse_expr()
            self._expect(K.RPAREN)
            self.nesting -= 1
            return inner
        if kind is K.THIS:
            self.index += 1
            return ast.ThisRef(tok.span)
        if kind is K.NULL:
            self.index += 1
            return ast.NullLit(tok.span)
        if kind is K.FLOAT_LIT:
            self.index += 1
            return ast.FloatLit(float(tok.text), tok.span)
        if kind is K.TRUE:
            self.index += 1
            return ast.BoolLit(True, tok.span)
        if kind is K.FALSE:
            self.index += 1
            return ast.BoolLit(False, tok.span)
        raise ParseError(f"unexpected token {tok.text!r} in expression",
                         tok.span)

    def _parse_new(self) -> ast.NewExpr:
        start = self._expect(K.NEW)
        name = self._expect(K.IDENT, "class name").text
        owners: Tuple[ast.OwnerAst, ...] = ()
        if self._at(K.LANGLE):
            owners = tuple(self._parse_owner_args())
        args: Tuple[ast.Expr, ...] = ()
        if self._at(K.LPAREN):
            args = self._parse_call_args()
            self._grow(self.height + 1)
        return ast.NewExpr(name, owners, args, self._span_from(start))


def parse_program(text: str, filename: str = "<input>",
                  start_line: int = 1,
                  start_col: int = 1) -> ast.Program:
    """Parse a full core-language program from source text.

    ``start_line``/``start_col`` place the first character of ``text``
    at that position — used by the incremental analysis cache to parse
    a class-declaration *slice* of a file with full-file spans."""
    tokens = tokenize(text, filename, start_line, start_col)
    return Parser(tokens, filename, text).parse_program()
