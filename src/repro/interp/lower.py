"""Shared lowering layer: typed core -> backend-neutral program facts.

Every codegen backend (`codegen_py`, `codegen_c`) consumes the same
lowered view of an analyzed program instead of re-deriving semantic
facts from the AST.  Lowering resolves, once:

* **dynamic dispatch** — a call table mirroring the interpreter's
  ``(class, method)`` inline cache: the superclass-chain walk happens
  here, symbolically, producing *selectors* that rebuild the defining
  class's owner tuple from any receiver (an index into ``obj.owners``,
  the ``THIS`` marker, or the ``heap``/``immortal`` constants);
* **object layouts** — all instance fields, inherited first, with their
  Java zero-initialization values;
* **method units** — one per method body plus the main block, with
  formal/param names and the typed default return value;
* **per-node facts** for the straight-line (fused) backends — local
  slot assignments (alpha-renamed, reproducing the interpreter's flat
  ``frame.vars`` save/restore semantics lexically), owner-name
  resolution descriptors, field/portal/static target classification,
  invoke dispatch shapes, and expression types;
* **hazards** — the census of constructs the straight-line backends
  cannot compile without giving up cycle exactness (``fork``,
  subregions, portal and static access, name shadowing that lexical
  renaming cannot reproduce, untypeable receivers).  A program with any
  hazard still runs — on the interpreter, with identical results.

The lowered facts are backend-neutral: nothing here mentions Python
source or C.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.api import AnalyzedProgram
from ..core.program import ClassInfo, MethodInfo, convert_type, make_subst
from ..core.types import BOOLEAN, ClassType, FLOAT, HandleType, INT, Type
from ..lang import ast

#: selector marker: the receiver object itself becomes the owner value
THIS = "<this>"

_ARRAY_CLASSES = ("IntArray", "FloatArray")

#: sentinel for "no previous binding" in scope save/restore
_MISSING = object()


class LowerError(Exception):
    """A construct no backend can lower (non-literal field init)."""


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CallEntry:
    """One resolved ``(receiver class, method)`` dispatch, mirroring the
    interpreter's call-entry cache."""

    key: Tuple[str, str]
    #: defining class (where the body lives)
    impl_class: str
    #: ``None`` = identity (receiver owners pass through); otherwise a
    #: tuple of ``int`` (index into receiver owners), :data:`THIS`,
    #: ``"heap"`` or ``"immortal"``
    selectors: Optional[Tuple[Any, ...]]
    native: Optional[str]
    class_formals: Tuple[str, ...]
    owner_formals: Tuple[str, ...]
    param_names: Tuple[str, ...]
    default: Any
    return_type: Optional[Type]


@dataclass
class MethodFacts:
    """Per-node facts for the straight-line backends, keyed by node id."""

    #: expr id -> static type (None = unknown)
    types: Dict[int, Optional[Type]] = dc_field(default_factory=dict)
    #: VarRef/LocalDecl/AssignLocal id -> ('local', slot) | ('field',)
    vars: Dict[int, Tuple[Any, ...]] = dc_field(default_factory=dict)
    #: FieldRead/AssignField id -> 'object' | 'portal' | 'static'
    targets: Dict[int, str] = dc_field(default_factory=dict)
    #: OwnerAst id -> descriptor (see _OwnerEnv.resolve)
    owners: Dict[int, Tuple[Any, ...]] = dc_field(default_factory=dict)
    #: Invoke id -> ('native', op) | ('call', static_class, mono)
    invokes: Dict[int, Tuple[Any, ...]] = dc_field(default_factory=dict)
    #: RegionStmt id -> (region_slot, handle_slot)
    regions: Dict[int, Tuple[str, str]] = dc_field(default_factory=dict)
    #: entry-time slot names for the unit's parameters, in order
    param_slots: Tuple[str, ...] = ()
    hazards: Set[str] = dc_field(default_factory=set)


@dataclass
class MethodUnit:
    """One compilable body: a method, or the program's main block."""

    key: Tuple[str, str]              # ("", "<main>") for the main block
    class_decl: Optional[ast.ClassDecl]
    method: Optional[ast.MethodDecl]
    body: ast.Block
    class_formals: Tuple[str, ...]
    owner_formals: Tuple[str, ...]
    param_names: Tuple[str, ...]
    default: Any
    facts: MethodFacts = dc_field(default_factory=MethodFacts)

    @property
    def is_main(self) -> bool:
        return self.method is None


@dataclass
class LoweredProgram:
    analyzed: AnalyzedProgram
    #: program classes, parents before subclasses
    classes: List[ast.ClassDecl]
    #: class -> ((field_name, literal_init_or_None), ...) inherited first
    layouts: Dict[str, Tuple[Tuple[str, Any], ...]]
    #: every resolvable (class, method) pair, incl. array natives
    call_table: Dict[Tuple[str, str], CallEntry]
    units: Dict[Tuple[str, str], MethodUnit]
    #: classes that have subclasses in this program (dispatch is
    #: polymorphic for receivers of these static types)
    extended: Set[str]
    #: program-wide hazards: union of unit hazards + global ones
    hazards: Set[str]

    @property
    def info(self):
        return self.analyzed.info

    @property
    def program(self):
        return self.analyzed.program

    @property
    def fused_ok(self) -> bool:
        """Can a straight-line backend compile this program exactly?"""
        return not self.hazards


def _default_return(return_type) -> Any:
    if return_type == INT:
        return 0
    if return_type == FLOAT:
        return 0.0
    if return_type == BOOLEAN:
        return False
    return None


def _literal_value(expr: ast.Expr) -> Any:
    if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.BoolLit)):
        return expr.value
    if isinstance(expr, ast.NullLit):
        return None
    raise LowerError(f"field initializer is not a literal: {expr!r}")


# ---------------------------------------------------------------------------
# dispatch / layout tables (the interpreter's caches, precomputed)
# ---------------------------------------------------------------------------

def _build_call_entry(info_table, class_name: str,
                      method_name: str) -> Optional[CallEntry]:
    """The interpreter's ``_build_call_entry`` walk with symbolic area
    markers instead of live ``MemoryArea`` objects."""
    info: Optional[ClassInfo] = info_table.classes[class_name]
    symbolic: Tuple[Any, ...] = tuple(range(len(info.formal_names)))
    while info is not None:
        mi: Optional[MethodInfo] = info.methods.get(method_name)
        if mi is not None:
            identity = symbolic == tuple(range(len(symbolic)))
            selectors = None if identity else symbolic
            return CallEntry(
                key=(class_name, method_name),
                impl_class=info.name,
                selectors=selectors,
                native=mi.native,
                class_formals=tuple(info.formal_names),
                owner_formals=tuple(f[0] for f in mi.formals),
                param_names=tuple(p[1] for p in mi.params),
                default=_default_return(mi.return_type),
                return_type=mi.return_type,
            )
        if info.superclass is None:
            break
        mapping = dict(zip(info.formal_names, symbolic))
        translated: List[Any] = []
        for o in info.superclass.owners:
            if o.name in mapping:
                translated.append(mapping[o.name])
            elif o.name == "this":
                translated.append(THIS)
            else:  # heap / immortal
                translated.append(o.name)
        symbolic = tuple(translated)
        info = info_table.classes.get(info.superclass.name)
    return None


def _visible_methods(info_table, class_name: str) -> Set[str]:
    names: Set[str] = set()
    info = info_table.classes.get(class_name)
    while info is not None:
        names.update(info.methods)
        info = (info_table.classes.get(info.superclass.name)
                if info.superclass is not None else None)
    return names


def _layout(info_table, class_name: str) -> Tuple[Tuple[str, Any], ...]:
    chain = []
    info = info_table.classes[class_name]
    while info is not None:
        chain.append(info)
        info = (info_table.classes.get(info.superclass.name)
                if info.superclass is not None else None)
    zero = {INT: 0, FLOAT: 0.0, BOOLEAN: False}
    fields: List[Tuple[str, Any]] = []
    for info in reversed(chain):
        for fi in info.fields.values():
            if fi.static:
                continue
            init = zero.get(fi.type)
            if fi.decl is not None and fi.decl.init is not None:
                init = _literal_value(fi.decl.init)
            fields.append((fi.name, init))
    return tuple(fields)


def _classes_parents_first(classes) -> List[ast.ClassDecl]:
    by_name = {cls.name: cls for cls in classes}
    ordered: List[ast.ClassDecl] = []
    seen: Set[str] = set()

    def visit(cls):
        if cls.name in seen:
            return
        seen.add(cls.name)
        if cls.superclass is not None and cls.superclass.name in by_name:
            visit(by_name[cls.superclass.name])
        ordered.append(cls)

    for cls in classes:
        visit(cls)
    return ordered


# ---------------------------------------------------------------------------
# per-unit facts: scoping, typing, classification
# ---------------------------------------------------------------------------

class _FactsPass:
    """One walk over a method body (or the main block) producing
    :class:`MethodFacts`.

    Slot assignment reproduces the interpreter's *flat* ``frame.vars``
    semantics lexically: a local declared in a nested block gets a fresh
    alpha-renamed slot valid for the rest of that block; when the block
    closes, the name is *tainted* — the interpreter would still see the
    leaked runtime binding, which lexical renaming cannot reproduce, so
    any later use is a hazard.  Region statements save and restore their
    handle and owner bindings in the interpreter, which push/pop
    renaming reproduces exactly (no taint).
    """

    def __init__(self, lowered: LoweredProgram, unit: MethodUnit) -> None:
        self.low = lowered
        self.info = lowered.info
        self.unit = unit
        self.facts = unit.facts
        self.cls = unit.class_decl
        self.counter = 0
        #: name -> python-safe slot (None value = tainted)
        self.scope: Dict[str, Optional[str]] = {}
        self.tenv: Dict[str, Optional[Type]] = {}
        #: owner name -> descriptor
        self.owner_env: Dict[str, Tuple[Any, ...]] = {}
        #: names ever resolved through the implicit this-field fallback
        self.field_fallbacks: Set[str] = set()
        #: names ever introduced by a LocalDecl
        self.declared_locals: Set[str] = set()
        if unit.method is not None:
            for i, name in enumerate(unit.class_formals):
                self.owner_env[name] = ("cformal", i)
            for name in unit.owner_formals:
                self.owner_env[name] = ("mformal", name)
            for ptype, pname in unit.method.params:
                slot = self._slot(pname)
                self.scope[pname] = slot
                self.facts.vars[id(unit.method)] = ("params",)
                try:
                    self.tenv[pname] = convert_type(ptype)
                except Exception:
                    self.tenv[pname] = None
            self.facts.param_slots = tuple(
                self.scope[p] for p in unit.param_names)

    # -- infrastructure -------------------------------------------------

    def hazard(self, reason: str) -> None:
        self.facts.hazards.add(reason)

    def _slot(self, name: str) -> str:
        self.counter += 1
        return f"u{self.counter}_{name}"

    def param_slots(self) -> Tuple[str, ...]:
        return tuple(self.scope[p] for p in self.unit.param_names)  # type: ignore[misc]

    # -- typing (adapted from compile_py.type_of) ------------------------

    def type_of(self, expr: ast.Expr) -> Optional[Type]:
        key = id(expr)
        if key in self.facts.types:
            return self.facts.types[key]
        t = self._type_of(expr)
        self.facts.types[key] = t
        return t

    def _type_of(self, expr: ast.Expr) -> Optional[Type]:
        from ..core.owners import Owner
        info = self.info
        if isinstance(expr, ast.IntLit):
            return INT
        if isinstance(expr, ast.FloatLit):
            return FLOAT
        if isinstance(expr, ast.BoolLit):
            return BOOLEAN
        if isinstance(expr, (ast.NullLit,)):
            return None
        if isinstance(expr, ast.ThisRef):
            if self.cls is None:
                return None
            return ClassType(self.cls.name,
                             tuple(Owner(f.name) for f in self.cls.formals))
        if isinstance(expr, ast.VarRef):
            if expr.name in self.tenv:
                return self.tenv[expr.name]
            if self.cls is not None:
                fi = info.lookup_field(self.cls.name, expr.name)
                if fi is not None:
                    return fi.type
            return None
        if isinstance(expr, ast.NewExpr):
            return ClassType(expr.class_name,
                             tuple(Owner(o.name) for o in expr.owners))
        if isinstance(expr, ast.FieldRead):
            ttype = self.type_of(expr.target)
            if isinstance(ttype, HandleType):
                return None  # portal reads are a hazard anyway
            if isinstance(ttype, ClassType):
                fi = info.lookup_field(ttype.name, expr.field_name)
                if fi is not None and ttype.name in info.classes:
                    subst = make_subst(
                        info.classes[ttype.name].formal_names, ttype.owners)
                    return fi.type.substitute(subst)
            if isinstance(expr.target, ast.VarRef) \
                    and expr.target.name in info.classes:
                fi = info.lookup_field(expr.target.name, expr.field_name)
                if fi is not None:
                    return fi.type
            return None
        if isinstance(expr, ast.Invoke):
            ttype = self.type_of(expr.target)
            if isinstance(ttype, ClassType) and ttype.name in info.classes:
                mi = info.lookup_method(ttype.name, expr.method_name)
                if mi is not None:
                    subst = make_subst(
                        info.classes[ttype.name].formal_names, ttype.owners)
                    return mi.return_type.substitute(subst)
            return None
        if isinstance(expr, ast.Binary):
            if expr.op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
                return BOOLEAN
            return self.type_of(expr.left) or self.type_of(expr.right)
        if isinstance(expr, ast.Unary):
            if expr.op == "!":
                return BOOLEAN
            return self.type_of(expr.operand)
        if isinstance(expr, ast.BuiltinCall):
            return {"io": INT, "sqrt": FLOAT, "itof": FLOAT,
                    "ftoi": INT}.get(expr.name)
        return None

    # -- statements ------------------------------------------------------

    def walk_unit(self) -> None:
        try:
            self.walk_block(self.unit.body, toplevel=True)
            if self.field_fallbacks & self.declared_locals:
                # a name resolved as an implicit this-field *somewhere*
                # is also declared as a local *somewhere else*: in a
                # loop the interpreter's flat frame can leak the local
                # binding back into a textually-earlier use that lexical
                # renaming resolved to the field
                self.hazard("field-local-alias")
        except LowerError:
            raise
        except Exception:
            # never let the facts pass break lowering: the program just
            # loses straight-line eligibility
            self.hazard("facts-pass-error")

    def walk_block(self, block: ast.Block, toplevel: bool = False) -> None:
        added: List[Tuple[str, Any, Any]] = []
        for stmt in block.stmts:
            self.walk_stmt(stmt, added, toplevel)
        for name, prev_slot, prev_type in reversed(added):
            if prev_slot is _MISSING:
                del self.scope[name]
                self.tenv.pop(name, None)
                # the interpreter's flat frame would leak this binding
                self.scope[name] = None  # tainted
            else:
                self.scope[name] = prev_slot
                self.tenv[name] = prev_type

    def _declare(self, name: str, declared_type, added, toplevel: bool,
                 node_id: int) -> None:
        visible = self.scope.get(name, _MISSING)
        # a *declaration* over a tainted (leaked) name is exact: the
        # interpreter overwrites the flat frame slot unconditionally,
        # which a fresh lexical slot reproduces — only *uses* of a
        # leaked binding depend on whether the leaking block executed,
        # so the taint is tracked per name and cleared here rather than
        # poisoning the whole method
        if not toplevel:
            if visible is not _MISSING and visible is not None:
                # nested redeclaration of a visible local: the
                # interpreter overwrites the shared flat slot and the
                # write survives the block — renaming cannot mirror that
                self.hazard("nested-shadowing")
            added.append((name, visible,
                          self.tenv.get(name) if visible is not _MISSING
                          else None))
        slot = self._slot(name)
        self.scope[name] = slot
        self.declared_locals.add(name)
        try:
            self.tenv[name] = (convert_type(declared_type)
                               if declared_type is not None else None)
        except Exception:
            self.tenv[name] = None
        self.facts.vars[node_id] = ("local", slot)

    def walk_stmt(self, stmt: ast.Stmt, added, toplevel: bool) -> None:
        if isinstance(stmt, ast.Block):
            self.walk_block(stmt)
        elif isinstance(stmt, ast.LocalDecl):
            if stmt.init is not None:
                self.walk_expr(stmt.init)
            self._declare(stmt.name, stmt.declared_type, added, toplevel,
                          id(stmt))
        elif isinstance(stmt, ast.AssignLocal):
            self.walk_expr(stmt.value)
            slot = self.scope.get(stmt.name, _MISSING)
            if slot is None:
                self.hazard("use-of-leaked-local")
            elif slot is _MISSING:
                # implicit this-field write
                if self.cls is None or self.info.lookup_field(
                        self.cls.name, stmt.name) is None:
                    self.hazard("unresolved-assignment")
                self.field_fallbacks.add(stmt.name)
                self.facts.vars[id(stmt)] = ("field",)
            else:
                self.facts.vars[id(stmt)] = ("local", slot)
        elif isinstance(stmt, ast.AssignField):
            self.walk_expr(stmt.value)
            self._classify_target(stmt, stmt.target, stmt.field_name,
                                  write=True)
        elif isinstance(stmt, ast.ExprStmt):
            self.walk_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self.walk_expr(stmt.cond)
            self.walk_block(stmt.then_body)
            if stmt.else_body is not None:
                self.walk_block(stmt.else_body)
        elif isinstance(stmt, ast.While):
            self.walk_expr(stmt.cond)
            self.walk_block(stmt.body)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.walk_expr(stmt.value)
        elif isinstance(stmt, ast.Fork):
            self.hazard("fork")
            self.walk_expr(stmt.call.target)
            for a in stmt.call.args:
                self.walk_expr(a)
        elif isinstance(stmt, ast.RegionStmt):
            self._walk_region(stmt)
        elif isinstance(stmt, ast.SubregionStmt):
            self.hazard("subregion")
            self.walk_expr(stmt.parent_handle)
            # still walk the body for more hazards / slot hygiene
            self._walk_scoped_body(stmt.region_name, stmt.handle_name,
                                   stmt.body, id(stmt))
        else:
            self.hazard("unknown-statement")

    def _walk_region(self, stmt: ast.RegionStmt) -> None:
        if stmt.kind is not None:
            # user region kinds bring shared semantics, portals and
            # subregions; the straight-line backends punt on all of it
            self.hazard("region-kind")
        self._walk_scoped_body(stmt.region_name, stmt.handle_name,
                               stmt.body, id(stmt))

    def _walk_scoped_body(self, region_name: str, handle_name: str,
                          body: ast.Block, node_id: int) -> None:
        """Region/subregion bodies: the interpreter saves and restores
        ``owners[region_name]`` and ``vars[handle_name]``, so push/pop
        renaming is exact for those two names."""
        self.counter += 1
        region_slot = f"R{self.counter}"
        handle_slot = self._slot(handle_name)
        self.facts.regions[node_id] = (region_slot, handle_slot)
        saved_owner = self.owner_env.get(region_name, _MISSING)
        saved_slot = self.scope.get(handle_name, _MISSING)
        saved_type = self.tenv.get(handle_name, _MISSING)
        self.owner_env[region_name] = ("region", region_slot)
        self.scope[handle_name] = handle_slot
        from ..core.owners import Owner
        self.tenv[handle_name] = HandleType(Owner(region_name))
        try:
            self.walk_block(body)
        finally:
            if saved_owner is _MISSING:
                self.owner_env.pop(region_name, None)
            else:
                self.owner_env[region_name] = saved_owner
            if saved_slot is _MISSING:
                self.scope.pop(handle_name, None)
            else:
                self.scope[handle_name] = saved_slot
            if saved_type is _MISSING:
                self.tenv.pop(handle_name, None)
            else:
                self.tenv[handle_name] = saved_type

    # -- target / owner classification -----------------------------------

    def _classify_target(self, node, target: ast.Expr, field_name: str,
                         write: bool) -> None:
        if isinstance(target, ast.VarRef) \
                and target.name in self.info.classes \
                and self.scope.get(target.name, _MISSING) is _MISSING:
            self.facts.targets[id(node)] = "static"
            self.hazard("static-access")
            return
        self.walk_expr(target)
        ttype = self.type_of(target)
        if isinstance(ttype, HandleType):
            self.facts.targets[id(node)] = "portal"
            self.hazard("portal-access")
            return
        if isinstance(ttype, ClassType):
            self.facts.targets[id(node)] = "object"
            if ttype.name in self.info.classes and self.info.lookup_field(
                    ttype.name, field_name) is None:
                self.hazard("unknown-field")
            return
        self.facts.targets[id(node)] = "object"
        self.hazard("untyped-field-target")

    def resolve_owner(self, owner: ast.OwnerAst) -> None:
        name = owner.name
        if name == "this":
            desc = ("this",) if self.cls is not None else None
        elif name == "heap":
            desc = ("heap",)
        elif name == "immortal":
            desc = ("immortal",)
        elif name == "initialRegion":
            desc = ("initial",)
        else:
            desc = self.owner_env.get(name)
        if desc is None:
            self.hazard("unbound-owner")
            desc = ("unbound", name)
        self.facts.owners[id(owner)] = desc

    # -- expressions -----------------------------------------------------

    def walk_expr(self, expr: ast.Expr) -> None:
        self.type_of(expr)
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.BoolLit,
                             ast.NullLit, ast.ThisRef)):
            return
        if isinstance(expr, ast.VarRef):
            slot = self.scope.get(expr.name, _MISSING)
            if slot is None:
                self.hazard("use-of-leaked-local")
            elif slot is _MISSING:
                if self.cls is None or self.info.lookup_field(
                        self.cls.name, expr.name) is None:
                    self.hazard("unresolved-var")
                self.field_fallbacks.add(expr.name)
                self.facts.vars[id(expr)] = ("field",)
            else:
                self.facts.vars[id(expr)] = ("local", slot)
            return
        if isinstance(expr, ast.NewExpr):
            for o in expr.owners:
                self.resolve_owner(o)
            for a in expr.args:
                self.walk_expr(a)
            return
        if isinstance(expr, ast.FieldRead):
            self._classify_target(expr, expr.target, expr.field_name,
                                  write=False)
            return
        if isinstance(expr, ast.Invoke):
            self.walk_expr(expr.target)
            for o in expr.owner_args:
                self.resolve_owner(o)
            for a in expr.args:
                self.walk_expr(a)
            ttype = self.type_of(expr.target)
            if isinstance(ttype, ClassType) \
                    and ttype.name in _ARRAY_CLASSES:
                if expr.method_name in ("get", "set", "length"):
                    self.facts.invokes[id(expr)] = (
                        "native", expr.method_name)
                else:
                    self.hazard("unknown-array-method")
            elif isinstance(ttype, ClassType) \
                    and ttype.name in self.info.classes \
                    and not self.info.classes[ttype.name].builtin:
                entry = self.low.call_table.get(
                    (ttype.name, expr.method_name))
                if entry is None:
                    self.hazard("unknown-method")
                else:
                    mono = ttype.name not in self.low.extended
                    self.facts.invokes[id(expr)] = (
                        "call", ttype.name, mono)
            else:
                self.hazard("untyped-receiver")
            return
        if isinstance(expr, ast.Binary):
            self.walk_expr(expr.left)
            self.walk_expr(expr.right)
            return
        if isinstance(expr, ast.Unary):
            self.walk_expr(expr.operand)
            return
        if isinstance(expr, ast.BuiltinCall):
            for a in expr.args:
                self.walk_expr(a)
            if expr.name not in ("print", "io", "yieldnow", "sqrt",
                                 "itof", "ftoi", "check"):
                self.hazard("unknown-builtin")
            return
        self.hazard("unknown-expression")


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _lower(analyzed: AnalyzedProgram) -> LoweredProgram:
    info = analyzed.info
    program = analyzed.program
    classes = _classes_parents_first(program.classes)

    call_table: Dict[Tuple[str, str], CallEntry] = {}
    for name in info.classes:
        if info.classes[name].builtin and name not in _ARRAY_CLASSES:
            continue
        for method in _visible_methods(info, name):
            entry = _build_call_entry(info, name, method)
            if entry is not None:
                call_table[(name, method)] = entry

    layouts: Dict[str, Tuple[Tuple[str, Any], ...]] = {}
    for cls in classes:
        layouts[cls.name] = _layout(info, cls.name)

    extended: Set[str] = set()
    for ci in info.classes.values():
        sup = ci.superclass
        while sup is not None:
            extended.add(sup.name)
            parent = info.classes.get(sup.name)
            sup = parent.superclass if parent is not None else None

    lowered = LoweredProgram(
        analyzed=analyzed, classes=classes, layouts=layouts,
        call_table=call_table, units={}, extended=extended, hazards=set())

    for cls in classes:
        for meth in cls.methods:
            mi = info.lookup_method(cls.name, meth.name)
            rtype = mi.return_type if mi is not None else None
            ci = info.classes[cls.name]
            unit = MethodUnit(
                key=(cls.name, meth.name), class_decl=cls, method=meth,
                body=meth.body,
                class_formals=tuple(ci.formal_names),
                owner_formals=tuple(f.name for f in meth.formals),
                param_names=tuple(p for _t, p in meth.params),
                default=_default_return(rtype))
            lowered.units[unit.key] = unit
    if program.main is not None:
        lowered.units[("", "<main>")] = MethodUnit(
            key=("", "<main>"), class_decl=None, method=None,
            body=program.main, class_formals=(), owner_formals=(),
            param_names=(), default=None)

    for unit in lowered.units.values():
        _FactsPass(lowered, unit).walk_unit()
        lowered.hazards |= unit.facts.hazards
    return lowered


def lower(analyzed: AnalyzedProgram) -> LoweredProgram:
    """Lower ``analyzed`` (cached on the analysis object)."""
    lowered = analyzed.artifacts.get("lowered")
    if lowered is None:
        lowered = analyzed.artifacts["lowered"] = _lower(analyzed)
    return lowered
