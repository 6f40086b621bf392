"""Generator-based tree-walking interpreter with compiled dispatch.

Every statement and expression runs as a Python generator.  A simulated
cost is charged straight onto the clock (``stats.cycles += cost``), and
the generator yields only when that charge reaches the running slice's
deadline, ``stats.slice_end``, or when the program calls ``yieldnow()``.
The scheduler in :mod:`repro.rtsj.threads` drives thread coroutines
round robin, one resume per slice, so threads can still interleave
between any two simulated operations — which is what makes the
producer/consumer and real-time experiments meaningful — while the
generator resume chain is walked once per slice, not once per charge.

The interpreter is *owner-passing*: objects carry their runtime owners so
allocation sites can resolve their target region directly.  A real
implementation erases owners and threads region handles instead
(Section 2.6, :mod:`repro.interp.translate` shows how); the cost model
charges nothing for owner upkeep, so the two are cost-equivalent.

Dispatch architecture (see ``docs/PERFORMANCE.md``)
---------------------------------------------------

Each AST node is analyzed exactly once: the first time a statement or
expression executes, a *builder* keyed on ``type(node)`` compiles it to a
closure ``(frame, region, thread) -> generator`` with everything that is
knowable ahead of time — cost constants, operator functions, owner
resolvers, class layouts, the checked/unchecked access path — captured in
the closure's cells.  Subsequent executions of the same node run the
closure directly; no ``isinstance`` chain, no attribute chains, no
re-analysis.  Compiled code is memoized per interpreter instance (an
analyzed program may be shared by several machines) keyed by node
identity.

Two invariants the compiler must preserve exactly, because the paper's
numbers are *simulated* cycle counts:

* the **charge sequence and slice boundaries** of every construct are
  byte-identical to the reference tree-walker: the same costs, charged
  in the same order, each one a possible preemption point — the global
  clock and thread interleaving depend on it;
* errors keep their type, message, and *timing* — an unknown node or
  builtin raises when it first executes, never at compile time (unknown
  forms compile to closures that raise).

When the RTSJ dynamic checks are off and validation is off
(``checks.active`` false), field/static/portal accesses bind to
*unchecked* variants at construction time that never call the check
engine — the checks are compiled out at the Python level, not just
short-circuited.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.kinds import Kind
from ..core.owners import Owner
from ..errors import (InterpreterError, MemoryAccessError,
                      RealtimeViolationError, RegionEnterError,
                      ReproError, SimulatedNullPointerError,
                      ThreadSpawnError)
from ..lang import ast
from ..rtsj.objects import ArrayStorage, ObjRef, make_array
from ..rtsj.regions import LT, MemoryArea, VT, release_shared
from ..rtsj.threads import SimThread
from .values import RegionHandle, format_value, region_of_owner


class _Return(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


class Frame:
    """One activation record.

    ``temps`` holds object references produced by expression evaluation
    but not yet stored anywhere the GC can see (a preemption point can
    fall between an allocation and the variable store); it is a GC root
    set and is cleared at each statement boundary of this frame.
    """

    __slots__ = ("this", "owners", "vars", "initial_region", "temps")

    def __init__(self, this: Optional[ObjRef],
                 owners: Dict[str, Any],
                 initial_region: MemoryArea) -> None:
        self.this = this
        self.owners = owners
        self.vars: Dict[str, Any] = {}
        self.initial_region = initial_region
        self.temps: List[Any] = []


#: selector marking "the receiver object itself" in cached owner
#: translations (dynamic dispatch through ``extends`` instantiations)
_THIS = object()
#: distinguishes "never compiled" from "resolves to no method"
_UNSET = object()
#: distinguishes "variable absent" from "variable bound to None"
_MISSING = object()


def _ref_ne(a, b) -> bool:
    return not _ref_eq(a, b)


#: binary operators that evaluate both sides then one combining step;
#: "/", "%", "==", "!=" are bound at the end of the module (they need
#: helpers defined below)
_BIN_OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _empty_block(frame: Frame, region: MemoryArea, thread: SimThread):
    return None
    yield  # pragma: no cover - makes this a generator


def _raiser(exc: BaseException):
    """Closure that defers a compile-time failure to execution time,
    preserving the reference interpreter's error timing."""
    def run(frame, region, thread):
        raise exc
        yield  # pragma: no cover
    return run


class Interpreter:
    """Executes one analyzed program on a :class:`Machine`."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.info = machine.analyzed.info
        self.cost = machine.cost_model
        self.stats = machine.stats
        self.checks = machine.checks
        self._layouts: Dict[str, List[Tuple[str, Any]]] = {}

        # hoisted singletons / flags (fixed for the machine's lifetime)
        self._heap = machine.regions.heap
        self._immortal = machine.regions.immortal
        self._validate = machine.options.validate
        cost = self.cost
        self._c_local = cost.op_local
        self._c_basic = cost.op_basic
        self._c_field_read = cost.op_field_read
        self._c_field_write = cost.op_field_write
        self._c_portal_read = cost.portal_read
        self._c_portal_write = cost.portal_write

        #: flight recorder (None when post-mortem recording is off: the
        #: closures compiled below then carry no recording code at all)
        self._recorder = machine.recorder

        # "checks compiled out": bind the access-path helpers once.  The
        # unchecked variants never touch the check engine at all.  A
        # recording run keeps the checked paths even with the engine
        # inactive: the engine then charges nothing and raises nothing
        # (cycle-identical to unchecked) but credits every elided check
        # to the static path for the elimination ledger.
        if self.checks.active or self._recorder is not None:
            self._field_write = self._field_write_checked
            self._field_read = self._field_read_checked
            self._static_write = self._static_write_checked
            self._static_read = self._static_read_checked
            self._portal_write = self._portal_write_checked
            self._portal_read = self._portal_read_checked
        else:
            self._field_write = self._field_write_unchecked
            self._field_read = self._field_read_unchecked
            self._static_write = self._static_write_unchecked
            self._static_read = self._static_read_unchecked
            self._portal_write = self._portal_write_unchecked
            self._portal_read = self._portal_read_unchecked

        # robustness plane: all three are None/inert on a plain run, so
        # the closures compiled below carry no fault or sanitizer code
        # on their hot paths (byte-identical behaviour when disabled)
        self._injector = machine.fault_injector
        self._recovery = machine.recovery
        self._sanitizer = machine.sanitizer
        if self._injector is not None:
            # portal stores gain the teardown-race guard + retry; bound
            # here so fault-free runs keep the direct helper
            self._portal_write = self._wrap_portal_faults(
                self._portal_write)
        if self._recorder is not None:
            # portal traffic is a flight-recorder channel (contention
            # analysis); wrapped here so plain runs keep the direct
            # helpers
            self._portal_write = self._wrap_portal_record(
                self._portal_write, "portal-write")
            self._portal_read = self._wrap_portal_record(
                self._portal_read, "portal-read")

        # compiled-code caches, keyed by node identity (the analyzed AST
        # outlives the interpreter; ``_hold`` pins ad-hoc nodes compiled
        # through the public API so ids stay unique regardless)
        self._stmt_code: Dict[int, Callable] = {}
        self._expr_code: Dict[int, Callable] = {}
        self._block_code: Dict[int, Callable] = {}
        self._hold: List[Any] = []
        #: (class_name, method_name) -> call entry or None (no method)
        self._call_cache: Dict[Tuple[str, str], Any] = {}
        #: region kind -> (portal default template, subregion meta)
        self._kind_cache: Dict[str, Tuple[Dict[str, Any], Dict[str, Any]]] \
            = {}

        self._stmt_builders = {
            ast.Block: self._build_block_stmt,
            ast.LocalDecl: self._build_local_decl,
            ast.AssignLocal: self._build_assign_local,
            ast.AssignField: self._build_assign_field,
            ast.ExprStmt: self._build_expr_stmt,
            ast.If: self._build_if,
            ast.While: self._build_while,
            ast.Return: self._build_return,
            ast.Fork: self._build_fork,
            ast.RegionStmt: self._build_region_stmt,
            ast.SubregionStmt: self._build_subregion_stmt,
        }
        self._expr_builders = {
            ast.IntLit: self._build_literal,
            ast.FloatLit: self._build_literal,
            ast.BoolLit: self._build_literal,
            ast.NullLit: self._build_null,
            ast.ThisRef: self._build_this,
            ast.VarRef: self._build_var_ref,
            ast.NewExpr: self._build_new,
            ast.FieldRead: self._build_field_read,
            ast.Invoke: self._build_invoke,
            ast.Binary: self._build_binary,
            ast.Unary: self._build_unary,
            ast.BuiltinCall: self._build_builtin,
        }

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _layout(self, class_name: str) -> List[Tuple[str, Any]]:
        """All instance fields of ``class_name`` (inherited first) with
        their literal initial values."""
        cached = self._layouts.get(class_name)
        if cached is not None:
            return cached
        fields: List[Tuple[str, Any]] = []
        chain = []
        info = self.info.classes[class_name]
        while info is not None:
            chain.append(info)
            info = (self.info.classes.get(info.superclass.name)
                    if info.superclass is not None else None)
        from ..core.types import BOOLEAN, FLOAT, INT
        zero = {INT: 0, FLOAT: 0.0, BOOLEAN: False}
        for info in reversed(chain):
            for fi in info.fields.values():
                if fi.static:
                    continue
                # Java zero-initialization: scalars to 0/0.0/false,
                # references to null
                init = zero.get(fi.type)
                if fi.decl is not None and fi.decl.init is not None:
                    init = _literal_value(fi.decl.init)
                fields.append((fi.name, init))
        self._layouts[class_name] = fields
        return fields

    def owner_value(self, name: str, frame: Frame) -> Any:
        if name == "this":
            return frame.this
        if name == "heap":
            return self._heap
        if name == "immortal":
            return self._immortal
        if name == "initialRegion":
            return frame.initial_region
        try:
            return frame.owners[name]
        except KeyError:
            raise InterpreterError(f"owner '{name}' unbound at runtime")

    def _owner_resolver(self, name: str) -> Callable[[Frame], Any]:
        """Compile one owner name to a ``frame -> value`` function."""
        if name == "this":
            return _resolve_this
        if name == "heap":
            heap = self._heap
            return lambda frame: heap
        if name == "immortal":
            immortal = self._immortal
            return lambda frame: immortal
        if name == "initialRegion":
            return _resolve_initial_region

        def resolve(frame: Frame) -> Any:
            try:
                return frame.owners[name]
            except KeyError:
                raise InterpreterError(
                    f"owner '{name}' unbound at runtime")
        return resolve

    def _require_object(self, value: Any, span, what: str) -> ObjRef:
        if value is None:
            raise SimulatedNullPointerError(
                f"{what} on null at {span}")
        assert isinstance(value, ObjRef), value
        if self._validate and not value.alive:
            raise InterpreterError(
                f"dangling reference followed at {span}: {value!r} "
                "(its region was deleted)")
        return value

    # ------------------------------------------------------------------
    # thread bodies
    # ------------------------------------------------------------------

    def main_coroutine(self, thread: SimThread):
        main = self.machine.analyzed.program.main
        if main is None:
            return
            yield  # pragma: no cover - make this a generator
        frame = Frame(None, {}, self._heap)
        thread.frames.append(frame)
        try:
            yield from self.exec_block(main, frame, self._heap, thread)
        except _Return:
            pass
        finally:
            thread.frames.pop()

    def thread_coroutine(self, thread: SimThread, receiver: ObjRef,
                         method_name: str, owner_values: Tuple[Any, ...],
                         args: Tuple[Any, ...],
                         initial_region: MemoryArea):
        # dispatch on the call entry directly: the thread body runs with
        # one fewer generator frame in its resume chain
        entry = self._call_entry(receiver, method_name)
        if entry[0] is not None:
            yield from entry[0](receiver, args)
        else:
            yield from self._frame_call(entry, receiver, owner_values,
                                        args, initial_region, thread)

    # ------------------------------------------------------------------
    # method calls
    # ------------------------------------------------------------------

    def _build_call_entry(self, class_name: str, method_name: str):
        """Resolve dynamic dispatch once per ``(class, method)``: walk
        the superclass chain translating owner values *symbolically*
        through each ``extends`` instantiation, producing selectors that
        rebuild the target class's owner tuple from any receiver —
        an index into ``obj.owners``, the :data:`_THIS` marker, or a
        constant area (heap/immortal)."""
        info = self.info.classes[class_name]
        symbolic: Tuple[Any, ...] = tuple(range(len(info.formal_names)))
        heap = self._heap
        immortal = self._immortal
        while info is not None:
            mi = info.methods.get(method_name)
            if mi is not None:
                identity = symbolic == tuple(range(len(symbolic)))
                selectors = None if identity else symbolic
                if mi.native is not None:
                    return (self._native_code(mi.native), selectors,
                            (), (), (), None, None)
                body_code = self._compile_block(mi.decl.body)
                return (None, selectors,
                        tuple(info.formal_names),
                        tuple(f[0] for f in mi.formals),
                        tuple(p[1] for p in mi.params),
                        body_code, _default_return(mi.return_type))
            if info.superclass is None:
                break
            mapping = dict(zip(info.formal_names, symbolic))
            translated: List[Any] = []
            for o in info.superclass.owners:
                if o.name in mapping:
                    translated.append(mapping[o.name])
                elif o.name == "this":
                    translated.append(_THIS)
                else:  # heap / immortal
                    translated.append(
                        heap if o.name == "heap" else immortal)
            symbolic = tuple(translated)
            info = self.info.classes.get(info.superclass.name)
        return None

    def _call_entry(self, obj: ObjRef, method_name: str):
        key = (obj.class_name, method_name)
        entry = self._call_cache.get(key, _UNSET)
        if entry is _UNSET:
            entry = self._build_call_entry(obj.class_name, method_name)
            self._call_cache[key] = entry
        if entry is None:
            raise InterpreterError(
                f"object {obj!r} has no method '{method_name}'")
        return entry

    def _frame_call(self, entry, obj: ObjRef,
                    owner_values: Tuple[Any, ...], args: Tuple[Any, ...],
                    caller_region: MemoryArea, thread: SimThread):
        (_native_code, selectors, class_formals, owner_formals,
         param_names, body_code, default_ret) = entry
        if selectors is None:
            class_owner_values = obj.owners
        else:
            owners = obj.owners
            class_owner_values = tuple(
                obj if s is _THIS else owners[s] if type(s) is int else s
                for s in selectors)
        frame = Frame(obj, dict(zip(class_formals, class_owner_values)),
                      caller_region)
        if owner_values:
            frame.owners.update(zip(owner_formals, owner_values))
        if args:
            frame.vars.update(zip(param_names, args))
        frames = thread.frames
        frames.append(frame)
        try:
            yield from body_code(frame, caller_region, thread)
        except _Return as ret:
            return ret.value
        finally:
            frames.pop()
        return default_ret

    def _native_code(self, native: str):
        """Compile a native (array) method to an ``(obj, args)``
        generator function."""
        stats = self.stats
        op = native.split(".")[1]
        if op == "get":
            cycles = self._c_field_read

            def run_get(obj, args):
                storage: ArrayStorage = obj.fields["__storage__"]
                stats.cycles += cycles
                if stats.cycles >= stats.slice_end:
                    yield
                values = storage.values
                index = args[0]
                if 0 <= index < len(values):
                    return values[index]
                raise InterpreterError(
                    f"array index {index} out of bounds "
                    f"(length {len(values)})")
            return run_get
        if op == "set":
            cycles = self._c_field_write

            def run_set(obj, args):
                storage: ArrayStorage = obj.fields["__storage__"]
                stats.cycles += cycles
                if stats.cycles >= stats.slice_end:
                    yield
                index = args[0]
                values = storage.values
                if not 0 <= index < len(values):
                    raise InterpreterError(
                        f"array index {index} out of bounds "
                        f"(length {len(values)})")
                values[index] = args[1]
                return None
            return run_set
        if op == "length":
            cycles = self._c_basic

            def run_length(obj, args):
                storage: ArrayStorage = obj.fields["__storage__"]
                stats.cycles += cycles
                if stats.cycles >= stats.slice_end:
                    yield
                return len(storage.values)
            return run_length

        def run_unknown(obj, args):
            raise InterpreterError(f"unknown native '{native}'")
            yield  # pragma: no cover
        return run_unknown

    def _array_index(self, storage: ArrayStorage, index: int) -> Any:
        if not 0 <= index < len(storage.values):
            raise InterpreterError(
                f"array index {index} out of bounds "
                f"(length {len(storage.values)})")
        return storage.values[index]

    # ------------------------------------------------------------------
    # compilation driver
    # ------------------------------------------------------------------

    def exec_block(self, block: ast.Block, frame: Frame,
                   region: MemoryArea, thread: SimThread):
        return self._compile_block(block)(frame, region, thread)

    def _compile_block(self, block: ast.Block):
        code = self._block_code.get(id(block))
        if code is None:
            try:
                codes = tuple(self._compile_stmt(s) for s in block.stmts)
                if not codes:
                    code = _empty_block
                elif len(codes) == 1:
                    code = codes[0]
                else:
                    def code(frame, region, thread, _codes=codes):
                        for stmt_code in _codes:
                            yield from stmt_code(frame, region, thread)
            except Exception as exc:  # defer to execution time
                code = _raiser(exc)
            self._block_code[id(block)] = code
            self._hold.append(block)
        return code

    def _compile_stmt(self, stmt: ast.Stmt):
        code = self._stmt_code.get(id(stmt))
        if code is None:
            builder = self._stmt_builders.get(type(stmt))
            if builder is None:
                for klass in type(stmt).__mro__:  # AST subclasses
                    builder = self._stmt_builders.get(klass)
                    if builder is not None:
                        break
            try:
                if builder is None:
                    code = self._build_unknown_stmt(stmt)
                else:
                    code = builder(stmt)
            except Exception as exc:  # defer to execution time
                code = _raiser(exc)
            self._stmt_code[id(stmt)] = code
            self._hold.append(stmt)
        return code

    def _compile_expr(self, expr: ast.Expr):
        code = self._expr_code.get(id(expr))
        if code is None:
            builder = self._expr_builders.get(type(expr))
            if builder is None:
                for klass in type(expr).__mro__:  # AST subclasses
                    builder = self._expr_builders.get(klass)
                    if builder is not None:
                        break
            try:
                if builder is None:
                    code = _raiser(InterpreterError(
                        f"unknown expression {expr!r}"))
                else:
                    code = builder(expr)
            except Exception as exc:  # defer to execution time
                code = _raiser(exc)
            self._expr_code[id(expr)] = code
            self._hold.append(expr)
        return code

    def _operand(self, expr: ast.Expr):
        """Classify an operand expression for inlining into its consumer.

        Flat operands — literals, ``this``, variable reads — are the
        leaves of almost every hot expression; evaluating each through
        its own generator costs a generator creation and a ``yield
        from`` per evaluation.  Consumers therefore inline them: the
        returned ``(kind, payload, span, code)`` tuple drives a small
        compile-time-constant branch inside the consumer's own
        generator, reproducing the leaf's exact charge sequence and
        ``temps`` bookkeeping without a nested frame.

        kind 0 = constant (payload is the value; literals charge nothing),
        kind 1 = variable reference (payload is the name; falls back to
        an implicit-this field read when the name is not a local),
        kind 2 = ``this``, kind 3 = anything else (``code`` is the
        compiled generator closure).
        """
        t = type(expr)
        if t in (ast.IntLit, ast.FloatLit, ast.BoolLit):
            return 0, expr.value, None, None
        if t is ast.NullLit:
            return 0, None, None, None
        if t is ast.VarRef:
            return 1, expr.name, expr.span, None
        if t is ast.ThisRef:
            return 2, None, None, None
        return 3, None, None, self._compile_expr(expr)

    # ------------------------------------------------------------------
    # statement builders
    # ------------------------------------------------------------------

    def _build_unknown_stmt(self, stmt: ast.Stmt):
        stats = self.stats

        def run(frame, region, thread):
            stats.steps += 1
            frame.temps.clear()
            raise InterpreterError(f"unknown statement {stmt!r}")
            yield  # pragma: no cover
        return run

    def _build_block_stmt(self, stmt: ast.Block):
        stats = self.stats
        body_code = self._compile_block(stmt)

        def run(frame, region, thread):
            stats.steps += 1
            frame.temps.clear()
            yield from body_code(frame, region, thread)
        return run

    def _build_local_decl(self, stmt: ast.LocalDecl):
        stats = self.stats
        op_local = self._c_local
        name = stmt.name
        if stmt.init is None:
            def run(frame, region, thread):
                stats.steps += 1
                frame.temps.clear()
                stats.cycles += op_local
                if stats.cycles >= stats.slice_end:
                    yield
                frame.vars[name] = None
            return run
        field_read = self._field_read
        v_kind, v_val, v_span, v_code = self._operand(stmt.init)

        def run(frame, region, thread):
            stats.steps += 1
            frame.temps.clear()
            if v_kind == 0:
                value = v_val
            elif v_kind == 1:
                value = frame.vars.get(v_val, _MISSING)
                if value is not _MISSING:
                    stats.cycles += op_local
                    if stats.cycles >= stats.slice_end:
                        yield
                else:
                    value = yield from field_read(frame.this, v_val,
                                                  thread, v_span)
                if isinstance(value, ObjRef):
                    frame.temps.append(value)
            elif v_kind == 2:
                value = frame.this
                if value is not None:
                    frame.temps.append(value)
            else:
                value = yield from v_code(frame, region, thread)
            stats.cycles += op_local
            if stats.cycles >= stats.slice_end:
                yield
            frame.vars[name] = value
        return run

    def _build_assign_local(self, stmt: ast.AssignLocal):
        stats = self.stats
        op_local = self._c_local
        name = stmt.name
        span = stmt.span
        field_read = self._field_read
        field_write = self._field_write
        v_kind, v_val, v_span, v_code = self._operand(stmt.value)

        def run(frame, region, thread):
            stats.steps += 1
            frame.temps.clear()
            if v_kind == 0:
                value = v_val
            elif v_kind == 1:
                value = frame.vars.get(v_val, _MISSING)
                if value is not _MISSING:
                    stats.cycles += op_local
                    if stats.cycles >= stats.slice_end:
                        yield
                else:
                    value = yield from field_read(frame.this, v_val,
                                                  thread, v_span)
                if isinstance(value, ObjRef):
                    frame.temps.append(value)
            elif v_kind == 2:
                value = frame.this
                if value is not None:
                    frame.temps.append(value)
            else:
                value = yield from v_code(frame, region, thread)
            if name in frame.vars:
                stats.cycles += op_local
                if stats.cycles >= stats.slice_end:
                    yield
                frame.vars[name] = value
            else:
                yield from field_write(frame.this, name, value,
                                       thread, span)
        return run

    def _build_assign_field(self, stmt: ast.AssignField):
        stats = self.stats
        fname = stmt.field_name
        span = stmt.span
        op_local = self._c_local
        field_read = self._field_read
        field_write = self._field_write
        portal_write = self._portal_write
        target = stmt.target
        v_kind, v_val, v_span, v_code = self._operand(stmt.value)
        if isinstance(target, ast.VarRef) \
                and target.name in self.info.classes:
            # possibly a static field write — decided at runtime, since
            # a local can shadow the class name
            cls_name = target.name
            static_write = self._static_write

            def run(frame, region, thread):
                stats.steps += 1
                frame.temps.clear()
                if v_kind == 0:
                    value = v_val
                elif v_kind == 1:
                    value = frame.vars.get(v_val, _MISSING)
                    if value is not _MISSING:
                        stats.cycles += op_local
                        if stats.cycles >= stats.slice_end:
                            yield
                    else:
                        value = yield from field_read(frame.this, v_val,
                                                      thread, v_span)
                    if isinstance(value, ObjRef):
                        frame.temps.append(value)
                elif v_kind == 2:
                    value = frame.this
                    if value is not None:
                        frame.temps.append(value)
                else:
                    value = yield from v_code(frame, region, thread)
                if cls_name not in frame.vars:
                    yield from static_write(cls_name, fname, value,
                                            thread, span)
                    return
                recv = frame.vars[cls_name]
                stats.cycles += op_local
                if stats.cycles >= stats.slice_end:
                    yield
                if isinstance(recv, ObjRef):
                    frame.temps.append(recv)
                if isinstance(recv, RegionHandle):
                    yield from portal_write(recv.area, fname, value,
                                            thread, span)
                else:
                    yield from field_write(recv, fname, value,
                                           thread, span)
            return run

        t_kind, t_val, t_span, t_code = self._operand(target)

        def run(frame, region, thread):
            stats.steps += 1
            frame.temps.clear()
            if v_kind == 0:
                value = v_val
            elif v_kind == 1:
                value = frame.vars.get(v_val, _MISSING)
                if value is not _MISSING:
                    stats.cycles += op_local
                    if stats.cycles >= stats.slice_end:
                        yield
                else:
                    value = yield from field_read(frame.this, v_val,
                                                  thread, v_span)
                if isinstance(value, ObjRef):
                    frame.temps.append(value)
            elif v_kind == 2:
                value = frame.this
                if value is not None:
                    frame.temps.append(value)
            else:
                value = yield from v_code(frame, region, thread)
            if t_kind == 1:
                recv = frame.vars.get(t_val, _MISSING)
                if recv is not _MISSING:
                    stats.cycles += op_local
                    if stats.cycles >= stats.slice_end:
                        yield
                else:
                    recv = yield from field_read(frame.this, t_val,
                                                 thread, t_span)
                if isinstance(recv, ObjRef):
                    frame.temps.append(recv)
            elif t_kind == 2:
                recv = frame.this
                if recv is not None:
                    frame.temps.append(recv)
            elif t_kind == 0:
                recv = t_val
            else:
                recv = yield from t_code(frame, region, thread)
            if isinstance(recv, RegionHandle):
                yield from portal_write(recv.area, fname, value,
                                        thread, span)
            else:
                yield from field_write(recv, fname, value, thread, span)
        return run

    def _build_expr_stmt(self, stmt: ast.ExprStmt):
        expr = stmt.expr
        # calls are by far the most common expression statements; fuse
        # the statement preamble into the call closure so the statement
        # does not cost an extra generator frame per execution
        if type(expr) is ast.Invoke:
            return self._make_invoke(expr, preamble=True)
        if type(expr) is ast.BuiltinCall:
            return self._make_builtin(expr, preamble=True)
        stats = self.stats
        expr_code = self._compile_expr(expr)

        def run(frame, region, thread):
            stats.steps += 1
            frame.temps.clear()
            yield from expr_code(frame, region, thread)
        return run

    def _flat_cond(self, expr: ast.Expr):
        """A condition that can be evaluated without a nested generator:
        a non-short-circuit binary over flat operands.  Returns
        ``(fn, left_operand, right_operand)`` or None."""
        if type(expr) is not ast.Binary:
            return None
        fn = _BIN_OPS.get(expr.op)
        if fn is None:
            return None
        left = self._operand(expr.left)
        right = self._operand(expr.right)
        if left[0] == 3 or right[0] == 3:
            return None
        return fn, left, right

    def _build_if(self, stmt: ast.If):
        stats = self.stats
        op_branch = self.cost.op_branch
        then_code = self._compile_block(stmt.then_body)
        else_code = (self._compile_block(stmt.else_body)
                     if stmt.else_body is not None else None)
        flat = self._flat_cond(stmt.cond)
        if flat is not None:
            fn, left_op, right_op = flat
            l_kind, l_val, l_span, _l = left_op
            r_kind, r_val, r_span, _r = right_op
            op_local = self._c_local
            op_basic = self._c_basic
            field_read = self._field_read

            def run(frame, region, thread):
                stats.steps += 1
                frame.temps.clear()
                if l_kind == 0:
                    left = l_val
                elif l_kind == 1:
                    left = frame.vars.get(l_val, _MISSING)
                    if left is not _MISSING:
                        stats.cycles += op_local
                        if stats.cycles >= stats.slice_end:
                            yield
                    else:
                        left = yield from field_read(frame.this, l_val,
                                                     thread, l_span)
                    if isinstance(left, ObjRef):
                        frame.temps.append(left)
                else:
                    left = frame.this
                    if left is not None:
                        frame.temps.append(left)
                if r_kind == 0:
                    right = r_val
                elif r_kind == 1:
                    right = frame.vars.get(r_val, _MISSING)
                    if right is not _MISSING:
                        stats.cycles += op_local
                        if stats.cycles >= stats.slice_end:
                            yield
                    else:
                        right = yield from field_read(frame.this, r_val,
                                                      thread, r_span)
                    if isinstance(right, ObjRef):
                        frame.temps.append(right)
                else:
                    right = frame.this
                    if right is not None:
                        frame.temps.append(right)
                stats.cycles += op_basic
                if stats.cycles >= stats.slice_end:
                    yield
                cond = fn(left, right)
                stats.cycles += op_branch
                if stats.cycles >= stats.slice_end:
                    yield
                if cond:
                    yield from then_code(frame, region, thread)
                elif else_code is not None:
                    yield from else_code(frame, region, thread)
            return run

        cond_code = self._compile_expr(stmt.cond)

        def run(frame, region, thread):
            stats.steps += 1
            frame.temps.clear()
            cond = yield from cond_code(frame, region, thread)
            stats.cycles += op_branch
            if stats.cycles >= stats.slice_end:
                yield
            if cond:
                yield from then_code(frame, region, thread)
            elif else_code is not None:
                yield from else_code(frame, region, thread)
        return run

    def _build_while(self, stmt: ast.While):
        stats = self.stats
        op_branch = self.cost.op_branch
        body_code = self._compile_block(stmt.body)
        flat = self._flat_cond(stmt.cond)
        if flat is not None:
            fn, left_op, right_op = flat
            l_kind, l_val, l_span, _l = left_op
            r_kind, r_val, r_span, _r = right_op
            op_local = self._c_local
            op_basic = self._c_basic
            field_read = self._field_read

            def run(frame, region, thread):
                stats.steps += 1
                frame.temps.clear()
                while True:
                    if l_kind == 0:
                        left = l_val
                    elif l_kind == 1:
                        left = frame.vars.get(l_val, _MISSING)
                        if left is not _MISSING:
                            stats.cycles += op_local
                            if stats.cycles >= stats.slice_end:
                                yield
                        else:
                            left = yield from field_read(
                                frame.this, l_val, thread, l_span)
                        if isinstance(left, ObjRef):
                            frame.temps.append(left)
                    else:
                        left = frame.this
                        if left is not None:
                            frame.temps.append(left)
                    if r_kind == 0:
                        right = r_val
                    elif r_kind == 1:
                        right = frame.vars.get(r_val, _MISSING)
                        if right is not _MISSING:
                            stats.cycles += op_local
                            if stats.cycles >= stats.slice_end:
                                yield
                        else:
                            right = yield from field_read(
                                frame.this, r_val, thread, r_span)
                        if isinstance(right, ObjRef):
                            frame.temps.append(right)
                    else:
                        right = frame.this
                        if right is not None:
                            frame.temps.append(right)
                    stats.cycles += op_basic
                    if stats.cycles >= stats.slice_end:
                        yield
                    cond = fn(left, right)
                    stats.cycles += op_branch
                    if stats.cycles >= stats.slice_end:
                        yield
                    if not cond:
                        break
                    yield from body_code(frame, region, thread)
            return run

        cond_code = self._compile_expr(stmt.cond)

        def run(frame, region, thread):
            stats.steps += 1
            frame.temps.clear()
            while True:
                cond = yield from cond_code(frame, region, thread)
                stats.cycles += op_branch
                if stats.cycles >= stats.slice_end:
                    yield
                if not cond:
                    break
                yield from body_code(frame, region, thread)
        return run

    def _build_return(self, stmt: ast.Return):
        stats = self.stats
        op_return = self.cost.op_return
        op_local = self._c_local
        field_read = self._field_read
        v_kind, v_val, v_span, v_code = (
            self._operand(stmt.value) if stmt.value is not None
            else (0, None, None, None))

        def run(frame, region, thread):
            stats.steps += 1
            frame.temps.clear()
            if v_kind == 0:
                value = v_val
            elif v_kind == 1:
                value = frame.vars.get(v_val, _MISSING)
                if value is not _MISSING:
                    stats.cycles += op_local
                    if stats.cycles >= stats.slice_end:
                        yield
                else:
                    value = yield from field_read(frame.this, v_val,
                                                  thread, v_span)
                if isinstance(value, ObjRef):
                    frame.temps.append(value)
            elif v_kind == 2:
                value = frame.this
                if value is not None:
                    frame.temps.append(value)
            else:
                value = yield from v_code(frame, region, thread)
            stats.cycles += op_return
            if stats.cycles >= stats.slice_end:
                yield
            raise _Return(value)
        return run

    def _build_fork(self, stmt: ast.Fork):
        stats = self.stats

        def run(frame, region, thread):
            stats.steps += 1
            frame.temps.clear()
            yield from self._exec_fork(stmt, frame, region, thread)
        return run

    def _build_region_stmt(self, stmt: ast.RegionStmt):
        # fully fused: the region logic runs in the statement's own
        # generator frame, which sits in the resume chain for the whole
        # lifetime of the region body
        stats = self.stats
        rt_guard = self.checks.active
        kind_name = stmt.kind.name if stmt.kind is not None \
            else "LocalRegion"
        policy = LT if (stmt.policy is not None
                        and stmt.policy.kind == "LT") else VT
        budget = stmt.policy.size if stmt.policy is not None else 0
        shared = kind_name in self.info.region_kinds \
            or kind_name == "SharedRegion"
        body_code = self._compile_block(stmt.body)
        region_name = stmt.region_name
        handle_name = stmt.handle_name
        create_area = self._create_area
        region_exit = self.cost.region_exit
        charge_direct = self.machine.charge_direct
        rec = self._recorder
        injector = self._injector
        enter_guard = self._region_enter_guard
        sanitizer = self._sanitizer

        def run(frame, region, thread):
            stats.steps += 1
            frame.temps.clear()
            if thread.realtime and rt_guard:
                raise RealtimeViolationError(
                    "real-time thread attempted to create a region "
                    f"'{region_name}'")
            if injector is not None:
                # consulted before any side effect: a denied enter
                # leaves no half-created area behind
                yield from enter_guard(region_name, thread)
            ancestors = set(region.ancestor_ids) | {region.area_id}
            for entered in thread.shared_stack:
                ancestors |= entered.ancestor_ids | {entered.area_id}
            area, cycles = create_area(region_name, kind_name, policy,
                                       budget, ancestors, None, False,
                                       thread)
            stats.region_cycles += cycles
            stats.cycles += cycles
            if stats.cycles >= stats.slice_end:
                yield
            saved_owner = frame.owners.get(region_name)
            saved_var = frame.vars.get(handle_name)
            frame.owners[region_name] = area
            frame.vars[handle_name] = RegionHandle(area)
            if shared:
                area.thread_count = 1
                thread.shared_stack.append(area)
            if rec is not None:
                rec.push("region-enter", area.name, cycle=stats.cycles,
                         thread=thread.name, attrs={"scoped": True})
            try:
                yield from body_code(frame, area, thread)
            finally:
                # charged directly: a finally must not suspend (that
                # would break generator close semantics)
                charge_direct(thread, region_exit)
                stats.region_cycles += region_exit
                if rec is not None:
                    rec.pop("region-exit", area.name, cycle=stats.cycles,
                            thread=thread.name)
                if shared:
                    thread.shared_stack.remove(area)
                    stats.objects_freed += release_shared(
                        area, thread.name)
                else:
                    stats.objects_freed += area.destroy(thread.name)
                _restore(frame.owners, region_name, saved_owner)
                _restore(frame.vars, handle_name, saved_var)
                if sanitizer is not None:
                    sanitizer.on_region_exit(area)
        return run

    def _build_subregion_stmt(self, stmt: ast.SubregionStmt):
        stats = self.stats
        op_local = self._c_local
        field_read = self._field_read
        rt_guard = self.checks.active
        region_enter = self.cost.region_enter
        region_exit = self.cost.region_exit
        create_area = self._create_area
        charge_direct = self.machine.charge_direct
        rec = self._recorder
        injector = self._injector
        enter_guard = self._region_enter_guard
        sanitizer = self._sanitizer
        body_code = self._compile_block(stmt.body)
        sub_name = stmt.subregion_name
        region_name = stmt.region_name
        handle_name = stmt.handle_name
        fresh = stmt.fresh
        h_kind, h_val, h_span, h_code = self._operand(stmt.parent_handle)

        def run(frame, region, thread):
            stats.steps += 1
            frame.temps.clear()
            if h_kind == 1:
                handle = frame.vars.get(h_val, _MISSING)
                if handle is not _MISSING:
                    stats.cycles += op_local
                    if stats.cycles >= stats.slice_end:
                        yield
                else:
                    handle = yield from field_read(frame.this, h_val,
                                                   thread, h_span)
                if isinstance(handle, ObjRef):
                    frame.temps.append(handle)
            elif h_kind == 2:
                handle = frame.this
                if handle is not None:
                    frame.temps.append(handle)
            elif h_kind == 0:
                handle = h_val
            else:
                handle = yield from h_code(frame, region, thread)
            if not isinstance(handle, RegionHandle):
                raise InterpreterError(
                    "subregion entry requires a handle")
            parent = handle.area
            meta = parent.subregion_meta
            sub = meta.get(sub_name)
            if sub is None:
                raise InterpreterError(
                    f"region '{parent.name}' has no subregion "
                    f"'{sub_name}'")
            slot = parent.subregions.get(sub_name)
            if fresh or slot is None or not slot.live:
                if thread.realtime and rt_guard:
                    raise RealtimeViolationError(
                        "real-time thread attempted to create "
                        f"subregion '{sub_name}'")
                policy = LT if sub.policy.kind == "LT" else VT
                if slot is not None and slot.live and fresh:
                    slot.destroy(thread.name)
                slot, cycles = create_area(
                    f"{parent.name}.{sub_name}", sub.kind.name,
                    policy, sub.policy.size, set(), parent,
                    sub.realtime, thread)
                parent.subregions[sub_name] = slot
                stats.region_cycles += cycles
                stats.cycles += cycles
                if stats.cycles >= stats.slice_end:
                    yield
            if rt_guard:
                if thread.realtime and not slot.realtime_only:
                    raise RealtimeViolationError(
                        "real-time thread entered NoRT subregion "
                        f"'{slot.name}'")
                if not thread.realtime and slot.realtime_only:
                    raise RealtimeViolationError(
                        "regular thread entered RT subregion "
                        f"'{slot.name}'")
            if injector is not None:
                # the persistent subregion slot stays valid on denial;
                # only this thread's entry is refused
                yield from enter_guard(slot.name, thread)
            stats.cycles += region_enter
            if stats.cycles >= stats.slice_end:
                yield
            stats.region_cycles += region_enter
            stats.region_enters += 1
            slot.thread_count += 1
            thread.shared_stack.append(slot)
            if rec is not None:
                rec.push("region-enter", slot.name, cycle=stats.cycles,
                         thread=thread.name, attrs={"scoped": False})
            saved_owner = frame.owners.get(region_name)
            saved_var = frame.vars.get(handle_name)
            frame.owners[region_name] = slot
            frame.vars[handle_name] = RegionHandle(slot)
            try:
                yield from body_code(frame, slot, thread)
            finally:
                charge_direct(thread, region_exit)
                stats.region_cycles += region_exit
                if rec is not None:
                    rec.pop("region-exit", slot.name, cycle=stats.cycles,
                            thread=thread.name)
                thread.shared_stack.remove(slot)
                before = slot.generation
                stats.objects_freed += release_shared(slot, thread.name)
                flushed = slot.generation != before
                if flushed:
                    stats.region_flushes += 1
                _restore(frame.owners, region_name, saved_owner)
                _restore(frame.vars, handle_name, saved_var)
                if sanitizer is not None:
                    if flushed:
                        sanitizer.on_flush(slot)
                    sanitizer.on_region_exit(slot)
        return run

    # -- field access -------------------------------------------------------

    def _static_target(self, target: ast.Expr,
                       frame: Frame) -> Optional[str]:
        if (isinstance(target, ast.VarRef)
                and target.name not in frame.vars
                and target.name in self.info.classes):
            return target.name
        return None

    def _field_write_checked(self, recv: Any, field_name: str, value: Any,
                             thread: SimThread, span):
        stats = self.stats
        obj = self._require_object(recv, span,
                                   f"field write '{field_name}'")
        fields = obj.fields
        if field_name not in fields:
            raise InterpreterError(
                f"{obj!r} has no field '{field_name}'")
        old = fields[field_name]
        line = span.start.line
        cycles = self._c_field_write
        checks = self.checks
        value_is_ref = isinstance(value, ObjRef)
        if value_is_ref:
            cycles += checks.assignment_cost(obj.area, value,
                                             line, thread.name)
        if value_is_ref or isinstance(old, ObjRef):
            cycles += checks.read_cost(thread.realtime, value, old,
                                       line, thread.name)
        stats.cycles += cycles
        if stats.cycles >= stats.slice_end:
            yield
        fields[field_name] = value

    def _field_write_unchecked(self, recv: Any, field_name: str,
                               value: Any, thread: SimThread, span):
        stats = self.stats
        if recv is None:
            raise SimulatedNullPointerError(
                f"field write '{field_name}' on null at {span}")
        fields = recv.fields
        if field_name not in fields:
            raise InterpreterError(
                f"{recv!r} has no field '{field_name}'")
        stats.cycles += self._c_field_write
        if stats.cycles >= stats.slice_end:
            yield
        fields[field_name] = value

    def _field_read_checked(self, recv: Any, field_name: str,
                            thread: SimThread, span):
        stats = self.stats
        obj = self._require_object(recv, span,
                                   f"field read '{field_name}'")
        fields = obj.fields
        if field_name not in fields:
            raise InterpreterError(f"{obj!r} has no field '{field_name}'")
        value = fields[field_name]
        cycles = self._c_field_read
        if isinstance(value, ObjRef):
            cycles += self.checks.read_cost(thread.realtime, value,
                                            line=span.start.line,
                                            thread=thread.name)
        stats.cycles += cycles
        if stats.cycles >= stats.slice_end:
            yield
        return value

    def _field_read_unchecked(self, recv: Any, field_name: str,
                              thread: SimThread, span):
        stats = self.stats
        if recv is None:
            raise SimulatedNullPointerError(
                f"field read '{field_name}' on null at {span}")
        fields = recv.fields
        if field_name not in fields:
            raise InterpreterError(
                f"{recv!r} has no field '{field_name}'")
        stats.cycles += self._c_field_read
        if stats.cycles >= stats.slice_end:
            yield
        return fields[field_name]

    def _static_write_checked(self, class_name: str, field_name: str,
                              value: Any, thread: SimThread, span):
        stats = self.stats
        key = (class_name, field_name)
        statics = self.machine.statics
        old = statics.get(key)
        line = span.start.line
        cycles = self._c_field_write
        checks = self.checks
        value_is_ref = isinstance(value, ObjRef)
        if value_is_ref:
            # statics conceptually live in immortal memory
            cycles += checks.assignment_cost(self._immortal, value,
                                             line, thread.name)
        if value_is_ref or isinstance(old, ObjRef):
            cycles += checks.read_cost(thread.realtime, value, old,
                                       line, thread.name)
        stats.cycles += cycles
        if stats.cycles >= stats.slice_end:
            yield
        statics[key] = value

    def _static_write_unchecked(self, class_name: str, field_name: str,
                                value: Any, thread: SimThread, span):
        stats = self.stats
        stats.cycles += self._c_field_write
        if stats.cycles >= stats.slice_end:
            yield
        self.machine.statics[(class_name, field_name)] = value

    def _static_read_checked(self, class_name: str, field_name: str,
                             thread: SimThread, span):
        stats = self.stats
        value = self.machine.statics.get((class_name, field_name))
        cycles = self._c_field_read
        if isinstance(value, ObjRef):
            cycles += self.checks.read_cost(thread.realtime, value,
                                            line=span.start.line,
                                            thread=thread.name)
        stats.cycles += cycles
        if stats.cycles >= stats.slice_end:
            yield
        return value

    def _static_read_unchecked(self, class_name: str, field_name: str,
                               thread: SimThread, span):
        stats = self.stats
        stats.cycles += self._c_field_read
        if stats.cycles >= stats.slice_end:
            yield
        return self.machine.statics.get((class_name, field_name))

    def _portal_write_checked(self, area: MemoryArea, field_name: str,
                              value: Any, thread: SimThread, span):
        stats = self.stats
        portals = area.portals
        if field_name not in portals:
            raise InterpreterError(
                f"region '{area.name}' has no portal '{field_name}'")
        old = portals[field_name]
        line = span.start.line
        cycles = self._c_portal_write
        checks = self.checks
        value_is_ref = isinstance(value, ObjRef)
        if value_is_ref:
            cycles += checks.assignment_cost(area, value, line,
                                             thread.name)
        if value_is_ref or isinstance(old, ObjRef):
            cycles += checks.read_cost(thread.realtime, value, old,
                                       line, thread.name)
        stats.cycles += cycles
        if stats.cycles >= stats.slice_end:
            yield
        portals[field_name] = value

    def _portal_write_unchecked(self, area: MemoryArea, field_name: str,
                                value: Any, thread: SimThread, span):
        stats = self.stats
        portals = area.portals
        if field_name not in portals:
            raise InterpreterError(
                f"region '{area.name}' has no portal '{field_name}'")
        stats.cycles += self._c_portal_write
        if stats.cycles >= stats.slice_end:
            yield
        portals[field_name] = value

    def _portal_read_checked(self, area: MemoryArea, field_name: str,
                             thread: SimThread, span):
        stats = self.stats
        portals = area.portals
        if field_name not in portals:
            raise InterpreterError(
                f"region '{area.name}' has no portal '{field_name}'")
        value = portals[field_name]
        cycles = self._c_portal_read
        if isinstance(value, ObjRef):
            cycles += self.checks.read_cost(thread.realtime, value,
                                            line=span.start.line,
                                            thread=thread.name)
        stats.cycles += cycles
        if stats.cycles >= stats.slice_end:
            yield
        return value

    def _portal_read_unchecked(self, area: MemoryArea, field_name: str,
                               thread: SimThread, span):
        stats = self.stats
        portals = area.portals
        if field_name not in portals:
            raise InterpreterError(
                f"region '{area.name}' has no portal '{field_name}'")
        stats.cycles += self._c_portal_read
        if stats.cycles >= stats.slice_end:
            yield
        return portals[field_name]

    # -- regions ----------------------------------------------------------

    def _kind_meta(self, kind_name: str):
        """Portal default template + subregion declarations for a region
        kind (computed once per kind; the declarations are static)."""
        cached = self._kind_cache.get(kind_name)
        if cached is not None:
            return cached
        rk = self.info.region_kinds.get(kind_name)
        if rk is None:
            portals: Dict[str, Any] = {}
            meta: Dict[str, Any] = {}
        else:
            from ..core.types import BOOLEAN, FLOAT, INT
            zero = {INT: 0, FLOAT: 0.0, BOOLEAN: False}
            kind = Kind(kind_name,
                        tuple(Owner(fn) for fn in rk.formal_names))
            portals = {name: zero.get(portal.type)
                       for name, portal
                       in self.info.all_portals(kind).items()}
            meta = dict(self.info.all_subregions(kind).items())
        self._kind_cache[kind_name] = (portals, meta)
        return portals, meta

    def _subregion_meta(self, kind_name: str):
        return self._kind_meta(kind_name)[1]

    def _portal_defaults(self, kind_name: str):
        """Portal slots with Java zero-initialization by declared type."""
        return self._kind_meta(kind_name)[0]

    def _create_area(self, name: str, kind_name: str, policy: str,
                     budget: int, ancestors, parent, realtime_only: bool,
                     thread: SimThread):
        """Create one area (plus, eagerly, its transitive LT subregions,
        as Section 2.3 requires) and return (area, cycle cost)."""
        area = self.machine.regions.create(name, kind_name, policy, budget,
                                           ancestors, parent,
                                           realtime_only)
        stats = self.stats
        stats.regions_created += 1
        rec = self._recorder
        if rec is not None:
            rec.record("region-created", name, cycle=stats.cycles,
                       thread=thread.name,
                       attrs={"region": name, "policy": policy,
                              "kind": kind_name, "lt_budget": budget})
        cycles = self.cost.region_create
        if policy == LT:
            cycles += self.cost.lt_prealloc_per_byte * budget
        portal_defaults, meta = self._kind_meta(kind_name)
        area.portals = dict(portal_defaults)
        area.subregions = {sub_name: None for sub_name in meta}
        area.subregion_meta = meta
        for sub_name, sub in meta.items():
            if sub.policy.kind == "LT":
                child, child_cycles = self._create_area(
                    f"{name}.{sub_name}", sub.kind.name, LT,
                    sub.policy.size, set(), area, sub.realtime, thread)
                area.subregions[sub_name] = child
                cycles += child_cycles
        return area, cycles

    # -- fault recovery -----------------------------------------------------
    #
    # These generators exist only on chaos runs (the compiled closures
    # call them solely when an injector is bound).  Backoff is charged
    # to the simulated clock like any operation, so recovery has an
    # honest cost in the Figure-12 currency and is preemptible.

    def _backoff(self, attempt: int, thread_name: str = "main"):
        """Charge the exponential backoff before retry ``attempt``."""
        stats = self.stats
        backoff = self._recovery.backoff_cycles(attempt)
        stats.recovery_retries += 1
        stats.recovery_backoff_cycles += backoff
        rec = self._recorder
        if rec is not None:
            rec.record("recovery", f"retry {attempt}",
                       cycle=stats.cycles, thread=thread_name,
                       attrs={"backoff": backoff, "attempt": attempt})
        stats.cycles += backoff
        if stats.cycles >= stats.slice_end:
            yield

    def _alloc_with_recovery(self, target: MemoryArea, obj,
                             thread: SimThread):
        """``target.allocate(obj)`` under the recovery policy: injected
        denials are retried with backoff; an exhausted VT denial spills
        the object to the closest longer-lived area (parent chain, then
        immortal/heap) so the allocation still succeeds with every
        previously-checked reference remaining safe (the spill target
        outlives the denied region).  Exhausted LT denials propagate —
        the LT watchdog (scheduler degrade mode) turns them into a
        thread abort rather than a wedged run.

        Returns ``(fresh_chunks, area)`` where ``area`` is where the
        object actually landed."""
        policy = self._recovery
        stats = self.stats
        attempt = 0
        while True:
            try:
                fresh = target.allocate(obj)
                if attempt:
                    stats.faults_recovered += 1
                return fresh, target
            except ReproError as err:
                if not err.injected:
                    raise
                if attempt < policy.max_retries:
                    yield from self._backoff(attempt, thread.name)
                    attempt += 1
                    continue
                if err.site != "vt_chunk" or not policy.vt_spill:
                    raise
                spill = target.parent
                while spill is not None and not spill.live:
                    spill = spill.parent
                if spill is None or not spill.outlives(target):
                    spill = self._immortal if thread.realtime \
                        else self._heap
                # rebind the object to its landing area; the weaker
                # placement is marked so the sanitizer checks outlives
                # instead of O2 co-location
                obj.area = spill
                obj.generation = spill.generation
                obj.spilled = True
                fresh = spill.allocate(obj)
                stats.vt_spills += 1
                stats.faults_recovered += 1
                rec = self._recorder
                if rec is not None:
                    rec.record(
                        "vt-spill", f"{obj.class_name} -> {spill.name}",
                        cycle=stats.cycles, thread=thread.name,
                        attrs={"denied": target.name,
                               "spill": spill.name,
                               "bytes": obj.size_bytes})
                return fresh, spill

    def _region_enter_guard(self, area_name: str, thread: SimThread):
        """Injected region-enter denials, retried under the policy."""
        policy = self._recovery
        injector = self._injector
        attempt = 0
        while injector.fire("region_enter", area_name):
            err = RegionEnterError(
                f"injected fault: enter of region '{area_name}' denied")
            err.injected = True
            err.thread = thread.name
            if attempt >= policy.max_retries:
                raise err
            yield from self._backoff(attempt, thread.name)
            attempt += 1
        if attempt:
            self.stats.faults_recovered += 1

    def _wrap_portal_faults(self, inner):
        """Bind the portal-write fault guard in front of the selected
        (checked/unchecked) portal-write helper."""
        guard = self.checks.portal_write_guard
        policy = self._recovery
        backoff = self._backoff
        stats = self.stats

        def wrapped(area, field_name, value, thread, span):
            attempt = 0
            while True:
                try:
                    guard(area, thread.name)
                    if attempt:
                        stats.faults_recovered += 1
                    break
                except ReproError as err:
                    if not err.injected or attempt >= policy.max_retries:
                        raise
                    yield from backoff(attempt, thread.name)
                    attempt += 1
            return (yield from inner(area, field_name, value, thread,
                                     span))
        return wrapped

    def _wrap_portal_record(self, inner, kind: str):
        """Bind flight recording around a (checked/unchecked, possibly
        fault-guarded) portal helper.  The record lands after the inner
        helper succeeds, so denied/retried stores are not counted as
        traffic."""
        rec = self._recorder
        stats = self.stats

        def wrapped(area, field_name, *rest):
            result = yield from inner(area, field_name, *rest)
            # both portal helpers end with (thread, span)
            thread = rest[-2]
            rec.record(kind, f"{area.name}.{field_name}",
                       cycle=stats.cycles, thread=thread.name,
                       attrs={"region": area.name, "field": field_name})
            return result
        return wrapped

    def _spawn_with_retry(self, child: SimThread, thread: SimThread):
        """Injected spawn denials, retried; on exhaustion the inherited
        shared-region counts are rolled back so the never-started child
        leaves no trace in the region state."""
        policy = self._recovery
        stats = self.stats
        scheduler = self.machine.scheduler
        attempt = 0
        while True:
            try:
                scheduler.spawn(child)
                if attempt:
                    stats.faults_recovered += 1
                return
            except ThreadSpawnError as err:
                if not err.injected or attempt >= policy.max_retries:
                    for area in child.shared_stack:
                        area.thread_count -= 1
                    child.shared_stack.clear()
                    child.coroutine.close()
                    raise
                yield from self._backoff(attempt, thread.name)
                attempt += 1

    # -- fork ---------------------------------------------------------------

    def _exec_fork(self, stmt: ast.Fork, frame: Frame, region: MemoryArea,
                   thread: SimThread):
        call = stmt.call
        stats = self.stats
        compile_expr = self._compile_expr
        receiver = yield from compile_expr(call.target)(frame, region,
                                                        thread)
        obj = self._require_object(receiver, stmt.span, "fork")
        owner_values = tuple(self.owner_value(o.name, frame)
                             for o in call.owner_args)
        args = []
        for arg in call.args:
            value = yield from compile_expr(arg)(frame, region, thread)
            args.append(value)
        if stmt.realtime and self.checks.active:
            for value in [obj] + args:
                if isinstance(value, ObjRef) and value.area.is_heap:
                    raise MemoryAccessError(
                        "RT fork passed a heap reference "
                        f"{value!r} to a no-heap real-time thread")
        thread_spawn = self.cost.thread_spawn
        stats.cycles += thread_spawn
        if stats.cycles >= stats.slice_end:
            yield
        stats.thread_cycles += thread_spawn
        name = f"{'rt-' if stmt.realtime else ''}thread-" \
               f"{len(self.machine.scheduler.threads)}"
        child = SimThread(name=name, coroutine=iter(()),
                          realtime=stmt.realtime)
        child.coroutine = self.thread_coroutine(
            child, obj, call.method_name, owner_values, tuple(args),
            region)
        # the child inherits the parent's shared regions (Section 2.2)
        for area in thread.shared_stack:
            area.thread_count += 1
            child.shared_stack.append(area)
        rec = self._recorder
        if rec is not None:
            # the spawn event becomes the child's causal root
            eid = rec.record("thread-spawned", name,
                             cycle=stats.cycles, thread=thread.name,
                             attrs={"child": name,
                                    "realtime": stmt.realtime,
                                    "method": call.method_name})
            rec.seed(name, eid)
        if self._injector is None:
            self.machine.scheduler.spawn(child)
        else:
            yield from self._spawn_with_retry(child, thread)

    # ------------------------------------------------------------------
    # expression builders
    # ------------------------------------------------------------------

    def _build_literal(self, expr):
        value = expr.value

        def run(frame, region, thread):
            return value
            yield  # pragma: no cover
        return run

    def _build_null(self, expr: ast.NullLit):
        return _run_null

    def _build_this(self, expr: ast.ThisRef):
        return _run_this

    def _build_var_ref(self, expr: ast.VarRef):
        stats = self.stats
        name = expr.name
        span = expr.span
        op_local = self._c_local
        field_read = self._field_read

        def run(frame, region, thread):
            value = frame.vars.get(name, _MISSING)
            if value is not _MISSING:
                stats.cycles += op_local
                if stats.cycles >= stats.slice_end:
                    yield
            else:
                value = yield from field_read(frame.this, name, thread,
                                              span)
            if isinstance(value, ObjRef):
                frame.temps.append(value)
            return value
        return run

    def _build_new(self, expr: ast.NewExpr):
        stats = self.stats
        rt_guard = self.checks.active
        cost = self.cost
        alloc_base = cost.alloc_base
        alloc_per_byte = cost.alloc_per_byte
        vt_alloc_extra = cost.vt_alloc_extra
        vt_chunk_cost = cost.vt_chunk_cost
        heap_alloc_extra = cost.heap_alloc_extra
        profile = stats.profile
        do_profile = not profile.null
        rec = self._recorder
        class_name = expr.class_name
        line = expr.span.start.line
        injector = self._injector
        alloc_recover = self._alloc_with_recovery
        resolvers = tuple(self._owner_resolver(o.name)
                          for o in expr.owners)
        is_array = class_name in ("IntArray", "FloatArray")
        if is_array:
            length_code = self._compile_expr(expr.args[0])
            field_names = inits = ()
        else:
            layout = self._layout(class_name)
            field_names = tuple(name for name, _ in layout)
            inits = tuple((name, init) for name, init in layout
                          if init is not None)
            length_code = None

        def run(frame, region, thread):
            owner_values = tuple(r(frame) for r in resolvers)
            target = region_of_owner(owner_values[0])
            if rt_guard and thread.realtime:
                if target.is_heap:
                    raise MemoryAccessError(
                        "no-heap real-time thread allocated in the heap")
                if target.policy == VT:
                    raise RealtimeViolationError(
                        "real-time thread allocated in a VT region "
                        f"'{target.name}'")
            if length_code is not None:
                length = yield from length_code(frame, region, thread)
                if length < 0:
                    raise InterpreterError(
                        f"negative array length {length}")
                obj = make_array(class_name, owner_values, target, length)
            else:
                obj = ObjRef(class_name, owner_values, field_names,
                             target)
                if inits:
                    fields = obj.fields
                    for fname, init in inits:
                        fields[fname] = init
            if injector is None:
                fresh_chunks = target.allocate(obj)
            else:
                fresh_chunks, target = yield from alloc_recover(
                    target, obj, thread)
            size = obj.size_bytes
            cycles = alloc_base + alloc_per_byte * size
            if target.policy == VT:
                cycles += vt_alloc_extra + vt_chunk_cost * fresh_chunks
            if target.is_heap:
                cycles += heap_alloc_extra
                if target.bytes_used > stats.peak_heap_bytes:
                    stats.peak_heap_bytes = target.bytes_used
            stats.allocations += 1
            stats.bytes_allocated += size
            stats.alloc_cycles += cycles
            if do_profile:
                profile.record_alloc(line, target.name, size)
            if rec is not None:
                owner0 = owner_values[0]
                owner_label = owner0.name if isinstance(
                    owner0, MemoryArea) else repr(owner0)
                rec.record("alloc", f"{class_name} -> {target.name}",
                           cycle=stats.cycles, thread=thread.name,
                           attrs={"bytes": size, "region": target.name,
                                  "policy": target.policy,
                                  "owner": owner_label, "line": line})
            # pin before charging the allocation cost: a GC at this very
            # preemption point must see the newborn object
            frame.temps.append(obj)
            stats.cycles += cycles
            if stats.cycles >= stats.slice_end:
                yield
            return obj
        return run

    def _build_field_read(self, expr: ast.FieldRead):
        stats = self.stats
        fname = expr.field_name
        span = expr.span
        op_local = self._c_local
        field_read = self._field_read
        portal_read = self._portal_read
        target = expr.target
        if isinstance(target, ast.VarRef) \
                and target.name in self.info.classes:
            cls_name = target.name
            static_read = self._static_read

            def run(frame, region, thread):
                if cls_name not in frame.vars:
                    value = yield from static_read(cls_name, fname,
                                                   thread, span)
                else:
                    recv = frame.vars[cls_name]
                    stats.cycles += op_local
                    if stats.cycles >= stats.slice_end:
                        yield
                    if isinstance(recv, ObjRef):
                        frame.temps.append(recv)
                    if isinstance(recv, RegionHandle):
                        value = yield from portal_read(recv.area, fname,
                                                       thread, span)
                    else:
                        value = yield from field_read(recv, fname,
                                                      thread, span)
                if isinstance(value, ObjRef):
                    frame.temps.append(value)
                return value
            return run

        t_kind, t_val, t_span, t_code = self._operand(target)

        def run(frame, region, thread):
            if t_kind == 1:
                recv = frame.vars.get(t_val, _MISSING)
                if recv is not _MISSING:
                    stats.cycles += op_local
                    if stats.cycles >= stats.slice_end:
                        yield
                else:
                    recv = yield from field_read(frame.this, t_val,
                                                 thread, t_span)
                if isinstance(recv, ObjRef):
                    frame.temps.append(recv)
            elif t_kind == 2:
                recv = frame.this
                if recv is not None:
                    frame.temps.append(recv)
            elif t_kind == 0:
                recv = t_val
            else:
                recv = yield from t_code(frame, region, thread)
            if isinstance(recv, RegionHandle):
                value = yield from portal_read(recv.area, fname, thread,
                                               span)
            else:
                value = yield from field_read(recv, fname, thread, span)
            if isinstance(value, ObjRef):
                frame.temps.append(value)
            return value
        return run

    def _build_invoke(self, expr: ast.Invoke):
        return self._make_invoke(expr, preamble=False)

    def _make_invoke(self, expr: ast.Invoke, preamble: bool):
        stats = self.stats
        t_kind, t_val, t_span, t_code = self._operand(expr.target)
        arg_parts = tuple(self._operand(a) for a in expr.args)
        resolvers = tuple(self._owner_resolver(o.name)
                          for o in expr.owner_args)
        method_name = expr.method_name
        what = f"call '{method_name}'"
        span = expr.span
        op_invoke = self.cost.op_invoke
        op_local = self._c_local
        field_read = self._field_read
        call_entry = self._call_entry
        frame_call = self._frame_call
        require = self._require_object

        def run(frame, region, thread):
            if preamble:
                stats.steps += 1
                frame.temps.clear()
            if t_kind == 1:
                recv = frame.vars.get(t_val, _MISSING)
                if recv is not _MISSING:
                    stats.cycles += op_local
                    if stats.cycles >= stats.slice_end:
                        yield
                else:
                    recv = yield from field_read(frame.this, t_val,
                                                 thread, t_span)
                if isinstance(recv, ObjRef):
                    frame.temps.append(recv)
            elif t_kind == 2:
                recv = frame.this
                if recv is not None:
                    frame.temps.append(recv)
            elif t_kind == 0:
                recv = t_val
            else:
                recv = yield from t_code(frame, region, thread)
            obj = require(recv, span, what)
            owner_values = (tuple(r(frame) for r in resolvers)
                            if resolvers else ())
            args = []
            for a_kind, a_val, a_span, a_code in arg_parts:
                if a_kind == 0:
                    value = a_val
                elif a_kind == 1:
                    value = frame.vars.get(a_val, _MISSING)
                    if value is not _MISSING:
                        stats.cycles += op_local
                        if stats.cycles >= stats.slice_end:
                            yield
                    else:
                        value = yield from field_read(frame.this, a_val,
                                                      thread, a_span)
                    if isinstance(value, ObjRef):
                        frame.temps.append(value)
                elif a_kind == 2:
                    value = frame.this
                    if value is not None:
                        frame.temps.append(value)
                else:
                    value = yield from a_code(frame, region, thread)
                args.append(value)
            if obj.class_name not in ("IntArray", "FloatArray"):
                # primitive-array accesses compile to plain loads/stores
                # on a JVM; only real method calls pay call overhead
                stats.cycles += op_invoke
                if stats.cycles >= stats.slice_end:
                    yield
            entry = call_entry(obj, method_name)
            if entry[0] is not None:
                # native (array) methods run in the invoke frame itself
                result = yield from entry[0](obj, args)
            else:
                result = yield from frame_call(entry, obj, owner_values,
                                               tuple(args), region,
                                               thread)
            if isinstance(result, ObjRef):
                frame.temps.append(result)
            return result
        return run

    def _build_binary(self, expr: ast.Binary):
        stats = self.stats
        op = expr.op
        op_basic = self._c_basic
        left_code = self._compile_expr(expr.left)
        right_code = self._compile_expr(expr.right)
        if op == "&&":
            def run(frame, region, thread):
                left = yield from left_code(frame, region, thread)
                stats.cycles += op_basic
                if stats.cycles >= stats.slice_end:
                    yield
                if not left:
                    return False
                right = yield from right_code(frame, region, thread)
                return bool(right)
            return run
        if op == "||":
            def run(frame, region, thread):
                left = yield from left_code(frame, region, thread)
                stats.cycles += op_basic
                if stats.cycles >= stats.slice_end:
                    yield
                if left:
                    return True
                right = yield from right_code(frame, region, thread)
                return bool(right)
            return run
        fn = _BIN_OPS.get(op)
        if fn is None:
            def run(frame, region, thread):
                yield from left_code(frame, region, thread)
                yield from right_code(frame, region, thread)
                stats.cycles += op_basic
                if stats.cycles >= stats.slice_end:
                    yield
                raise InterpreterError(f"unknown operator '{op}'")
            return run

        op_local = self._c_local
        field_read = self._field_read
        l_kind, l_val, l_span, l_code = self._operand(expr.left)
        r_kind, r_val, r_span, r_code = self._operand(expr.right)

        def run(frame, region, thread):
            if l_kind == 0:
                left = l_val
            elif l_kind == 1:
                left = frame.vars.get(l_val, _MISSING)
                if left is not _MISSING:
                    stats.cycles += op_local
                    if stats.cycles >= stats.slice_end:
                        yield
                else:
                    left = yield from field_read(frame.this, l_val,
                                                 thread, l_span)
                if isinstance(left, ObjRef):
                    frame.temps.append(left)
            elif l_kind == 2:
                left = frame.this
                if left is not None:
                    frame.temps.append(left)
            else:
                left = yield from l_code(frame, region, thread)
            if r_kind == 0:
                right = r_val
            elif r_kind == 1:
                right = frame.vars.get(r_val, _MISSING)
                if right is not _MISSING:
                    stats.cycles += op_local
                    if stats.cycles >= stats.slice_end:
                        yield
                else:
                    right = yield from field_read(frame.this, r_val,
                                                  thread, r_span)
                if isinstance(right, ObjRef):
                    frame.temps.append(right)
            elif r_kind == 2:
                right = frame.this
                if right is not None:
                    frame.temps.append(right)
            else:
                right = yield from r_code(frame, region, thread)
            stats.cycles += op_basic
            if stats.cycles >= stats.slice_end:
                yield
            return fn(left, right)
        return run

    def _build_unary(self, expr: ast.Unary):
        stats = self.stats
        op_basic = self._c_basic
        op_local = self._c_local
        field_read = self._field_read
        negate = expr.op == "!"
        v_kind, v_val, v_span, v_code = self._operand(expr.operand)

        def run(frame, region, thread):
            if v_kind == 0:
                operand = v_val
            elif v_kind == 1:
                operand = frame.vars.get(v_val, _MISSING)
                if operand is not _MISSING:
                    stats.cycles += op_local
                    if stats.cycles >= stats.slice_end:
                        yield
                else:
                    operand = yield from field_read(frame.this, v_val,
                                                    thread, v_span)
                if isinstance(operand, ObjRef):
                    frame.temps.append(operand)
            elif v_kind == 2:
                operand = frame.this
                if operand is not None:
                    frame.temps.append(operand)
            else:
                operand = yield from v_code(frame, region, thread)
            stats.cycles += op_basic
            if stats.cycles >= stats.slice_end:
                yield
            return (not operand) if negate else -operand
        return run

    def _build_builtin(self, expr: ast.BuiltinCall):
        return self._make_builtin(expr, preamble=False)

    #: single-argument builtins with a specialized closure, in rough
    #: hotness order (``print``/``io`` dominate the server loops)
    _BUILTIN_IDS = {"print": 0, "io": 1, "sqrt": 2, "itof": 3,
                    "ftoi": 4, "check": 5}

    def _make_builtin(self, expr: ast.BuiltinCall, preamble: bool):
        name = expr.name
        stats = self.stats
        machine = self.machine
        cost = self.cost
        op_builtin = cost.op_builtin
        op_basic = self._c_basic
        op_local = self._c_local
        field_read = self._field_read
        span = expr.span

        bi = self._BUILTIN_IDS.get(name)
        if bi is not None and len(expr.args) == 1:
            v_kind, v_val, v_span, v_code = self._operand(expr.args[0])

            def run(frame, region, thread):
                if preamble:
                    stats.steps += 1
                    frame.temps.clear()
                if v_kind == 0:
                    value = v_val
                elif v_kind == 1:
                    value = frame.vars.get(v_val, _MISSING)
                    if value is not _MISSING:
                        stats.cycles += op_local
                        if stats.cycles >= stats.slice_end:
                            yield
                    else:
                        value = yield from field_read(frame.this, v_val,
                                                      thread, v_span)
                    if isinstance(value, ObjRef):
                        frame.temps.append(value)
                elif v_kind == 2:
                    value = frame.this
                    if value is not None:
                        frame.temps.append(value)
                else:
                    value = yield from v_code(frame, region, thread)
                if bi == 0:
                    stats.cycles += op_builtin
                    if stats.cycles >= stats.slice_end:
                        yield
                    machine.output.append(format_value(value))
                    return None
                if bi == 1:
                    # simulated network/disk operation: dominates
                    # server loops
                    cycles = op_builtin + max(int(value), 0)
                    stats.io_cycles += cycles
                    stats.cycles += cycles
                    if stats.cycles >= stats.slice_end:
                        yield
                    return int(value)
                if bi == 2:
                    stats.cycles += op_builtin
                    if stats.cycles >= stats.slice_end:
                        yield
                    if value < 0:
                        raise InterpreterError(f"sqrt of negative {value}")
                    return math.sqrt(value)
                if bi == 3:
                    stats.cycles += op_basic
                    if stats.cycles >= stats.slice_end:
                        yield
                    return float(value)
                if bi == 4:
                    stats.cycles += op_basic
                    if stats.cycles >= stats.slice_end:
                        yield
                    return int(value)
                stats.cycles += op_basic
                if stats.cycles >= stats.slice_end:
                    yield
                if not value:
                    raise InterpreterError(
                        f"program assertion failed at {span}")
                return None
            return run

        arg_codes = tuple(self._compile_expr(a) for a in expr.args)
        if name == "yieldnow" and not arg_codes:
            thread_yield = cost.thread_yield

            def run(frame, region, thread):
                if preamble:
                    stats.steps += 1
                    frame.temps.clear()
                stats.thread_cycles += thread_yield
                stats.cycles += thread_yield
                if stats.cycles >= stats.slice_end:
                    yield
                yield
                return None
            return run

        # generic fallback: evaluate all arguments in order, then apply
        # (covers unusual arities and unknown builtins, with the
        # reference interpreter's exact behavior)
        def run(frame, region, thread):
            if preamble:
                stats.steps += 1
                frame.temps.clear()
            args = []
            for code in arg_codes:
                value = yield from code(frame, region, thread)
                args.append(value)
            if name == "print":
                stats.cycles += op_builtin
                if stats.cycles >= stats.slice_end:
                    yield
                machine.output.append(format_value(args[0]))
                return None
            if name == "io":
                cycles = op_builtin + max(int(args[0]), 0)
                stats.io_cycles += cycles
                stats.cycles += cycles
                if stats.cycles >= stats.slice_end:
                    yield
                return int(args[0])
            if name == "yieldnow":
                stats.thread_cycles += cost.thread_yield
                stats.cycles += cost.thread_yield
                if stats.cycles >= stats.slice_end:
                    yield
                yield
                return None
            if name == "sqrt":
                stats.cycles += op_builtin
                if stats.cycles >= stats.slice_end:
                    yield
                if args[0] < 0:
                    raise InterpreterError(f"sqrt of negative {args[0]}")
                return math.sqrt(args[0])
            if name == "itof":
                stats.cycles += op_basic
                if stats.cycles >= stats.slice_end:
                    yield
                return float(args[0])
            if name == "ftoi":
                stats.cycles += op_basic
                if stats.cycles >= stats.slice_end:
                    yield
                return int(args[0])
            if name == "check":
                stats.cycles += op_basic
                if stats.cycles >= stats.slice_end:
                    yield
                if not args[0]:
                    raise InterpreterError(
                        f"program assertion failed at {expr.span}")
                return None
            raise InterpreterError(f"unknown builtin '{name}'")
        return run


# ---------------------------------------------------------------------------
# tiny shared expression closures
# ---------------------------------------------------------------------------

def _run_null(frame, region, thread):
    return None
    yield  # pragma: no cover


def _run_this(frame, region, thread):
    this = frame.this
    if this is not None:
        frame.temps.append(this)
    return this
    yield  # pragma: no cover


def _resolve_this(frame: Frame) -> Any:
    return frame.this


def _resolve_initial_region(frame: Frame) -> Any:
    return frame.initial_region


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _restore(mapping: Dict[str, Any], key: str, saved: Any) -> None:
    if saved is None:
        mapping.pop(key, None)
    else:
        mapping[key] = saved


def _literal_value(expr: ast.Expr) -> Any:
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.FloatLit):
        return expr.value
    if isinstance(expr, ast.BoolLit):
        return expr.value
    if isinstance(expr, ast.NullLit):
        return None
    raise InterpreterError(f"not a literal: {expr!r}")


def _default_return(return_type) -> Any:
    from ..core.types import BOOLEAN, FLOAT, INT
    if return_type == INT:
        return 0
    if return_type == FLOAT:
        return 0.0
    if return_type == BOOLEAN:
        return False
    return None


def _java_div(a, b):
    if isinstance(a, float) or isinstance(b, float):
        if b == 0:
            raise InterpreterError("float division by zero")
        return a / b
    if b == 0:
        raise InterpreterError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _java_mod(a, b):
    if b == 0:
        raise InterpreterError("integer modulo by zero")
    return a - _java_div(a, b) * b


def _ref_eq(a, b) -> bool:
    if isinstance(a, ObjRef) or isinstance(b, ObjRef):
        return a is b
    return a == b


# late-bind the operator table entries that need module helpers
_BIN_OPS["/"] = _java_div
_BIN_OPS["%"] = _java_mod
_BIN_OPS["=="] = _ref_eq
_BIN_OPS["!="] = _ref_ne
