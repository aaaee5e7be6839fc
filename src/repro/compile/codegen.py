"""Source-level code generation: one ``compile()``-ed function per tree.

This is the only compiled evaluator of :mod:`repro.compile`.  An
expression or statement tree is flattened into straight-line Python
source — one temporary per node, the concrete/symbolic dispatch of the
``value_*`` helpers and the integer fast path of ``require_int``
inlined — and compiled into a single code object.  Evaluating a
ten-node expression then costs one frame instead of ten recursive
interpreter calls.

Closed subtrees (no free variables, no array reads) are folded at
generation time through the interpreter itself, so folded values are
identical; a subtree whose evaluation raises (e.g. division by a
literal zero) is left un-folded so the error still surfaces at run
time, where the interpreter raises it.

Fidelity rules (checked by the equivalence test-suite):

* operands are evaluated in exactly the interpreter's order (temps are
  emitted depth-first, left to right), so lazily-drawn random array
  cells materialise identically;
* every slow or failing path calls the *original* helper
  (``require_int``, ``value_add``, ``_apply_func``, ``compare_values``)
  so coercions, exception types and messages stay bit-identical;
* symbolic operands reach the same ``value_*`` entry points, producing
  the same hash-consed expression nodes.
"""

from __future__ import annotations

from fractions import Fraction
from types import CodeType
from typing import Callable, Dict, List, Tuple

from repro.ir import nodes as ir
from repro.semantics.evalexpr import _apply_func, eval_ir_expr, eval_sym_expr
from repro.semantics.exec import ExecutionError
from repro.semantics.numeric import EvalError, compare_values
from repro.predicates.evaluate import GUARD_OPS as _GUARD_OPS, PredicateEvalError
from repro.semantics.state import (
    State,
    require_int,
    value_add,
    value_div,
    value_equal,
    value_mul,
    value_neg,
    value_sub,
)
from repro.symbolic.expr import (
    Add,
    ArrayCell,
    Call,
    Const,
    Div,
    Expr,
    Mul,
    Neg,
    Sub,
    Sym,
    add as expr_add,
    as_expr,
    div as expr_div,
    mul as expr_mul,
    sub as expr_sub,
)

from repro.synthesis.floatmodel import MODULUS as _MOD7_MODULUS, Mod7, _ELEMENTS

_MISS = object()

# Names injected into every generated function's globals.
_BASE_ENV = {
    "_Mod7": Mod7,
    "_M7": _ELEMENTS,
    "Expr": Expr,
    "EvalError": EvalError,
    "ExecutionError": ExecutionError,
    "PredicateEvalError": PredicateEvalError,
    "value_equal": value_equal,
    "Fraction": Fraction,
    "_MISS": _MISS,
    "_apply_func": _apply_func,
    "_as_expr": as_expr,
    "_x_add": expr_add,
    "_x_div": expr_div,
    "_x_mul": expr_mul,
    "_x_sub": expr_sub,
    "compare_values": compare_values,
    "require_int": require_int,
    "value_add": value_add,
    "value_div": value_div,
    "value_mul": value_mul,
    "value_neg": value_neg,
    "value_sub": value_sub,
}


# (source, tag) -> code object.  Structurally equal formulas of different
# CEGIS candidates (predicate formulas are not interned) and equal IR
# subtrees generate identical source; their constants live in the
# namespace, not the source, so one code object serves them all.
_CODE_CACHE: Dict[Tuple[str, str], CodeType] = {}
_CODE_CACHE_MAX = 1 << 10


def clear_code_cache() -> None:
    """Drop memoised code objects (tests / cache hygiene)."""
    _CODE_CACHE.clear()


class _Emitter:
    """Accumulates source lines and compile-time constants."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.env: Dict[str, object] = {}
        self._counter = 0

    def temp(self) -> str:
        self._counter += 1
        return f"t{self._counter}"

    def const(self, value) -> str:
        """Bind a compile-time constant; small literals are inlined."""
        if type(value) is int or type(value) is bool:
            return repr(value)
        if type(value) is str:
            return repr(value)
        self._counter += 1
        name = f"k{self._counter}"
        self.env[name] = value
        return name

    def emit(self, line: str, depth: int) -> None:
        self.lines.append("    " * depth + line)

    def build(self, signature: str, tag: str) -> Callable:
        body = self.lines or ["    pass"]
        source = f"def _compiled({signature}):\n" + "\n".join(body)
        code = _CODE_CACHE.get((source, tag))
        if code is None:
            if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
                _CODE_CACHE.clear()
            code = compile(source, f"<repro.compile.codegen:{tag}>", "exec")
            _CODE_CACHE[(source, tag)] = code
        namespace = dict(_BASE_ENV)
        namespace.update(self.env)
        exec(code, namespace)
        return namespace["_compiled"]


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------

_IR_FOLDABLE = (ir.IntConst, ir.RealConst, ir.BinOp, ir.UnaryOp, ir.FuncCall)
_SYM_FOLDABLE = (Const, Add, Sub, Mul, Div, Neg, Call)


def _try_fold_ir(expr: ir.ValueExpr):
    """Fold a closed IR subtree through the interpreter itself.

    Returns ``(True, value)`` or ``(False, None)``; anything that
    raises stays un-folded so the error is reproduced at run time.
    """
    for node in expr.walk():
        if not isinstance(node, _IR_FOLDABLE):
            return False, None
    try:
        return True, eval_ir_expr(expr, State())
    except Exception:
        return False, None


def _try_fold_sym(expr: Expr):
    """Symbolic twin of :func:`_try_fold_ir`."""
    for node in expr.walk():
        if not isinstance(node, _SYM_FOLDABLE):
            return False, None
    try:
        return True, eval_sym_expr(expr, State(), {})
    except Exception:
        return False, None


# ---------------------------------------------------------------------------
# Shared fragments
# ---------------------------------------------------------------------------

def _emit_require_int(em: _Emitter, var: str, context_name: str, depth: int) -> None:
    em.emit(f"if type({var}) is not int:", depth)
    em.emit(f"{var} = require_int({var}, context={context_name})", depth + 1)


def _emit_array_load(
    em: _Emitter, array: str, index_vars: List[str], depth: int
) -> str:
    """Inline ``state.array(name).load(index)`` with its fast paths."""
    arr = em.temp()
    name = em.const(array)
    em.emit(f"{arr} = state.arrays.get({name})", depth)
    em.emit(f"if {arr} is None:", depth)
    em.emit(f"{arr} = state.array({name})", depth + 1)
    idx = em.temp()
    em.emit(f"{idx} = ({', '.join(index_vars)},)", depth)
    out = em.temp()
    em.emit(f"{out} = {arr}.cells.get({idx})", depth)
    em.emit(f"if {out} is None:", depth)
    em.emit(f"{out} = {arr}.default_for({idx})", depth + 1)
    return out


def _emit_binop(em: _Emitter, op: str, left: str, right: str, depth: int) -> str:
    """Inline the concrete/symbolic dispatch of the ``value_*`` helpers.

    The symbolic branches call the smart constructors (``expr.add`` and
    friends) directly — exactly what ``value_add(a, b)`` reduces to via
    the operator sugar — skipping the ``__add__``/``as_expr`` frames.
    """
    out = em.temp()
    ctor = {"+": "_x_add", "-": "_x_sub", "*": "_x_mul", "/": "_x_div"}[op]
    if op in {"+", "-", "*"} and left.startswith("t") and right.startswith("t"):
        # GF(7) fast path: the synthesis float model's field operations
        # reduce to a singleton-table index (``Mod7.__add__`` and friends
        # do exactly this, one frame deeper).  Only runtime temporaries
        # can hold Mod7 values — compile-time constants never do.
        em.emit(f"if type({left}) is _Mod7 and type({right}) is _Mod7:", depth)
        em.emit(
            f"{out} = _M7[({left}.value {op} {right}.value) % {_MOD7_MODULUS}]",
            depth + 1,
        )
        em.emit(f"elif isinstance({left}, Expr):", depth)
    else:
        em.emit(f"if isinstance({left}, Expr):", depth)
    em.emit(f"if isinstance({right}, Expr):", depth + 1)
    em.emit(f"{out} = {ctor}({left}, {right})", depth + 2)
    em.emit("else:", depth + 1)
    em.emit(f"{out} = {ctor}({left}, _as_expr({right}))", depth + 2)
    em.emit(f"elif isinstance({right}, Expr):", depth)
    em.emit(f"{out} = {ctor}(_as_expr({left}), {right})", depth + 1)
    if op == "/":
        em.emit(f"elif isinstance({left}, int) and isinstance({right}, int):", depth)
        em.emit(f"{out} = Fraction({left}, {right})", depth + 1)
        em.emit("else:", depth)
        em.emit(f"{out} = {left} / {right}", depth + 1)
    else:
        em.emit("else:", depth)
        em.emit(f"{out} = {left} {op} {right}", depth + 1)
    return out


def _emit_compare(em: _Emitter, op: str, left: str, right: str, depth: int) -> str:
    """Inline ``compare_values`` for concrete operands."""
    out = em.temp()
    py_op = {"<": "<", "<=": "<=", ">": ">", ">=": ">=", "==": "==", "/=": "!=", "!=": "!="}.get(op)
    if py_op is None:
        op_name = em.const(op)
        em.emit(f"{out} = compare_values({op_name}, {left}, {right})", depth)
        return out
    em.emit(f"if isinstance({left}, Expr) or isinstance({right}, Expr):", depth)
    op_name = em.const(op)
    em.emit(f"{out} = compare_values({op_name}, {left}, {right})", depth + 1)
    em.emit("else:", depth)
    em.emit(f"{out} = {left} {py_op} {right}", depth + 1)
    return out


def _scalar_missing_message(name: str) -> str:
    # The interpreter wraps the KeyError from State.scalar with
    # EvalError(str(exc)); reproduce that exact text.
    return str(KeyError(f"scalar {name!r} is not bound in this state"))


# ---------------------------------------------------------------------------
# Symbolic predicate expressions
# ---------------------------------------------------------------------------

def _emit_sym_expr(em: _Emitter, expr: Expr, depth: int, scope=None) -> str:
    """Emit evaluation code for a predicate expression.

    ``scope`` maps quantified variable names to the Python loop
    variables of an enclosing generated quantifier nest; names found
    there resolve statically (quantified variables shadow the caller's
    bindings, exactly like the interpreter's merged-dict lookup).
    """
    folded, value = _try_fold_sym(expr)
    if folded:
        return em.const(value)
    if isinstance(expr, Const):
        value = expr.value
        if isinstance(value, Fraction) and value.denominator == 1:
            value = int(value)
        return em.const(value)
    if isinstance(expr, Sym):
        if scope is not None and expr.name in scope:
            return scope[expr.name]
        out = em.temp()
        name = em.const(expr.name)
        em.emit(f"{out} = bindings.get({name}, _MISS)", depth)
        em.emit(f"if {out} is _MISS:", depth)
        em.emit(f"{out} = state.scalars.get({name}, _MISS)", depth + 1)
        em.emit(f"if {out} is _MISS:", depth + 1)
        em.emit(
            f"raise EvalError({em.const(_scalar_missing_message(expr.name))})",
            depth + 2,
        )
        return out
    if isinstance(expr, ArrayCell):
        context = em.const(f"index of {expr.array}")
        index_vars = []
        for index in expr.indices:
            var = _emit_sym_expr(em, index, depth, scope)
            coerced = em.temp()
            em.emit(f"{coerced} = {var}", depth)
            _emit_require_int(em, coerced, context, depth)
            index_vars.append(coerced)
        return _emit_array_load(em, expr.array, index_vars, depth)
    if isinstance(expr, (Add, Sub, Mul, Div)):
        op = {Add: "+", Sub: "-", Mul: "*", Div: "/"}[type(expr)]
        left = _emit_sym_expr(em, expr.left, depth, scope)
        right = _emit_sym_expr(em, expr.right, depth, scope)
        return _emit_binop(em, op, left, right, depth)
    if isinstance(expr, Neg):
        operand = _emit_sym_expr(em, expr.operand, depth, scope)
        out = em.temp()
        em.emit(f"{out} = -{operand}", depth)
        return out
    if isinstance(expr, Call):
        args = [_emit_sym_expr(em, a, depth, scope) for a in expr.args]
        out = em.temp()
        func = em.const(expr.func)
        em.emit(f"{out} = _apply_func({func}, [{', '.join(args)}])", depth)
        return out
    out = em.temp()
    message = em.const(f"cannot evaluate predicate expression {expr!r}")
    em.emit(f"raise EvalError({message})", depth)
    em.emit(f"{out} = None", depth)  # unreachable; keeps the temp defined
    return out


def gen_sym_fn(expr: Expr) -> Callable:
    """Compile a predicate expression into one ``(state, bindings)`` function."""
    em = _Emitter()
    result = _emit_sym_expr(em, expr, 1)
    em.emit(f"return {result}", 1)
    return em.build("state, bindings", "sym")


# ---------------------------------------------------------------------------
# Quantified constraints as single code objects
# ---------------------------------------------------------------------------

def _emit_quantifier_nest(em: _Emitter, bounds, depth: int, scope) -> int:
    """Emit the nested ``for`` loops of a quantifier prefix.

    Each level evaluates its bounds with earlier quantified variables
    in ``scope`` (mirroring the interpreter's left-to-right assignment
    construction) and wraps coercion failures in ``PredicateEvalError``
    exactly like ``predicates.evaluate._bound_range``.  Returns the
    body indentation depth; ``scope`` gains one loop variable per bound.
    """
    for bound in bounds:
        em.emit("try:", depth)
        lower = _emit_sym_expr(em, bound.lower, depth + 1, scope)
        low = em.temp()
        em.emit(f"{low} = {lower}", depth + 1)
        _emit_require_int(em, low, em.const("quantifier lower bound"), depth + 1)
        upper = _emit_sym_expr(em, bound.upper, depth + 1, scope)
        high = em.temp()
        em.emit(f"{high} = {upper}", depth + 1)
        _emit_require_int(em, high, em.const("quantifier upper bound"), depth + 1)
        em.emit("except (EvalError, TypeError) as exc:", depth)
        em.emit("raise PredicateEvalError(str(exc)) from exc", depth + 1)
        loop_var = em.temp()
        start = f"{low} + 1" if bound.lower_strict else low
        stop = high if bound.upper_strict else f"{high} + 1"
        em.emit(f"for {loop_var} in range({start}, {stop}):", depth)
        scope[bound.var] = loop_var
        depth += 1
    return depth


def gen_quantified_fn(constraint) -> Callable:
    """Compile ``forall bounds. [guard ->] outEq`` into one function.

    The whole check — bound evaluation, guard, index arithmetic,
    right-hand side, the ``value_equal`` comparison with the
    hash-consing identity shortcut — runs in a single frame; quantified
    variables live in Python loop variables instead of merged binding
    dicts (shadowing semantics are preserved statically).
    """
    em = _Emitter()
    em.emit("if not bindings:", 1)
    em.emit("bindings = {}", 2)
    scope: Dict[str, str] = {}
    depth = _emit_quantifier_nest(em, constraint.bounds, 1, scope)

    guard = constraint.guard
    if guard is not None:
        if isinstance(guard, Call) and guard.func in _GUARD_OPS and len(guard.args) == 2:
            left = _emit_sym_expr(em, guard.args[0], depth, scope)
            right = _emit_sym_expr(em, guard.args[1], depth, scope)
            taken = em.temp()
            em.emit("try:", depth)
            op = em.const(_GUARD_OPS[guard.func])
            em.emit(f"{taken} = compare_values({op}, {left}, {right})", depth + 1)
            em.emit("except EvalError as exc:", depth)
            em.emit("raise PredicateEvalError(str(exc)) from exc", depth + 1)
            em.emit(f"if not {taken}:", depth)
            # With no quantifier loops the body runs once; a false guard
            # simply means the (single) implication holds.
            em.emit("continue" if constraint.bounds else "return True", depth + 1)
        else:
            message = em.const(f"unsupported guard expression {guard!r}")
            em.emit(f"raise PredicateEvalError({message})", depth)

    out_eq = constraint.out_eq
    actual = em.temp()
    expected = em.temp()
    em.emit("try:", depth)
    context = em.const(f"index of {out_eq.array}")
    index_vars = []
    for index in out_eq.indices:
        var = _emit_sym_expr(em, index, depth + 1, scope)
        coerced = em.temp()
        em.emit(f"{coerced} = {var}", depth + 1)
        _emit_require_int(em, coerced, context, depth + 1)
        index_vars.append(coerced)
    loaded = _emit_array_load(em, out_eq.array, index_vars, depth + 1)
    em.emit(f"{actual} = {loaded}", depth + 1)
    rhs = _emit_sym_expr(em, out_eq.rhs, depth + 1, scope)
    em.emit(f"{expected} = {rhs}", depth + 1)
    em.emit("except (EvalError, TypeError) as exc:", depth)
    em.emit("raise PredicateEvalError(str(exc)) from exc", depth + 1)
    em.emit(
        f"if {actual} is not {expected} and not value_equal({actual}, {expected}):",
        depth,
    )
    em.emit("return False", depth + 1)
    em.emit("return True", 1)
    return em.build("state, bindings=None", "quant")


def gen_conjunct_store_fn(conjunct) -> Callable:
    """Compile one invariant conjunct into a single storing function.

    The compiled twin of the conjunct loop in
    ``BoundedVerifier._instantiate_invariant``: every assignment's
    right-hand side is stored into the output array.  Index coercion
    uses the default ``require_int`` context, and evaluation errors
    propagate raw for the caller to absorb, exactly as interpreted.
    """
    em = _Emitter()
    em.emit("if not bindings:", 1)
    em.emit("bindings = {}", 2)
    scope: Dict[str, str] = {}
    depth = _emit_quantifier_nest(em, conjunct.bounds, 1, scope)
    out_eq = conjunct.out_eq
    context = em.const("index")
    index_vars = []
    for index in out_eq.indices:
        var = _emit_sym_expr(em, index, depth, scope)
        coerced = em.temp()
        em.emit(f"{coerced} = {var}", depth)
        _emit_require_int(em, coerced, context, depth)
        index_vars.append(coerced)
    value = _emit_sym_expr(em, out_eq.rhs, depth, scope)
    name = em.const(out_eq.array)
    arr = em.temp()
    em.emit(f"{arr} = state.arrays.get({name})", depth)
    em.emit(f"if {arr} is None:", depth)
    em.emit(f"{arr} = state.array({name})", depth + 1)
    em.emit(f"{arr}.cells[({', '.join(index_vars)},)] = {value}", depth)
    return em.build("state, bindings=None", "store")


# ---------------------------------------------------------------------------
# IR expressions
# ---------------------------------------------------------------------------

def _emit_ir_expr(em: _Emitter, expr: ir.ValueExpr, depth: int) -> str:
    folded, value = _try_fold_ir(expr)
    if folded:
        return em.const(value)
    if isinstance(expr, (ir.IntConst, ir.RealConst)):
        return em.const(expr.value)
    if isinstance(expr, ir.VarRef):
        out = em.temp()
        name = em.const(expr.name)
        em.emit(f"{out} = state.scalars.get({name}, _MISS)", depth)
        em.emit(f"if {out} is _MISS:", depth)
        em.emit(
            f"raise EvalError({em.const(_scalar_missing_message(expr.name))})",
            depth + 1,
        )
        return out
    if isinstance(expr, ir.ArrayLoad):
        context = em.const(f"index of {expr.array}")
        index_vars = []
        for index in expr.indices:
            var = _emit_ir_expr(em, index, depth)
            coerced = em.temp()
            em.emit(f"{coerced} = {var}", depth)
            _emit_require_int(em, coerced, context, depth)
            index_vars.append(coerced)
        return _emit_array_load(em, expr.array, index_vars, depth)
    if isinstance(expr, ir.BinOp):
        if expr.op not in {"+", "-", "*", "/"}:
            left = _emit_ir_expr(em, expr.left, depth)
            right = _emit_ir_expr(em, expr.right, depth)
            out = em.temp()
            message = em.const(f"unknown binary operator {expr.op!r}")
            em.emit(f"raise EvalError({message})", depth)
            em.emit(f"{out} = None", depth)
            return out
        left = _emit_ir_expr(em, expr.left, depth)
        right = _emit_ir_expr(em, expr.right, depth)
        return _emit_binop(em, expr.op, left, right, depth)
    if isinstance(expr, ir.UnaryOp):
        operand = _emit_ir_expr(em, expr.operand, depth)
        if expr.op != "-":
            return operand
        out = em.temp()
        em.emit(f"{out} = -{operand}", depth)
        return out
    if isinstance(expr, ir.FuncCall):
        args = [_emit_ir_expr(em, a, depth) for a in expr.args]
        out = em.temp()
        func = em.const(expr.func)
        em.emit(f"{out} = _apply_func({func}, [{', '.join(args)}])", depth)
        return out
    if isinstance(expr, ir.Compare):
        return _emit_ir_condition(em, expr, depth)
    out = em.temp()
    message = em.const(f"cannot evaluate IR expression {expr!r}")
    em.emit(f"raise EvalError({message})", depth)
    em.emit(f"{out} = None", depth)
    return out


def _emit_ir_condition(em: _Emitter, expr: ir.ValueExpr, depth: int) -> str:
    if isinstance(expr, ir.Compare):
        left = _emit_ir_expr(em, expr.left, depth)
        right = _emit_ir_expr(em, expr.right, depth)
        return _emit_compare(em, expr.op, left, right, depth)
    value = _emit_ir_expr(em, expr, depth)
    out = em.temp()
    em.emit(f"if isinstance({value}, Expr):", depth)
    em.emit(
        f"raise EvalError({em.const('condition evaluated to a symbolic value')})",
        depth + 1,
    )
    em.emit(f"{out} = bool({value})", depth)
    return out


def gen_ir_fn(expr: ir.ValueExpr) -> Callable:
    """Compile an IR value expression into one ``(state,)`` function."""
    em = _Emitter()
    result = _emit_ir_expr(em, expr, 1)
    em.emit(f"return {result}", 1)
    return em.build("state", "ir")


def gen_ir_condition_fn(expr: ir.ValueExpr) -> Callable:
    """Compile an IR condition into one ``(state,)`` boolean function."""
    em = _Emitter()
    result = _emit_ir_condition(em, expr, 1)
    em.emit(f"return {result}", 1)
    return em.build("state", "cond")


# ---------------------------------------------------------------------------
# IR statements (plain execution and snapshotting collector)
# ---------------------------------------------------------------------------

from repro.semantics.exec import MAX_ITERATIONS as _MAX_ITERATIONS


def _emit_stmt(em: _Emitter, stmt: ir.Stmt, depth: int, snapshot: bool) -> None:
    if isinstance(stmt, ir.Block):
        for inner in stmt.statements:
            _emit_stmt(em, inner, depth, snapshot)
        return
    if snapshot and not isinstance(stmt, ir.Loop):
        # The collector only treats blocks and loops specially; any other
        # statement runs through plain execution semantics (conditionals
        # containing loops regain the iteration budget, exactly as the
        # interpreted collector delegates to ``execute_statement``).
        _emit_stmt(em, stmt, depth, snapshot=False)
        return
    if isinstance(stmt, ir.Assign):
        value = _emit_ir_expr(em, stmt.value, depth)
        em.emit(f"state.scalars[{em.const(stmt.target)}] = {value}", depth)
        return
    if isinstance(stmt, ir.ArrayStore):
        context = em.const(f"store index of {stmt.array}")
        index_vars = []
        for index in stmt.indices:
            var = _emit_ir_expr(em, index, depth)
            coerced = em.temp()
            em.emit(f"{coerced} = {var}", depth)
            _emit_require_int(em, coerced, context, depth)
            index_vars.append(coerced)
        value = _emit_ir_expr(em, stmt.value, depth)
        name = em.const(stmt.array)
        arr = em.temp()
        em.emit(f"{arr} = state.arrays.get({name})", depth)
        em.emit(f"if {arr} is None:", depth)
        em.emit(f"{arr} = state.array({name})", depth + 1)
        em.emit(f"{arr}.cells[({', '.join(index_vars)},)] = {value}", depth)
        return
    if isinstance(stmt, ir.Loop):
        if stmt.step == 0:
            message = em.const("loop step must be non-zero")
            em.emit(f"raise ExecutionError({message})", depth)
            return
        counter = em.const(stmt.counter)
        lower = _emit_ir_expr(em, stmt.lower, depth)
        value = em.temp()
        em.emit(f"{value} = {lower}", depth)
        upper = _emit_ir_expr(em, stmt.upper, depth)
        bound = em.temp()
        em.emit(f"{bound} = {upper}", depth)
        if snapshot:
            # The reachable-state collector coerces with the default
            # context and applies no iteration budget.
            _emit_require_int(em, value, em.const("index"), depth)
            _emit_require_int(em, bound, em.const("index"), depth)
        else:
            _emit_require_int(em, value, em.const("loop lower bound"), depth)
            _emit_require_int(em, bound, em.const("loop upper bound"), depth)
            iterations = em.temp()
            em.emit(f"{iterations} = 0", depth)
        loop_op = ">=" if stmt.step < 0 else "<="
        em.emit(f"while {value} {loop_op} {bound}:", depth)
        em.emit(f"state.scalars[{counter}] = {value}", depth + 1)
        if snapshot:
            em.emit("snapshot(state)", depth + 1)
        _emit_stmt(em, stmt.body, depth + 1, snapshot)
        em.emit(f"{value} += {stmt.step}", depth + 1)
        if not snapshot:
            em.emit(f"{iterations} += 1", depth + 1)
            em.emit(f"if {iterations} > {_MAX_ITERATIONS}:", depth + 1)
            overflow = em.const(
                f"loop over {stmt.counter!r} exceeded {_MAX_ITERATIONS} iterations"
            )
            em.emit(f"raise ExecutionError({overflow})", depth + 2)
        em.emit(f"state.scalars[{counter}] = {value}", depth)
        if snapshot:
            em.emit("snapshot(state)", depth)
        return
    if isinstance(stmt, ir.If):
        cond = em.temp()
        em.emit("try:", depth)
        inner = _emit_ir_condition(em, stmt.condition, depth + 1)
        em.emit(f"{cond} = {inner}", depth + 1)
        em.emit("except EvalError as exc:", depth)
        em.emit(
            "raise ExecutionError(f'cannot execute conditional: {exc}') from exc",
            depth + 1,
        )
        em.emit(f"if {cond}:", depth)
        _emit_stmt(em, stmt.then_body, depth + 1, snapshot)
        if stmt.else_body is not None:
            em.emit("else:", depth)
            _emit_stmt(em, stmt.else_body, depth + 1, snapshot)
        return
    em.emit(f"raise ExecutionError({em.const(f'cannot execute statement {stmt!r}')})", depth)


def gen_stmt_fn(stmt: ir.Stmt) -> Callable:
    """Compile a statement tree into one ``(state,)`` in-place executor."""
    em = _Emitter()
    _emit_stmt(em, stmt, 1, snapshot=False)
    return em.build("state", "stmt")


def gen_collector_fn(stmt: ir.Stmt) -> Callable:
    """Compile a kernel body into a ``(state, snapshot)`` collector executor."""
    em = _Emitter()
    _emit_stmt(em, stmt, 1, snapshot=True)
    return em.build("state, snapshot", "collect")
