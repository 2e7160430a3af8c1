"""The project-invariant rule catalogue behind ``reprolint``.

Each rule encodes one invariant the test suite already guards at runtime
(shm-leak checks, bit-identity matrices, the int64-overflow reroute) so a
regression is caught at lint time — before a chaos run has to flush it out.
Rules are deliberately narrow: they target the files where the invariant
lives, and every hit is either a genuine fix or an inline
``# reprolint: disable=RXXX (reason)`` whose reason documents the
exception.  See DESIGN.md "Machine-checked invariants" for rule-by-rule
rationale.

All analysis is stdlib :mod:`ast` — the linter itself needs no
third-party dependency (mypy, the other half of the static-analysis
gate, stays behind the ``[dev]`` extra).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.devtools.findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.devtools.engine import FileContext

__all__ = ["ALL_RULES", "Rule", "rules_by_id"]


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> str | None:
    """``Attribute``/``Name`` chains as ``"np.random.default_rng"`` (else None)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _walk_excluding_nested_defs(body: Iterable[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function/class defs."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def iter_scopes(tree: ast.Module) -> Iterator[tuple[ast.AST, list[ast.stmt]]]:
    """Yield ``(scope_node, body)`` for the module and every function."""
    yield tree, tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.body


def _name_in(node: ast.AST, var: str) -> bool:
    """Whether ``var`` is referenced anywhere under ``node``."""
    return any(
        isinstance(child, ast.Name) and child.id == var for child in ast.walk(node)
    )


class Rule:
    """One lint rule: an id, a file scope, and an AST check."""

    rule_id: str = "R000"
    severity: Severity = Severity.ERROR
    title: str = ""

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on ``path`` (posix, repo-relative)."""
        return True

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: "FileContext", line: int, message: str) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=ctx.path,
            line=line,
            message=message,
            severity=self.severity,
        )


def _in_dir(path: str, dirname: str) -> bool:
    """Whether any path component equals ``dirname``."""
    return dirname in path.split("/")


# ----------------------------------------------------------------------
# R001 — shm blocks released on all paths
# ----------------------------------------------------------------------
class ShmReleaseRule(Rule):
    """``ShmArrayBlock``/``ShmIndexSegment`` publish/attach must be released.

    The runtime counterpart is the ``/dev/shm`` leak check in the serve and
    procbuild suites; this rule catches the leak shape *statically*: an
    acquisition whose ``close()``/``unlink()`` runs only on the fall-through
    path (or never) leaks the segment the first time an exception lands
    between publish and close.  Accepted release patterns, flow-aware per
    function scope:

    * the acquisition is (or the variable later becomes) a ``with`` context;
    * the variable is referenced inside a ``finally:`` block;
    * the handle escapes the function (returned/yielded, stored on an
      attribute or container, passed to another callable — ownership moves
      with it, e.g. into ``atexit.register`` or a pool constructor).
    """

    rule_id = "R001"
    severity = Severity.ERROR
    title = "shm block must be released on all paths"

    _FACTORY_METHODS = ("publish", "attach")

    def _is_acquisition(self, node: ast.AST) -> bool:
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            return False
        if node.func.attr not in self._FACTORY_METHODS:
            return False
        base = dotted_name(node.func.value)
        return base is not None and "Shm" in base

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        for scope, body in iter_scopes(ctx.tree):
            yield from self._check_scope(ctx, scope, body)

    def _check_scope(
        self, ctx: "FileContext", scope: ast.AST, body: list[ast.stmt]
    ) -> Iterator[Finding]:
        with_managed: set[int] = set()  # id() of calls used as context exprs
        assignments: list[tuple[str, ast.Call]] = []
        discarded: list[ast.Call] = []
        for node in _walk_excluding_nested_defs(body):
            if isinstance(node, ast.With) or isinstance(node, ast.AsyncWith):
                for item in node.items:
                    if self._is_acquisition(item.context_expr):
                        with_managed.add(id(item.context_expr))
            elif isinstance(node, ast.Expr) and self._is_acquisition(node.value):
                discarded.append(node.value)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
                value = node.value
                if value is None or not self._is_acquisition(value):
                    continue
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        assignments.append((target.id, value))
                    elif isinstance(target, (ast.Attribute, ast.Subscript)):
                        pass  # stored straight onto an object: escapes
        for call in discarded:
            if id(call) in with_managed:
                continue
            yield self.finding(
                ctx,
                call.lineno,
                f"result of {dotted_name(call.func)}() is discarded — the "
                "shared-memory block leaks immediately; bind it and release "
                "it, or use `with`",
            )
        for var, call in assignments:
            if id(call) in with_managed:
                continue
            released, closes_inline = self._release_evidence(scope, var, call)
            if released:
                continue
            factory = dotted_name(call.func)
            if closes_inline:
                message = (
                    f"{var} = {factory}(...) is released only on the "
                    "fall-through path — an exception before close() leaks "
                    "the shm block; use `with`, try/finally, or atexit"
                )
            else:
                message = (
                    f"{var} = {factory}(...) is never released in this "
                    "function and does not escape it — close()/unlink() the "
                    "block or hand ownership elsewhere"
                )
            yield self.finding(ctx, call.lineno, message)

    def _release_evidence(
        self, scope: ast.AST, var: str, acquisition: ast.Call
    ) -> tuple[bool, bool]:
        """``(released_on_all_paths, closed_on_fall_through_only)``."""
        closes_inline = False
        for node in ast.walk(scope):
            if isinstance(node, ast.Try):
                for stmt in node.finalbody:
                    if _name_in(stmt, var):
                        return True, False
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if (
                        isinstance(item.context_expr, ast.Name)
                        and item.context_expr.id == var
                    ):
                        return True, False
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                # the handle itself must travel — returning derived data
                # (`return segment.manifest`) transfers nothing
                if node.value is not None and self._transfers_ownership(
                    node.value, var
                ):
                    return True, False
            elif isinstance(node, ast.Assign):
                if node.value is not acquisition and any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in node.targets
                ) and _name_in(node.value, var):
                    return True, False  # stored on an object: ownership moved
            elif isinstance(node, ast.Call) and node is not acquisition:
                func = node.func
                is_own_method = (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == var
                )
                if is_own_method:
                    if func.attr in ("close", "unlink", "_cleanup_silently"):
                        closes_inline = True
                    continue
                # the handle itself (or a bound release method) passed to
                # another callable: ownership moves with it (atexit.register,
                # pool constructors, helper functions).  Derived data like
                # `segment.manifest` does NOT count — handing out a manifest
                # transfers nothing.
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if self._transfers_ownership(arg, var):
                        return True, False
        return False, closes_inline

    @staticmethod
    def _transfers_ownership(arg: ast.expr, var: str) -> bool:
        if isinstance(arg, ast.Starred):
            arg = arg.value
        if isinstance(arg, ast.Name) and arg.id == var:
            return True
        if isinstance(arg, (ast.Tuple, ast.List, ast.Set)):
            return any(
                isinstance(element, ast.Name) and element.id == var
                for element in arg.elts
            )
        if isinstance(arg, ast.Attribute):  # atexit.register(block.close)
            return (
                isinstance(arg.value, ast.Name)
                and arg.value.id == var
                and arg.attr in ("close", "unlink", "_cleanup_silently")
            )
        return False


# ----------------------------------------------------------------------
# R002 — the serve pipe hot path stays pickle-free
# ----------------------------------------------------------------------
class PipePurityRule(Rule):
    """No pickle and no object-dtype arrays in ``serve/pool.py``.

    The pool's throughput story rests on shards and answers crossing the
    duplex pipes as flat int64 arrays; an object-dtype payload (or an
    explicit pickle round-trip) silently reintroduces per-element
    serialisation and makes answers dependent on whatever classes the
    worker can import.
    """

    rule_id = "R002"
    severity = Severity.ERROR
    title = "serve pipes carry int64 arrays, never pickled objects"

    _FORBIDDEN_MODULES = ("pickle", "cPickle", "dill", "cloudpickle", "marshal")

    def applies_to(self, path: str) -> bool:
        return path.endswith("serve/pool.py")

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self._FORBIDDEN_MODULES:
                        yield self.finding(
                            ctx, node.lineno,
                            f"import of {alias.name!r} on the pipe hot path — "
                            "payloads must stay flat int64 arrays",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in self._FORBIDDEN_MODULES:
                    yield self.finding(
                        ctx, node.lineno,
                        f"import from {node.module!r} on the pipe hot path — "
                        "payloads must stay flat int64 arrays",
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name and name.split(".")[0] in self._FORBIDDEN_MODULES:
                    yield self.finding(
                        ctx, node.lineno,
                        f"{name}() on the pipe hot path — payloads must stay "
                        "flat int64 arrays",
                    )
                for kw in node.keywords:
                    if kw.arg == "dtype" and self._is_object_dtype(kw.value):
                        yield self.finding(
                            ctx, node.lineno,
                            "object-dtype array on the pipe hot path — every "
                            "element pickles individually; use int64 payloads",
                        )

    @staticmethod
    def _is_object_dtype(node: ast.expr) -> bool:
        if isinstance(node, ast.Name) and node.id == "object":
            return True
        if isinstance(node, ast.Constant) and node.value in ("object", "O"):
            return True
        return dotted_name(node) in ("np.object_", "numpy.object_")


# ----------------------------------------------------------------------
# R003 — hot-path numpy allocations carry explicit dtypes
# ----------------------------------------------------------------------
class ExplicitDtypeRule(Rule):
    """``np.array``/``np.zeros``/``np.empty`` (+ones/full/fromiter) need dtype.

    The build kernels' int64-overflow guard reasons about exactly which
    arrays hold counts; a platform-defaulted allocation (int32 on Windows,
    float64 from a stray literal) silently changes overflow behaviour and
    breaks the bit-identity contract between engines.  Scope: the files
    holding the frozen kernels, the store codecs and the query join (which
    accumulates count products).
    """

    rule_id = "R003"
    severity = Severity.ERROR
    title = "numpy allocation without an explicit dtype"

    _TARGET_SUFFIXES = (
        "core/fastbuild.py",
        "core/procbuild.py",
        "digraph/fastbuild.py",
        "core/store.py",
        "core/compact.py",
        "core/engine.py",
    )
    #: allocator -> index of the positional ``dtype`` parameter
    _ALLOCATORS = {
        "array": 1,
        "zeros": 1,
        "empty": 1,
        "ones": 1,
        "full": 2,
        "fromiter": 1,
    }

    def applies_to(self, path: str) -> bool:
        return path.endswith(self._TARGET_SUFFIXES)

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            base = node.func.value
            if not (isinstance(base, ast.Name) and base.id in ("np", "numpy")):
                continue
            position = self._ALLOCATORS.get(node.func.attr)
            if position is None:
                continue
            if any(kw.arg == "dtype" for kw in node.keywords):
                continue
            if len(node.args) > position and not any(
                isinstance(arg, ast.Starred) for arg in node.args
            ):
                continue  # dtype given positionally
            yield self.finding(
                ctx, node.lineno,
                f"np.{node.func.attr}(...) without an explicit dtype= — the "
                "int64-overflow guard depends on knowing every allocation's "
                "width",
            )


# ----------------------------------------------------------------------
# R004 — deterministic timing and RNG in tests/benchmarks
# ----------------------------------------------------------------------
class DeterministicTestRule(Rule):
    """No ``time.time()`` durations and no unseeded RNG under tests/benchmarks.

    ``time.time()`` is wall-clock (NTP steps make durations negative);
    every timing in the perf suites must be ``perf_counter``.  Unseeded
    randomness makes a red bit-identity test unreproducible — the whole
    suite is seeded by convention, this makes it a gate.
    """

    rule_id = "R004"
    severity = Severity.WARNING
    title = "non-deterministic timing/RNG in tests or benchmarks"

    _GLOBAL_NP_DRAWS = {
        "rand", "randn", "randint", "random", "random_sample", "choice",
        "shuffle", "permutation", "uniform", "normal", "poisson", "binomial",
    }
    _GLOBAL_RANDOM_DRAWS = {
        "random", "randint", "randrange", "choice", "choices", "sample",
        "shuffle", "uniform", "gauss", "betavariate", "expovariate",
    }

    def applies_to(self, path: str) -> bool:
        return _in_dir(path, "tests") or _in_dir(path, "benchmarks")

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name == "time.time":
                yield self.finding(
                    ctx, node.lineno,
                    "time.time() is wall-clock — durations must use "
                    "time.perf_counter() (monotonic, NTP-immune)",
                )
            elif name in ("np.random.default_rng", "numpy.random.default_rng"):
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx, node.lineno,
                        "np.random.default_rng() without a seed — failures "
                        "become unreproducible; pass an explicit seed",
                    )
            elif name.startswith(("np.random.", "numpy.random.")):
                if name.rsplit(".", 1)[1] in self._GLOBAL_NP_DRAWS:
                    yield self.finding(
                        ctx, node.lineno,
                        f"{name}() draws from the unseeded global numpy RNG — "
                        "use np.random.default_rng(seed)",
                    )
            elif name == "random.Random":
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx, node.lineno,
                        "random.Random() without a seed — failures become "
                        "unreproducible; pass an explicit seed",
                    )
            elif name.startswith("random."):
                if name.rsplit(".", 1)[1] in self._GLOBAL_RANDOM_DRAWS:
                    yield self.finding(
                        ctx, node.lineno,
                        f"{name}() draws from the unseeded global RNG — use "
                        "random.Random(seed) or np.random.default_rng(seed)",
                    )


# ----------------------------------------------------------------------
# R005 — the asyncio serving twin never blocks the loop
# ----------------------------------------------------------------------
class AsyncNoBlockRule(Rule):
    """No blocking calls inside ``async def`` in the asyncio serving layer.

    One blocked coroutine stalls every connection on the loop.  Kernel
    calls belong in ``run_in_executor``; sleeps in ``asyncio.sleep``;
    socket work in the stream API.  Scope: ``serve/async_service.py`` and
    ``serve/http.py``, the two modules whose code runs on the loop.
    """

    rule_id = "R005"
    severity = Severity.ERROR
    title = "blocking call inside async def"

    _BLOCKING = {
        "time.sleep": "use `await asyncio.sleep(...)`",
        "socket.socket": "use the asyncio stream API",
        "socket.create_connection": "use `asyncio.open_connection`",
        "urllib.request.urlopen": "sync HTTP blocks the loop",
        "subprocess.run": "use `asyncio.create_subprocess_exec`",
        "subprocess.call": "use `asyncio.create_subprocess_exec`",
        "subprocess.check_call": "use `asyncio.create_subprocess_exec`",
        "subprocess.check_output": "use `asyncio.create_subprocess_exec`",
        "subprocess.Popen": "use `asyncio.create_subprocess_exec`",
        "os.system": "use `asyncio.create_subprocess_exec`",
    }
    #: direct kernel invocation: these synchronous methods run a full
    #: vectorized merge (or a cross-process pool dispatch) per call
    _KERNEL_METHODS = ("query_batch",)

    def applies_to(self, path: str) -> bool:
        return path.endswith(("serve/async_service.py", "serve/http.py"))

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_async_body(ctx, node)

    def _check_async_body(
        self, ctx: "FileContext", func: ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        for node in _walk_excluding_nested_defs(func.body):
            if isinstance(node, ast.Call):
                call = node
                awaited = self._parent_awaits(func, call)
                name = dotted_name(call.func)
                if name in self._BLOCKING:
                    yield self.finding(
                        ctx, call.lineno,
                        f"{name}() blocks the event loop inside async "
                        f"{func.name}() — {self._BLOCKING[name]}",
                    )
                elif (
                    not awaited
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in self._KERNEL_METHODS
                ):
                    yield self.finding(
                        ctx, call.lineno,
                        f"direct .{call.func.attr}(...) kernel call inside "
                        f"async {func.name}() — dispatch it through "
                        "loop.run_in_executor (or await an async service)",
                    )

    @staticmethod
    def _parent_awaits(func: ast.AsyncFunctionDef, call: ast.Call) -> bool:
        """Whether ``call`` is the direct operand of an ``await``."""
        for node in ast.walk(func):
            if isinstance(node, ast.Await) and node.value is call:
                return True
        return False


# ----------------------------------------------------------------------
# R006 — no bare except; raised project errors derive from repro.errors
# ----------------------------------------------------------------------
class TypedErrorsRule(Rule):
    """Bare ``except:`` is banned; library raises use the typed hierarchy.

    The serving path's failure mapping (429/504/500/400) works because
    every failure carries a precise type; a ``raise ValueError`` deep in
    the library surfaces as an untyped 500 and a bare ``except:`` eats
    ``KeyboardInterrupt``/``SystemExit``.  ``NotImplementedError`` (abstract
    methods) and ``AssertionError`` (harness self-checks) stay allowed.
    """

    rule_id = "R006"
    severity = Severity.ERROR
    title = "bare except / untyped raise"

    _DISALLOWED_BUILTINS = {
        "Exception", "BaseException", "RuntimeError", "ValueError",
        "TypeError", "KeyError", "IndexError", "OSError", "IOError",
        "ArithmeticError", "LookupError", "StopIteration",
    }

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    ctx, node.lineno,
                    "bare `except:` swallows KeyboardInterrupt/SystemExit — "
                    "catch `Exception` (or a precise type) instead",
                )
        if not _in_dir(ctx.path, "src"):
            return  # the derivation contract binds library code only
        local_ok = self._repro_derived_classes(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name: str | None = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name is None:
                continue  # re-raise of a caught variable / dotted name
            if name in self._DISALLOWED_BUILTINS and name not in local_ok:
                yield self.finding(
                    ctx, node.lineno,
                    f"raise {name} from library code — raise a subclass of "
                    "repro.errors.ReproError so API boundaries can catch one "
                    "type",
                )

    @staticmethod
    def _repro_derived_classes(tree: ast.Module) -> set[str]:
        """Names of in-module classes that (transitively) reach repro.errors."""
        imported: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "repro.errors":
                imported.update(alias.asname or alias.name for alias in node.names)
        bases: dict[str, list[str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [
                    base_name
                    for base in node.bases
                    if (base_name := dotted_name(base)) is not None
                ]
        derived = set(imported)
        changed = True
        while changed:
            changed = False
            for name, parents in bases.items():
                if name in derived:
                    continue
                for parent in parents:
                    tail = parent.rsplit(".", 1)[-1]
                    if parent in derived or tail in derived or parent.startswith("repro.errors."):
                        derived.add(name)
                        changed = True
                        break
        return derived


# ----------------------------------------------------------------------
# R007 — spawn targets must be module-level callables
# ----------------------------------------------------------------------
class SpawnPicklableRule(Rule):
    """``Process(target=...)`` must reference a module-level function.

    The build and serve pools use the spawn start method (fork is unsafe
    under threads and unavailable on macOS/Windows defaults); spawn pickles
    the target *by module-qualified name*, so lambdas, closures and bound
    methods die at ``process.start()`` — but only at runtime, on the
    platform that spawns.  This makes it a lint error everywhere.
    """

    rule_id = "R007"
    severity = Severity.ERROR
    title = "spawn target is not a module-level callable"

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        module_level = {
            node.name
            for node in ctx.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        nested: set[str] = set()
        for scope, body in iter_scopes(ctx.tree):
            if isinstance(scope, ast.Module):
                continue
            for stmt in _walk_excluding_nested_defs(body):
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nested.add(stmt.name)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func_name = dotted_name(node.func)
            if func_name is None or func_name.rsplit(".", 1)[-1] != "Process":
                continue
            for kw in node.keywords:
                if kw.arg != "target":
                    continue
                target = kw.value
                if isinstance(target, ast.Lambda):
                    yield self.finding(
                        ctx, target.lineno,
                        "Process target is a lambda — spawn pickles targets "
                        "by module-qualified name; use a module-level def",
                    )
                elif isinstance(target, ast.Name):
                    if target.id in nested and target.id not in module_level:
                        yield self.finding(
                            ctx, target.lineno,
                            f"Process target {target.id!r} is a nested "
                            "function — spawn cannot pickle closures; move it "
                            "to module level",
                        )
                elif isinstance(target, ast.Attribute):
                    base = dotted_name(target.value)
                    if base == "self" or (base or "").startswith("self."):
                        yield self.finding(
                            ctx, target.lineno,
                            f"Process target is the bound method "
                            f"{dotted_name(target)!r} — spawn must pickle the "
                            "whole instance; use a module-level def taking "
                            "explicit arguments",
                        )


# ----------------------------------------------------------------------
# R008 — library code uses monotonic clocks and never prints
# ----------------------------------------------------------------------
class MonotonicNoPrintRule(Rule):
    """No ``time.time()`` durations and no ``print()`` in library code.

    Every latency the observability layer reports — trace spans, build
    profiles, histogram observations — must come from ``perf_counter``;
    one ``time.time()`` interval in the middle silently mixes wall-clock
    (NTP steps, negative durations) into otherwise-monotonic data.
    Wall-clock *timestamps* are fine, but the deterministic spelling for
    those is ``datetime.now(timezone.utc)``, so ``time.time()`` is banned
    outright in ``src/``.

    ``print()`` in library code bypasses the structured logging/tracing
    path and corrupts machine-read stdout (the CLI's table/csv/json
    output, the CI port-discovery line).  CLI entry points (``cli.py``)
    and the devtools renderers own stdout and stay exempt.
    """

    rule_id = "R008"
    severity = Severity.ERROR
    title = "wall-clock duration or print() in library code"

    def applies_to(self, path: str) -> bool:
        return _in_dir(path, "src")

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        print_exempt = ctx.path.endswith("/cli.py") or _in_dir(ctx.path, "devtools")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name == "time.time":
                yield self.finding(
                    ctx, node.lineno,
                    "time.time() in library code — durations must use "
                    "time.perf_counter(); wall-clock timestamps must use "
                    "datetime.now(timezone.utc)",
                )
            elif (
                not print_exempt
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    ctx, node.lineno,
                    "print() in library code — emit through the repro.obs "
                    "tracer or the logging module; only cli.py and the "
                    "devtools renderers own stdout",
                )


# ----------------------------------------------------------------------
# R009 — shard fleet manifests flow through the canonical helpers
# ----------------------------------------------------------------------
class FleetManifestRule(Rule):
    """Fleet/segment manifests are produced and consumed only canonically.

    The sharded serving path hands one manifest dict across three process
    boundaries (publisher -> pool -> spawned worker).  Its schema is
    fenced by ``core/store.build_fleet_manifest`` /
    ``check_fleet_manifest`` / ``is_fleet_manifest``; a hand-rolled
    manifest dict or a string-compare against the format tag would
    silently fork the schema and break attach on the other side of the
    boundary.  Two shapes are flagged outside the owning modules:

    * the fleet format tag ``"repro-fleet"`` as a string literal anywhere
      but ``core/store.py`` — sniffing must call ``is_fleet_manifest``,
      construction ``build_fleet_manifest``;
    * a dict literal carrying a constant ``"format"`` key together with
      the manifest payload keys (``"shards"``/``"bounds"`` for fleets,
      ``"shm_name"`` for segments) anywhere but ``core/store.py`` and
      ``serve/shm.py`` — e.g. an ad-hoc JSON manifest assembled in the
      pool or CLI.  Augmenting a canonical manifest via ``dict(manifest,
      hot=...)`` stays legal: a call is not a dict literal.
    """

    rule_id = "R009"
    severity = Severity.ERROR
    title = "ad-hoc shard/segment manifest outside the canonical helpers"

    _FLEET_TAG = "repro-fleet"
    _FLEET_KEYS = frozenset({"shards", "bounds"})
    _SEGMENT_KEYS = frozenset({"shm_name"})

    def applies_to(self, path: str) -> bool:
        return _in_dir(path, "src") and not _in_dir(path, "devtools")

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        owns_fleet = ctx.path.endswith("core/store.py")
        owns_segment = owns_fleet or ctx.path.endswith("serve/shm.py")
        for node in ast.walk(ctx.tree):
            if (
                not owns_fleet
                and isinstance(node, ast.Constant)
                and node.value == self._FLEET_TAG
            ):
                yield self.finding(
                    ctx, node.lineno,
                    f'fleet format tag "{self._FLEET_TAG}" hard-coded — '
                    "sniff with repro.core.store.is_fleet_manifest() and "
                    "build with build_fleet_manifest(); the tag lives only "
                    "in core/store.py",
                )
            elif isinstance(node, ast.Dict):
                keys = {
                    key.value
                    for key in node.keys
                    if isinstance(key, ast.Constant) and isinstance(key.value, str)
                }
                if "format" not in keys:
                    continue
                if not owns_fleet and keys & self._FLEET_KEYS:
                    yield self.finding(
                        ctx, node.lineno,
                        "ad-hoc fleet manifest dict — only "
                        "core/store.build_fleet_manifest() may assemble the "
                        '{"format", "bounds", "shards"} schema; augment an '
                        "existing manifest with dict(manifest, ...) instead",
                    )
                elif not owns_segment and keys & self._SEGMENT_KEYS:
                    yield self.finding(
                        ctx, node.lineno,
                        "ad-hoc shm segment manifest dict — only "
                        "serve/shm.py may assemble the "
                        '{"format", "shm_name", ...} schema',
                    )


#: rule singletons, in report order
ALL_RULES: tuple[Rule, ...] = (
    ShmReleaseRule(),
    PipePurityRule(),
    ExplicitDtypeRule(),
    DeterministicTestRule(),
    AsyncNoBlockRule(),
    TypedErrorsRule(),
    SpawnPicklableRule(),
    MonotonicNoPrintRule(),
    FleetManifestRule(),
)


def rules_by_id() -> dict[str, Rule]:
    """``{"R001": <rule>, ...}`` for subset selection and docs."""
    return {rule.rule_id: rule for rule in ALL_RULES}
