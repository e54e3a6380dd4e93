"""The rule catalogue: one class per enforced invariant.

Each rule is a small AST check over one file, scoped to the part of the
tree where its contract applies (``scope``) minus the modules that
legitimately implement the primitive it polices (``allow``).  Paths are
matched as POSIX-style strings relative to the lint root, so the same
rule definitions work on the real repository and on the synthetic
fixture trees the test suite builds in temporary directories.

The catalogue (the PR-1–4 contract each rule guards):

========  =============================================================
RL001     No global RNG.  Legacy ``numpy.random.*`` draws and the
          stdlib :mod:`random` module carry hidden process-wide state
          that breaks seed determinism; randomness must route through
          :func:`repro.utils.ensure_rng` or
          :func:`repro.utils.spawn_seed_sequences` (:mod:`repro.utils`
          alone may construct generators).
RL002     No wall clock or OS entropy in solver code.  ``time.time``,
          ``datetime.now`` and ``os.urandom`` make solver output depend
          on when/where it ran; only the observability and serving
          layers may read the clock.
RL003     No raw file writes inside ``src/repro`` outside
          :mod:`repro.resilience.atomic`.  A plain ``open(.., "w")`` or
          ``json.dump`` can be killed mid-write and leave a truncated
          artifact; persistence must go through ``atomic_write_*``.
RL004     No blind exception handling.  A bare ``except:`` or an
          ``except Exception: pass`` hides infrastructure failures the
          resilience layer is designed to surface; raising builtin
          ``Exception``/``RuntimeError`` bypasses the typed
          :mod:`repro.errors` surface callers are promised.
RL005     Metric-name literals passed to :mod:`repro.obs` must be
          dotted lowercase (``solver.phase_name``), the registered
          convention every run report and dashboard keys on.
RL006     Checkpoint writers must thread a ``config=`` fingerprint;
          a checkpoint without one cannot reject a resume under
          different hyperparameters, silently voiding the bit-for-bit
          resume guarantee.
RL201     No blocking calls inside ``async def``.  ``open``,
          ``time.sleep``, ``socket.*``, ``subprocess.*`` and direct
          numpy kernel calls stall the event loop for every connection;
          engine work must route through the worker-thread offload
          (``asyncio.to_thread`` / the server's ``_in_worker``).
RL202     No ``await`` while holding a synchronous lock.  A coroutine
          parked at an ``await`` inside ``with some_lock:`` keeps every
          other task out of the lock for an unbounded time — the asyncio
          analogue of holding a spinlock across a syscall.
RL203     No fire-and-forget ``asyncio.create_task``.  A task whose
          handle is dropped can be garbage-collected mid-flight and its
          exceptions are silently lost; keep the handle and await it or
          register a done-callback.
RL301     Versioned format strings (``repro.<pkg>/<name>/v<N>``) may
          only be written literally in :mod:`repro.contracts`; all
          other code imports the registered constant, so typos and
          version drift are structurally impossible.
RL000     Pragma hygiene (implicit): a ``# repro: noqa-RLxxx`` pragma
          must name a known rule, carry a non-empty reason, and
          actually suppress something.
========  =============================================================

Whole-program rules (RL101/RL102 layering and cycles, RL302 registry
loader coverage, RL401/RL402 obs-name conflicts) live in
:mod:`repro.lint.program` — they need the project import graph, not a
single file's AST.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .engine import FileContext

__all__ = [
    "PRAGMA_RE",
    "PROGRAM_RULE_IDS",
    "RULES",
    "Rule",
    "Violation",
    "rule_catalogue",
]

#: Rule ids implemented by the whole-program analyzer
#: (:mod:`repro.lint.program`).  Listed here so the per-file engine can
#: treat pragmas naming them as known-but-not-run instead of typos.
PROGRAM_RULE_IDS = ("RL101", "RL102", "RL302", "RL401", "RL402")

#: Suppression pragma: a ``repro: noqa-`` comment naming one or more
#: comma-separated rule ids, followed by a mandatory reason — a
#: reasonless pragma is itself reported under RL000 and suppresses
#: nothing.
PRAGMA_RE = re.compile(
    r"#\s*repro:\s*noqa-((?:[A-Z]{2}\d{3})(?:\s*,\s*[A-Z]{2}\d{3})*)"
    r"[ \t]*(.*?)\s*$")


@dataclass(frozen=True)
class Violation:
    """One rule hit at ``path:line:col``."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def location(self) -> str:
        """``file:line:col`` form used by the human reporter."""
        return f"{self.path}:{self.line}:{self.col}"


def _match_any(path: str, patterns: Sequence[str]) -> bool:
    """True when ``path`` falls under any prefix/exact pattern.

    A pattern ending in ``/`` matches the whole subtree; otherwise it
    must match the path exactly.
    """
    for pattern in patterns:
        if pattern.endswith("/"):
            if path.startswith(pattern):
                return True
        elif path == pattern:
            return True
    return False


class Rule:
    """Base rule: id/title/contract metadata plus path scoping.

    Subclasses implement :meth:`check` over a parsed
    :class:`~repro.lint.engine.FileContext`.

    Attributes:
        id: stable ``RLxxx`` identifier (pragma and report currency).
        title: one-line human name.
        guards: the PR-1–4 contract this rule protects (documentation).
        scope: path patterns the rule applies to (empty = every file).
        allow: path patterns exempt because they *implement* the
            primitive the rule polices elsewhere.
    """

    id: str = "RL000"
    title: str = ""
    guards: str = ""
    scope: Sequence[str] = ()
    allow: Sequence[str] = ()

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on ``path`` (scope minus allowlist)."""
        if self.scope and not _match_any(path, self.scope):
            return False
        return not _match_any(path, self.allow)

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        """Yield every violation of this rule in one parsed file."""
        raise NotImplementedError

    def violation(self, ctx: "FileContext", node: ast.AST,
                  message: str) -> Violation:
        """Build a :class:`Violation` anchored at ``node``."""
        return Violation(self.id, ctx.path, getattr(node, "lineno", 1),
                         getattr(node, "col_offset", 0), message)


# --------------------------------------------------------------------- RL001
#: Legacy ``numpy.random`` surface backed by the hidden global
#: ``RandomState`` (or constructing one): non-reproducible under fan-out.
_NUMPY_LEGACY = frozenset({
    "seed", "get_state", "set_state", "rand", "randn", "randint",
    "random", "random_sample", "random_integers", "ranf", "sample",
    "choice", "bytes", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "beta", "binomial", "dirichlet", "exponential",
    "gamma", "geometric", "laplace", "lognormal", "multinomial",
    "multivariate_normal", "poisson", "power", "RandomState",
})

#: Sanctioned generator constructors; allowed only in the module that
#: owns seeding (everything else receives a Generator/SeedSequence).
#: Raw bit-generator classes are included: a blocked kernel that builds
#: its own ``PCG64`` for batched draws sidesteps the per-subproblem
#: ``SeedSequence.spawn`` discipline and breaks seed determinism.
_NUMPY_CONSTRUCTORS = frozenset({
    "default_rng", "SeedSequence", "Generator",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
})


class NoGlobalRng(Rule):
    """RL001 — all randomness flows through the seeding discipline."""

    id = "RL001"
    title = "no global RNG"
    guards = ("PR-2 bit-deterministic seeding: SeedSequence.spawn per "
              "subproblem, one run per seed")
    #: Constructor calls are additionally confined to this module.
    constructor_allow = ("src/repro/utils.py",)
    constructor_scope = ("src/repro/",)

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        for node in ctx.walk():
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from self._check_import(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    def _check_import(self, ctx: "FileContext",
                      node: ast.AST) -> Iterator[Violation]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield self.violation(
                        ctx, node,
                        "stdlib 'random' is process-global state; use "
                        "repro.utils.ensure_rng / spawn_seed_sequences")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module == "random":
            yield self.violation(
                ctx, node,
                "stdlib 'random' is process-global state; use "
                "repro.utils.ensure_rng / spawn_seed_sequences")

    def _check_call(self, ctx: "FileContext",
                    node: ast.Call) -> Iterator[Violation]:
        resolved = ctx.resolve(node.func)
        if resolved is None:
            return
        parts = resolved.split(".")
        if len(parts) >= 3 and parts[0] == "numpy" and parts[1] == "random":
            name = parts[2]
            if name in _NUMPY_LEGACY:
                yield self.violation(
                    ctx, node,
                    f"numpy.random.{name} uses the hidden global "
                    f"RandomState; derive a Generator via "
                    f"repro.utils.ensure_rng or spawn_seed_sequences")
            elif name in _NUMPY_CONSTRUCTORS \
                    and _match_any(ctx.path, self.constructor_scope) \
                    and not _match_any(ctx.path, self.constructor_allow):
                yield self.violation(
                    ctx, node,
                    f"numpy.random.{name} constructed outside repro.utils; "
                    f"accept a seed and call "
                    f"repro.utils.ensure_rng / spawn_seed_sequences")
        elif resolved.startswith("random."):
            yield self.violation(
                ctx, node,
                f"{resolved} draws from the process-global stdlib RNG; "
                f"use repro.utils.ensure_rng / spawn_seed_sequences")


# --------------------------------------------------------------------- RL002
#: Wall-clock and OS-entropy calls forbidden in solver code.  Monotonic
#: timing (perf_counter/monotonic) is deliberately absent: durations do
#: not leak into solver output.
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.datetime.today",
    "datetime.date.today", "os.urandom", "uuid.uuid1", "uuid.uuid4",
})


class NoWallClock(Rule):
    """RL002 — solver output never depends on when/where it ran."""

    id = "RL002"
    title = "no wall clock or OS entropy in solver code"
    guards = ("PR-1/PR-3 reproducible runs: telemetry and serving may "
              "timestamp, solvers may not")
    scope = ("src/repro/",)
    allow = ("src/repro/obs/", "src/repro/serve/")

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved in _WALL_CLOCK or (
                    resolved is not None
                    and resolved.startswith("secrets.")):
                yield self.violation(
                    ctx, node,
                    f"{resolved} injects wall-clock/entropy into solver "
                    f"code; only repro.obs and repro.serve may timestamp")


# --------------------------------------------------------------------- RL003
_WRITE_FUNCS = frozenset({
    "json.dump", "pickle.dump", "numpy.save", "numpy.savez",
    "numpy.savez_compressed", "numpy.savetxt", "shutil.copy",
    "shutil.copy2", "shutil.copyfile", "shutil.copyfileobj",
    "shutil.move",
})

_WRITE_MODE = re.compile(r"[wax+]")

#: ``open``-like callables whose second positional argument is a mode.
_OPEN_CALLS = frozenset({"open", "io.open", "os.fdopen", "gzip.open",
                         "bz2.open", "lzma.open"})


class AtomicWritesOnly(Rule):
    """RL003 — persistence in the library goes through atomic_write_*."""

    id = "RL003"
    title = "no raw file writes outside resilience/atomic.py"
    guards = ("PR-3 atomic-only persistence: crash mid-write never "
              "leaves a truncated artifact")
    scope = ("src/repro/",)
    allow = ("src/repro/resilience/atomic.py",)

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved in _WRITE_FUNCS:
                yield self.violation(
                    ctx, node,
                    f"{resolved} writes a file directly; route it through "
                    f"repro.resilience.atomic (atomic_write_*)")
                continue
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("write_text", "write_bytes"):
                yield self.violation(
                    ctx, node,
                    f".{node.func.attr}() writes a file directly; route it "
                    f"through repro.resilience.atomic (atomic_write_*)")
                continue
            name = resolved
            if name is None and isinstance(node.func, ast.Name):
                name = node.func.id
            if name in _OPEN_CALLS and self._write_mode(node):
                yield self.violation(
                    ctx, node,
                    f"{name}(..., {self._write_mode(node)!r}) opens a file "
                    f"for writing; use repro.resilience.atomic instead")
            elif isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "open" and self._write_mode(node):
                yield self.violation(
                    ctx, node,
                    f".open(..., {self._write_mode(node)!r}) opens a file "
                    f"for writing; use repro.resilience.atomic instead")

    @staticmethod
    def _write_mode(node: ast.Call) -> Optional[str]:
        """The literal mode string when it requests write access."""
        mode: Optional[ast.expr] = None
        if len(node.args) >= 2:
            mode = node.args[1]
        else:
            for keyword in node.keywords:
                if keyword.arg == "mode":
                    mode = keyword.value
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str) \
                and _WRITE_MODE.search(mode.value):
            return mode.value
        return None


# --------------------------------------------------------------------- RL004
_BLIND_RAISES = frozenset({"Exception", "BaseException", "RuntimeError"})


class TypedErrorsOnly(Rule):
    """RL004 — no swallowed exceptions, no untyped raises."""

    id = "RL004"
    title = "no bare/blind exception handling"
    guards = ("PR-3 typed error surfaces: failures degrade or raise "
              "repro.errors classes, never vanish")
    scope = ("src/repro/",)

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        for node in ctx.walk():
            if isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(ctx, node)
            elif isinstance(node, ast.Raise):
                yield from self._check_raise(ctx, node)

    def _check_handler(self, ctx: "FileContext",
                       node: ast.ExceptHandler) -> Iterator[Violation]:
        if node.type is None:
            yield self.violation(
                ctx, node,
                "bare 'except:' catches SystemExit/KeyboardInterrupt; "
                "name the exception (prefer repro.errors classes)")
            return
        if self._catches_everything(node.type) and self._swallows(node.body):
            yield self.violation(
                ctx, node,
                "'except Exception' that only passes hides real failures; "
                "handle, log, or re-raise a repro.errors class")

    @staticmethod
    def _catches_everything(type_node: ast.expr) -> bool:
        names = []
        if isinstance(type_node, ast.Tuple):
            names = [elt.id for elt in type_node.elts
                     if isinstance(elt, ast.Name)]
        elif isinstance(type_node, ast.Name):
            names = [type_node.id]
        return any(name in ("Exception", "BaseException") for name in names)

    @staticmethod
    def _swallows(body: List[ast.stmt]) -> bool:
        """True when the handler body does nothing observable."""
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if isinstance(stmt, ast.Expr) \
                    and isinstance(stmt.value, ast.Constant):
                continue  # docstring / ellipsis
            return False
        return True

    def _check_raise(self, ctx: "FileContext",
                     node: ast.Raise) -> Iterator[Violation]:
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name) and exc.id in _BLIND_RAISES:
            yield self.violation(
                ctx, node,
                f"raise {exc.id} bypasses the typed error surface; raise "
                f"a class from repro.errors instead")


# --------------------------------------------------------------------- RL005
#: Registered metric-name shape: at least two dotted lowercase segments.
_METRIC_NAME = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")
#: Characters permitted in the literal fragments of an f-string name.
_METRIC_FRAGMENT = re.compile(r"^[a-z0-9_.]*$")

_OBS_FUNCS = re.compile(
    r"^repro\.obs(\.registry)?\.(inc|set_gauge|observe|timed|"
    r"timed_function)$")


class DottedMetricNames(Rule):
    """RL005 — every obs metric literal is dotted lowercase."""

    id = "RL005"
    title = "obs metric names dotted lowercase"
    guards = ("PR-1 metrics registry: run reports and dashboards key on "
              "the solver.metric_name convention")
    scope = ("src/repro/",)

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        for node in ctx.walk():
            if not isinstance(node, ast.Call) or not node.args:
                continue
            resolved = ctx.resolve(node.func)
            if resolved is None or not _OBS_FUNCS.match(resolved):
                continue
            yield from self._check_name(ctx, node.args[0])

    def _check_name(self, ctx: "FileContext",
                    arg: ast.expr) -> Iterator[Violation]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if not _METRIC_NAME.match(arg.value):
                yield self.violation(
                    ctx, arg,
                    f"metric name {arg.value!r} is not dotted lowercase "
                    f"(expected e.g. 'solver.phase_name')")
        elif isinstance(arg, ast.JoinedStr):
            for piece in arg.values:
                if isinstance(piece, ast.Constant) \
                        and isinstance(piece.value, str) \
                        and not _METRIC_FRAGMENT.match(piece.value):
                    yield self.violation(
                        ctx, arg,
                        f"metric name fragment {piece.value!r} is not "
                        f"dotted lowercase")


# --------------------------------------------------------------------- RL006
_CHECKPOINT_FACTORIES = re.compile(
    r"^repro\.resilience(\.checkpoint)?\.(checkpoint_in|CheckpointWriter)$")

#: Positional index of ``config`` in each factory's signature.
_CONFIG_POSITION = {"checkpoint_in": 3, "CheckpointWriter": 2}


class CheckpointsCarryFingerprint(Rule):
    """RL006 — checkpoint writers always get a config fingerprint."""

    id = "RL006"
    title = "checkpoint writers thread config_fingerprint"
    guards = ("PR-3 guarded resume: a config-less checkpoint cannot "
              "reject a resume under different hyperparameters")
    scope = ("src/repro/",)
    allow = ("src/repro/resilience/",)

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved is None:
                continue
            match = _CHECKPOINT_FACTORIES.match(resolved)
            if match is None:
                continue
            factory = match.group(2)
            if len(node.args) > _CONFIG_POSITION[factory]:
                continue
            if any(keyword.arg == "config" for keyword in node.keywords):
                continue
            yield self.violation(
                ctx, node,
                f"{factory}(...) without config=: the checkpoint cannot "
                f"verify it is resumed under the same hyperparameters "
                f"and seed (pass a config_fingerprint-able dict)")


# --------------------------------------------------------------------- RL201
#: Calls that block the thread they run on.  Inside an ``async def``
#: every one of these stalls the event loop — and with it every open
#: connection — for its full duration.
_BLOCKING_EXACT = frozenset({
    "time.sleep", "io.open", "os.system", "os.popen", "select.select",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
})

#: Resolved-name prefixes that are blocking wholesale: raw sockets and
#: direct numpy kernels (an ``engine.search`` fanned out through the
#: worker offload is fine; ``numpy.argsort`` on the loop thread is not).
_BLOCKING_PREFIXES = ("socket.", "numpy.", "urllib.request.", "requests.")

#: Builtins that block when called bare (no import needed to resolve).
_BLOCKING_BUILTINS = frozenset({"open", "input"})


def _async_body_nodes(func: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Nodes that execute on the event loop inside ``func``.

    Nested function definitions are pruned: a nested sync ``def`` is
    worker-offload material (its body runs wherever it is called, and
    the established idiom ships it through ``asyncio.to_thread``), and a
    nested ``async def`` is visited as its own function by the rule's
    outer loop.
    """
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class NoBlockingInAsync(Rule):
    """RL201 — the event loop thread never blocks on I/O or kernels."""

    id = "RL201"
    title = "no blocking calls inside async def"
    guards = ("PR-8 asyncio serving: a blocked loop stalls every "
              "connection; engine work goes through the worker-thread "
              "offload")
    scope = ("src/repro/",)

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        for node in ctx.walk():
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for inner in _async_body_nodes(node):
                if isinstance(inner, ast.Call):
                    yield from self._check_call(ctx, inner)

    def _check_call(self, ctx: "FileContext",
                    node: ast.Call) -> Iterator[Violation]:
        resolved = ctx.resolve(node.func)
        blocking = None
        if resolved is not None:
            if resolved in _BLOCKING_EXACT:
                blocking = resolved
            else:
                for prefix in _BLOCKING_PREFIXES:
                    if resolved.startswith(prefix):
                        blocking = resolved
                        break
        elif isinstance(node.func, ast.Name) \
                and node.func.id in _BLOCKING_BUILTINS:
            blocking = node.func.id
        if blocking is not None:
            yield self.violation(
                ctx, node,
                f"{blocking}(...) blocks the event loop inside an "
                f"async def; offload it via asyncio.to_thread (the "
                f"server's _in_worker helper)")


# --------------------------------------------------------------------- RL202
_SYNC_LOCK_FACTORIES = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
})


def _looks_like_sync_lock(ctx: "FileContext", expr: ast.expr) -> bool:
    """Whether a ``with`` context expression is plausibly a sync lock.

    Matches a direct ``threading.Lock()``-style construction (resolved
    through imports) or a name/attribute whose final identifier ends in
    ``lock`` (``self._lock``, ``swap_lock``) — the codebase's naming
    convention for threading locks.  ``asyncio`` primitives are used
    with ``async with`` and never reach this check.
    """
    if isinstance(expr, ast.Call):
        resolved = ctx.resolve(expr.func)
        return resolved in _SYNC_LOCK_FACTORIES
    terminal = None
    if isinstance(expr, ast.Attribute):
        terminal = expr.attr
    elif isinstance(expr, ast.Name):
        terminal = expr.id
    return terminal is not None and terminal.lower().endswith("lock")


class NoAwaitUnderLock(Rule):
    """RL202 — never park a coroutine while holding a sync lock."""

    id = "RL202"
    title = "no await while a synchronous lock is held"
    guards = ("PR-8/PR-9 hot-swap drain: an await under a threading "
              "lock can starve every other task (and the swap path) "
              "for an unbounded time")
    scope = ("src/repro/",)

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        for node in ctx.walk():
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for inner in _async_body_nodes(node):
                # ast.With only: `async with` (ast.AsyncWith) wraps
                # asyncio primitives, which yield instead of blocking.
                if not isinstance(inner, ast.With):
                    continue
                if not any(_looks_like_sync_lock(ctx, item.context_expr)
                           for item in inner.items):
                    continue
                for sub in ast.walk(inner):
                    if isinstance(sub, ast.Await):
                        yield self.violation(
                            ctx, sub,
                            "await while a synchronous lock is held: "
                            "other tasks (and the lock) stall until "
                            "this coroutine resumes; release the lock "
                            "first or use an asyncio primitive")
                        break


# --------------------------------------------------------------------- RL203
class NoDroppedTasks(Rule):
    """RL203 — every created task keeps a handle."""

    id = "RL203"
    title = "no fire-and-forget asyncio.create_task"
    guards = ("PR-8 graceful drain: a dropped task handle can be "
              "garbage-collected mid-flight and its exceptions are "
              "silently lost")
    scope = ("src/repro/",)

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        for node in ctx.walk():
            if not isinstance(node, ast.Expr) \
                    or not isinstance(node.value, ast.Call):
                continue
            call = node.value
            resolved = ctx.resolve(call.func)
            is_create = resolved in ("asyncio.create_task",
                                     "asyncio.ensure_future")
            if not is_create and isinstance(call.func, ast.Attribute) \
                    and call.func.attr == "create_task":
                is_create = True
            if is_create:
                yield self.violation(
                    ctx, node,
                    "create_task result is dropped; keep the handle "
                    "(track it in a set, await it, or add a "
                    "done-callback) so the task cannot be collected "
                    "mid-flight and its exception is observed")


# --------------------------------------------------------------------- RL301
#: A versioned format string, exactly (docstrings that merely mention a
#: format inside prose never match the full-string anchors).
_FORMAT_LITERAL = re.compile(
    r"^repro\.[a-z_]+(?:\.[a-z_]+)*/[a-z0-9-]+/v[0-9]+$")


class RegistryLiteralsOnly(Rule):
    """RL301 — versioned format strings live only in repro.contracts."""

    id = "RL301"
    title = "schema literals only in the contracts registry"
    guards = ("PR-10 schema registry: a format string typo'd or drifted "
              "at a call site is a latent decode failure; importing the "
              "registered constant makes drift structurally impossible")
    scope = ("src/repro/",)
    allow = ("src/repro/contracts.py",)

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        for node in ctx.walk():
            if not isinstance(node, ast.Constant) \
                    or not isinstance(node.value, str):
                continue
            if not _FORMAT_LITERAL.match(node.value):
                continue
            yield self.violation(ctx, node, self._message(node.value))

    @staticmethod
    def _message(literal: str) -> str:
        try:
            from ..contracts import REGISTRY, constant_name_of
        except ImportError:  # fixture trees without the package
            REGISTRY, constant_name_of = {}, lambda fmt: None
        if literal in REGISTRY:
            constant = constant_name_of(literal)
            return (f"format literal {literal!r} duplicates the "
                    f"registry; import {constant} from repro.contracts")
        return (f"format literal {literal!r} is not registered in "
                f"repro.contracts (typo, drifted version, or an "
                f"unregistered format); register it and import the "
                f"constant")


#: The catalogue, in report order.
RULES: List[Rule] = [
    NoGlobalRng(),
    NoWallClock(),
    AtomicWritesOnly(),
    TypedErrorsOnly(),
    DottedMetricNames(),
    CheckpointsCarryFingerprint(),
    NoBlockingInAsync(),
    NoAwaitUnderLock(),
    NoDroppedTasks(),
    RegistryLiteralsOnly(),
]


def rule_catalogue() -> Dict[str, Rule]:
    """Rule id → rule instance for the shipped catalogue."""
    return {rule.id: rule for rule in RULES}
