#!/usr/bin/env python3
"""Keep the documentation and the code from drifting apart.

Nineteen checks, all run in CI next to the bench gate::

    python tools/check_docs.py

1. **Metric-name contract.**  The metric table in
   ``docs/OBSERVABILITY.md`` must list exactly the names declared in
   ``repro.obs.names.METRICS``, with matching kinds.  A metric renamed
   in code but not in the docs (or vice versa) fails here; a metric
   declared but never recorded fails ``tests/obs/test_metrics_names.py``
   instead.

2. **Intra-repository markdown links.**  Every relative link target in
   the repository's markdown files must exist (anchors stripped).
   External links (``http(s)://``, ``mailto:``) and pure anchors are
   ignored.

3. **Package inventory.**  Every ``src/repro/*`` package must have a
   ``repro.<name>`` row in ARCHITECTURE.md's package inventory — a new
   subsystem that never makes it into the map fails here.

4. **CLI flags.**  Every ``--flag`` mentioned in backticks anywhere in
   the markdown must be defined by this repository's entry points
   (``repro.__main__``, ``benchmarks/**/*.py``, ``tools/*.py``) or sit on
   the short external-tool allowlist — documentation of a renamed or
   removed flag fails here.

5. **Machine and obs API.**  In ``docs/API.md``, ``docs/PLANNER.md``
   and ``docs/OBSERVABILITY.md``, every backticked ``Class.member`` and
   every ``name=`` keyword inside a backticked ``Class(...)`` whose
   class is exported by ``repro.machine`` or ``repro.obs`` must resolve
   against that class (attribute, dataclass field or ``__init__``
   parameter), and every ``name=`` keyword inside a backticked
   ``.method(...)`` must be a parameter of that method — on the class
   written before the dot, or, where the table row leaves the class
   out, on at least one exported class that has the method —
   documentation of a removed method, constructor option or method
   option fails here.

6. **Environment variables.**  Every ``REPRO_*`` variable named in
   ``docs/*.md``, ``README.md`` or ``DESIGN.md`` must be read somewhere
   under ``src/`` — a removed variable that lingers in the docs fails
   here.

7. **Span catalog.**  The span table in ``docs/OBSERVABILITY.md`` must
   list exactly the names that ``src/`` passes as string literals to
   ``obs.span(`` / ``.span(`` (the CLI's ``f"cli.{name}"`` is the
   ``cli.<stage>`` row) — a span renamed or removed in code but not in
   the docs, or the other way round, fails here.

8. **One stored form.**  A relation holds one int64 matrix (ISSUE 22),
   so nothing under ``src/`` may spell ``dtype=object`` /
   ``dtype == object``, and a relation's boxed ``.tuples`` view is read
   only by the reference algebra and the cell-network kit
   (:data:`TUPLE_READERS`) — a layer that starts asking which form it
   was handed, or walking tuples, fails here.

9. **Proof producers are an allow-list.**  ``DistinctRows`` lets rows
   into a relation without the duplicate search (ISSUE 23), so only the
   five sources that can know the rows are a set may name it
   (:data:`PROOF_PRODUCERS`): the type itself, the row-subset helpers
   of the arrays and the partitioner, the store's read of a proved
   manifest, and the executor's merge of disjoint shard pieces.  A use
   anywhere else — the server, the language front end, the generators,
   the machine, the CLI, the CSV reader: wherever rows come from
   outside — fails here.

10. **Operator facts are stated once.**  What each plan-node type is —
    its oracle, array runners, §8 cost, schema and cardinality — is one
    row of ``repro.machine.operators``, and every other layer reads the
    row.  So an ``isinstance`` test against one of the eight operator
    node types (:data:`OPERATOR_TYPES`) may appear only where the tree's
    shape is the subject (:data:`OPERATOR_BRANCHERS`): the table
    itself, the plan AST, the optimizer's rewrite rules and the shard
    planner's locality rules.  The dispatching layers (``lang/compile``,
    ``machine/device``, ``machine/physical``, and the inference now in
    the table) keep no residue; they test ``node.device_kind`` where
    they must tell a selection from array work.  A new per-type branch
    anywhere else fails here.

11. **One chunk reader.**  Every scan reads a chunk file through the
    process's chunk pool (ISSUE 34), which checks the file's size once
    and keeps the block.  So a call that opens a chunk file for reading
    — ``open(`` in a reading mode, ``np.memmap`` or ``np.fromfile`` on
    an expression that names a chunk — may appear only in the pool's
    loader (:data:`CHUNK_READER`).  A second read path forking off
    beside the pool, with its own or no size check, fails here; writing
    a chunk does not count.

12. **One run format.**  An ``EngineRun`` holds tap tables only: an
    engine hands back the tables its taps captured, never Token
    records.  So no ``EngineRun(`` call under ``src/``
    may pass ``collectors=``, and no module of the operator arrays
    (:data:`RUN_READERS`, the decode seam included) reads a run but
    through ``.verdicts`` and ``.table(edge)`` — a ``.collector(`` /
    ``.collectors`` / ``.tap(`` / ``.tap_names`` / ``.columnar`` read
    there is a second decoder path forking off beside the audited
    tables, and fails here.

13. **Observers attach to the network.**  An engine only computes; a
    run is watched on its cell network, through a
    ``SystolicSimulator``'s ``observer``.  So no function under the
    engines, the operator arrays or the pattern chip
    (:data:`COMPUTE_ONLY`) takes a parameter named ``meter`` or
    ``trace``, and only the simulator kit (:data:`OBSERVER_HOMES`)
    imports ``ComparisonWorkMeter`` or ``TraceRecorder`` — a second way
    to watch a run, threaded through the engines, fails here.

14. **One wire writer.**  ``encode_line`` writes every protocol line
    and every relation in it, rows straight from the int64 matrix of
    members, and ``decode_line`` reads every line.  So under
    ``src/repro/serve/`` only the protocol module (:data:`WIRE_CODEC`)
    imports ``json`` or calls ``dumps`` / ``loads`` / ``dump`` /
    ``load``, or turns a relation into rows — ``.tolist()``,
    ``.decoded()``, ``decode_many`` / ``decode_array``.  A second codec
    path growing beside the writer, with its own bytes, fails here.

15. **One variant choice.**  Whether a blocked op's runs are
    counter-streaming or hold B fixed (§8) is the physical planner's
    choice, priced on the span law, with no user option.  So under
    ``src/repro/machine/`` and ``src/repro/shard/`` only the planner
    (:data:`VARIANT_CHOOSER`) spells ``"fixed"``, compares a
    ``variant``, or passes a ``variant=`` that is not a name or an
    attribute handed through; only the span laws and
    ``arrays.base.grid_schedule`` (:data:`SCHEDULE_BUILDERS`) build a
    ``FixedRelationSchedule(``; and nothing under ``src/`` spells a
    ``--variant`` flag or a ``REPRO_*VARIANT*`` variable.  A second
    place that picks a variant, or a knob to force one, fails here.

16. **One disk timeline.**  §8 reads a whole cylinder in one
    revolution, so the loads of one release time that lie on one
    cylinder are one sweep, and the planner's two timelines and the
    executor must agree on every load's window.  So under
    ``src/repro/machine/`` the disk's free time (:data:`DISK_CLOCKS`:
    ``disk_free``, ``est_disk_free``) advances only through the sweep
    rule, ``repro.perf.disk.disk_sweep``: it is read only as that
    call's first argument or copied whole into a window, and it is
    assigned only a constant, that call's result, or a placed step's
    ``.end`` (the window the rule gave, replayed).  A load window
    computed by hand — ``max(disk_free, release)``, ``+= seconds`` —
    fails here.

17. **One planning snapshot.**  A compile plans from one frozen
    ``PlanningContext``, and its fingerprint is the plan-cache key, so
    the planner may read nothing the snapshot does not hold.  So the
    physical planner and the shard planner's prefetch offer
    (:data:`SNAPSHOT_READERS`) reach no disk — no ``.disk`` attribute —
    and import neither ``repro.machine.disk`` nor
    ``repro.machine.catalog`` (:data:`LIVE_MODULES`).  A planner that
    reads the live catalog beside the snapshot, which the key would not
    cover, fails here.

18. **One pricing function.**  An array op's §3–8 price — every
    device of its kind, every variant, the memory streams — is
    ``price_array_op``, which the physical planner assigns devices by
    and the shard planner weighs exchange strategies by.  So
    ``estimate_cost``, the device cost under it, is defined and called
    only in :data:`PRICER`, and nothing under ``src/repro/shard/``
    imports it.  A second cost model beside the planner's, pricing what
    the lanes never pay, fails here.

19. **The cell network only watches.**  Every array computes on the
    engines' registers; the cell network is where a run is traced or
    metered, and the reference the register stepper is held to.  So
    nothing under ``src/repro`` constructs a ``SystolicSimulator``; no
    module of ``systolic/engine/`` but the materializer
    (:data:`MATERIALIZER`) imports the cell kit
    (``repro.systolic.{cell,cells,wiring,simulator,streams,values,
    trace,metrics}``, :data:`CELL_KIT`, or a name the
    ``repro.systolic`` package re-exports from it); and no module of
    the operator arrays (:data:`KIT_FREE`) imports the kit or the
    materializer — an operator states its plan, and
    ``materialize(plan)`` is the one builder of its network.  A compute
    path that builds and drives a network again, or an operator module
    that loads the kit for every query, fails here.

Exits non-zero with one line per problem.
"""

from __future__ import annotations

import ast
import inspect
import re
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.obs.names import METRICS  # noqa: E402

OBSERVABILITY = ROOT / "docs" / "OBSERVABILITY.md"

ARCHITECTURE = ROOT / "docs" / "ARCHITECTURE.md"

#: Where ``repro.machine`` / ``repro.obs`` classes are documented member
#: by member.
API_DOCS = (
    ROOT / "docs" / "API.md", ROOT / "docs" / "PLANNER.md", OBSERVABILITY,
)

#: Where a documented ``REPRO_*`` variable must be one the code reads.
ENV_VAR_DOCS = (
    *sorted((ROOT / "docs").glob("*.md")), ROOT / "README.md",
    ROOT / "DESIGN.md",
)

#: A metric row: | `name` | kind | meaning |
_METRIC_ROW = re.compile(r"^\|\s*`([a-z_.]+)`\s*\|\s*(\w+)\s*\|")
#: Inline markdown links: [text](target).  Images share the syntax.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: A long option mentioned in docs prose: `--flag` (possibly `--flag VAL`).
_DOC_FLAG = re.compile(r"`(--[a-z0-9][a-z0-9-]*)")
#: A long option defined in an argparse entry point: "--flag".
_CODE_FLAG = re.compile(r'"(--[a-z0-9][a-z0-9-]*)"')

#: Inside one backticked span: `Class.member`, and an innermost
#: `Class(args)` (args free of parentheses), whose `name=` keywords count.
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_MEMBER = re.compile(r"\b([A-Z]\w*)\.([A-Za-z_]\w*)")
_CALL = re.compile(r"\b([A-Z]\w*)\(([^()]*)\)")
_METHOD_CALL = re.compile(r"(?:\b([A-Z]\w*))?\.([a-z_]\w*)\(([^()]*)\)")
_KEYWORD = re.compile(r"\b([A-Za-z_]\w*)=")

#: An environment variable of ours named in docs prose, and one read
#: in source: the string literal handed to ``repro.config`` / ``os.environ``.
_ENV_VAR = re.compile(r"\bREPRO_[A-Z_]+\b")
_ENV_READ = re.compile(r"""["'](REPRO_[A-Z_]+)["']""")

#: Flags of tools we document but do not own (pytest, pytest-benchmark).
_EXTERNAL_FLAGS = {"--lf", "--ff", "--benchmark-only", "--benchmark-disable"}


def documented_metrics(text: str) -> dict[str, str]:
    """``{name: kind}`` parsed from the OBSERVABILITY.md metric table."""
    found: dict[str, str] = {}
    for line in text.splitlines():
        match = _METRIC_ROW.match(line.strip())
        if match and "." in match.group(1):
            found[match.group(1)] = match.group(2)
    return found


def check_metric_table() -> list[str]:
    problems: list[str] = []
    if not OBSERVABILITY.exists():
        return [f"{OBSERVABILITY.relative_to(ROOT)} is missing"]
    documented = documented_metrics(OBSERVABILITY.read_text())
    declared = {name: kind for name, (kind, _) in METRICS.items()}
    where = OBSERVABILITY.relative_to(ROOT)
    for name in sorted(set(declared) - set(documented)):
        problems.append(
            f"{where}: metric {name!r} is declared in repro.obs.names "
            f"but missing from the metric table"
        )
    for name in sorted(set(documented) - set(declared)):
        problems.append(
            f"{where}: metric {name!r} is documented but not declared "
            f"in repro.obs.names.METRICS"
        )
    for name in sorted(set(documented) & set(declared)):
        if documented[name] != declared[name]:
            problems.append(
                f"{where}: metric {name!r} documented as "
                f"{documented[name]!r}, declared as {declared[name]!r}"
            )
    return problems


def markdown_files() -> list[Path]:
    skip_parts = {".git", ".venv", "node_modules", "__pycache__"}
    return sorted(
        path for path in ROOT.rglob("*.md")
        if not skip_parts & set(path.relative_to(ROOT).parts)
    )


def check_links() -> list[str]:
    problems: list[str] = []
    for path in markdown_files():
        for target in _LINK.findall(path.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(ROOT)}: broken link -> {target}"
                )
    return problems


def repro_packages() -> list[str]:
    """Top-level ``repro.*`` packages under ``src/``, sorted."""
    return sorted(
        entry.name
        for entry in (ROOT / "src" / "repro").iterdir()
        if entry.is_dir() and (entry / "__init__.py").exists()
    )


def check_package_inventory() -> list[str]:
    if not ARCHITECTURE.exists():
        return [f"{ARCHITECTURE.relative_to(ROOT)} is missing"]
    text = ARCHITECTURE.read_text()
    where = ARCHITECTURE.relative_to(ROOT)
    return [
        f"{where}: package 'repro.{name}' (src/repro/{name}/) has no "
        f"row in the package inventory"
        for name in repro_packages()
        if f"`repro.{name}`" not in text
    ]


def defined_flags() -> set[str]:
    """Long options defined by this repo's argparse entry points."""
    sources = [ROOT / "src" / "repro" / "__main__.py"]
    sources += sorted((ROOT / "benchmarks").rglob("*.py"))
    sources += sorted((ROOT / "tools").glob("*.py"))
    flags: set[str] = set()
    for source in sources:
        flags.update(_CODE_FLAG.findall(source.read_text()))
    return flags


def check_cli_flags() -> list[str]:
    defined = defined_flags() | _EXTERNAL_FLAGS
    problems: list[str] = []
    for path in markdown_files():
        for flag in _DOC_FLAG.findall(path.read_text()):
            if flag not in defined:
                problems.append(
                    f"{path.relative_to(ROOT)}: documents flag {flag!r}, "
                    f"which no entry point defines"
                )
    return problems


def check_api(docs=API_DOCS) -> list[str]:
    import repro.machine
    import repro.obs

    classes = {
        name: value
        for module in (repro.machine, repro.obs)
        for name, value in vars(module).items()
        if inspect.isclass(value)
    }

    def qualified(owner: str) -> str:
        package = ".".join(classes[owner].__module__.split(".")[:2])
        return f"{package}.{owner}"

    def has_member(cls: type, member: str) -> bool:
        return (
            hasattr(cls, member)
            or member in getattr(cls, "__dataclass_fields__", ())
            or re.search(rf"\bself\.{member}\b", inspect.getsource(cls))
            is not None
        )

    def open_ended(parameters) -> bool:
        return any(p.kind is p.VAR_KEYWORD for p in parameters.values())

    def stale_method_keyword(
        owner: str, method: str, keyword: str
    ) -> str | None:
        """What is wrong with a documented ``.method(keyword=)``, read
        against ``owner`` or, without one, every class with the method."""
        owners = [owner] if owner in classes else list(classes)
        signatures = [
            inspect.signature(function).parameters
            for name in owners
            if inspect.isfunction(
                function := getattr(classes[name], method, None)
            )
        ]
        if not signatures or any(
            keyword in accepted or open_ended(accepted)
            for accepted in signatures
        ):
            return None
        if owner in classes:
            return (
                f"documents `{owner}.{method}({keyword}=)`, which "
                f"{qualified(owner)} does not accept"
            )
        return (
            f"documents `.{method}({keyword}=)`, which no class of "
            f"repro.machine / repro.obs accepts"
        )

    problems: list[str] = []
    for doc in docs:
        for span in _CODE_SPAN.findall(doc.read_text()):
            for owner, method, arguments in _METHOD_CALL.findall(span):
                for keyword in _KEYWORD.findall(arguments):
                    problem = stale_method_keyword(owner, method, keyword)
                    if problem is not None:
                        problems.append(f"{doc.name}: {problem}")
            for owner, member in _MEMBER.findall(span):
                if owner in classes and not has_member(classes[owner], member):
                    problems.append(
                        f"{doc.name}: documents `{owner}.{member}`, which "
                        f"{qualified(owner)} does not have"
                    )
            # Innermost calls first, so a nested constructor's keywords
            # are not charged to the call around it.
            while (call := _CALL.search(span)) is not None:
                owner, arguments = call.groups()
                span = span[:call.start()] + "_" + span[call.end():]
                if owner not in classes:
                    continue
                accepted = inspect.signature(classes[owner]).parameters
                if open_ended(accepted):
                    continue
                for keyword in _KEYWORD.findall(arguments):
                    if keyword not in accepted:
                        problems.append(
                            f"{doc.name}: documents `{owner}({keyword}=)`, "
                            f"which {qualified(owner)} does not accept"
                        )
    return problems


def check_env_vars(docs=ENV_VAR_DOCS) -> list[str]:
    read = {
        name
        for source in (ROOT / "src").rglob("*.py")
        for name in _ENV_READ.findall(source.read_text())
    }
    return [
        f"{doc.name}: documents environment variable {name}, which "
        f"nothing under src/ reads"
        for doc in docs
        for name in sorted(set(_ENV_VAR.findall(doc.read_text())) - read)
    ]


def documented_spans(text: str) -> set[str]:
    """The names in the first column of OBSERVABILITY.md's span table."""
    lines = iter(text.splitlines())
    for line in lines:
        if line.replace(" ", "").startswith("|span|recordedby|"):
            break
    names: set[str] = set()
    for line in lines:
        if not line.startswith("|"):
            break
        names.update(_CODE_SPAN.findall(line.split("|")[1]))
    return names


def recorded_spans(root: Path) -> set[str]:
    """The span names ``root``'s sources open: the literal first
    argument of every ``.span(...)`` call, an f-string's placeholder
    written ``<stage>``."""
    names: set[str] = set()
    for source in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "span" and node.args
            ):
                continue
            name = node.args[0]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                names.add(name.value)
            elif isinstance(name, ast.JoinedStr):
                names.add("".join(
                    part.value if isinstance(part, ast.Constant) else "<stage>"
                    for part in name.values
                ))
    return names


def check_span_catalog(doc=OBSERVABILITY, root=ROOT / "src") -> list[str]:
    documented = documented_spans(doc.read_text())
    recorded = recorded_spans(root)
    return [
        f"{doc.name}: span {name!r} is opened under src/ but missing "
        f"from the span catalog"
        for name in sorted(recorded - documented)
    ] + [
        f"{doc.name}: span {name!r} is in the span catalog but nothing "
        f"under src/ opens it"
        for name in sorted(documented - recorded)
    ]


#: The only sources under ``src/repro`` that may read ``.tuples``: the
#: relation itself, the tuple-at-a-time reference the tests hold every
#: engine to, and the cell-network kit, which streams Python ints.
TUPLE_READERS = (
    "relational/relation.py", "relational/algebra.py", "selftest.py",
    "systolic/", "patterns/", "figures.py", "shell.py",
)

_OBJECT_DTYPE = re.compile(r"dtype ?(?:=|==|!=) ?object")


def check_one_stored_form(root=ROOT / "src" / "repro") -> list[str]:
    problems: list[str] = []
    for source in sorted(root.rglob("*.py")):
        where = source.relative_to(root).as_posix()
        text = source.read_text()
        problems += [
            f"{where}:{number}: an object-dtype array — a relation's "
            f"elements are int64, there is no second representation"
            for number, line in enumerate(text.splitlines(), 1)
            if _OBJECT_DTYPE.search(line)
        ]
        if where.startswith(TUPLE_READERS):
            continue
        problems += [
            f"{where}:{node.lineno}: reads `.tuples` — outside the "
            f"reference algebra and the cell-network kit, work on "
            f"`.array` columns"
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute) and node.attr == "tuples"
            # ``self.tuples`` is a class's own field (ExchangeCost's count)
            and not (isinstance(node.value, ast.Name)
                     and node.value.id == "self")
        ]
    return problems


#: The proof that rows are distinct, and the only sources under
#: ``src/repro`` that may name it.
PROOF_TYPE = "DistinctRows"
PROOF_PRODUCERS = (
    "relational/relation.py", "arrays/base.py", "store/columnar.py",
    "shard/partition.py", "shard/executor.py",
)


def check_proof_producers(root=ROOT / "src" / "repro") -> list[str]:
    problems: list[str] = []
    for source in sorted(root.rglob("*.py")):
        where = source.relative_to(root).as_posix()
        if where in PROOF_PRODUCERS:
            continue
        problems += [
            f"{where}:{node.lineno}: names `{PROOF_TYPE}` — rows are "
            f"proved distinct only where they come from a proved set "
            f"({', '.join(PROOF_PRODUCERS)}); everything else goes "
            f"through the verifying `Relation(...)`"
            for node in ast.walk(ast.parse(source.read_text()))
            if PROOF_TYPE in (
                getattr(node, "id", None), getattr(node, "attr", None),
                getattr(node, "name", None),
            )
        ]
    return problems


#: The plan-node types the operator table has a row for, and the only
#: sources under ``src/repro`` that may branch on them.
OPERATOR_TYPES = frozenset({
    "Intersect", "Difference", "Union", "Dedup", "Project", "Join",
    "Divide", "Select",
})
OPERATOR_BRANCHERS = (
    "machine/operators.py", "machine/plan.py", "lang/optimize.py",
    "shard/planner.py",
)


def _isinstance_targets(node: ast.AST) -> list[str]:
    """The class names an ``isinstance(x, C)`` / ``isinstance(x, (C,
    D))`` call tests against (``module.C`` counts as ``C``)."""
    if not (isinstance(node, ast.Call) and len(node.args) == 2
            and getattr(node.func, "id", None) == "isinstance"):
        return []
    classes = node.args[1]
    elements = classes.elts if isinstance(classes, ast.Tuple) else [classes]
    return [
        getattr(element, "id", None) or getattr(element, "attr", None)
        for element in elements
    ]


def check_operator_facts(root=ROOT / "src" / "repro") -> list[str]:
    problems: list[str] = []
    for source in sorted(root.rglob("*.py")):
        where = source.relative_to(root).as_posix()
        if where in OPERATOR_BRANCHERS:
            continue
        for node in ast.walk(ast.parse(source.read_text())):
            named = sorted(OPERATOR_TYPES.intersection(
                _isinstance_targets(node)
            ))
            if named:
                problems.append(
                    f"{where}:{node.lineno}: branches on "
                    f"{', '.join(named)} — read the node's row "
                    f"(`repro.machine.operators.operator_of`) instead"
                )
    return problems


#: The one function under ``src/repro`` that opens chunk files to read.
CHUNK_READER = ("store/columnar.py", "_ChunkPool._load")
_FILE_OPENERS = frozenset({"open", "memmap", "fromfile"})


def _reads_a_chunk(node: ast.AST) -> bool:
    """Is ``node`` an ``open`` / ``memmap`` / ``fromfile`` call whose
    path expression names a chunk, in a mode that reads?"""
    if not (isinstance(node, ast.Call) and node.args):
        return False
    func = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    if func not in _FILE_OPENERS:
        return False
    if "chunk" not in ast.unparse(node.args[0]).lower():
        return False
    if func != "open":
        return True
    mode = node.args[1] if len(node.args) > 1 else next(
        (kw.value for kw in node.keywords if kw.arg == "mode"), None
    )
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return "+" in mode.value or not set("wax") & set(mode.value)
    return True


def _chunk_reads(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, enclosing ``Class.function``) of each chunk-reading call."""
    found: list[tuple[int, str]] = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + (child.name,)
            elif _reads_a_chunk(child):
                found.append((child.lineno, ".".join(scope)))
            visit(child, inner)

    visit(tree, ())
    return found


def check_one_chunk_reader(root=ROOT / "src" / "repro") -> list[str]:
    problems: list[str] = []
    for source in sorted(root.rglob("*.py")):
        where = source.relative_to(root).as_posix()
        problems += [
            f"{where}:{line}: opens a chunk file for reading outside "
            f"the chunk pool's loader ({CHUNK_READER[1]} in "
            f"{CHUNK_READER[0]}) — read chunks through `_POOL.block` or "
            "`_POOL.whole`"
            for line, scope in _chunk_reads(ast.parse(source.read_text()))
            if (where, scope) != CHUNK_READER
        ]
    return problems


#: Where runs are read (the operator arrays and their decode seam), and
#: what they may not read a run by.
RUN_READERS = "arrays/"
_RECORD_READS = frozenset({
    "collector", "collectors", "tap", "tap_names", "columnar",
})


def check_one_run_format(root=ROOT / "src" / "repro") -> list[str]:
    problems: list[str] = []
    for source in sorted(root.rglob("*.py")):
        where = source.relative_to(root).as_posix()
        nodes = sorted(
            ast.walk(ast.parse(source.read_text())),
            key=lambda node: (getattr(node, "lineno", 0),
                              getattr(node, "col_offset", 0)),
        )
        for node in nodes:
            if (isinstance(node, ast.Call)
                    and "EngineRun" in (getattr(node.func, "id", None),
                                        getattr(node.func, "attr", None))
                    and any(kw.arg == "collectors" for kw in node.keywords)):
                problems.append(
                    f"{where}:{node.lineno}: builds an EngineRun from "
                    f"`collectors=` — a run holds tap tables only; hand "
                    f"them back as `tap_view=lambda: tables`"
                )
            elif (where.startswith(RUN_READERS)
                    and isinstance(node, ast.Attribute)
                    and node.attr in _RECORD_READS):
                problems.append(
                    f"{where}:{node.lineno}: reads a run's `.{node.attr}` "
                    f"— a run is read through `.verdicts` and "
                    f"`.table(edge)` only, in `arrays/decode.py`"
                )
    return problems


#: Where nothing takes an observer, and the only sources under
#: ``src/repro`` that import one.
COMPUTE_ONLY = ("arrays/", "systolic/engine/", "patterns/")
OBSERVER_PARAMETERS = frozenset({"meter", "trace"})
OBSERVER_TYPES = frozenset({"ComparisonWorkMeter", "TraceRecorder"})
OBSERVER_HOMES = (
    "systolic/simulator.py", "systolic/metrics.py", "systolic/trace.py",
)


def check_observers_on_the_network(root=ROOT / "src" / "repro") -> list[str]:
    problems: list[str] = []
    for source in sorted(root.rglob("*.py")):
        where = source.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(source.read_text())):
            if (where.startswith(COMPUTE_ONLY) and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.Lambda))):
                arguments = node.args
                problems += [
                    f"{where}:{node.lineno}: takes `{argument.arg}` — an "
                    f"engine or operator only computes; watch the run on "
                    f"its cell network (`SystolicSimulator(network, "
                    f"observer=...)`)"
                    for argument in (
                        *arguments.posonlyargs, *arguments.args,
                        *arguments.kwonlyargs, arguments.vararg,
                        arguments.kwarg,
                    )
                    if argument is not None
                    and argument.arg in OBSERVER_PARAMETERS
                ]
            elif (where not in OBSERVER_HOMES
                    and isinstance(node, (ast.Import, ast.ImportFrom))):
                named = sorted(OBSERVER_TYPES.intersection(
                    alias.name.rpartition(".")[2] for alias in node.names
                ))
                if named:
                    problems.append(
                        f"{where}:{node.lineno}: imports "
                        f"{', '.join(named)} — observers belong to the "
                        f"simulator kit ({', '.join(OBSERVER_HOMES)})"
                    )
    return problems


#: The one module under ``serve/`` that writes and reads the wire, and
#: the calls that would make a second codec path anywhere else there.
WIRE_CODEC = "serve/protocol.py"
_WIRE_CALLS = frozenset({
    "dumps", "loads", "dump", "load", "tolist", "decoded", "decode_many",
    "decode_array",
})


def check_one_wire_writer(root=ROOT / "src" / "repro") -> list[str]:
    problems: list[str] = []
    for source in sorted((root / "serve").rglob("*.py")):
        where = source.relative_to(root).as_posix()
        if where == WIRE_CODEC:
            continue
        nodes = sorted(
            ast.walk(ast.parse(source.read_text())),
            key=lambda node: (getattr(node, "lineno", 0),
                              getattr(node, "col_offset", 0)),
        )
        for node in nodes:
            if isinstance(node, ast.Import):
                named = [a.name for a in node.names
                         if a.name.split(".")[0] == "json"]
            elif isinstance(node, ast.ImportFrom):
                named = [node.module] if node.module == "json" else []
            elif isinstance(node, ast.Call):
                func = (getattr(node.func, "attr", None)
                        or getattr(node.func, "id", None))
                named = [f"{func}("] if func in _WIRE_CALLS else []
            else:
                continue
            problems += [
                f"{where}:{node.lineno}: uses `{name}` — only "
                f"{WIRE_CODEC} writes or reads the wire or turns a "
                f"relation into rows; put the Relation in the message and "
                f"let `encode_line` write it"
                for name in named
            ]
    return problems


#: The one module under machine/ and shard/ that chooses a blocked
#: variant, and the ones that build a fixed-relation schedule.
VARIANT_SCOPE = ("machine/", "shard/")
VARIANT_CHOOSER = "machine/physical.py"
SCHEDULE_BUILDERS = ("systolic/engine/schedule.py", "arrays/base.py")
_VARIANT_KNOB = re.compile(r"--[\w-]*variant|REPRO_\w*VARIANT", re.I)


def _names_variant(node: ast.AST) -> bool:
    return "variant" in (getattr(node, "id", None),
                         getattr(node, "attr", None))


def _variant_problem(node: ast.AST, where: str, chooses: bool):
    """What ``node`` does that rule 15 refuses, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if _VARIANT_KNOB.search(node.value):
            return f"spells `{node.value}`: no option forces a variant"
        if chooses and node.value == "fixed":
            return "names the fixed variant"
    elif isinstance(node, ast.Call):
        func = (getattr(node.func, "id", None)
                or getattr(node.func, "attr", None))
        if func == "FixedRelationSchedule" and where not in SCHEDULE_BUILDERS:
            return (f"builds a FixedRelationSchedule: only "
                    f"{', '.join(SCHEDULE_BUILDERS)} do")
        if chooses and any(
            keyword.arg == "variant"
            and not isinstance(keyword.value, (ast.Name, ast.Attribute))
            for keyword in node.keywords
        ):
            return "passes a `variant=` it did not receive"
    elif chooses and isinstance(node, ast.Compare) and any(
        map(_names_variant, (node.left, *node.comparators))
    ):
        return "branches on a variant"
    return None


def check_one_variant_choice(root=ROOT / "src" / "repro") -> list[str]:
    problems: list[str] = []
    for source in sorted(root.rglob("*.py")):
        where = source.relative_to(root).as_posix()
        chooses = (where.startswith(VARIANT_SCOPE)
                   and where != VARIANT_CHOOSER)
        nodes = sorted(
            ast.walk(ast.parse(source.read_text())),
            key=lambda node: (getattr(node, "lineno", 0),
                              getattr(node, "col_offset", 0)),
        )
        for node in nodes:
            problem = _variant_problem(node, where, chooses)
            if problem is not None:
                problems.append(
                    f"{where}:{node.lineno}: {problem} — the planner "
                    f"({VARIANT_CHOOSER}) chooses a blocked variant, and "
                    f"every other layer passes its choice through"
                )
    return problems


#: The names of the disk's free time under machine/, and the one
#: function that advances it.
DISK_CLOCKS = frozenset({"disk_free", "est_disk_free"})
SWEEP_RULE = "disk_sweep"


def _is_sweep_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and SWEEP_RULE in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    )


def _disk_clock_problem(node: ast.AST, parents: dict) -> Optional[str]:
    """What a use of the disk's free time does that rule 16 refuses, or
    None."""
    if not isinstance(node, (ast.Name, ast.Attribute)) or (
        getattr(node, "id", None) or getattr(node, "attr", None)
    ) not in DISK_CLOCKS:
        return None
    parent = parents.get(node)
    whole = parents.get(parent) if isinstance(parent, ast.Tuple) else parent
    if isinstance(node.ctx, ast.Store):
        value = getattr(whole, "value", None)
        if isinstance(whole, ast.Assign) and (
            _is_sweep_call(value)
            or (isinstance(value, ast.Constant)
                and isinstance(value.value, (int, float)))
            or (isinstance(value, ast.Attribute) and value.attr == "end")
        ):
            return None
        return "advances the disk's free time outside the sweep rule"
    if _is_sweep_call(parent) and parent.args and parent.args[0] is node:
        return None
    if isinstance(whole, ast.Assign) and (
        whole.value is node or whole.value is parent
    ):
        return None
    return "reads the disk's free time outside the sweep rule"


def check_one_disk_timeline(root=ROOT / "src" / "repro") -> list[str]:
    problems: list[str] = []
    for source in sorted((root / "machine").rglob("*.py")):
        where = source.relative_to(root).as_posix()
        tree = ast.parse(source.read_text())
        parents = {
            child: node
            for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
        }
        nodes = sorted(
            ast.walk(tree),
            key=lambda node: (getattr(node, "lineno", 0),
                              getattr(node, "col_offset", 0)),
        )
        for node in nodes:
            problem = _disk_clock_problem(node, parents)
            if problem is not None:
                problems.append(
                    f"{where}:{node.lineno}: {problem} — a load's disk "
                    f"window comes from `{SWEEP_RULE}` only"
                )
    return problems


#: The files that plan from the snapshot only, and the live catalog's
#: modules they may not import.
SNAPSHOT_READERS = ("machine/physical.py", "shard/planner.py")
LIVE_MODULES = frozenset({"repro.machine.disk", "repro.machine.catalog"})


def _live_read(node: ast.AST) -> Optional[str]:
    """What ``node`` reads beside the snapshot that rule 17 refuses, or
    None."""
    if isinstance(node, ast.Attribute) and node.attr == "disk":
        return "reads a disk"
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.module:
        modules = [node.module] + [
            f"{node.module}.{alias.name}" for alias in node.names
        ]
    else:
        return None
    live = sorted(LIVE_MODULES.intersection(modules))
    return f"imports {live[0]}" if live else None


def check_one_planning_snapshot(root=ROOT / "src" / "repro") -> list[str]:
    problems: list[str] = []
    for where in SNAPSHOT_READERS:
        source = root / where
        if not source.exists():
            continue
        nodes = sorted(
            ast.walk(ast.parse(source.read_text())),
            key=lambda node: getattr(node, "lineno", 0),
        )
        for node in nodes:
            problem = _live_read(node)
            if problem is not None:
                problems.append(
                    f"{where}:{node.lineno}: {problem} — the planner reads "
                    f"the catalog through its PlanningContext only"
                )
    return problems


#: The one place an array op's device cost is computed.
PRICER = "machine/physical.py"
DEVICE_COST = "estimate_cost"


def _pricing_problem(node: ast.AST, where: str) -> Optional[str]:
    """What ``node`` does that rule 18 refuses, or None."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        if where.startswith("shard/") and any(
            DEVICE_COST in alias.name.split(".") for alias in node.names
        ):
            return f"imports {DEVICE_COST}"
        return None
    if where == PRICER:
        return None
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
        node.name == DEVICE_COST
    ):
        return f"defines {DEVICE_COST}"
    if isinstance(node, ast.Call) and DEVICE_COST in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    ):
        return f"calls {DEVICE_COST}"
    return None


def check_one_pricing(root=ROOT / "src" / "repro") -> list[str]:
    problems: list[str] = []
    for source in sorted(root.rglob("*.py")):
        where = source.relative_to(root).as_posix()
        nodes = sorted(
            ast.walk(ast.parse(source.read_text())),
            key=lambda node: getattr(node, "lineno", 0),
        )
        for node in nodes:
            problem = _pricing_problem(node, where)
            if problem is not None:
                problems.append(
                    f"{where}:{node.lineno}: {problem} — an array op is "
                    f"priced by price_array_op in {PRICER} only"
                )
    return problems


#: The cell kit, the one engine module that builds networks from it,
#: and the operator arrays, which import neither.
CELL_KIT = frozenset({
    "cell", "cells", "wiring", "simulator", "streams", "values", "trace",
    "metrics",
})
MATERIALIZER = "systolic/engine/materialize.py"
KIT_FREE = "arrays/"
_MATERIALIZER_MODULE = "repro." + MATERIALIZER[:-len(".py")].replace("/", ".")


def _in_kit(module: str) -> bool:
    parts = module.split(".")
    return parts[:2] == ["repro", "systolic"] and len(parts) > 2 and (
        parts[2] in CELL_KIT
    )


def _kit_exports(root: Path) -> frozenset[str]:
    """The names ``repro.systolic`` re-exports from the cell kit."""
    package = root / "systolic" / "__init__.py"
    if not package.exists():
        return frozenset()
    return frozenset(
        alias.asname or alias.name
        for node in ast.walk(ast.parse(package.read_text()))
        if isinstance(node, ast.ImportFrom) and _in_kit(node.module or "")
        for alias in node.names
    )


def _imported(node: ast.AST, where: str) -> list[str]:
    """What an import names, as dotted paths: modules, or a module's
    members; relative imports resolved against ``where``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    package = ["repro", *where.split("/")[:-1]]
    base = package[:len(package) + 1 - node.level] if node.level else []
    module = [*base, *(node.module or "").split(".")]
    return [
        ".".join([*filter(None, module), alias.name]) for alias in node.names
    ]


def check_network_only_watches(root=ROOT / "src" / "repro") -> list[str]:
    problems: list[str] = []
    exports = {f"repro.systolic.{name}" for name in _kit_exports(root)}
    for source in sorted(root.rglob("*.py")):
        where = source.relative_to(root).as_posix()
        nodes = sorted(
            ast.walk(ast.parse(source.read_text())),
            key=lambda node: getattr(node, "lineno", 0),
        )
        for node in nodes:
            if isinstance(node, ast.Call) and "SystolicSimulator" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            ):
                problems.append(
                    f"{where}:{node.lineno}: constructs a SystolicSimulator "
                    f"— the cell network only watches: compute on the "
                    f"engines' registers"
                )
            elif where.startswith(("systolic/engine/", KIT_FREE)) and (
                where != MATERIALIZER
            ):
                operator = where.startswith(KIT_FREE)
                problems += [
                    f"{where}:{node.lineno}: imports {name} — " + (
                        "an operator array states its plan; "
                        "materialize(plan) builds the network"
                        if operator else
                        f"an engine computes on registers; only "
                        f"{MATERIALIZER} builds cell networks"
                    )
                    for name in _imported(node, where)
                    if _in_kit(name) or name in exports or operator and (
                        f"{name}.".startswith(f"{_MATERIALIZER_MODULE}.")
                    )
                ]
    return problems


def main() -> int:
    problems = (
        check_metric_table() + check_links()
        + check_package_inventory() + check_cli_flags()
        + check_api() + check_env_vars() + check_span_catalog()
        + check_one_stored_form() + check_proof_producers()
        + check_operator_facts() + check_one_chunk_reader()
        + check_one_run_format() + check_observers_on_the_network()
        + check_one_wire_writer() + check_one_variant_choice()
        + check_one_disk_timeline() + check_one_planning_snapshot()
        + check_one_pricing() + check_network_only_watches()
    )
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"check_docs: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    files = len(markdown_files())
    print(
        f"check_docs: metric table in sync ({len(METRICS)} names), "
        f"links resolve across {files} markdown files, "
        f"{len(repro_packages())} packages in the inventory, "
        f"documented CLI flags all defined, "
        f"repro.machine / repro.obs members and constructor keywords "
        f"resolve, documented REPRO_* variables all read under src/, "
        f"span catalog in sync "
        f"({len(documented_spans(OBSERVABILITY.read_text()))} names), "
        f"one stored form under src/, "
        f"{PROOF_TYPE} named by its {len(PROOF_PRODUCERS)} producers only, "
        f"operator node types branched on in "
        f"{len(OPERATOR_BRANCHERS)} files only, "
        f"chunk files read by {CHUNK_READER[1]} only, "
        f"runs read as tap tables only, "
        f"observers imported by the simulator kit only, "
        f"the wire written and read by {WIRE_CODEC} only, "
        f"blocked variants chosen by {VARIANT_CHOOSER} only, "
        f"the disk's free time advanced by {SWEEP_RULE} only, "
        f"the planners reading the catalog through its snapshot only, "
        f"array ops priced in {PRICER} only, "
        f"no SystolicSimulator constructed under src/ and the cell kit "
        f"imported in systolic/engine/ by {MATERIALIZER} only and "
        f"nowhere under {KIT_FREE}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
