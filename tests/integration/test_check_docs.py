"""The docs drift check CI runs must pass on this checkout."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_check_docs_passes_on_the_checkout():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_docs.py")],
        # A hang guard only: the check parses files and takes about a
        # second, so 120 s is loose on the slowest host.
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", ROOT / "tools" / "check_docs.py"
    )
    check_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_docs)
    return check_docs


def test_machine_api_rule_flags_removed_members_and_keywords(tmp_path):
    check_docs = _load_check_docs()
    doc = tmp_path / "API.md"
    doc.write_text(
        "| `DeviceRoster.pick` / `PhysicalPlan.ops` / `EnginePool.gate` "
        "| attribute, dataclass field, set in `__init__` |\n"
        "| `SystolicDatabaseMachine(disk=MachineDisk(logic_per_track=True),"
        " backend=None)` | nested constructors |\n"
        "| `Relation.tuples` / `RelationStore(root=None)` "
        "| not repro.machine's |\n"
        "| `EnginePool(roster_fairness=True)` / `DeviceRoster.assignments` "
        "| both removed |\n"
    )
    assert check_docs.check_api(docs=[doc]) == [
        "API.md: documents `EnginePool(roster_fairness=)`, which "
        "repro.machine.EnginePool does not accept",
        "API.md: documents `DeviceRoster.assignments`, which "
        "repro.machine.DeviceRoster does not have",
    ]


def test_api_rule_reads_method_call_keywords(tmp_path):
    """``.compile(plans, …, use_cache=True)`` is how API.md spelled an
    option that no ``compile`` accepted any more."""
    check_docs = _load_check_docs()
    doc = tmp_path / "API.md"
    doc.write_text(
        "| `.compile(plans, arrivals=None, pipeline=True)` "
        "| a table row under its class |\n"
        "| `EnginePool.session(tenant, shards=2, parallel=True)` "
        "/ `obs.span(name, rows=3)` / `np.unique(x, return_index=True)` "
        "| named owner · open-ended · nobody's |\n"
    )
    assert check_docs.check_api(docs=[doc]) == []
    doc.write_text(
        "| `.compile(plans, pipeline=True, use_cache=True)` | removed |\n"
        "| `EnginePool.session(tenant, partitioner=None)` | removed |\n"
    )
    assert check_docs.check_api(docs=[doc]) == [
        "API.md: documents `.compile(use_cache=)`, which no class of "
        "repro.machine / repro.obs accepts",
        "API.md: documents `EnginePool.session(partitioner=)`, which "
        "repro.machine.EnginePool does not accept",
    ]


def test_env_var_rule_flags_a_variable_nothing_reads(tmp_path):
    check_docs = _load_check_docs()
    doc = tmp_path / "PERF.md"
    doc.write_text(
        "Set `REPRO_BACKEND=lattice`, or the kill-switch "
        "`REPRO_MACHINE_PARALLEL=0`.\n"
    )
    assert check_docs.check_env_vars(docs=[doc]) == [
        "PERF.md: documents environment variable REPRO_MACHINE_PARALLEL, "
        "which nothing under src/ reads",
    ]


def test_api_rule_covers_the_obs_classes(tmp_path):
    check_docs = _load_check_docs()
    doc = tmp_path / "OBSERVABILITY.md"
    doc.write_text(
        "`Tracer.span` opens a span, `Span.structure()` projects it, "
        "`NullTracer.span` is the off switch; `obs.detached` is prose.\n"
    )
    assert check_docs.check_api(docs=[doc]) == []
    doc.write_text(
        "Graft it with `Tracer.detached` / `Tracer.adopt`; "
        "`Span.structure()` stays.\n"
    )
    assert check_docs.check_api(docs=[doc]) == [
        "OBSERVABILITY.md: documents `Tracer.detached`, which "
        "repro.obs.Tracer does not have",
        "OBSERVABILITY.md: documents `Tracer.adopt`, which "
        "repro.obs.Tracer does not have",
    ]


_SPAN_TABLE = (
    "| span | layer | recorded by | attributes |\n"
    "|---|---|---|---|\n"
    "| `cli.<stage>` | wire | the CLI | — |\n"
    "| `planner.assign` / `planner.fuse` | compile | the planner's phases "
    "| — |\n"
    "{extra}"
    "\n"
    "| metric | kind | meaning |\n"
    "|---|---|---|\n"
    "| `engine.runs` | counter | not a span |\n"
)


def test_span_catalog_rule_holds_docs_and_source_to_each_other(tmp_path):
    check_docs = _load_check_docs()
    source = tmp_path / "src" / "pkg"
    source.mkdir(parents=True)
    (source / "work.py").write_text(
        '"""Docstring example: ``with obs.span("ghost.example"): ...``"""\n'
        "def run(obs, tracer, name):\n"
        '    with obs.span(f"cli.{name}"):\n'
        "        with obs.span(\n"
        '            "planner.assign", plans=1,\n'
        "        ):\n"
        '            with tracer.span("planner.fuse"):\n'
        "                return obs.span(name)\n"
    )
    doc = tmp_path / "OBSERVABILITY.md"
    doc.write_text(_SPAN_TABLE.format(extra=""))
    layers = {
        "cli.<stage>": "wire", "planner.assign": "compile",
        "planner.fuse": "compile",
    }
    assert check_docs.check_span_catalog(
        doc=doc, root=tmp_path / "src", layers=layers
    ) == []

    (source / "more.py").write_text(
        'def run(obs):\n    return obs.span("machine.op", op="x")\n'
    )
    doc.write_text(_SPAN_TABLE.format(
        extra="| `machine.replay` | replay | the replay phase | — |\n"
    ))
    layers["machine.replay"] = "replay"
    assert check_docs.check_span_catalog(
        doc=doc, root=tmp_path / "src", layers=layers
    ) == [
        "OBSERVABILITY.md: span 'machine.op' is opened under src/ but "
        "missing from the span catalog",
        "OBSERVABILITY.md: span 'machine.replay' is in the span catalog "
        "but nothing under src/ opens it",
    ]


def test_span_catalog_rule_holds_the_layer_map_to_the_catalog(tmp_path):
    check_docs = _load_check_docs()
    source = tmp_path / "src" / "pkg"
    source.mkdir(parents=True)
    (source / "work.py").write_text(
        "def run(obs, name):\n"
        '    with obs.span(f"cli.{name}"):\n'
        '        with obs.span("planner.assign"):\n'
        '            return obs.span("planner.fuse")\n'
    )
    doc = tmp_path / "OBSERVABILITY.md"
    doc.write_text(_SPAN_TABLE.format(extra=""))
    # A span the map leaves out, a name it maps that the catalog does
    # not hold, a value that is no layer, and a row whose layer column
    # reads another layer than the map's.
    layers = {
        "cli.<stage>": "replay", "planner.assign": "planning",
        "machine.replay": "replay",
    }
    assert check_docs.check_span_catalog(
        doc=doc, root=tmp_path / "src", layers=layers
    ) == [
        "SPAN_LAYERS: span 'planner.fuse' is in the span catalog but has "
        "no layer",
        "SPAN_LAYERS: maps 'machine.replay', which is not in the span "
        "catalog",
        "SPAN_LAYERS: maps 'planner.assign' to 'planning', which is not a "
        "layer",
        "OBSERVABILITY.md: span 'cli.<stage>' is in layer 'wire' in the "
        "span catalog but 'replay' in SPAN_LAYERS",
        "OBSERVABILITY.md: span 'planner.assign' is in layer 'compile' in "
        "the span catalog but 'planning' in SPAN_LAYERS",
    ]


def test_one_stored_form_rule_flags_object_arrays_and_tuple_walks(tmp_path):
    check_docs = _load_check_docs()
    package = tmp_path / "repro"
    for directory in ("relational", "systolic/engine", "arrays", "perf"):
        (package / directory).mkdir(parents=True)
    (package / "relational" / "relation.py").write_text(
        "def members(self):\n    return frozenset(self.tuples)\n"
    )
    (package / "systolic" / "engine" / "materialize.py").write_text(
        "def feed(relation):\n    return list(relation.tuples)\n"
    )
    (package / "perf" / "cost.py").write_text(
        '"""``relation.tuples`` in prose is not a read."""\n'
        "def check(self, plan):\n"
        "    return self.tuples < 0 or plan.a_tuples is None\n"
    )
    assert check_docs.check_one_stored_form(root=package) == []

    (package / "arrays" / "division.py").write_text(
        "import numpy as np\n"
        "def operands(a, rows):\n"
        "    pairs = [row[:2] for row in a.tuples]\n"
        "    wide = np.asarray(rows, dtype=object)\n"
        "    return pairs, wide, wide.dtype == object\n"
    )
    assert check_docs.check_one_stored_form(root=package) == [
        "arrays/division.py:4: an object-dtype array — a relation's "
        "elements are int64, there is no second representation",
        "arrays/division.py:5: an object-dtype array — a relation's "
        "elements are int64, there is no second representation",
        "arrays/division.py:3: reads `.tuples` — outside the reference "
        "algebra and the cell-network kit, work on `.array` columns",
    ]


def test_proof_producer_rule_is_an_allow_list(tmp_path):
    check_docs = _load_check_docs()
    package = tmp_path / "repro"
    for directory in ("relational", "shard", "serve", "machine"):
        (package / directory).mkdir(parents=True)
    (package / "relational" / "relation.py").write_text(
        "class DistinctRows:\n    pass\n"
    )
    (package / "shard" / "executor.py").write_text(
        "from repro.relational.relation import DistinctRows\n"
        "def merge(rows):\n    return DistinctRows(rows)\n"
    )
    (package / "machine" / "disk.py").write_text(
        '"""A stored read arrives as ``DistinctRows``: prose, not a use."""\n'
    )
    assert check_docs.check_proof_producers(root=package) == []

    (package / "serve" / "protocol.py").write_text(
        "from repro.relational.relation import DistinctRows\n"
        "def relation_from_wire(schema, rows):\n"
        "    return Relation(schema, DistinctRows(rows))\n"
    )
    (package / "__main__.py").write_text(
        "from repro.relational import relation\n"
        "def load(rows):\n    return relation.DistinctRows(rows)\n"
    )
    problems = check_docs.check_proof_producers(root=package)
    assert [problem.split(" names ")[0] for problem in problems] == [
        "__main__.py:3:", "serve/protocol.py:1:", "serve/protocol.py:3:",
    ]
    assert all("verifying `Relation(...)`" in problem for problem in problems)


def test_operator_facts_rule_allows_only_the_shape_rules(tmp_path):
    check_docs = _load_check_docs()
    package = tmp_path / "repro"
    for directory in ("lang", "machine", "shard"):
        (package / directory).mkdir(parents=True)
    (package / "lang" / "optimize.py").write_text(
        "def rule(node):\n"
        "    return isinstance(node, (Intersect, Union))\n"
    )
    (package / "machine" / "physical.py").write_text(
        '"""``isinstance(node, Join)`` in prose is not a branch."""\n'
        "def load(node):\n"
        "    return isinstance(node, Base) or node.device_kind == 'cpu'\n"
    )
    assert check_docs.check_operator_facts(root=package) == []

    (package / "machine" / "device.py").write_text(
        "from repro.machine import plan\n"
        "def dispatch(node):\n"
        "    if isinstance(node, plan.Join):\n"
        "        return 1\n"
        "    return isinstance(node.child, (Base, Select, Dedup))\n"
    )
    problems = check_docs.check_operator_facts(root=package)
    assert [problem.split(" — ")[0] for problem in problems] == [
        "machine/device.py:3: branches on Join",
        "machine/device.py:5: branches on Dedup, Select",
    ]


def test_one_chunk_reader_rule_allows_only_the_pool_loader(tmp_path):
    check_docs = _load_check_docs()
    package = tmp_path / "repro"
    for directory in ("store", "machine"):
        (package / directory).mkdir(parents=True)
    (package / "store" / "columnar.py").write_text(
        '"""Scans never ``open(chunk_path)`` themselves: prose."""\n'
        "class _ChunkPool:\n"
        "    def _load(self, handle, chunk_id):\n"
        '        with open(handle._chunk_paths[chunk_id], "rb") as file:\n'
        "            return file.read()\n"
        "def _write_chunk(staging, chunk_file, block):\n"
        '    with open(staging / chunk_file, "wb") as out:\n'
        "        out.write(block)\n"
        "def manifest(path):\n"
        "    return open(path / 'manifest.json').read()\n"
    )
    assert check_docs.check_one_chunk_reader(root=package) == []

    (package / "store" / "columnar.py").write_text(
        "import numpy as np\n"
        "class StoredRelation:\n"
        "    def chunk_column(self, chunk_id, position):\n"
        "        return np.memmap(self._chunk_paths[chunk_id], mode='r')\n"
        "    def _fill(self, chunk_id):\n"
        "        with open(self._chunk_paths[chunk_id], mode='r+b') as f:\n"
        "            return f.read()\n"
    )
    (package / "machine" / "disk.py").write_text(
        "import numpy as np\n"
        "def peek(handle, chunk):\n"
        "    return np.fromfile(handle.path / chunk.file, dtype='<i8')\n"
    )
    problems = check_docs.check_one_chunk_reader(root=package)
    assert [problem.split(" opens ")[0] for problem in problems] == [
        "machine/disk.py:3:", "store/columnar.py:4:", "store/columnar.py:6:",
    ]
    assert all("_ChunkPool._load" in problem for problem in problems)


def test_one_run_format_rule_refuses_eager_collectors_and_record_reads(
    tmp_path,
):
    check_docs = _load_check_docs()
    package = tmp_path / "repro"
    for directory in ("arrays", "systolic/engine"):
        (package / directory).mkdir(parents=True)
    (package / "arrays" / "decode.py").write_text(
        '"""Never ``run.collector(name)``: prose."""\n'
        "def pair_verdicts(result, schedule, tagged):\n"
        "    if result.verdicts is not None:\n"
        "        return result.verdicts\n"
        "    return _decode(result.table('t_row'), schedule)\n"
    )
    (package / "systolic" / "engine" / "pulse.py").write_text(
        "def run(self, plan, simulator):\n"
        "    return EngineRun(engine='pulse', pulses=plan.pulses,\n"
        "                     cells=1, tap_view=lambda: tables_of(\n"
        "                         simulator.collectors))\n"
    )
    assert check_docs.check_one_run_format(root=package) == []

    # The shapes the eager format had: a run built from collectors, and
    # a decoder that falls back to reading a run's records.
    (package / "arrays" / "decode.py").write_text(
        "def pair_verdicts(result, schedule, tagged):\n"
        "    table = getattr(result, 'table', lambda _: None)('t_row')\n"
        "    if table is None:\n"
        "        for pulse, token in result.collector('t_row[0]'):\n"
        "            pass\n"
        "    return result.tap('t_row[0]'), result.collectors\n"
    )
    (package / "systolic" / "engine" / "lattice.py").write_text(
        "from repro.systolic.engine import plan\n"
        "def run_hex(self, plan_, records):\n"
        "    return plan.EngineRun(engine='lattice', pulses=1, cells=1,\n"
        "                          collectors=make(records))\n"
    )
    problems = check_docs.check_one_run_format(root=package)
    assert [problem.split(" — ")[0] for problem in problems] == [
        "arrays/decode.py:4: reads a run's `.collector`",
        "arrays/decode.py:6: reads a run's `.tap`",
        "arrays/decode.py:6: reads a run's `.collectors`",
        "systolic/engine/lattice.py:3: builds an EngineRun from "
        "`collectors=`",
    ]


def test_one_run_format_rule_covers_every_operator_array(tmp_path):
    """Not only the decode seam: an operator module that reads a run's
    Token records (as the hex mesh and the linear array once did) is a
    second decoder too."""
    check_docs = _load_check_docs()
    package = tmp_path / "repro"
    (package / "arrays").mkdir(parents=True)
    (package / "arrays" / "hexagonal.py").write_text(
        "def hex_matrix_product(result, i, j, m):\n"
        "    name = tap_name(i, j, m)\n"
        "    token = result.collector(name).at(i + j + m - 1)\n"
        "    return token.value\n"
    )
    (package / "arrays" / "linear_comparison.py").write_text(
        "def compare_tuples(plan):\n"
        "    result = execute(plan)\n"
        "    collector = result.collector('t')\n"
        "    return collector.at(plan.arity - 1), result.columnar\n"
    )
    (package / "arrays" / "join.py").write_text(
        "def systolic_join(result, schedule):\n"
        "    return pair_verdicts(result, schedule, False)\n"
    )
    problems = check_docs.check_one_run_format(root=package)
    assert [problem.split(" — ")[0] for problem in problems] == [
        "arrays/hexagonal.py:3: reads a run's `.collector`",
        "arrays/linear_comparison.py:3: reads a run's `.collector`",
        "arrays/linear_comparison.py:4: reads a run's `.columnar`",
    ]


def test_observer_rule_keeps_meters_and_traces_on_the_network(tmp_path):
    check_docs = _load_check_docs()
    package = tmp_path / "repro"
    for directory in ("arrays", "systolic/engine", "patterns", "machine"):
        (package / directory).mkdir(parents=True)
    (package / "systolic" / "simulator.py").write_text(
        "from repro.systolic.metrics import ComparisonWorkMeter\n"
        "class SystolicSimulator:\n"
        "    def __init__(self, network, observer=None):\n"
        "        self.observer = observer\n"
    )
    (package / "arrays" / "base.py").write_text(
        '"""Watch a run with ``trace=TraceRecorder()``: prose."""\n'
        "def execute(plan, backend=None):\n"
        "    return resolve_backend(backend).run(plan)\n"
    )
    (package / "machine" / "device.py").write_text(
        "def run(plan, meter=None):\n"
        "    return plan\n"
    )
    assert check_docs.check_observers_on_the_network(root=package) == []

    # The shapes the threaded observers had: an engine that takes a
    # meter, operators that pass one down, imports to annotate them.
    (package / "systolic" / "engine" / "pulse.py").write_text(
        "from repro.systolic.metrics import ComparisonWorkMeter\n"
        "class PulseEngine:\n"
        "    def run(self, plan, meter=None, trace=None):\n"
        "        return step(plan, meter)\n"
    )
    (package / "arrays" / "join.py").write_text(
        "from repro.systolic import trace as tr, TraceRecorder\n"
        "def systolic_join(a, b, *, trace: TraceRecorder = None):\n"
        "    return _run(a, b, lambda meter: meter)\n"
    )
    (package / "patterns" / "matcher.py").write_text(
        "import repro.systolic.trace.TraceRecorder\n"
    )
    (package / "machine" / "device.py").write_text(
        "from repro.systolic.metrics import ComparisonWorkMeter\n"
    )
    problems = check_docs.check_observers_on_the_network(root=package)
    assert [problem.split(" — ")[0] for problem in problems] == [
        "arrays/join.py:1: imports TraceRecorder",
        "arrays/join.py:2: takes `trace`",
        "arrays/join.py:3: takes `meter`",
        "machine/device.py:1: imports ComparisonWorkMeter",
        "patterns/matcher.py:1: imports TraceRecorder",
        "systolic/engine/pulse.py:1: imports ComparisonWorkMeter",
        "systolic/engine/pulse.py:3: takes `meter`",
        "systolic/engine/pulse.py:3: takes `trace`",
    ]


def test_one_wire_writer_rule_keeps_json_and_rows_in_the_protocol(tmp_path):
    check_docs = _load_check_docs()
    package = tmp_path / "repro"
    for directory in ("serve", "obs"):
        (package / directory).mkdir(parents=True)
    (package / "serve" / "protocol.py").write_text(
        "import json\n"
        "def encode_line(payload):\n"
        "    return json.dumps(payload).encode()\n"
        "def relation_to_wire(relation):\n"
        "    return {'rows': relation.array.tolist()}\n"
    )
    (package / "serve" / "server.py").write_text(
        '"""Replies are never ``json.dumps``-ed here: prose."""\n'
        "from repro.serve.protocol import decode_line, encode_line\n"
        "def answer(line, result):\n"
        "    request = decode_line(line)\n"
        "    return encode_line({'ok': True, 'relation': result})\n"
    )
    (package / "obs" / "export.py").write_text(
        "import json\n"
        "def write(record):\n"
        "    return json.dumps(record, sort_keys=True)\n"
    )
    assert check_docs.check_one_wire_writer(root=package) == []

    # The shapes a second codec path would take: a reply boxed and
    # dumped beside the writer, a client parsing lines itself.
    (package / "serve" / "server.py").write_text(
        "import json\n"
        "from repro.serve.protocol import encode_line\n"
        "def answer(result):\n"
        "    rows = result.array.tolist()\n"
        "    return json.dumps({'ok': True, 'rows': rows}).encode()\n"
    )
    (package / "serve" / "client.py").write_text(
        "from json import loads as parse\n"
        "def read(line, domain, codes):\n"
        "    return parse(line), domain.decode_many(codes)\n"
    )
    problems = check_docs.check_one_wire_writer(root=package)
    assert [problem.split(" — ")[0] for problem in problems] == [
        "serve/client.py:1: uses `json`",  # an alias is caught here
        "serve/client.py:3: uses `decode_many(`",
        "serve/server.py:1: uses `json`",
        "serve/server.py:4: uses `tolist(`",
        "serve/server.py:5: uses `dumps(`",
    ]


def test_variant_rule_keeps_the_choice_in_the_planner(tmp_path):
    check_docs = _load_check_docs()
    package = tmp_path / "repro"
    for directory in ("machine", "shard", "arrays", "systolic/engine"):
        (package / directory).mkdir(parents=True)
    (package / "machine" / "physical.py").write_text(
        "def choose(options):\n"
        "    best = min(options, key=lambda o: o.seconds)\n"
        "    return 'fixed' if best.variant == 'fixed' else 'counter'\n"
    )
    (package / "machine" / "execution.py").write_text(
        '"""Runs each op in the variant the plan recorded."""\n'
        "def run(device, op, inputs):\n"
        "    return device.execute(op.node, inputs, variant=op.variant)\n"
    )
    (package / "machine" / "device.py").write_text(
        "def execute(node, inputs, variant='counter'):\n"
        "    return runner(node, inputs, variant=variant)\n"
    )
    (package / "systolic" / "engine" / "schedule.py").write_text(
        "def block(n_a, n_b, arity):\n"
        "    return FixedRelationSchedule(n_a, n_b, arity)\n"
    )
    (package / "arrays" / "base.py").write_text(
        "def grid_schedule(n_a, n_b, arity):\n"
        "    return FixedRelationSchedule(n_a=n_a, n_b=n_b, arity=arity)\n"
    )
    assert check_docs.check_one_variant_choice(root=package) == []

    # The shapes a second choice would take: a lane that picks for
    # itself, a device that branches, a schedule built on the side, and
    # a knob that forces one.
    (package / "shard" / "executor.py").write_text(
        "def run_lane(device, op, inputs):\n"
        "    return device.execute(op.node, inputs, variant='fixed')\n"
    )
    (package / "machine" / "device.py").write_text(
        "def execute(node, inputs, variant='counter'):\n"
        "    if variant != 'counter':\n"
        "        return held(node, inputs)\n"
        "    return runner(node, inputs, variant=variant or 'counter')\n"
    )
    (package / "arrays" / "join.py").write_text(
        "def plan(a, b):\n"
        "    return FixedRelationSchedule(len(a), len(b), 1)\n"
    )
    (package / "machine" / "config.py").write_text(
        "import os\n"
        "FORCED = os.environ.get('REPRO_BLOCKED_VARIANT')\n"
        "FLAG = '--variant'\n"
    )
    problems = check_docs.check_one_variant_choice(root=package)
    assert [problem.split(": ", 1)[0] for problem in problems] == [
        "arrays/join.py:2",
        "machine/config.py:2", "machine/config.py:3",
        "machine/device.py:2", "machine/device.py:4",
        "shard/executor.py:2", "shard/executor.py:2",
    ]
    assert all("machine/physical.py" in problem for problem in problems)


def test_disk_timeline_rule_advances_the_disk_through_the_sweep_rule(
    tmp_path,
):
    check_docs = _load_check_docs()
    package = tmp_path / "repro"
    (package / "machine").mkdir(parents=True)
    (package / "machine" / "physical.py").write_text(
        "def assign(loads):\n"
        "    est_disk_free = 0.0\n"
        "    for op in loads:\n"
        "        op.est_start, est_disk_free = disk_sweep(\n"
        "            est_disk_free, op.release, (op.est_seconds,)\n"
        "        )\n"
        "        op.est_end = est_disk_free\n"
    )
    (package / "machine" / "execution.py").write_text(
        "class State:\n"
        "    def __init__(self):\n"
        "        self.disk_free = 0.0\n"
        "    def apply(self, steps):\n"
        "        for step in steps:\n"
        "            self.disk_free = step.end\n"
        "def place(state, op, seconds):\n"
        "    return disk_sweep(state.disk_free, op.release, seconds)\n"
    )
    assert check_docs.check_one_disk_timeline(root=package) == []

    # A window by hand, a bill added by hand, and a free time copied
    # from somewhere the rule did not put it.
    (package / "machine" / "pool.py").write_text(
        "def place(state, op, seconds):\n"
        "    start = max(state.disk_free, op.release)\n"
        "    state.disk_free += seconds\n"
        "    state.disk_free = op.est_end\n"
        "    return start\n"
    )
    problems = check_docs.check_one_disk_timeline(root=package)
    assert [problem.split(" — ")[0] for problem in problems] == [
        "machine/pool.py:2: reads the disk's free time outside the sweep "
        "rule",
        "machine/pool.py:3: advances the disk's free time outside the "
        "sweep rule",
        "machine/pool.py:4: advances the disk's free time outside the "
        "sweep rule",
    ]


def test_planning_snapshot_rule_keeps_live_reads_out_of_the_planners(
    tmp_path,
):
    check_docs = _load_check_docs()
    package = tmp_path / "repro"
    for directory in ("machine", "shard"):
        (package / directory).mkdir(parents=True)
    (package / "machine" / "physical.py").write_text(
        "from repro.machine.memory import DEFAULT_BANDWIDTH_BYTES_PER_S\n"
        "def assign(context, name):\n"
        "    record = context.bases[name]\n"
        "    return context.disk_model.read_seconds(record.rows)\n"
    )
    (package / "shard" / "planner.py").write_text(
        "from repro.machine.physical import PlanningContext\n"
        "def rides(context: PlanningContext, name, cylinders):\n"
        "    return context.bases[name].cylinder in cylinders\n"
    )
    # The builder reads the live catalog; that is what it is for.
    (package / "machine" / "catalog.py").write_text(
        "from repro.machine.disk import MachineDisk\n"
        "def snapshot(catalog, name):\n"
        "    return catalog.disk.record(name)\n"
    )
    assert check_docs.check_one_planning_snapshot(root=package) == []

    # A planner that asks the disk, or imports the catalog to ask it.
    (package / "machine" / "physical.py").write_text(
        "import repro.machine.disk\n"
        "def assign(context, name):\n"
        "    return context.disk.profile(name)\n"
    )
    (package / "shard" / "planner.py").write_text(
        "from repro.machine import catalog\n"
        "from repro.machine.catalog import Catalog\n"
        "def rides(shard: Catalog, name):\n"
        "    return shard.disk.cylinder(name)\n"
    )
    problems = check_docs.check_one_planning_snapshot(root=package)
    assert [problem.split(" — ")[0] for problem in problems] == [
        "machine/physical.py:1: imports repro.machine.disk",
        "machine/physical.py:3: reads a disk",
        "shard/planner.py:1: imports repro.machine.catalog",
        "shard/planner.py:2: imports repro.machine.catalog",
        "shard/planner.py:4: reads a disk",
    ]


def test_planning_snapshot_rule_keeps_the_shard_planner_off_its_catalog(
    tmp_path,
):
    check_docs = _load_check_docs()
    package = tmp_path / "repro"
    (package / "shard").mkdir(parents=True)
    # Placements read from the snapshot it was handed: nothing live.
    (package / "shard" / "planner.py").write_text(
        "from repro.shard.catalog import REPLICATED, ShardedSnapshot\n"
        "def placement(snapshot: ShardedSnapshot, name):\n"
        "    return snapshot.placements[name]\n"
    )
    assert check_docs.check_one_planning_snapshot(root=package) == []

    # A planner that holds the sharded catalog and asks it, beside the
    # snapshot the cache key covers, or is handed one and asks it.
    (package / "shard" / "planner.py").write_text(
        "from repro.shard.catalog import ShardedCatalog\n"
        "class ShardPlanner:\n"
        "    def __init__(self, catalog: ShardedCatalog):\n"
        "        self.catalog = catalog\n"
        "    def placement(self, name):\n"
        "        return self.catalog.placement(name)\n"
        "def shards(catalog):\n"
        "    return catalog.shard_count\n"
    )
    problems = check_docs.check_one_planning_snapshot(root=package)
    assert [problem.split(" — ")[0] for problem in problems] == [
        "shard/planner.py:1: imports ShardedCatalog",
        "shard/planner.py:6: reads the catalog's .placement",
        "shard/planner.py:8: reads the catalog's .shard_count",
    ]


def test_one_pricing_rule_keeps_the_device_cost_in_the_planner(tmp_path):
    check_docs = _load_check_docs()
    package = tmp_path / "repro"
    for directory in ("machine", "shard", "perf"):
        (package / directory).mkdir(parents=True)
    (package / "machine" / "physical.py").write_text(
        "def estimate_cost(node, n_a, n_b):\n"
        "    return n_a + n_b\n"
        "def price_array_op(node, n_a, n_b, devices):\n"
        "    return {d: estimate_cost(node, n_a, n_b) for d in devices}\n"
    )
    (package / "shard" / "planner.py").write_text(
        "from repro.machine.physical import price_array_op, quickest\n"
        "def price(node, n_a, n_b, devices):\n"
        "    return quickest(price_array_op(node, n_a, n_b, devices))\n"
    )
    assert check_docs.check_one_pricing(root=package) == []

    # The shard planner's own cost model, as it was: the device cost
    # imported and called beside the planner's, and a second one
    # defined elsewhere.
    (package / "shard" / "planner.py").write_text(
        "from repro.machine.physical import estimate_cost\n"
        "import repro.machine.physical.estimate_cost\n"
        "def join_seconds(node, n_a, n_b):\n"
        "    return estimate_cost(node, n_a, n_b)\n"
    )
    (package / "perf" / "model.py").write_text(
        "from repro.machine import physical\n"
        "def estimate_cost(node, n_a, n_b):\n"
        "    return physical.estimate_cost(node, n_a, n_b)\n"
    )
    problems = check_docs.check_one_pricing(root=package)
    assert [problem.split(" — ")[0] for problem in problems] == [
        "perf/model.py:2: defines estimate_cost",
        "perf/model.py:3: calls estimate_cost",
        "shard/planner.py:1: imports estimate_cost",
        "shard/planner.py:2: imports estimate_cost",
        "shard/planner.py:4: calls estimate_cost",
    ]


def test_network_rule_keeps_the_cell_network_a_watch_kit(tmp_path):
    check_docs = _load_check_docs()
    package = tmp_path / "repro"
    for directory in ("systolic/engine", "patterns", "arrays"):
        (package / directory).mkdir(parents=True)
    (package / "systolic" / "__init__.py").write_text(
        "from repro.systolic.simulator import SystolicSimulator\n"
        "from repro.systolic.values import Token as Datum\n"
        "from repro.systolic.metrics import ComparisonWorkMeter\n"
    )
    (package / "systolic" / "engine" / "materialize.py").write_text(
        "from repro.systolic.values import Token\n"
        "from repro.systolic.wiring import Network\n"
        "def materialize(plan):\n"
        "    return Network('grid')\n"
    )
    (package / "systolic" / "engine" / "pulse.py").write_text(
        '"""Watched with ``SystolicSimulator(network)``: prose."""\n'
        "from repro.systolic.engine.registers import step_plan\n"
    )
    (package / "patterns" / "matcher.py").write_text(
        "def match_pattern(text, pattern):\n"
        "    return PatternChip(pattern, text)\n"
    )
    (package / "arrays" / "base.py").write_text(
        '"""Watch it on ``materialize(plan)``: prose."""\n'
        "from repro.systolic.engine import resolve_backend\n"
        "from repro.systolic.engine.plan import GridPlan\n"
        "import repro.systolic.engine.materialized_view\n"
    )
    assert check_docs.check_network_only_watches(root=package) == []

    # The shapes the compute networks had: a chip driven on its
    # network, and engine modules importing the kit, by absolute,
    # package and relative imports.
    (package / "patterns" / "matcher.py").write_text(
        "from repro.systolic.simulator import SystolicSimulator\n"
        "def match_pattern(text, pattern):\n"
        "    return SystolicSimulator(build(text, pattern)).run(9)\n"
    )
    (package / "systolic" / "engine" / "pulse.py").write_text(
        "from repro.systolic.simulator import SystolicSimulator\n"
        "import repro.systolic.cells.util\n"
        "from repro.systolic import Datum, metrics\n"
        "from ..wiring import Network\n"
        "from .. import streams\n"
    )
    # The shapes the operator modules had: builders imported beside the
    # plans, and the kit's types for their annotations.
    (package / "arrays" / "base.py").write_text(
        "from repro.systolic.engine.materialize import materialize_grid\n"
        "from repro.systolic.engine import materialize\n"
        "from repro.systolic.wiring import Network\n"
        "from ..systolic.trace import TraceRecorder\n"
        "import repro.systolic.engine.materialize\n"
    )
    problems = check_docs.check_network_only_watches(root=package)
    assert [problem.split(" — ")[0] for problem in problems] == [
        "arrays/base.py:1: imports "
        "repro.systolic.engine.materialize.materialize_grid",
        "arrays/base.py:2: imports repro.systolic.engine.materialize",
        "arrays/base.py:3: imports repro.systolic.wiring.Network",
        "arrays/base.py:4: imports repro.systolic.trace.TraceRecorder",
        "arrays/base.py:5: imports repro.systolic.engine.materialize",
        "patterns/matcher.py:3: constructs a SystolicSimulator",
        "systolic/engine/pulse.py:1: imports "
        "repro.systolic.simulator.SystolicSimulator",
        "systolic/engine/pulse.py:2: imports repro.systolic.cells.util",
        "systolic/engine/pulse.py:3: imports repro.systolic.Datum",
        "systolic/engine/pulse.py:3: imports repro.systolic.metrics",
        "systolic/engine/pulse.py:4: imports repro.systolic.wiring.Network",
        "systolic/engine/pulse.py:5: imports repro.systolic.streams",
    ]


def test_perf_layer_rule_holds_the_sections_and_citations(tmp_path):
    check_docs = _load_check_docs()
    layers = check_docs.LAYERS
    (tmp_path / "BENCH_x.json").write_text('{"cache": {"hits": 3}}')
    (tmp_path / "BENCHMARK.json").write_text(
        '{"per_layer": [{"name": "serve.decode_ms"}]}'
    )
    src = tmp_path / "src" / "mod.py"
    src.parent.mkdir()
    src.write_text(f'# the grid in docs/PERF.md, "{layers[1]}"\n')
    perf = tmp_path / "PERF.md"

    def check(headings, cite="`BENCH_x.json` `cache.hits`"):
        perf.write_text("# Perf\n\n" + "".join(
            f"## {heading}\n\nMeasured by {cite}.\n\n" for heading in headings
        ))
        return check_docs.check_perf_layers(
            perf=perf, docs=[perf], root=tmp_path, citers=["src/*.py"],
        )

    assert check([*layers, "The CI regression gate"]) == []
    assert check(layers, "`BENCHMARK.json`\n`serve.decode_ms`") == []

    swapped = [layers[1], layers[0], *layers[2:]]
    assert check(swapped) == [
        f"PERF.md: its first ## headings must be the layers of "
        f"repro.obs.LAYERS in order ({', '.join(layers)}); found "
        f"{', '.join(swapped)}"
    ]
    assert check(["Overview", *layers])[0].startswith(
        "PERF.md: its first ## headings must be the layers"
    )
    assert check(layers, "`BENCH_x.json` `plan_cache`") == [
        f"PERF.md: section {layer!r} cites no measurement that resolves"
        for layer in layers
    ] + [
        "PERF.md: cites `BENCH_x.json` `plan_cache`, which is no section "
        "there",
    ] * len(layers)
    assert check(layers, "`BENCHMARK.json` `serve.encode_ms`")[-1] == (
        "PERF.md: cites `BENCHMARK.json` `serve.encode_ms`, which is no "
        "per_layer name there"
    )

    src.write_text('# see docs/PERF.md\n# and docs/PERF.md, "The cache"\n')
    assert check(layers) == [
        "src/mod.py:1: cites 'docs/PERF.md', which names no section of "
        "PERF.md",
        "src/mod.py:2: cites 'docs/PERF.md, \"The cache\"', which names no "
        "section of PERF.md",
    ]
