"""Pipeline graphs: execution, tracing, mutation, proposal lines, A/B tests as eval columns."""

import json

import numpy as np
import pytest

from quorum.adapters import ScriptedSolver
from quorum.arc import ArcTask, Grid
from quorum.graph import (
    Edge,
    GraphValidationError,
    Mutation,
    MutationError,
    NodeDef,
    PipelineGraph,
    bind,
    execute,
    mutate,
    op_def,
    parse_proposal_line,
)
from quorum.errors import ConfigurationError, QuorumError
from quorum.seeds import derive_seed


def _passthrough_graph():
    return PipelineGraph(
        nodes={"p": NodeDef("passthrough")},
        edges=frozenset(),
        inputs={"value": (("p", "value"),)},
        outputs={"result": ("p", "value")},
    )


def _diamond_graph(fail_left=False):
    left_op = "fail" if fail_left else "passthrough"
    return PipelineGraph(
        nodes={
            "src": NodeDef("passthrough"),
            "left": NodeDef(left_op),
            "right": NodeDef("passthrough"),
            "joinpoint": NodeDef("join", {"sep": "|"}),
        },
        edges=frozenset(
            {
                Edge("src", "value", "left", "value"),
                Edge("src", "value", "right", "value"),
                Edge("left", "value", "joinpoint", "a"),
                Edge("right", "value", "joinpoint", "b"),
            }
        ),
        inputs={"value": (("src", "value"),)},
        outputs={"joined": ("joinpoint", "value"), "right_branch": ("right", "value")},
    )


class TestExecute:
    def test_passthrough(self):
        outputs, trace = execute(bind(_passthrough_graph(), {}), {"value": "x"})
        assert outputs == {"result": "x"}
        assert trace.executed_ids() == ["p"]

    def test_diamond_topology(self):
        outputs, trace = execute(bind(_diamond_graph(), {}), {"value": "v"})
        assert outputs["joined"] == "v|v"
        assert len(trace.entries) == 4
        order = trace.executed_ids()
        assert order.index("src") < order.index("left") < order.index("joinpoint")
        assert order.index("src") < order.index("right") < order.index("joinpoint")

    def test_failure_halts_dependents_not_siblings(self):
        outputs, trace = execute(bind(_diamond_graph(fail_left=True), {}), {"value": "v"})
        assert outputs["joined"] is None
        assert outputs["right_branch"] == "v"  # sibling branch kept running
        assert trace.skipped == ["joinpoint"]
        assert trace.entry("left").error

    def test_trace_completeness(self):
        _, trace = execute(bind(_diamond_graph(fail_left=True), {}), {"value": "v"})
        executed = set(trace.executed_ids())
        assert executed == {"src", "left", "right"}  # all not downstream of the failure

    def test_a_later_node_naming_a_missing_solver_stops_the_graph_before_any_call(self):
        calls = []

        class Counting:
            def solve(self, task_id, prompt, seed):
                calls.append(prompt)
                return "A"

        graph = PipelineGraph(
            nodes={"first": NodeDef("solve_text", {"solver_id": "s"}),
                   "second": NodeDef("solve_text", {"solver_id": "missing"})},
            edges=frozenset({Edge("first", "text", "second", "prompt")}),
            inputs={"prompt": (("first", "prompt"),)},
            outputs={"text": ("second", "text")},
        )
        with pytest.raises(ConfigurationError, match="no solver 'missing'"):
            execute(bind(graph, {"s": Counting()}), {"prompt": "p"})
        assert calls == []

    def test_missing_input_rejected(self):
        with pytest.raises(ConfigurationError, match="missing graph inputs"):
            execute(bind(_passthrough_graph(), {}), {})

    def test_deterministic_digests(self):
        graph = PipelineGraph(
            nodes={"s": NodeDef("solve_text", {"solver_id": "scripted"})},
            edges=frozenset(),
            inputs={"prompt": (("s", "prompt"),)},
            outputs={"text": ("s", "text")},
        )
        bound = bind(graph, {"scripted": ScriptedSolver("scripted", {"*": [("A", 0.5), ("B", 0.5)]})})
        runs = [execute(bound, {"prompt": "p"}, seed=5) for _ in range(2)]
        digests = [[(e.node_id, e.inputs_digest, e.output_digest) for e in t.entries] for _, t in runs]
        assert digests[0] == digests[1]

    def test_composition_matches_direct_calls(self):
        # Oracle: run the three stages by hand and compare.
        from quorum.arc import format_prompt, parse_dsl, verify_program
        from quorum.fixtures import graph_template

        grid = Grid.from_rows([[1, 2], [3, 4]])
        rotated = Grid.from_rows([[3, 1], [4, 2]])
        task = ArcTask("rot", ((grid, rotated),), ())
        solver = ScriptedSolver("synthesizer", {"*": [("rotate90", 1.0)]})
        graph = graph_template("puzzle_pipeline")
        outputs, trace = execute(bind(graph, {"synthesizer": solver}), {"task": task})
        assert len(trace.entries) == 3
        assert outputs["passed"] is True
        direct = verify_program(parse_dsl(solver.solve("rot", format_prompt(task), 0)), task)
        assert outputs["verdict"]["status"] == direct.status == "pass"


ROT180_PUZZLE = {"train": [{"input": [[1, 2], [3, 4]], "output": [[4, 3], [2, 1]]},
                           {"input": [[5, 0, 1]], "output": [[1, 0, 5]]}]}


@pytest.mark.parametrize("reply,status", [("rotate180", "pass"), ("ROTATE180", "pass"), ("  ", "error"),
                                          ("flip_h", "fail")])
def test_puzzle_verify_agrees_with_an_eval_cell(tmp_path, reply, status):
    import json

    from quorum.cli import main
    from quorum.core import Task
    from quorum.fixtures import graph_template
    from quorum.methods import MethodConfig, run_method

    solver = ScriptedSolver("synthesizer", {"*": [(reply, 1.0)]})
    task = Task.from_dict({"id": "rot", "prompt": "?", "answer_kind": "text",
                           "verifier": {"kind": "arc_program", "params": {"task": ROT180_PUZZLE}}})
    config = MethodConfig.from_dict({"method_id": "zero_shot"}, {"synthesizer": solver})
    _, cell = run_method(config, solver, task, seed=0)
    outputs, _ = execute(bind(graph_template("puzzle_pipeline"), {"synthesizer": solver}), {"task": ROT180_PUZZLE})
    assert outputs["verdict"]["status"] == cell.status == status
    puzzle = tmp_path / "puzzle.json"
    puzzle.write_text(json.dumps(ROT180_PUZZLE))
    # arc verify exits 0 on a pass, 1 on a fail, and 2 on text that does not parse
    exit_code = {"pass": 0, "fail": 1, "error": 2}[status]
    assert main(["arc", "verify", "--task", str(puzzle), "--program", reply]) == exit_code


# One input per declared port, enough for each built-in op to run once.
_ARC_TASK = ArcTask("rot", ((Grid.from_rows([[1, 2]]), Grid.from_rows([[2, 1]])),), ())
_OP_CALLS = {
    "const": ({"value": 1}, {}),
    "passthrough": ({}, {"value": "v"}),
    "join": ({}, {"a": "x", "b": "y"}),
    "stub": ({}, {}),
    "fail": ({}, {"value": "v"}),
    "puzzle_prompt": ({}, {"task": _ARC_TASK}),
    "solve_text": ({"solver_id": "s"}, {"prompt": "p"}),
    "puzzle_verify": ({}, {"program_text": "flip_h", "task": _ARC_TASK}),
    "run_method": ({"method_id": "zero_shot", "solver_id": "s"},
                   {"task": {"id": "t", "prompt": "?", "answer_kind": "text", "reference": "yes"}}),
}


@pytest.mark.parametrize("name", sorted(_OP_CALLS))
def test_each_builtin_op_returns_exactly_its_declared_ports(name):
    from quorum.graph.ops import _REGISTRY

    assert set(_REGISTRY) == set(_OP_CALLS)
    definition = op_def(name)
    params, inputs = _OP_CALLS[name]
    assert set(inputs) == set(definition.inputs)
    bound = definition.bind(params, {"s": ScriptedSolver("s", {"*": [("yes", 1.0)]})}, "n")
    if name == "fail":
        with pytest.raises(QuorumError, match="node configured to fail"):
            definition.fn(bound, inputs, 0, "n")
        return
    assert set(definition.fn(bound, inputs, 0, "n")) == set(definition.outputs)


class TestValidation:
    def test_cycle_rejected_at_construction(self):
        with pytest.raises(GraphValidationError, match="cycle"):
            PipelineGraph(
                nodes={"a": NodeDef("passthrough"), "b": NodeDef("passthrough")},
                edges=frozenset({Edge("a", "value", "b", "value"), Edge("b", "value", "a", "value")}),
                inputs={},
                outputs={},
            )

    def test_unfed_port_rejected(self):
        with pytest.raises(GraphValidationError, match="unfed"):
            PipelineGraph(nodes={"a": NodeDef("passthrough")}, edges=frozenset(), inputs={}, outputs={})

    def test_double_fed_port_rejected(self):
        with pytest.raises(GraphValidationError, match="fed"):
            PipelineGraph(
                nodes={"a": NodeDef("const"), "b": NodeDef("const"), "c": NodeDef("passthrough")},
                edges=frozenset({Edge("a", "value", "c", "value"), Edge("b", "value", "c", "value")}),
                inputs={},
                outputs={},
            )

    def test_unknown_op_rejected(self):
        with pytest.raises(GraphValidationError, match="unknown operation"):
            PipelineGraph(nodes={"a": NodeDef("no_such_op")}, edges=frozenset(), inputs={}, outputs={})


class TestMutate:
    def test_remove_unused_node(self):
        graph = PipelineGraph(
            nodes={"p": NodeDef("passthrough"), "orphan": NodeDef("const")},
            edges=frozenset(),
            inputs={"value": (("p", "value"),)},
            outputs={"result": ("p", "value")},
        )
        smaller = mutate(graph, Mutation("remove_node", {"node": "orphan"}))
        assert set(smaller.nodes) == {"p"}
        assert set(graph.nodes) == {"p", "orphan"}  # original untouched

    def test_cycle_creating_edge_rejected(self):
        graph = _diamond_graph()
        with pytest.raises(MutationError):
            mutate(graph, Mutation("add_edge", {"src": "joinpoint", "out_port": "value",
                                                "dst": "src", "in_port": "value"}))

    def test_remove_feeding_node_rejected(self):
        graph = _diamond_graph()
        with pytest.raises(MutationError):
            mutate(graph, Mutation("remove_node", {"node": "src"}))

    def test_edit_param_changes_execution(self):
        task = {"id": "t", "prompt": "?", "answer_kind": "choice", "reference": "A"}
        graph = PipelineGraph(
            nodes={"m": NodeDef("run_method", {"method_id": "best_of_n", "n": 3, "solver_id": "s"})},
            edges=frozenset(),
            inputs={"task": (("m", "task"),)},
            outputs={"n_samples": ("m", "n_samples"), "passed": ("m", "passed")},
        )
        solvers = {"s": ScriptedSolver("s", {"*": [("A", 0.5), ("B", 0.5)]})}
        outputs, _ = execute(bind(graph, solvers), {"task": task})
        assert outputs["n_samples"] == 3
        bigger = mutate(graph, Mutation("edit_param", {"node": "m", "key": "n", "value": 5}))
        outputs, _ = execute(bind(bigger, solvers), {"task": task})
        assert outputs["n_samples"] == 5

    def test_edit_prompt_requires_string(self):
        graph = _passthrough_graph()
        with pytest.raises(MutationError):
            mutate(graph, Mutation("edit_prompt", {"node": "p", "key": "template", "value": 3}))

    def test_data_mutations(self):
        graph = _passthrough_graph()
        with_data = mutate(graph, Mutation("add_data", {"name": "examples", "item": ["x", "y"]}))
        assert with_data.data["examples"] == (["x", "y"],)
        emptied = mutate(with_data, Mutation("remove_data", {"name": "examples", "index": 0}))
        assert emptied.data["examples"] == ()

    def test_random_mutation_sequences_never_accept_cycles(self):
        rng = np.random.default_rng(derive_seed(0, "mutation-fuzz"))
        graph = _diamond_graph()
        kinds = ["add_edge", "remove_edge", "add_node", "remove_node", "edit_param"]
        accepted = []
        for _ in range(300):
            kind = kinds[int(rng.integers(len(kinds)))]
            nodes = sorted(graph.nodes)
            pick = lambda: nodes[int(rng.integers(len(nodes)))]

            def edit_param():
                node = pick()
                keys = op_def(graph.nodes[node].op).params or ("k",)  # a node whose op takes none: rejected
                return {"node": node, "key": keys[int(rng.integers(len(keys)))], "value": int(rng.integers(10))}

            payload = {
                "add_edge": lambda: {"src": pick(), "out_port": "value", "dst": pick(), "in_port": "value"},
                "remove_edge": lambda: {"src": pick(), "out_port": "value", "dst": pick(), "in_port": "value"},
                "add_node": lambda: {"node": f"n{int(rng.integers(1000))}", "op": "const"},
                "remove_node": lambda: {"node": pick()},
                "edit_param": edit_param,
            }[kind]()
            try:
                graph = mutate(graph, Mutation(kind, payload))
                accepted.append(kind)
            except MutationError:
                continue
            graph.topological_order()  # raises on cycles: never happens
        assert "edit_param" in accepted and len(set(accepted)) > 1


class TestProposeRevision:
    """A proposed revision is one ``KIND TARGET [JSON]`` line, read by
    ``parse_proposal_line`` and checked against the graph by ``mutate``."""

    def _apply(self, line):
        return mutate(_diamond_graph(), parse_proposal_line(line))

    def test_parse_contract(self):
        proposal = parse_proposal_line('edit_param joinpoint {"key": "sep", "value": 1}')
        assert proposal == Mutation("edit_param", {"key": "sep", "value": 1, "node": "joinpoint"})
        assert self._apply('edit_param joinpoint {"key": "sep", "value": 1}').nodes["joinpoint"].params["sep"] == 1

    def test_invalid_target_rejected(self):
        with pytest.raises(MutationError, match="ghost"):
            self._apply('edit_param ghost {"key": "x", "value": 1}')
        with pytest.raises(MutationError):
            self._apply("remove_node src")  # it feeds other nodes

    def test_non_string_identifier_rejected(self):
        for line in ('edit_param right {"node": [1], "key": "k", "value": 1}',
                     'edit_param right {"key": [1], "value": 1}',
                     'add_node x {"op": ["const"]}',
                     'add_data x {"name": [1], "item": 1}',
                     'remove_node x {"node": {"a": 1}}'):
            with pytest.raises(ConfigurationError, match="must be a string"):
                self._apply(line)

    def test_non_string_value_accepted(self):
        assert self._apply('edit_param joinpoint {"key": "sep", "value": [1]}').nodes["joinpoint"].params["sep"] == [1]

    def test_payload_failing_a_shape_check_rejected(self):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            self._apply('remove_data examples {"index": "0"}')
        with pytest.raises(ConfigurationError, match="cannot be read as JSON"):
            self._apply('remove_data examples {"index": 1' + "0" * 5000 + '}')

    def test_free_text_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot be read as JSON"):
            self._apply("maybe try increasing the sample count?")

    def test_edge_target_form(self):
        mutation = parse_proposal_line("remove_edge left.value->joinpoint.a")
        assert mutation.payload == {"src": "left", "out_port": "value", "dst": "joinpoint", "in_port": "a"}

    def test_accept_if_improves_loop(self, tmp_path):
        # Apply a proposal, run both graphs as columns of one sweep, and keep
        # the variant only if coverage improves; oracle compares the two columns directly.
        tasks = [
            {"id": f"t{i}", "prompt": "?", "answer_kind": "text", "reference": "yes"}
            for i in range(12)
        ]
        graph = _method_variant(1, "baseline")
        revised = mutate(graph, parse_proposal_line('edit_param m {"key": "n", "value": 6}'))
        matrix = _eval_matrix(tmp_path, [graph, revised], tasks, COIN, rng_seed=3)
        base, improved = (sum(column) for column in zip(*matrix["solved"]))
        kept = improved > base
        assert kept  # n=6 rejection sampling dominates n=1 on this fixture


COIN = {"*": [["yes", 0.5], ["no", 0.5]]}


def _method_variant(n, name):
    return PipelineGraph(
        nodes={"m": NodeDef("run_method", {"method_id": "best_of_n", "n": n, "solver_id": "s"})},
        edges=frozenset(),
        inputs={"task": (("m", "task"),)},
        outputs={"answer": ("m", "answer"), "passed": ("m", "passed")},
        name=name,
    )


def _eval_matrix(tmp_path, graphs, tasks, table, rng_seed=0, code=0):
    """matrix.json of a `quorum eval` run with one column per graph, whose
    nodes use the scripted solver ``s`` answering from ``table``, after
    checking that the run exits with ``code``."""
    from quorum.cli import main

    tmp_path.mkdir(exist_ok=True)
    paths = []
    for i, graph in enumerate(graphs):
        paths.append(str(tmp_path / f"graph{i}.json"))
        graph.save(paths[-1])
    (tmp_path / "tasks.json").write_text(json.dumps(tasks))
    (tmp_path / "config.json").write_text(json.dumps({
        "solvers": [{"id": "s", "kind": "scripted", "params": {"table": table, "rng_seed": rng_seed}}],
        "methods": [{"graph": path} for path in paths],
        "tasks": str(tmp_path / "tasks.json"),
    }))
    out = tmp_path / "runs"
    assert main(["eval", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == code
    if code:
        return None
    [run_dir] = out.iterdir()
    return json.loads((run_dir / "matrix.json").read_text())


class TestAbTest:
    """An A/B test of graph variants is one eval run with a column per variant."""

    TASKS = [{"id": f"t{i}", "prompt": "?", "answer_kind": "text", "reference": "yes"} for i in range(8)]

    def test_a_column_is_drawn_from_its_own_label(self, tmp_path):
        # A cell's seed comes from the root seed, the task and the column's
        # label, so a column does not depend on which columns run beside it.
        a, b = _method_variant(2, "a"), _method_variant(2, "b")
        both = _eval_matrix(tmp_path / "both", [a, b], self.TASKS, COIN)
        swapped = _eval_matrix(tmp_path / "swapped", [b, a], self.TASKS, COIN)
        alone = _eval_matrix(tmp_path / "alone", [a], self.TASKS, COIN)
        assert both["solver_ids"] == ["a", "b"] and swapped["solver_ids"] == ["b", "a"]
        column = [row[0] for row in both["solved"]]
        assert column == [row[1] for row in swapped["solved"]] == [row[0] for row in alone["solved"]]
        assert [row[1] for row in both["solved"]] == [row[0] for row in swapped["solved"]]

    def test_sample_budget_shows_in_accuracy(self, tmp_path):
        tasks = [{"id": f"t{i}", "prompt": "?", "answer_kind": "text", "reference": "yes"} for i in range(120)]
        matrix = _eval_matrix(tmp_path, [_method_variant(1, "small"), _method_variant(5, "big")], tasks, COIN,
                              rng_seed=1)
        assert matrix["solver_ids"] == ["small", "big"]
        small, big = (sum(column) / len(tasks) for column in zip(*matrix["solved"]))
        assert abs(small - 0.5) < 0.15
        assert abs(big - (1 - 0.5**5)) < 0.1

    def test_empty_tasks_rejected(self, tmp_path, capsys):
        _eval_matrix(tmp_path, [_method_variant(1, "a"), _method_variant(2, "b")], [], COIN, code=2)
        assert "configuration error: no tasks in" in capsys.readouterr().err
