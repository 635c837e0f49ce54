"""Puzzle model, grid DSL, exact verifier, augmentation, prompts."""

import json
import random
import stat
import subprocess
import sys
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from quorum.arc import (
    ArcTask,
    D4_ELEMENTS,
    DslProgram,
    ExternalProgram,
    Grid,
    Op,
    ProgramRunError,
    apply_element,
    augment,
    conjugate_program,
    eval_dsl,
    format_prompt,
    group_inverse,
    leave_one_out,
    parse_dsl,
    predict,
    print_dsl,
    run_program,
    verify_program,
)
from quorum.errors import ConfigurationError, DslSyntaxError, GridBoundsError


def grids(max_side=6):
    side = st.integers(1, max_side)
    return st.tuples(side, side).flatmap(
        lambda hw: st.lists(
            st.lists(st.integers(0, 9), min_size=hw[1], max_size=hw[1]),
            min_size=hw[0],
            max_size=hw[0],
        ).map(Grid.from_rows)
    )


def _translate_per_cell(cells, h, w, dr, dc, fill):
    out = [[fill] * w for _ in range(h)]
    for r in range(h):
        for c in range(w):
            nr, nc = r + dr, c + dc
            if 0 <= nr < h and 0 <= nc < w:
                out[nr][nc] = cells[r][c]
    return out


# The interpreter's ops as per-cell formulas, as it once computed them; each
# op built from zip and slices must equal its formula.
PER_CELL = {
    "rotate90": lambda cells, h, w: [[cells[h - 1 - r][c] for r in range(h)] for c in range(w)],
    "rotate180": lambda cells, h, w: [[cells[h - 1 - r][w - 1 - c] for c in range(w)] for r in range(h)],
    "rotate270": lambda cells, h, w: [[cells[r][w - 1 - c] for r in range(h)] for c in range(w)],
    "flip_h": lambda cells, h, w: [[cells[r][w - 1 - c] for c in range(w)] for r in range(h)],
    "flip_v": lambda cells, h, w: [[cells[h - 1 - r][c] for c in range(w)] for r in range(h)],
    "transpose": lambda cells, h, w: [[cells[r][c] for r in range(h)] for c in range(w)],
}


def _rot90_oracle(grid: Grid) -> Grid:
    # Independent rotation: transpose the rows, then reverse each row.
    return Grid.from_rows([list(row)[::-1] for row in zip(*grid.cells)])


def _from_rows_per_cell(rows) -> Grid:
    # Grid.from_rows as it once checked each cell in a Python loop.
    grid = Grid(tuple(tuple(row) for row in rows))
    for r, row in enumerate(grid.cells):
        if len(row) != grid.width:
            raise GridBoundsError(f"ragged row {r}: expected width {grid.width}, got {len(row)}")
        for c, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < 10:
                raise GridBoundsError(f"cell ({r},{c}) color {v!r} outside 0..9")
    return grid


def _to_text_per_cell(grid: Grid) -> str:
    return "\n".join("".join(str(v) for v in row) for row in grid.cells)


def _mismatch_detail_per_cell(got: Grid, want: Grid):
    # verify_program's detail of a failed train pair as it once listed every
    # differing cell; None when the grids are equal.
    if (got.height, got.width) != (want.height, want.width):
        return f"shape {got.height}x{got.width} != {want.height}x{want.width}"
    diffs = [(r, c) for r in range(want.height) for c in range(want.width) if got.cells[r][c] != want.cells[r][c]]
    if not diffs:
        return None
    shown = ", ".join(f"({r},{c})" for r, c in diffs[:8])
    more = "" if len(diffs) <= 8 else f" and {len(diffs) - 8} more"
    return f"{len(diffs)} differing cells: {shown}{more}"


def _from_text_per_digit(text: str) -> Grid:
    # Grid.from_text as it once read each digit with int().
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise GridBoundsError("empty grid text")
    rows = []
    for ln in lines:
        if not (ln.isascii() and ln.isdigit()):
            raise GridBoundsError(f"non-digit character in grid row {ln!r}")
        rows.append([int(ch) for ch in ln])
    return Grid.from_rows(rows)


def _outcome(read, rows):
    """What reading ``rows`` gives: the grid and the type of each cell, or
    the exception's type and message."""
    try:
        grid = read(rows)
    except Exception as exc:
        return type(exc), str(exc)
    return grid, [[type(v) for v in row] for row in grid.cells]


class _Color(IntEnum):
    RED = 2


def _numpy_cell():
    import numpy as np

    return [[1, np.int64(3)]]


FROM_ROWS_CASES = {
    "valid": lambda: [[1, 2, 3], [4, 5, 6]],
    "valid-30x30": lambda: [[(r * c) % 10 for c in range(30)] for r in range(30)],
    "tuple-rows": lambda: ((0, 9), (9, 0)),
    "generator-rows": lambda: (row for row in [[1, 2], [3, 4]]),
    "ragged-shorter": lambda: [[1, 2], [3]],
    "ragged-wider": lambda: [[1, 2], [3, 4, 5]],
    "bad-cell-before-ragged-row": lambda: [[1, 10], [3]],
    "true": lambda: [[1, True]],
    "false": lambda: [[False]],
    "float": lambda: [[1.0]],
    "string-cell": lambda: [[0, "3"]],
    "none": lambda: [[0], [None]],
    "minus-one": lambda: [[0, 0], [0, -1]],
    "ten": lambda: [[10]],
    "256": lambda: [[256, 0]],
    "huge": lambda: [[2**70]],
    "int-enum": lambda: [[_Color.RED, 0]],
    "numpy-int64": _numpy_cell,
    "row-that-is-a-string": lambda: ["123", "456"],
    "row-that-is-an-int": lambda: [5],
    "no-rows": lambda: [],
    "empty-row": lambda: [[]],
    "too-wide": lambda: [[0] * 31],
    "too-tall": lambda: [[0]] * 31,
}


class TestGrid:
    def test_bounds(self):
        with pytest.raises(GridBoundsError):
            Grid.from_rows([[10]])
        with pytest.raises(GridBoundsError):
            Grid.from_rows([[0] * 31])
        with pytest.raises(GridBoundsError):
            Grid.from_rows([[1, 2], [3]])

    def test_text_round_trip(self):
        g = Grid.from_rows([[1, 0], [9, 5]])
        assert Grid.from_text(g.to_text()) == g

    def test_from_text_matches_the_per_digit_read_on_every_shape(self):
        rng = random.Random(3)
        for h in range(1, 31):
            for w in range(1, 31):
                text = "\n".join("".join(rng.choice("0123456789") for _ in range(w)) for _ in range(h))
                assert _outcome(Grid.from_text, text) == _outcome(_from_text_per_digit, text), (h, w)

    @pytest.mark.parametrize("text", [
        "²", "1²", "12\n3²", "", "\n\n", "  \n\t\n", "12\n\n34\n", " 12 \r\n 34 ", "12\n345", "1\n23\n4",
        "0" * 31, "0\n" * 31, "1 2", "-1", "+1", "١٢", "12\n\u00a0", "a",
    ])
    def test_from_text_accepts_and_rejects_as_the_per_digit_read(self, text):
        assert _outcome(Grid.from_text, text) == _outcome(_from_text_per_digit, text)

    @pytest.mark.parametrize("case", sorted(FROM_ROWS_CASES))
    def test_from_rows_accepts_and_rejects_as_the_per_cell_check(self, case):
        make = FROM_ROWS_CASES[case]
        assert _outcome(Grid.from_rows, make()) == _outcome(_from_rows_per_cell, make())

    @given(st.integers(0, 4).flatmap(lambda w: st.lists(st.one_of(
        st.lists(st.one_of(st.integers(0, 9), st.integers(-300, 300),
                           st.sampled_from([True, False, None, 1.0, "3", ""])), min_size=w, max_size=w),
        st.lists(st.integers(0, 9), max_size=5),
        st.text(max_size=3)), max_size=5)))
    @settings(max_examples=300, deadline=None)
    def test_from_rows_matches_the_per_cell_check_on_any_nested_list(self, rows):
        # Rows mostly of one width w, so the bulk check sees whole grids.
        assert _outcome(Grid.from_rows, rows) == _outcome(_from_rows_per_cell, rows)

    def test_to_text_matches_str_of_each_cell_on_every_shape(self):
        rng = random.Random(7)
        for color in range(10):
            assert Grid.from_rows([[color]]).to_text() == str(color)
        for h in range(1, 31):
            for w in range(1, 31):
                g = Grid.from_rows([[rng.randrange(10) for _ in range(w)] for _ in range(h)])
                assert g.to_text() == _to_text_per_cell(g), (h, w)

    @pytest.mark.parametrize("cell", [10, 11, 48, 127, 128, 255, 256, -1, 1.5, "x", None])
    def test_to_text_of_a_cell_no_reader_accepts_is_its_str(self, cell):
        # Only a grid built in code holds such a cell; it is never printed
        # as some other character.
        g = Grid(((1, cell), (cell, 2)))
        assert g.to_text() == _to_text_per_cell(g) == f"1{cell}\n{cell}2"


class TestParsePrint:
    def test_single_op(self):
        program = parse_dsl("rotate90")
        assert program == DslProgram((Op("rotate90"),))

    def test_recolor_and_flip(self):
        program = parse_dsl("recolor(1->2); flip_h")
        assert len(program.ops) == 2
        assert parse_dsl(print_dsl(program)) == program

    def test_unknown_op_location(self):
        with pytest.raises(DslSyntaxError) as excinfo:
            parse_dsl("rotate90;\nrotate45")
        assert excinfo.value.line == 2

    @pytest.mark.parametrize(
        "text",
        [
            "crop(0,0)",  # arity
            "recolor(1->)",  # bad mapping
            "recolor(1->2, 1->3)",  # duplicate source
            "pad(11,0,0,0,0)",  # bad color
            "tile(0,2)",  # bad repeat
            "translate(1,1,12)",  # bad fill
            "rotate90(1)",  # unexpected args
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(DslSyntaxError):
            parse_dsl(text)

    def test_op_budget(self):
        with pytest.raises(DslSyntaxError):
            parse_dsl("; ".join(["identity"] * 65))

    @given(
        st.lists(
            st.sampled_from(
                ["rotate90", "flip_h", "transpose", "recolor(1->2, 3->0)",
                 "pad(0, 1, 0, 0, 1)", "translate(1, -1, 0)", "identity"]
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_print_parse_round_trip(self, names):
        program = parse_dsl("; ".join(names))
        assert parse_dsl(print_dsl(program)) == program


class TestEvalSemantics:
    def test_rotate90_matches_oracle(self):
        g = Grid.from_rows([[1, 2, 3], [4, 5, 6]])
        assert eval_dsl(parse_dsl("rotate90"), g) == _rot90_oracle(g)

    def test_each_op_equals_its_per_cell_formula_on_every_shape(self):
        def run(op, g):
            return eval_dsl(DslProgram((op,)), g)

        rng = random.Random(23)
        for h in range(1, 31):
            for w in range(1, 31):
                g = Grid.from_rows([[rng.randrange(10) for _ in range(w)] for _ in range(h)])
                cells = g.cells
                for name, formula in PER_CELL.items():
                    assert run(Op(name), g) == Grid.from_rows(formula(cells, h, w)), (name, h, w)
                sources = rng.sample(range(10), rng.randint(1, 10))
                pairs = tuple((a, rng.randrange(10)) for a in sources)
                mapping = dict(pairs)
                want = [[mapping.get(v, v) for v in row] for row in cells]
                assert run(Op("recolor", pairs), g) == Grid.from_rows(want), (pairs, h, w)
                # offsets inside, on and past every edge
                offsets = {(0, 0), (h, w), (-h, -w), (h + 2, -1), (1, -w - 3), (-h + 1, w - 1)}
                offsets |= {(rng.randint(-h - 2, h + 2), rng.randint(-w - 2, w + 2)) for _ in range(4)}
                for dr, dc in sorted(offsets):
                    fill = rng.randrange(10)
                    want = _translate_per_cell(cells, h, w, dr, dc, fill)
                    assert run(Op("translate", (dr, dc, fill)), g) == Grid.from_rows(want), (dr, dc, h, w)

    def test_recolor(self):
        g = Grid.from_rows([[1, 0], [1, 1]])
        assert eval_dsl(parse_dsl("recolor(1->2)"), g) == Grid.from_rows([[2, 0], [2, 2]])

    def test_crop_pad_translate_tile(self):
        g = Grid.from_rows([[1, 2], [3, 4]])
        assert eval_dsl(parse_dsl("crop(0, 1, 2, 1)"), g) == Grid.from_rows([[2], [4]])
        assert eval_dsl(parse_dsl("pad(0, 1, 0, 0, 0)"), g) == Grid.from_rows([[0, 0], [1, 2], [3, 4]])
        assert eval_dsl(parse_dsl("translate(1, 0, 9)"), g) == Grid.from_rows([[9, 9], [1, 2]])
        assert eval_dsl(parse_dsl("tile(2, 2)"), g) == Grid.from_rows(
            [[1, 2, 1, 2], [3, 4, 3, 4], [1, 2, 1, 2], [3, 4, 3, 4]]
        )

    def test_overlay_uses_history_slot(self):
        g = Grid.from_rows([[1, 0], [0, 0]])
        # slot 0 is the input; recolor everything away then paint input back
        program = parse_dsl("recolor(1->0); overlay_nonzero(0)")
        assert eval_dsl(program, g) == g

    def test_crop_out_of_bounds(self):
        with pytest.raises(GridBoundsError):
            eval_dsl(parse_dsl("crop(0, 0, 3, 1)"), Grid.from_rows([[1]]))

    def test_tile_beyond_envelope(self):
        with pytest.raises(GridBoundsError):
            eval_dsl(parse_dsl("tile(16, 1)"), Grid.from_rows([[1], [2]]))

    def test_pad_beyond_envelope(self):
        with pytest.raises(GridBoundsError, match="42x2 exceeds 30x30"):
            eval_dsl(parse_dsl("pad(0, 20, 20, 0, 0)"), Grid.from_rows([[1, 2], [3, 4]]))

    @given(grids())
    @settings(max_examples=80, deadline=None)
    def test_rotate_twice_is_rotate180(self, g):
        assert eval_dsl(parse_dsl("rotate90; rotate90"), g) == eval_dsl(parse_dsl("rotate180"), g)

    @given(grids())
    @settings(max_examples=80, deadline=None)
    def test_group_laws(self, g):
        assert eval_dsl(parse_dsl("rotate90; rotate90; rotate90; rotate90"), g) == g
        assert eval_dsl(parse_dsl("flip_h; flip_v"), g) == eval_dsl(parse_dsl("rotate180"), g)
        assert eval_dsl(parse_dsl("transpose; transpose"), g) == g
        assert eval_dsl(parse_dsl("flip_h; flip_h"), g) == g


def _rot_task(task_id="rot180", op="rotate180"):
    pairs = []
    for rows in ([[1, 2], [3, 4]], [[5, 0, 7]], [[1], [2], [3]]):
        g = Grid.from_rows(rows)
        pairs.append((g, eval_dsl(parse_dsl(op), g)))
    test_in = Grid.from_rows([[2, 2], [0, 1]])
    return ArcTask(task_id, tuple(pairs), ((test_in, eval_dsl(parse_dsl(op), test_in)),))


class TestVerifyProgram:
    def test_identity_on_identity_task(self):
        g = Grid.from_rows([[1, 2], [3, 4]])
        task = ArcTask("id", ((g, g),), ())
        assert verify_program(parse_dsl("identity"), task).is_pass

    def test_correct_program_passes(self):
        assert verify_program(parse_dsl("rotate180"), _rot_task()).is_pass

    def test_wrong_rotation_fails_with_coordinates(self):
        verdict = verify_program(parse_dsl("rotate90"), _rot_task())
        assert verdict.status == "fail"
        failing = [c for c in verdict.checks if not c.passed]
        assert failing
        assert any("(" in c.detail for c in failing)  # mismatch coordinates or shape

    @pytest.mark.parametrize("differing,detail", [
        (8, "8 differing cells: (0,0), (0,1), (0,2), (1,0), (1,1), (1,2), (2,0), (2,1)"),
        (9, "9 differing cells: (0,0), (0,1), (0,2), (1,0), (1,1), (1,2), (2,0), (2,1) and 1 more"),
    ], ids=["eight", "nine"])
    def test_at_most_eight_differing_cells_are_named(self, differing, detail):
        want = [[1 if 3 * r + c < differing else 0 for c in range(3)] for r in range(3)]
        task = ArcTask("t", ((Grid.from_rows([[0] * 3] * 3), Grid.from_rows(want)),), ())
        assert verify_program(parse_dsl("identity"), task).checks[0].detail == detail

    def test_mismatches_match_the_per_cell_scan(self):
        from quorum.arc.programs import _mismatch_detail

        rng = random.Random(11)
        for h, w in [(1, 1), (1, 30), (30, 1), (3, 4), (30, 30)] + [(rng.randint(1, 30), rng.randint(1, 30))
                                                                   for _ in range(40)]:
            want = Grid.from_rows([[rng.randrange(10) for _ in range(w)] for _ in range(h)])
            for share in (0.0, 0.01, 0.1, 0.5, 1.0):  # of cells changed
                got = Grid.from_rows([[(v + 1) % 10 if rng.random() < share else v for v in row]
                                      for row in want.cells])
                assert _mismatch_detail(got, want) == _mismatch_detail_per_cell(got, want), (h, w, share)
            for other in [(h + 1, w), (h, w + 1)]:
                if max(other) <= 30:
                    got = Grid.from_rows([[0] * other[1]] * other[0])
                    assert _mismatch_detail(got, want) == _mismatch_detail_per_cell(got, want)
                    assert _mismatch_detail(got, want).startswith("shape ")

    @pytest.mark.parametrize("differing", [0, 1, 8, 9, 900, "shape"])
    def test_mismatch_detail_is_the_per_cell_text(self, differing):
        from quorum.arc.programs import _mismatch_detail

        want = Grid.from_rows([[(r * 30 + c) % 10 for c in range(30)] for r in range(30)])
        if differing == "shape":
            got = Grid.from_rows([row[:29] for row in want.cells])
        else:  # the differing cells scattered over the rows
            changed = set(random.Random(differing).sample(range(900), differing))
            got = Grid.from_rows([[(v + (r * 30 + c in changed)) % 10 for c, v in enumerate(row)]
                                  for r, row in enumerate(want.cells)])
        assert _mismatch_detail(got, want) == _mismatch_detail_per_cell(got, want)
        detail = verify_program(parse_dsl("identity"), ArcTask("t", ((got, want),), ())).checks[0].detail
        assert detail == (_mismatch_detail_per_cell(got, want) or "exact match")

    def test_single_cell_perturbation_flips_verdict(self):
        task = _rot_task()
        program = parse_dsl("rotate180")
        assert verify_program(program, task).is_pass
        inp, out = task.train[0]
        cells = [list(r) for r in out.cells]
        cells[0][0] = (cells[0][0] + 1) % 10
        perturbed = ArcTask(task.id, ((inp, Grid.from_rows(cells)),) + task.train[1:], task.test)
        assert not verify_program(program, perturbed).is_pass

    @pytest.mark.parametrize("text", [";", " ; ;", "\n;\n"])
    def test_a_program_with_no_operation_is_malformed_output(self, text):
        from quorum.arc.programs import check_program_text

        g = Grid.from_rows([[1, 2], [3, 4]])
        task = ArcTask("id", ((g, g),), ())
        with pytest.raises(DslSyntaxError, match="at least one operation"):
            parse_dsl(text)
        verdict = check_program_text(text, task)
        assert verdict.status == "error" and verdict.detail.startswith("malformed output")

    def test_program_text_that_is_not_a_string_is_malformed_output(self):
        from quorum.arc.programs import check_program_text

        g = Grid.from_rows([[1]])
        verdict = check_program_text(5, ArcTask("id", ((g, g),), ()))  # a graph input may hold any JSON value
        assert verdict.status == "error" and verdict.detail.startswith("malformed output")

    def test_crash_is_error_verdict(self):
        task = ArcTask("t", ((Grid.from_rows([[1]]), Grid.from_rows([[1]])),), ())
        verdict = verify_program(parse_dsl("crop(0, 0, 2, 2)"), task)
        assert verdict.status == "error"

    @given(st.sampled_from(D4_ELEMENTS), st.sampled_from(["rotate90", "rotate180", "flip_v", "transpose"]))
    @settings(max_examples=32, deadline=None)
    def test_conjugation_invariant(self, element, op_name):
        # A pure-geometry program passes on the augmented task exactly
        # when its conjugate passes on the original.
        task = _rot_task(op=op_name)
        program = parse_dsl(op_name)
        augmented = ArcTask(
            "aug",
            tuple((apply_element(element, i), apply_element(element, o)) for i, o in task.train),
            (),
        )
        direct = verify_program(program, augmented).is_pass
        conjugated = verify_program(conjugate_program(program, element), task).is_pass
        assert direct == conjugated
        if op_name == "rotate180":  # the group's center commutes with everything
            assert direct


class TestPredict:
    def test_applies_to_test_inputs(self):
        task = _rot_task()
        outputs = predict(parse_dsl("rotate180"), task)
        assert outputs == [task.test[0][1]]

    def test_requires_verification(self):
        with pytest.raises(ProgramRunError):
            predict(parse_dsl("rotate90"), _rot_task())

    def test_unsafe_skips_verification(self):
        outputs = predict(parse_dsl("identity"), _rot_task(), unsafe=True)
        assert outputs == [_rot_task().test[0][0]]


class TestExternalPrograms:
    def _script(self, tmp_path, body: str, timeout_ms: int = 5000):
        path = tmp_path / "prog.py"
        path.write_text(body)
        path.chmod(path.stat().st_mode | stat.S_IEXEC)
        return ExternalProgram((sys.executable, str(path)), timeout_ms=timeout_ms)

    def test_round_trip_identity_program(self, tmp_path):
        prog = self._script(tmp_path, "import sys\nsys.stdout.write(sys.stdin.read())\n")
        g = Grid.from_rows([[1, 2], [3, 4]])
        assert run_program(prog, g) == g

    def test_nonzero_exit_is_error(self, tmp_path):
        prog = self._script(tmp_path, "import sys\nsys.exit(3)\n")
        task = ArcTask("t", ((Grid.from_rows([[1]]), Grid.from_rows([[1]])),), ())
        verdict = verify_program(prog, task)
        assert verdict.status == "error"
        assert "exit status 3" in verdict.detail

    def test_garbage_output_is_error(self, tmp_path):
        prog = self._script(tmp_path, "print('not a grid')\n")
        with pytest.raises(ProgramRunError):
            run_program(prog, Grid.from_rows([[1]]))

    def test_timeout_is_error(self, tmp_path):
        prog = self._script(tmp_path, "import time\ntime.sleep(60)\n", timeout_ms=300)
        with pytest.raises(ProgramRunError, match="timeout"):
            run_program(prog, Grid.from_rows([[1]]))

    def test_timeout_ms_is_the_only_bound(self, monkeypatch):
        # A bound above 10 s reaches the child process unchanged.
        import quorum.arc.programs

        timeouts = []

        def fake_run(command, **kwargs):
            timeouts.append(kwargs["timeout"])
            return subprocess.CompletedProcess(command, 0, stdout="1\n\n", stderr="")

        monkeypatch.setattr(quorum.arc.programs.subprocess, "run", fake_run)
        grid = Grid.from_rows([[1]])
        assert run_program(ExternalProgram(("slow",), timeout_ms=20_000), grid) == grid
        assert timeouts == [20.0]

    def test_crashing_program_no_partial_predict(self, tmp_path):
        prog = self._script(tmp_path, "import sys\nsys.exit(1)\n")
        with pytest.raises(ProgramRunError):
            predict(prog, _rot_task(), unsafe=True)


class TestAugment:
    def test_fully_symmetric_task_collapses(self):
        g = Grid.from_rows([[1]])
        task = ArcTask("dot", ((g, g),), ())
        assert len(augment(task)) == 1

    def test_asymmetric_task_has_full_orbit(self):
        g = Grid.from_rows([[1, 2, 3], [4, 5, 6]])
        task = ArcTask("asym", ((g, g),), ())
        variants = augment(task)
        assert len(variants) == 8
        assert len({v.id for v in variants}) == 8

    def test_full_rotation_is_identity(self):
        g = Grid.from_rows([[1, 2], [3, 4]])
        for element in D4_ELEMENTS:
            inverse = group_inverse(element)
            assert apply_element(inverse, apply_element(element, g)) == g

    def test_conjugate_of_a_program_at_the_op_limit(self):
        # The op limit bounds program text, not the programs built from it.
        program = parse_dsl("; ".join(["rotate90"] * 64))
        conjugate = conjugate_program(program, "fr90")
        assert len(conjugate.ops) == 68
        g = Grid.from_rows([[1, 2, 3], [4, 5, 6]])
        assert eval_dsl(conjugate, g) == g

    @pytest.mark.parametrize("rows", [[[1]], [[1, 2, 1]], [[1, 2], [2, 1]], [[1, 2], [1, 2]], [[1, 1], [1, 2]],
                                      [[1, 2, 3], [4, 5, 6]]])
    def test_variants_are_the_distinct_ones_in_group_order(self, rows):
        g = Grid.from_rows(rows)
        task = ArcTask("t", ((g, g), (g, Grid.from_rows([[3]]))), ((g, None),))
        kept, want = set(), []  # the oracle: the set of (train, test) keys augment once kept
        for element in D4_ELEMENTS:
            variant = (tuple((apply_element(element, i), apply_element(element, o)) for i, o in task.train),
                       tuple((apply_element(element, i), None) for i, _ in task.test))
            if variant not in kept:
                kept.add(variant)
                want.append(f"t:{element}")
        assert [v.id for v in augment(task)] == want

    def test_transform_applied_consistently(self):
        task = _rot_task()
        for variant in augment(task):
            element = variant.id.split(":")[1]
            for (vi, vo), (oi, oo) in zip(variant.train, task.train):
                assert vi == apply_element(element, oi)
                assert vo == apply_element(element, oo)


class TestLeaveOneOut:
    def test_counts(self):
        task = _rot_task()
        splits = leave_one_out(task)
        assert len(splits) == 3
        assert all(len(variant.train) == 2 for variant, _ in splits)

    def test_held_out_becomes_test_with_reference(self):
        task = _rot_task()
        for variant, held in leave_one_out(task):
            assert variant.test == (held,)
            assert variant.test[0][1] is not None

    def test_union_recovers_original_train_set(self):
        task = _rot_task()
        held_pairs = [held for _, held in leave_one_out(task)]
        assert sorted(map(repr, held_pairs)) == sorted(map(repr, task.train))

    def test_single_pair_yields_nothing(self):
        g = Grid.from_rows([[1]])
        assert leave_one_out(ArcTask("one", ((g, g),), ())) == []


class TestFormatPrompt:
    def test_digit_row(self):
        g = Grid.from_rows([[1, 0]])
        task = ArcTask("t", ((g, g),), ())
        assert "10" in format_prompt(task)

    def test_block_structure(self):
        task = _rot_task()
        prompt = format_prompt(task)
        assert prompt.index("train 1 input:") < prompt.index("train 2 input:") < prompt.index("test 1 input:")

    def test_bit_stable(self):
        task = _rot_task()
        assert len({format_prompt(task) for _ in range(100)}) == 1


class TestLoadTasks:
    def test_valid_file(self, tmp_path):
        payload = {"train": [{"input": [[1]], "output": [[2]]}], "test": []}
        (tmp_path / "a.json").write_text(json.dumps(payload))
        task = ArcTask.load(tmp_path / "a.json")
        assert task.id == "a" and task.train[0][1] == Grid.from_rows([[2]])

    def test_ragged_grid_reported(self, tmp_path):
        payload = {"train": [{"input": [[1, 2], [3]], "output": [[1]]}], "test": []}
        (tmp_path / "bad.json").write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="ragged"):
            ArcTask.load(tmp_path / "bad.json")

    def test_out_of_range_color_rejected(self, tmp_path):
        payload = {"train": [{"input": [[1]], "output": [[10]]}], "test": []}
        (tmp_path / "color.json").write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="color"):
            ArcTask.load(tmp_path / "color.json")

    @pytest.mark.parametrize("content", [b"{broken", b"\xff", b"[[" + b"1" * 5001 + b"]]", b"[" * 100_000],
                             ids=["not-json", "not-utf-8", "integer-too-long", "nested-too-deep"])
    def test_unreadable_document_names_the_file(self, tmp_path, content):
        (tmp_path / "p.json").write_bytes(content)
        with pytest.raises(ConfigurationError, match="p.json cannot be read as JSON"):
            ArcTask.load(tmp_path / "p.json")
