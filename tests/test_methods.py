"""Inference combinators: exact examples and statistical oracles.

Heavyweight 10,000-trial checks live in test_acceptance; these tests
use the same oracles at smaller n with wider margins, plus the exact
small cases.
"""

import math
import time
from fractions import Fraction

import pytest

from quorum.adapters import ScriptedSolver, TransformSolver
from quorum.core import Task, normalize_answer, verify
from quorum.errors import ConfigurationError
from quorum.methods import (
    MethodConfig,
    best_of_n,
    consensus,
    leap,
    mcts_resample,
    mixture_of_agents,
    modal_answer,
    plan_search,
    prover_verifier,
    round_trip,
    self_consistency,
    zero_shot,
)
from quorum.seeds import derive_seed


def _task(task_id="t", kind="choice", reference=None, prompt="pick"):
    ref = None if reference is None else normalize_answer(reference, kind)
    return Task(id=task_id, category="test", prompt=prompt, answer_kind=kind, reference=ref)


class SeqSolver:
    """Answers by slot: seed derive(root, i) -> answers[i]."""

    deterministic_timing = True

    def __init__(self, answers, root=0, id="seq"):
        self.id = id
        self.map = {derive_seed(root, i): a for i, a in enumerate(answers)}

    def solve(self, task_id, prompt, seed):
        return self.map[seed]


def _yes_no_solver(p, rng_seed=0, id="s"):
    return ScriptedSolver(id, {"*": [("yes", p), ("no", 1 - p)]}, rng_seed=rng_seed)


YES_TASK = _task(kind="text", reference="yes")


class TestZeroShot:
    def test_certain_table(self):
        result = zero_shot(ScriptedSolver("s", {"*": [("A", 1.0)]}), _task(), seed=0)
        assert result.candidate.answer.payload == "A"

    def test_seed_determinism(self):
        solver = ScriptedSolver("s", {"*": [("A", 0.5), ("B", 0.5)]})
        a = zero_shot(solver, _task(), seed=9).candidate
        b = zero_shot(solver, _task(), seed=9).candidate
        assert a == b

    def test_fixture_baseline_one_of_nine(self):
        # Scripted to the recorded zero-shot column of the bundled
        # olympiad fixture: exactly one of the nine tasks verifies.
        from quorum.fixtures import load_fixture

        data = load_fixture("olympiad_methods")
        solved = 0
        for entry in data["tasks"]:
            task = _task(task_id=entry["id"], kind="text", reference="right")
            recorded = data["zero_shot_baseline"][entry["id"]]["solved"]
            solver = ScriptedSolver("o1-like", {entry["id"]: [("right" if recorded else "wrong", 1.0)]})
            result = zero_shot(solver, task, seed=0)
            solved += verify(task, result.candidate).is_pass
        assert solved == 1


class TestBestOfN:
    def test_n1_reduces_to_zero_shot(self):
        solver = ScriptedSolver("s", {"*": [("yes", 0.5), ("no", 0.5)]})
        for seed in range(10):
            bon = best_of_n(solver, YES_TASK, seed, n=1)
            zs = zero_shot(solver, YES_TASK, seed=seed)
            assert bon.candidate.answer == zs.candidate.answer

    def test_rejection_law(self):
        solver = _yes_no_solver(0.5, rng_seed=11)
        trials, hits = 2000, 0
        for trial in range(trials):
            result = best_of_n(solver, YES_TASK, trial, n=3)
            hits += verify(YES_TASK, result.candidate).is_pass
        assert abs(hits / trials - (1 - 0.5**3)) < 0.03

    def test_never_skips_a_verified_sample(self):
        solver = _yes_no_solver(0.2, rng_seed=5)
        for seed in range(300):
            result = best_of_n(solver, YES_TASK, seed, n=4)
            sampled_yes = any(e["answer"] == "yes" for e in result.trace.samples)
            if sampled_yes:
                assert result.candidate.answer.payload == "yes"
                assert result.trace.extras["selection"] == "first-verified"

    def test_no_verifier_warns_and_votes(self):
        solver = SeqSolver(["A", "B", "B"])
        result = best_of_n(solver, _task(), 0, n=3)
        assert result.candidate.answer.payload == "B"
        assert any("no verifier" in note for note in result.trace.notes)

    def test_trace_records_all_samples(self):
        solver = _yes_no_solver(0.5)
        result = best_of_n(solver, YES_TASK, 1, n=8)
        assert len(result.trace.samples) == 8
        assert all("verdict" in e for e in result.trace.samples)


class TestSelfConsistency:
    def test_majority(self):
        result = self_consistency(SeqSolver(["A", "A", "B"]), _task(), 0, n=3)
        assert result.candidate.answer.payload == "A"

    def test_tie_breaks_lexicographically(self):
        for answers in (["A", "B"], ["B", "A"]):
            result = self_consistency(SeqSolver(answers), _task(), 0, n=2)
            assert result.candidate.answer.payload == "A"

    def test_majority_accuracy_binomial(self):
        solver = _yes_no_solver(0.6, rng_seed=2)
        trials, hits = 2000, 0
        for trial in range(trials):
            result = self_consistency(solver, YES_TASK, trial, n=5)
            hits += result.candidate.answer.payload == "yes"
        expected = sum(math.comb(5, k) * 0.6**k * 0.4 ** (5 - k) for k in range(3, 6))
        assert abs(hits / trials - expected) < 0.03

    def test_all_errors(self):
        solver = ScriptedSolver("s", {"*": [("!error", 1.0)]})
        result = self_consistency(solver, _task(), 0, n=3)
        assert result.candidate.is_error

    def test_beats_zero_shot_above_coin_flip(self):
        # Majority voting amplifies any per-sample accuracy above 1/2.
        solver = _yes_no_solver(0.6, rng_seed=17)
        trials = 10_000
        sc_hits = zs_hits = 0
        for trial in range(trials):
            sc_hits += self_consistency(solver, YES_TASK, trial, n=5).candidate.answer.payload == "yes"
            zs_hits += zero_shot(solver, YES_TASK, seed=trial).candidate.answer.payload == "yes"
        assert sc_hits / trials >= zs_hits / trials

    def test_order_independence_of_modal(self):
        answers = [normalize_answer(a, "choice") for a in "ABABCBBA"]
        baseline = modal_answer(answers)
        for shift in range(len(answers)):
            assert modal_answer(answers[shift:] + answers[:shift]) == baseline


class TestMixtureOfAgents:
    def test_single_solver(self):
        solver = ScriptedSolver("s", {"*": [("C", 1.0)]})
        result = mixture_of_agents(solver, _task(), 0, weights=[1.0])
        assert result.candidate.answer.payload == "C"

    def test_weighted_argmax(self):
        a = ScriptedSolver("a", {"*": [("A", 1.0)]})
        b = ScriptedSolver("b", {"*": [("B", 1.0)]})
        result = mixture_of_agents(a, _task(), 0, weights=[0.6, 0.4], extra_solvers=[b])
        assert result.candidate.answer.payload == "A"
        result = mixture_of_agents(a, _task(), 0, weights=[0.4, 0.6], extra_solvers=[b])
        assert result.candidate.answer.payload == "B"

    def test_uniform_equals_pooled_majority(self):
        solvers = [
            ScriptedSolver("a", {"*": [("A", 1.0)]}),
            ScriptedSolver("b", {"*": [("A", 1.0)]}),
            ScriptedSolver("c", {"*": [("B", 1.0)]}),
        ]
        result = mixture_of_agents(solvers[0], _task(), 0, extra_solvers=solvers[1:])
        pooled = modal_answer([normalize_answer(e["answer"], "choice") for e in result.trace.samples])
        assert result.candidate.answer == pooled
        assert result.candidate.answer.payload == "A"

    def test_every_agent_failing_leaves_an_error_candidate(self):
        solvers = [ScriptedSolver(sid, {"*": [("!error:backend down", 1.0)]}) for sid in "ab"]
        result = mixture_of_agents(solvers[0], _task(reference="A"), 3, extra_solvers=solvers[1:])
        assert result.candidate.answer is None and result.candidate.error == "all agents failed"
        assert [(s["slot"], s["answer"], s["error"]) for s in result.trace.samples] == [
            ("a", None, "backend down"), ("b", None, "backend down")]

    def test_weight_count_checked_when_config_is_built(self):
        solvers = {"a": ScriptedSolver("a", {"*": [("A", 1.0)]}), "b": ScriptedSolver("b", {"*": [("B", 1.0)]})}
        entry = {"method_id": "mixture_of_agents", "params": {"extra_solver_ids": ["b"]}}
        assert MethodConfig.from_dict({**entry, "weights": [0.6, 0.4]}, solvers).kwargs["weights"] == (0.6, 0.4)
        for weights in ([1.0], [0.5, 0.25, 0.25]):  # the cell's solver plus one extra agent
            with pytest.raises(ConfigurationError, match="mixture_of_agents has 2 agent"):
                MethodConfig.from_dict({**entry, "weights": weights}, solvers)


class TestMctsResample:
    TWO_STAGE = {
        "*": [
            ("P1", 0.5, [("yes", 0.9), ("no", 0.1)]),
            ("P2", 0.5, [("yes", 0.1), ("no", 0.9)]),
        ]
    }

    def test_rollouts_1_reduces_to_zero_shot(self):
        solver = ScriptedSolver("s", {"*": [("yes", 0.5), ("no", 0.5)]}, two_stage=self.TWO_STAGE)
        for seed in range(10):
            a = mcts_resample(solver, YES_TASK, seed, n=1).candidate
            b = zero_shot(solver, YES_TASK, seed=seed).candidate
            assert a.answer == b.answer

    def test_good_prefix_wins(self):
        solver = ScriptedSolver("s", {"*": [("yes", 0.5), ("no", 0.5)]},
                                rng_seed=4, two_stage=self.TWO_STAGE)
        trials = 1000
        chose_good = 0
        for trial in range(trials):
            result = mcts_resample(solver, YES_TASK, trial, n=16)
            chose_good += result.trace.extras["chosen_prefix"] == "P1"
        assert chose_good / trials >= 0.95

    def test_prefix_value_is_mean_of_rewards(self):
        solver = ScriptedSolver("s", {"*": [("yes", 0.5), ("no", 0.5)]}, two_stage=self.TWO_STAGE)
        result = mcts_resample(solver, YES_TASK, 3, n=9)
        for entry in result.trace.extras["prefix_values"]:
            assert entry["value"] == pytest.approx(sum(entry["rewards"]) / entry["visits"])

    def test_two_stage_needs_prefix_and_completion(self):
        class PrefixOnly:
            id = "half"
            deterministic_timing = True

            def solve(self, task_id, prompt, seed):
                return "yes"

            def solve_prefix(self, task_id, prompt, seed):
                return "P1"

        result = mcts_resample(PrefixOnly(), YES_TASK, 0, n=4)
        assert "solver lacks two-stage sampling: rollouts are plain samples" in result.trace.notes
        assert result.candidate.answer.payload == "yes"

    def test_runs_exactly_n_rollouts(self):
        class Counting:  # its k-th prefix draw gives prefix k mod distinct
            id = "count"
            deterministic_timing = True

            def __init__(self, distinct):
                self.distinct, self.prefix_draws, self.completions = distinct, 0, 0

            def solve(self, task_id, prompt, seed):
                raise AssertionError("a two-stage rollout makes no plain draw")

            def solve_prefix(self, task_id, prompt, seed):
                self.prefix_draws += 1
                return f"P{self.prefix_draws % self.distinct}"

            def solve_completion(self, task_id, prompt, prefix, seed):
                self.completions += 1
                return "yes"

        for n in range(2, 11):
            for distinct in (1, 2, 3):
                solver = Counting(distinct)
                result = mcts_resample(solver, YES_TASK, 0, n=n)
                wanted = math.isqrt(n - 1) + 1  # ceil(sqrt(n)) prefixes at most
                k = min(distinct, wanted)
                visits = [entry["visits"] for entry in result.trace.extras["prefix_values"]]
                assert solver.completions == len(result.trace.samples) == n, (n, distinct)
                assert visits == [n // k + (i < n % k) for i in range(k)], (n, distinct)
                # prefix draws stop at the wanted count, else after 4 per wanted prefix
                assert solver.prefix_draws == (wanted if distinct >= wanted else 4 * wanted), (n, distinct)

    def test_no_verifier_uses_modal_agreement(self):
        solver = ScriptedSolver("s", {"*": [("yes", 0.5), ("no", 0.5)]}, two_stage=self.TWO_STAGE)
        result = mcts_resample(solver, _task(kind="text"), 3, n=9)
        assert any("modal completion" in note for note in result.trace.notes)


ROT13 = str.maketrans(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
    "nopqrstuvwxyzabcdefghijklmNOPQRSTUVWXYZABCDEFGHIJKLM",
)


FWD_BWD = {"forward_prompt": "FWD:{input}", "backward_prompt": "BWD:{output}"}


class TestRoundTrip:
    def test_identity_accepted(self):
        solver = TransformSolver("id", lambda p, rng: p.removeprefix("FWD:").removeprefix("BWD:"))
        task = _task(kind="text", prompt="some text")
        result = round_trip(solver, task, 0, **FWD_BWD)
        assert result.trace.extras.get("accepted_attempt") == 0

    def test_rot13_involution_accepted(self):
        solver = TransformSolver(
            "rot13", lambda p, rng: p.removeprefix("FWD:").removeprefix("BWD:").translate(ROT13)
        )
        task = _task(kind="text", prompt="hello world")
        result = round_trip(solver, task, 0, **FWD_BWD)
        assert result.trace.extras.get("accepted_attempt") == 0
        assert result.candidate.answer.payload == "uryyb jbeyq"

    def test_noisy_backward_retry_law(self):
        def noisy(prompt, rng):
            if prompt.startswith("FWD:"):
                return prompt[4:]
            text = prompt[4:]
            return text + " corrupted" if rng.random() < 0.1 else text

        task = _task(kind="text", prompt="stable text")
        trials, accepted = 2000, 0
        for trial in range(trials):
            solver = TransformSolver("noisy", noisy, rng_seed=trial)
            result = round_trip(solver, task, trial, n=5, **FWD_BWD)
            accepted += "accepted_attempt" in result.trace.extras
        assert abs(accepted / trials - (1 - 0.1**5)) < 0.02

    def test_one_round_trip_by_default(self):
        solver = TransformSolver("bad", lambda p, rng: "never restored")
        result = round_trip(solver, _task(kind="text", prompt="text"), 0)
        assert len(result.trace.samples) == 1 and result.trace.extras.get("round_trip_failed")

    def test_failure_flagged(self):
        solver = TransformSolver("bad", lambda p, rng: p.removeprefix("FWD:") + "x"
                                 if p.startswith("BWD:") else p.removeprefix("FWD:"))
        task = _task(kind="text", prompt="text")
        result = round_trip(solver, task, 0, n=2, **FWD_BWD)
        assert result.trace.extras.get("round_trip_failed")
        assert "round_trip_failed" in result.trace.notes

    def test_elapsed_ms_covers_forward_and_backward_calls(self):
        class SlowEcho:  # a real backend: no deterministic_timing, 30 ms a call
            id = "slow"

            def solve(self, task_id, prompt, seed):
                time.sleep(0.03)
                return prompt.removeprefix("FWD:").removeprefix("BWD:")

        result = round_trip(SlowEcho(), _task(kind="text", prompt="text"), 0, **FWD_BWD)
        assert result.trace.extras.get("accepted_attempt") == 0
        assert result.candidate.elapsed_ms >= 60

    def test_blank_backward_output_restores_nothing(self):
        solver = TransformSolver("blank", lambda p, rng: " " if p.startswith("BWD:") else p.removeprefix("FWD:"))
        result = round_trip(solver, _task(kind="text", prompt="text"), 0, **FWD_BWD)
        assert result.trace.samples[0]["accepted"] is False
        assert result.trace.extras.get("round_trip_failed")
        assert result.candidate.answer.payload == "text"

    def test_failed_solver_calls_leave_an_error_candidate(self):
        solver = ScriptedSolver("s", {"*": [("!error:backend down", 1.0)]})
        result = round_trip(solver, _task(kind="text", prompt="text"), 3, n=2, **FWD_BWD)
        assert [s["error"] for s in result.trace.samples] == ["backend down", "backend down"]
        assert result.candidate.error == "round trip produced no candidate"
        assert result.candidate.seed == 3 and result.candidate.method_id == "rto"


class TestProverVerifier:
    def test_always_accepting_verifier(self):
        prover = ScriptedSolver("p", {"*": [("yes", 0.5), ("no", 0.5)]})
        judge = TransformSolver("ok", lambda p, rng: "1")
        result = prover_verifier(prover, YES_TASK, 0, rounds=3, verifier_solver=judge)
        assert result.trace.extras["accepted_round"] == 0

    def test_reference_only_verifier_law(self):
        def strict(prompt, rng):
            last = prompt.strip().splitlines()[-1]
            return "1" if last.endswith("yes") else "0"

        judge = TransformSolver("strict", strict)
        trials, accepted = 2000, 0
        for trial in range(trials):
            prover = _yes_no_solver(0.5, rng_seed=trial, id="p")
            result = prover_verifier(prover, YES_TASK, trial, rounds=4, verifier_solver=judge)
            accepted += "accepted_round" in result.trace.extras
        assert abs(accepted / trials - (1 - 0.5**4)) < 0.03

    def test_transcript_contract(self):
        prover = ScriptedSolver("p", {"*": [("no", 1.0)]})
        judge = TransformSolver("never", lambda p, rng: "0")
        result = prover_verifier(prover, YES_TASK, 0, rounds=4, verifier_solver=judge)
        transcript = result.trace.extras["transcript"]
        assert len(transcript) <= 4
        rounds = [t["round"] for t in transcript]
        assert rounds == sorted(rounds) and len(set(rounds)) == len(rounds)
        assert any("no attempt accepted" in n for n in result.trace.notes)

    def test_judge_errors_count_as_rejection(self):
        prover = ScriptedSolver("p", {"*": [("yes", 1.0)]})
        judge = ScriptedSolver("broken", {"*": [("!error", 1.0)]})
        result = prover_verifier(prover, YES_TASK, 0, rounds=2, verifier_solver=judge)
        assert "accepted_round" not in result.trace.extras


class TestPlanSearch:
    def test_single_plan_single_solve(self):
        solver = ScriptedSolver("s", {"*": [("A", 1.0)]})
        result = plan_search(solver, _task(), 0, n=1)
        assert len(result.trace.samples) == 1

    def test_ignored_plans_equal_pooled_majority(self):
        solver = ScriptedSolver("s", {"*": [("A", 0.5), ("B", 0.5)]}, rng_seed=8)
        for seed in range(20):
            result = plan_search(solver, _task(), seed, n=5)
            answers = [normalize_answer(e["answer"], "choice") for e in result.trace.samples]
            assert result.candidate.answer == modal_answer(answers)

    def test_one_good_plan_in_four(self):
        trials, hits = 2000, 0
        for trial in range(trials):
            solver = ScriptedSolver(
                "s",
                {"*": [("no", 1.0)]},
                rng_seed=trial,
                prompt_triggers={
                    "Draft a short solution plan": {"*": [("use the key fact", 0.25), ("flail", 0.75)]},
                    "use the key fact": {"*": [("yes", 1.0)]},
                },
            )
            result = plan_search(solver, YES_TASK, trial, n=4)
            hits += verify(YES_TASK, result.candidate).is_pass
        assert abs(hits / trials - (1 - 0.75**4)) < 0.03


class TestLeap:
    def test_no_examples_equals_zero_shot(self):
        solver = ScriptedSolver("s", {"*": [("A", 0.5), ("B", 0.5)]})
        for seed in range(10):
            a = leap(solver, _task(), seed).candidate
            b = zero_shot(solver, _task(), seed=seed).candidate
            assert a.answer == b.answer

    def test_principles_flip_the_answer(self):
        # Solver answers correctly only when the prompt carries a principle.
        solver = ScriptedSolver(
            "s",
            {"*": [("wrong", 1.0)]},
            prompt_triggers={
                "List one principle per line": {"*": [("always check parity first", 1.0)]},
                "Principles:": {"*": [("yes", 1.0)]},
            },
        )
        task = _task(kind="text", reference="yes")
        assert not verify(task, zero_shot(solver, task, seed=0).candidate).is_pass
        result = leap(solver, task, 0, examples=[("2+2", "4")])
        assert verify(task, result.candidate).is_pass

    def test_principles_verbatim_in_trace(self):
        solver = ScriptedSolver(
            "s",
            {"*": [("A", 1.0)]},
            prompt_triggers={"List one principle per line": {"*": [("- rule one\n- rule two", 1.0)]}},
        )
        result = leap(solver, _task(), 0, examples=[("x", "y")])
        assert result.trace.extras["principles"] == ["rule one", "rule two"]

    def test_principle_prompt_numbers_the_examples_from_one(self):
        prompts = []
        solver = TransformSolver("rec", lambda p, rng: prompts.append(p) or "A")
        leap(solver, _task(), 0, examples=[("1+1", "2"), ("2+2", "4")])
        assert prompts[0] == ("Derive general principles for solving problems like these examples.\n"
                              "example 1 input: 1+1\nexample 1 answer: 2\n"
                              "example 2 input: 2+2\nexample 2 answer: 4\n"
                              "List one principle per line.")

    def test_empty_extraction_falls_back(self):
        solver = ScriptedSolver(
            "s",
            {"*": [("A", 1.0)]},
            prompt_triggers={"List one principle per line": {"*": [("   \n  ", 1.0)]}},
        )
        result = leap(solver, _task(), 0, examples=[("x", "y")])
        assert any("falling back" in note for note in result.trace.notes)
        assert result.candidate.answer.payload == "A"


class TestConsensus:
    def _answers(self, letters):
        return [normalize_answer(ch, "choice") for ch in letters]

    def test_unanimous(self):
        report = consensus(self._answers("AAAAA"))
        assert report.c == 1 and report.diversity == 0

    def test_two_thirds(self):
        report = consensus(self._answers("AAB"))
        assert report.c == Fraction(2, 3)
        assert report.diversity == Fraction(1, 3)

    def test_four_way_tie(self):
        report = consensus(self._answers("ABCD"))
        assert report.modal_answer.payload == "A"
        assert report.c == Fraction(1, 4)

    def test_diversity_complement_exact_and_integral(self):
        import random

        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(1, 12)
            letters = [rng.choice("ABC") for _ in range(n)]
            report = consensus(self._answers(letters))
            assert report.diversity == 1 - report.c
            assert (report.c * n).denominator == 1
            assert report.c >= Fraction(1, n)  # the modal answer agrees with itself
            # independent hand-count
            best = max("ABC", key=lambda ch: (letters.count(ch), -ord(ch)))
            assert report.c == Fraction(letters.count(best), n)

    def test_needs_candidates(self):
        with pytest.raises(ValueError):
            consensus([])


class TestRunMethod:
    SOLVERS = {
        "s": ScriptedSolver("s", {"*": [("yes", 0.4), ("no", 0.4), ("!error", 0.2)]}, rng_seed=3,
                            two_stage={"*": [("think", 0.5, [("yes", 0.5), ("no", 0.5)]),
                                             ("guess", 0.5, [("no", 1.0)])]}),
        "b": ScriptedSolver("b", {"*": [("yes", 0.5), ("no", 0.5)]}, rng_seed=4),
        "judge": ScriptedSolver("judge", {"*": [("1", 0.5), ("0", 0.5)]}),
    }
    ENTRIES = {
        "zero_shot": {},
        "best_of_n": {"n": 3},
        "self_consistency": {"n": 3},
        "mixture_of_agents": {"params": {"extra_solver_ids": ["b"]}},
        "mcts": {"n": 4},
        "rto": {"n": 2},
        "prover_verifier": {"rounds": 2, "params": {"verifier_solver_id": "judge"}},
        "plan_search": {"n": 2},
        "leap": {"params": {"examples": [["1+1", "2"]]}},
    }

    def test_every_method_has_an_entry_here(self):
        from quorum.methods import METHODS

        assert set(self.ENTRIES) == set(METHODS)

    @pytest.mark.parametrize("method_id", sorted(ENTRIES))
    def test_function_takes_exactly_what_its_entry_can_set(self, method_id):
        import inspect

        from quorum.methods import METHODS, combinators
        from quorum.methods.config import SOLVER_ARGUMENTS

        method = METHODS[method_id]
        parameters = inspect.signature(getattr(combinators, method.function)).parameters.values()
        assert [p.name for p in parameters if p.kind is not p.KEYWORD_ONLY][1:] == ["task", "seed"]
        keyword_only = {p.name for p in parameters if p.kind is p.KEYWORD_ONLY}
        assert keyword_only == {SOLVER_ARGUMENTS.get(key, key) for key in (*method.keys, *method.params)}

    @pytest.mark.parametrize("method_id", sorted(ENTRIES))
    def test_returns_the_verdict_of_its_pick(self, method_id):
        from quorum.methods import run_method

        config = MethodConfig.from_dict({"method_id": method_id, **self.ENTRIES[method_id]}, self.SOLVERS)
        verdicts = set()
        for seed in range(8):
            for task in (YES_TASK, _task(kind="text")):  # checked by its reference, and unverifiable
                result, verdict = run_method(config, self.SOLVERS["s"], task, seed=seed)
                assert verdict == verify(task, result.candidate)
                verdicts.add(verdict.status)
        assert {"pass", "error"} <= verdicts

    def test_samples_are_checked_only_when_the_task_has_a_check(self):
        from quorum.methods import run_method

        config = MethodConfig.from_dict({"method_id": "best_of_n", "n": 3}, self.SOLVERS)
        for task, checked in ((YES_TASK, True), (_task(kind="text"), False)):
            result, _ = run_method(config, self.SOLVERS["b"], task, seed=1)
            assert all(("verdict" in s) == checked for s in result.trace.samples)

    def test_looks_verify_up_on_its_module_when_called(self, monkeypatch):
        import importlib

        from quorum.methods import run_method

        module = importlib.import_module("quorum.core.verify")
        calls = []
        monkeypatch.setattr(module, "verify", lambda task, cand: calls.append(cand) or verify(task, cand))
        config = MethodConfig.from_dict({"method_id": "best_of_n", "n": 3}, self.SOLVERS)
        run_method(config, self.SOLVERS["b"], YES_TASK, seed=0)
        assert len(calls) == 4  # three samples, then the pick
