"""Inference strategies over black-box solvers.

Every method is ``fn(solver, task, seed, *, <knobs>)``: its keyword-only
arguments are exactly what its ``methods`` entry can set, each with its
default written once, here, and ``config.py`` checks them before any
cell runs, so nothing here checks them again.  A method consumes solver
samples and emits one candidate plus a trace of everything it drew and
decided.  ``best_of_n``, ``mcts_resample`` and ``plan_search`` check
their samples with ``quorum.core.verify.verify`` exactly when the task
has a check.  Per-sample seeds are fixed per slot index, so every
selection operator is independent of the order in which samples
complete.  Ties between answers always break toward the
lexicographically smallest normalized payload.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from ..adapters.base import SolverError, sample, supports_two_stage
from ..core.answers import AnswerValue, normalize_answer
from ..core.model import Candidate, Task, Verdict
from ..errors import MalformedAnswerError
from ..seeds import derive_seed


@dataclass
class MethodTrace:
    method_id: str
    samples: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def record(self, slot, candidate: Candidate, verdict: Optional[Verdict] = None, **kw):
        entry = {
            "slot": slot,
            "seed": candidate.seed,
            "answer": candidate.answer.canonical_text() if candidate.answer else None,
            "error": candidate.error,
        }
        if verdict is not None:
            entry["verdict"] = verdict.status
        entry.update(kw)
        self.samples.append(entry)

    def to_json(self) -> dict:
        return {
            "method_id": self.method_id,
            "samples": self.samples,
            "notes": self.notes,
            "extras": self.extras,
        }


@dataclass
class MethodResult:
    candidate: Candidate
    trace: MethodTrace


@dataclass(frozen=True)
class ConsensusReport:
    """Agreement of a candidate pool with its modal answer."""

    modal_answer: AnswerValue
    c: Fraction
    diversity: Fraction


def modal_answer(answers: Sequence[AnswerValue]) -> AnswerValue:
    """Most common answer; ties break to the smallest sort key."""
    if not answers:
        raise ValueError("no answers to vote over")
    counts = Counter(answers)
    return min(counts, key=lambda a: (-counts[a], a.sort_key()))


def consensus(candidates: Sequence) -> ConsensusReport:
    """Agreement fraction c = |{k : y_k = modal}| / n and its complement."""
    if not candidates:
        raise ValueError("consensus requires at least one candidate")
    answers = [c.answer if isinstance(c, Candidate) else c for c in candidates]
    present = [a for a in answers if a is not None]
    if not present:
        raise ValueError("consensus requires at least one non-error answer")
    modal = modal_answer(present)
    c = Fraction(sum(1 for a in answers if a == modal), len(answers))
    return ConsensusReport(modal, c, 1 - c)


def _aggregate_candidate(
    answer: Optional[AnswerValue],
    samples: Sequence[Candidate],
    solver_id: str,
    method_id: str,
    seed: int,
    error: Optional[str] = None,
) -> Candidate:
    return Candidate(
        answer=answer,
        solver_id=solver_id,
        method_id=method_id,
        seed=seed,
        elapsed_ms=sum(s.elapsed_ms for s in samples),
        error=error,
    )


def _select_modal(samples, trace, solver_id, method_id, seed):
    answered = [s for s in samples if s.answer is not None]
    if not answered:
        trace.notes.append("all samples failed")
        return _aggregate_candidate(None, samples, solver_id, method_id, seed, error="all samples failed")
    modal = modal_answer([s.answer for s in answered])
    trace.extras["selection"] = "modal"
    trace.extras["modal_answer"] = modal.canonical_text()
    return _aggregate_candidate(modal, samples, solver_id, method_id, seed)


def _select_first_verified(samples, verdicts, trace, solver_id, method_id, seed):
    """The first sample whose verdict passed, else the modal answer."""
    for cand, verdict in zip(samples, verdicts):
        if verdict is not None and verdict.is_pass:
            trace.extras["selection"] = "first-verified"
            return _aggregate_candidate(cand.answer, samples, solver_id, method_id, seed)
    return _select_modal(samples, trace, solver_id, method_id, seed)


def _verifier(task: Task):
    """``quorum.core.verify.verify`` when ``task`` has a check, else None;
    looked up when called, so a wrapper set on that module is the one used."""
    if task.check is None:
        return None
    from ..core.verify import verify

    return verify


def _draw_and_select(solver, verifier, task, n, seed, trace, plan=None) -> MethodResult:
    """Draw slots 0..n-1, check each with ``verifier`` when there is one,
    record each in ``trace``, and pick the first verified, else the modal
    answer.  ``plan(i)``, when given, returns the plan slot i is solved
    under (an empty plan leaves the task prompt as it is)."""
    samples, verdicts = [], []
    for i in range(n):
        plan_text = plan(i) if plan is not None else ""
        prompt = f"{task.prompt}\n\nPlan:\n{plan_text}" if plan_text else None
        cand = sample(solver, task, derive_seed(seed, i), method_id=trace.method_id, prompt=prompt,
                      rationale=plan_text or None)
        verdict = verifier(task, cand) if verifier is not None else None
        if plan is None:
            trace.record(i, cand, verdict)
        else:
            trace.record(i, cand, verdict, plan=plan_text)
        samples.append(cand)
        verdicts.append(verdict)
    return MethodResult(_select_first_verified(samples, verdicts, trace, solver.id, trace.method_id, seed), trace)


# -- the methods -----------------------------------------------------------


def zero_shot(solver, task: Task, seed: int) -> MethodResult:
    """The task prompt, as-is, one sample."""
    trace = MethodTrace("zero_shot")
    cand = sample(solver, task, derive_seed(seed, 0), method_id="zero_shot")
    trace.record(0, cand)
    return MethodResult(cand, trace)


def best_of_n(solver, task: Task, seed: int, *, n: int = 1) -> MethodResult:
    """Rejection sampling: first verified candidate wins, else modal.

    When the task has a check, candidates are checked in slot order and
    the first pass is returned; without one (or when nothing passes)
    selection falls back to the modal answer, with a recorded warning
    when the check was absent.
    """
    trace = MethodTrace("best_of_n")
    verifier = _verifier(task)
    if verifier is None:
        trace.notes.append("no verifier: selecting by modal answer only")
    return _draw_and_select(solver, verifier, task, n, seed, trace)


def self_consistency(solver, task: Task, seed: int, *, n: int = 1) -> MethodResult:
    """Majority vote over n independent samples."""
    return _draw_and_select(solver, None, task, n, seed, MethodTrace("self_consistency"))


def mixture_of_agents(
    solver,
    task: Task,
    seed: int,
    *,
    weights: Optional[Sequence[float]] = None,
    extra_solvers: Sequence = (),
) -> MethodResult:
    """Weighted vote over one sample per agent: ``solver``, then each of
    ``extra_solvers``, with one weight each (default: equal weights).

    Answer distributions of black-box solvers are not observable, so the
    mixture is realized as voting: each agent contributes its weight to
    its sampled answer and the argmax wins.
    """
    solvers = [solver, *extra_solvers]
    if weights is None:
        weights = [1.0 / len(solvers)] * len(solvers)
    trace = MethodTrace("mixture_of_agents")
    samples, mass = [], {}
    for agent, weight in zip(solvers, weights):
        cand = sample(agent, task, derive_seed(seed, agent.id), method_id="mixture_of_agents")
        trace.record(agent.id, cand, weight=weight)
        samples.append(cand)
        if cand.answer is not None:
            mass[cand.answer] = mass.get(cand.answer, 0.0) + weight
    if not mass:
        return MethodResult(
            _aggregate_candidate(None, samples, samples[0].solver_id, "mixture_of_agents", seed,
                                 error="all agents failed"),
            trace,
        )
    best = min(mass, key=lambda a: (-mass[a], a.sort_key()))
    trace.extras["vote_mass"] = {a.canonical_text(): m for a, m in mass.items()}
    solver_ids = "+".join(s.id for s in solvers)
    return MethodResult(_aggregate_candidate(best, samples, solver_ids, "mixture_of_agents", seed), trace)


def mcts_resample(solver, task: Task, seed: int, *, n: int = 1) -> MethodResult:
    """Rejection sampling from an intermediate step via Monte-Carlo rollouts.

    The budget of exactly ``n`` rollouts is spread over the k <= ceil(sqrt(n))
    distinct rationale prefixes sampled, the first ``n mod k`` getting one
    more than the others; each prefix is scored by the mean reward of its
    completions and the best completion under the best prefix is returned.
    Reward is 1 for a verified completion; when the task has no check it
    falls back to agreement with the modal completion (recorded).
    """
    trace = MethodTrace("mcts")
    if n == 1:
        cand = sample(solver, task, derive_seed(seed, 0), method_id="mcts")
        trace.record(0, cand)
        trace.notes.append("rollouts=1: single plain sample")
        return MethodResult(cand, trace)
    if not supports_two_stage(solver):
        trace.notes.append("solver lacks two-stage sampling: rollouts are plain samples")
        prefixes = [""]
    else:
        k = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
        prefixes = []
        for i in range(4 * k):
            if len(prefixes) >= k:
                break
            try:
                prefix = solver.solve_prefix(task.id, task.prompt, derive_seed(seed, "prefix", i))
            except SolverError as exc:
                trace.notes.append(f"prefix draw failed: {exc}")
                continue
            if prefix not in prefixes:
                prefixes.append(prefix)
        if not prefixes:
            prefixes = [""]

    per_prefix, extra = divmod(n, len(prefixes))  # at most ceil(sqrt(n)) <= n prefixes: each gets a rollout
    completions: dict[str, list[Candidate]] = {p: [] for p in prefixes}
    for pi, prefix in enumerate(prefixes):
        for j in range(per_prefix + (pi < extra)):
            slot_seed = derive_seed(seed, "completion", pi, j)

            def complete():
                return solver.solve_completion(task.id, task.prompt, prefix, slot_seed), prefix

            # the empty prefix (no two-stage draw) is a plain sample
            completions[prefix].append(sample(solver, task, slot_seed, method_id="mcts",
                                              call=complete if prefix else None))

    rewards: dict[str, list[float]] = {}
    verifier = _verifier(task)
    if verifier is not None:
        for prefix, cands in completions.items():
            rewards[prefix] = [1.0 if verifier(task, cand).is_pass else 0.0 for cand in cands]
    else:
        trace.notes.append("no verifier: reward is agreement with the modal completion")
        pool = [c.answer for cs in completions.values() for c in cs if c.answer is not None]
        modal = modal_answer(pool) if pool else None
        for prefix, cands in completions.items():
            rewards[prefix] = [1.0 if (c.answer is not None and c.answer == modal) else 0.0 for c in cands]

    values = {p: (sum(rs) / len(rs) if rs else 0.0) for p, rs in rewards.items()}
    trace.extras["prefix_values"] = [
        {"prefix": p, "visits": len(rewards[p]), "rewards": rewards[p], "value": values[p]}
        for p in prefixes
    ]
    best_prefix = prefixes[min(range(len(prefixes)), key=lambda i: (-values[prefixes[i]], i))]
    trace.extras["chosen_prefix"] = best_prefix

    for pi, prefix in enumerate(prefixes):
        for j, cand in enumerate(completions[prefix]):
            trace.record((pi, j), cand, prefix=prefix, reward=rewards[prefix][j])

    best_cands = completions[best_prefix]
    ranked = sorted(
        range(len(best_cands)),
        key=lambda j: (
            -rewards[best_prefix][j],
            best_cands[j].answer.sort_key() if best_cands[j].answer else ("~", "~"),
            j,
        ),
    )
    winner = best_cands[ranked[0]]
    all_samples = [c for cs in completions.values() for c in cs]
    if winner.answer is None:
        answered = [c.answer for c in all_samples if c.answer is not None]
        if not answered:
            return MethodResult(
                _aggregate_candidate(None, all_samples, solver.id, "mcts", seed,
                                     error="all rollouts failed"),
                trace,
            )
        trace.notes.append("chosen prefix produced no answer: falling back to modal completion")
        return MethodResult(
            _aggregate_candidate(modal_answer(answered), all_samples, solver.id, "mcts", seed), trace
        )
    return MethodResult(_aggregate_candidate(winner.answer, all_samples, solver.id, "mcts", seed), trace)


def round_trip(
    solver,
    task: Task,
    seed: int,
    *,
    n: int = 1,
    forward_prompt: str = "{input}",
    backward_prompt: str = "{output}",
) -> MethodResult:
    """Accept a candidate only if the reverse action restores the input,
    trying up to ``n`` round trips.

    ``forward_prompt`` is a template of ``{input}`` alone, ``backward_prompt``
    one of ``{output}`` alone.  The input counts as restored when the
    backward output equals the task prompt as normalized text.
    """
    trace = MethodTrace("rto")
    attempts, last = [], None
    for i in range(n):
        fwd_seed = derive_seed(seed, "forward", i)
        bwd_seed = derive_seed(seed, "backward", i)
        trip = {}

        def forward_then_backward():
            forward = solver.solve(task.id, forward_prompt.format(input=task.prompt), fwd_seed)
            trip["backward"] = solver.solve(task.id, backward_prompt.format(output=forward), bwd_seed)
            return forward, f"round trip returned {trip['backward']!r}"

        cand = sample(solver, task, fwd_seed, method_id="rto", call=forward_then_backward)
        attempts.append(cand)
        if "backward" not in trip:  # a solver call failed
            trace.record(i, cand)
            continue
        accepted = cand.answer is not None and _restores(task.prompt, trip["backward"])
        trace.record(i, cand, accepted=accepted, backward=trip["backward"])
        last = cand
        if accepted:
            trace.extras["accepted_attempt"] = i
            return MethodResult(cand, trace)
    trace.notes.append("round_trip_failed")
    trace.extras["round_trip_failed"] = True
    if last is None:
        last = _aggregate_candidate(None, attempts, solver.id, "rto", seed, error="round trip produced no candidate")
    return MethodResult(last, trace)


def _restores(original: str, backward: str) -> bool:
    """Whether ``backward`` equals ``original`` as normalized text; a
    blank backward output restores nothing."""
    try:
        return normalize_answer(original, "text") == normalize_answer(backward, "text")
    except MalformedAnswerError:
        return False


def _parse_decision(text: str) -> bool:
    head = text.strip().split()[0].lower() if text.strip() else ""
    return head in ("1", "yes", "accept", "true", "correct")


def prover_verifier(prover, task: Task, seed: int, *, rounds: int = 1, verifier_solver) -> MethodResult:
    """Interactive game: the prover proposes, ``verifier_solver`` accepts or rejects.

    Returns the first accepted attempt; after ``rounds`` rejections the
    last attempt is returned flagged unaccepted.  Verifier-model failures
    count as rejections.
    """
    trace = MethodTrace("prover_verifier")
    transcript: list[dict] = []
    attempts = []
    for i in range(rounds):
        attempt = sample(prover, task, derive_seed(seed, "attempt", i), method_id="prover_verifier")
        attempts.append(attempt)
        shown = attempt.answer.canonical_text() if attempt.answer else f"<error: {attempt.error}>"
        transcript.append({"round": i, "message": shown})
        decision_prompt = "Decide whether the latest attempt is correct. Reply 1 or 0.\n" + "\n".join(
            f"attempt {t['round']}: {t['message']}" for t in transcript
        )
        try:
            decision = _parse_decision(
                verifier_solver.solve(task.id, decision_prompt, derive_seed(seed, "decision", i))
            )
        except SolverError as exc:
            decision = False
            trace.notes.append(f"verifier model error on round {i}: {exc}")
        transcript[-1]["decision"] = int(decision)
        trace.record(i, attempt, decision=int(decision))
        if decision and attempt.answer is not None:
            trace.extras["transcript"] = transcript
            trace.extras["accepted_round"] = i
            return MethodResult(attempt, trace)
    trace.extras["transcript"] = transcript
    trace.notes.append("no attempt accepted")
    last = attempts[-1]
    if last.answer is None:
        last = _aggregate_candidate(None, attempts, prover.id, "prover_verifier", seed,
                                    error="no attempt produced an answer")
    return MethodResult(last, trace)


def plan_search(solver, task: Task, seed: int, *, n: int = 1) -> MethodResult:
    """Explore ``n`` candidate plans, solve once conditioned on each, select."""
    trace = MethodTrace("plan_search")

    def plan(i: int) -> str:
        try:
            return solver.solve(task.id, f"Draft a short solution plan.\n{task.prompt}", derive_seed(seed, "plan", i))
        except SolverError as exc:
            trace.notes.append(f"plan draw {i} failed: {exc}")
            return ""

    return _draw_and_select(solver, _verifier(task), task, n, seed, trace, plan=plan)


PRINCIPLE_PROMPT = (
    "Derive general principles for solving problems like these examples.\n"
    "{examples}\n"
    "List one principle per line."
)


def leap(solver, task: Task, seed: int, *, examples: Sequence[tuple[str, str]] = ()) -> MethodResult:
    """Learn principles from worked examples, then solve with them prepended.

    With no examples, or when principle extraction comes back empty, the
    method degrades to a plain zero-shot sample with a recorded warning.
    """
    trace = MethodTrace("leap")
    prompt = None
    if examples:
        rendered = "\n".join(
            f"example {i} input: {x}\nexample {i} answer: {y}" for i, (x, y) in enumerate(examples, 1)
        )
        try:
            raw = solver.solve(task.id, PRINCIPLE_PROMPT.format(examples=rendered),
                               derive_seed(seed, "principles"))
        except SolverError as exc:
            trace.notes.append(f"principle extraction failed: {exc}")
            raw = ""
        items = [line.strip(" -*0123456789.").strip() for line in raw.splitlines()]
        items = [item for item in items if item]
        if items:
            trace.extras["principles"] = items
            principles = "\n".join(f"- {item}" for item in items)
            prompt = f"Principles:\n{principles}\n\n{task.prompt}"
        else:
            trace.notes.append("empty principle extraction: falling back to zero-shot")
    else:
        trace.notes.append("no examples given: falling back to zero-shot")

    cand = sample(solver, task, derive_seed(seed, 0), method_id="leap", prompt=prompt)
    trace.record(0, cand)
    return MethodResult(cand, trace)
