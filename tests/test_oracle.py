"""Concrete-execution oracle: violations on faulty chunks, silence on
compliant ones, determinism, and interpreter spot checks."""

import collections
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ric import oracle, pool
from ric.checker import check_chunk
from ric.cli import run as cli_run
from ric.chunks import load_chunk_records
from ric.constraints import derive_interface
from ric.errors import OutOfSandbox, RicError, StepLimit
from ric.lift import lift, parse_template
from ric.oracle import (
    SANDBOX_BASE,
    STEP_BUDGET,
    MachineState,
    OracleRun,
    TrialConfig,
    _mem_equal,
    exec_program,
    oracle_check,
)

from conftest import CORPUS

CFG = TrialConfig(trials=100, seed=0)


def chunk(template, outputs=(), inputs=(), clobbers=()):
    return load_chunk_records(
        [
            {
                "template": template,
                "outputs": [
                    {"constraint": c, "expr_text": e, "size_bytes": s}
                    for c, e, s in outputs
                ],
                "inputs": [
                    {"constraint": c, "expr_text": e, "size_bytes": s}
                    for c, e, s in inputs
                ],
                "clobbers": list(clobbers),
            }
        ]
    )[0]


# ---------------------------------------------------------------------------
# Faulty chunks are caught


FAULTY = [
    ("bad/flags.c", "frame_write", "flag:"),
    ("bad/input_clobbered.c", "frame_write", "ebp"),
    ("bad/reg_clobbered.c", "frame_write", "ecx"),
    ("bad/mem_write.c", "frame_write", "memory"),
    ("bad/mem_read.c", "frame_read", "%0"),
    ("bad/never_written.c", "frame_read", "%0"),
    ("bad/reg_read.c", "frame_read", "%0"),
    ("bad/unicity.c", "unicity", "%0"),
]


@pytest.mark.parametrize("cid,prop,loc_hint", FAULTY)
def test_faulty_chunk_violates(corpus_by_id, cid, prop, loc_hint):
    v = oracle_check(OracleRun(check_chunk(corpus_by_id[cid]), CFG), prop)
    assert v.verdict == "violation", (cid, v.reason)
    assert loc_hint in v.witness.location
    assert v.witness.assignment is not None


def test_motivating_unicity_violates_within_100_trials(corpus_by_id):
    c = corpus_by_id["paper/cas8_x86.c"]
    few = oracle_check(OracleRun(check_chunk(c), TrialConfig(trials=100, seed=0)), "unicity")
    assert (few.verdict, few.trials_run) == ("violation", 33)
    many = oracle_check(OracleRun(check_chunk(c), TrialConfig(trials=600, seed=0)), "unicity")
    assert many.verdict == "violation"
    assert "%0" in many.witness.location


def test_motivating_frame_write_violates(corpus_by_id):
    c = corpus_by_id["paper/cas8_x86.c"]
    v = oracle_check(OracleRun(check_chunk(c), CFG), "frame_write")
    assert v.verdict == "violation"


# ---------------------------------------------------------------------------
# Compliant chunks never produce a violation


def test_no_violation_on_compliant_corpus(compliant_corpus_oracle):
    for (cid, prop), v in compliant_corpus_oracle.verdicts.items():
        assert v.verdict != "violation", (cid, prop, v.witness)


def test_truncated_assignment_set_is_inconclusive():
    # three "r" inputs have 7**3 = 343 valid assignments, over ASSIGNMENT_CAP
    c = chunk("nop", inputs=[("r", "x", 4), ("r", "y", 4), ("r", "z", 4)])
    v = oracle_check(OracleRun(check_chunk(c), TrialConfig(trials=10)), "frame_write")
    assert v.verdict == "inconclusive"
    assert "truncated" in v.reason


def test_out_of_scope_is_inconclusive(corpus_by_id):
    v = oracle_check(OracleRun(check_chunk(corpus_by_id["oos/fld.c"]), CFG), "frame_write")
    assert v.verdict == "inconclusive"
    assert "out of scope" in v.reason


def test_unrunnable_reason_is_the_raw_error(corpus_by_id):
    """The checker's error, without the prefix its details give it."""
    cases = [
        (corpus_by_id["oos/fld.c"], "out of scope: unsupported mnemonic 'fldl'"),
        (chunk("nop", outputs=[("r", "x", 4)]), None),
        (chunk("movl foo(%%eax), %0", outputs=[("=r", "x", 4)]), None),
    ]
    for c, want in cases:
        result = check_chunk(c)
        run = OracleRun(result, CFG)
        if want is None:
            assert result.verdict == "error"
            want = result.details.split(": ", 1)[1]
        assert run.unrunnable == want
        assert oracle_check(run, "unicity").reason == want


WRITTEN_IMMEDIATE_SRC = (
    "int f(int x, int y) {\n"
    '  asm ("movl %1, %0; addl $1, %1" : "=r" (x) : "ir" (y) : "cc");\n'
    "  return x;\n"
    "}\n"
    "int g(int x, int y) {\n"
    '  asm ("movl %1, %0" : "=r" (x) : "r" (y));\n'
    "  return x;\n"
    "}\n"
)


def test_assignment_writing_an_immediate_is_left_out(tmp_path):
    """No compiler can bind "i" to a token the template writes; the run
    goes on, and the oracle confirms the checker's findings."""
    path = tmp_path / "wi.c"
    path.write_text(WRITTEN_IMMEDIATE_SRC)
    out = tmp_path / "oracle.json"
    assert cli_run(["oracle", "--trials", "20", "--out", str(out), str(path)]) == 1
    first, second = json.loads(out.read_text())["chunks"]
    assert {i["category"] for i in first["issues"]} == {"ReadOnlyInputClobbered", "Unicity"}
    assert first["oracle"]["frame_write"]["verdict"] == "violation"
    assert first["oracle"]["unicity"]["verdict"] == "violation"
    assert first["oracle"]["frame_read"]["verdict"] == "pass"
    assert second["verdict"] == "compliant"
    assert {e["verdict"] for e in second["oracle"].values()} == {"pass"}


def test_oracle_is_deterministic(corpus_by_id):
    c = corpus_by_id["bad/reg_clobbered.c"]
    a = oracle_check(OracleRun(check_chunk(c), CFG), "frame_write")
    b = oracle_check(OracleRun(check_chunk(c), CFG), "frame_write")
    assert (a.verdict, a.trials_run) == (b.verdict, b.trials_run)
    assert (a.witness.location, a.witness.assignment, a.witness.detail) == (
        b.witness.location,
        b.witness.assignment,
        b.witness.detail,
    )


# sha256 of the report of `ric oracle --chunks corpus/corpus.json --seed 0
# --trials 20`: a change to it is a change of the trial stream, reviewed
# as one
TRIAL_STREAM_SHA256 = "c3e1fbfeaf4010db476abf20f282b23ce6117f4418e695be075bb02967b2c71c"


def test_trial_stream_is_pinned(tmp_path, monkeypatch):
    monkeypatch.delenv("RIC_TIMINGS", raising=False)
    out = tmp_path / "oracle.json"
    args = ["oracle", "--chunks", str(CORPUS), "--seed", "0", "--trials", "20", "--out", str(out)]
    assert cli_run(args) == 1
    assert "internal error" not in out.read_text()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TRIAL_STREAM_SHA256


def test_frame_read_takes_over_frame_write_trials(tmp_path, monkeypatch):
    """Frame-read takes over the draws and first run of each frame-write
    trial that ran to its end and is below REUSED_TRIALS, and draws the
    others itself: the report is the same whichever it does, and on the
    corpus at seed 0 and 20 trials the reuse saves 1 013 program runs
    and random states."""
    monkeypatch.delenv("RIC_TIMINGS", raising=False)
    # one worker: a forked worker's calls never reach the counters
    monkeypatch.setattr(pool, "workers", lambda count: 1)
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("exec_program", "random_state"):
        monkeypatch.setattr(oracle, name, counted(name, getattr(oracle, name)))
    counts = {}
    for kept in (0, 3, oracle.REUSED_TRIALS):
        monkeypatch.setattr(oracle, "REUSED_TRIALS", kept)
        calls.clear()
        out = tmp_path / f"oracle{kept}.json"
        args = ["oracle", "--chunks", str(CORPUS), "--seed", "0", "--trials", "20"]
        assert cli_run(args + ["--out", str(out)]) == 1
        assert hashlib.sha256(out.read_bytes()).hexdigest() == TRIAL_STREAM_SHA256, kept
        counts[kept] = dict(calls)
    assert counts[0] == {"exec_program": 5754, "random_state": 5866}
    assert counts[100] == {"exec_program": 4741, "random_state": 4853}


def test_frame_read_taking_over_runs_out_of_steps_as_a_rerun_would():
    # each run of the loop takes 0x20000 steps or more, so the budget is
    # gone within a few trials; frame-read is charged the steps of each
    # run it takes over from frame-write
    c = chunk("1: decl %0; jnz 1b", outputs=[("+r", "n", 4)], clobbers=["cc"])
    result = check_chunk(c)
    cfg = TrialConfig(trials=20, seed=0)
    shared = OracleRun(result, cfg)
    oracle_check(shared, "frame_write")
    assert shared.executed
    taken = oracle_check(shared, "frame_read")
    redrawn = oracle_check(OracleRun(result, cfg), "frame_read")
    assert taken.verdict == "inconclusive" and "step budget" in taken.reason
    assert (taken.verdict, taken.trials_run, taken.reason) == (
        redrawn.verdict, redrawn.trials_run, redrawn.reason
    )


def test_frame_read_of_a_memory_chunk_compares_only_the_final_states(corpus_by_id):
    """With "memory" clobbered, the second state takes the first one's
    memory; both sides of a frame-read pair share one binding, so
    equalizing the inputs writes the first state's own cell bytes back,
    and the two memories cannot differ before the runs. Each trial
    compares memory once: the two states its runs left."""
    c = corpus_by_id["ok/store_memory.c"]
    assert "memory" in c.clobbers
    run = OracleRun(check_chunk(c), TrialConfig(trials=20, seed=0))
    ran, compared = [], []
    run_one, mem_equal = run.run_one, oracle._mem_equal

    def recorded_run(assignment, state):
        ran.append(run_one(assignment, state))
        return ran[-1]

    def recorded_compare(m1, m2, exempt):
        compared.append((m1, m2))
        return mem_equal(m1, m2, exempt)

    run.run_one = recorded_run
    with pytest.MonkeyPatch.context() as m:
        m.setattr(oracle, "_mem_equal", recorded_compare)
        v = oracle_check(run, "frame_read")
    assert (v.verdict, v.trials_run) == ("pass", 20)
    assert len(compared) == 20
    assert compared == list(zip(ran[::2], ran[1::2]))


def test_seed_changes_witness_search(corpus_by_id):
    c = corpus_by_id["bad/reg_clobbered.c"]
    a = oracle_check(OracleRun(check_chunk(c), TrialConfig(trials=100, seed=1)), "frame_write")
    assert a.verdict == "violation"  # the bug is found under any seed


def test_step_budget_bounds_a_data_dependent_loop(monkeypatch):
    # the counter is drawn from sandbox addresses, so each run loops
    # 0x10000 times or more and the budget is gone within two trials
    c = chunk("1: decl %0; jnz 1b", outputs=[("+r", "n", 4)], clobbers=["cc"])
    budgets = []

    def counted(prog, state, budget):
        budgets.append(budget)
        return exec_program(prog, state, budget)

    monkeypatch.setattr(oracle, "exec_program", counted)
    v = oracle_check(OracleRun(check_chunk(c), CFG), "frame_write")
    assert v.verdict == "inconclusive"
    assert f"step budget of {STEP_BUDGET} steps" in v.reason
    assert f"after {v.trials_run} of {CFG.trials} trials" in v.reason
    assert v.trials_run < CFG.trials
    # each execution gets what the earlier ones left: one budget in all
    assert budgets[0] == STEP_BUDGET
    assert all(b <= a for a, b in zip(budgets, budgets[1:]))


def test_runs_that_leave_the_sandbox_are_charged_to_the_step_budget(monkeypatch):
    # the store walks upward from its cell with a counter drawn from
    # sandbox addresses, so runs leave the sandbox after many steps
    c = chunk(
        "1: movl $0,(%1); addl $4,%1; decl %2; jnz 1b",
        outputs=[("+m", "*p", 4), ("+D", "p", 4), ("+c", "n", 4)],
        clobbers=["cc"],
    )
    steps, left = [], []  # steps of each run; the runs that left the sandbox

    def counted(prog, state, budget):
        try:
            n = exec_program(prog, state, budget)
        except OutOfSandbox as e:
            steps.append(e.steps)
            left.append(e)
            raise
        except StepLimit:
            steps.append(budget)
            raise
        steps.append(n)
        return n

    monkeypatch.setattr(oracle, "exec_program", counted)
    run = OracleRun(check_chunk(c), TrialConfig(trials=10, seed=0))
    for prop in ("frame_write", "frame_read"):
        steps.clear()
        left.clear()
        oracle_check(run, prop)
        assert left, prop
        assert sum(steps) <= STEP_BUDGET, prop


# ---------------------------------------------------------------------------
# Interpreter spot checks


def run_program(template, outputs=(), inputs=(), clobbers=(), setup=None):
    c = chunk(template, outputs, inputs, clobbers)
    fi = derive_interface(c)
    prog = lift(parse_template(c.template, c), fi)
    m = MachineState(4096)
    if setup:
        setup(m)
    exec_program(prog, m)
    return m


def test_exec_add_sets_flags():
    m = run_program(
        "addl %%ebx, %%eax",
        clobbers=["eax", "ebx", "cc"],
        setup=lambda m: m.locs.update(eax=0xFFFFFFFF, ebx=1),
    )
    assert m.locs["eax"] == 0
    assert m.locs["flag:z"] == 1 and m.locs["flag:c"] == 1


def test_exec_loop_terminates():
    m = run_program(
        "movl $4, %%ecx\n1: decl %%ecx\njnz 1b",
        clobbers=["ecx", "cc"],
    )
    assert m.locs["ecx"] == 0


def test_exec_push_pop_restores_esp():
    m = run_program(
        "pushl %%eax\npopl %%ebx",
        clobbers=["ebx"],
        setup=lambda m: m.locs.update(eax=0x1234, esp=SANDBOX_BASE + 2048),
    )
    assert m.locs["ebx"] == 0x1234
    assert m.locs["esp"] == SANDBOX_BASE + 2048


def test_exec_bswap():
    m = run_program(
        "bswapl %%eax",
        clobbers=["eax"],
        setup=lambda m: m.locs.update(eax=0x11223344),
    )
    assert m.locs["eax"] == 0x44332211


@pytest.mark.parametrize(
    "template, before, after, cf, of",
    [
        # values read back from the CPU (as --32, ld -m elf_i386) with the
        # flags clear before; OF is undefined for a masked count above 1
        ("rolb $9, %%al", 0x81, 0x03, 1, None),  # 9 mod 8: by 1, not to 0
        ("rolb $16, %%al", 0x81, 0x81, 1, None),  # 16 mod 8: unchanged, CF set
        ("rorw $1, %%ax", 0x5681, 0xAB40, 1, 1),  # OF: XOR of the top two bits
    ],
)
def test_exec_rotates_as_the_cpu_does(template, before, after, cf, of):
    m = run_program(template, clobbers=["eax", "cc"], setup=lambda m: m.locs.update(eax=before))
    assert (m.locs["eax"], m.locs["flag:c"]) == (after, cf)
    if of is not None:
        assert m.locs["flag:o"] == of


@pytest.mark.parametrize("template", ["rolb $16, %b0", "rolb $9, %b0; rorb $9, %b0"])
def test_rotates_that_restore_a_read_only_input_pass_the_oracle(template):
    c = chunk(template, inputs=[("q", "x", 4)], clobbers=["cc"])
    assert oracle_check(OracleRun(check_chunk(c), CFG), "frame_write").verdict == "pass"


def test_exec_memory_store_load():
    def setup(m):
        m.locs.update(eax=0xDEADBEEF, ebx=SANDBOX_BASE + 512)

    m = run_program(
        "movl %%eax, (%%ebx)\nmovzbl (%%ebx), %%ecx",
        clobbers=["ecx", "memory"],
        setup=setup,
    )
    assert m.load(SANDBOX_BASE + 512, 4) == 0xDEADBEEF
    assert m.locs["ecx"] == 0xEF


# ---------------------------------------------------------------------------
# The sandbox against a plain bytearray

SMALL = 48

_MEM_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("store"),
            st.integers(-8, SMALL + 8),
            st.sampled_from((1, 2, 4, 8)),
            st.integers(0, 2**64 - 1),
        ),
        st.tuples(
            st.just("load"),
            st.integers(-8, SMALL + 8),
            st.sampled_from((1, 2, 4, 8, 16)),
            st.just(0),
        ),
        st.just(("copy", 0, 0, 0)),
    ),
    max_size=40,
)
_RANGES = st.lists(
    st.tuples(st.integers(0, SMALL), st.integers(0, SMALL)), max_size=3
)


def _first_difference(a, b, exempt):
    return next(
        (
            i
            for i in range(len(a))
            if a[i] != b[i] and not any(lo <= i < hi for lo, hi in exempt)
        ),
        None,
    )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2 ** (8 * SMALL) - 1),
    st.integers(0, 2 ** (8 * SMALL) - 1),
    _MEM_OPS,
    _RANGES,
)
def test_sandbox_matches_bytearray(base, other_base, ops, exempt):
    m = MachineState(SMALL)
    m.mem = base
    ref = bytearray(base.to_bytes(SMALL, "little"))
    start, start_ref = m.copy(), bytes(ref)
    copies = []
    for op, off, size, value in ops:
        if op == "copy":
            copies.append((m, bytes(ref)))
            m = m.copy()
            continue
        addr = SANDBOX_BASE + off
        if off < 0 or off + size > SMALL:
            with pytest.raises(OutOfSandbox):
                if op == "store":
                    m.store(addr, size, value)
                else:
                    m.load(addr, size)
            continue
        if op == "store":
            m.store(addr, size, value)
            ref[off : off + size] = (value % 2 ** (8 * size)).to_bytes(size, "little")
        else:
            assert m.load(addr, size) == int.from_bytes(ref[off : off + size], "little")
    assert m.to_bytes() == ref
    for old, old_ref in copies:  # a copy never sees later stores
        assert old.to_bytes() == old_ref

    want = _first_difference(start_ref, ref, exempt)
    assert _mem_equal(start, m, exempt) == want
    assert _mem_equal(m, start, exempt) == want
    # a different random integer: the full comparison
    other = MachineState(SMALL)
    other.mem = other_base
    other_ref = other_base.to_bytes(SMALL, "little")
    assert _mem_equal(m, other, exempt) == _first_difference(ref, other_ref, exempt)


def test_sandbox_bounds_at_both_ends():
    m = MachineState(SMALL)
    m.store(SANDBOX_BASE, 4, 0x11223344)
    m.store(SANDBOX_BASE + SMALL - 4, 4, 0x55667788)
    assert m.load(SANDBOX_BASE, 4) == 0x11223344
    assert m.load(SANDBOX_BASE + SMALL - 4, 4) == 0x55667788
    outside = (
        (SANDBOX_BASE - 1, 1),
        (SANDBOX_BASE - 2, 4),
        (SANDBOX_BASE + SMALL, 1),
        (SANDBOX_BASE + SMALL - 3, 4),
    )
    for addr, size in outside:
        with pytest.raises(OutOfSandbox):
            m.load(addr, size)
        with pytest.raises(OutOfSandbox):
            m.store(addr, size, 0)


def test_mem_equal_rejects_sandboxes_of_different_sizes():
    with pytest.raises(RicError):
        _mem_equal(MachineState(SMALL), MachineState(2 * SMALL), [])
