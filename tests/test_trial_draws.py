"""The oracle's trial draws against the standard-library calls they
replace. `random_state` draws each value through `rng.getrandbits` as
`rng.randrange` and `rng.choice` do in CPython, and
`enumerate_assignments` rejects a repeated assignment by a tuple key.
The references here are the versions that called the library and
built a record per candidate: both must give the same states, the
same generator state afterwards, and the same assignment lists."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ric.checker import check_chunk
from ric.chunks import load_chunk_records
from ric.constraints import (
    AssignmentSet,
    Match,
    MemOperand,
    TokenAssignment,
    _class_options,
    assignment_valid,
    derive_interface,
    enumerate_assignments,
    eval_letter,
)
from ric.errors import MalformedInterface, OutOfSandbox
from ric.oracle import (
    FLAG_NAMES,
    GP,
    POOL_SIZE,
    SANDBOX_BASE,
    SANDBOX_SIZE,
    WIDE,
    Binding,
    MachineState,
    PageBytes,
    random_state,
)
from ric.template import template_tokens


def _reference_random_state(rng, binding, fi=None, esp_base=None):
    m = MachineState(SANDBOX_SIZE)
    data_lo = SANDBOX_BASE + 0x1000
    data_hi = SANDBOX_BASE + SANDBOX_SIZE - 0x1800
    pool = [
        data_lo + rng.randrange(0, (data_hi - data_lo) // 8) * 8
        for _ in range(POOL_SIZE)
    ]
    for r in GP:
        m.locs[r] = rng.choice(pool)
    for r in WIDE:
        m.locs[r] = rng.getrandbits(64)
    for f in FLAG_NAMES:
        m.locs[f"flag:{f}"] = rng.getrandbits(1)
    m.locs["esp"] = esp_base if esp_base is not None else (
        SANDBOX_BASE + SANDBOX_SIZE - 0x400 - rng.randrange(0, 16) * 4
    )
    m.mem = PageBytes(rng.getrandbits(64))
    if fi is not None:
        for p, addr in binding.cells.items():
            size = fi.sizes.get(p, 4)
            for off in range(0, size, 4):
                m.store(addr + off, min(4, size - off), rng.choice(pool))
    for reg, val in binding.pins.items():
        m.locs[reg] = val
    return m


def _outcome(make):
    """The state's contents, or the address of the store that left the
    sandbox."""
    try:
        m = make()
    except OutOfSandbox as e:
        return ("out of sandbox", str(e))
    return (m.locs, m.size, m.mem.key, m.stored, m.operands)


@st.composite
def state_cases(draw):
    size = SANDBOX_SIZE
    cells, sizes = {}, {}
    for p in range(draw(st.integers(0, 4))):
        # mostly inside the sandbox; sometimes past either end
        off = draw(st.one_of(st.integers(0, size - 16), st.integers(-32, size + 32)))
        cells[p] = SANDBOX_BASE + off
        sizes[p] = draw(st.sampled_from((1, 2, 4, 8, 16)))
    pins = draw(st.dictionaries(st.sampled_from(GP), st.integers(0, 2**32 - 1), max_size=3))
    esp_base = draw(st.one_of(st.none(), st.integers(SANDBOX_BASE, SANDBOX_BASE + size)))
    with_cells = draw(st.booleans())
    fi = SimpleNamespace(sizes=sizes) if with_cells else None
    return Binding(pins, cells), fi, esp_base


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64), case=state_cases())
def test_random_state_matches_library_draws(seed, case):
    binding, fi, esp_base = case
    ref_rng, rng = random.Random(seed), random.Random(seed)
    want = _outcome(lambda: _reference_random_state(ref_rng, binding, fi, esp_base))
    got = _outcome(lambda: random_state(rng, binding, fi, esp_base))
    assert got == want
    assert rng.getstate() == ref_rng.getstate()


def test_random_state_of_the_trial_stream_matches(corpus_chunks):
    """The seeds `oracle_check` gives its trials, on corpus bindings."""
    result = check_chunk(next(c for c in corpus_chunks if c.span.file == "paper/cas8_x86.c"))
    fi = result.fi
    cells = {p: SANDBOX_BASE + 0x800 + 64 * p for p in fi.sizes}
    binding = Binding({"esi": SANDBOX_BASE + 0x800}, cells)
    for trial in range(200):
        seed = trial * 2654435761 % 2**31
        ref_rng, rng = random.Random(seed), random.Random(seed)
        want = _outcome(lambda: _reference_random_state(ref_rng, binding, fi))
        assert _outcome(lambda: random_state(rng, binding, fi)) == want
        assert rng.getstate() == ref_rng.getstate()


# ---------------------------------------------------------------------------
# Assignment enumeration


def _reference_enumerate_assignments(fi, cap=256, collapse=frozenset()):
    banned = frozenset(fi.s_c - {"cc"})
    fixed_regs = frozenset(fi.fixed.values())
    positions = sorted(p for p in fi.constraints if p not in fi.unified)
    n_alts = max((len(fi.constraints[p].alternatives) for p in positions), default=1)

    results = []
    seen = set()
    truncated = False

    def emit(t):
        nonlocal truncated
        full = dict(t)
        for p, canon in fi.unified.items():
            full[p] = full[canon]
        ta = TokenAssignment(full)
        if ta in seen or not assignment_valid(fi, ta):
            return False
        seen.add(ta)
        if len(results) >= cap:
            truncated = True
            return True
        results.append(ta)
        return False

    def options_for(p, alt_idx, partial):
        if p in collapse:
            return [MemOperand(disp=0x7000 + 8 * p)]
        spec = fi.constraints[p]
        alt = spec.alternatives[min(alt_idx, len(spec.alternatives) - 1)]
        out = []
        for atom in alt:
            if isinstance(atom, Match):
                if atom.ref in partial:
                    out.append(partial[atom.ref])
            else:
                out.extend(_class_options(eval_letter(atom.char), banned, fixed_regs))
        return out

    for alt_idx in range(n_alts):
        if truncated:
            break

        def rec(i, partial):
            nonlocal truncated
            if truncated:
                return
            if i == len(positions):
                if emit(partial):
                    return
                for p in positions:
                    if fi.constraints[p].commutative and (p + 1) in partial:
                        swapped = dict(partial)
                        swapped[p], swapped[p + 1] = swapped[p + 1], swapped[p]
                        if emit(swapped):
                            return
                return
            p = positions[i]
            for op in options_for(p, alt_idx, partial):
                if truncated:
                    return
                partial[p] = op
                rec(i + 1, partial)
                del partial[p]

        rec(0, {})

    return AssignmentSet(results, truncated)


def _interfaces(corpus_chunks):
    """(id, interface, collapse) of each corpus chunk whose interface
    derives, with the empty collapse set and with the oracle's."""
    out = []
    for c in corpus_chunks:
        result = check_chunk(c)
        if result.fi is None:
            continue
        out.append((c.span.file, result.fi, frozenset()))
        if result.parsed is not None:
            refs = template_tokens(result.parsed)
            collapse = frozenset(a.entry for a in result.anchors if a.entry not in refs)
            if collapse:
                out.append((c.span.file, result.fi, collapse))
    return out


@pytest.mark.parametrize("cap", [1, 256])
def test_enumeration_matches_reference_on_corpus(corpus_chunks, cap):
    cases = _interfaces(corpus_chunks)
    assert len(cases) >= 60
    truncated = 0
    for cid, fi, collapse in cases:
        try:
            want = _reference_enumerate_assignments(fi, cap, collapse)
        except MalformedInterface:
            with pytest.raises(MalformedInterface):
                enumerate_assignments(fi, cap, collapse)
            continue
        got = enumerate_assignments(fi, cap, collapse)
        assert got.truncated == want.truncated, cid
        # the same assignments, in the same order, each mapping in the same order
        assert [list(a.items()) for a in got.assignments] == [
            list(a.items()) for a in want.assignments
        ], cid
        truncated += got.truncated
    assert truncated  # the cap is reached somewhere


def _interface(outputs=(), inputs=(), clobbers=()):
    record = {
        "template": "nop",
        "outputs": [{"constraint": c, "expr_text": f"o{i}"} for i, c in enumerate(outputs)],
        "inputs": [{"constraint": c, "expr_text": f"i{i}"} for i, c in enumerate(inputs)],
        "clobbers": list(clobbers),
    }
    return derive_interface(load_chunk_records([record])[0])


# interfaces whose candidates repeat: letters whose classes overlap,
# alternatives that differ in count, and commutative pairs
REPEATING = [
    ((), ("rq", "r")),
    (("=rq",), ("ri", "0")),
    (("=r,m",), ("r,r", "g")),
    (("=&r",), ("%rm", "rm")),
    (("+r",), ("%qi", "qi")),
]


@pytest.mark.parametrize("outputs,inputs", REPEATING)
@pytest.mark.parametrize("cap", [1, 7, 256, 4096])
def test_enumeration_matches_reference_on_repeating_candidates(outputs, inputs, cap):
    fi = _interface(outputs, inputs)
    want = _reference_enumerate_assignments(fi, cap)
    got = enumerate_assignments(fi, cap)
    assert got.truncated == want.truncated
    assert [list(a.items()) for a in got.assignments] == [
        list(a.items()) for a in want.assignments
    ]
