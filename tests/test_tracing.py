"""The benchmark's tracer still finds the names it wraps in ric: a name
that goes missing reads 0 in every metric of its layer, so the set of
names not found is pinned here and changes only on purpose."""

import re
import sys

from conftest import ROOT

# names the tracer wraps in a module that no longer has them
NOT_FOUND = {
    "ric.patcher.derive_interface",
    "ric.oracle.parse_template",
    "ric.report.parse_template",
    "ric.oracle.lift",
    "ric.oracle.substitute",
    "ric.patcher.check_chunk",
    "ric.refiner.check_chunk",
    "ric.refiner.build_anchors",
    "ric.cli._collect",
}


SOURCE = (
    "void f(int x, int y) {\n"
    '  asm ("addl %1, %0" : "+r" (x) : "r" (y));\n'
    '  asm ("movl %1, %0" : "=r" (x) : "r" (y), "r" (x));\n'
    "}\n"
)


def test_install_layers_finds_all_but_the_known_names(capsys, tmp_path, monkeypatch):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracing
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    from ric import cli, patcher, pool, refiner

    # names the commands look up when they call a layer
    wrapped = [
        (patcher, "render_diff"),
        (cli, "check_chunk"),
        (cli, "oracle_check"),
        (patcher, "synthesize_patches"),
        (refiner, "refine_interface"),
    ]
    originals = [getattr(owner, name) for owner, name in wrapped]
    tracer = tracing.Tracer(0)
    capsys.readouterr()
    tracing.install_layers(tracer)
    try:
        err = capsys.readouterr().err
        for (owner, name), original in zip(wrapped, originals):
            assert getattr(owner, name) is not original, name
        path = tmp_path / "s.c"
        path.write_text(SOURCE, encoding="utf-8")
        # one worker, so the oracle's calls are made in this process
        monkeypatch.setattr(pool, "workers", lambda count: 1)
        for command in ("patch", "refine", "oracle"):
            trials = ["--trials", "2"] if command == "oracle" else []
            cli.run([command, *trials, "--out", str(tmp_path / "report.json"), str(path)])
        calls = {span[0] for span in tracer.spans}
        assert calls >= {
            "checker.check", "patcher.synthesize", "patcher.diff", "refiner.refine", "oracle.check"
        }
    finally:
        tracer.uninstall()
    assert set(re.findall(r"trace: (\S+) not found", err)) == NOT_FOUND
    assert [getattr(owner, name) for owner, name in wrapped] == originals
