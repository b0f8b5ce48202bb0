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
}


def test_install_layers_finds_all_but_the_known_names(capsys):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracing
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    from ric import cli, patcher

    originals = (patcher.render_diff, cli._collect)
    tracer = tracing.Tracer(0)
    capsys.readouterr()
    tracing.install_layers(tracer)
    try:
        err = capsys.readouterr().err
        assert patcher.render_diff is not originals[0]
        assert cli._collect is not originals[1]
    finally:
        tracer.uninstall()
    assert set(re.findall(r"trace: (\S+) not found", err)) == NOT_FOUND
    assert (patcher.render_diff, cli._collect) == originals
