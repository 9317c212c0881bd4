"""The benchmark's tracer (`perfbench/tracing.py`) against this package.

The tracer names the functions it wraps as strings, so a function renamed
or deleted here only shows when a traced benchmark run fails.  This test
loads the tracer by file path, unchanged, and runs it on a fresh import.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

_SCRIPT = textwrap.dedent(
    """
    import importlib.util
    import sys

    spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    import balsub
    from balsub.generators import complete_graph

    def bound():
        found = {
            name: getattr(sys.modules["balsub." + mod], name)
            for mod, name in tracing.FUNCTIONS
        }
        for mod, cls, name in tracing.METHODS:
            found[name] = getattr(sys.modules["balsub." + mod], cls).__dict__[name]
        return found

    before = bound()
    with tracing.Tracer() as tracer:
        inside = bound()
        # a pinned ell of 4 sends K20 to the unit route, which reads the
        # expander, so the traced run counts the layers it measures
        cfg = balsub.RunConfig(seed=0, overrides=balsub.Overrides(ell=4))
        balsub.top_level(complete_graph(20), cfg)
    unwrapped = sorted(name for name in before if inside[name] is before[name])
    assert not unwrapped, unwrapped
    assert bound() == before, "a traced name was not restored"
    metrics = tracing.layer_metrics(tracer.spans)
    assert set(metrics) == set(tracing.layer_metric_units()), metrics
    assert metrics["expander.verify_expander.calls"] == 1, metrics
    assert metrics["drc.dense_tk2.calls"] == 0, metrics
    assert metrics["gadgets.build_hub.calls"] == 15, metrics
    print(len(before))
    """
)


def test_the_benchmark_tracer_wraps_and_restores_every_traced_name(src_env):
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(TRACING)],
        env=src_env,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) > 10
