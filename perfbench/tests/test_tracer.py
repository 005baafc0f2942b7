import importlib

import numpy as np
import pytest

from perfbench.tracer import COUNT, SPAN, TRACED_MODULES, Span, Tracer, full_plan, roots, self_times, totals


def _attributes():
    out = {}
    for short in TRACED_MODULES:
        module = importlib.import_module(f"dpsynth.{short}")
        out.update({(short, k): v for k, v in vars(module).items() if callable(v)})
    return out


def test_wrappers_restore_module_attributes():
    before = _attributes()
    plan = full_plan()
    tracer = Tracer()
    with tracer.installed(plan, run=0):
        during = _attributes()
        replaced = {key for key in before if during[key] is not before[key]}
    assert replaced == {tuple(name.split(".", 1)) for name in plan}
    assert all(_attributes()[key] is value for key, value in before.items())


def test_wrappers_restore_after_an_exception():
    from dpsynth import dp

    original = dp.privatize
    with pytest.raises(RuntimeError):
        with Tracer().installed({"dp.privatize": SPAN}, run=0):
            assert dp.privatize is not original
            raise RuntimeError("boom")
    assert dp.privatize is original


def test_bare_global_call_reaches_the_counter():
    from dpsynth import dp

    tracer = Tracer()
    grads = np.arange(12.0).reshape(4, 3)
    with tracer.installed({"dp.privatize": SPAN, "dp.clip_grad": COUNT}, run=7):
        dp.privatize(grads, dp.DpConfig(), np.random.default_rng(0))
    assert tracer.counts["dp.clip_grad"] == 4
    assert [(s.name, s.run) for s in tracer.spans] == [("dp.privatize", 7)]


def _tree():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]; second root [20, 22]
    return [
        Span("cli.train", 0.0, 10.0, -1, 0),
        Span("training.train", 1.0, 4.0, 0, 0),
        Span("dp.privatize", 2.0, 3.0, 1, 0),
        Span("cli.cmd_train", 5.0, 9.0, 0, 0),
        Span("cli.generate", 20.0, 22.0, -1, 1),
    ]


def test_self_time_arithmetic():
    assert self_times(_tree()) == [3.0, 2.0, 1.0, 4.0, 2.0]
    assert roots(_tree()) == [0, 0, 0, 0, 4]


def test_totals_keep_only_the_requested_runs():
    by_name, root_time = totals(_tree(), runs={0})
    assert root_time == 10.0
    assert "cli.generate" not in by_name
    assert (by_name["training.train"].calls, by_name["training.train"].total) == (1, 3.0)
    assert by_name["training.train"].self_time == 2.0


def test_cli_self_time_is_what_no_other_layer_covers():
    from perfbench.report import _cli_self

    own = _cli_self(_tree(), runs={0, 1})
    # root self 3 + cli.cmd_train self 4; training.train's 3 s is another layer's
    assert own == {"train": [7.0], "generate": [2.0]}
