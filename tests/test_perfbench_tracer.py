"""The benchmark's per-layer tracer still finds every function it counts and
leaves the package as it found it."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot(tracer):
    """Every module attribute and class member of the traced layers."""
    out = {}
    for name in tracer.LAYERS:
        mod = importlib.import_module("%s.%s" % (tracer.PACKAGE, name))
        for attr, obj in vars(mod).items():
            out[(name, attr)] = obj
            if isinstance(obj, type):
                for member, value in vars(obj).items():
                    out[(name, attr, member)] = value
    return out


def test_tracer_counts_existing_functions_and_restores_them(capsys, so21_alg):
    tracer = _load_tracer()
    before = _snapshot(tracer)
    tr = tracer.Tracer()
    with tr:
        from twistcalc.lie import PBWElement
        assert hasattr(PBWElement.__mul__, "__wrapped__")
        E, H = so21_alg.generator("E"), so21_alg.generator("H")
        (E * H).coproduct() * (H * E).coproduct()
    err = capsys.readouterr().err
    assert "no longer exists" not in err, err
    metrics = tr.metrics()
    for metric in ("lie.pbw_mul", "tensors.mul", "scalars.series_mul"):
        assert metrics[metric][0] > 0, metric
    after = _snapshot(tracer)
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed, changed
