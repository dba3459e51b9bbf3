"""The benchmark tracer wraps package functions by attribute name, so every
name it wraps has to exist and has to be put back afterwards."""

from pathlib import Path

from styleshift.micro_net import NetConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    tracer = Tracer(NetConfig())
    try:
        tracer.install()
    finally:
        lost = tracer.restore()
    assert lost == []
