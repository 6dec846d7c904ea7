"""The benchmark's tracer patches package names by their import sites; a
deleted or renamed name must fail here, not only in a traced run."""

import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_tracer_installs_and_restores_every_patched_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert saved
        for owner, attr, fn in saved:
            assert _current(owner, attr) is not fn
    finally:
        tracer.uninstall()
    for owner, attr, fn in saved:
        assert _current(owner, attr) is fn, f"{owner!r}.{attr} not restored"
