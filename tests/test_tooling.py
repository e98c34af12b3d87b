"""The benchmark's tracer wraps package functions by name, and every
module exports names through ``__all__``; those names must exist.  The
kernel takes every angle through one tangent, a pulse file is rendered in a
few calls, not one per number, and analyze-lie's family presets are the
compilers' own element tables."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import enspulse
from enspulse import cli, composite, fileio, kernels
from enspulse.bloch import ControlSequence

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file executes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


SPAN_MODULE = load_spans()


@pytest.mark.parametrize(
    "target, attr", [(t, a) for t, a, _, _ in SPAN_MODULE.TARGETS], ids=lambda v: str(v)
)
def test_traced_target_resolves(target, attr):
    owner = SPAN_MODULE._resolve(target)
    # classes are patched through their own __dict__, modules by attribute
    assert attr in (vars(owner) if isinstance(owner, type) else dir(owner))


@pytest.mark.parametrize("name", ["spinor_propagate", "bloch_propagate"])
def test_kernel_counter_reads_steps_and_points_by_position(name):
    # the tracer's kernel counter takes u at position 0 and omega at position 3
    params = list(inspect.signature(getattr(kernels, name)).parameters)
    assert params[0] == "u" and params[3] == "omega"


MODULES = ["enspulse"] + [f"enspulse.{m.name}" for m in pkgutil.iter_modules(enspulse.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert [name for name in exported if not hasattr(module, name)] == []


def numpy_calls(node, names):
    return [
        call.func.attr
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id == "np"
        and call.func.attr in names
    ]


def test_kernel_angles_go_through_the_half_angle_helper():
    # numpy's sin, cos and complex exp are scalar loops and its tan is
    # vectorized: a step element pays for one tangent, never for a sin/cos pair
    tree = ast.parse(Path(kernels.__file__).read_text())
    names = {"sin", "cos", "tan", "exp"}
    helper = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_half_angle"]
    assert len(helper) == 1
    assert numpy_calls(tree, names) == numpy_calls(helper[0], names) == ["tan"]


def test_pulse_file_renders_its_samples_in_one_call(tmp_path, monkeypatch):
    # render_json recurses through its module-level name, so the patched
    # counter sees every call; a 14 592-step pulse once took one per number
    calls = []
    original = fileio.render_json

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(fileio, "render_json", counted)
    samples = np.random.default_rng(7).uniform(-2000.0, 2000.0, (14592, 2))
    fileio.save_pulse(str(tmp_path / "pulse.json"), ControlSequence(1e-4, samples))
    assert len(calls) <= 10


@pytest.mark.parametrize(
    "preset, table",
    [
        ("rf-scale", composite.RF_ELEMENTS),
        ("rf-two-scale", composite.TWO_PARAM_ELEMENTS),
        ("offset", composite.OMEGA_ELEMENTS),
        ("coupling", composite.COUPLING_ELEMENTS),
    ],
)
def test_lie_family_presets_are_the_compilers_tables(preset, table):
    # analyze-lie reports on the very elements the compilers bracket, so a
    # family declared a second time cannot drift from the compiled one
    gens = cli._lie_preset(preset)
    assert len(gens) == len(table)
    assert all(g is e for g, e in zip(gens, table.values()))
