"""The benchmark's tracer wraps package functions by name, and every
module exports names through ``__all__``; those names must exist.  The
kernel takes every angle through one tangent, a pulse file is rendered in a
few calls, not one per number, and analyze-lie's family presets are the
compilers' own element tables.  One compile step gates, fits and realizes
for every bracket compiler, and the realizer inverts a leaf list one way
for every family.  One kernel function, the public spinor pass,
plans every pass: the tile loop or the pulse's polynomial pair, so the
tracer's kernel spans see each pass once, and a pass split over threads
enters those names on the calling thread alone; a design command makes at
most one such pass, and an SLR design builds its fit grid's chirp plans once
per direction.  Every float array the file layer writes goes through
one formatter, whose tables an import leaves unbuilt.
The package's re-exported names, loaded on first use, are their submodules'
very objects, and every exported name, and every public method and property
of an exported class, is reached by the package's own code, an acceptance
criterion, the README example or the benchmark.  The package imports the
standard library and numpy alone, and numpy is its one runtime dependency."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import enspulse
from enspulse import bloch, cli, composite, fileio, kernels, slr
from enspulse.bloch import ControlSequence, DispersionGrid, EnsembleState

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


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


# every name the package re-exports, by the submodule that defines it
PUBLIC_API = {
    "bloch": (
        "ControlSequence", "DispersionGrid", "EnsembleState", "FidelityMap", "SU2Element",
        "TargetSpec", "fidelity_map", "net_rotation", "net_su2", "phase_frame_check",
        "propagate",
    ),
    "errors": (
        "CompletionError", "DegenerateExtractionError", "EnspulseError", "InfeasibleError",
        "SchemaError",
    ),
    "liealg": (
        "ClosureReport", "DispersionMonomial", "DispersionPolyElement", "GeneratorMatrix",
        "PolyVectorField", "SampledElement", "approximable", "bracket_poly",
        "lie_closure", "reachable_functions", "vf_bracket",
    ),
    "slr": (
        "HardPulseStep", "SpinorPolynomials", "TargetProfile", "complete_polynomial",
        "design_broadband", "design_pattern", "forward_recursion", "target_to_polys",
    ),
}


@pytest.mark.parametrize(
    "module_name, name", [(m, n) for m, names in PUBLIC_API.items() for n in names]
)
def test_public_name_is_its_submodules_object(module_name, name):
    assert name in enspulse.__all__ and name in dir(enspulse)
    submodule = importlib.import_module(f"enspulse.{module_name}")
    assert getattr(enspulse, name) is getattr(submodule, name)


def test_star_import_brings_exactly_the_public_names():
    public = {name for names in PUBLIC_API.values() for name in names}
    assert sorted(enspulse.__all__) == sorted(public)
    namespace = {}
    exec("from enspulse import *", namespace)
    assert set(namespace) - {"__builtins__"} == public
    assert all(namespace[name] is getattr(enspulse, name) for name in public)


def test_an_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'bogus'"):
        enspulse.bogus
    # a submodule's own name that the package does not re-export stays out
    assert not hasattr(enspulse, "rotation_target")
    with pytest.raises(ImportError):
        exec("from enspulse import bogus", {})


def names_in(node):
    """Every identifier ``node`` reads or writes, as a name or an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def defined_by(stmt):
    """The names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


PACKAGE = Path(enspulse.__file__).parent


def names_outside_the_package():
    """Every identifier an acceptance criterion, README's python example or
    the benchmark's own (non-test) files read or write."""
    readme = (ROOT / "README.md").read_text()
    outside = [ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())]
    outside += [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    outside += [
        ast.parse(path.read_text())
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        if not path.name.startswith("test_")
    ]
    return set().union(*map(names_in, outside))


def test_every_exported_name_is_reached():
    # a name in __all__ is used by the package outside its own definition, by
    # an acceptance criterion, by README's python example or by the benchmark;
    # one only unit tests call is dead weight every command compiles
    statements = [
        (path.stem, defined_by(stmt), names_in(stmt))
        for path in sorted(PACKAGE.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    reached = names_outside_the_package()
    unreached = [
        f"{stem}.{name}"
        for stem in (m.rsplit(".", 1)[-1] for m in MODULES if m != "enspulse")
        for name in getattr(importlib.import_module(f"enspulse.{stem}"), "__all__", [])
        if name not in reached
        and not any(name in refs for where, defs, refs in statements if not (where == stem and name in defs))
    ]
    assert unreached == []


# item 17 of ROADMAP reworks the unitary ensemble kind and its fidelity; until
# then its start state and target stay, reached only by unit tests
MEMBERS_KEPT_FOR_THE_UNITARY_KIND = {"bloch.EnsembleState.uniform_unitary", "bloch.TargetSpec.constant_unitary"}


def test_every_public_member_of_an_exported_class_is_reached():
    # a public method or property of a class in __all__ is reached when its
    # attribute name is used outside its own definition by the package, an
    # acceptance criterion, README's python example or the benchmark
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    members = [
        (f"{stem}.{cls.name}.{member.name}", member)
        for stem, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in getattr(
            importlib.import_module(f"enspulse.{stem}"), "__all__", [])
        for member in cls.body
        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
    ]
    reached = names_outside_the_package()

    def used_in_package(member):
        # every name in the package but those inside the member's own body
        own = {id(node) for node in ast.walk(member)}
        return any(
            (node.id if isinstance(node, ast.Name) else node.attr) == member.name
            for tree in trees.values()
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in own
        )

    unreached = [
        qualified
        for qualified, member in members
        if member.name not in reached and not used_in_package(member)
    ]
    assert sorted(unreached) == sorted(MEMBERS_KEPT_FOR_THE_UNITARY_KIND)


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


def reference_graph(*modules):
    """``{"module.function": referenced "module.function" names}`` over the
    top-level functions of ``modules``, read from their source.  A bare name
    resolves in its own module, through module-level aliases such as
    ``_spin_steps``; ``kernels.name`` resolves in the kernel module."""
    graph = {}
    for module in modules:
        tree = ast.parse(Path(module.__file__).read_text())
        prefix = module.__name__.rsplit(".", 1)[-1]
        funcs = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
        aliases = {
            target.id: node.value.id
            for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for func in (f for f in tree.body if isinstance(f, ast.FunctionDef)):
            refs = set()
            for node in ast.walk(func):
                if isinstance(node, ast.Name) and aliases.get(node.id, node.id) in funcs:
                    refs.add(f"{prefix}.{aliases.get(node.id, node.id)}")
                elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "kernels":
                    refs.add(f"kernels.{node.attr}")
            graph[f"{prefix}.{func.name}"] = refs
    return graph


def reachable(graph, start):
    seen, todo = set(), [start]
    while todo:
        for ref in graph.get(todo.pop(), ()):
            if ref not in seen:
                seen.add(ref)
                todo.append(ref)
    return seen


def test_one_kernel_function_chooses_the_polynomial_route():
    # a band error and the map of its pulse, or a spinor and a Bloch pass over
    # one grid, cannot come from different engines, and the benchmark's tracer
    # sees every pass in the one function that plans it
    graph = reference_graph(kernels, bloch, slr, composite)
    assert not hasattr(kernels, "offset_pass") and "kernels.offset_pass" not in graph
    assert all(
        "fallback" not in inspect.signature(f).parameters
        for f in vars(kernels).values()
        if inspect.isfunction(f) and f.__module__ == kernels.__name__
    )
    passes = {"kernels._polynomial_pass", "kernels._tiled_pass"}
    planners = [name for name, refs in graph.items() if passes & refs]
    assert planners == ["kernels.spinor_propagate"]
    assert passes <= graph["kernels.spinor_propagate"]
    tree = ast.parse(Path(kernels.__file__).read_text())
    rule = [
        f.name
        for f in tree.body
        if isinstance(f, ast.FunctionDef)
        and any(isinstance(n, ast.Name) and n.id == "_POINTS_PER_STEP" for n in ast.walk(f))
    ]
    assert rule == ["spinor_propagate"]
    # every propagation reaches a pass through spinor_propagate and no other way
    cut = {name: refs - {"kernels.spinor_propagate"} for name, refs in graph.items()}
    for caller in (
        "bloch.propagate",
        "bloch.net_su2",
        "bloch.net_rotation",
        "slr._design_band_error",
        "kernels.rotation_propagate",
    ):
        assert "kernels.spinor_propagate" in reachable(graph, caller), caller
        assert not passes & reachable(cut, caller), caller
    # the Bloch kind: the control exchange and adjoint of rotation_propagate
    assert "kernels.bloch_propagate" in graph["bloch.propagate"]


def top_level_imports(path):
    """The top-level name of every absolute import in the file at ``path``;
    a relative import is the package's own."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_the_package_imports_the_stdlib_and_numpy_alone():
    # skew-Hermitian generators go through liealg.expm_skew and the
    # reachability residual's zero-order hold through linear._expm, so the
    # package runs on numpy; scipy stays a test oracle
    package = Path(enspulse.__file__).parent
    allowed = set(sys.stdlib_module_names) | {"numpy", "enspulse"}
    foreign = {
        (path.stem, name)
        for path in sorted(package.rglob("*.py"))
        for name in top_level_imports(path) - allowed
    }
    assert foreign == set()
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[\w.-]+", d).group() for d in project["dependencies"]] == ["numpy"]
    assert "scipy" in {re.match(r"[\w.-]+", d).group() for d in project["optional-dependencies"]["test"]}


# each family's leaf map: the one writer that turns signed leaves into its pieces
LEAF_MAPS = {"_rf_samples", "_segments", "_omega_segments", "_coupling_segments"}


def test_one_compile_step_gates_fits_and_realizes_for_every_compiler():
    # a compiler declares its table, exponents, words and target; the closure
    # gate, the fit gate and the realization live in one place, which hands
    # back signed leaves for the compiler's one leaf map
    graph = reference_graph(composite)
    assert not hasattr(composite, "_compile_words") and "composite._compile_words" not in graph
    for gate in ("_require_reachable", "_require_fit", "fit_coefficients"):
        callers = [name for name, refs in graph.items() if f"composite.{gate}" in refs]
        assert callers == ["composite._compile"], gate
    realizers = sorted(name for name, refs in graph.items() if "composite._realize" in refs)
    assert realizers == ["composite._compile", "composite._realize", "composite.commutator_block"]
    assert not {f"composite.{m}" for m in LEAF_MAPS} & graph["composite._compile"]
    assert not {"leaf", "inverse"} & set(inspect.signature(composite._compile).parameters)
    for compiler, maps in (
        ("compile_robust_rotation", {"_rf_samples"}),
        ("compile_omega_robust", {"_segments", "_omega_segments"}),
        ("compile_j_robust_zz", {"_segments", "_coupling_segments"}),
    ):
        refs = graph[f"composite.{compiler}"]
        assert "composite._compile" in refs, compiler
        assert {r.split(".")[1] for r in refs} & LEAF_MAPS == maps, compiler


def test_the_realizer_has_one_inverse_rule_and_knows_no_family():
    # a leaf list is inverted one way, whatever the family: no family
    # inverse is defined, and the realizer names no leaf map and no segment
    assert [name for name in vars(composite) if name.startswith("_inv_")] == []
    tree = ast.parse(Path(composite.__file__).read_text())
    (realize,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_realize"]
    names = {node.id for node in ast.walk(realize) if isinstance(node, ast.Name)}
    assert names & (LEAF_MAPS | {"Segment", "RF_CHANNELS"}) == set()
    assert [a.arg for a in realize.args.args] == ["word", "amount"]


@pytest.mark.parametrize(
    "case, traced",
    [("spinor", "spinor_propagate"), ("band-error", "spinor_propagate"), ("bloch", "bloch_propagate")],
)
def test_a_routed_pass_is_one_traced_kernel_call(monkeypatch, case, traced):
    # the benchmark's tracer wraps these two public names by setattr: a pass
    # that takes the polynomial route is one call of one of them, and a Bloch
    # pass is not counted a second time as a spinor pass
    calls = []
    for name in ("spinor_propagate", "bloch_propagate", "_polynomial_pass"):
        original = getattr(kernels, name)
        monkeypatch.setattr(kernels, name, lambda *a, f=original, n=name: calls.append(n) or f(*a))
    pulse = ControlSequence(1e-4, np.random.default_rng(3).uniform(-6000.0, 6000.0, (16, 2)))
    if case == "band-error":
        # 129 offsets over 16 steps meet the rule
        slr._design_band_error(pulse, "x", np.pi / 2, 2e4, pulse.dt)
    else:
        grid = DispersionGrid(axes={"omega": np.linspace(-3e4, 3e4, 320), "epsilon": np.array([0.9])})
        start = (
            EnsembleState.uniform_spinor(grid, 1.0, 0.0)
            if case == "spinor"
            else EnsembleState.uniform_bloch(grid, (0.0, 0.0, 1.0))
        )
        bloch.propagate(pulse, grid, start, model="hard_pulse")
    assert calls == [traced, "_polynomial_pass"]


@pytest.mark.parametrize(
    "argv, passes",
    [
        (["design-slr", "--axis", "x", "--angle", "1.5707963267948966", "--band", "2000",
          "--steps", "64", "--dt", "1e-4"], 1),
        (["design-pattern", "--band", "5000", "--select=-2500,2500", "--flip", "3.14159",
          "--steps", "128"], 1),
        (["design-composite", "--angle", "1.5707963267948966", "--eps-range", "0.9,1.1",
          "--basis", "1,3,5"], 0),
        (["design-zz", "--theta", "0.7853981633974483", "--j0", "1.0", "--delta", "0.1"], 0),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else str(v),
)
def test_each_design_command_simulates_its_written_pulse_at_most_once(tmp_path, monkeypatch, argv, passes):
    # the README cases: design-slr's band error, map and min_fidelity come from
    # the designer's one pass; the bracket designs claim without the kernel
    calls = []
    for name in ("spinor_propagate", "bloch_propagate"):
        original = getattr(kernels, name)
        monkeypatch.setattr(kernels, name, lambda *a, f=original, n=name: calls.append(n) or f(*a))
    assert cli.main(argv + ["--out", str(tmp_path / "out.json")]) == 0
    assert len(calls) == passes


def test_a_design_builds_its_fit_grids_chirp_plans_once_per_direction(tmp_path, monkeypatch):
    # the README design-slr at --a-max 800 fits block counts 1, 2, 4 and 3 on
    # one 24 n + 1 point grid: one plan for its sums, one for its evaluations,
    # and every product on that grid goes through them
    fit_grid = 24 * 64 + 1
    built, products = [], []
    plan = slr._chirp_plan
    products_on = slr._circle_products

    def counted_plan(theta, n, sums):
        out = plan(theta, n, sums)
        if theta.size == fit_grid:
            built.append((sums, out))
        return out

    def counted_products(theta, x, n=None, plan=None):
        if np.size(theta) == fit_grid:
            products.append(plan)
        return products_on(theta, x, n, plan)

    monkeypatch.setattr(slr, "_chirp_plan", counted_plan)
    monkeypatch.setattr(slr, "_circle_products", counted_products)
    argv = ["design-slr", "--axis", "x", "--angle", "1.5707963267948966", "--band", "2000",
            "--steps", "64", "--dt", "1e-4", "--a-max", "800"]
    assert cli.main(argv + ["--out", str(tmp_path / "out.json")]) == 0
    assert sorted(sums for sums, _ in built) == [False, True]
    plans = [p for _, p in built]
    # the Gram row, two right-hand sides and two evaluations per block count
    # tried (1, then the estimate 4, then 3)
    assert len(products) == 1 + 4 * 3 and all(any(p is q for q in plans) for p in products)


@pytest.mark.parametrize("kind", ["spinor", "bloch"])
def test_worker_threads_never_enter_a_traced_kernel_name(monkeypatch, kind):
    # the tracer's span stack is not thread-safe: a split pass must enter the
    # two names it wraps on the calling thread alone
    calls = []
    for name in ("spinor_propagate", "bloch_propagate"):
        original = getattr(kernels, name)
        monkeypatch.setattr(
            kernels, name, lambda *a, f=original, n=name: calls.append((n, threading.get_ident())) or f(*a)
        )
    parts = []
    original = kernels._tile_part
    monkeypatch.setattr(kernels, "_tile_part", lambda *a: parts.append(threading.get_ident()) or original(*a))
    monkeypatch.setattr(kernels, "_cpus", lambda: 2)
    grid = DispersionGrid(
        axes={"omega": np.linspace(-3e4, 3e4, 2 * kernels._SPLIT // 16), "epsilon": np.linspace(0.9, 1.1, 16)}
    )
    pulse = ControlSequence(1e-4, np.random.default_rng(8).uniform(-6000.0, 6000.0, (4, 2)))
    start = {
        "spinor": EnsembleState.uniform_spinor(grid, 1.0, 0.0),
        "bloch": EnsembleState.uniform_bloch(grid, (0.0, 0.0, 1.0)),
    }[kind]
    bloch.propagate(pulse, grid, start)
    main = threading.get_ident()
    assert calls == [(f"{kind}_propagate", main)]
    assert len(parts) == 2 and main in parts and len(set(parts)) == 2


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


def test_every_float_array_is_written_through_one_formatter():
    # CSV tables and a pulse's samples reach the vectorized formatter; a
    # single float is formatted by _fmt alone, which only render_json's
    # scalar path and the formatter's fallback call
    graph = reference_graph(fileio)
    for writer in ("fileio._write_csv", "fileio.render_json"):
        assert "fileio._words17" in reachable(graph, writer), writer
    assert sorted(name for name, refs in graph.items() if "fileio._fmt" in refs) == [
        "fileio._words17",
        "fileio.render_json",
    ]
    # no other function builds a "%.17g" template: the one 17-digit format
    # string outside the docstrings is _fmt's
    tree = ast.parse(Path(fileio.__file__).read_text())
    documented = [
        node.body[0].value
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.FunctionDef))
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    ]
    fmt = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_fmt")

    def templates(root):
        return [
            node
            for node in ast.walk(root)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "17g" in node.value
            and not any(node is doc for doc in documented)
        ]

    assert templates(tree) == templates(fmt) and len(templates(fmt)) == 1


def test_cli_import_leaves_the_formatter_tables_unbuilt():
    # the formatter's tables are built on first use, so start-up pays nothing
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, enspulse.cli, enspulse.fileio as f; sys.exit(f._tables.cache_info().currsize)"
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, timeout=120
    )
    assert result.returncode == 0


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
