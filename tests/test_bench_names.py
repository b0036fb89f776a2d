"""Every name the benchmark binds in gradkick still resolves.

perfbench/tracing.py wraps functions by name, and perfbench/test_harness.py
patches and imports others; a rename or deletion in the package would
otherwise show only once the benchmark runs. Both files are read as source
and never imported or edited here.
"""

import ast
import importlib
import inspect
import pathlib

import gradkick
from gradkick.qft import qft_amplitudes

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def module_tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def constant(tree: ast.Module, name: str):
    """The literal value assigned to a top-level name."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(name)


def layer(name: str):
    return importlib.import_module(f"gradkick.{name}")


def bound_object(module: str, attr: str):
    """The object a (layer, attribute) entry of SPANS or COUNTED binds."""
    if "." in attr:
        owner, method = attr.split(".")
        assert method in vars(getattr(layer(module), owner)), attr
        return vars(getattr(layer(module), owner))[method]
    assert callable(getattr(layer(module), attr)), attr
    return getattr(layer(module), attr)


def test_traced_spans_and_counters_resolve():
    tracing = module_tree("tracing.py")
    spans = constant(tracing, "SPANS")
    counted = constant(tracing, "COUNTED")
    assert spans and counted
    for module, attr, _ in spans + counted:
        bound_object(module, attr)
    models = layer("models")
    for attr in constant(tracing, "MODEL_CONSTRUCTORS"):
        assert callable(getattr(models, attr)), attr


def test_traced_functions_are_distinct_objects():
    # The tracer patches every binding of a function by identity, so two
    # entries naming one object (an alias) would merge their metrics.
    tracing = module_tree("tracing.py")
    entries = constant(tracing, "SPANS") + constant(tracing, "COUNTED")
    seen = {}
    for module, attr, _ in entries:
        first = seen.setdefault(id(bound_object(module, attr)), attr)
        assert first == attr, f"{attr} is {first}"


def test_qft_bytes_reads_p_as_the_third_argument():
    # tracing._qft_bytes takes p from args[2] or kwargs["p"].
    assert list(inspect.signature(qft_amplitudes).parameters)[2] == "p"


def harness_names() -> dict:
    """Each name test_harness.py binds to a gradkick object, with that object:
    `cli` is gradkick.cli, plus every `from gradkick... import` and
    `import gradkick...`."""
    names = {"cli": layer("cli"), "gradkick": gradkick}
    for node in ast.walk(module_tree("test_harness.py")):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gradkick"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                names[alias.asname or alias.name] = getattr(module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("gradkick"):
                    importlib.import_module(alias.name)
    return names


def resolve(node: ast.expr, names: dict):
    """The gradkick object an attribute chain names, or None when it does not
    start at a gradkick name."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = resolve(node.value, names)
        if owner is not None:
            assert hasattr(owner, node.attr), f"{ast.unparse(node)} is gone"
            return getattr(owner, node.attr)
    return None


def test_harness_bindings_resolve():
    names = harness_names()
    checked = []
    for node in ast.walk(module_tree("test_harness.py")):
        if isinstance(node, ast.Attribute) and resolve(node, names) is not None:
            checked.append(ast.unparse(node))
        # (owner, "name") pairs: the bindings the harness patches by name.
        if (isinstance(node, ast.Tuple) and len(node.elts) == 2
                and isinstance(node.elts[1], ast.Constant)
                and isinstance(node.elts[1].value, str)):
            owner = resolve(node.elts[0], names)
            if owner is not None:
                assert hasattr(owner, node.elts[1].value), ast.unparse(node)
                checked.append(ast.unparse(node))
    for name in ("ExperimentConfig.from_dict", "SparseTripartiteState.__post_init__",
                 "(cli, 'run_pipeline')", "(gradkick.analysis, 'run_pipeline')",
                 "(gradkick.algorithm, 'apply_u_f')"):
        assert name in checked, name
