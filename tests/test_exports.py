import ast
import importlib
from pathlib import Path

from conftest import log_text, make_world

import ransim
from ransim import SimWorld


def test_every_export_resolves():
    missing = [name for name in ransim.__all__ if not hasattr(ransim, name)]
    assert missing == []
    assert len(set(ransim.__all__)) == len(ransim.__all__)


def _reads(node, owners=frozenset()):
    """Names and attributes loaded under node, outside a def or class of the
    same name; a docstring is a constant and reads nothing."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        owners |= {node.name}
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    if isinstance(getattr(node, "ctx", None), ast.Load) and name not in owners:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, owners)


def test_every_export_is_used_by_the_package():
    # an export that only the tests read belongs in the tests
    read = {name for path in Path(ransim.__file__).parent.glob("*.py")
            if path.name != "__init__.py"
            for name in _reads(ast.parse(path.read_text()))}
    assert sorted(set(ransim.__all__) - read) == []


# perfbench/tracing.py patches these names by lookup in a module's or a
# class's __dict__ (and wraps the world phases on the instance), so a renamed
# or moved one breaks every traced benchmark run
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_lists() -> dict:
    lists = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("MODULE_FUNCS", "CLASS_METHODS", "WORLD_PHASES"):
                lists[name] = ast.literal_eval(node.value)
    return lists


def test_names_perfbench_patches_resolve():
    lists = _tracing_lists()
    assert lists.keys() == {"MODULE_FUNCS", "CLASS_METHODS", "WORLD_PHASES"}
    for mod, attr in lists["MODULE_FUNCS"]:
        assert callable(importlib.import_module(mod).__dict__.get(attr)), \
            f"{mod}.{attr}"
    for mod, cls_name, attr in lists["CLASS_METHODS"] + [
            ("ransim.predictor", "FlowPredictor", "record_stamp"),
            ("ransim.ran", "FlowQueueState", "requeue_tail")]:
        cls = getattr(importlib.import_module(mod), cls_name)
        assert attr in cls.__dict__, f"{mod}.{cls_name}.{attr}"
    for attr in lists["WORLD_PHASES"] + ["_transmit"]:
        assert callable(SimWorld.__dict__.get(attr)), f"SimWorld.{attr}"


def test_run_steps_through_the_instance_and_records_reads():
    # perfbench's probe and tracer replace step on the class and on the
    # instance, and its worker reads len(world.log.records) after each run
    world = make_world(log_level="full")
    steps = []
    step = world.step
    world.step = lambda: steps.append(step())
    world.run(0.05)
    assert len(steps) == 100
    assert len(world.log.records) == 0
    assert log_text(world).count(",run_info,") == 1
