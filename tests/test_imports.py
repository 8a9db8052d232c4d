"""Import hygiene: ``nilorb`` loads a layer only when one of its names is
used, and no module imports a name it never reads.  The same source scan
checks that every record stores each of its fields once, through ``_fill``,
which is the constructor itself of each record that defines no ``__init__``.

Each load check runs in a fresh interpreter, since this test process has long
since imported every module.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nilorb

SRC = str(Path(nilorb.__file__).resolve().parents[1])
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
LAYERS = (
    "errors",
    "exact_linalg",
    "root_system",
    "reference",
    "delta_check",
    "orbit_partitions",
    "orbit_atlas",
    "selfcheck",
)


def loaded_after(statement: str) -> set:
    """The nilorb layer modules a fresh interpreter holds after ``statement``."""
    code = (
        f"import sys\n{statement}\n"
        "import json\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('nilorb.'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return {name.removeprefix("nilorb.") for name in json.loads(proc.stdout)}


def test_bare_import_loads_no_layer():
    assert loaded_after("import nilorb") == set()


def test_verdict_import_skips_atlas_partitions_and_selftest():
    loaded = loaded_after("from nilorb import delta_verdict")
    assert {"delta_check", "root_system"} <= loaded
    assert not loaded & {"orbit_atlas", "orbit_partitions", "selfcheck"}


def test_partition_import_builds_no_root_system():
    loaded = loaded_after("from nilorb import ClassicalOrbit")
    assert "orbit_partitions" in loaded
    assert not loaded & {"root_system", "orbit_atlas"}


# stdlib modules no nilorb import may load: dataclasses costs about 10 ms,
# through inspect, and difflib about 2 ms, which only a missed query needs
HEAVY = ("dataclasses", "inspect", "difflib")
# the benchmark workers' imports
LEVI_WORKER = "from nilorb import build_root_system, coroot_lattice, delta_verdict, preset_report"
SOURCE_WORKER = "from nilorb import ClassicalOrbit, rigid_special_source"


def heavy_loaded_after(statement: str, heavy: tuple = HEAVY) -> str:
    """Which of ``heavy`` a fresh ``python -S`` holds after ``statement``."""
    code = f"import sys\n{statement}\nprint(sorted(set({heavy!r}) & set(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_verdict_stack_loads_without_dataclasses():
    assert heavy_loaded_after(LEVI_WORKER) == "[]"


@pytest.mark.parametrize("statement", [LEVI_WORKER, SOURCE_WORKER])
def test_verdict_and_partition_imports_load_no_typing(statement):
    # no module of the package imports typing (see the AST scan below)
    assert heavy_loaded_after(statement, ("typing",)) == "[]"


@pytest.mark.parametrize(
    "statement",
    [
        SOURCE_WORKER,
        "from nilorb import check_consistency, flip_field, load_atlas",  # the atlas_faults worker
        "import nilorb.cli",
    ],
)
def test_no_import_loads_dataclasses_inspect_or_difflib(statement):
    assert heavy_loaded_after(statement) == "[]"


# importlib.resources and what it imports to read a package's data file: the
# CLI, an atlas load and a check read the data file without any of them
READ_PATH_HEAVY = (
    "importlib.resources", "importlib.readers", "zipfile", "tempfile", "typing", "pathlib"
)


def test_cli_atlas_load_and_check_load_no_resources_typing_or_pathlib():
    statement = (
        "import nilorb.cli\nfrom nilorb import check_consistency, load_atlas\n"
        "check_consistency(load_atlas())"
    )
    assert heavy_loaded_after(statement, READ_PATH_HEAVY) == "[]"


# no module of the package may import these anywhere, nor pathlib at module
# level: load_atlas imports it only to spell a given path
BANNED = ("dataclasses", "typing", "importlib.resources")


def banned_imports(source: str) -> list:
    """The banned modules a module's source imports, in ``ast.walk`` order.

    ``from a import b`` names both ``a`` and ``a.b``, since ``b`` may be a
    submodule.
    """
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        banned = BANNED + ("pathlib",) if node in tree.body else BANNED
        found += [n for n in names if any(n == b or n.startswith(f"{b}.") for b in banned)]
    return found


def test_banned_imports_sees_each_spelling():
    source = (
        "import dataclasses\nfrom typing import NamedTuple\nfrom importlib import resources\n"
        "import importlib.resources.abc\nfrom pathlib import Path\nfrom . import errors\n"
        "def f():\n    from pathlib import Path\n    import importlib\n"
    )
    assert banned_imports(source) == [
        "dataclasses",
        "typing",
        "typing.NamedTuple",
        "importlib.resources",
        "importlib.resources.abc",
        "pathlib",
        "pathlib.Path",
    ]


def test_no_module_imports_typing_dataclasses_or_importlib_resources():
    modules = sorted(Path(SRC, "nilorb").glob("*.py"))
    found = {path.name: banned_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_cli_import_loads_every_layer():
    # a traced benchmark run imports nilorb.cli to have every module there to wrap
    assert set(LAYERS) <= loaded_after("import nilorb.cli")


def test_every_public_name_resolves_and_is_listed():
    listing = dir(nilorb)
    for name in nilorb.__all__:
        assert getattr(nilorb, name) is not None, name
        assert name in listing, name
    assert len(set(nilorb.__all__)) == len(nilorb.__all__)


def test_public_names_are_the_defining_objects():
    from nilorb import delta_check, orbit_partitions, root_system

    assert nilorb.delta_verdict is delta_check.delta_verdict
    assert nilorb.ClassicalOrbit is orbit_partitions.ClassicalOrbit
    assert nilorb.QuotientVector is root_system.QuotientVector


def test_each_exported_name_is_listed_by_its_module():
    for name, module in nilorb._EXPORTS.items():
        owner = importlib.import_module(f"nilorb.{module}")
        if hasattr(owner, "__all__"):
            assert name in owner.__all__, (module, name)


def test_every_name_the_benchmark_wraps_resolves():
    # perfbench/tracer.py imports no nilorb; a traced run imports nilorb.cli
    # and then wraps each FUNCTIONS entry, so removing one breaks the benchmark
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    import nilorb.cli  # noqa: F401

    assert tracer.FUNCTIONS
    for module, name in tracer.FUNCTIONS:
        target = getattr(sys.modules[f"nilorb.{module}"], name)
        assert callable(target), (module, name)
        if isinstance(target, type):
            assert callable(getattr(target, "__post_init__", None)), (module, name)
    # levi_sweep setup and the cold-build probe call it through the package
    assert callable(nilorb.coroot_lattice)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nilorb.no_such_name
    assert not hasattr(nilorb, "no_such_name")


def unused_imports(source: str) -> list:
    """Names a module's import statements bind that no expression reads.

    ``from __future__`` imports are directives, not names, and are skipped.
    An attribute chain such as ``itertools.combinations`` reads its root name.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - read)


def test_unused_imports_sees_a_dead_name():
    source = "from typing import Mapping, Optional\nimport os.path\nx: Optional[int] = os.sep\n"
    assert unused_imports(source) == ["Mapping"]


def test_no_module_imports_a_name_it_never_reads():
    modules = sorted(Path(SRC, "nilorb").glob("*.py"))
    assert len(modules) >= len(LAYERS)
    dead = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: names for name, names in dead.items() if names} == {}


def is_call_to(node: ast.AST, owner: str, attr: str) -> bool:
    """Whether ``node`` is a call of ``owner.attr(...)``."""
    func = getattr(node, "func", None)
    return (
        isinstance(node, ast.Call)
        and isinstance(func, ast.Attribute)
        and func.attr == attr
        and isinstance(func.value, ast.Name)
        and func.value.id == owner
    )


def test_every_record_stores_each_field_once_through_fill():
    import nilorb.cli  # noqa: F401  (loads every layer, and so every record)
    from nilorb.errors import _Frozen

    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(SRC, "nilorb").glob("*.py"))
    }
    direct = [
        name for name, tree in trees.items()
        if any(is_call_to(node, "object", "__setattr__") for node in ast.walk(tree))
    ]
    assert direct == []

    # the count of self._fill calls in each record's own __init__, or None
    # where the record defines none and _fill itself is its constructor
    fills = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and "_Frozen" in [getattr(b, "id", None) for b in node.bases]:
                inits = [f for f in node.body if getattr(f, "name", None) == "__init__"]
                fills[node.name] = (
                    sum(is_call_to(call, "self", "_fill") for call in ast.walk(inits[0])) if inits else None
                )
    records = [cls for cls in _Frozen.__subclasses__() if cls.__module__.startswith("nilorb.")]
    assert sorted(fills) == sorted(cls.__name__ for cls in records)
    assert {name: count for name, count in fills.items() if count not in (None, 1)} == {}
    for cls in records:
        if fills[cls.__name__] is None:
            cls(*range(len(cls._fields)))  # no __init__ checks the values
            assert cls.__init__ is cls._fill, cls.__name__

    # a derived value kept beside the fields would be a second store of them;
    # the atlas record's __dict__ holds only its cached check row
    private = {cls.__name__: [s for s in cls.__slots__ if s.startswith("_")] for cls in records}
    assert {name: slots for name, slots in private.items() if slots} == {
        "ExceptionalOrbitRecord": ["__dict__"]
    }
