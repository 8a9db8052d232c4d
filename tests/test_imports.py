"""Import hygiene: ``nilorb`` loads a layer only when one of its names is
used, and no module imports a name it never reads.

Each load check runs in a fresh interpreter, since this test process has long
since imported every module.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nilorb

SRC = str(Path(nilorb.__file__).resolve().parents[1])
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
