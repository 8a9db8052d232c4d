"""Spans and counts around nilorb's public functions, from outside the package.

The tracer replaces each named function with a wrapper in every loaded
``nilorb`` module that refers to it, so calls between modules are seen as
well as calls from the benchmark.  Spanned functions record (name, start,
end, parent) in memory; counted functions only bump a counter, because they
are called far too often for a span each.  Importing this module does not
import nilorb, so the parent process can read FUNCTIONS and stay small.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, name) -> the per-layer metrics a traced run reports for it.  A
# name with a self time gets a span per call, the others only a count, and
# classes are counted through __post_init__.
FUNCTIONS = {
    ("exact_linalg", "hermite_normal_form"): ("calls", "self_s"),
    ("exact_linalg", "kernel_lattice"): ("calls", "self_s"),
    ("exact_linalg", "LatticeBasis"): ("calls",),
    ("exact_linalg", "lattice_contains"): ("calls",),
    ("root_system", "levi_subsystem"): ("calls", "self_s"),
    ("root_system", "pair"): ("calls",),
    ("root_system", "coroot"): ("calls",),
    ("root_system", "QuotientVector"): ("calls",),
    ("delta_check", "delta_verdict"): ("calls", "self_s"),
    ("delta_check", "principal_h"): ("self_s",),
    ("delta_check", "kappa_weight"): ("self_s",),
    ("delta_check", "central_torus_lattice"): ("self_s",),
    ("delta_check", "preset_report"): ("self_s",),
    ("delta_check", "roots_pairing_one"): ("calls", "self_s"),
    ("orbit_partitions", "rigid_special_source"): ("calls", "self_s"),
    ("orbit_partitions", "birational_sources"): ("calls", "self_s"),
    ("orbit_partitions", "inverse_steps"): ("calls",),
    ("orbit_partitions", "is_valid_type"): ("calls",),
    ("orbit_partitions", "is_special"): ("calls",),
    ("orbit_atlas", "load_atlas"): ("calls", "self_s", "rejects"),
    ("orbit_atlas", "check_consistency"): ("calls", "self_s"),
    ("orbit_atlas", "flip_field"): ("calls",),
}


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self._open = []
        self._undo = []
        self._rejected = None

    def install(self) -> None:
        """Wrap every name in FUNCTIONS; nilorb must be imported already."""
        from nilorb.errors import AtlasLoadError

        self._rejected = AtlasLoadError
        for (module, name), kinds in FUNCTIONS.items():
            target = getattr(sys.modules[f"nilorb.{module}"], name)
            key = f"{module}.{name}"
            if isinstance(target, type):
                original = target.__post_init__
                target.__post_init__ = self._counted(key, original)
                self._undo.append((target, "__post_init__", original))
            elif "self_s" in kinds:
                self._patch(module, name, self._spanned(key, target))
            else:
                self._patch(module, name, self._counted(key, target))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, module: str, name: str, wrapper) -> None:
        original = getattr(sys.modules[f"nilorb.{module}"], name)
        for modname, mod in list(sys.modules.items()):
            if modname == "nilorb" or modname.startswith("nilorb."):
                if getattr(mod, name, None) is original:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, original))

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, key: str, fn):
        counts, spans, stack = self.counts, self.spans, self._open
        clock, rejected = time.perf_counter_ns, self._rejected

        def wrapper(*args, **kwargs):
            counts[key] += 1
            index = len(spans)
            span = [key, clock(), 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except rejected:
                counts[key + ".rejects"] += 1
                raise
            finally:
                stack.pop()
                span[2] = clock()
            if key == "orbit_partitions.birational_sources":
                counts["orbit_partitions.rigid_endpoints"] += len(result)
            return result

        return wrapper

    def self_seconds(self) -> Counter:
        """Per name: span durations minus the time their direct children
        cover (one thread, so children nest strictly inside the parent)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = Counter()
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            out[name] += (end - start - inner) / 1e9
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans of ``name`` with a span of ``ancestor`` above them."""
        total = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            total += parent >= 0
        return total
