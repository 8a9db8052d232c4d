"""Exact-arithmetic toolkit for nilpotent-orbit combinatorics.

Four layers share one no-floating-point rule:

* exact integer linear algebra (Hermite normal form, kernel lattices,
  lattice membership);
* partition calculus for classical orbits (validity, specialness, elementary
  induction steps and their inverses, birational rigidity, source search);
* E7/E8 root systems in quotient coordinates, with the integrality criterion
  for the distinguished weight of a Levi orbit;
* a curated atlas of exceptional-orbit data with seven cross-checks and a
  fault-injection-hardened loader.

``import nilorb`` loads no layer: each public name below is imported from
its module on first use, so ``from nilorb import ClassicalOrbit`` never
builds a root system or reads the atlas.

``python -m nilorb selftest`` replays the built-in acceptance suite.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it, in the order of __all__
_EXPORTS = {
    "NilorbError": "errors",
    "InputError": "errors",
    "CapabilityError": "errors",
    "IntegrityError": "errors",
    "StepInapplicableError": "errors",
    "AtlasLoadError": "errors",
    "OrbitNotFoundError": "errors",
    "IntMatrix": "exact_linalg",
    "LatticeBasis": "exact_linalg",
    "hermite_normal_form": "exact_linalg",
    "kernel_lattice": "exact_linalg",
    "lattice_contains": "exact_linalg",
    "ROOT_SYSTEM_NAMES": "root_system",
    "QuotientVector": "root_system",
    "RootSystem": "root_system",
    "LeviSubsystem": "root_system",
    "build_root_system": "root_system",
    "pair": "root_system",
    "coroot": "root_system",
    "coroot_lattice": "root_system",
    "levi_subsystem": "root_system",
    "PRESETS": "delta_check",
    "DeltaReport": "delta_check",
    "MemberCheck": "delta_check",
    "ReferenceComparison": "delta_check",
    "principal_h": "delta_check",
    "roots_pairing_one": "delta_check",
    "kappa_weight": "delta_check",
    "central_torus_lattice": "delta_check",
    "delta_verdict": "delta_check",
    "preset_report": "delta_check",
    "KINDS": "orbit_partitions",
    "ClassicalOrbit": "orbit_partitions",
    "StepScript": "orbit_partitions",
    "InverseStep": "orbit_partitions",
    "BirationalSource": "orbit_partitions",
    "is_valid_type": "orbit_partitions",
    "is_special": "orbit_partitions",
    "elementary_step": "orbit_partitions",
    "inverse_steps": "orbit_partitions",
    "is_birationally_rigid": "orbit_partitions",
    "birational_sources": "orbit_partitions",
    "rigid_special_source": "orbit_partitions",
    "partitions_of": "orbit_partitions",
    "GROUPS": "orbit_atlas",
    "ExceptionalOrbitRecord": "orbit_atlas",
    "CheckResult": "orbit_atlas",
    "load_atlas": "orbit_atlas",
    "query": "orbit_atlas",
    "check_consistency": "orbit_atlas",
    "flip_field": "orbit_atlas",
    "paper_provenanced_fields": "orbit_atlas",
    "CriterionResult": "selfcheck",
    "run_criterion": "selfcheck",
    "run_all": "selfcheck",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
