"""Exact linear algebra for quivers: Tits classification, Coxeter
cyclotomicity, categorical entropy, and resolution growth over trivial
extensions.

Every public name is re-exported from the submodule that defines it, which
is imported on the first access to one of its names (PEP 562), so a
process pays only for the layers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("ComplexityEstimate", "ResolutionTrace", "combine_estimates", "complexity_estimate",
         "coxeter_trivext_traces"),
        "betti",
    ),
    **dict.fromkeys(
        ("GentlePresentation", "canonical_algebra", "gentle_algebra", "parse_gentle",
         "path_algebra"),
        "builders",
    ),
    **dict.fromkeys(
        ("CycloProfile", "char_poly", "cyclotomic_profile", "min_poly", "spectral_radius"),
        "cyclo",
    ),
    **dict.fromkeys(("IntPolynomial", "cyclotomic_factorization", "cyclotomic_poly"), "intpoly"),
    **dict.fromkeys(
        ("Arrow", "Quiver", "QuiverType", "cartan_path_algebra", "classify_quiver",
         "coxeter_matrix", "has_oriented_cycle", "parse_quiver", "quiver_from_data",
         "tits_matrix"),
        "quiver",
    ),
    "RatMatrix": "ratmat",
    **dict.fromkeys(("Vector", "l1_norm", "vector"), "echelon"),
    **dict.fromkeys(
        ("RepModule", "jacobson_radical", "minimal_resolution", "resolve_simple_modules",
         "simple_modules"),
        "resolution",
    ),
    **dict.fromkeys(("BasisElement", "Element", "SCAlgebra", "cartan_matrix"), "scalgebra"),
    **dict.fromkeys(
        ("CanonicalSpec", "CoxeterReport", "EntropyLine", "GrowthEstimate", "SerreVerdict",
         "canonical_verdict", "coxeter_necessary_check", "entropy_line", "graded_path_verdict",
         "growth_degree", "hereditary_entropy", "parse_canonical_spec", "verify_k_shadow"),
        "serre",
    ),
    "trivial_extension": "trivext",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        submodule = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
