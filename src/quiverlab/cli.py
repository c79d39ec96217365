"""Command line front end.

Five subcommands cover the library surface: classify, canonical, trivext,
entropy, and check-coxeter.  Every run produces a report, a plain dict
built by _report, carrying the command name, a sha256 digest of the input,
the structured result, and any warnings.  The default rendering is a
plain-text table; --json switches to a canonical JSON document (sorted
keys, floats rounded to twelve significant digits) so identical inputs
produce identical bytes.

Numeric fields computed by the commands are wrapped in an exactness
envelope: {"exact": true, "value": ...} for integer and rational data
(rationals rendered as "p/q" strings) and {"exact": false, "value": ...,
"tol": ...} for tolerance-bounded floats.  Nested domain objects (verdicts,
resolution traces, check reports) are records, and print as their
Record.to_json_dict.  Every JSON input is decoded by record.read_json.

Each command imports the layers it uses inside its handler, so one run
loads and compiles only those; the names are read from their submodules at
call time.  `fractions` is imported the same way, by the helpers that parse
or print a rational that is not an int, so `classify` on an acyclic quiver,
`entropy` on one with no wild component, `canonical` on its
default lambdas and `trivext` on a relation-free quiver run on ints from
parsing to rendering, and load neither `fractions` (nor the `decimal` and
`numbers` it pulls in) nor `ratmat`; only `check-coxeter` parses its matrix
into a RatMatrix.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

    from .ratmat import RatMatrix

try:  # the builtin module, without the OpenSSL bindings hashlib loads
    from _sha256 import sha256 as _sha256
except ImportError:
    from hashlib import sha256 as _sha256

TRACE_TOL = 1e-9
# the h0 envelope's stated tolerance; spectral_radius's enclosure is 2^-60 wide
H0_TOL = 1e-4


def _report(command: str, input_digest: str, result: dict, warnings: list[str]) -> dict:
    """One command invocation, as --json prints it: inputs digested, results structured."""
    return dict(command=command, input_digest=input_digest, result=result, warnings=warnings)


def _fixed(x: float) -> float:
    """Round to 12 significant digits so serialized floats are reproducible."""
    return float(f"{x:.12g}")


def exact(value) -> dict:
    return {"exact": True, "value": value}


def exact_rational(value) -> dict:
    if type(value) is not int:
        from fractions import Fraction

        value = Fraction(value)
    return exact(str(value))


def approximate(value, tol: float) -> dict:
    if isinstance(value, list):
        fixed = [_fixed(x) for x in value]
    else:
        fixed = _fixed(value)
    return {"exact": False, "value": fixed, "tol": _fixed(tol)}


def _matrix_json(rows) -> list[list[str]]:
    return [[str(x) for x in row] for row in rows]


def _poly_json(p) -> dict:
    return {
        "text": str(p),
        "coefficients": exact([str(c) for c in p.coeffs]),
    }


def _digest_bytes(raw: bytes) -> str:
    return _sha256(raw).hexdigest()


def _read_input(path: str) -> tuple[str, str]:
    raw = Path(path).read_bytes()
    return raw.decode("utf-8"), _digest_bytes(raw)


def _profile_json(profile) -> dict:
    return {
        "is_cyclotomic": profile.is_cyclotomic,
        "periodic": profile.periodic,
        "period": exact(profile.period) if profile.period is not None else None,
        "orders": exact([list(pair) for pair in profile.orders]),
        "witness": exact(list(profile.witness)) if profile.witness is not None else None,
    }


def cmd_classify(args) -> dict:
    from .cyclo import cyclotomic_profile
    from .quiver import (CoxeterMap, K0Arithmetic, classify_quiver, has_oriented_cycle,
                         parse_quiver)

    document, digest = _read_input(args.file)
    q = parse_quiver(document)
    warnings: list[str] = []
    qtype = classify_quiver(q)
    result: dict = {
        "vertices": exact(len(q.vertices)),
        "arrows": exact(len(q.arrows)),
        "kind": qtype.kind,
        "radical_vector": exact(list(qtype.radical_vector))
        if qtype.radical_vector is not None
        else None,
    }
    if has_oriented_cycle(q):
        warnings.append(
            "quiver has an oriented cycle, so the path algebra is "
            "infinite-dimensional; Cartan and Coxeter data are omitted"
        )
        result.update(
            {"cartan_matrix": None, "coxeter_matrix": None, "char_poly": None,
             "cyclotomic_profile": None}
        )
    else:
        k0 = K0Arithmetic(q)
        result["cartan_matrix"] = exact(_matrix_json(k0.rows(k0.paths)))
        result["coxeter_matrix"] = exact(_matrix_json(k0.rows(k0.forward)))
        profile = cyclotomic_profile(CoxeterMap(k0))
        result["char_poly"] = _poly_json(profile.char_poly)
        result["cyclotomic_profile"] = _profile_json(profile)
    return _report("classify", digest, result, warnings)


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{what} must be a comma-separated list of integers") from exc


def _parse_fraction_list(text: str, what: str) -> list[Fraction]:
    from fractions import Fraction

    try:
        return [Fraction(part.strip()) for part in text.split(",") if part.strip() != ""]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{what} must be a comma-separated list of rationals") from exc


def cmd_canonical(args) -> dict:
    from .quiver import CoxeterMap, K0Arithmetic
    from .serre import (CanonicalSpec, canonical_verdict, coxeter_necessary_check,
                        default_lambdas, entropy_line)

    weights = _parse_int_list(args.weights, "--weights")
    if args.lambdas is not None:
        lambdas = _parse_fraction_list(args.lambdas, "--lambdas")
    else:
        lambdas = default_lambdas(len(weights))
    spec = CanonicalSpec(tuple(weights), tuple(lambdas))
    lambdas_text = [str(x) for x in spec.lambdas]
    payload = {"lambdas": lambdas_text, "weights": list(spec.weights)}
    digest = _digest_bytes(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())

    delta, p, verdict = canonical_verdict(spec)
    line = entropy_line(verdict)
    k0 = K0Arithmetic.canonical(spec.weights)
    check = coxeter_necessary_check(CoxeterMap(k0), l_max=2, n_max=p)

    warnings: list[str] = []
    if check.passed is None:
        warnings.append("coxeter cross-check inconclusive: " + check.note)
    elif check.passed is False:
        warnings.append("coxeter cross-check failed: " + check.note)

    result = {
        "weights": exact(list(spec.weights)),
        "lambdas": exact(lambdas_text),
        "delta": exact(delta),
        "p": exact(p),
        "verdict": verdict.to_json_dict(),
        "entropy_slope": exact_rational(line.slope),
        "poly_entropy_bound": exact(line.poly_entropy_bound),
        # dim A is the sum of the entries of its Cartan matrix
        "algebra_dim": exact(sum(sum(k0.paths(k0.unit(j))) for j in range(k0.n))),
        "coxeter_check": check.to_json_dict(),
    }
    return _report("canonical", digest, result, warnings)


def cmd_trivext(args) -> dict:
    from .quiver import quiver_from_data
    from .betti import combine_estimates, trivext_traces
    from .record import read_json

    document, digest = _read_input(args.file)
    data = read_json(document, "quiver document")
    if isinstance(data, dict) and "relations" in data:
        from .builders import gentle_from_data

        presentation = gentle_from_data(data)
        quiver = presentation.quiver
    else:
        presentation = quiver = quiver_from_data(data)
    base_dim, traces, estimates = trivext_traces(presentation, args.steps, args.dim_cap)
    overall = combine_estimates(estimates)

    warnings: list[str] = []
    simples = []
    for vert, trace, estimate in zip(quiver.vertices, traces, estimates):
        if trace.truncated_by == "dimension-cap":
            warnings.append(
                f"resolution at vertex {vert} stopped at the dimension cap "
                f"({args.dim_cap}); syzygies beyond step {len(trace.betti) - 1} "
                "were not computed"
            )
        simples.append({"vertex": str(vert), "trace": trace.to_json_dict(),
                        "estimate": estimate.to_json_dict()})
    result = {
        "base_dim": exact(base_dim),
        "extension_dim": exact(2 * base_dim),  # T(A) = A + DA
        "steps": exact(args.steps),
        "dim_cap": exact(args.dim_cap),
        "simples": simples,
        "global_estimate": overall.to_json_dict(),
    }
    return _report("trivext", digest, result, warnings)


def cmd_entropy(args) -> dict:
    from .quiver import has_oriented_cycle, parse_quiver
    from .serre import entropy_and_growth

    document, digest = _read_input(args.file)
    q = parse_quiver(document)
    if has_oriented_cycle(q):
        raise ValueError(
            "quiver has an oriented cycle, so the entropy iteration does not "
            "apply; the classify command still accepts cyclic quivers"
        )
    h0, trace, growth = entropy_and_growth(q, args.iterations)

    # exact: h0 is 0.0 exactly when no component is wild
    h0_field = exact_rational(0) if h0 == 0.0 else approximate(h0, H0_TOL)
    result = {
        "h0": h0_field,
        "iterations": exact(args.iterations),
        "trace": approximate(trace, TRACE_TOL),
        "growth": growth.to_json_dict(),
    }
    return _report("entropy", digest, result, [])


def _parse_matrix_file(document: str) -> RatMatrix:
    from fractions import Fraction

    from .ratmat import RatMatrix
    from .record import read_json

    data = read_json(document, "matrix document")
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ValueError("matrix file must be a JSON array of arrays of rational strings")
    rows = []
    for row in data:
        parsed = []
        for entry in row:
            if not isinstance(entry, str):
                raise ValueError(f"matrix entries must be strings like '3/4', got {entry!r}")
            try:
                parsed.append(Fraction(entry))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad matrix entry {entry!r}: {exc}") from exc
        rows.append(parsed)
    return RatMatrix(rows)


def cmd_check_coxeter(args) -> dict:
    from .serre import coxeter_necessary_check

    document, digest = _read_input(args.file)
    matrix = _parse_matrix_file(document)
    report = coxeter_necessary_check(matrix, l_max=args.l_max, n_max=args.n_max)
    warnings: list[str] = []
    if report.passed is None:
        warnings.append("witness exceeds the requested bounds; nothing was verified")
    result = {
        "size": exact([matrix.rows, matrix.cols]),
        "l_max": exact(args.l_max),
        "n_max": exact(args.n_max),
        "report": report.to_json_dict(),
    }
    return _report("check-coxeter", digest, result, warnings)


def _render_matrix(rows: list[list[str]], pad: str, out: list[str]) -> None:
    if not rows:
        out.append(pad + "(empty)")
        return
    widths = [max(len(row[j]) for row in rows) for j in range(len(rows[0]))]
    for row in rows:
        out.append(pad + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


def _scalar_text(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _render_value(label: str, value, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict) and "exact" in value and "value" in value:
        inner = value["value"]
        suffix = "" if value["exact"] else f"  (tol {value['tol']})"
        if isinstance(inner, list) and inner and all(isinstance(r, list) for r in inner):
            out.append(f"{pad}{label}:{suffix}")
            _render_matrix([[str(x) for x in row] for row in inner], pad + "  ", out)
        elif isinstance(inner, list):
            text = ", ".join(str(x) for x in inner) if inner else "(empty)"
            out.append(f"{pad}{label}: {text}{suffix}")
        else:
            out.append(f"{pad}{label}: {inner}{suffix}")
        return
    if isinstance(value, dict):
        out.append(f"{pad}{label}:")
        for key, sub in value.items():
            _render_value(key, sub, indent + 1, out)
        return
    if isinstance(value, list):
        if value and all(isinstance(item, dict) for item in value):
            out.append(f"{pad}{label}:")
            for item in value:
                head = item.get("vertex")
                tag = f"vertex {head}" if head is not None else "-"
                out.append(f"{pad}  [{tag}]")
                for key, sub in item.items():
                    if key != "vertex":
                        _render_value(key, sub, indent + 2, out)
            return
        text = ", ".join(str(x) for x in value) if value else "(empty)"
        out.append(f"{pad}{label}: {text}")
        return
    out.append(f"{pad}{label}: {_scalar_text(value)}")


def render_table(report: dict) -> str:
    out = [f"command: {report['command']}", f"input sha256: {report['input_digest']}"]
    for key, value in report["result"].items():
        _render_value(key, value, 0, out)
    if report["warnings"]:
        out.append("warnings:")
        out.extend(f"  - {w}" for w in report["warnings"])
    else:
        out.append("warnings: (none)")
    return "\n".join(out)


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverlab",
        description="Exact Coxeter classification, entropy, and resolution growth for quivers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit a canonical JSON report")

    p = sub.add_parser("classify", help="Tits form type plus Coxeter spectral data")
    p.add_argument("file", help="quiver JSON file")
    add_json(p)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("canonical", help="delta rule and verdict for a canonical algebra")
    p.add_argument("--weights", required=True, help="comma-separated weights, e.g. 2,3,5")
    p.add_argument(
        "--lambdas",
        help="comma-separated parameters for arms beyond the second (default 1,2,...)",
    )
    add_json(p)
    p.set_defaults(handler=cmd_canonical)

    p = sub.add_parser("trivext", help="minimal resolutions over a trivial extension")
    p.add_argument("file", help="quiver JSON file, optionally with gentle relations")
    p.add_argument("--steps", type=int, default=40, help="resolution length bound")
    p.add_argument("--dim-cap", type=int, default=100000, help="syzygy dimension bound")
    add_json(p)
    p.set_defaults(handler=cmd_trivext)

    p = sub.add_parser("entropy", help="categorical entropy of an acyclic quiver")
    p.add_argument("file", help="quiver JSON file")
    p.add_argument("--iterations", type=int, default=60, help="trace length")
    add_json(p)
    p.set_defaults(handler=cmd_entropy)

    p = sub.add_parser("check-coxeter", help="exact cyclotomic check on a rational matrix")
    p.add_argument("file", help="JSON array of arrays of rational strings")
    p.add_argument("--l-max", type=int, default=6, help="largest nilpotency exponent tried")
    p.add_argument("--n-max", type=int, default=60, help="largest witness order tried")
    add_json(p)
    p.set_defaults(handler=cmd_check_coxeter)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_json(report) if args.json else render_table(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
