"""Command-line front end.

Five subcommands over the library:

    eigen      evaluate the closed-form eigenfunction at given points
    verify     run the full verification suite for one generator and lambda
    scatter    sample the eigenfunction on a circle and fit scattering data
    evolve     sample root trajectories of the polynomial flow
    potential  emit the delta potential at one flow time

Conventions: complex values are written ``re+imi`` (e.g. ``1.5-2i``) or
``re,im``; lists are separated by semicolons or whitespace.  Reports are JSON
(default) or CSV, on stdout or ``--out``.  Exit status is 0 on success, 1
when a numerical operation fails (a structured JSON error record goes to
stderr), and 2 for configuration errors.  Output is deterministic:
byte-identical for identical configurations.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
import types

from . import cpoly, flow, scattering, transform, verdict
from .errors import IoFailure, MoutardError


class ConfigError(ValueError):
    """Bad command-line configuration (exit status 2)."""


def parse_complex(text: str) -> complex:
    """``re+imi`` (``1+2i``, ``-3i``, ``2``) or ``re,im`` (``1,2``)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ConfigError("empty complex literal")
    try:
        if "," in s:
            re_s, _, im_s = s.partition(",")
            value = complex(float(re_s or "0"), float(im_s or "0"))
        else:
            value = complex(s.replace("I", "i").replace("i", "j"))
    except ValueError:
        raise ConfigError(f"cannot parse complex number from {text!r}") from None
    if not cmath.isfinite(value):
        raise ConfigError(f"complex literal {text!r} is not finite")
    return value


def parse_complex_list(text: str) -> list[complex]:
    """Semicolon- or whitespace-separated complex literals; '' is the empty list."""
    return [parse_complex(p) for p in text.replace(";", " ").split()]


def _build_poly(ns: types.SimpleNamespace) -> cpoly.ComplexPoly:
    roots_given = ns.roots is not None
    coeffs_given = ns.coeffs is not None
    if roots_given == coeffs_given:
        raise ConfigError("provide exactly one of --roots or --coeffs")
    try:
        if roots_given:
            return cpoly.from_roots(parse_complex_list(ns.roots))
        return cpoly.ComplexPoly.from_coefficients(parse_complex_list(ns.coeffs))
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _rejection(message: str, ns: types.SimpleNamespace, *names: str) -> ConfigError:
    """ConfigError(message), or one naming the nan when an option in names is nan."""
    for name in names:
        if math.isnan(getattr(ns, name)):
            return ConfigError(f"--{name} must be a number, got nan")
    return ConfigError(message)


def _checked(ns: types.SimpleNamespace) -> cpoly.ComplexPoly:
    """The generator P, after every configuration check on ns.

    Parses ``ns.lam`` and ``ns.z`` in place; raises ConfigError at the first
    problem.
    """
    poly = _build_poly(ns)
    if hasattr(ns, "lam"):
        ns.lam = parse_complex(ns.lam)
        if ns.lam == 0:
            raise ConfigError(f"{ns.command} requires a nonzero --lambda")
    if hasattr(ns, "z"):
        ns.z = parse_complex_list(ns.z)
        if not ns.z:
            raise ConfigError("eigen requires at least one point in --z")
    if ns.command == "evolve":
        if not ns.t1 > ns.t0:
            raise _rejection("evolve requires --t0 < --t1", ns, "t0", "t1")
        if ns.steps < 1:
            raise ConfigError("--steps must be >= 1")
        if poly.degree < 1:
            raise ConfigError("evolve requires a polynomial of degree >= 1")
    if ns.command == "potential" and math.isnan(ns.t0):
        raise _rejection("--t0 must be a number", ns, "t0")
    if hasattr(ns, "samples") and ns.samples < 8:
        raise ConfigError("--samples must be >= 8")
    if getattr(ns, "radius", None) is not None and not ns.radius > 0:
        raise _rejection("--radius must be positive", ns, "radius")
    if hasattr(ns, "tol") and not ns.tol > 0:
        raise _rejection("--tol must be positive", ns, "tol")
    return poly


def _c(z: complex) -> dict[str, float]:
    return {"re": z.real, "im": z.imag}


def _emit_json(payload: dict) -> str:
    """payload byte for byte as ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"`` writes it."""
    return _json(payload, "") + "\n"


def _json(x: object, indent: str) -> str:
    """x as json.dumps(sort_keys=True, indent=2) writes a value whose line starts at indent.

    Covers dicts with str keys, lists, tuples, str, float, int, bool and
    None; TypeError for anything else.  Unlike json's pure-Python indenting
    encoder, it leaves no reference cycles behind.
    """
    if isinstance(x, float):
        return _spelled(repr(x))
    if isinstance(x, str):
        return _str(x)
    inner = indent + "  "
    if isinstance(x, dict):
        if not x:
            return "{}"
        items = [f"{_str(k)}: {_json(v, inner)}" for k, v in sorted(x.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(x, (list, tuple)):
        return _json_list([_json(v, inner) for v in x], indent)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return repr(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _str(s: str) -> str:
    """s as json.encoder.encode_basestring_ascii writes it; json is imported only for escapes."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    from json.encoder import encode_basestring_ascii
    return encode_basestring_ascii(s)


def _spelled(text: str) -> str:
    """Number reprs in text with nan and inf spelled as json spells them; text holds no other "n"."""
    return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text


def _json_list(items: list[str], indent: str) -> str:
    """Encoded items laid out as json.dumps(indent=2) lays out a list whose line starts at indent."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _csv_rows(header: list[str], rows: list[Sequence[object]], comments: list[str] = ()) -> str:
    lines = [",".join(header)]
    lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    lines += list(comments)
    return "\n".join(lines) + "\n"


def _cmd_eigen(ns: types.SimpleNamespace, poly: cpoly.ComplexPoly) -> str:
    _, mus, _, psis = transform.FaddeevParams(poly, ns.lam)._evaluate(ns.z)
    evaluated = list(zip(ns.z, mus, psis))
    if ns.format == "csv":
        return _csv_rows(
            ["re_z", "im_z", "re_mu", "im_mu", "re_psi", "im_psi"],
            [[z.real, z.imag, mu.real, mu.imag, psi.real, psi.imag] for z, mu, psi in evaluated],
        )
    return _emit_json(
        {
            "lambda": _c(ns.lam),
            "degree": poly.degree,
            "points": [{"z": _c(z), "mu": _c(mu), "psi": _c(psi)} for z, mu, psi in evaluated],
        }
    )


def _fit(est: scattering.ScatteringEstimate, expected: complex) -> dict:
    return {"a": _c(est.a), "b": _c(est.b), "expected_a": _c(expected),
            "fit_residual": est.fit_residual, "radius": est.radius, "samples": est.samples}


def _cmd_scatter(ns: types.SimpleNamespace, poly: cpoly.ComplexPoly) -> str:
    fp = transform.FaddeevParams(poly, ns.lam)
    est = scattering.fit_scattering(scattering.sample_mu(fp, radius=ns.radius, count=ns.samples), fp.lam)
    fields = _fit(est, scattering.expected_a(poly.degree, fp.lam))
    n = scattering.count_deltas(est.a, ns.lam)
    if ns.format == "csv":
        return _csv_rows(
            ["re_a", "im_a", "re_b", "im_b", "fit_residual", "radius", "samples", "recovered_count"],
            [[est.a.real, est.a.imag, est.b.real, est.b.imag, est.fit_residual, est.radius, est.samples, n]],
        )
    return _emit_json({**fields, "abs_b": abs(est.b), "recovered_count": n, "degree": poly.degree})


def _cmd_verify(ns: types.SimpleNamespace, poly: cpoly.ComplexPoly) -> str:
    v = verdict.verify(poly, ns.lam, ns.radius, ns.samples, ns.flow_sign)
    if ns.format == "csv":
        count = ("count_recovered", float(v.recovered_count), float(poly.degree), v.count_recovered)
        return _csv_rows(["check", "value", "threshold", "passed"], [*sorted(v.checks), count])
    return _emit_json({
        "lambda": _c(ns.lam),
        "degree": poly.degree,
        "roots": [_c(r) for r in v.roots],
        "sample_points": v.sample_points,
        "results": {name: value for name, value, _, _ in v.checks},
        "scattering": {**_fit(v.estimate, v.expected_a), "recovered_count": v.recovered_count},
        "thresholds": {name: bound for name, _, bound, _ in v.checks},
        "checks": {**{name: passed for name, _, _, passed in v.checks}, "count_recovered": v.count_recovered},
        "all_passed": v.all_passed,
    })


def export_trajectory(rt: flow.RootTrajectory, fmt: str) -> str:
    """Serialize a trajectory: CSV with #event comment lines, or JSON.

    The JSON text is written directly, byte for byte what ``_emit_json`` gives
    for the times, paths and events, without json's pure-Python indenting
    encoder.
    """
    if not rt.times:
        raise ValueError("cannot export an empty trajectory")
    if fmt == "csv":
        header = ["t"]
        for i in range(len(rt.paths)):
            header += [f"re_root_{i + 1}", f"im_root_{i + 1}"]
        rows = []
        for k, t in enumerate(rt.times):
            row: list[object] = [t]
            for path in rt.paths:
                row += [path[k].real, path[k].imag]
            rows.append(row)
        comments = [
            "#event t_approx={!r} roots={} min_separation={!r}".format(
                ev.t_approx, ";".join(str(i) for i in ev.roots_involved), ev.min_separation
            )
            for ev in rt.events
        ]
        return _csv_rows(header, rows, comments)
    # A path is one join of its points' (repr(im), repr(re)) pairs, so no float
    # passes through an interpreted call; no other text of the paths and times holds an "n".
    point, pair = '\n      },\n      {\n        "im": ', ',\n        "re": '
    imag, real = operator.attrgetter("imag"), operator.attrgetter("real")
    paths = [
        '[\n      {\n        "im": '
        + point.join(map(pair.join, zip(map(repr, map(imag, path)), map(repr, map(real, path)))))
        + "\n      }\n    ]" if path else "[]"
        for path in rt.paths
    ]
    events = [{"min_separation": ev.min_separation, "roots_involved": ev.roots_involved, "t_approx": ev.t_approx}
              for ev in rt.events]
    body = _spelled(f'{_json_list(paths, "  ")},\n  "times": {_json_list(list(map(repr, rt.times)), "  ")}')
    return f'{{\n  "events": {_json(events, "  ")},\n  "paths": {body}\n}}\n'


def _cmd_evolve(ns: types.SimpleNamespace, poly: cpoly.ComplexPoly) -> str:
    rt = flow.trajectory(poly, ns.t0, ns.t1, ns.steps, ns.tol, ns.flow_sign)
    return export_trajectory(rt, ns.format)


def _cmd_potential(ns: types.SimpleNamespace, poly: cpoly.ComplexPoly) -> str:
    pot = transform.transformed_potential(flow.evolve(poly, ns.t0, ns.flow_sign))
    if ns.format == "csv":
        return _csv_rows(
            ["re_center", "im_center", "weight"],
            [[c.real, c.imag, pot.weight] for c in pot.centers],
        )
    return _emit_json(
        {"t": ns.t0, "weight": pot.weight, "centers": [_c(c) for c in pot.centers]}
    )


_COMMON = (("--roots", {"help": "semicolon-separated roots of the generator, e.g. '1+2i;-1;0.5,0.5'"}),
           ("--coeffs", {"help": "semicolon-separated coefficients, constant term first"}),
           ("--format", {"choices": ("json", "csv"), "default": "json"}),
           ("--out", {"help": "write the report to this path instead of stdout"}))
_SPECTRAL = (("--lambda", {"dest": "lam", "required": True, "help": "spectral parameter (nonzero)"}),)
_CIRCLE = (("--radius", {"type": float, "help": "scattering circle radius"}),
           ("--samples", {"type": int, "default": scattering.DEFAULT_SAMPLE_COUNT}))
_SIGN = (("--flow-sign", {"dest": "flow_sign", "type": int, "choices": (1, -1), "default": 1}),)

# Each command's handler, summary and options, in the order its help lists them.
_COMMANDS = {
    "eigen": (_cmd_eigen, "evaluate the eigenfunction",
              _COMMON + _SPECTRAL + (("--z", {"required": True, "help": "evaluation points"}),)),
    "verify": (_cmd_verify, "run the full verification suite", _COMMON + _SPECTRAL + _CIRCLE + _SIGN),
    "scatter": (_cmd_scatter, "fit scattering data on a circle", _COMMON + _SPECTRAL + _CIRCLE),
    "evolve": (_cmd_evolve, "sample root trajectories of the flow", _COMMON + _SIGN + (
        ("--t0", {"type": float, "required": True}), ("--t1", {"type": float, "required": True}),
        ("--steps", {"type": int, "required": True}),
        ("--tol", {"type": float, "default": 1e-3, "help": "collision tolerance"}))),
    "potential": (_cmd_potential, "delta potential at one flow time",
                  _COMMON + _SIGN + (("--t0", {"type": float, "default": 0.0, "help": "flow time (default 0)"}),)),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every subcommand with its options.  ``_parse`` says when ``main`` needs it."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="moutard",
        description="Delta potentials, eigenfunctions, scattering data, and root "
        "dynamics from polynomial Moutard transforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        command.set_defaults(command=name, handler=handler)
        for flag, kwargs in options:
            command.add_argument(flag, **kwargs)
    return parser


def _read(args: list[str]) -> types.SimpleNamespace | None:
    """The namespace the full parser gives a well-formed command, or None.

    Well formed: a command, then only ``--flag=value`` and ``--flag value``
    tokens, where a flag is one of the command's options or a unique ``--``
    prefix of one, as argparse abbreviates; no value is "--" and none after
    a space starts with "-"; each value passes its option's ``type`` and
    ``choices``; and every required option is given.  Anything else (help,
    "--", a positional, an unknown or ambiguous flag, a bad value, a missing
    option) gives None, and the full parser writes the help, usage or error.
    """
    if not args or args[0] not in _COMMANDS:
        return None
    handler, _, options = _COMMANDS[args[0]]
    spec = {flag: (kwargs.get("dest") or flag[2:].replace("-", "_"), kwargs) for flag, kwargs in options}
    given: dict[str, object] = {}
    i = 1
    while i < len(args):
        flag, eq, value = args[i].partition("=")
        if not flag.startswith("--"):
            return None
        if not eq:
            i += 1
            if i == len(args) or args[i].startswith("-"):
                return None
            value = args[i]
        i += 1
        if value == "--":  # argparse 3.10-3.12 read --flag=-- as an empty list
            return None
        if flag not in spec:
            found = [f for f in (*spec, "--help") if f.startswith(flag)]
            if len(found) != 1 or found[0] not in spec:
                return None
            flag = found[0]
        dest, kwargs = spec[flag]
        try:
            value = kwargs.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[dest] = value
    if any(kwargs.get("required") and dest not in given for dest, kwargs in spec.values()):
        return None
    values = {dest: given.get(dest, kwargs.get("default")) for dest, kwargs in spec.values()}
    return types.SimpleNamespace(command=args[0], **values, handler=handler)


def _parse(args: list[str]) -> types.SimpleNamespace:
    """The namespace of args, or SystemExit as argparse gives it.

    ``_read`` takes a well-formed command; only what it declines builds the
    full parser (and imports argparse), so help, usage and error text all
    come from one tree.
    """
    ns = _read(args)
    return ns if ns is not None else types.SimpleNamespace(**vars(build_parser().parse_args(args)))


def _is_literal(text: str) -> bool:
    try:
        return bool(parse_complex_list(text))
    except ConfigError:
        return False


def _attach_literals(argv: list[str]) -> list[str]:
    """Rewrite ``--roots -1;1`` as ``--roots=-1;1`` so argparse keeps the value.

    argparse takes a token that starts with "-" for an option unless it reads
    as a plain negative number, which "-1;1", "-2i" and "-1e-3" do not.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and arg.startswith("-") and _is_literal(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    args = _attach_literals(sys.argv[1:] if argv is None else argv)
    try:
        ns = _parse(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        report = ns.handler(ns, _checked(ns))
        if ns.out is not None:
            try:
                with open(ns.out, "w", encoding="utf-8") as fh:
                    fh.write(report)
            except OSError as e:
                raise IoFailure(f"cannot write report to {ns.out!r}: {e}", path=ns.out) from e
        else:
            sys.stdout.write(report)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MoutardError as e:
        sys.stderr.write(_emit_json({"error": e.record()}))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
