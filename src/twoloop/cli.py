"""Batch command-line interface.

Subcommands: expand (series dumps), sew (period-matrix expansion),
partition (genus-one/two partition functions), check (numeric modular
checks), lattice-info, and verify-all (the full acceptance suite).

All exact numbers are printed as rational strings; floats appear only in
check residuals.  Output is byte-stable across runs: terms are serialized
in canonical exponent order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import zip_longest

from . import acceptance
from .elliptic import (
    dedekind_eta,
    delta_cusp,
    eisenstein,
    eisenstein_hat,
    f12_elliptic,
    j_function,
    theta_jacobi,
)
from .errors import TwoLoopError
from .lattice import Lattice, builtin_lattice, shell_counts, theta_g2
from .partition import Ghost, g2_correction, parse_theory, t2_ratio, z1, z1_omega, z2
from .series import PrefSeries, fmt_rat, parse_rat, to_json_dict
from .sewing import fourier_params, period_matrix
from .siegel import (
    Characteristic,
    delta10,
    f12_siegel,
    psi4_theta_candidate,
    psi_reference,
    t2_selfdual,
    theta_char,
)
from .verify import (INVARIANCES, WEIGHT_TARGETS, EvalContext, check_ehat_anomaly,
                     check_period_s1, check_weight)

F = Fraction


def _series_payload(s, fmt: str):
    d = to_json_dict(s)
    if fmt == "json":
        return d
    if fmt == "csv":
        # absolute exponents: each term's body exponent plus the prefactor's
        pref = {n: parse_rat(e) for n, e in d["prefactor"].items()}
        names = [v["name"] for v in d["vars"]]
        names += [n for n in pref if n not in names]
        lines = [",".join(names + ["re", "im"])]
        for t in d["terms"]:
            exps = zip_longest(names, t["exp"], fillvalue="0")
            lines.append(",".join([fmt_rat(parse_rat(e) + pref.get(n, 0)) for n, e in exps]
                                  + [t["re"], t["im"]]))
        return "\n".join(lines)
    rows = []
    for t in d["terms"]:
        mono = "*".join(
            f"{v['name']}^{e}" for v, e in zip(d["vars"], t["exp"]) if e != "0"
        ) or "1"
        rows.append((mono, t["re"]))
    width = max((len(m) for m, _ in rows), default=1)
    header = ""
    if d["prefactor"]:
        pref = "*".join(f"{n}^{e}" for n, e in d["prefactor"].items())
        header = f"prefactor: {pref}\n"
    return header + "\n".join(f"{m:<{width}}  {v}" for m, v in rows)


def _emit(payload) -> None:
    if isinstance(payload, str):
        print(payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _parse_complex(text: str) -> complex:
    return complex(text.strip().replace("i", "j").replace(" ", ""))


def _order(text: str) -> int:
    """A truncation order flag: an integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"need an integer order of at least 1, got {text!r}")
    return n


def _parse_char(text: str) -> Characteristic:
    parts = [F(p) for p in text.split(",")]
    if len(parts) != 4:
        raise TwoLoopError("characteristic needs four entries a1,a2,b1,b2")
    return Characteristic((parts[0], parts[1]), (parts[2], parts[3]))


def _load_lattice(args) -> Lattice:
    if getattr(args, "gram", None):
        return Lattice.from_file(args.gram)
    return builtin_lattice(getattr(args, "lattice", None) or "E8")


def cmd_expand(args) -> int:
    qo, so = args.q_order, args.s_order
    target = args.target
    if target in ("delta10", "f12", "psi4-candidate"):
        form = {"delta10": delta10, "f12": f12_siegel,
                "psi4-candidate": psi4_theta_candidate}[target](qo, so)
        series = form.fourier if args.r_form else form.fourier_u
    elif target == "theta":
        if not args.char:
            raise TwoLoopError("theta needs --char a1,a2,b1,b2")
        series = theta_char(_parse_char(args.char), qo, so)
    elif target == "theta-g2":
        series = theta_g2(_load_lattice(args), qo, so)
    elif target in ("psi4", "psi6"):
        series = psi_reference(int(target[-1]))
    elif target == "t2":
        series = t2_selfdual(args.coxeter)
    elif target == "eta":
        series = dedekind_eta(qo)
    elif target == "delta":
        series = delta_cusp(qo)
    elif target == "j":
        series = j_function(qo)
    elif target == "f12-elliptic":
        series = f12_elliptic(qo)
    elif target == "theta-jacobi":
        char = [F(x) for x in (args.char or "0,0").split(",")]
        if len(char) != 2:
            raise TwoLoopError("theta-jacobi needs --char a,b")
        series = theta_jacobi(*char, qo)
    elif target.startswith("e") and target[1:].isdigit():
        series = eisenstein(int(target[1:]), qo)
    elif target.startswith("ehat") and target[4:].isdigit():
        series = eisenstein_hat(int(target[4:]), qo)
    else:
        raise TwoLoopError(f"unknown expand target {target!r}")
    _emit(_series_payload(series, args.format))
    return 0


def cmd_sew(args) -> int:
    sew = period_matrix(args.q_order, args.eps_order)
    params = fourier_params(sew)
    named = {"w11": sew.w11, "w12": sew.w12, "w22": sew.w22,
             "qhat": params.qhat, "shat": params.shat, "uhat": params.uhat}
    if args.format == "json":
        payload = {"q_order": args.q_order, "eps_order": args.eps_order}
        payload.update((name, to_json_dict(s)) for name, s in named.items())
        _emit(payload)
    else:
        for name, series in named.items():
            print(f"-- {name}")
            _emit(_series_payload(series, args.format))
    return 0


def cmd_partition(args) -> int:
    theory = parse_theory(args.theory)
    qo = args.q_order
    ztwo = z2(theory, qo)
    payload = {
        "theory": theory.label(),
        "central_charge": theory.central_charge,
        "conjectural": ztwo.conjectural,
        "z1": to_json_dict(z1(theory, qo)),
        # the ghost has no one-point data
        "z1_omega": None if isinstance(theory, Ghost) else to_json_dict(z1_omega(theory, qo)),
        "z2": to_json_dict(ztwo.pref),
    }
    if args.with_ratio:
        payload["t2_ratio"] = to_json_dict(t2_ratio(theory, qo))
    if args.with_g2:
        payload["g2_correction"] = to_json_dict(PrefSeries(g2_correction(qo)))
        payload["g2_conjectural"] = True
    _emit(payload)
    return 0


#: check kind -> what --point names, and the point used without it
_CHECK_POINTS = {
    "ehat-anomaly": ("tau", (0.2 + 1.1j,)),
    "period-s1": ("tau1,tau2,eps", (0.3 + 1.2j, 1.7j, 0.05)),
    "weight": ("tau1,tau2,eps", (0.3 + 1.2j, 1.7j, 0.03)),
}


def cmd_check(args) -> int:
    names, default = _CHECK_POINTS[args.kind]
    point = [_parse_complex(p) for p in args.point.split(",")] if args.point else default
    if len(point) != len(default):
        raise ValueError(f"--point needs {names}")
    if args.kind == "ehat-anomaly":
        res = check_ehat_anomaly(*point, args.q_order or 40)
    elif args.kind == "period-s1":
        res = check_period_s1(EvalContext(*point), args.q_order or 12, args.eps_order or 6)
    else:  # "weight": argparse refuses any other kind
        res = check_weight(args.target, args.gamma, EvalContext(*point),
                           args.q_order or 12, args.eps_order or 6)
    _emit(res.as_json_dict())
    return 0 if res.passed else 1


def cmd_lattice_info(args) -> int:
    lat = _load_lattice(args)
    payload = {
        "name": lat.name,
        "rank": lat.rank,
        "even": lat.is_even,
        "unimodular": lat.is_unimodular,
        "determinant": lat.determinant(),
        "shell_counts": {str(n): c for n, c in shell_counts(lat, args.max_norm).items()},
    }
    _emit(payload)
    return 0


def cmd_verify_all(args) -> int:
    results = acceptance.run_all()
    if args.format == "json":
        _emit({"results": [r.as_json_dict() for r in results],
               "passed": all(r.ok for r in results)})
    else:
        for r in results:
            print(r.line())
    failed = [r for r in results if not r.ok]
    if failed and args.format != "json":
        print(f"{len(failed)} criterion(s) failed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="twoloop",
        description="Exact genus-two modular form expansions, torus sewing, "
                    "and two-loop partition functions.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("expand", help="dump a series expansion")
    sp.add_argument("target", help="delta10|f12|theta|theta-g2|psi4-candidate|"
                                   "psi4|psi6|t2|eta|delta|j|f12-elliptic|"
                                   "theta-jacobi|e<2k>|ehat<2k>")
    sp.add_argument("--char", help="theta characteristic a1,a2,b1,b2 (a,b for theta-jacobi)")
    sp.add_argument("--coxeter", type=int, default=0, help="k for the t2 target")
    sp.add_argument("--r-form", action="store_true",
                    help="emit the r-form of delta10, f12 or psi4-candidate")
    sp.add_argument("--gram", help="lattice JSON file for theta-g2")
    sp.add_argument("--lattice", help="built-in lattice name for theta-g2")
    sp.add_argument("--q-order", type=_order, default=3)
    sp.add_argument("--s-order", type=_order, default=3)
    sp.add_argument("--format", choices=("json", "csv", "table"), default="json")
    sp.set_defaults(fn=cmd_expand)

    sp = sub.add_parser("sew", help="period matrix and Fourier parameters")
    sp.add_argument("--q-order", type=_order, default=3)
    sp.add_argument("--eps-order", type=_order, default=6)
    sp.add_argument("--format", choices=("json", "csv", "table"), default="json")
    sp.set_defaults(fn=cmd_sew)

    sp = sub.add_parser("partition", help="genus-one and genus-two partition functions")
    sp.add_argument("--theory", required=True,
                    help="boson:C | lattice:NAME_or_FILE | selfdual:N1 | ghost")
    sp.add_argument("--q-order", type=_order, default=3)
    sp.add_argument("--with-ratio", action="store_true",
                    help="include the ratio to the boson partition function")
    sp.add_argument("--with-g2", action="store_true",
                    help="include the (conjectural) holomorphic correction")
    sp.set_defaults(fn=cmd_partition)

    sp = sub.add_parser("check", help="numeric modular checks")
    sp.add_argument("kind", choices=tuple(_CHECK_POINTS))
    sp.add_argument("--point", help="tau1,tau2,eps (or tau for ehat-anomaly)")
    sp.add_argument("--q-order", type=_order)
    sp.add_argument("--eps-order", type=_order)
    sp.add_argument("--target", default="z24", choices=tuple(WEIGHT_TARGETS))
    sp.add_argument("--gamma", default="S1", choices=("S1", *INVARIANCES))
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("lattice-info", help="validate and describe a lattice")
    sp.add_argument("--gram", help="lattice JSON file")
    sp.add_argument("--lattice", help="built-in lattice name (E8, E8x3)")
    sp.add_argument("--max-norm", type=int, default=4)
    sp.set_defaults(fn=cmd_lattice_info)

    sp = sub.add_parser("verify-all", help="run the full acceptance suite")
    sp.add_argument("--format", choices=("json", "table"), default="table")
    sp.set_defaults(fn=cmd_verify_all)
    return p


def main(argv=None) -> int:
    """Runs one command.  A reader that closes stdout early (``| head``)
    ends it with exit 1 and nothing on stderr: stdout is pointed at devnull
    so that the interpreter's final flush cannot fail again."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except (TwoLoopError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
