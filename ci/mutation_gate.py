"""Mutation gate: every mutant below must fail the tests named for it.

    python ci/mutation_gate.py

Each entry names a library file under ``src/twoloop/``, an exact text in
it, the text that replaces it and the pytest node ids that must catch the
change.  The old text must occur exactly once.  For each entry the script
copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, applies the mutant there and runs pytest on the named tests:
every one of them must fail.  The named tests must first pass on the
unmutated copy.  The exit status is the number of entries that do not hold
(0 when every mutant is caught).

A change that rewrites guarded code updates an entry's text; it does not
delete the entry.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    what: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("the Weyl group of D_n has order 2^(n-2) n!", "lattice.py",
           "2 ** (n - 1) * math.factorial(n)", "2 ** (n - 2) * math.factorial(n)",
           ("tests/test_lattice.py::test_weyl_orbits_match_reflection_closure",)),
    Mutant("the shell counts keep only even norms, as if every lattice were even",
           "lattice.py",
           "counts = {n: 2 * c if n else c for n, c in rows.items()}",
           "counts = {n: 2 * c if n else c for n, c in rows.items() if n % 2 == 0}",
           ("tests/test_lattice.py::test_enumerate_shells_matches_box_search",
            "tests/test_lattice.py::test_shell_counts_of_an_orthogonal_sum_match_box_search")),
    Mutant("a vector orthogonal to every simple root loses its negation", "lattice.py",
           "                if sign <= 0:\n", "                if sign < 0:\n",
           ("tests/test_lattice.py::test_weyl_orbits_match_reflection_closure",
            "tests/test_lattice.py::test_theta_g2_unequal_orders")),
    Mutant("the product of blocks keeps the summed r floor", "lattice.py",
           'return ordered.with_min_floor("r", min((k[1] for k in keys), default=0))',
           "return ordered",
           ("tests/test_lattice.py::test_theta_g2_is_pinned",)),
    Mutant("product grids step by the larger gap, not the gcd", "series.py",
           "steps = tuple(gcd(ga, gb) or 1", "steps = tuple(max(ga, gb) or 1",
           ("tests/test_series.py::test_mul_on_exponent_grids_matches_naive_in_ascending_order",)),
    Mutant("invert stops after three squarings", "series.py",
           "        result = add(MultiSeries.constant(1, x.vars), x)\n        while True:\n",
           "        result = add(MultiSeries.constant(1, x.vars), x)\n        for _ in range(3):\n",
           ("tests/test_series.py::test_invert_matches_the_geometric_series",
            "tests/test_series.py::test_invert_squares_instead_of_summing_powers")),
    Mutant("a rung read hands out one cached series, which products fill with kernel views",
           "siegel.py",
           "\ndef _rung(", "\n@lru_cache(maxsize=None)\ndef _rung(",
           ("tests/test_siegel.py::test_psi4_after_f12_reads_the_ladder",
            "tests/test_siegel.py::test_the_theta_route_of_delta10_leaves_the_rungs_bare")),
    Mutant("Delta10's theta route squares rung 0 instead of reading rung 1", "siegel.py",
           "rungs = [_rung(a, i, q, s) for i in range(3) if n >> i & 1]",
           "rungs = [pow_int(_rung(a, 0, q, s), 2 ** i) for i in range(3) if n >> i & 1]",
           ("tests/test_siegel.py::test_the_theta_route_of_delta10_leaves_the_rungs_bare",)),
    Mutant("F12 and psi4 raise rung 0 instead of reading rung 3", "siegel.py",
           "pow_int(_rung(a, 3, q, s), n // 8)",
           "pow_int(_rung(a, 0, q, s), n - n % 8)",
           ("tests/test_siegel.py::test_psi4_after_f12_reads_the_ladder",)),
    Mutant("the csv writer ignores the prefactor", "cli.py",
           "fmt_rat(parse_rat(e) + pref.get(n, 0))", "fmt_rat(parse_rat(e))",
           ("tests/test_cli.py::test_expand_csv_writes_absolute_exponents",
            "tests/test_cli.py::test_sew_csv_writes_absolute_exponents")),
    Mutant("the Gram symmetry check is removed", "lattice.py",
           "if any(g[i][j] != g[j][i] for i in range(self.rank) for j in range(i)):",
           "if False:",
           ("tests/test_lattice.py::"
            "test_lattice_construction_refuses_a_gram_that_is_not_symmetric",)),
    Mutant("the mirror guard is removed", "siegel.py",
           'check(char, "mirror", source, _mirror(theta_char(source, s_order, q_order)))',
           "pass",
           ("tests/test_siegel.py::test_mirror_guard_refuses_a_changed_theta",)),
    Mutant("a check whose bound equals the scale is not refused", "verify.py",
           "if bound >= scale:", "if bound > scale:",
           ("tests/test_verify.py::test_a_bound_that_reaches_the_scale_is_refused",)),
    Mutant("a missing variable's zeroth power vanishes", "verify.py",
           "    if power <= 0:\n", "    if power < 0:\n",
           ("tests/test_verify.py::test_a_tail_from_the_zeroth_power_is_not_zero_at_zero",)),
    Mutant("a residual equal to the bound passes", "verify.py",
           "return self.residual < self.bound", "return self.residual <= self.bound",
           ("tests/test_verify.py::test_a_bound_that_reaches_the_scale_is_refused",)),
    Mutant("the dense grid reads back over reversed ranges", "series.py",
           "cells = zip(product(*ranges), acc)",
           "cells = zip(product(*(r[::-1] for r in ranges)), acc)",
           ("tests/test_series.py::test_mul_on_exponent_grids_matches_naive_in_ascending_order",)),
    Mutant("the mirror keeps the reversed keys unsorted", "siegel.py",
           "dict(sorted((k[::-1], c) for k, c in ms.terms.items()))",
           "{k[::-1]: c for k, c in ms.terms.items()}",
           ("tests/test_siegel.py::test_even_theta_powers_match_pow_int",)),
    Mutant("the eps scale exponent is off by one", "sewing.py",
           "F(c) ** e.numerator", "F(c) ** (e.numerator + 1)",
           ("tests/test_sewing.py::test_scale_eps_commutes_with_mul_and_add",
            "tests/test_sewing.py::test_period_matrix_printed_orders")),
    Mutant("fourier_to_sewing's unscale ignores the eps prefactor", "sewing.py",
           "return _scale_eps(out, F(1, c))",
           "return PrefSeries(_scale_eps(out.body, F(1, c)), out.prefactor)",
           ("tests/test_sewing.py::test_fourier_to_sewing_matches_uncapped_chain",)),
    Mutant("the eps bound of the look-ahead leaves out the least u-power", "sewing.py",
           "v = max(top[EPSVAR]) + lead * max(min(powers) - 1, 0)", "v = max(top[EPSVAR])",
           ("tests/test_sewing.py::"
            "test_fourier_to_sewing_matches_uncapped_chain[qsu2-qsu6-at-3-4]",
            "tests/test_sewing.py::"
            "test_fourier_to_sewing_matches_uncapped_chain_on_random_forms")),
    Mutant("a group whose terms are all dead is left out, though it holds a least power",
           "series.py",
           "_realign(dead, align).items() if later",
           "_realign(dead if live else {}, align).items() if later",
           ("tests/test_sewing.py::"
            "test_fourier_to_sewing_matches_uncapped_chain[qu7-q2s2-at-3-4]",
            "tests/test_sewing.py::"
            "test_fourier_to_sewing_matches_uncapped_chain_on_random_forms")),
    Mutant("the look-ahead ignores the hats' q1 and q2 bounds", "sewing.py",
           "ahead = {x: leads[x] for x, _ in steps[n + 1:]}, box",
           "ahead = {x: leads[x] for x, _ in steps[n + 1:]}, {EPSVAR: box.get(EPSVAR, UNBOUNDED)}",
           ("tests/test_sewing.py::test_fourier_to_sewing_forms_no_term_past_its_eps_budget",)),
    Mutant("each term is raised one step too far", "series.py",
           "max(floor(sum(map(times, lift, powers), base)), 0)",
           "max(floor(sum(map(times, lift, powers), base)) + 1, 0)",
           ("tests/test_sewing.py::test_fourier_to_sewing_matches_uncapped_chain",
            "tests/test_golden.py::test_golden_digest")),
    Mutant("the last step told what follows keeps what lands past the bounds", "series.py",
           "        result = result.cap_absolute_valid(y, bounds[y])\n",
           "        pass\n",
           ("tests/test_validity.py::"
            "test_substitute_told_what_follows_claims_no_more_than_the_plain_chain",)),
    Mutant("the raise ignores what the later steps add", "series.py",
           "[num(w.get(y, _ZERO) * den / d) for _, d, w in later]", "[0 for _ in later]",
           ("tests/test_sewing.py::test_fourier_to_sewing_forms_no_term_past_its_eps_budget",)),
    Mutant("dead terms keep no carrier", "series.py",
           "                body[key] = x * c0\n", "                pass\n",
           ("tests/test_sewing.py::"
            "test_fourier_to_sewing_matches_uncapped_chain[q2u7-q2s2-at-3-4]",
            "tests/test_sewing.py::"
            "test_fourier_to_sewing_matches_uncapped_chain[qu7-q2s2-at-3-4]")),
    Mutant("the product's keys are lowered one step short", "series.py",
           "key[j] -= r * m", "key[j] -= max(r - 1, 0) * m",
           ("tests/test_sewing.py::test_fourier_to_sewing_matches_uncapped_chain",
            "tests/test_golden.py::test_golden_digest")),
    Mutant("the eps bound of the look-ahead skips the reach guard", "sewing.py",
           "< min(top[y], default=UNBOUNDED)", "< UNBOUNDED",
           ("tests/test_sewing.py::"
            "test_fourier_to_sewing_matches_uncapped_chain[vanishing-q9u-at-3-4]",)),
    Mutant("substituted_validity claims one lead more", "series.py",
           "    return valid * lead + min(_ZERO, floor)",
           "    return (valid + 1) * lead + min(_ZERO, floor)",
           ("tests/test_validity.py::test_substitute_claims_nothing_its_tails_decide",
            "tests/test_validity.py::"
            "test_fourier_to_sewing_claims_nothing_the_form_tail_decides")),
    Mutant("V's period is 1, so an odd power of eps passes", "verify.py",
           '"V": ("eps", 2)', '"V": ("eps", 1)',
           ("tests/test_verify.py::"
            "test_an_invariance_fails_when_the_prefactor_moves_an_exponent",)),
    Mutant("the closed-form S1 flips the sign of Omega12^2/Omega11", "verify.py",
           "o22 - o12 * o12 / o11", "o22 + o12 * o12 / o11",
           ("tests/test_verify.py::test_act_matches_numpy_reference",)),
    Mutant("substitute takes a negative power of the variable", "series.py",
           "        if k[i] < 0:\n", "        if False:\n",
           ("tests/test_series.py::"
            "test_substitute_refuses_what_the_body_cannot_carry[negative-power]",)),
    Mutant("fourier_to_sewing leaves an r-form in r", "sewing.py",
           "        f = r_to_u(f)\n", "        pass\n",
           ("tests/test_sewing.py::test_r_form_and_u_form_substitution_agree",)),
)


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.pyc", "*.egg-info")
    shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(where: Path, tests) -> tuple[int, set[str]]:
    """pytest's exit code on ``tests`` in the copy at ``where``, and the
    node ids it reports as failed."""
    env = {**os.environ, "PYTHONPATH": str(where / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    origin = subprocess.run([sys.executable, "-c", "import twoloop; print(twoloop.__file__)"],
                            cwd=where, env=env, capture_output=True, text=True, check=True)
    if not Path(origin.stdout.strip()).resolve().is_relative_to(where.resolve()):
        raise SystemExit(f"twoloop imports from {origin.stdout.strip()}, not the copy")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                          *tests], cwd=where, env=env, capture_output=True, text=True)
    failed = {line.split()[1] for line in run.stdout.splitlines() if line.startswith("FAILED ")}
    return run.returncode, failed


def _caught(test: str, failed: set[str]) -> bool:
    return any(f == test or f.startswith(test + "[") for f in failed)


def main() -> int:
    bad = 0
    named = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        code, failed = _pytest(base, named)
        if code:
            print(f"unmutated copy: pytest exit {code}, failed {sorted(failed)}")
            return len(MUTANTS)
        for i, m in enumerate(MUTANTS):
            where = Path(tmp) / f"mutant{i}"
            _copy(where)
            path = where / "src" / "twoloop" / m.file
            text = path.read_text()
            count = text.count(m.old)
            if count != 1:
                print(f"FAIL {m.what}: the old text occurs {count} times in {m.file}")
                bad += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            code, failed = _pytest(where, m.tests)
            missed = [t for t in m.tests if not _caught(t, failed)]
            if code != 1 or missed:
                print(f"FAIL {m.what}: pytest exit {code}, not caught by {missed}")
                bad += 1
            else:
                print(f"ok   {m.what}: caught by {len(m.tests)} test(s)")
            shutil.rmtree(where)
    return bad


if __name__ == "__main__":
    sys.exit(main())
