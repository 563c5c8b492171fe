import hashlib
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import twoloop
from twoloop.cli import main
from twoloop.elliptic import eisenstein_hat, f12_elliptic
from twoloop.series import to_json_dict

from conftest import lattice_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_expand_delta10_qsu_coefficient(capsys):
    code, out = run(capsys, "expand", "delta10", "--q-order", "3", "--s-order", "3")
    assert code == 0
    d = json.loads(out)
    names = [v["name"] for v in d["vars"]]
    hit = [t for t in d["terms"] if t["exp"] == ["1", "1", "1"]]
    assert names == ["q", "s", "u"]
    assert len(hit) == 1 and hit[0]["re"] == "1" and hit[0]["im"] == "0"


def test_expand_is_byte_stable(capsys):
    code1, out1 = run(capsys, "expand", "f12", "--q-order", "2", "--s-order", "2")
    code2, out2 = run(capsys, "expand", "f12", "--q-order", "2", "--s-order", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_expand_theta_needs_char(capsys):
    code, _ = run(capsys, "expand", "theta")
    assert code == 2
    code, out = run(capsys, "expand", "theta", "--char", "0,0,0,0",
                    "--q-order", "2", "--s-order", "2")
    assert code == 0
    assert json.loads(out)["terms"]


def test_expand_theta_jacobi_needs_a_two_entry_char(capsys):
    for char in ("1/2", "0,0,0,0"):
        code = main(["expand", "theta-jacobi", "--char", char])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: theta-jacobi needs --char a,b\n"
    code, out = run(capsys, "expand", "theta-jacobi", "--char", "1/2,0", "--q-order", "3")
    assert code == 0 and json.loads(out)["terms"]


def test_expand_formats(capsys):
    code, out = run(capsys, "expand", "eta", "--q-order", "6", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "q,re,im"
    code, out = run(capsys, "expand", "delta", "--q-order", "4", "--format", "table")
    assert code == 0
    assert "prefactor: q^1" in out


def _csv_matches_json(text, d):
    """Each csv row is a JSON term: its exponents plus the prefactor, in
    the columns of the body's variables and then the prefactor's others."""
    header, *rows = text.splitlines()
    names = header.split(",")[:-2]
    body = [v["name"] for v in d["vars"]]
    assert names[:len(body)] == body and set(names) == set(body) | set(d["prefactor"])
    assert len(rows) == len(d["terms"])
    for row, term in zip(rows, d["terms"]):
        *exps, re, im = row.split(",")
        assert [re, im] == [term["re"], term["im"]]
        want = dict(zip(body, map(Fraction, term["exp"])))
        for name, e in zip(names, exps):
            assert Fraction(e) == want.get(name, 0) + Fraction(d["prefactor"].get(name, "0"))


def test_expand_csv_writes_absolute_exponents(capsys):
    # eta = q^(1/24) (1 - q - q^2 + ...)
    code, out = run(capsys, "expand", "eta", "--q-order", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["q,re,im", "1/24,1,0", "25/24,-1,0", "49/24,-1,0"]
    code, js = run(capsys, "expand", "eta", "--q-order", "3")
    _csv_matches_json(out, json.loads(js))


def test_sew_csv_writes_absolute_exponents(capsys):
    # qhat = q1 exp(w11) keeps q1 in its prefactor only, uhat eps^2
    code, out = run(capsys, "sew", "--q-order", "3", "--eps-order", "4", "--format", "csv")
    assert code == 0
    code, js = run(capsys, "sew", "--q-order", "3", "--eps-order", "4")
    d = json.loads(js)
    sections = out.split("-- ")[1:]
    assert [s.split("\n", 1)[0] for s in sections] == ["w11", "w12", "w22", "qhat", "shat", "uhat"]
    for section in sections:
        name, text = section.rstrip("\n").split("\n", 1)
        _csv_matches_json(text, d[name])


def test_expand_theta_needs_a_four_entry_char(capsys):
    code = main(["expand", "theta", "--char", "0,0,1/2"])
    assert code == 2
    assert capsys.readouterr().err == "error: characteristic needs four entries a1,a2,b1,b2\n"


@pytest.mark.parametrize("target, build", [
    ("f12-elliptic", f12_elliptic),
    ("ehat4", lambda q: eisenstein_hat(4, q)),
])
def test_expand_genus_one_targets(capsys, target, build):
    code, out = run(capsys, "expand", target, "--q-order", "4")
    assert code == 0
    assert json.loads(out) == to_json_dict(build(4))


def test_expand_elliptic_targets(capsys):
    code, out = run(capsys, "expand", "e4", "--q-order", "3")
    assert code == 0
    d = json.loads(out)
    assert d["terms"][0]["re"] == "1"
    code, out = run(capsys, "expand", "j", "--q-order", "3")
    assert code == 0
    assert json.loads(out)["prefactor"] == {"q": "-1"}


def test_expand_t2(capsys):
    code, out = run(capsys, "expand", "t2", "--coxeter", "0")
    assert code == 0
    d = json.loads(out)
    hit = [t for t in d["terms"] if t["exp"] == ["1", "1", "1"]]
    assert hit[0]["re"] == "48"


def test_sew_dump(capsys):
    code, out = run(capsys, "sew", "--q-order", "2", "--eps-order", "4")
    assert code == 0
    d = json.loads(out)
    assert set(d) >= {"w11", "w12", "w22", "qhat", "shat", "uhat"}
    assert d["uhat"]["prefactor"] == {"eps": "2"}


def test_sew_output_is_pinned(capsys):
    # the exact bytes of a mid-size sewing dump: any change to a coefficient
    # or validity bound of period_matrix or fourier_params, or to the JSON
    # writer, shows here
    code, out = run(capsys, "sew", "--q-order", "8", "--eps-order", "6", "--format", "json")
    assert code == 0
    data = out.encode()
    assert len(data) == 107_615
    assert hashlib.sha256(data).hexdigest() == (
        "28708a4936ec0bbf08d1c98f497c276469ffd1ebda3747b02d51f01cafbb8468")


@pytest.mark.parametrize("fmt, size, digest", [
    pytest.param("csv", 11_760,
                 "7610a9fda3e709a72a76ef3fc6186b7fbda5b0224037c1d4097a281765d44b36", id="csv"),
    pytest.param("table", 18_949,
                 "c9b0333c0c715a0e5284719c00cbbb374faf76d54986c66e79e6849e2b5ece42", id="table"),
])
def test_sew_text_output_is_pinned(capsys, fmt, size, digest):
    # the same sewing dump through the csv and table writers; 339 of the 472
    # products period_matrix forms here land beyond eps^6 and end early
    code, out = run(capsys, "sew", "--q-order", "8", "--eps-order", "6", "--format", fmt)
    assert code == 0
    data = out.encode()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("argv, size, digest", [
    pytest.param("expand theta --char 0,0,1/2,0", 1822,
                 "d6d3dd8dd299b046af3a337baaba09d980998daf1d1352b3e19a5565be6288e6",
                 id="theta"),
    pytest.param("expand psi4", 1050,
                 "d17a6372b9463a4389866dfa9ea6babec774463dfebcc05e8010646f95fa7689",
                 id="psi4"),
    pytest.param("expand psi6", 1054,
                 "c505da8327c5ab4e36d3a18babf297f426c2d87d4fcf955fe85df6446c0c9372",
                 id="psi6"),
    pytest.param("expand t2 --coxeter 0", 1045,
                 "367caa3d4d6bb527723d6065fd021592b089abdc72484764651a56ec4847d1a9",
                 id="t2-0"),
    pytest.param("expand t2 --coxeter 47", 1056,
                 "1f554d9886eeb9fe285feaa29639ab0f5013efe2a76e62c4d498da48b6273585",
                 id="t2-47"),
    pytest.param("expand delta10 --r-form --q-order 4 --s-order 4", 7357,
                 "5e8624fcdc9c420834296810df6d47cbe8df3aaf38f5a00b0127deeb614882d1",
                 id="delta10-r-form"),
])
def test_siegel_expand_output_is_pinned(capsys, argv, size, digest):
    # the exact bytes of the Siegel builders' CLI dumps: a change to what a
    # builder returns, or to the form the CLI prints from it, shows here
    code, out = run(capsys, *argv.split())
    assert code == 0
    data = out.encode()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


#: The dump of an odd characteristic: the zero series, on the variables of an
#: even one with r floor 0, so all six odd ones print the same bytes.
_ODD_THETA = (386, "5cd119d9198e1f2ce97644bb621b29e720f0d51fec8966178062a4c073767b20")


@pytest.mark.parametrize("argv, size, digest", [
    pytest.param(f"expand theta --char {char} --q-order 4 --s-order 4", *pin, id=f"theta-{char}")
    for char, pin in {
        "0,0,0,0": (1817, "b1e3733f5c865d39692079f305b348c96d573ef2df5fdd81b97561a52c5183e6"),
        "0,0,0,1/2": (1822, "28cb50fb4a1e31532631855413fd325d8d0c63eb9cac36bb385cf0dcce1c6130"),
        "0,0,1/2,0": (1822, "420d90ec4ddf4e13a5bdb329c9967f577bfc412bb13c04ad7d54bad1fc521c9f"),
        "0,0,1/2,1/2": (1823, "8148c64c866861f809f4d536cb6eabf59c70089839c6ed4f97bae2c44c713558"),
        "0,1/2,0,0": (2074, "576eceaaf055c965713af5ee216aee7eac3d850c3ab6c32d38b7ad2c3dd1abcd"),
        "0,1/2,0,1/2": _ODD_THETA,
        "0,1/2,1/2,0": (2080, "32c556fd254e3f288c2b70a54713918bdf448c3f5a3900120444bba30f8aebca"),
        "0,1/2,1/2,1/2": _ODD_THETA,
        "1/2,0,0,0": (2074, "4cbe2a44d801b4ee66c22c2defdce6c131de280980b7a780c7fc394d05a81c6c"),
        "1/2,0,0,1/2": (2080, "d1b45f536ab3547da551f2e822b967a04a12ad508d16ae03c1f504eb8e53c97b"),
        "1/2,0,1/2,0": _ODD_THETA,
        "1/2,0,1/2,1/2": _ODD_THETA,
        "1/2,1/2,0,0": (2471, "28d73d9f840c3b5fb09640f4eeee60b24005437bc443aee6da7687b2f91a4f85"),
        "1/2,1/2,0,1/2": _ODD_THETA,
        "1/2,1/2,1/2,0": _ODD_THETA,
        "1/2,1/2,1/2,1/2": (2480, "d7fb7462c636ceb502e95dc3d82e94a63b2a3772e570450e5a271fc38744b256"),
    }.items()
] + [
    pytest.param(f"expand theta-jacobi --char {char} --q-order 6", *pin, id=f"theta-jacobi-{char}")
    for char, pin in {
        "0,0": (492, "721f15ae70e0a7343ea06256e4704e7fbd8b9aa00908d106cd4a7a281f6566cc"),
        "0,1/2": (494, "0822bc8de2e7038d765b4e57cec72ecc4b84e82660befdb7a3f506f0a3265b6b"),
        "1/2,0": (413, "6dfd9295ffe6a83ddc18d90513c086da19973f168bacf4168a3468ee8ad2103f"),
        "1/2,1/2": (158, "bf2696ed79a8600da541a7fd62e15d76eca472357dfffde01167feee591305b6"),
    }.items()
])
def test_theta_expand_output_is_pinned(capsys, argv, size, digest):
    # every characteristic of both theta builders: the signs of the even
    # ones, and the variables of the odd ones, which are returned as the
    # zero series before any phase is summed
    code, out = run(capsys, *argv.split())
    assert code == 0
    data = out.encode()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


def test_expand_psi4_candidate_r_form(capsys):
    from twoloop.series import to_json_dict
    from twoloop.siegel import psi4_theta_candidate

    code, out = run(capsys, "expand", "psi4-candidate", "--r-form",
                    "--q-order", "3", "--s-order", "3")
    assert code == 0
    assert json.loads(out) == to_json_dict(psi4_theta_candidate(3, 3).fourier)


def test_partition_lattice_from_gram_file(tmp_path, capsys):
    from twoloop.lattice import builtin_lattice

    p = tmp_path / "e8.json"
    p.write_text(json.dumps(lattice_json(builtin_lattice("E8"))))
    code, out = run(capsys, "partition", "--theory", f"lattice:{p}", "--q-order", "3")
    assert code == 0
    code, want = run(capsys, "partition", "--theory", "lattice:E8", "--q-order", "3")
    assert code == 0
    got, want = json.loads(out), json.loads(want)
    for key in ("z1", "z1_omega", "z2"):
        assert got[key] == want[key], key
    code = main(["partition", "--theory", f"lattice:{tmp_path / 'missing.json'}"])
    assert code == 2
    assert "missing.json" in capsys.readouterr().err


def test_partition_selfdual(capsys):
    code, out = run(capsys, "partition", "--theory", "selfdual:0", "--q-order", "2")
    assert code == 0
    d = json.loads(out)
    assert d["conjectural"] is False
    assert d["central_charge"] == 24
    assert d["z2"]["prefactor"]["eps"] == "-2"
    # leading eps^2 bracket term: (1/12)(DT/Delta)(q1)(DT/Delta)(q2) with
    # DT constant -1, so the body coefficient at q1^0 q2^0 eps^2 is 1/12
    hit = [t for t in d["z2"]["terms"] if t["exp"] == ["0", "0", "2"]]
    assert len(hit) == 1 and hit[0]["re"] == "1/12"


def test_partition_ghost_flagged(capsys):
    code, out = run(capsys, "partition", "--theory", "ghost", "--q-order", "2")
    assert code == 0
    d = json.loads(out)
    assert d["conjectural"] is True
    assert d["z1_omega"] is None
    assert d["z2"]["prefactor"]["eps"] == "1/6"


def test_partition_with_extras(capsys):
    code, out = run(capsys, "partition", "--theory", "selfdual:24",
                    "--q-order", "2", "--with-ratio", "--with-g2")
    assert code == 0
    d = json.loads(out)
    assert d["g2_conjectural"] is True
    assert "t2_ratio" in d


def test_check_ehat(capsys):
    code, out = run(capsys, "check", "ehat-anomaly", "--point", "0.2+1.1i",
                    "--q-order", "40")
    assert code == 0
    d = json.loads(out)
    assert d["passed"] is True
    assert d["residual"] < 1e-9


def test_check_period(capsys):
    code, out = run(capsys, "check", "period-s1", "--point", "0.3+1.2i,1.7i,0.05")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_check_weight(capsys):
    code, out = run(capsys, "check", "weight", "--target", "z24", "--gamma", "T1",
                    "--point", "0.3+1.2i,1.7i,0.03")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_lattice_info_builtin(capsys):
    code, out = run(capsys, "lattice-info", "--lattice", "E8", "--max-norm", "4")
    assert code == 0
    d = json.loads(out)
    assert d["rank"] == 8 and d["even"] and d["unimodular"]
    assert d["shell_counts"]["2"] == 240


def test_expand_theta_g2_from_gram_file(tmp_path, capsys):
    from twoloop.lattice import builtin_lattice

    p = tmp_path / "e8.json"
    p.write_text(json.dumps(lattice_json(builtin_lattice("E8"))))
    code, out = run(capsys, "expand", "theta-g2", "--gram", str(p),
                    "--q-order", "2", "--s-order", "2")
    assert code == 0
    d = json.loads(out)
    hit = [t for t in d["terms"] if t["exp"] == ["1", "2", "1"]]
    assert hit[0]["re"] == "240"  # alpha = beta over the roots


def test_lattice_info_from_file(tmp_path, capsys):
    from twoloop.lattice import builtin_lattice

    p = tmp_path / "lat.json"
    p.write_text(json.dumps(lattice_json(builtin_lattice("E8"))))
    code, out = run(capsys, "lattice-info", "--gram", str(p), "--max-norm", "2")
    assert code == 0
    assert json.loads(out)["shell_counts"]["2"] == 240


_NON_INTEGER_LATTICES = {
    # each once passed through int() (2.5 -> 2, "2" -> 2, true -> 1), and
    # lattice-info described the truncated lattice and exited 0
    "gram-float": ({"rank": 2, "gram": [[2.5, -1], [-1, 2]]}, "must be integers"),
    "gram-string": ({"rank": 2, "gram": [["2", -1], [-1, 2]]}, "must be integers"),
    "gram-bool": ({"rank": 2, "gram": [[2, True], [True, 2]]}, "must be integers"),
    "rank-float": ({"rank": 2.5, "gram": [[2, -1], [-1, 2]]}, "must be integers"),
    "rank-string": ({"rank": "2", "gram": [[2, -1], [-1, 2]]}, "must be integers"),
    "rank-bool": ({"rank": True, "gram": [[2]]}, "must be integers"),
    # once a KeyError traceback
    "gram-missing": ({"rank": 2}, "list of rows"),
    "not-an-object": ([[2, -1], [-1, 2]], "must be an object"),
}


def _lattice_info_error(tmp_path, capsys, lattice) -> str:
    p = tmp_path / "lat.json"
    p.write_text(json.dumps(lattice))
    code = main(["lattice-info", "--gram", str(p), "--max-norm", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")
    return captured.err


@pytest.mark.parametrize("case", sorted(_NON_INTEGER_LATTICES))
def test_lattice_info_refuses_non_integer_json(tmp_path, capsys, case):
    lattice, message = _NON_INTEGER_LATTICES[case]
    assert message in _lattice_info_error(tmp_path, capsys, lattice)


def test_lattice_info_refuses_indefinite_gram(tmp_path, capsys):
    lattice = {"rank": 2, "gram": [[2, 3], [3, 2]]}
    assert "not positive definite" in _lattice_info_error(tmp_path, capsys, lattice)


def test_unknown_target_exits_2(capsys):
    code, _ = run(capsys, "expand", "nonsense")
    assert code == 2


def test_malformed_point_exits_2(capsys):
    code, _ = run(capsys, "check", "period-s1", "--point", "1i")
    assert code == 2
    code, _ = run(capsys, "check", "period-s1", "--point", "what,is,this")
    assert code == 2
    code, _ = run(capsys, "check", "ehat-anomaly", "--point=0.2+1.1i,7i,0.5")
    assert code == 2


@pytest.mark.parametrize("gamma", ["S1"])
def test_weight_where_the_target_vanishes_exits_2(capsys, gamma):
    code = main(["check", "weight", "--target", "delta10-sewing", "--gamma", gamma,
                 "--q-order", "6", "--eps-order", "4", "--point=0.3+1.2i,1.7i,0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: target vanishes") and "Traceback" not in err


def test_weight_check_that_cannot_fail_exits_2(capsys):
    code = main(["check", "weight", "--target", "delta10-sewing",
                 "--q-order", "2", "--eps-order", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "cannot fail" in captured.err and "Traceback" not in captured.err


def test_period_s1_check_that_cannot_fail_exits_2(capsys):
    code = main(["check", "period-s1", "--point=0.3+1.2j,1.7j,0.5",
                 "--q-order", "2", "--eps-order", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "cannot fail" in captured.err and "Traceback" not in captured.err


def test_ehat_anomaly_check_that_cannot_fail_exits_2(capsys):
    code = main(["check", "ehat-anomaly", "--q-order", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "cannot fail" in captured.err and "Traceback" not in captured.err


def test_closed_stdout_exits_quietly():
    # the reader takes 1 byte of about 107 KB and closes the pipe
    env = dict(os.environ, PYTHONPATH=str(Path(twoloop.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "twoloop.cli", "sew", "--q-order", "8",
                             "--eps-order", "6"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert err == b""


def test_expand_j_honours_its_q_order(capsys):
    # J is validated through its q coefficient, so q-order 1 is refused
    # rather than printed to q^2
    code = main(["expand", "j", "--q-order", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: J needs q_order >= 2 for its validation\n"


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["expand"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["sew", "--q-order", "-1"],
    ["sew", "--q-order", "0"],
    ["sew", "--eps-order", "0"],
    ["partition", "--theory", "boson:24", "--q-order", "0"],
    ["expand", "f12", "--s-order", "0"],
    ["check", "weight", "--q-order", "0"],
    ["sew", "--q-order", "two"],
])
def test_order_below_one_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "need an integer order of at least 1" in capsys.readouterr().err


def test_verify_all_table(capsys):
    code, out = run(capsys, "verify-all")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert len(lines) == 16
    assert sum("NOT CHECKED" in ln for ln in lines) == 3
    assert all(("PASS" in ln) or ("NOT CHECKED" in ln) for ln in lines)


def test_verify_all_json(capsys):
    code, out = run(capsys, "verify-all", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["passed"] is True
    assert len(d["results"]) == 16


def test_caches_are_empty_after_import_and_parser_build():
    # a cold benchmark pass imports the CLI, builds its parser and then
    # requires every lru_cache of the library, the series plans included,
    # to be empty; run in a fresh interpreter, as the benchmark does
    probe = textwrap.dedent("""
        import json, sys
        from twoloop import cli
        cli.build_parser()
        sizes = {}
        for name, mod in list(sys.modules.items()):
            if name == "twoloop" or name.startswith("twoloop."):
                for obj in vars(mod).values():
                    if callable(getattr(obj, "cache_info", None)):
                        sizes[f"{obj.__module__}.{obj.__qualname__}"] = obj.cache_info().currsize
        print(json.dumps(sizes))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(twoloop.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    sizes = json.loads(proc.stdout)
    assert {"twoloop.series._merge_vars_mul", "twoloop.series._merge_vars_add",
            "twoloop.sewing.period_matrix"} <= set(sizes)
    assert not any(sizes.values()), sizes


NUMPY_FREE_COMMANDS = [
    ["sew", "--q-order", "4", "--eps-order", "4"],
    ["check", "period-s1"],
    ["check", "weight"],
    ["partition", "--theory", "lattice:E8", "--q-order", "3"],
    ["lattice-info", "--max-norm", "4"],
    ["expand", "delta10"],
    ["expand", "theta-g2", "--lattice", "E8", "--q-order", "4", "--s-order", "4"],
    # the table format: the JSON of verify-all carries timings
    ["verify-all"],
]


def test_commands_without_lattice_histograms_need_no_numpy(capsys):
    # the library uses only the standard library: importing the CLI must not
    # load numpy, and with every import of it refused these commands must run
    # and print what they print with numpy present
    probe = textwrap.dedent("""
        import contextlib, io, json, sys
        from twoloop import cli
        cli.build_parser()
        loaded = "numpy" in sys.modules
        sys.modules["numpy"] = None  # every later `import numpy` raises ImportError
        runs = []
        for argv in json.loads(sys.argv[1]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            runs.append([code, out.getvalue()])
        print(json.dumps({"numpy_loaded": loaded, "runs": runs}))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(twoloop.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(NUMPY_FREE_COMMANDS)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    got = json.loads(proc.stdout)
    assert got["numpy_loaded"] is False
    for argv, (code, out) in zip(NUMPY_FREE_COMMANDS, got["runs"], strict=True):
        assert code == 0, argv
        assert (code, out) == run(capsys, *argv), argv
