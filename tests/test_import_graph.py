"""What importing the package loads, checked in fresh interpreters.

``import weylsymbols`` leaves out ``engine``, ``oracle``, the command line
and the suites: the exported names of engine and oracle load their module
on first use.  ``import weylsymbols.cli`` leaves out the suites and the
oracle, which only ``lemmas`` and ``oracle-check`` run, and
``import weylsymbols.suites`` leaves out the oracle, which only
``oracle_suite`` calls.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import weylsymbols

SRC = str(Path(weylsymbols.__file__).resolve().parents[1])


def _run(code: str) -> str:
    """Standard output of the code run in a fresh interpreter that finds
    this checkout's package first; a failing run fails the test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded(statement: str) -> set[str]:
    out = _run(f"""
        import sys
        {statement}
        print("\\n".join(sorted(sys.modules)))
    """)
    return set(out.split())


def test_the_package_import_leaves_out_engine_cli_and_suites():
    loaded = _loaded("import weylsymbols")
    assert "weylsymbols.exceptional" in loaded
    assert not {"weylsymbols.engine", "weylsymbols.oracle", "weylsymbols.cli",
                "weylsymbols.suites"} & loaded


def test_the_cli_import_leaves_out_the_suites():
    loaded = _loaded("import weylsymbols.cli")
    assert "weylsymbols.engine" in loaded
    assert not {"weylsymbols.oracle", "weylsymbols.suites"} & loaded


def test_every_exported_name_resolves_and_engine_names_are_engines_own():
    out = _run("""
        import sys
        import weylsymbols as ws
        assert "weylsymbols.engine" not in sys.modules
        values = {name: getattr(ws, name) for name in ws.__all__}
        from weylsymbols import engine
        for name in ("RANK_FLOOR", "VerificationReport", "bar_S", "fa",
                     "fc", "verify"):
            assert values[name] is getattr(engine, name), name
            # bound on first use: later reads find it in the namespace
            assert vars(ws)[name] is values[name], name
        assert ws.engine is engine
        assert sorted(dir(ws)) == sorted(ws.__all__)
        print(len(values))
    """)
    assert int(out) == len(weylsymbols.__all__)


def test_the_oracle_names_are_oracles_own_and_stay_bound():
    out = _run("""
        import sys
        import weylsymbols as ws
        names = ("b_oracle", "character_table", "induction_multiplicity",
                 "j_oracle")
        values = {name: getattr(ws, name) for name in names}
        assert "weylsymbols.engine" not in sys.modules
        from weylsymbols import oracle
        for name in names:
            assert values[name] is getattr(oracle, name), name
            assert vars(ws)[name] is values[name], name
        assert ws.oracle is oracle is sys.modules["weylsymbols.oracle"]
        print(values["b_oracle"].__module__)
    """)
    assert out.strip() == "weylsymbols.oracle"


def test_star_import_binds_all_of_all():
    out = _run("""
        import weylsymbols
        namespace = {}
        exec("from weylsymbols import *", namespace)
        missing = set(weylsymbols.__all__) - set(namespace)
        assert not missing, missing
        print(namespace["verify"].__module__)
    """)
    assert out.strip() == "weylsymbols.engine"


def test_the_engine_submodule_works_after_a_bare_package_import():
    out = _run("""
        import weylsymbols
        report = weylsymbols.engine.verify("B", 3)
        print(report.ok(), len(report.rows))
    """)
    ok, rows = out.split()
    assert ok == "True" and int(rows) > 0


def test_the_oracle_submodule_works_after_a_bare_package_import():
    out = _run("""
        import weylsymbols
        print(len(weylsymbols.oracle.character_table("BC", 3).irreps))
        from weylsymbols import oracle
        print(oracle is weylsymbols.oracle)
    """)
    assert out.split() == ["10", "True"]


def test_oracle_check_loads_the_oracle_and_runs():
    out = _run("""
        import sys
        from weylsymbols import cli
        assert "weylsymbols.oracle" not in sys.modules
        code = cli.main(["oracle-check", "--max-rank", "2"])
        assert "weylsymbols.oracle" in sys.modules
        sys.exit(code)
    """)
    assert out.endswith("result: ok\n")


def test_the_suites_import_leaves_out_the_oracle():
    # only oracle_suite calls the oracle, so lemmas never compiles it
    loaded = _loaded("import weylsymbols.suites")
    assert "weylsymbols.oracle" not in loaded


def test_lemmas_runs_without_the_oracle():
    _run("""
        import sys
        from weylsymbols import cli
        code = cli.main(["lemmas", "--max-m", "4", "--max-weight", "4"])
        assert "weylsymbols.suites" in sys.modules
        assert "weylsymbols.oracle" not in sys.modules
        sys.exit(code)
    """)


def test_oracle_suite_runs_after_a_bare_suites_import():
    out = _run("""
        import sys
        import weylsymbols.suites as suites
        assert "weylsymbols.oracle" not in sys.modules
        report = suites.oracle_suite(max_rank=2)
        assert "weylsymbols.oracle" in sys.modules
        print(report.ok(), sum(block.cases for block in report.blocks))
    """)
    ok, cases = out.split()
    assert ok == "True" and int(cases) > 0


def test_an_unknown_attribute_raises_attribute_error_naming_it():
    out = _run("""
        import sys
        import weylsymbols
        try:
            weylsymbols.no_such_name
        except AttributeError as exc:
            print(exc)
        assert not {"weylsymbols.engine", "weylsymbols.oracle"} & set(sys.modules)
    """)
    assert "no_such_name" in out and "'weylsymbols'" in out
