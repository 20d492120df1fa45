"""The repository-specific AST lint (``tools/repro_lint.py``).

Unit coverage for each finding class plus the live gate: the checked
tree itself must be clean, so a regression that sneaks a raw pool or an
unjustified broad except into ``src/`` fails the suite, not just CI.
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(REPO_ROOT, "tools", "repro_lint.py")

sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
import repro_lint  # noqa: E402


def _codes(source, path="src/repro/example.py"):
    return [code for _, _, code, _ in repro_lint.check_source(path, source)]


def test_direct_pool_construction_flagged():
    source = (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "pool = ProcessPoolExecutor(4)\n"
    )
    assert _codes(source) == ["LNT001"]


def test_attribute_pool_construction_flagged():
    source = "import multiprocessing\np = multiprocessing.Pool(2)\n"
    assert _codes(source) == ["LNT001"]


def test_pool_allowed_inside_repro_parallel():
    source = "from concurrent.futures import ProcessPoolExecutor\n" \
             "pool = ProcessPoolExecutor(4)\n"
    assert _codes(source, path="src/repro/parallel.py") == []


def test_bare_except_flagged():
    source = "try:\n    pass\nexcept:\n    pass\n"
    assert _codes(source) == ["LNT002"]


def test_broad_except_without_pragma_flagged():
    source = "try:\n    pass\nexcept Exception:\n    pass\n"
    assert _codes(source) == ["LNT003"]


def test_broad_except_tuple_flagged():
    source = "try:\n    pass\nexcept (ValueError, BaseException):\n    pass\n"
    assert _codes(source) == ["LNT003"]


def test_pragma_on_handler_line_allows():
    source = (
        "try:\n    pass\n"
        "except Exception:  # lint: allow-broad-except\n    pass\n"
    )
    assert _codes(source) == []


def test_pragma_on_previous_line_allows():
    source = (
        "try:\n    pass\n"
        "# lint: allow-broad-except\n"
        "except Exception:\n    pass\n"
    )
    assert _codes(source) == []


def test_narrow_except_clean():
    source = "try:\n    pass\nexcept ValueError:\n    pass\n"
    assert _codes(source) == []


def test_time_sleep_flagged():
    source = "import time\ntime.sleep(0.5)\n"
    assert _codes(source) == ["LNT004"]


def test_imported_sleep_flagged():
    source = "from time import sleep\nsleep(0.5)\n"
    assert _codes(source) == ["LNT004"]


def test_bare_sleep_without_time_import_clean():
    source = "def sleep(s):\n    pass\nsleep(0.5)\n"
    assert _codes(source) == []


def test_asyncio_sleep_clean():
    source = (
        "import asyncio\n"
        "async def wait():\n    await asyncio.sleep(0.5)\n"
    )
    assert _codes(source) == []


def test_sleep_allowed_inside_faults_module():
    source = "import time\ntime.sleep(0.5)\n"
    assert _codes(source, path="src/repro/runtime/faults.py") == []


def test_environment_reads_flagged():
    assert _codes("import os\nflag = os.environ.get('X', '1')\n") == ["LNT005"]
    assert _codes("import os\nflag = os.getenv('X')\n") == ["LNT005"]
    assert _codes("from os import environ\nflag = environ['X']\n") == [
        "LNT005"
    ]
    assert _codes("import os\npath = os.path.join('a', 'b')\n") == []


def test_environment_reads_allowed_in_switch_owners():
    source = "import os\nflag = os.environ.get('REPRO_X', '1')\n"
    for owner in (
        "src/repro/runtime/faults.py",
        "src/repro/parallel.py",
        "src/repro/search/synthesizer.py",
    ):
        assert _codes(source, path=owner) == []
    for former_owner in (
        "src/repro/codegen/py_codegen.py",
        "src/repro/symbolic/compile.py",
    ):
        assert _codes(source, path=former_owner) == ["LNT005"]


def test_dataclass_fields_flagged_outside_ast_module():
    assert _codes("import dataclasses\nnames = dataclasses.fields(x)\n") == [
        "LNT006"
    ]
    assert _codes("from dataclasses import fields\nnames = fields(x)\n") == [
        "LNT006"
    ]
    # A local helper that happens to be called ``fields`` is not flagged.
    assert _codes("def fields(x):\n    pass\nfields(1)\n") == []


def test_dataclass_fields_allowed_in_ast_module_or_with_pragma():
    source = "import dataclasses\nnames = dataclasses.fields(x)\n"
    assert _codes(source, path="src/repro/ocal/ast.py") == []
    assert _codes(
        "import dataclasses\n"
        "names = dataclasses.fields(x)  # lint: allow-fields\n"
    ) == []
    assert _codes(
        "import dataclasses\n"
        "# lint: allow-fields\n"
        "names = dataclasses.fields(x)\n"
    ) == []


def test_unknown_path_exits_2(tmp_path):
    assert repro_lint.main([str(tmp_path / "missing")]) == 2


def test_findings_printed_with_location(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("try:\n    pass\nexcept:\n    pass\n")
    assert repro_lint.main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert f"{bad}:3: LNT002" in out


def test_src_tree_is_clean():
    result = subprocess.run(
        [sys.executable, TOOL, "src"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
