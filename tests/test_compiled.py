"""Building and loading the compiled midpoint kernels, and falling back to
the Python kernels when that fails: the output stays the same, the exit code
stays 0 and nothing is printed to stderr."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from roundtrap import _compiled, schemes
from roundtrap.cli import main
from roundtrap.schemes import Scheme, compiled_kernels
from test_native import _data_columns

SRC = Path(__file__).resolve().parent.parent / "src"
SWEEP = ["sweep", "--t-end", "3", "--dt-list", "1e-1,3e-2", "--p-run", "24", "--p-ref", "113",
         "--jobs", "1"]


@pytest.fixture
def fresh_loader():
    """The loader forgets its result before and after the test, so the test
    builds and loads again and later tests see the usual kernels."""
    schemes._load_kernels.cache_clear()
    yield
    schemes._load_kernels.cache_clear()


def run_cli(argv, out: Path, **env):
    environ = dict(os.environ, PYTHONPATH=str(SRC), **env)
    return subprocess.run([sys.executable, "-m", "roundtrap.cli", *argv, "--out-dir", str(out)],
                          env=environ, capture_output=True, text=True)


def environment(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())["environment"]


def test_unwritable_cache_falls_back(tmp_path, compiled):
    (tmp_path / "file").write_text("")  # a cache directory that cannot be made, even by root
    fallback = run_cli(SWEEP, tmp_path / "fallback", XDG_CACHE_HOME=str(tmp_path / "file"))
    assert (fallback.returncode, fallback.stderr) == (0, "")
    assert environment(tmp_path / "fallback") == {"compiled_kernels": False}
    usual = run_cli(SWEEP, tmp_path / "usual")
    assert (usual.returncode, usual.stderr) == (0, "")
    assert environment(tmp_path / "usual") == {"compiled_kernels": True}
    assert _data_columns(tmp_path / "fallback" / "sweep.csv") == _data_columns(tmp_path / "usual" / "sweep.csv")


@pytest.mark.parametrize("cc", ["no-such-compiler", "false"])  # missing; failing compile
def test_failed_build_falls_back(tmp_path, monkeypatch, capsys, fresh_loader, cc):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_compiled, "CC", cc)
    assert main([*SWEEP, "--out-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    assert schemes._load_kernels() is None
    assert environment(tmp_path / "out") == {"compiled_kernels": False}
    assert not any((tmp_path / "cache" / "roundtrap").iterdir())  # no library, no temporary file
    monkeypatch.undo()
    schemes._load_kernels.cache_clear()
    assert main([*SWEEP, "--out-dir", str(tmp_path / "usual")]) == 0
    assert _data_columns(tmp_path / "out" / "sweep.csv") == _data_columns(tmp_path / "usual" / "sweep.csv")


def test_build_into_cache(tmp_path, monkeypatch, fresh_loader):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    if schemes._load_kernels() is None:
        pytest.skip("the compiled kernels did not build or load")
    [built] = (tmp_path / "roundtrap").iterdir()
    assert built.name.startswith("kernels-") and built.suffix == ".so"
    stamp = built.stat().st_mtime_ns
    schemes._load_kernels.cache_clear()
    assert schemes._load_kernels() is not None  # loaded from the cache, not rebuilt
    assert built.stat().st_mtime_ns == stamp


def test_cache_key_follows_the_flags(tmp_path, monkeypatch, compiled):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    first = _compiled._build()
    monkeypatch.setattr(_compiled, "CFLAGS", (*_compiled.CFLAGS, "-DUNUSED_MACRO"))
    assert _compiled._build() != first


def test_environment_block(tmp_path, compiled):
    assert compiled_kernels(Scheme.MIDPOINT_IMPLICIT, 24) and compiled_kernels(Scheme.MIDPOINT_IMPLICIT, 113)
    assert not compiled_kernels(Scheme.MIDPOINT_IMPLICIT, 30)
    assert not compiled_kernels(Scheme.RK3, 24)
    for argv, used in (
        (["sweep", "--t-end", "1", "--dt-list", "1e-1", "--p-run", "30", "--p-ref", "113"], True),
        (["sweep", "--t-end", "1", "--dt-list", "1e-1", "--p-run", "30", "--p-ref", "64"], False),
        (["sweep", "--scheme", "rk3", "--t-end", "1", "--dt-list", "1e-1"], False),
        (["diagnose", "spectral"], False),
    ):
        assert main([*argv, "--out-dir", str(tmp_path)]) == 0
        assert environment(tmp_path) == {"compiled_kernels": used}, argv


def test_import_builds_and_loads_nothing(tmp_path):
    code = ("import sys, roundtrap.cli, roundtrap.schemes as s; "
            "print('ctypes' in sys.modules, s._load_kernels.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(tmp_path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "0"]
    assert not (tmp_path / "roundtrap").exists()
