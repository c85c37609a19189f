"""Run pytest on a build of rk4.c made by a given compiler, with every
entry point of `arbo._kernels.Kernels` swapped in for the loaded ones.

    PYTHONPATH=src python .github/scripts/swapped_kernels.py \
        COMPILER CACHE_DIR [PYTEST ARGS...]

COMPILER is the command that builds rk4.c with the loader's own flags
(clang, or a wrapper that adds sanitizer flags); CACHE_DIR holds the
build.  `arbo.cli` is imported after the swap, so the CLI's `simulate`
runs the swapped-in kernel too.  Exits with pytest's status.
"""

import sys

import pytest

import arbo._kernels as k

compiler, cache_dir, *pytest_args = sys.argv[1:]
kernels = k.load(compiler=compiler, cache_dir=cache_dir)
if kernels.backend != "c":
    sys.exit(f"no build with {compiler}: {kernels.reason}")
for name in kernels._fields:
    if callable(getattr(kernels, name)):
        setattr(k, name, getattr(kernels, name))
import arbo.cli  # noqa: E402  (binds the swapped-in kernels)
if arbo.cli.rk4_basic is not kernels.rk4_basic:
    sys.exit("arbo.cli holds another rk4_basic than the swapped-in one")
sys.exit(pytest.main(pytest_args))
