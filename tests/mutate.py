"""Comparison mutants of the verifier, each run against the verifier's tests.

A mutant swaps one comparison operator (< and <=, > and >=, == and !=)
inside one of TARGETS, in a copy of src/, and runs pytest -x over TESTS on
that copy.  It survives when every test still passes.  The script exits 1
when a mutant survives that EQUIVALENT does not list, or when a listed one
is killed, so the list stays the reviewed set of mutants that no input can
tell apart from the code, each with the reason.  Run from the repository
root, for about 5.5 minutes:

    python3 tests/mutate.py

The file's name keeps pytest from collecting it.
"""

from __future__ import annotations

import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# module under src/gapforge -> the functions whose comparisons are mutated,
# nested functions and lambdas included
TARGETS = {
    "covering": ("verify_certificate", "_first_failure", "_same_pairs", "_kills"),
    "sieve": ("first_non_prime", "_strike"),
}

TESTS = [f"tests/test_{name}.py" for name in (
    "verify_oracle", "verify_fuzz", "covering", "cli", "crt_oracle", "golden",
    "acceptance")]

SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}

# a mutant's name -> why it computes what the code does on every input
EQUIVALENT = {
    "sieve.first_non_prime: values < PROVEN_LIMIT -> values <= PROVEN_LIMIT":
        "the one value it moves into the tested range is 2**64, which is even, "
        "so it is still the first failing value in its place; only under a "
        "memory budget past 2**64 bytes would the mutant try to sieve up to "
        "2**64 and run out of memory, as the code does for a value just below",
    "sieve.first_non_prime: v >= PROVEN_LIMIT -> v > PROVEN_LIMIT":
        "the one value it sends to is_prime is 2**64, which trial division by "
        "2 refuses, so it is still the first failing value",
    "sieve._strike: p > y // _SPARSE -> p >= y // _SPARSE":
        "it only lists the moduli equal to y // _SPARSE, and with them maybe "
        "every modulus past it; a listed modulus sets the flags a sliced one does",
    "sieve._strike: np.count_nonzero(listed) < _LISTED -> np.count_nonzero(listed) <= _LISTED":
        "it only slices the moduli past y // _SPARSE, rather than list them, "
        "when there are exactly _LISTED of them; both set the same flags",
}

# a mutant that loops or allocates without bound is killed, not waited for
TIMEOUT_S = 300
MEMORY_LIMIT = 4 << 30


def _compares(tree: ast.Module, module: str):
    """(function, Compare node) for each comparison inside a target function,
    in source order."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in TARGETS[module]:
            found = [inner for inner in ast.walk(node) if isinstance(inner, ast.Compare)]
            for inner in sorted(found, key=lambda n: (n.lineno, n.col_offset)):
                yield node.name, inner


def mutants() -> list[tuple[str, str, str]]:
    """(name, module, mutated source) for every mutant, in a fixed order."""
    found = []
    for module in TARGETS:
        source = (ROOT / "src" / "gapforge" / f"{module}.py").read_text(encoding="utf-8")
        sites = [(function, i, j)
                 for i, (function, node) in enumerate(_compares(ast.parse(source), module))
                 for j, op in enumerate(node.ops) if type(op) in SWAP]
        seen: dict[str, int] = {}
        for function, i, j in sites:
            tree = ast.parse(source)
            node = list(_compares(tree, module))[i][1]
            before = ast.unparse(node)
            node.ops[j] = SWAP[type(node.ops[j])]()
            name = f"{module}.{function}: {before} -> {ast.unparse(node)}"
            seen[name] = seen.get(name, 0) + 1
            if seen[name] > 1:  # the same expression again in one function
                name += f" #{seen[name]}"
            found.append((name, module, ast.unparse(tree)))
    return found


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _tests_pass(src: Path) -> bool:
    """Whether TESTS pass with the package imported from src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S, preexec_fn=_limit_memory, check=False)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main() -> int:
    found = mutants()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        package = src / "gapforge"
        where = subprocess.run(
            [sys.executable, "-c", "import gapforge; print(gapforge.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            check=True).stdout.strip()
        if Path(where).parent != package:
            print(f"the tests would import gapforge from {where}, not the mutants' copy")
            return 2
        originals = {m: (package / f"{m}.py").read_text(encoding="utf-8") for m in TARGETS}
        # the copy as mutants are written, unparsed and unmutated, must pass
        for module, text in originals.items():
            (package / f"{module}.py").write_text(ast.unparse(ast.parse(text)), encoding="utf-8")
        if not _tests_pass(src):
            print("the tests fail on the unmutated copy")
            return 2
        survivors = []
        for k, (name, module, text) in enumerate(found, 1):
            (package / f"{module}.py").write_text(text, encoding="utf-8")
            t0 = time.time()
            survived = _tests_pass(src)
            (package / f"{module}.py").write_text(originals[module], encoding="utf-8")
            verdict = "SURVIVED" if survived else "killed"
            print(f"[{k}/{len(found)}] {verdict:8} {time.time() - t0:5.1f}s  {name}", flush=True)
            if survived:
                survivors.append(name)
    unlisted = [name for name in survivors if name not in EQUIVALENT]
    stale = [name for name in EQUIVALENT if name not in survivors]
    print(f"{len(found)} mutants, {len(found) - len(survivors)} killed, "
          f"{len(survivors)} survived, {len(survivors) - len(unlisted)} of them listed")
    for name in unlisted:
        print(f"survived, not listed as equivalent: {name}")
    for name in stale:
        print(f"listed as equivalent, but killed or gone: {name}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
