"""Docs-freshness: every fenced code block in the docs executes.

Extracts every fenced code block from ``README.md`` and ``docs/*.md``
and executes it, so documentation can never silently rot:

* ``python`` / ``pycon`` blocks run through ``exec`` (pycon blocks as
  doctests) in a fresh namespace with a temporary working directory.
* ``sh`` / ``bash`` / ``console`` blocks run line by line: ``repro ...``
  and ``python -m repro ...`` commands are dispatched in-process
  through :func:`repro.cli.main` (a leading ``$ `` prompt and a
  ``PYTHONPATH=src`` prefix are stripped; trailing output redirects
  are dropped; arguments naming repo files are resolved).  Package- and
  VCS-manager commands (``pip``, ``git``) and meta commands
  (``pytest``) are skipped — they manage the environment the docs run
  *in*, they are not examples of using the tool.
* blocks in any other language (``text``, ``json``, ...) are prose,
  not executables, and are skipped.

Every executed command must succeed (exit status 0).
"""

import doctest
import glob
import io
import os
import re
import shlex
from contextlib import redirect_stdout

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FENCE_RE = re.compile(r"^```(\w*)[^\n]*\n(.*?)^```\s*$",
                      re.MULTILINE | re.DOTALL)

PYTHON_LANGS = {"python", "py", "pycon"}
SHELL_LANGS = {"sh", "bash", "console", "shell"}

#: Commands that are environment management, not tool usage.
SKIPPED_COMMANDS = {"pip", "git", "pytest", "cd", "export"}


def _doc_files():
    files = [os.path.join(REPO_ROOT, "README.md")]
    files += sorted(glob.glob(os.path.join(REPO_ROOT, "docs", "*.md")))
    return files


def _blocks():
    for path in _doc_files():
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        rel = os.path.relpath(path, REPO_ROOT)
        for index, match in enumerate(FENCE_RE.finditer(text)):
            lang = (match.group(1) or "").lower()
            line = text[:match.start()].count("\n") + 1
            yield (f"{rel}:{line}", index, lang, match.group(2))


BLOCKS = list(_blocks())


def test_docs_exist_and_have_blocks():
    files = _doc_files()
    assert len(files) >= 10, "expected README.md + the docs/ site"
    assert BLOCKS, "no fenced code blocks found"


def _shell_words(line: str):
    """Normalise one shell line into argv words (or None to skip)."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    if line.startswith("$ "):
        line = line[2:]
    # Drop trailing output redirects (`> /dev/null`, `>> log`).
    line = re.sub(r"\s*>>?\s*\S+\s*$", "", line)
    words = shlex.split(line)
    # Strip env-var prefixes like PYTHONPATH=src.
    while words and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*=.*", words[0]):
        words = words[1:]
    return words or None


def _resolve_repo_paths(words):
    """Arguments naming repo-relative files get absolute paths (the
    test runs from a temporary cwd)."""
    resolved = []
    for word in words:
        candidate = os.path.join(REPO_ROOT, word)
        if ("/" in word and not word.startswith("-")
                and os.path.exists(candidate)):
            resolved.append(candidate)
        else:
            resolved.append(word)
    return resolved


def _run_repro(argv) -> None:
    from repro.cli import main

    buffer = io.StringIO()
    try:
        with redirect_stdout(buffer):
            status = main(argv)
    except SystemExit as exc:  # argparse --version/--help style exits
        status = exc.code or 0
    assert status in (0, None), (
        f"`repro {' '.join(argv)}` exited with {status}")


def _run_shell_block(body: str) -> int:
    """Execute a shell block; returns the number of commands run."""
    executed = 0
    # Join continued lines (trailing backslash).
    body = re.sub(r"\\\n\s*", " ", body)
    for raw in body.splitlines():
        words = _shell_words(raw)
        if words is None:
            continue
        if words[0] in SKIPPED_COMMANDS:
            continue
        if words[0] == "repro":
            _run_repro(_resolve_repo_paths(words[1:]))
            executed += 1
            continue
        if words[0] == "python" and words[1:3] == ["-m", "repro"]:
            _run_repro(_resolve_repo_paths(words[3:]))
            executed += 1
            continue
        if words[0] == "python" and words[1:3] == ["-m", "pytest"]:
            continue  # meta: do not run pytest inside pytest
        if words[0] == "python" and len(words) > 1 \
                and words[1].endswith(".py"):
            # `python examples/foo.py` — smoke-covered by CI's
            # examples job; running them all here would double it.
            continue
        raise AssertionError(
            f"docs shell block uses a command the freshness runner "
            f"does not know: {raw.strip()!r} — either make it a "
            f"`repro`/`python -m repro` invocation or mark the block "
            f"as ```text")
    return executed


def _run_python_block(body: str, lang: str) -> None:
    if lang == "pycon" or body.lstrip().startswith(">>>"):
        parser = doctest.DocTestParser()
        test = parser.get_doctest(body, {"__name__": "__docs__"},
                                  "docs", "docs", 0)
        runner = doctest.DocTestRunner(
            optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS)
        result = runner.run(test)
        assert result.failed == 0, "pycon block failed"
        return
    code = compile(body, "<docs>", "exec")
    namespace = {"__name__": "__docs__"}
    with redirect_stdout(io.StringIO()):
        exec(code, namespace)  # noqa: S102 — that is the point


@pytest.mark.parametrize(
    "where,index,lang,body",
    BLOCKS,
    # Named by file and ordinal, so prose edits above a block do not
    # rename its test; the failure message gives the line.
    ids=[f"{where.rsplit(':', 1)[0]}#{index}"
         for where, index, _, _ in BLOCKS])
def test_fenced_block_executes(where, index, lang, body, tmp_path,
                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    if lang not in PYTHON_LANGS | SHELL_LANGS:
        pytest.skip(f"{lang or 'untagged'} block is prose, not code")
    try:
        if lang in PYTHON_LANGS:
            _run_python_block(body, lang)
        else:
            _run_shell_block(body)
    except Exception as exc:
        raise AssertionError(f"the {lang} block at {where} failed: "
                             f"{exc!r}") from exc


def test_every_block_is_tagged():
    """Untagged fences are ambiguous — force an explicit language."""
    untagged = [where for where, _, lang, _ in BLOCKS if not lang]
    assert not untagged, f"untagged fenced blocks: {untagged}"
