"""List the public items that no program calls.

The scan works on a copy of the checkout in a temporary directory and never
edits the working tree:

1. In every workspace crate's `src/` (not the umbrella package's, which only
   re-exports the crates) each `pub` item, `pub use` and `pub mod` becomes
   `pub(crate)`.
2. `cargo check` type-checks the workspace's lib, bin and example targets
   and the `benchmark/` package. Each privacy error points at the item a
   caller outside its crate needs, and that item becomes `pub` again. The
   checks repeat until both build.
3. rustc's `dead_code` warnings then name every item no program calls. Unit,
   integration and doc tests are not built, so an item that only they call
   is listed too.

It prints one `path:line: warning` line per item and exits 0, or exits 1 if
a build fails with an error that points at no demoted item. Each round
re-checks every crate downstream of a promoted item; the scan needs about
two dozen rounds, half a minute on a 2-core host.

Run from the repository root:

    python3 .github/dead_api.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

# A `pub` declaration at the start of a line: an item, a re-export or a module.
DECLARATION = re.compile(
    r"^(\s*)pub (?=(?:const |unsafe |async )*(?:fn|struct|enum|trait|const|type|static|use|mod)\b)"
)
DEMOTED = re.compile(r"^(\s*)pub\(crate\) ")
DEMOTED_USE = re.compile(r"^\s*pub\(crate\) use\b")
# An error that names a private type by its path and points at no definition.
PRIVATE_TYPE = re.compile(r"^type `([\w:]+)` is private$")
# An error that names an item a `pub use` cannot re-export.
REEXPORT = re.compile(r"^`(\w+)` is (?:only public within the crate|private), and cannot be re-exported")
ITEM = r"(?:const |unsafe |async )*(?:fn|struct|enum|trait|const|type|static) "
CHECK = ["cargo", "check", "--offline", "--keep-going", "--message-format=json"]
# Each build: the directory its relative span paths start from, and its target selection.
BUILDS = [
    ("", ["--workspace", "--lib", "--bins", "--examples"]),
    ("benchmark", ["--manifest-path", "benchmark/Cargo.toml"]),
]


def demote(copy):
    """Demote every public declaration: {path: lines} and {path: demoted line indices}."""
    sources, demoted = {}, {}
    for directory, _, files in os.walk(os.path.join(copy, "crates")):
        if os.sep + "src" not in directory:
            continue
        for name in files:
            if not name.endswith(".rs"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as f:
                lines = f.read().split("\n")
            hits = {i for i, line in enumerate(lines) if DECLARATION.match(line)}
            for i in hits:
                lines[i] = DECLARATION.sub(r"\1pub(crate) ", lines[i], count=1)
            sources[path], demoted[path] = lines, hits
            if hits:
                write(path, lines)
    return sources, demoted


def write(path, lines):
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines))


def diagnostics(copy, target):
    """Run every build; yields (directory of relative span paths, rustc diagnostic).

    A build that fails without a compiler error (a manifest or lock problem)
    ends the scan.
    """
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    env.pop("RUSTFLAGS", None)
    for base, selection in BUILDS:
        out = subprocess.run(CHECK + selection, cwd=copy, env=env, capture_output=True, text=True)
        records = [json.loads(line) for line in out.stdout.splitlines()]
        messages = [r["message"] for r in records if r.get("reason") == "compiler-message"]
        if out.returncode != 0 and not any(m["level"] == "error" for m in messages):
            sys.exit(f"{' '.join(CHECK + selection)} failed:\n{out.stderr}")
        for message in messages:
            yield os.path.join(copy, base), message


def pointed_at(message):
    """Every span a diagnostic points at besides its primary (use-site) spans."""
    spans = [s for s in message["spans"] if not s["is_primary"]]
    for child in message["children"]:
        spans.extend(child["spans"])
    return spans


def promote(path, line, sources, demoted):
    """Make `pub` again the demoted declaration that holds `line`; True if there was one."""
    hits = demoted.get(path, set())
    index = line - 1
    if index not in hits:
        # A name inside a multi-line `use` tree: its declaration starts above.
        above = max((i for i in hits if i < index), default=None)
        if above is None or not DEMOTED_USE.match(sources[path][above]):
            return False
        index = above
    sources[path][index] = DEMOTED.sub(r"\1pub ", sources[path][index], count=1)
    hits.discard(index)
    write(path, sources[path])
    return True


def promote_named(base, message, sources, demoted):
    """Make `pub` again the items an error names but points at no definition of.

    A private type in another crate's signature is named by its module path;
    each module on that path becomes `pub` too. An item a `pub use` cannot
    re-export is named alone, and every declaration of that name in the
    `pub use`'s crate becomes `pub`.
    """
    reexported = REEXPORT.match(message["message"])
    if reexported:
        name, promoted = reexported.group(1), 0
        for span in message["spans"]:
            path = os.path.normpath(os.path.join(base, span["file_name"]))
            crate = path.rpartition(os.sep + "src" + os.sep)[0] + os.sep
            for other in [p for p in sources if p.startswith(crate)]:
                promoted += promote_matching(other, ITEM + rf"{name}\b", sources, demoted)
        return promoted
    named = PRIVATE_TYPE.match(message["message"])
    if not named:
        return 0
    *path_segments, name = named.group(1).split("::")
    promoted = 0
    # The path may start with crate names (`dscs_serverless::dscs_faas::config::X`):
    # the longest tail of it that names a module file is the module path.
    for start in range(len(path_segments) + 1):
        modules = path_segments[start:]
        file = os.path.join(*modules) + ".rs" if modules else "lib.rs"
        for path in [p for p in sources if p.endswith(os.sep + "src" + os.sep + file)]:
            found = promote_matching(path, ITEM + rf"{name}\b", sources, demoted)
            crate = path.rpartition(os.sep + "src" + os.sep)[0]
            for depth, module in enumerate(modules if found else ()):
                parent = os.path.join(*modules[:depth]) + ".rs" if depth else "lib.rs"
                found += promote_matching(
                    os.path.join(crate, "src", parent), rf"mod {module}\b", sources, demoted)
            promoted += found
        if promoted:
            break
    return promoted


def promote_matching(path, declaration, sources, demoted):
    """Make `pub` again each demoted declaration in `path` that matches `declaration`."""
    pattern = re.compile(r"^\s*pub\(crate\) " + declaration)
    return sum(
        promote(path, index + 1, sources, demoted)
        for index in sorted(demoted.get(path, ())) if pattern.match(sources[path][index])
    )


def main():
    with tempfile.TemporaryDirectory(prefix="dead_api-") as scratch:
        copy = os.path.join(scratch, "repo")
        shutil.copytree(os.getcwd(), copy,
                        ignore=shutil.ignore_patterns(".git", "target", ".bench_build"))
        sources, demoted = demote(copy)
        print(f"demoted {sum(map(len, demoted.values()))} declarations", file=sys.stderr)
        rounds = 0
        while True:
            rounds += 1
            errors, promoted, warnings = [], 0, {}
            for base, message in diagnostics(copy, os.path.join(scratch, "target")):
                lint = (message.get("code") or {}).get("code")
                if message["level"] == "error":
                    errors.append(message)
                    for span in pointed_at(message):
                        path = os.path.normpath(os.path.join(base, span["file_name"]))
                        promoted += promote(path, span["line_start"], sources, demoted)
                    promoted += promote_named(base, message, sources, demoted)
                elif lint == "dead_code":
                    for span in message["spans"]:
                        path = os.path.normpath(os.path.join(base, span["file_name"]))
                        if span["is_primary"] and path in sources:
                            warnings[(os.path.relpath(path, copy), span["line_start"])] = \
                                message["message"]
            print(f"round {rounds}: {len(errors)} errors, {promoted} made public",
                  file=sys.stderr)
            if not errors:
                break
            if not promoted:
                for message in errors:
                    print(message["rendered"], file=sys.stderr)
                print("these errors point at no demoted declaration", file=sys.stderr)
                return 1
        for (path, line), text in sorted(warnings.items()):
            print(f"{path}:{line}: {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
