#!/usr/bin/env python3
"""Documentation structure checker (CI `docs` job, also runnable locally).

Checks, from the repository root:
  1. every public header under src/ opens with a `/// \\file` contract
     comment (within the first few lines after the include guard);
  2. every relative markdown link in README.md and docs/*.md resolves to a
     file or directory in the repository (anchors and external URLs are
     ignored);
  3. every Markdown file named in the code and tool sources (src/, tests/,
     bench/, tools/) exists: a bare name at the root or under docs/, a name
     with a directory relative to the root.

Exit status is non-zero with one line per violation, so CI output reads as
a to-do list.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# [text](target) — excluding images and absolute URLs.
LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")

# A Markdown file name as a comment or string cites it: `ROADMAP.md`,
# `docs/API.md`. Not a glob such as `docs/*.md`.
MD_NAME_RE = re.compile(r"(?<![\w./*-])([\w-][\w./-]*\.md)\b")
CODE_DIRS = ("src", "tests", "bench", "tools")
CODE_EXTENSIONS = (".h", ".cc", ".py", ".txt", ".cmake")


def check_file_headers():
    errors = []
    for dirpath, _, files in os.walk(os.path.join(REPO, "src")):
        for name in sorted(files):
            if not name.endswith(".h"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as f:
                head = f.read(400)
            if "\\file" not in head:
                rel = os.path.relpath(path, REPO)
                errors.append(
                    f"{rel}: missing `/// \\file` contract comment near the top"
                )
    return errors


def markdown_files():
    yield os.path.join(REPO, "README.md")
    docs = os.path.join(REPO, "docs")
    if os.path.isdir(docs):
        for name in sorted(os.listdir(docs)):
            if name.endswith(".md"):
                yield os.path.join(docs, name)


def check_links():
    errors = []
    for md in markdown_files():
        base = os.path.dirname(md)
        rel_md = os.path.relpath(md, REPO)
        with open(md, encoding="utf-8") as f:
            text = f.read()
        for lineno, line in enumerate(text.splitlines(), 1):
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                target_path = target.split("#", 1)[0]
                if not target_path:
                    continue
                resolved = os.path.normpath(os.path.join(base, target_path))
                if not os.path.exists(resolved):
                    errors.append(
                        f"{rel_md}:{lineno}: broken relative link '{target}'"
                    )
    return errors


def md_name_exists(name):
    if "/" in name:
        return os.path.exists(os.path.join(REPO, os.path.normpath(name)))
    return any(
        os.path.exists(os.path.join(REPO, where, name))
        for where in ("", "docs")
    )


def check_cited_md_names():
    errors = []
    for top in CODE_DIRS:
        for dirpath, _, files in os.walk(os.path.join(REPO, top)):
            for name in sorted(files):
                if not name.endswith(CODE_EXTENSIONS):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, REPO)
                with open(path, encoding="utf-8", errors="replace") as f:
                    lines = f.read().splitlines()
                for lineno, line in enumerate(lines, 1):
                    for cited in MD_NAME_RE.findall(line):
                        if not md_name_exists(cited):
                            errors.append(
                                f"{rel}:{lineno}: cites '{cited}', which is "
                                "neither at the root nor under docs/"
                            )
    return errors


def main():
    errors = check_file_headers() + check_links() + check_cited_md_names()
    for e in errors:
        print(e)
    if errors:
        print(f"check_docs: {len(errors)} violation(s)")
        return 1
    print(
        "check_docs: all header contracts present, all relative links "
        "resolve, every cited Markdown file exists"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
