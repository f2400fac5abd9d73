#!/usr/bin/env python3
"""Dead-export check: every value a lib .mli exports must be used by
qualified name in some source file outside its own module.

Usage: python3 tools/dead_exports.py [ROOT]   (ROOT defaults to .)

It checks each `val` of a .mli under ROOT/lib, at top level or inside a
`module X : sig ... end`; the inside of a `module type` is skipped,
since its members are reached through first-class modules.  It reads
every .ml/.mli under lib, bin, bench, perfbench, examples and test,
except the module's own two files, with comments and string literals
removed.  A value `v` of module `M` is used in a file that names `M.v`,
where `M` is the module's name (so its library path `Lib.M.v` counts),
an alias bound in that file by `module A = ...M`, or the name of a lib
module that re-exports `M` (an `.ml` that is only `include ...M`).  A
bare `v` also counts in a file that opens `M` (`open`, `let open`,
`include`, or a local open `M.(...)`).

It prints each offender as `file:line: Module.value` and exits 1; it
prints nothing and exits 0 when every export is used.
"""

import os
import re
import sys

ROOTS = ("lib", "bin", "bench", "perfbench", "examples", "test")

CHAR_LIT = re.compile(
    r"'(?:[^\\'\n]|\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3}))'")
QUOTED_OPEN = re.compile(r"\{([a-z_]*)\|")


def skip_string(src, i):
    """Index just past the string literal starting at src[i] == '"'."""
    i += 1
    while i < len(src):
        if src[i] == "\\":
            i += 2
        elif src[i] == '"':
            return i + 1
        else:
            i += 1
    return i


def skip_literal(src, i):
    """Index past a string, quoted string or char literal at src[i],
    or None when none starts there."""
    c = src[i]
    if c == '"':
        return skip_string(src, i)
    if c == "{":
        m = QUOTED_OPEN.match(src, i)
        if m:
            close = src.find("|" + m.group(1) + "}", m.end())
            return len(src) if close < 0 else close + len(m.group(1)) + 2
    if c == "'" and not (i > 0 and (src[i - 1].isalnum() or src[i - 1] in "_'")):
        m = CHAR_LIT.match(src, i)
        if m:
            return m.end()
    return None


def strip(src):
    """The source with comments and literals blanked, newlines kept."""
    out = []
    i, n = 0, len(src)
    while i < n:
        if src.startswith("(*", i):
            start, depth, i = i, 1, i + 2
            while i < n and depth:
                if src.startswith("(*", i):
                    depth, i = depth + 1, i + 2
                elif src.startswith("*)", i):
                    depth, i = depth - 1, i + 2
                else:
                    j = skip_literal(src, i)
                    i = j if j is not None else i + 1
            out.append(" " + "\n" * src.count("\n", start, i))
            continue
        j = skip_literal(src, i)
        if j is not None:
            out.append(" " + "\n" * src.count("\n", i, j))
            i = j
        else:
            out.append(src[i])
            i += 1
    return "".join(out)


MPATH = r"[A-Z][\w']*(?:\s*\.\s*[A-Z][\w']*)*"
QUALIFIED = re.compile(r"\b([A-Z][\w']*)\s*\.\s*([a-z_][\w']*)")
LOCAL_OPEN = re.compile(r"\b([A-Z][\w']*)\s*\.\s*[(\[{]")
OPEN = re.compile(r"\b(?:open!?|include)\s+(" + MPATH + r")(?![\w'.])")
ALIAS = re.compile(
    r"\bmodule\s+([A-Z][\w']*)\s*=\s*(" + MPATH + r")(?![\w'.])(?!\s*\()")
WORD = re.compile(r"\b[a-z_][\w']*")


def last(path):
    return re.split(r"\s*\.\s*", path)[-1]


class Source:
    """What one source file names: qualified pairs, opens, aliases."""

    def __init__(self, path):
        with open(path, encoding="utf-8", errors="replace") as f:
            self.text = strip(f.read())
        self.words = set(WORD.findall(self.text))
        aliases = {a: last(p) for a, p in ALIAS.findall(self.text)}
        self.aliases = {}
        for a in aliases:
            target, seen = aliases[a], {a}
            while target in aliases and target not in seen:
                seen.add(target)
                target = aliases[target]
            self.aliases[a] = target
        self.opens = {self.resolve(last(p)) for p in OPEN.findall(self.text)}
        self.opens |= {self.resolve(m) for m in LOCAL_OPEN.findall(self.text)}
        self.qualifiers = {}  # value -> resolved module names it follows
        for m, v in QUALIFIED.findall(self.text):
            self.qualifiers.setdefault(v, set()).add(self.resolve(m))

    def resolve(self, name):
        return self.aliases.get(name, name)

    def uses(self, names, value):
        if value in self.words and self.opens & names:
            return True
        return bool(self.qualifiers.get(value, set()) & names)


VAL_DECL = re.compile(
    r"(?P<mtype>\bmodule\s+type\s+[A-Z][\w']*\s*=\s*sig\b)"
    r"|\bmodule\s+(?:rec\s+)?(?P<mod>[A-Z][\w']*)\s*:\s*sig\b"
    r"|(?P<other>\b(?:sig|object|struct|begin)\b)"
    r"|(?P<end>\bend\b)"
    r"|\bval\s+(?P<val>[a-z_][\w']*)")


def exports(text):
    """(module path inside the file, value, line) of each checked val."""
    stack = []  # enclosing module names; None where vals are not checked
    for m in VAL_DECL.finditer(text):
        if m["mtype"] or m["other"]:
            stack.append(None)
        elif m["mod"]:
            stack.append(m["mod"])
        elif m["end"]:
            if stack:
                stack.pop()
        elif None not in stack:
            yield stack[:], m["val"], text.count("\n", 0, m.start()) + 1


def module_name(path):
    base = os.path.basename(path)
    return base[0].upper() + base[1:].rsplit(".", 1)[0]


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    files = []
    for top in ROOTS:
        for d, dirs, names in os.walk(os.path.join(root, top)):
            dirs[:] = sorted(x for x in dirs
                             if x != "_build" and not x.startswith("."))
            files += [os.path.join(d, x) for x in sorted(names)
                      if x.endswith((".ml", ".mli"))]
    sources = {f: Source(f) for f in files}
    lib = os.path.join(root, "lib") + os.sep

    # A lib .ml with no .mli that is only `include P` re-exports P.
    reexports = {}
    for f, s in sources.items():
        if f.startswith(lib) and f.endswith(".ml") and f + "i" not in sources:
            m = re.fullmatch(r"\s*include\s+(" + MPATH + r")\s*", s.text)
            if m:
                reexports.setdefault(last(m.group(1)), set()).add(
                    module_name(f))

    dead = []
    for mli in sorted(f for f in sources if f.startswith(lib)
                      and f.endswith(".mli")):
        own = {mli, mli[:-1]}
        top = module_name(mli)
        for inner, value, line in exports(sources[mli].text):
            name = inner[-1] if inner else top
            names = {name} | reexports.get(name, set())
            if not any(s.uses(names, value)
                       for f, s in sources.items() if f not in own):
                shown = ".".join([top] + inner + [value])
                dead.append(f"{os.path.relpath(mli, root)}:{line}: {shown}")
    if dead:
        print("exported from lib but used nowhere outside its module:")
        print("\n".join(dead))
        sys.exit(1)


if __name__ == "__main__":
    main()
