#!/usr/bin/env python3
"""Fail on two RNG draws inside one function-call argument list.

C++ leaves the order in which a call's arguments are evaluated
unspecified: GCC evaluates `Complex(g(rng), g(rng))` right to left and
Clang left to right, so the two compilers build different numbers from
the same seed. Draw into named locals first. Braced lists
(`Complex{g(rng), g(rng)}`) and separate declarators are evaluated in
order, so they pass.

A draw is an engine called directly (`rng()`) or an engine passed to a
nested call (`g(rng)`, `randomSU2(rng)`). An engine passed bare
(`randomUnitary(4, rng)`) is not a draw of the enclosing argument
list: the callee draws after every argument was evaluated. Engines are
identifiers named `rng` or `*_rng`, and names declared with a standard
engine type or the `Rng` alias.

Usage: check_rng_draws.py DIR_OR_FILE...   (exit 1 on any finding)
"""

import os
import re
import sys

ENGINE_TYPES = re.compile(
    r"\b(?:Rng|std::mt19937(?:_64)?|std::default_random_engine|"
    r"std::minstd_rand0?|std::ranlux\w+|std::knuth_b)\b\s*&?\s*")
NOT_CALLS = {"if", "while", "for", "switch", "return", "sizeof",
             "alignof", "decltype", "catch", "static_assert", "noexcept",
             "throw", "co_return", "co_yield"}
OPEN = {"(": ")", "[": "]", "{": "}"}


def strip(text):
    """Blank comments and string/char literals, keeping line breaks."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c == 'R' and text.startswith('R"', i):
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            end = text.find(")" + m.group(1) + '"', i) if m else -1
            j = n if end < 0 else end + len(m.group(1)) + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c in "\"'":
            # Skip digit separators (1'000) as literal openers.
            if c == "'" and i > 0 and text[i - 1].isalnum():
                out.append(c)
                i += 1
                continue
            j = i + 1
            while j < n and text[j] != c and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(c + " " * (j - i - 2) + c if j - i >= 2 else c)
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def engine_scopes(code):
    """(name, lo, hi): an engine visible in code[lo:hi].

    `rng` and `*_rng` are engines everywhere. A name declared with an
    engine type is one from its declaration to the end of the
    innermost brace block around it: `Rng a(1), b(2);`.
    """
    scopes = [(n, 0, len(code))
              for n in {"rng"} | set(re.findall(r"\b\w+_rng\b", code))]
    opens, block_end = [], {}
    for i, c in enumerate(code):
        if c == "{":
            opens.append(i)
        elif c == "}" and opens:
            block_end[opens.pop()] = i
    open_at = sorted(block_end)

    def scope_end(p):
        inner = [o for o in open_at if o < p <= block_end[o]]
        return block_end[inner[-1]] if inner else len(code)

    for m in ENGINE_TYPES.finditer(code):
        first = re.match(r"(\w+)\s*[({;,=)]", code[m.end():])
        if not first:
            continue  # `using Rng = ...`
        names = [first.group(1)]
        depth = 0
        for i in range(m.end(), len(code)):
            c = code[i]
            if c in "([{":
                depth += 1
            elif c in ")]}":
                depth -= 1
                if depth < 0:
                    break
            elif c == ";" and depth == 0:
                break
            elif c == "," and depth == 0:
                d = re.match(r"\s*(\w+)\s*[({]", code[i + 1:])
                if d:
                    names.append(d.group(1))
        end = scope_end(m.start())
        scopes += [(n, m.start(), end) for n in names]
    return scopes


def matching(code, i):
    """Index of the bracket closing the one that opens at code[i]."""
    stack = []
    for j in range(i, len(code)):
        c = code[j]
        if c in OPEN:
            stack.append(OPEN[c])
        elif c in ")]}":
            if not stack or stack.pop() != c:
                return -1
            if not stack:
                return j
    return -1


def split_args(code, lo, hi):
    """Top-level comma-separated spans of code[lo:hi]."""
    args, depth, start = [], 0, lo
    for j in range(lo, hi):
        c = code[j]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "," and depth == 0:
            args.append((start, j))
            start = j + 1
    args.append((start, hi))
    return args


def drawn_engines(arg, scopes, at):
    """Names of the engines `arg`, found at offset `at`, draws from."""
    found = set()
    for name, lo, hi in scopes:
        if not lo <= at < hi or name in found:
            continue
        for m in re.finditer(r"\b" + name + r"\b", arg):
            before = arg[:m.start()]
            if re.search(r"(\.|->|::)\s*$", before):
                continue  # a member named like an engine
            # rng() is a draw; so is g(rng) or randomSU2(rng).
            if (re.match(r"\s*\(", arg[m.end():]) or
                    before.count("(") > before.count(")")):
                found.add(name)
                break
    return found


def check(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        code = strip(f.read())
    scopes = engine_scopes(code)
    findings = []
    for m in re.finditer(r"\(", code):
        k = m.start()
        while k > 0 and code[k - 1].isspace():
            k -= 1
        word = re.search(r"\w+$", code[max(0, k - 64):k])
        if word:
            if word.group(0) in NOT_CALLS:
                continue
        elif k == 0 or code[k - 1] not in ")]>":
            continue
        close = matching(code, m.start())
        if close < 0:
            continue
        drawn = {}
        for a, b in split_args(code, m.start() + 1, close):
            for name in drawn_engines(code[a:b], scopes, a):
                drawn[name] = drawn.get(name, 0) + 1
        for name, count in sorted(drawn.items()):
            if count < 2:
                continue
            line = code.count("\n", 0, m.start()) + 1
            callee = word.group(0) if word else "(...)"
            findings.append(f"{path}:{line}: {count} arguments of "
                            f"'{callee}(...)' draw from '{name}'; C++ "
                            "leaves their order unspecified")
    return findings


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    findings = []
    for root in argv[1:]:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs)
        for path in paths:
            if path.endswith((".cc", ".hh", ".cpp", ".hpp", ".h")):
                findings += check(path)
    for f in findings:
        print(f)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
