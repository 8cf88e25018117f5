#!/bin/sh
# Line counts of the root module's Go code, per package and in total, split
# into non-test and test lines. perfbench/ is a module of its own and is
# excluded. `make loc` runs this; it gates nothing.
#
# Usage: scripts/loc.sh [repo-root]
set -eu

cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' -not -path './perfbench/*' -not -path './.*/*' |
    xargs wc -l |
    awk '
        $2 == "total" { next }
        {
            file = $2
            sub(/^\.\//, "", file)
            pkg = file
            if (!sub(/\/[^\/]*$/, "", pkg)) pkg = "."
            if (file ~ /_test\.go$/) test[pkg] += $1; else code[pkg] += $1
            seen[pkg] = 1
        }
        END {
            printf "%-32s %9s %9s\n", "package", "non-test", "test"
            n = 0
            for (p in seen) pkgs[++n] = p
            # insertion sort: awk has no portable sort builtin
            for (i = 2; i <= n; i++) {
                v = pkgs[i]
                for (j = i - 1; j > 0 && pkgs[j] > v; j--) pkgs[j + 1] = pkgs[j]
                pkgs[j + 1] = v
            }
            for (i = 1; i <= n; i++) {
                p = pkgs[i]
                printf "%-32s %9d %9d\n", p, code[p], test[p]
                tc += code[p]; tt += test[p]
            }
            printf "%-32s %9d %9d\n", "total", tc, tt
        }'
