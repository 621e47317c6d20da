#!/usr/bin/env bash
# loc.sh — print the production Go line count: every tracked .go file
# except tests, the standalone perfbench module and testdata fixtures.
# Informational only: a PR that deletes code reports the before and
# after numbers next to its benchmark deltas.
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files -z -- '*.go' ':!:*_test.go' ':!:perfbench/**' ':!:**/testdata/**' |
	xargs -0 cat | wc -l | tr -d ' '
