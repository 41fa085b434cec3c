#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds cmd/bench from source and runs
# it from the checkout root. A run may read and write only inside its
# checkout, so the binary, the go command's cache and config dir, and temp
# files all go under .bench_build/ (see the root .gitignore).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/go-cache" GOTMPDIR="$PWD/.bench_build/tmp" XDG_CONFIG_HOME="$PWD/.bench_build/config"
go build -C cmd/bench -o "$PWD/.bench_build/bench" .
# Relative, so that EngineDist's unix socket path stays under sun_path's 108
# bytes however deep the checkout lies.
TMPDIR=.bench_build/tmp exec .bench_build/bench "$@"
