#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it; every
# argument passes through (--workload, --seed, --seconds, --trace).
#
#   bash perfbench/run.sh --workload insitu-sz --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ at the checkout root. Without the repository's sources
# beside it the build fails and the script exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${root}/.bench_build/perfbench"
mkdir -p "${out}/gocache" "${out}/tmp" "${out}/gopath" "${out}/home"

export GOCACHE="${out}/gocache" GOTMPDIR="${out}/tmp" GOPATH="${out}/gopath"
export GOMODCACHE="${out}/gopath/pkg/mod" GOENV=off GOWORK=off GOFLAGS=
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
export HOME="${out}/home" XDG_CONFIG_HOME="${out}/home" XDG_CACHE_HOME="${out}/home"

(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)

if [ -d "${root}/.git" ]; then
	PERFBENCH_COMMIT="$(git -C "${root}" rev-parse HEAD 2>/dev/null || echo unknown)"
	export PERFBENCH_COMMIT
fi

cd "${root}"
exec "${out}/perfbench" --workdir "${out}/work" "$@"
