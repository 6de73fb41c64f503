#!/usr/bin/env bash
# Builds the tagperf benchmark from source and runs one workload. Run it
# from the repository root:
#
#   bash tagperf/run.sh --workload tag-questions --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary, the
# span files and the wire workload's database directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/tagperf"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

# Name the source the binary is built from: the git revision when there is
# one, else a digest of the Go sources.
rev=
if [ -e "$root/.git" ]; then
	rev=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)
fi
if [ -z "$rev" ]; then
	rev="src-$(find "$root" -path "$root/.bench_build" -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs cat | sha256sum | cut -c1-12)"
fi

(cd "$root/tagperf" && go build -buildvcs=false -ldflags "-X main.srcRev=$rev" -o "$out/tagperf" .)
cd "$root"
exec "$out/tagperf" "$@"
