#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload dmv-bulk --seed 1 --seconds 15 --trace 0
#
# Every build artefact, the Go build cache and the traced run's span files
# stay under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/perfbench"

export GOCACHE="$out/perfbench/gocache"
export GOPATH="$out/perfbench/gopath"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false
export XDG_CONFIG_HOME="$out/perfbench/config"

bin="$out/perfbench/perfbench"
(cd "$root/perfbench" && go build -o "$bin" .) >&2
exec "$bin" --root "$root" --spans-dir "$out/perfbench/spans" "$@"
